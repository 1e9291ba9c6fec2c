//! The three case-study apps as GPU-PF pipelines whose module macros are
//! bound to pipeline parameters (`MacroBinding::Param`), plus their seeded
//! inputs, CPU-reference checks and launch replays.
//!
//! Every buffer is allocated once at its largest size: a parameter change
//! then re-specializes the module and rewrites kernel arguments and grids,
//! but never reallocates device memory (the simulator's heap is a bump
//! allocator, so per-op reallocation would grow memory with run length).

use gpu_pf::{Arg, IntegrityConfig, MacroBinding, ParamId, Pipeline, RefreshMode, ResId};
use ks_apps::backproj::{self, BackprojProblem};
use ks_apps::piv::{self, PivProblem};
use ks_apps::synth::{self, ConeGeometry, CtScenario, Image, PivScenario};
use ks_apps::template_match::{self, MatchProblem};
use ks_core::{Binary, Compiler};
use ks_sim::{KArg, LaunchDims, LaunchOptions, LaunchReport};
use std::sync::Arc;

/// Threads the CPU references use.
const CPU_THREADS: usize = 2;

/// Implementation and problem parameters of one op, per app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cfg {
    Tm {
        tile_w: u32,
        tile_h: u32,
        threads: u32,
        shift_w: u32,
        shift_h: u32,
    },
    Piv {
        rb: u32,
        threads: u32,
        mask_w: u32,
        mask_h: u32,
        offs: u32,
    },
    Bp {
        ppl: u32,
        zb: u32,
    },
}

/// Fixed geometry of a pipeline: what stays constant while its
/// parameters change (float kernel arguments cannot be re-set, so every
/// dimension they depend on is fixed here).
#[derive(Debug, Clone, Copy)]
pub enum Geom {
    /// Template `templ`×`templ`; the frame fits `max_shift` offsets plus
    /// `pad` extra columns, which change its pitch but not the work.
    Tm {
        templ: u32,
        max_shift: u32,
        pad: u32,
    },
    /// Square `img`×`img` particle images; masks and offsets up to the max.
    Piv {
        img: u32,
        max_mask: u32,
        max_offs: u32,
    },
    /// `vol`³ volume, `det`×`det` detector, up to `max_ppl` projections.
    Bp { vol: u32, det: u32, max_ppl: u32 },
}

/// One kernel launch of a pipeline iteration, reconstructed from the
/// pipeline's own parameters so it can be replayed through
/// `ks_sim::launch`.
pub struct Launch {
    pub kernel: ResId,
    pub name: &'static str,
    pub dims: LaunchDims,
    pub args: Vec<KArg>,
}

/// Inputs of one op, kept for the off-clock CPU-reference check.
pub enum Inputs {
    Tm { frame: Image },
    Piv { scen: PivScenario },
    Bp { scen: CtScenario, geo: Vec<f32> },
}

struct TmIds {
    frame_w: u32,
    frame_h: u32,
    templ: u32,
    template: Image,
    m_tile_w: ParamId,
    m_tile_h: ParamId,
    m_shift_w: ParamId,
    m_tiles: ParamId,
    m_threads: ParamId,
    a_shift_w: ParamId,
    a_noffs: ParamId,
    a_tile_w: ParamId,
    a_tile_h: ParamId,
    a_tiles_x: ParamId,
    a_ntiles: ParamId,
    g_numer: ParamId,
    g_lin: ParamId,
    g_stats: ParamId,
    blk: ParamId,
    k: [ResId; 4],
    h_frame: ResId,
    d_frame: ResId,
    d_templ: ResId,
    d_partial: ResId,
    d_numer: ResId,
    d_sums: ResId,
    d_sumsq: ResId,
    d_ncc: ResId,
    h_ncc: ResId,
    denom_a: f32,
}

struct PivIds {
    img: u32,
    m_rb: ParamId,
    m_threads: ParamId,
    m_mask_w: ParamId,
    m_mask_h: ParamId,
    m_offs: ParamId,
    ints: Vec<ParamId>,
    grid: ParamId,
    blk: ParamId,
    k: ResId,
    h_a: ResId,
    h_b: ResId,
    d_a: ResId,
    d_b: ResId,
    d_sc: ResId,
    h_sc: ResId,
}

struct BpIds {
    vol: u32,
    det: u32,
    m_ppl: ParamId,
    m_zb: ParamId,
    a_ppl: ParamId,
    a_zb: ParamId,
    geo_ext: ParamId,
    grid: ParamId,
    k: ResId,
    h_proj: ResId,
    h_geo: ResId,
    d_proj: ResId,
    d_vol: ResId,
    h_vol: ResId,
}

enum Ids {
    Tm(Box<TmIds>),
    Piv(PivIds),
    Bp(BpIds),
}

/// A GPU-PF pipeline for one app, its current configuration and the ids
/// of everything the benchmark re-sets between ops.
pub struct AppPipe {
    pub p: Pipeline,
    pub module: ResId,
    pub source: &'static str,
    pub cfg: Cfg,
    ids: Ids,
}

const SID: f32 = 40.0;
const SDD: f32 = 80.0;

impl AppPipe {
    /// Build the pipeline for `geom` with its first configuration `cfg`.
    /// Nothing is compiled until the first `refresh()`.
    pub fn new(
        compiler: Arc<Compiler>,
        geom: Geom,
        cfg: Cfg,
        mode: RefreshMode,
        integrity: bool,
        seed: u64,
    ) -> AppPipe {
        let mut p = Pipeline::new(compiler, 1 << 20);
        p.set_refresh_mode(mode);
        if integrity {
            p.set_integrity(Some(IntegrityConfig::default()));
        }
        let every = p.schedule_param("every", 1, 0);
        let (module, source, ids) = match geom {
            Geom::Tm {
                templ,
                max_shift,
                pad,
            } => build_tm(&mut p, every, templ, max_shift, pad, seed),
            Geom::Piv {
                img,
                max_mask,
                max_offs,
            } => build_piv(&mut p, every, img, max_mask, max_offs),
            Geom::Bp { vol, det, max_ppl } => build_bp(&mut p, every, vol, det, max_ppl),
        };
        let mut pipe = AppPipe {
            p,
            module,
            source,
            cfg,
            ids,
        };
        pipe.configure(cfg);
        pipe
    }

    pub fn app(&self) -> &'static str {
        match self.ids {
            Ids::Tm(_) => "template_match",
            Ids::Piv(_) => "piv",
            Ids::Bp(_) => "backproj",
        }
    }

    /// Set every parameter `cfg` determines. Macro parameters dirty the
    /// module, so the next `refresh()` specializes it anew.
    pub fn configure(&mut self, cfg: Cfg) {
        self.cfg = cfg;
        let p = &mut self.p;
        match (&self.ids, cfg) {
            (
                Ids::Tm(t),
                Cfg::Tm {
                    tile_w,
                    tile_h,
                    threads,
                    shift_w,
                    shift_h,
                },
            ) => {
                let tiles_x = t.templ / tile_w;
                let tiles = tiles_x * (t.templ / tile_h);
                let noffs = shift_w * shift_h;
                let oblocks = noffs.div_ceil(threads);
                p.set_int(t.m_tile_w, tile_w as i64);
                p.set_int(t.m_tile_h, tile_h as i64);
                p.set_int(t.m_shift_w, shift_w as i64);
                p.set_int(t.m_tiles, tiles as i64);
                p.set_int(t.m_threads, threads as i64);
                p.set_int(t.a_shift_w, shift_w as i64);
                p.set_int(t.a_noffs, noffs as i64);
                p.set_int(t.a_tile_w, tile_w as i64);
                p.set_int(t.a_tile_h, tile_h as i64);
                p.set_int(t.a_tiles_x, tiles_x as i64);
                p.set_int(t.a_ntiles, tiles as i64);
                p.set_triplet(t.g_numer, [oblocks, tiles, 1]);
                p.set_triplet(t.g_lin, [oblocks, 1, 1]);
                p.set_triplet(t.g_stats, [noffs, 1, 1]);
                p.set_triplet(t.blk, [threads, 1, 1]);
            }
            (
                Ids::Piv(v),
                Cfg::Piv {
                    rb,
                    threads,
                    mask_w,
                    mask_h,
                    offs,
                },
            ) => {
                let prob = piv_problem(v.img, cfg);
                let (masks_x, _) = prob.mask_grid();
                let no = prob.num_offsets() as u32;
                p.set_int(v.m_rb, rb as i64);
                p.set_int(v.m_threads, threads as i64);
                p.set_int(v.m_mask_w, mask_w as i64);
                p.set_int(v.m_mask_h, mask_h as i64);
                p.set_int(v.m_offs, offs as i64);
                let vals = [
                    v.img,
                    mask_w,
                    mask_h,
                    offs,
                    no,
                    masks_x as u32,
                    mask_w,
                    mask_h,
                    offs / 2,
                    offs / 2,
                    rb,
                ];
                for (id, val) in v.ints.iter().zip(vals) {
                    p.set_int(*id, val as i64);
                }
                p.set_triplet(v.grid, [prob.num_masks() as u32, no.div_ceil(rb), 1]);
                p.set_triplet(v.blk, [threads, 1, 1]);
            }
            (Ids::Bp(b), Cfg::Bp { ppl, zb }) => {
                p.set_int(b.m_ppl, ppl as i64);
                p.set_int(b.m_zb, zb as i64);
                p.set_int(b.a_ppl, ppl as i64);
                p.set_int(b.a_zb, zb as i64);
                p.set_extent(b.geo_ext, [ppl * 2, 1, 1], 4);
                p.set_triplet(b.grid, [b.vol.div_ceil(8), b.vol.div_ceil(8), b.vol / zb]);
            }
            _ => panic!(
                "configuration {cfg:?} does not match the {} pipeline",
                self.app()
            ),
        }
    }

    /// Seeded host inputs for an op under `cfg` (made off the clock).
    pub fn make_inputs(&self, cfg: Cfg, seed: u64) -> Inputs {
        match (&self.ids, cfg) {
            (Ids::Tm(t), _) => {
                let mut frame = synth::textured_image(t.frame_w as usize, t.frame_h as usize, seed);
                // Embed the template so every frame has a clear match.
                let (ox, oy) = ((seed % 7) as usize, (seed / 7 % 7) as usize);
                for y in 0..t.templ as usize {
                    for x in 0..t.templ as usize {
                        frame.set(ox + x, oy + y, t.template.at(x, y));
                    }
                }
                Inputs::Tm { frame }
            }
            (Ids::Piv(v), _) => {
                let flow = ((seed % 5) as i32 - 2, (seed / 5 % 5) as i32 - 2);
                let scen = synth::piv_scenario(v.img as usize, v.img as usize, flow, seed);
                Inputs::Piv { scen }
            }
            (Ids::Bp(b), Cfg::Bp { ppl, .. }) => {
                let per = (b.det * b.det) as usize;
                let mut x = seed | 1;
                let projections: Vec<f32> = (0..ppl as usize * per)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x >> 40) as f32 / (1u64 << 24) as f32
                    })
                    .collect();
                // The angles `cpu_backproject` assumes for `ppl` projections.
                let geo: Vec<f32> = (0..ppl)
                    .flat_map(|i| {
                        let th = i as f32 * std::f32::consts::PI * 2.0 / ppl as f32;
                        [th.cos(), th.sin()]
                    })
                    .collect();
                let scen = CtScenario {
                    volume: Vec::new(),
                    n: b.vol as usize,
                    projections,
                    num_proj: ppl as usize,
                    det_u: b.det as usize,
                    det_v: b.det as usize,
                    geo: ConeGeometry {
                        sid: SID,
                        sdd: SDD,
                        du: 1.0,
                        dv: 1.0,
                    },
                };
                Inputs::Bp { scen, geo }
            }
            _ => panic!(
                "configuration {cfg:?} does not match the {} pipeline",
                self.app()
            ),
        }
    }

    /// Hand the op's inputs to the pipeline (after `refresh()`, which
    /// sizes host buffers).
    pub fn apply_inputs(&mut self, inputs: &Inputs) {
        let p = &mut self.p;
        match (&self.ids, inputs) {
            (Ids::Tm(t), Inputs::Tm { frame }) => p.set_host_f32(t.h_frame, &frame.data),
            (Ids::Piv(v), Inputs::Piv { scen }) => {
                p.set_host_f32(v.h_a, &scen.a.data);
                p.set_host_f32(v.h_b, &scen.b.data);
            }
            (Ids::Bp(b), Inputs::Bp { scen, geo }) => {
                p.set_host_f32(b.h_proj, &scen.projections);
                p.set_host_f32(b.h_geo, geo);
            }
            _ => panic!("inputs do not match the {} pipeline", self.app()),
        }
    }

    /// Compare the last iteration's output with the app's CPU reference.
    pub fn check(&self, inputs: &Inputs) -> Result<(), String> {
        match (&self.ids, self.cfg, inputs) {
            (
                Ids::Tm(t),
                Cfg::Tm {
                    shift_w, shift_h, ..
                },
                Inputs::Tm { frame },
            ) => {
                let prob = MatchProblem {
                    frame_w: t.frame_w as usize,
                    frame_h: t.frame_h as usize,
                    templ_w: t.templ as usize,
                    templ_h: t.templ as usize,
                    shift_w: shift_w as usize,
                    shift_h: shift_h as usize,
                    frames: 1,
                };
                let want = template_match::cpu_ncc(&prob, frame, &t.template, CPU_THREADS);
                let got = self.p.host_f32(t.h_ncc);
                compare("template_match ncc", &got[..want.len()], &want, 2e-3)
            }
            (Ids::Piv(v), cfg, Inputs::Piv { scen }) => {
                let prob = piv_problem(v.img, cfg);
                let want = piv::cpu_ssd(&prob, scen, CPU_THREADS);
                let got = self.p.host_f32(v.h_sc);
                compare("piv ssd", &got[..want.len()], &want, 1e-4)
            }
            (Ids::Bp(b), Cfg::Bp { ppl, .. }, Inputs::Bp { scen, .. }) => {
                let prob = BackprojProblem {
                    n: b.vol as usize,
                    num_proj: ppl as usize,
                    det_u: b.det as usize,
                    det_v: b.det as usize,
                };
                let want = backproj::cpu_backproject(&prob, scen, CPU_THREADS);
                let got = self.p.host_f32(b.h_vol);
                compare("backproj volume", &got, &want, 1e-4)
            }
            _ => Err(format!("{}: inputs do not match the pipeline", self.app())),
        }
    }

    /// The launches one `run(1)` makes, with the pipeline's current
    /// arguments and device addresses.
    pub fn launches(&self) -> Vec<Launch> {
        let p = &self.p;
        let ptr = |r: ResId| KArg::Ptr(p.device_addr(r));
        let i = |v: u32| KArg::I32(v as i32);
        match (&self.ids, self.cfg) {
            (
                Ids::Tm(t),
                Cfg::Tm {
                    tile_w,
                    tile_h,
                    threads,
                    shift_w,
                    shift_h,
                },
            ) => {
                let tiles_x = t.templ / tile_w;
                let tiles = tiles_x * (t.templ / tile_h);
                let noffs = shift_w * shift_h;
                let oblocks = noffs.div_ceil(threads);
                let lin = LaunchDims::linear(oblocks, threads);
                vec![
                    Launch {
                        kernel: t.k[0],
                        name: "numerator_tiles",
                        dims: LaunchDims {
                            grid: (oblocks, tiles, 1),
                            block: (threads, 1, 1),
                            dynamic_shared: 0,
                        },
                        args: vec![
                            ptr(t.d_frame),
                            ptr(t.d_templ),
                            ptr(t.d_partial),
                            i(t.frame_w),
                            i(shift_w),
                            i(noffs),
                            i(t.templ),
                            i(tile_w),
                            i(tile_h),
                            i(tiles_x),
                            i(0),
                            i(0),
                            i(0),
                        ],
                    },
                    Launch {
                        kernel: t.k[1],
                        name: "sum_partials",
                        dims: lin,
                        args: vec![ptr(t.d_partial), ptr(t.d_numer), i(tiles), i(noffs)],
                    },
                    Launch {
                        kernel: t.k[2],
                        name: "window_stats",
                        dims: LaunchDims::linear(noffs, threads),
                        args: vec![
                            ptr(t.d_frame),
                            ptr(t.d_sums),
                            ptr(t.d_sumsq),
                            i(t.frame_w),
                            i(shift_w),
                            i(noffs),
                            i(t.templ),
                            i(t.templ),
                        ],
                    },
                    Launch {
                        kernel: t.k[3],
                        name: "normalize",
                        dims: lin,
                        args: vec![
                            ptr(t.d_numer),
                            ptr(t.d_sums),
                            ptr(t.d_sumsq),
                            ptr(t.d_ncc),
                            i(noffs),
                            KArg::F32(1.0 / (t.templ * t.templ) as f32),
                            KArg::F32(t.denom_a),
                        ],
                    },
                ]
            }
            (Ids::Piv(v), cfg) => {
                let Cfg::Piv {
                    rb,
                    threads,
                    mask_w,
                    mask_h,
                    offs,
                } = cfg
                else {
                    unreachable!("piv pipeline always holds a piv configuration")
                };
                let prob = piv_problem(v.img, cfg);
                let (masks_x, _) = prob.mask_grid();
                let no = prob.num_offsets() as u32;
                vec![Launch {
                    kernel: v.k,
                    name: "piv_ssd",
                    dims: LaunchDims {
                        grid: (prob.num_masks() as u32, no.div_ceil(rb), 1),
                        block: (threads, 1, 1),
                        dynamic_shared: 0,
                    },
                    args: vec![
                        ptr(v.d_a),
                        ptr(v.d_b),
                        ptr(v.d_sc),
                        i(v.img),
                        i(mask_w),
                        i(mask_h),
                        i(offs),
                        i(no),
                        i(masks_x as u32),
                        i(mask_w),
                        i(mask_h),
                        i(offs / 2),
                        i(offs / 2),
                        i(rb),
                    ],
                }]
            }
            (Ids::Bp(b), Cfg::Bp { ppl, zb }) => {
                let half = |n: u32| KArg::F32(n as f32 / 2.0);
                vec![Launch {
                    kernel: b.k,
                    name: "backproject",
                    dims: LaunchDims {
                        grid: (b.vol.div_ceil(8), b.vol.div_ceil(8), b.vol / zb),
                        block: (8, 8, 1),
                        dynamic_shared: 0,
                    },
                    args: vec![
                        ptr(b.d_proj),
                        ptr(b.d_vol),
                        i(b.vol),
                        i(b.det),
                        i(b.det),
                        i(ppl),
                        i(zb),
                        i(0),
                        KArg::F32(SID),
                        KArg::F32(SDD),
                        half(b.vol),
                        half(b.det),
                        half(b.det),
                    ],
                }]
            }
            _ => unreachable!("pipeline and configuration always match"),
        }
    }

    /// Replay this iteration's launches through `ks_sim::launch` on
    /// `bin` (the bound binary, or the generic one for an RE comparison).
    /// Overwrites outputs, so call it only after the op's output check.
    pub fn replay(
        &mut self,
        bin: Option<&Arc<Binary>>,
        functional: bool,
    ) -> Result<Vec<(&'static str, std::time::Duration, LaunchReport)>, String> {
        let mut out = Vec::new();
        for l in self.launches() {
            let b = match bin {
                Some(b) => b.clone(),
                None => self.p.kernel_binary(l.kernel).clone(),
            };
            let opts = LaunchOptions {
                functional,
                ..self.p.launch_options
            };
            let t = std::time::Instant::now();
            let rep = ks_sim::launch(&mut self.p.state, &b.module, l.name, l.dims, &l.args, opts)
                .map_err(|e| format!("{} replay: {e}", l.name))?;
            out.push((l.name, t.elapsed(), rep));
        }
        Ok(out)
    }

    pub fn first_kernel(&self) -> ResId {
        match &self.ids {
            Ids::Tm(t) => t.k[0],
            Ids::Piv(v) => v.k,
            Ids::Bp(b) => b.k,
        }
    }
}

pub fn compare(what: &str, got: &[f32], want: &[f32], tol: f32) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (g - w).abs();
        if err.is_nan() || err > tol * w.abs().max(1.0) {
            return Err(format!("{what}[{i}] = {g}, reference {w}"));
        }
    }
    Ok(())
}

fn piv_problem(img: u32, cfg: Cfg) -> PivProblem {
    let Cfg::Piv {
        mask_w,
        mask_h,
        offs,
        ..
    } = cfg
    else {
        unreachable!("piv problem from a piv configuration")
    };
    PivProblem {
        img_w: img as usize,
        img_h: img as usize,
        mask_w: mask_w as usize,
        mask_h: mask_h as usize,
        step_x: mask_w as usize,
        step_y: mask_h as usize,
        offs_w: offs as usize,
        offs_h: offs as usize,
    }
}

fn build_tm(
    p: &mut Pipeline,
    every: ParamId,
    templ: u32,
    max_shift: u32,
    pad: u32,
    seed: u64,
) -> (ResId, &'static str, Ids) {
    let (frame_w, frame_h) = (templ + max_shift + pad, templ + max_shift);
    let template = synth::textured_image(templ as usize, templ as usize, seed ^ 0x7e3a);
    let tmean = template.mean();
    let templc: Vec<f32> = template.data.iter().map(|v| v - tmean).collect();
    let denom_a: f32 = templc.iter().map(|v| v * v).sum();
    // Placeholder values: `configure` sets every parameter below.
    let m_tile_w = p.int_param("TILE_W", 1);
    let m_tile_h = p.int_param("TILE_H", 1);
    let m_shift_w = p.int_param("SHIFT_W", 1);
    let m_tiles = p.int_param("NUM_TILES", 1);
    let m_templ_w = p.int_param("TEMPL_W", templ as i64);
    let m_templ_h = p.int_param("TEMPL_H", templ as i64);
    let m_threads = p.int_param("THREADS", 32);
    let max_offs = max_shift * max_shift;
    let frame_ext = p.extent_param("frame", [frame_w * frame_h, 1, 1], 4);
    let templ_ext = p.extent_param("templc", [templ * templ, 1, 1], 4);
    let partial_ext = p.extent_param("partial", [templ * templ * max_offs, 1, 1], 4);
    let offs_ext = p.extent_param("offsets", [max_offs, 1, 1], 4);
    let module = p.module(
        template_match::KERNELS,
        vec![
            ("TILE_W", MacroBinding::Param(m_tile_w)),
            ("TILE_H", MacroBinding::Param(m_tile_h)),
            ("SHIFT_W", MacroBinding::Param(m_shift_w)),
            ("NUM_TILES", MacroBinding::Param(m_tiles)),
            ("TEMPL_W", MacroBinding::Param(m_templ_w)),
            ("TEMPL_H", MacroBinding::Param(m_templ_h)),
            ("THREADS", MacroBinding::Param(m_threads)),
        ],
    );
    let k = [
        p.kernel(module, "numerator_tiles"),
        p.kernel(module, "sum_partials"),
        p.kernel(module, "window_stats"),
        p.kernel(module, "normalize"),
    ];
    let h_frame = p.host_memory(frame_ext);
    let d_frame = p.global_memory(frame_ext);
    let h_templ = p.host_memory(templ_ext);
    let d_templ = p.global_memory(templ_ext);
    let d_partial = p.global_memory(partial_ext);
    let d_numer = p.global_memory(offs_ext);
    let d_sums = p.global_memory(offs_ext);
    let d_sumsq = p.global_memory(offs_ext);
    let d_ncc = p.global_memory(offs_ext);
    let h_ncc = p.host_memory(offs_ext);
    let once = p.schedule_param("once", u64::MAX >> 1, 0);

    let a_frame_w = p.int_param("frameW", frame_w as i64);
    let a_shift_w = p.int_param("shiftW", 1);
    let a_noffs = p.int_param("numOffsets", 1);
    let a_templ_w = p.int_param("templW", templ as i64);
    let a_templ_h = p.int_param("templH", templ as i64);
    let a_tile_w = p.int_param("tileW", 1);
    let a_tile_h = p.int_param("tileH", 1);
    let a_tiles_x = p.int_param("tilesX", 1);
    let a_zero = p.int_param("zero", 0);
    let a_ntiles = p.int_param("numTiles", 1);
    let a_inv_n = p.float_param("invN", 1.0 / (templ * templ) as f64);
    let a_denom = p.float_param("denomA", denom_a as f64);
    let g_numer = p.triplet_param("g-numer", [1, 1, 1]);
    let g_lin = p.triplet_param("g-lin", [1, 1, 1]);
    let g_stats = p.triplet_param("g-stats", [1, 1, 1]);
    let blk = p.triplet_param("block", [32, 1, 1]);

    p.copy("upload template", h_templ, d_templ, once);
    p.copy("upload frame", h_frame, d_frame, every);
    p.exec(
        "numerator",
        k[0],
        g_numer,
        blk,
        None,
        vec![
            Arg::Mem(d_frame),
            Arg::Mem(d_templ),
            Arg::Mem(d_partial),
            Arg::Param(a_frame_w),
            Arg::Param(a_shift_w),
            Arg::Param(a_noffs),
            Arg::Param(a_templ_w),
            Arg::Param(a_tile_w),
            Arg::Param(a_tile_h),
            Arg::Param(a_tiles_x),
            Arg::Param(a_zero),
            Arg::Param(a_zero),
            Arg::Param(a_zero),
        ],
        every,
    );
    p.exec(
        "summation",
        k[1],
        g_lin,
        blk,
        None,
        vec![
            Arg::Mem(d_partial),
            Arg::Mem(d_numer),
            Arg::Param(a_ntiles),
            Arg::Param(a_noffs),
        ],
        every,
    );
    p.exec(
        "window stats",
        k[2],
        g_stats,
        blk,
        None,
        vec![
            Arg::Mem(d_frame),
            Arg::Mem(d_sums),
            Arg::Mem(d_sumsq),
            Arg::Param(a_frame_w),
            Arg::Param(a_shift_w),
            Arg::Param(a_noffs),
            Arg::Param(a_templ_w),
            Arg::Param(a_templ_h),
        ],
        every,
    );
    p.exec(
        "normalize",
        k[3],
        g_lin,
        blk,
        None,
        vec![
            Arg::Mem(d_numer),
            Arg::Mem(d_sums),
            Arg::Mem(d_sumsq),
            Arg::Mem(d_ncc),
            Arg::Param(a_noffs),
            Arg::Param(a_inv_n),
            Arg::Param(a_denom),
        ],
        every,
    );
    p.copy("download ncc", d_ncc, h_ncc, every);
    p.set_host_f32(h_templ, &templc);
    let ids = TmIds {
        frame_w,
        frame_h,
        templ,
        template,
        m_tile_w,
        m_tile_h,
        m_shift_w,
        m_tiles,
        m_threads,
        a_shift_w,
        a_noffs,
        a_tile_w,
        a_tile_h,
        a_tiles_x,
        a_ntiles,
        g_numer,
        g_lin,
        g_stats,
        blk,
        k,
        h_frame,
        d_frame,
        d_templ,
        d_partial,
        d_numer,
        d_sums,
        d_sumsq,
        d_ncc,
        h_ncc,
        denom_a,
    };
    (module, template_match::KERNELS, Ids::Tm(Box::new(ids)))
}

fn build_piv(
    p: &mut Pipeline,
    every: ParamId,
    img: u32,
    max_mask: u32,
    max_offs: u32,
) -> (ResId, &'static str, Ids) {
    let m_rb = p.int_param("RB", 1);
    let m_threads = p.int_param("THREADS", 32);
    let m_mask_w = p.int_param("MASK_W", max_mask as i64);
    let m_mask_h = p.int_param("MASK_H", max_mask as i64);
    let m_offs = p.int_param("OFFS_W", max_offs as i64);
    let module = p.module(
        piv::KERNELS,
        vec![
            ("RB", MacroBinding::Param(m_rb)),
            ("THREADS", MacroBinding::Param(m_threads)),
            ("MASK_W", MacroBinding::Param(m_mask_w)),
            ("MASK_H", MacroBinding::Param(m_mask_h)),
            ("OFFS_W", MacroBinding::Param(m_offs)),
        ],
    );
    let k = p.kernel(module, "piv_ssd");
    // Smallest masks give the most mask positions: size scores for them.
    let most_masks = (img / 4).pow(2);
    let img_ext = p.extent_param("img", [img * img, 1, 1], 4);
    let sc_ext = p.extent_param("scores", [most_masks * max_offs * max_offs, 1, 1], 4);
    let h_a = p.host_memory(img_ext);
    let h_b = p.host_memory(img_ext);
    let d_a = p.global_memory(img_ext);
    let d_b = p.global_memory(img_ext);
    let d_sc = p.global_memory(sc_ext);
    let h_sc = p.host_memory(sc_ext);
    let grid = p.triplet_param("grid", [1, 1, 1]);
    let blk = p.triplet_param("block", [32, 1, 1]);
    let names = [
        "imgW",
        "maskW",
        "maskH",
        "offsW",
        "numOffsets",
        "masksX",
        "stepX",
        "stepY",
        "marginX",
        "marginY",
        "rb",
    ];
    let ints: Vec<ParamId> = names.iter().map(|n| p.int_param(n, 1)).collect();
    let mut args = vec![Arg::Mem(d_a), Arg::Mem(d_b), Arg::Mem(d_sc)];
    args.extend(ints.iter().map(|id| Arg::Param(*id)));
    p.copy("h2d-a", h_a, d_a, every);
    p.copy("h2d-b", h_b, d_b, every);
    p.exec("piv_ssd", k, grid, blk, None, args, every);
    p.copy("d2h", d_sc, h_sc, every);
    let ids = PivIds {
        img,
        m_rb,
        m_threads,
        m_mask_w,
        m_mask_h,
        m_offs,
        ints,
        grid,
        blk,
        k,
        h_a,
        h_b,
        d_a,
        d_b,
        d_sc,
        h_sc,
    };
    (module, piv::KERNELS, Ids::Piv(ids))
}

fn build_bp(
    p: &mut Pipeline,
    every: ParamId,
    vol: u32,
    det: u32,
    max_ppl: u32,
) -> (ResId, &'static str, Ids) {
    let m_ppl = p.int_param("PPL", 1);
    let m_zb = p.int_param("ZB", 1);
    let m_vol = p.int_param("VOL_N", vol as i64);
    let module = p.module(
        backproj::KERNELS,
        vec![
            ("PPL", MacroBinding::Param(m_ppl)),
            ("ZB", MacroBinding::Param(m_zb)),
            ("VOL_N", MacroBinding::Param(m_vol)),
        ],
    );
    let k = p.kernel(module, "backproject");
    let c_geo = p.constant_memory(module, "projGeo");
    let proj_ext = p.extent_param("proj", [max_ppl * det * det, 1, 1], 4);
    let vol_ext = p.extent_param("vol", [vol * vol * vol, 1, 1], 4);
    let geo_ext = p.extent_param("geo", [2, 1, 1], 4);
    let h_proj = p.host_memory(proj_ext);
    let d_proj = p.global_memory(proj_ext);
    let h_zero = p.host_memory(vol_ext);
    let d_vol = p.global_memory(vol_ext);
    let h_vol = p.host_memory(vol_ext);
    let h_geo = p.host_memory(geo_ext);
    let grid = p.triplet_param("grid", [1, 1, 1]);
    let blk = p.triplet_param("block", [8, 8, 1]);
    let a_ppl = p.int_param("ppl", 1);
    let a_zb = p.int_param("zb", 1);
    let mut args = vec![Arg::Mem(d_proj), Arg::Mem(d_vol)];
    for (name, v) in [("volN", vol), ("detU", det), ("detV", det)] {
        let id = p.int_param(name, v as i64);
        args.push(Arg::Param(id));
    }
    args.push(Arg::Param(a_ppl));
    args.push(Arg::Param(a_zb));
    let z0 = p.int_param("z0", 0);
    args.push(Arg::Param(z0));
    let floats = [
        ("sid", SID),
        ("sdd", SDD),
        ("halfN", vol as f32 / 2.0),
        ("halfU", det as f32 / 2.0),
        ("halfV", det as f32 / 2.0),
    ];
    for (name, v) in floats {
        let id = p.float_param(name, v as f64);
        args.push(Arg::Param(id));
    }
    // The kernel accumulates into the volume: clear it every iteration so
    // each op's output is one backprojection.
    p.copy("clear volume", h_zero, d_vol, every);
    p.copy("geo2const", h_geo, c_geo, every);
    p.copy("h2d", h_proj, d_proj, every);
    p.exec("backproject", k, grid, blk, None, args, every);
    p.copy("d2h", d_vol, h_vol, every);
    let ids = BpIds {
        vol,
        det,
        m_ppl,
        m_zb,
        a_ppl,
        a_zb,
        geo_ext,
        grid,
        k,
        h_proj,
        h_geo,
        d_proj,
        d_vol,
        h_vol,
    };
    (module, backproj::KERNELS, Ids::Bp(ids))
}
