//! The four closed-loop workloads. One client thread issues each op and
//! waits for it; the program keeps its default threads.

use crate::apps::{AppPipe, Cfg, Geom, Inputs};
use crate::collect::{ns, Collector};
use crate::redrive;
use gpu_pf::{IntegrityConfig, RefreshMode, Tier};
use ks_apps::backproj::{BackprojImpl, BackprojProblem};
use ks_apps::piv::{PivImpl, PivKernel, PivProblem};
use ks_apps::synth;
use ks_apps::template_match::{MatchImpl, MatchProblem};
use ks_apps::Variant;
use ks_core::{CacheStats, Compiler, Defines};
use ks_sim::{DeviceConfig, DeviceState, KArg, LaunchDims, LaunchOptions};
use ks_store::Store;
use ks_tune::{Config, ParamSpace, Strategy};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = [
    "respecialize",
    "steady_frames",
    "tune_sweep",
    "tiered_adapt",
];

/// Where a workload may write: a directory inside the checkout.
pub struct Ctx {
    pub seed: u64,
    pub out: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under the run's output directory.
    fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.out.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

pub trait Workload {
    /// Ops in the exact window. The op stream repeats with this period:
    /// op `i + window` does the same work on the same inputs as op `i`.
    fn window(&self) -> u64;
    /// Run the next op (or, for tune_sweep, the next tuning call); false
    /// once the seeded input stream is used up.
    fn step(&mut self, col: &mut Collector) -> bool;
    /// Off-clock work after the last step.
    fn finish(&mut self, _col: &mut Collector) {}
}

pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    match name {
        "respecialize" => Ok(Box::new(Respecialize::setup(ctx, RefreshMode::Blocking)?)),
        "tiered_adapt" => Ok(Box::new(Respecialize::setup(ctx, RefreshMode::Tiered)?)),
        "steady_frames" => Ok(Box::new(SteadyFrames::setup(ctx)?)),
        "tune_sweep" => Ok(Box::new(TuneSweep::setup(ctx)?)),
        _ => Err(format!("unknown workload `{name}`")),
    }
}

fn device() -> DeviceConfig {
    DeviceConfig::tesla_c2070()
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn cache_delta(before: &CacheStats, after: &CacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.disk_hits - before.disk_hits,
    )
}

fn count_cache(col: &mut Collector, before: &CacheStats, after: &CacheStats) {
    let (h, m, d) = cache_delta(before, after);
    col.count("ks-core.cache_hits", h as f64);
    col.count("ks-core.cache_misses", m as f64);
    col.count("ks-store.disk_hits", d as f64);
}

// ------------------------------------------------------------ respecialize

/// Geometry of the pipelines whose parameters change every op: small
/// problems, so that each op's cold compile outweighs its run.
const RESPEC_GEOMS: [Geom; 3] = [
    Geom::Tm {
        templ: 16,
        max_shift: 8,
        pad: 0,
    },
    Geom::Piv {
        img: 24,
        max_mask: 8,
        max_offs: 5,
    },
    Geom::Bp {
        vol: 12,
        det: 12,
        max_ppl: 64,
    },
];

/// Parameter sets per app in one epoch.
const RESPEC_PER_APP: usize = 20;

/// [`RESPEC_PER_APP`] evenly spaced specializations of each app's
/// implementation × problem grid, in a seeded order. Each entry differs
/// from the others in at least one module macro, so each is a cold
/// compile. Unrolled bodies (tile area, PPL × ZB) are capped so that no
/// single compile dwarfs the rest. The grids (130 to 144 entries) are
/// thinned the same way for every seed, so every seed compiles the same
/// mix, and an epoch is short enough to repeat several times in a run.
fn respec_streams(rng: &mut Rng) -> [Vec<Cfg>; 3] {
    let mut tm = Vec::new();
    for tile_w in [2, 4, 8, 16] {
        for tile_h in [2, 4, 8, 16] {
            if tile_w * tile_h > 64 {
                continue;
            }
            // At most 64 offsets: wider blocks would simulate idle threads.
            for threads in [32, 64] {
                for shift_w in 4..=8 {
                    tm.push(Cfg::Tm {
                        tile_w,
                        tile_h,
                        threads,
                        shift_w,
                        shift_h: 0,
                    });
                }
            }
        }
    }
    let mut piv = Vec::new();
    for rb in [1, 2, 4, 8] {
        for threads in [32, 64] {
            for mask_w in [4, 6, 8] {
                for mask_h in [4, 6, 8] {
                    for offs in [3, 5] {
                        piv.push(Cfg::Piv {
                            rb,
                            threads,
                            mask_w,
                            mask_h,
                            offs,
                        });
                    }
                }
            }
        }
    }
    let mut bp = Vec::new();
    // ZB divides VOL_N and stays within the generic kernel's ZB_MAX of 8,
    // which the RE comparison replays.
    for zb in [1, 2, 3, 4, 6] {
        for ppl in 1..=64 / zb {
            bp.push(Cfg::Bp { ppl, zb });
        }
    }
    for s in [&mut tm, &mut piv, &mut bp] {
        *s = (0..RESPEC_PER_APP)
            .map(|k| s[k * s.len() / RESPEC_PER_APP])
            .collect();
        rng.shuffle(s);
    }
    // The shift height is not a macro: draw it per op.
    for c in tm.iter_mut() {
        if let Cfg::Tm { shift_h, .. } = c {
            *shift_h = 4 + rng.below(5) as u32;
        }
    }
    [tm, piv, bp]
}

/// `respecialize` (blocking refresh) and `tiered_adapt` (tiered refresh)
/// share the parameter stream and the pipelines.
pub struct Respecialize {
    mode: RefreshMode,
    seed: u64,
    e: Epoch,
    store_dir: PathBuf,
    scratch_store: Store,
    /// Every epoch serves these parameter sets, with these input seeds
    /// (one per op), in this order.
    streams: [Vec<Cfg>; 3],
    data_seeds: Vec<u64>,
    next: usize,
}

/// One program instance serving the stream: a compiler over an empty
/// store and the three pipelines. When the streams run out the next
/// epoch starts (off the clock) with a new instance, so every op's
/// parameter set is one its compiler and store have never seen.
struct Epoch {
    pipes: Vec<AppPipe>,
    streams: [std::vec::IntoIter<Cfg>; 3],
    generic: Vec<Arc<ks_core::Binary>>,
    compiler: Arc<Compiler>,
}

impl Epoch {
    fn new(
        store_dir: &Path,
        mode: RefreshMode,
        seed: u64,
        streams: &[Vec<Cfg>; 3],
    ) -> Result<Epoch, String> {
        if store_dir.exists() {
            std::fs::remove_dir_all(store_dir).map_err(|e| format!("clear store: {e}"))?;
        }
        let compiler = Arc::new(
            Compiler::new(device())
                .with_store(store_dir)
                .map_err(|e| format!("attach store: {e}"))?,
        );
        let mut streams = streams.clone().map(|s| s.into_iter());
        let mut pipes = Vec::new();
        let mut generic = Vec::new();
        for (geom, stream) in RESPEC_GEOMS.iter().zip(streams.iter_mut()) {
            let cfg = stream.as_slice()[0];
            let mut pipe = AppPipe::new(compiler.clone(), *geom, cfg, mode, false, seed);
            // The generic binaries: what the RE comparison replays, and
            // what tiered refresh serves first.
            generic.push(
                compiler
                    .compile(pipe.source, Defines::new())
                    .map_err(|e| format!("generic compile: {e}"))?,
            );
            if mode == RefreshMode::Tiered {
                pipe.p
                    .refresh()
                    .map_err(|e| format!("setup refresh: {e}"))?;
                pipe.p.wait_promotions();
            }
            pipes.push(pipe);
        }
        Ok(Epoch {
            pipes,
            streams,
            generic,
            compiler,
        })
    }
}

impl Respecialize {
    fn setup(ctx: &Ctx, mode: RefreshMode) -> Result<Respecialize, String> {
        let mut rng = Rng::new(ctx.seed);
        let streams = respec_streams(&mut rng);
        let data_seeds = (0..3 * RESPEC_PER_APP).map(|_| rng.next()).collect();
        let store_dir = ctx.out.join("store");
        let e = Epoch::new(&store_dir, mode, ctx.seed, &streams)?;
        let scratch_dir = ctx.fresh_dir("scratch-store")?;
        Ok(Respecialize {
            mode,
            seed: ctx.seed,
            e,
            store_dir,
            scratch_store: Store::open(&scratch_dir).map_err(|e| format!("scratch store: {e}"))?,
            streams,
            data_seeds,
            next: 0,
        })
    }

    /// Re-drive the op's compile stages and store write (traced runs),
    /// grafting them under the refresh span.
    fn redrive_compile(
        &mut self,
        col: &mut Collector,
        app: usize,
        window: bool,
        parent: Option<usize>,
    ) -> Result<(), String> {
        let pipe = &self.e.pipes[app];
        let bin = pipe.p.kernel_binary(pipe.first_kernel()).clone();
        let st = redrive::compile_stages(&device(), pipe.source, &bin.defines, &bin.ptx)?;
        if window {
            col.count("ks-opt.pass_applications", st.pass_applications as f64);
            col.count("ks-codegen.ir_insts", st.ir_insts as f64);
        }
        col.sample_us("ks-core.compile_us", st.compile);
        col.sample_us(
            "ks-core.service_us",
            st.compile.saturating_sub(st.stage_total()),
        );
        let stages: [(&str, Duration); 6] = [
            ("ks-lang.preproc_us", st.preproc),
            ("ks-lang.parse_us", st.parse),
            ("ks-lang.sema_us", st.sema),
            ("ks-codegen.lower_us", st.lower),
            ("ks-sim.regalloc_us", st.regalloc),
            ("ks-ir.print_us", st.print),
        ];
        for (name, d) in stages {
            col.sample_us(name, d);
        }
        col.sample_us("ks-opt.opt_us", st.opt);
        for (pass, d) in redrive::PASSES.iter().zip(st.passes) {
            col.sample_us(&format!("ks-opt.{pass}_us"), d);
        }
        if self.mode == RefreshMode::Tiered {
            let promo = redrive::promotion(&device(), pipe.source, &bin.defines)?;
            col.sample_us("ks-core.promotion_us", promo);
            col.sample_us("ks-core.queue_wait_us", promo.saturating_sub(st.compile));
        }
        // Store write: the record the compile wrote, saved again into a
        // scratch store under the same key.
        let key = self.e.compiler.cache_key(pipe.source, &bin.defines);
        let payload = Store::open(&self.store_dir)
            .and_then(|s| s.load(key))
            .map_err(|e| format!("store load: {e}"))?
            .ok_or("compiled binary missing from the store")?;
        let t = Instant::now();
        self.scratch_store
            .save(key, &payload)
            .map_err(|e| format!("scratch save: {e}"))?;
        let save = t.elapsed();
        col.sample_us("ks-store.save_us", save);
        col.sample("ks-store.record_bytes", payload.len() as f64);

        // Blocking refresh compiles on this thread: lay the re-driven
        // stages out under the refresh span. Tiered refresh compiles in
        // the background, so nothing of it sits on the op's thread.
        if let Some(refresh) = parent {
            let r = &mut col.rec;
            let c = r.graft("ks-core.compile", refresh, ns(st.compile));
            for (name, d) in [
                ("ks-lang.preproc", st.preproc),
                ("ks-lang.parse", st.parse),
                ("ks-lang.sema", st.sema),
                ("ks-codegen.lower", st.lower),
            ] {
                r.graft(name, c, ns(d));
            }
            let o = r.graft("ks-opt.opt", c, ns(st.opt));
            for (pass, d) in redrive::PASSES.iter().zip(st.passes) {
                r.graft(&format!("ks-opt.{pass}"), o, ns(d));
            }
            r.graft("ks-sim.regalloc", c, ns(st.regalloc));
            r.graft("ks-ir.print", c, ns(st.print));
            r.graft("ks-store.save", refresh, ns(save));
        }
        Ok(())
    }
}

impl Workload for Respecialize {
    /// One epoch.
    fn window(&self) -> u64 {
        self.data_seeds.len() as u64
    }

    fn step(&mut self, col: &mut Collector) -> bool {
        let slot = self.next % self.data_seeds.len();
        let app = slot % 3;
        self.next += 1;
        if self.next > 1 && slot == 0 {
            match Epoch::new(&self.store_dir, self.mode, self.seed, &self.streams) {
                Ok(e) => self.e = e,
                Err(err) => {
                    col.fail(err);
                    return false;
                }
            }
        }
        let cfg = self.e.streams[app]
            .next()
            .expect("no grid runs out mid-round");
        let data_seed = self.data_seeds[slot];
        let window = col.in_window();
        let snap = (col.traced && window).then(|| ks_trace::registry().snapshot());
        let pipe = &mut self.e.pipes[app];
        let inputs = pipe.make_inputs(cfg, data_seed);
        let before = pipe.p.compiler().cache_stats();
        let promos = pipe.p.promotion_stats().promoted;

        let t0 = Instant::now();
        pipe.configure(cfg);
        let mut result = pipe.p.refresh().map_err(|e| format!("refresh: {e}"));
        let t_ref = Instant::now();
        let mut first = None;
        let mut interim_runs = Vec::new();
        let mut interim_check = Ok(());
        let mut t_run = t_ref;
        if result.is_ok() {
            pipe.apply_inputs(&inputs);
            if self.mode == RefreshMode::Tiered {
                // Serve from whatever tier is bound until the
                // specialization lands, then run once on it.
                loop {
                    let t = Instant::now();
                    if let Err(e) = pipe.p.run(1) {
                        result = Err(format!("interim run: {e}"));
                        break;
                    }
                    let end = Instant::now();
                    if first.is_none() {
                        first = Some(end - t0);
                        interim_check = pipe.check(&inputs);
                    }
                    interim_runs.push((t, end));
                    pipe.p.poll_promotions();
                    if pipe.p.module_tier(pipe.module) != Some(Tier::Promoting) {
                        break;
                    }
                }
            }
            t_run = Instant::now();
            if result.is_ok() {
                result = pipe.p.run(1).map_err(|e| format!("run: {e}"));
            }
        }
        let t1 = Instant::now();
        let after = pipe.p.compiler().cache_stats();
        let counters = snap.map(|before| counter_delta(&before));

        // Off the clock: the op's output against the CPU reference.
        let tier_ok = match pipe.p.module_tier(pipe.module) {
            Some(Tier::Specialized) => Ok(()),
            t => Err(format!("{} ended the op in tier {t:?}", pipe.app())),
        };
        let outcome = result
            .and(tier_ok)
            .and_then(|()| pipe.check(&inputs))
            .and(interim_check.map_err(|e| format!("first (interim) output: {e}")));
        let (op_time, first_time) = match self.mode {
            RefreshMode::Blocking => (t1 - t0, t1 - t0),
            RefreshMode::Tiered => (t1 - t_run, first.unwrap_or(t1 - t0)),
        };
        let ok = outcome.is_ok();

        let mut refresh_span = None;
        if col.traced {
            let root = col.span("op", None, t0, t1);
            let rs = col.span("gpu-pf.refresh", Some(root), t0, t_ref);
            for (s, e) in &interim_runs {
                col.span("gpu-pf.interim_run", Some(root), *s, *e);
            }
            let run = col.span("gpu-pf.run", Some(root), t_run, t1);
            refresh_span = Some((rs, run));
            col.sample_us("gpu-pf.run_us", t1 - t_run);
            if self.mode == RefreshMode::Tiered {
                col.sample_us("gpu-pf.first_launch_us", t_ref - t0);
                col.sample("gpu-pf.generic_runs", interim_runs.len() as f64);
            } else {
                col.sample_us("gpu-pf.refresh_us", t_ref - t0);
            }
        }
        let reports: Vec<_> = std::mem::take(&mut pipe.p.reports);
        pipe.p.clear_timings();
        let last = reports.len().saturating_sub(pipe.launches().len());
        if window && ok {
            let sim = col.launches(&reports[last..]);
            col.sim_ms.push(sim);
            count_cache(col, &before, &after);
            col.count(
                "gpu-pf.promotions",
                (self.e.pipes[app].p.promotion_stats().promoted - promos) as f64,
            );
            match self.e.pipes[app].replay(Some(&self.e.generic[app]), false) {
                Ok(re) => col
                    .speedups
                    .push(re.iter().map(|r| r.2.time_ms).sum::<f64>() / sim),
                Err(e) => col.fail(e),
            }
        }
        col.op(op_time, first_time, outcome);
        if !ok {
            return true;
        }
        if col.traced {
            let (rs, run) = refresh_span.expect("traced op has spans");
            let blocking = self.mode == RefreshMode::Blocking;
            if let Err(e) = self.redrive_compile(col, app, window, blocking.then_some(rs)) {
                col.fail(e);
            }
            replay_under(col, &mut self.e.pipes[app], run, t1 - t_run);
            if let Some(c) = counters {
                col.sample("ks-trace.counter_delta", c);
            }
        }
        true
    }
}

/// Sum of every registry counter's growth since `before`.
fn counter_delta(before: &ks_trace::MetricsSnapshot) -> f64 {
    let now = ks_trace::registry().snapshot();
    now.counters
        .iter()
        .map(|(k, v)| v.saturating_sub(before.counter(k)) as f64)
        .sum()
}

/// Replay the pipeline's last iteration functionally on its bound
/// binaries and graft the launches under the `gpu-pf.run` span `run`
/// that took `run_time`: what the run spent outside them is gpu-pf's own
/// host work.
fn replay_under(col: &mut Collector, pipe: &mut AppPipe, run: usize, run_time: Duration) {
    match pipe.replay(None, true) {
        Ok(launches) => {
            let mut total = Duration::ZERO;
            for (name, d, rep) in launches {
                total += d;
                col.sample_us("ks-sim.launch_us", d);
                if rep.stats.dyn_insts > 0 {
                    col.sample(
                        &format!("ks-sim.functional_ns_per_warp_inst.{name}"),
                        d.as_nanos() as f64 / rep.stats.dyn_insts as f64,
                    );
                }
                col.rec.graft("ks-sim.launch", run, ns(d));
            }
            col.sample_us("gpu-pf.host_us", run_time.saturating_sub(total));
        }
        Err(e) => col.fail(e),
    }
}

// ----------------------------------------------------------- steady_frames

/// Frames in one round of inputs: three witness periods of every
/// pipeline, so a frame's slot fixes whether it holds a witness run.
const STEADY_ROUND: usize = 48;

pub struct SteadyFrames {
    pipes: Vec<AppPipe>,
    /// Each pipeline's input seed, per frame of the round; the frames
    /// repeat round after round.
    data_seeds: Vec<[u64; 3]>,
    next: usize,
    /// Per pipeline: checked non-witness run times and witness run
    /// times (traced runs), µs.
    plain_us: Vec<Vec<f64>>,
    witness_us: Vec<Vec<f64>>,
}

impl SteadyFrames {
    fn setup(ctx: &Ctx) -> Result<SteadyFrames, String> {
        let mut rng = Rng::new(ctx.seed);
        let compiler = Arc::new(Compiler::new(device()));
        // The seed pads image pitches: the simulated work is the same,
        // its memory addresses (and so its simulated time) are not.
        let mut pad = || rng.below(4) as u32;
        let shapes = [
            (
                Geom::Tm {
                    templ: 16,
                    max_shift: 12,
                    pad: pad(),
                },
                Cfg::Tm {
                    tile_w: 8,
                    tile_h: 8,
                    threads: 64,
                    shift_w: 12,
                    shift_h: 12,
                },
            ),
            (
                Geom::Piv {
                    img: 40 + pad(),
                    max_mask: 12,
                    max_offs: 9,
                },
                Cfg::Piv {
                    rb: 4,
                    threads: 64,
                    mask_w: 12,
                    mask_h: 12,
                    offs: 9,
                },
            ),
            (
                Geom::Bp {
                    vol: 16,
                    det: 16 + pad(),
                    max_ppl: 6,
                },
                Cfg::Bp { ppl: 6, zb: 2 },
            ),
        ];
        let mut pipes = Vec::new();
        for (geom, cfg) in shapes {
            let mut pipe = AppPipe::new(
                compiler.clone(),
                geom,
                cfg,
                RefreshMode::Blocking,
                true,
                ctx.seed,
            );
            pipe.p
                .refresh()
                .map_err(|e| format!("setup refresh: {e}"))?;
            // Witness runs compile the generic binary: do it now, so the
            // clock sees no compile at all.
            compiler
                .compile(pipe.source, Defines::new())
                .map_err(|e| format!("generic compile: {e}"))?;
            let inputs = pipe.make_inputs(cfg, rng.next());
            pipe.apply_inputs(&inputs);
            pipe.p.run(1).map_err(|e| format!("warm-up run: {e}"))?;
            pipe.check(&inputs)?;
            pipe.p.reports.clear();
            pipe.p.clear_timings();
            pipes.push(pipe);
        }
        Ok(SteadyFrames {
            pipes,
            data_seeds: (0..STEADY_ROUND)
                .map(|_| [rng.next(), rng.next(), rng.next()])
                .collect(),
            next: 0,
            plain_us: vec![Vec::new(); 3],
            witness_us: vec![Vec::new(); 3],
        })
    }
}

impl Workload for SteadyFrames {
    fn window(&self) -> u64 {
        STEADY_ROUND as u64
    }

    fn step(&mut self, col: &mut Collector) -> bool {
        let window = col.in_window();
        let snap = (col.traced && window).then(|| ks_trace::registry().snapshot());
        let seeds = self.data_seeds[self.next % STEADY_ROUND];
        self.next += 1;
        let inputs: Vec<Inputs> = self
            .pipes
            .iter()
            .zip(seeds)
            .map(|(p, s)| p.make_inputs(p.cfg, s))
            .collect();
        // One compiler serves all three pipelines.
        let cache_before = self.pipes[0].p.compiler().cache_stats();
        let witnesses: Vec<u64> = self
            .pipes
            .iter()
            .map(|p| p.p.integrity_stats().witness_launches)
            .collect();
        let mut bounds = Vec::new();
        let mut result = Ok(());
        let t0 = Instant::now();
        for (pipe, inp) in self.pipes.iter_mut().zip(&inputs) {
            let t = Instant::now();
            pipe.apply_inputs(inp);
            if let Err(e) = pipe.p.run(1) {
                result = Err(format!("{} run: {e}", pipe.app()));
            }
            bounds.push((t, Instant::now()));
        }
        let t1 = Instant::now();
        let cache_after = self.pipes[0].p.compiler().cache_stats();
        let counters = snap.map(|before| counter_delta(&before));

        let mut outcome = result;
        for (pipe, inp) in self.pipes.iter().zip(&inputs) {
            outcome = outcome.and_then(|()| pipe.check(inp));
        }
        let ok = outcome.is_ok();
        let root = col.traced.then(|| col.span("op", None, t0, t1));
        let mut sim = 0.0;
        let mut witnessed = [false; 3];
        for (i, pipe) in self.pipes.iter_mut().enumerate() {
            let reports = std::mem::take(&mut pipe.p.reports);
            pipe.p.clear_timings();
            let w = pipe.p.integrity_stats().witness_launches - witnesses[i];
            witnessed[i] = w > 0;
            if window && ok {
                sim += col.launches(&reports);
                col.count("gpu-pf.witness_launches", w as f64);
            }
        }
        if window && ok {
            count_cache(col, &cache_before, &cache_after);
            col.sim_ms.push(sim);
            let mut re = 0.0;
            for pipe in self.pipes.iter_mut() {
                let generic = pipe
                    .p
                    .compiler()
                    .compile(pipe.source, Defines::new())
                    .map_err(|e| format!("generic lookup: {e}"));
                match generic.and_then(|g| pipe.replay(Some(&g), false)) {
                    Ok(l) => re += l.iter().map(|r| r.2.time_ms).sum::<f64>(),
                    Err(e) => col.fail(e),
                }
            }
            col.speedups.push(re / sim);
        }
        // No tiers here: an op's first result is its result.
        col.op(t1 - t0, t1 - t0, outcome);
        if !ok {
            return true;
        }
        if let Some(root) = root {
            for (i, pipe) in self.pipes.iter_mut().enumerate() {
                let (s, e) = bounds[i];
                let run = col
                    .rec
                    .record("gpu-pf.run", col.attempted - 1, Some(root), s, e);
                col.sample_us("gpu-pf.run_us", e - s);
                let us = (e - s).as_secs_f64() * 1e6;
                if witnessed[i] {
                    self.witness_us[i].push(us);
                } else {
                    self.plain_us[i].push(us);
                    // The same run with integrity checking off.
                    pipe.p.set_integrity(None);
                    let t = Instant::now();
                    let r = pipe.p.run(1);
                    let unchecked = t.elapsed();
                    pipe.p.set_integrity(Some(IntegrityConfig::default()));
                    pipe.p.reports.clear();
                    pipe.p.clear_timings();
                    match r {
                        Ok(()) => {
                            col.sample("gpu-pf.integrity_us", us - unchecked.as_secs_f64() * 1e6)
                        }
                        Err(e) => col.fail(format!("unchecked run: {e}")),
                    }
                }
                replay_under(col, pipe, run, e - s);
            }
            if let Some(c) = counters {
                col.sample("ks-trace.counter_delta", c);
            }
        }
        true
    }

    fn finish(&mut self, col: &mut Collector) {
        // A witness run's extra cost over the same pipeline's typical
        // checked run.
        for (plain, wit) in self.plain_us.iter().zip(&self.witness_us) {
            if let Some(base) = crate::stats::median(plain) {
                for w in wit {
                    col.sample("gpu-pf.witness_us", w - base);
                }
            }
        }
    }
}

// -------------------------------------------------------------- tune_sweep

enum Problem {
    Tm(MatchProblem, synth::MatchScenario),
    Piv(PivProblem, synth::PivScenario),
    Bp(BackprojProblem, synth::CtScenario),
}

impl Problem {
    fn space(&self) -> ParamSpace {
        match self {
            Problem::Tm(..) => ParamSpace::new()
                .dim("tile_w", vec![4, 8])
                .dim("tile_h", vec![4, 8])
                .dim("threads", vec![64, 128, 256]),
            Problem::Piv(..) => ParamSpace::new()
                .dim("rb", vec![1, 2, 4, 8])
                .dim("threads", vec![32, 64, 128, 256]),
            Problem::Bp(p, _) => {
                let ppls: Vec<i64> = [2, 4, 8]
                    .into_iter()
                    .filter(|v| p.num_proj % *v as usize == 0)
                    .collect();
                ParamSpace::new().dim("ppl", ppls).dim("zb", vec![1, 2, 4])
            }
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Problem::Tm(..) => "template_match",
            Problem::Piv(..) => "piv",
            Problem::Bp(..) => "backproj",
        }
    }

    fn source(&self) -> &'static str {
        match self {
            Problem::Tm(..) => ks_apps::template_match::KERNELS,
            Problem::Piv(..) => ks_apps::piv::KERNELS,
            Problem::Bp(..) => ks_apps::backproj::KERNELS,
        }
    }

    fn defines(&self, v: Variant, c: &Config) -> Vec<Defines> {
        match self {
            Problem::Tm(p, _) => ks_apps::template_match::specializations(v, p, &tm_impl(c)),
            Problem::Piv(p, _) => vec![ks_apps::piv::specialization(v, p, &piv_impl(c))],
            Problem::Bp(p, _) => vec![ks_apps::backproj::specialization(v, p, &bp_impl(c))],
        }
    }

    /// One evaluation: `run_gpu`'s simulated ms. Infeasible
    /// configurations are completed evaluations of infinite cost.
    fn run(
        &self,
        compiler: &Compiler,
        v: Variant,
        c: &Config,
        functional: bool,
    ) -> Result<(f64, Vec<ks_sim::LaunchReport>, Vec<f32>), String> {
        let r = match self {
            Problem::Tm(p, s) => {
                ks_apps::template_match::run_gpu(compiler, v, p, &tm_impl(c), s, functional)
                    .map(|o| (o.run, o.ncc))
            }
            Problem::Piv(p, s) => ks_apps::piv::run_gpu(
                compiler,
                v,
                PivKernel::Basic,
                p,
                &piv_impl(c),
                s,
                functional,
            )
            .map(|o| (o.run, o.scores)),
            Problem::Bp(p, s) => {
                ks_apps::backproj::run_gpu(compiler, v, p, &bp_impl(c), s, functional)
                    .map(|o| (o.run, o.volume))
            }
        };
        match r {
            Ok((run, out)) => Ok((run.sim_ms, run.reports, out)),
            Err(e) if e.to_string().contains("infeasible") => {
                Ok((f64::INFINITY, Vec::new(), Vec::new()))
            }
            Err(e) => Err(format!("{} {v} {c}: {e}", self.name())),
        }
    }

    fn check(&self, out: &[f32]) -> Result<(), String> {
        let (want, tol) = match self {
            Problem::Tm(p, s) => (
                ks_apps::template_match::cpu_ncc(p, &s.frame, &s.template, 2),
                2e-3,
            ),
            Problem::Piv(p, s) => (ks_apps::piv::cpu_ssd(p, s, 2), 1e-4),
            Problem::Bp(p, s) => (ks_apps::backproj::cpu_backproject(p, s, 2), 1e-4),
        };
        crate::apps::compare(self.name(), out, &want, tol)
    }

    /// Replay an evaluation's launches on a fresh device, timing each
    /// (traced runs).
    fn replay(
        &self,
        compiler: &Compiler,
        v: Variant,
        c: &Config,
        functional: bool,
    ) -> Result<Vec<(Duration, ks_sim::LaunchReport)>, String> {
        let opts = LaunchOptions {
            functional,
            timing_sample_blocks: 6,
            ..Default::default()
        };
        let dev = compiler.device().clone();
        let err = |e: &dyn std::fmt::Display| format!("{} replay: {e}", self.name());
        let bins: Vec<_> = self
            .defines(v, c)
            .iter()
            .map(|d| compiler.compile(self.source(), d))
            .collect::<Result<_, _>>()
            .map_err(|e| err(&e))?;
        let mut st = DeviceState::new(dev, 64 << 20);
        let mut out = Vec::new();
        let mut go = |st: &mut DeviceState, m: &ks_ir::Module, k: &str, dims, args: &[KArg]| {
            let t = Instant::now();
            let rep = ks_sim::launch(st, m, k, dims, args, opts).map_err(|e| err(&e))?;
            out.push((t.elapsed(), rep));
            Ok::<(), String>(())
        };
        match self {
            Problem::Piv(p, s) => {
                let imp = piv_impl(c);
                let a = st
                    .global
                    .alloc((s.a.data.len() * 4) as u64)
                    .map_err(|e| err(&e))?;
                let b = st
                    .global
                    .alloc((s.b.data.len() * 4) as u64)
                    .map_err(|e| err(&e))?;
                let no = p.num_offsets();
                let sc = st
                    .global
                    .alloc((p.num_masks() * no * 4) as u64)
                    .map_err(|e| err(&e))?;
                st.global
                    .write_f32_slice(a, &s.a.data)
                    .map_err(|e| err(&e))?;
                st.global
                    .write_f32_slice(b, &s.b.data)
                    .map_err(|e| err(&e))?;
                let i = |v: usize| KArg::I32(v as i32);
                let dims = LaunchDims {
                    grid: (p.num_masks() as u32, (no as u32).div_ceil(imp.rb), 1),
                    block: (imp.threads, 1, 1),
                    dynamic_shared: 0,
                };
                let args = [
                    KArg::Ptr(a),
                    KArg::Ptr(b),
                    KArg::Ptr(sc),
                    i(p.img_w),
                    i(p.mask_w),
                    i(p.mask_h),
                    i(p.offs_w),
                    i(no),
                    i(p.mask_grid().0),
                    i(p.step_x),
                    i(p.step_y),
                    i(p.offs_w / 2),
                    i(p.offs_h / 2),
                    i(imp.rb as usize),
                ];
                go(&mut st, &bins[0].module, "piv_ssd", dims, &args)?;
            }
            Problem::Bp(p, s) => {
                let imp = bp_impl(c);
                let n = p.n as u32;
                let per = p.det_u * p.det_v;
                let proj = st
                    .global
                    .alloc((imp.ppl as usize * per * 4) as u64)
                    .map_err(|e| err(&e))?;
                let vol = st
                    .global
                    .alloc((p.n.pow(3) * 4) as u64)
                    .map_err(|e| err(&e))?;
                let dims = LaunchDims {
                    grid: (
                        n.div_ceil(imp.block_x),
                        n.div_ceil(imp.block_y),
                        n.div_ceil(imp.zb),
                    ),
                    block: (imp.block_x, imp.block_y, 1),
                    dynamic_shared: 0,
                };
                let batch = imp.ppl as usize;
                for p0 in (0..p.num_proj).step_by(batch) {
                    let this = batch.min(p.num_proj - p0);
                    st.global
                        .write_f32_slice(proj, &s.projections[p0 * per..(p0 + this) * per])
                        .map_err(|e| err(&e))?;
                    let mut geo = Vec::new();
                    for q in 0..batch {
                        let th = (p0 + q) as f32 * std::f32::consts::PI * 2.0 / p.num_proj as f32;
                        geo.extend([th.cos(), th.sin()]);
                    }
                    let bytes: Vec<u8> = geo.iter().flat_map(|v| v.to_le_bytes()).collect();
                    st.set_const(&bins[0].module, "projGeo", &bytes)
                        .map_err(|e| err(&e))?;
                    let i = |v: usize| KArg::I32(v as i32);
                    let args = [
                        KArg::Ptr(proj),
                        KArg::Ptr(vol),
                        i(p.n),
                        i(p.det_u),
                        i(p.det_v),
                        i(this),
                        i(imp.zb as usize),
                        i(0),
                        KArg::F32(s.geo.sid),
                        KArg::F32(s.geo.sdd),
                        KArg::F32(p.n as f32 / 2.0),
                        KArg::F32(p.det_u as f32 / 2.0),
                        KArg::F32(p.det_v as f32 / 2.0),
                    ];
                    go(&mut st, &bins[0].module, "backproject", dims, &args)?;
                }
            }
            Problem::Tm(p, s) => {
                let imp = tm_impl(c);
                let regions = ks_apps::template_match::tile_regions(
                    p.templ_w as u32,
                    p.templ_h as u32,
                    imp.tile_w,
                    imp.tile_h,
                );
                let tiles: u32 = regions.iter().map(|r| r.num_tiles()).sum();
                let no = p.num_offsets();
                let mut alloc = |bytes: usize| st.global.alloc(bytes as u64);
                let frame = alloc(s.frame.data.len() * 4).map_err(|e| err(&e))?;
                let templ = alloc(s.template.data.len() * 4).map_err(|e| err(&e))?;
                let partial = alloc(tiles as usize * no * 4).map_err(|e| err(&e))?;
                let bufs: Vec<u64> = (0..4)
                    .map(|_| alloc(no * 4))
                    .collect::<Result<_, _>>()
                    .map_err(|e| err(&e))?;
                st.global
                    .write_f32_slice(frame, &s.frame.data)
                    .map_err(|e| err(&e))?;
                let i = |v: usize| KArg::I32(v as i32);
                let oblocks = (no as u32).div_ceil(imp.threads);
                // `run_gpu` compiles one module per region tile size (SK)
                // or a single generic module (RE).
                let defs = self.defines(v, c);
                let has = |d: &Defines, k: &str, val: u32| {
                    d.items()
                        .iter()
                        .any(|(n, x)| n == k && *x == val.to_string())
                };
                let bin_for = |tw: u32, th: u32| {
                    defs.iter()
                        .position(|d| has(d, "TILE_W", tw) && has(d, "TILE_H", th))
                        .unwrap_or(0)
                };
                let mut base = 0;
                for r in &regions {
                    let dims = LaunchDims {
                        grid: (oblocks, r.num_tiles(), 1),
                        block: (imp.threads, 1, 1),
                        dynamic_shared: 0,
                    };
                    let args = [
                        KArg::Ptr(frame),
                        KArg::Ptr(templ),
                        KArg::Ptr(partial),
                        i(p.frame_w),
                        i(p.shift_w),
                        i(no),
                        i(p.templ_w),
                        i(r.tw as usize),
                        i(r.th as usize),
                        i(r.tiles_x as usize),
                        i(r.x0 as usize),
                        i(r.y0 as usize),
                        i(base),
                    ];
                    let m = &bins[bin_for(r.tw, r.th)].module;
                    go(&mut st, m, "numerator_tiles", dims, &args)?;
                    base += r.num_tiles() as usize;
                }
                let aux = &bins[bin_for(imp.tile_w, imp.tile_h)].module;
                let lin = LaunchDims::linear(oblocks, imp.threads);
                let [numer, sums, sumsq, ncc] = [bufs[0], bufs[1], bufs[2], bufs[3]];
                go(
                    &mut st,
                    aux,
                    "sum_partials",
                    lin,
                    &[
                        KArg::Ptr(partial),
                        KArg::Ptr(numer),
                        i(tiles as usize),
                        i(no),
                    ],
                )?;
                go(
                    &mut st,
                    aux,
                    "window_stats",
                    LaunchDims::linear(no as u32, imp.threads),
                    &[
                        KArg::Ptr(frame),
                        KArg::Ptr(sums),
                        KArg::Ptr(sumsq),
                        i(p.frame_w),
                        i(p.shift_w),
                        i(no),
                        i(p.templ_w),
                        i(p.templ_h),
                    ],
                )?;
                go(
                    &mut st,
                    aux,
                    "normalize",
                    lin,
                    &[
                        KArg::Ptr(numer),
                        KArg::Ptr(sums),
                        KArg::Ptr(sumsq),
                        KArg::Ptr(ncc),
                        i(no),
                        KArg::F32(1.0),
                        KArg::F32(1.0),
                    ],
                )?;
            }
        }
        Ok(out)
    }
}

fn tm_impl(c: &Config) -> MatchImpl {
    MatchImpl {
        tile_w: c.get("tile_w") as u32,
        tile_h: c.get("tile_h") as u32,
        threads: c.get("threads") as u32,
    }
}

fn piv_impl(c: &Config) -> PivImpl {
    PivImpl {
        rb: c.get("rb") as u32,
        threads: c.get("threads") as u32,
    }
}

fn bp_impl(c: &Config) -> BackprojImpl {
    BackprojImpl {
        block_x: 8,
        block_y: 8,
        ppl: c.get("ppl") as u32,
        zb: c.get("zb") as u32,
    }
}

/// Two problem instances per app from the app's problem family. The
/// seed draws the image data and pads image pitches (the simulated work
/// is the same, its memory addresses are not).
fn draw_problems(rng: &mut Rng) -> Vec<Problem> {
    let mut out = Vec::new();
    for (tw, th) in [(24, 16), (32, 24)] {
        let shift = 8;
        let p = MatchProblem {
            frame_w: tw + shift + rng.below(4),
            frame_h: th + shift,
            templ_w: tw,
            templ_h: th,
            shift_w: shift,
            shift_h: shift,
            frames: 1,
        };
        let s = synth::match_scenario(p.frame_w, p.frame_h, tw, th, shift, shift, rng.next());
        out.push(Problem::Tm(p, s));
    }
    // Pads stay within one mask step, so the mask grid is unchanged.
    for (img, mask, radius) in [(48, 8, 2), (64, 16, 3)] {
        let img = img + rng.below(4);
        let p = PivProblem::standard(img, mask, 50, radius);
        let flow = (rng.below(3) as i32 - 1, rng.below(3) as i32 - 1);
        let s = synth::piv_scenario(img, img, flow, rng.next());
        out.push(Problem::Piv(p, s));
    }
    for (num_proj, det) in [(8, 24), (16, 20)] {
        let det = det + rng.below(4);
        let p = BackprojProblem {
            n: 16,
            num_proj,
            det_u: det,
            det_v: det,
        };
        out.push(Problem::Bp(p, synth::ct_scenario(16, num_proj, det, det)));
    }
    out
}

pub struct TuneSweep {
    problems: Vec<Problem>,
    compiler: Compiler,
    store_dir: PathBuf,
    /// (problem, variant) of the next tuning call.
    next: usize,
    /// Best cost and winner per problem and variant, from the first pass.
    best: Vec<[Option<(f64, Config)>; 2]>,
}

const VARIANTS: [Variant; 2] = [Variant::Re, Variant::Sk];

impl TuneSweep {
    fn setup(ctx: &Ctx) -> Result<TuneSweep, String> {
        let mut rng = Rng::new(ctx.seed);
        let problems = draw_problems(&mut rng);
        let store_dir = ctx.fresh_dir("store")?;
        // Populate the store with every key the sweep will touch, then
        // start the sweep on a compiler whose memory cache is empty.
        let populate = Compiler::new(device())
            .with_store(&store_dir)
            .map_err(|e| format!("attach store: {e}"))?;
        let mut jobs = Vec::new();
        for p in &problems {
            for c in p.space().configs() {
                for v in VARIANTS {
                    for d in p.defines(v, &c) {
                        if !jobs.iter().any(|(s, x)| *s == p.source() && *x == d) {
                            jobs.push((p.source(), d));
                        }
                    }
                }
            }
        }
        populate
            .precompile(&jobs)
            .map_err(|e| format!("populate store: {e}"))?;
        drop(populate);
        let compiler = Compiler::new(device())
            .with_store(&store_dir)
            .map_err(|e| format!("attach store: {e}"))?;
        let n = problems.len();
        Ok(TuneSweep {
            problems,
            compiler,
            store_dir,
            next: 0,
            best: (0..n).map(|_| [None, None]).collect(),
        })
    }
}

impl Workload for TuneSweep {
    fn window(&self) -> u64 {
        self.problems
            .iter()
            .map(|p| 2 * p.space().size() as u64)
            .sum()
    }

    fn step(&mut self, col: &mut Collector) -> bool {
        let pi = (self.next / 2) % self.problems.len();
        let vi = self.next % 2;
        let first_pass = self.next < 2 * self.problems.len();
        self.next += 1;
        let (prob, v) = (&self.problems[pi], VARIANTS[vi]);
        let compiler = &self.compiler;
        let space = prob.space();
        let mut evals = Duration::ZERO;
        let mut tune_span = None;
        let t0 = Instant::now();
        if col.traced {
            // Placeholder root, fixed up once the call ends.
            tune_span = Some(col.span("ks-tune.tune", None, t0, t0));
        }
        let result = ks_tune::tune(&space, Strategy::Exhaustive, |c: &Config| {
            let t_eval = Instant::now();
            let window = col.in_window();
            let before = compiler.cache_stats();
            let t = Instant::now();
            let r = prob.run(compiler, v, c, false);
            let end = Instant::now();
            let after = compiler.cache_stats();
            let cost = match &r {
                Ok((cost, reports, _)) => {
                    if window {
                        col.launches(reports);
                        count_cache(col, &before, &after);
                    }
                    *cost
                }
                Err(_) => f64::INFINITY,
            };
            if col.traced {
                let op = col.span("op", tune_span, t, end);
                let rg = col.span("ks-apps.run_gpu", Some(op), t, end);
                col.sample_us("ks-apps.run_gpu_us", end - t);
                if r.is_ok() && cost.is_finite() {
                    redrive_eval(
                        col,
                        compiler,
                        &self.store_dir,
                        prob,
                        v,
                        c,
                        rg,
                        &before,
                        &after,
                    );
                }
            }
            if window && cost.is_finite() {
                col.sim_ms.push(cost);
            }
            col.op(end - t, end - t, r.map(drop));
            if col.traced {
                // Everything the closure spent outside the evaluation is
                // the benchmark's own work, not the tuner's.
                col.rec.record(
                    "bench.redrive",
                    col.attempted - 1,
                    tune_span,
                    end,
                    Instant::now(),
                );
            }
            evals += t_eval.elapsed();
            Ok::<f64, String>(cost)
        });
        let t1 = Instant::now();
        if let Some(s) = tune_span {
            col.rec.spans[s].end = col.rec.spans[s].start + ns(t1 - t0);
            col.sample_us("ks-tune.search_us", (t1 - t0).saturating_sub(evals));
        }
        match result {
            Ok(res) => {
                if first_pass {
                    col.count("ks-tune.evaluations", res.evaluations as f64);
                    self.best[pi][vi] = Some((res.best_cost, res.best));
                }
            }
            Err(e) => col.fail(e),
        }
        true
    }

    fn finish(&mut self, col: &mut Collector) {
        // Off the clock: each problem's winners, run functionally once and
        // checked against the CPU reference; the RE/SK ratio of the bests.
        for (pi, prob) in self.problems.iter().enumerate() {
            let mut costs = [0.0; 2];
            for (vi, v) in VARIANTS.iter().enumerate() {
                let Some((cost, cfg)) = self.best[pi][vi].clone() else {
                    continue;
                };
                costs[vi] = cost;
                let checked = prob
                    .run(&self.compiler, *v, &cfg, true)
                    .and_then(|(_, _, out)| prob.check(&out));
                if let Err(e) = checked {
                    col.fail(format!("winner {v} {cfg}: {e}"));
                }
                if col.traced {
                    if let Problem::Piv(..) = prob {
                        if let Ok(l) = prob.replay(&self.compiler, *v, &cfg, true) {
                            let name = match v {
                                Variant::Re => "ks-sim.functional_ns_per_warp_inst.piv_ssd_re",
                                Variant::Sk => "ks-sim.functional_ns_per_warp_inst.piv_ssd",
                            };
                            for (d, rep) in l {
                                col.sample(
                                    name,
                                    d.as_nanos() as f64 / rep.stats.dyn_insts.max(1) as f64,
                                );
                            }
                        }
                    }
                }
            }
            if costs[0].is_finite() && costs[1].is_finite() && costs[1] > 0.0 {
                col.speedups.push(costs[0] / costs[1]);
            }
        }
    }
}

/// Re-drive one evaluation's layers (traced runs): the binary lookup (a
/// disk load on a key's first touch, a memory hit after), the device
/// state and each timing launch, grafted under its `run_gpu` span.
#[allow(clippy::too_many_arguments)]
fn redrive_eval(
    col: &mut Collector,
    compiler: &Compiler,
    store_dir: &Path,
    prob: &Problem,
    v: Variant,
    c: &Config,
    rg: usize,
    before: &CacheStats,
    after: &CacheStats,
) {
    let (_, _, disk) = cache_delta(before, after);
    let defines = prob.defines(v, c);
    if disk > 0 {
        if let Ok(store) = Store::open(store_dir) {
            for d in &defines {
                let t = Instant::now();
                let loaded = store.load(compiler.cache_key(prob.source(), d));
                let dur = t.elapsed();
                if let Ok(Some(_)) = loaded {
                    col.sample_us("ks-store.load_us", dur);
                    col.rec.graft("ks-store.load", rg, ns(dur));
                }
            }
        }
    } else {
        for d in &defines {
            let t = Instant::now();
            let hit = compiler.compile(prob.source(), d);
            let dur = t.elapsed();
            if hit.is_ok() {
                col.sample_us("ks-core.cache_hit_us", dur);
                col.rec.graft("ks-core.cache_hit", rg, ns(dur));
            }
        }
    }
    let t = Instant::now();
    drop(std::hint::black_box(DeviceState::new(
        compiler.device().clone(),
        256 << 20,
    )));
    let dur = t.elapsed();
    col.sample_us("ks-sim.device_state_us", dur);
    col.rec.graft("ks-sim.device_state", rg, ns(dur));
    match prob.replay(compiler, v, c, false) {
        Ok(launches) => {
            for (d, _) in launches {
                col.sample_us("ks-sim.timing_launch_us", d);
                col.rec.graft("ks-sim.timing_launch", rg, ns(d));
            }
        }
        Err(e) => col.fail(e),
    }
}
