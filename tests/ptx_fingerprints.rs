//! Golden PTX fingerprints: the compiler's output for a fixed set of
//! app-kernel variants must not change unless a change means it to.
//!
//! `tests/ptx_fingerprints.txt` holds one line per variant: the source
//! name, its `-D` line and the FNV-1a-128 fingerprint (the persistent
//! store's `StableHasher`) of the PTX listing. The variants are the three
//! generic builds, the three specializations `ks-perfgate` times, and an
//! evenly thinned grid of the parameter sets the `respecialize` benchmark
//! workload compiles.
//!
//! An optimizer or codegen change that is meant to keep every output
//! byte-identical must leave this file alone. To regenerate it after an
//! intended output change:
//!
//! ```text
//! KS_BLESS=1 cargo test -p ks-apps --test ptx_fingerprints
//! ```

use ks_core::{Compiler, Defines, StableHasher};
use ks_sim::DeviceConfig;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/ptx_fingerprints.txt"
);

/// Variants kept from each app's `respecialize` grid.
const PER_APP: usize = 18;

type Variant = (&'static str, &'static str, Vec<(&'static str, u32)>);

fn sources() -> [(&'static str, &'static str); 3] {
    [
        ("template_match", ks_apps::template_match::KERNELS),
        ("piv", ks_apps::piv::KERNELS),
        ("backproj", ks_apps::backproj::KERNELS),
    ]
}

/// `PER_APP` evenly spaced entries of `grid`.
fn thin<T: Clone>(grid: Vec<T>) -> Vec<T> {
    (0..PER_APP)
        .map(|k| grid[k * grid.len() / PER_APP].clone())
        .collect()
}

fn variants() -> Vec<Variant> {
    let [tm, piv, bp] = sources();
    let mut out: Vec<Variant> = Vec::new();
    for (name, src) in sources() {
        out.push((name, src, vec![]));
    }
    // The specializations ks-perfgate times.
    out.push((
        tm.0,
        tm.1,
        vec![
            ("TILE_W", 16),
            ("TILE_H", 16),
            ("SHIFT_W", 16),
            ("NUM_TILES", 16),
            ("TEMPL_W", 64),
            ("TEMPL_H", 56),
            ("THREADS", 128),
        ],
    ));
    out.push((
        piv.0,
        piv.1,
        vec![
            ("RB", 4),
            ("THREADS", 64),
            ("MASK_W", 16),
            ("MASK_H", 16),
            ("OFFS_W", 9),
        ],
    ));
    out.push((bp.0, bp.1, vec![("PPL", 8), ("ZB", 4), ("VOL_N", 32)]));

    // The respecialize grids: a 16×16 template, 24×24 PIV images with
    // masks up to 8, a 12³ volume.
    let mut grid = Vec::new();
    for tile_w in [2, 4, 8, 16] {
        for tile_h in [2, 4, 8, 16] {
            if tile_w * tile_h > 64 {
                continue;
            }
            for threads in [32, 64] {
                for shift_w in 4..=8 {
                    let tiles = (16 / tile_w) * (16 / tile_h);
                    grid.push(vec![
                        ("TILE_W", tile_w),
                        ("TILE_H", tile_h),
                        ("SHIFT_W", shift_w),
                        ("NUM_TILES", tiles),
                        ("TEMPL_W", 16),
                        ("TEMPL_H", 16),
                        ("THREADS", threads),
                    ]);
                }
            }
        }
    }
    out.extend(thin(grid).into_iter().map(|d| (tm.0, tm.1, d)));
    let mut grid = Vec::new();
    for rb in [1, 2, 4, 8] {
        for threads in [32, 64] {
            for mask_w in [4, 6, 8] {
                for mask_h in [4, 6, 8] {
                    for offs in [3, 5] {
                        grid.push(vec![
                            ("RB", rb),
                            ("THREADS", threads),
                            ("MASK_W", mask_w),
                            ("MASK_H", mask_h),
                            ("OFFS_W", offs),
                        ]);
                    }
                }
            }
        }
    }
    out.extend(thin(grid).into_iter().map(|d| (piv.0, piv.1, d)));
    let mut grid = Vec::new();
    for zb in [1, 2, 3, 4, 6] {
        for ppl in 1..=64 / zb {
            grid.push(vec![("PPL", ppl), ("ZB", zb), ("VOL_N", 12)]);
        }
    }
    out.extend(thin(grid).into_iter().map(|d| (bp.0, bp.1, d)));
    out
}

/// One golden line: `<source> <-D line> <fingerprint>`.
fn line(compiler: &Compiler, (name, src, defs): &Variant) -> String {
    let mut defines = Defines::new();
    let mut dline = String::new();
    for (k, v) in defs {
        defines = defines.def(k, v);
        dline.push_str(&format!("-D{k}={v} "));
    }
    let bin = compiler
        .compile(src, defines)
        .unwrap_or_else(|e| panic!("{name} {dline}: {e}"));
    let fp = StableHasher::new().str(&bin.ptx).finish();
    if dline.is_empty() {
        dline.push_str("(generic) ");
    }
    format!("{name} {dline}{fp}")
}

#[test]
fn ptx_matches_golden_fingerprints() {
    let compiler = Compiler::new(DeviceConfig::tesla_c2070());
    let fresh: Vec<String> = variants().iter().map(|v| line(&compiler, v)).collect();
    if std::env::var_os("KS_BLESS").is_some() {
        std::fs::write(GOLDEN, fresh.join("\n") + "\n").expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read tests/ptx_fingerprints.txt");
    let golden: Vec<&str> = golden.lines().collect();
    let changed: Vec<String> = fresh
        .iter()
        .zip(&golden)
        .filter(|(f, g)| f != g)
        .map(|(f, g)| format!("  golden: {g}\n  fresh:  {f}"))
        .collect();
    assert!(
        changed.is_empty() && fresh.len() == golden.len(),
        "{} of {} PTX fingerprints changed ({} golden lines):\n{}",
        changed.len(),
        fresh.len(),
        golden.len(),
        changed.join("\n")
    );
}
