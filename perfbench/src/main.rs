//! One-command benchmark of the kernel-specialization workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload respecialize --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one seeded closed-loop workload for `--seconds` and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! The line before it carries the run context, the tail percentiles
//! used, the error rate, the exact-count digest and the predictions.
//! `--plan` prints what each metric should move; `--selfcheck` runs a
//! workload's exact window twice with one seed and fails if an exact
//! count differs.

mod apps;
mod collect;
mod plan;
mod redrive;
mod spans;
mod stats;
mod workloads;

use collect::Collector;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let num = |name: &str, default: &str| -> Result<f64, String> {
        let v = value(name).unwrap_or(default);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or(format!("{name}: `{v}` is not a non-negative number"))
    };
    let seed = value("--seed")
        .map_or(Ok(plan::DEFAULT_SEED), str::parse)
        .map_err(|e| format!("--seed: {e}"))?;
    Ok(Args {
        workload,
        seed,
        seconds: num("--seconds", "10")?,
        trace: num("--trace", "0")? != 0.0,
        selfcheck: argv.iter().any(|a| a == "--selfcheck"),
    })
}

/// One measured phase: set up (`reps` times, keeping the last), run ops
/// until `seconds` pass and the exact window is complete, then the
/// off-clock finish.
fn phase(
    name: &str,
    ctx: &workloads::Ctx,
    seconds: f64,
    traced: bool,
    reps: usize,
) -> Result<(Collector, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..reps {
        drop(w.take());
        let t = Instant::now();
        w = Some(workloads::setup(name, ctx)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let mut col = Collector::new(traced, w.window());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while col.attempted < col.window || Instant::now() < deadline {
        if !w.step(&mut col) {
            break;
        }
    }
    w.finish(&mut col);
    if col.attempted < col.window {
        return Err(format!(
            "the input stream ran out after {} ops, inside the exact window of {}",
            col.attempted, col.window
        ));
    }
    Ok((col, setups))
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(col: &Collector, setups: &[f64]) -> Metrics {
    let tail = |v: &[f64]| stats::tail(v).map_or(0.0, |t| t.value);
    let (op, first) = (col.best(&col.op_ms), col.best(&col.first_ms));
    // Ops per on-clock second: every op's latency is on the clock.
    let ops_per_s = 1e3 * op.len() as f64 / op.iter().sum::<f64>().max(1e-9);
    let values = [
        stats::median(setups).unwrap_or(0.0),
        peak_rss_mib(),
        stats::median(&op).unwrap_or(0.0),
        tail(&col.op_ms),
        ops_per_s,
        stats::median(&first).unwrap_or(0.0),
        tail(&col.first_ms),
        mean(&col.sim_ms),
        stats::geomean(&col.speedups).unwrap_or(0.0),
    ];
    plan::END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u, _), v)| (n.to_string(), v, *u))
        .collect()
}

/// Self time per layer and the wall time it is a share of: every root
/// span, less the benchmark's own re-drive work recorded inside them.
fn layer_shares(col: &Collector) -> (BTreeMap<String, f64>, f64) {
    let st = col.rec.self_times();
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut wall = 0.0;
    for (s, self_ns) in col.rec.spans.iter().zip(st) {
        let dur = (s.end - s.start) as f64;
        if s.parent.is_none() {
            wall += dur;
        }
        if spans::layer(&s.name) == "bench" {
            wall -= dur;
        }
        *by_layer
            .entry(spans::layer(&s.name).to_string())
            .or_default() += self_ns as f64;
    }
    (by_layer, wall)
}

fn per_layer(col: &Collector, untraced_p50: f64) -> Metrics {
    let (shares, wall) = layer_shares(col);
    let empty = Vec::new();
    let samples = |n: &str| col.samples.get(n).unwrap_or(&empty);
    let mut out: Metrics = Vec::new();
    for (name, unit, _) in plan::per_layer() {
        let v = if let Some(base) = name.strip_suffix(".n") {
            samples(base).len() as f64
        } else if let Some(base) = name.strip_suffix(".spread") {
            stats::spread(samples(base))
        } else if let Some(layer) = name.strip_suffix(".share") {
            shares.get(layer).map_or(0.0, |s| s / wall.max(1.0))
        } else if name == plan::OVERHEAD {
            stats::median(&col.best(&col.op_ms)).map_or(0.0, |t| t / untraced_p50.max(1e-9) - 1.0)
        } else if let Some(c) = plan::COUNTS.iter().find(|c| c.0 == name) {
            match c.3 {
                plan::Source::Exact => col.counts.get(c.0).copied().unwrap_or(0.0),
                plan::Source::ExactMean => mean(&col.regs),
                plan::Source::Median => stats::median(samples(c.0)).unwrap_or(0.0),
                plan::Source::Mean => mean(samples(c.0)),
            }
        } else {
            stats::median(samples(&name)).unwrap_or(0.0)
        };
        out.push((name, v, unit));
    }
    out
}

fn json_metrics(m: &Metrics) -> String {
    let mut s = String::from("{");
    for (i, (name, v, unit)) in m.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace's sources, identifying the code measured
/// when the checkout carries no git metadata.
fn source_fingerprint(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else if p
                    .extension()
                    .is_some_and(|x| x == "rs" || x == "cu" || x == "toml")
                {
                    out.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn context(root: &std::path::Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"source_fnv64\": \"{}\", \
         \"profile\": \"{}\", \"rayon_shim_threads\": {nproc}, \"background_workers\": {}}}",
        command_line("rustc", &["--version"]),
        command_line("git", &["-C", &root.display().to_string(), "rev-parse", "HEAD"]),
        source_fingerprint(root),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        // ks-core's background pool: half the cores, 1 to 8.
        (nproc / 2).clamp(1, 8),
    )
}

/// Predictions checked on the traced run of their workload.
fn predictions(workload: &str, col: &Collector) -> Vec<String> {
    if !col.traced {
        return Vec::new();
    }
    let (shares, wall) = layer_shares(col);
    let share = |layers: &[&str]| {
        layers
            .iter()
            .map(|l| shares.get(*l).copied().unwrap_or(0.0))
            .sum::<f64>()
            / wall.max(1.0)
    };
    let compile = share(&["ks-lang", "ks-codegen", "ks-opt", "ks-ir", "ks-core"]);
    let sim = share(&["ks-sim"]);
    let row = |what: &str, v: f64, held: bool| {
        format!("{{\"prediction\": \"{what}\", \"value\": {v:.4}, \"held\": {held}}}")
    };
    match workload {
        "respecialize" => vec![
            row(
                "compile stages take most of op time",
                compile,
                compile > 0.5,
            ),
            row("ks-sim takes under a tenth of op time", sim, sim < 0.1),
        ],
        "steady_frames" => vec![row("ks-sim takes most of op time", sim, sim > 0.5)],
        _ => Vec::new(),
    }
}

fn info_line(args: &Args, col: &Collector, error_rate: f64, root: &std::path::Path) -> String {
    let tails: Vec<String> = [
        ("op_ms_tail", &col.op_ms),
        ("first_result_ms_tail", &col.first_ms),
    ]
    .iter()
    .filter_map(|(n, v)| {
        stats::tail(v).map(|t| format!("\"{n}\": {{\"percentile\": {}, \"n\": {}}}", t.pct, t.n))
    })
    .collect();
    let exact: Vec<String> = col
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .chain([
            format!("\"sim_gpu_ms\": {}", mean(&col.sim_ms)),
            format!(
                "\"sk_speedup_geomean\": {}",
                stats::geomean(&col.speedups).unwrap_or(0.0)
            ),
        ])
        .collect();
    let errors: Vec<String> = col.errors.iter().map(|e| format!("{e:?}")).collect();
    format!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"context\": {}, \
         \"error_rate\": {}, \"tails\": {{{}}}, \"exact_window_ops\": {}, \"exact\": {{{}}}, \
         \"predictions\": [{}], \"errors\": [{}]}}}}",
        args.workload,
        args.seed,
        args.trace,
        context(root),
        error_rate,
        tails.join(", "),
        col.window,
        exact.join(", "),
        predictions(&args.workload, col).join(", "),
        errors.join(", "),
    )
}

fn run(args: &Args) -> Result<(), String> {
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .expect("benchmark directory has a parent")
        .to_path_buf();
    let run_dir = bench_dir.join("out").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let ctx = workloads::Ctx {
        seed: args.seed,
        out: run_dir.clone(),
    };
    let result = if args.selfcheck {
        selfcheck(args, &ctx)
    } else {
        measure(args, &ctx, &root, &bench_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn measure(
    args: &Args,
    ctx: &workloads::Ctx,
    root: &std::path::Path,
    bench_dir: &std::path::Path,
) -> Result<(), String> {
    let (col, metrics, attempted, failed) = if args.trace {
        // Half the time untraced, half traced, each from a fresh set-up
        // with the same seed: the medians' difference is the tracing
        // overhead.
        let (plain, _) = phase(&args.workload, ctx, args.seconds / 2.0, false, 1)?;
        let (col, _) = phase(&args.workload, ctx, args.seconds / 2.0, true, 1)?;
        let p50 = stats::median(&plain.best(&plain.op_ms)).unwrap_or(0.0);
        let spans_file = bench_dir
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        col.rec
            .write_jsonl(&spans_file)
            .map_err(|e| format!("write {}: {e}", spans_file.display()))?;
        let m = per_layer(&col, p50);
        let (a, f) = (plain.attempted + col.attempted, plain.failed + col.failed);
        (col, m, a, f)
    } else {
        let (col, setups) = phase(&args.workload, ctx, args.seconds, false, SETUP_REPS)?;
        let m = end_to_end(&col, &setups);
        let (a, f) = (col.attempted, col.failed);
        (col, m, a, f)
    };
    for (name, v, unit) in &metrics {
        eprintln!("{name:>52} {v:>14.4} {unit}");
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("{}", info_line(args, &col, error_rate, root));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    Ok(())
}

/// Run the workload twice with one seed (traced, so that every exact
/// count is taken) and fail on any difference.
fn selfcheck(args: &Args, ctx: &workloads::Ctx) -> Result<(), String> {
    let digest = || -> Result<Vec<(String, String)>, String> {
        let (col, _) = phase(&args.workload, ctx, 0.0, true, 1)?;
        if col.failed > 0 {
            return Err(format!("{} failed ops: {:?}", col.failed, col.errors));
        }
        let mut d: Vec<(String, String)> = col
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        d.push(("ks-sim.regs_per_thread".into(), mean(&col.regs).to_string()));
        d.push(("sim_gpu_ms".into(), mean(&col.sim_ms).to_string()));
        let speedup = stats::geomean(&col.speedups).unwrap_or(0.0);
        d.push(("sk_speedup_geomean".into(), speedup.to_string()));
        Ok(d)
    };
    let (a, b) = (digest()?, digest()?);
    if a != b {
        return Err(format!(
            "exact counts differ between two runs:\n{a:?}\n{b:?}"
        ));
    }
    for (k, v) in &a {
        println!("{k} = {v}");
    }
    println!("selfcheck {}: exact counts repeat", args.workload);
    Ok(())
}

fn print_plan() {
    let q = |s: &str| format!("{s:?}");
    println!(
        "{{\"default_seed\": {}, \"held_out_seed\": {},",
        plan::DEFAULT_SEED,
        plan::HELD_OUT_SEED
    );
    let exact: Vec<String> = plan::EXACT_END_TO_END
        .iter()
        .copied()
        .chain(plan::exact_per_layer())
        .map(q)
        .collect();
    println!(" \"exact\": [{}],", exact.join(", "));
    let dropped: Vec<String> = plan::DROPPED
        .iter()
        .map(|(w, why)| format!("{{\"workload\": {}, \"why\": {}}}", q(w), q(why)))
        .collect();
    println!(" \"dropped\": [{}],", dropped.join(", "));
    println!(" \"rows\": [");
    for (i, r) in plan::ROWS.iter().enumerate() {
        let ms: Vec<String> = r.metrics.iter().map(|m| q(m)).collect();
        println!(
            "  {{\"metrics\": [{}], \"moves\": {}, \"on\": {}, \"flat_on\": {}}}{}",
            ms.join(", "),
            q(r.moves),
            q(r.on),
            q(r.flat_on),
            if i + 1 < plan::ROWS.len() { "," } else { "" }
        );
    }
    println!(" ]}}");
}

fn main() {
    if std::env::args().any(|a| a == "--plan") {
        print_plan();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
