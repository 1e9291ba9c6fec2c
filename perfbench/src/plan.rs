//! What the benchmark measures and what each layer metric is expected to
//! move. `BENCHMARK.json` lists the same metrics (a test keeps the two in
//! step); what its fixed schema has no room for — exactness, seeds, the
//! layer-to-end-to-end map and the predictions — lives here and is
//! printed by `--plan`.

/// The seed a later claim is developed on, and the held-out seed it must
/// also hold on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// (name, unit, better) of every end-to-end metric, each reported on
/// every workload:
/// - `setup_s`: median of the run's set-ups;
/// - `peak_rss_mb`: the process's VmHWM;
/// - `op_ms_*`, `ops_per_s`: on-clock op latency (median and the tail of
///   `stats::tail`) and ops per on-clock second. Every workload's op
///   stream repeats with the period of its exact window (tune_sweep's
///   passes, respecialize's epochs, steady_frames' rounds of inputs), and
///   the median and the rate are taken over each distinct op's best
///   latency across its repeats: a shared host that slows for seconds at
///   a time moves a median over every op by more than the bound. The tail
///   stays over every op, so first touches and slow repeats show there;
/// - `first_result_ms_*`: from an op's start to its first output of any
///   tier, which is the op's latency wherever an op has one result (all
///   workloads but tiered_adapt);
/// - `sim_gpu_ms`: simulated device ms per op over the exact window;
/// - `sk_speedup_geomean`: geomean of generic over specialized simulated
///   time of the window's ops (tune_sweep: best RE over best SK per
///   problem).
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("first_result_ms_p50", "ms", "lower"),
    ("first_result_ms_tail", "ms", "lower"),
    ("sim_gpu_ms", "ms", "lower"),
    ("sk_speedup_geomean", "ratio", "higher"),
];

/// Per-call layer timings: each is reported as its median (`<name>`),
/// call count (`<name>.n`) and interquartile spread over the median
/// (`<name>.spread`).
pub const TIMINGS: [&str; 30] = [
    "ks-lang.preproc_us",
    "ks-lang.parse_us",
    "ks-lang.sema_us",
    "ks-codegen.lower_us",
    "ks-opt.opt_us",
    "ks-opt.constfold_us",
    "ks-opt.strength_us",
    "ks-opt.addrfold_us",
    "ks-opt.cse_us",
    "ks-opt.dce_us",
    "ks-ir.print_us",
    "ks-sim.regalloc_us",
    "ks-sim.launch_us",
    "ks-sim.timing_launch_us",
    "ks-sim.device_state_us",
    "ks-core.compile_us",
    "ks-core.service_us",
    "ks-core.cache_hit_us",
    "ks-core.promotion_us",
    "ks-core.queue_wait_us",
    "ks-store.save_us",
    "ks-store.load_us",
    "gpu-pf.refresh_us",
    "gpu-pf.first_launch_us",
    "gpu-pf.run_us",
    "gpu-pf.host_us",
    "gpu-pf.integrity_us",
    "gpu-pf.witness_us",
    "ks-tune.search_us",
    "ks-apps.run_gpu_us",
];

/// Layers with a self-time share (`<layer>.share`).
pub const LAYERS: [&str; 10] = [
    "ks-lang",
    "ks-codegen",
    "ks-opt",
    "ks-ir",
    "ks-sim",
    "ks-core",
    "ks-store",
    "gpu-pf",
    "ks-tune",
    "ks-apps",
];

/// Kernels with a functional-interpreter cost row.
pub const KERNELS: [&str; 7] = [
    "numerator_tiles",
    "sum_partials",
    "window_stats",
    "normalize",
    "piv_ssd",
    "backproject",
    "piv_ssd_re",
];

/// How a per-layer metric other than a timing or share is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Summed over the exact window; repeats exactly for a seed.
    Exact,
    /// Mean over the window's launches; repeats exactly for a seed.
    ExactMean,
    /// Median of the traced run's per-call samples.
    Median,
    /// Mean of the traced run's per-op samples.
    Mean,
}

/// (name, unit, better, source) of the remaining per-layer metrics.
pub const COUNTS: [(&str, &str, &str, Source); 15] = [
    ("ks-codegen.ir_insts", "insts", "lower", Source::Exact),
    ("ks-opt.pass_applications", "count", "lower", Source::Exact),
    ("ks-opt.insts_out", "insts", "lower", Source::Exact),
    ("ks-sim.regs_per_thread", "regs", "lower", Source::ExactMean),
    ("ks-sim.warp_insts", "insts", "lower", Source::Exact),
    ("ks-sim.cycles", "cycles", "lower", Source::Exact),
    ("ks-core.cache_misses", "count", "lower", Source::Exact),
    ("ks-core.cache_hits", "count", "higher", Source::Exact),
    ("ks-store.disk_hits", "count", "higher", Source::Exact),
    ("ks-store.record_bytes", "bytes", "lower", Source::Median),
    ("gpu-pf.generic_runs", "count", "lower", Source::Mean),
    ("gpu-pf.promotions", "count", "higher", Source::Exact),
    ("gpu-pf.witness_launches", "count", "lower", Source::Exact),
    ("ks-tune.evaluations", "count", "higher", Source::Exact),
    ("ks-trace.counter_delta", "count", "lower", Source::Mean),
];

/// The traced op median over the untraced one, minus one.
pub const OVERHEAD: &str = "tracing_overhead";

/// Workloads the benchmark can run but `BENCHMARK.json` leaves out, and
/// why.
pub const DROPPED: [(&str, &str); 1] = [(
    "tiered_adapt",
    "its ops fail: after a parameter change, tiered refresh keeps serving the module's previous \
     specialized binary (compiled for the old macro values) until the promotion lands, so the \
     first results are wrong or trap; it runs, and reports the failures, with --workload tiered_adapt",
)];

/// End-to-end metrics that repeat exactly for a seed.
pub const EXACT_END_TO_END: [&str; 2] = ["sim_gpu_ms", "sk_speedup_geomean"];

/// (name, unit, better) of every per-layer metric, in output order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for t in TIMINGS {
        out.push((t.to_string(), "us", "lower"));
        out.push((format!("{t}.n"), "count", "lower"));
        out.push((format!("{t}.spread"), "share", "lower"));
    }
    for k in KERNELS {
        out.push((
            format!("ks-sim.functional_ns_per_warp_inst.{k}"),
            "ns",
            "lower",
        ));
    }
    for (name, unit, better, _) in COUNTS {
        out.push((name.to_string(), unit, better));
    }
    for l in LAYERS {
        out.push((format!("{l}.share"), "share", "lower"));
    }
    out.push((OVERHEAD.to_string(), "share", "lower"));
    out
}

/// One row of the layer-to-end-to-end map: metrics (name prefixes), the
/// end-to-end metric they should move, on which workloads, and where
/// they are predicted flat.
pub struct Row {
    pub metrics: &'static [&'static str],
    pub moves: &'static str,
    pub on: &'static str,
    pub flat_on: &'static str,
}

pub const ROWS: [Row; 22] = [
    Row {
        metrics: &[
            "ks-lang.preproc_us",
            "ks-lang.parse_us",
            "ks-lang.sema_us",
            "ks-lang.share",
        ],
        moves: "op_ms_p50",
        on: "respecialize, tiered_adapt",
        flat_on: "steady_frames, tune_sweep",
    },
    Row {
        metrics: &[
            "ks-codegen.lower_us",
            "ks-codegen.ir_insts",
            "ks-codegen.share",
        ],
        moves: "op_ms_p50, op_ms_tail",
        on: "respecialize",
        flat_on: "steady_frames, tune_sweep",
    },
    Row {
        metrics: &[
            "ks-opt.opt_us",
            "ks-opt.constfold_us",
            "ks-opt.strength_us",
            "ks-opt.cse_us",
            "ks-opt.dce_us",
            "ks-opt.addrfold_us",
            "ks-opt.pass_applications",
            "ks-opt.share",
        ],
        moves: "op_ms_tail, then op_ms_p50",
        on: "respecialize, tiered_adapt",
        flat_on: "steady_frames, tune_sweep (only their setup_s moves)",
    },
    Row {
        metrics: &["ks-opt.insts_out"],
        moves: "sim_gpu_ms, sk_speedup_geomean",
        on: "all",
        flat_on: "none",
    },
    Row {
        metrics: &["ks-ir.print_us", "ks-ir.share"],
        moves: "op_ms_p50",
        on: "respecialize",
        flat_on: "steady_frames, tune_sweep",
    },
    Row {
        metrics: &["ks-sim.regalloc_us"],
        moves: "op_ms_p50",
        on: "respecialize",
        flat_on: "steady_frames, tune_sweep",
    },
    Row {
        metrics: &["ks-sim.regs_per_thread"],
        moves: "sim_gpu_ms (via occupancy)",
        on: "all",
        flat_on: "none",
    },
    Row {
        metrics: &[
            "ks-sim.launch_us",
            "ks-sim.functional_ns_per_warp_inst",
            "ks-sim.share",
        ],
        moves: "op_ms_p50, op_ms_tail",
        on: "steady_frames, then tiered_adapt's first_result_ms_*",
        flat_on: "respecialize (small share)",
    },
    Row {
        metrics: &["ks-sim.timing_launch_us", "ks-sim.device_state_us"],
        moves: "op_ms_p50, ops_per_s",
        on: "tune_sweep",
        flat_on: "respecialize",
    },
    Row {
        metrics: &["ks-sim.warp_insts", "ks-sim.cycles"],
        moves: "sim_gpu_ms",
        on: "all",
        flat_on: "none",
    },
    Row {
        metrics: &[
            "ks-core.compile_us",
            "ks-core.service_us",
            "ks-core.cache_misses",
            "ks-core.share",
        ],
        moves: "op_ms_p50, op_ms_tail",
        on: "respecialize",
        flat_on: "steady_frames",
    },
    Row {
        metrics: &["ks-core.cache_hit_us", "ks-core.cache_hits"],
        moves: "op_ms_p50",
        on: "tune_sweep",
        flat_on: "respecialize",
    },
    Row {
        metrics: &["ks-core.promotion_us", "ks-core.queue_wait_us"],
        moves: "op_ms_p50, op_ms_tail, first_result_ms_*",
        on: "tiered_adapt",
        flat_on: "steady_frames",
    },
    Row {
        metrics: &["ks-store.save_us", "ks-store.record_bytes"],
        moves: "op_ms_p50",
        on: "respecialize",
        flat_on: "steady_frames",
    },
    Row {
        metrics: &["ks-store.load_us", "ks-store.disk_hits", "ks-store.share"],
        moves: "op_ms_tail (first touches), setup_s",
        on: "tune_sweep",
        flat_on: "steady_frames",
    },
    Row {
        metrics: &["gpu-pf.refresh_us"],
        moves: "op_ms_p50, op_ms_tail",
        on: "respecialize",
        flat_on: "steady_frames",
    },
    Row {
        metrics: &[
            "gpu-pf.first_launch_us",
            "gpu-pf.generic_runs",
            "gpu-pf.promotions",
        ],
        moves: "first_result_ms_p50, first_result_ms_tail",
        on: "tiered_adapt",
        flat_on: "respecialize",
    },
    Row {
        metrics: &["gpu-pf.run_us", "gpu-pf.host_us", "gpu-pf.share"],
        moves: "op_ms_p50",
        on: "steady_frames",
        flat_on: "respecialize",
    },
    Row {
        metrics: &[
            "gpu-pf.integrity_us",
            "gpu-pf.witness_us",
            "gpu-pf.witness_launches",
        ],
        moves: "op_ms_p50 (integrity), op_ms_tail (witness)",
        on: "steady_frames",
        flat_on: "tune_sweep (no gpu-pf)",
    },
    Row {
        metrics: &["ks-tune.evaluations", "ks-tune.search_us", "ks-tune.share"],
        moves: "ops_per_s",
        on: "tune_sweep",
        flat_on: "all others",
    },
    Row {
        metrics: &["ks-apps.run_gpu_us", "ks-apps.share"],
        moves: "op_ms_p50",
        on: "tune_sweep",
        flat_on: "steady_frames",
    },
    Row {
        metrics: &["ks-trace.counter_delta", "tracing_overhead"],
        moves: "none (removing a duplicated stats struct must leave counter_delta unchanged)",
        on: "all",
        flat_on: "all",
    },
];

/// Per-layer metrics that repeat exactly for a seed.
pub fn exact_per_layer() -> Vec<&'static str> {
    COUNTS
        .iter()
        .filter(|c| matches!(c.3, Source::Exact | Source::ExactMean))
        .map(|c| c.0)
        .collect()
}

/// The row covering a per-layer metric (by the longest matching prefix
/// of its base name).
#[cfg(test)]
pub fn row_of(metric: &str) -> Option<&'static Row> {
    let base = metric
        .strip_suffix(".n")
        .or_else(|| metric.strip_suffix(".spread"))
        .unwrap_or(metric);
    ROWS.iter()
        .filter(|r| r.metrics.iter().any(|m| base.starts_with(m)))
        .max_by_key(|r| {
            r.metrics
                .iter()
                .filter(|m| base.starts_with(**m))
                .map(|m| m.len())
                .max()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section ends");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_metric_the_benchmark_reports() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        for (name, unit, better) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "{entry}");
        }
        let layer = per_layer();
        let names: Vec<String> = layer.iter().map(|m| m.0.clone()).collect();
        assert_eq!(names_in(json, "per_layer"), names);
        for (name, unit, better) in &layer {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "{entry}");
        }
        assert!(layer.len() <= 128);
        for (w, _) in DROPPED {
            assert!(
                !json.contains(&format!("\"name\": \"{w}\"")),
                "{w} is dropped"
            );
        }
    }

    #[test]
    fn every_layer_metric_has_a_row() {
        for (m, ..) in per_layer() {
            assert!(row_of(&m).is_some(), "{m} has no row");
        }
    }
}
