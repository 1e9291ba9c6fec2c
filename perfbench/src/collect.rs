//! What one run accumulates: op latencies and outcomes, the exact counts
//! of the deterministic window, and (traced runs) spans and per-call
//! layer samples.

use crate::spans::Recorder;
use ks_sim::LaunchReport;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ops whose counts are reported exactly. The first `window` ops of a run
/// are fixed by the seed, so every count summed over them repeats exactly
/// on a rerun with that seed, however many ops the run gets through.
pub struct Collector {
    pub traced: bool,
    pub window: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per-op on-clock latency and time to first output, ms.
    pub op_ms: Vec<f64>,
    pub first_ms: Vec<f64>,
    /// Simulated device ms per window op.
    pub sim_ms: Vec<f64>,
    /// Generic-over-specialized simulated time, per window op or problem.
    pub speedups: Vec<f64>,
    /// Exact counts summed over the window, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    pub regs: Vec<f64>,
    pub rec: Recorder,
    /// Per-call samples of traced layer timings (µs) and other per-call
    /// figures, by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Collector {
    pub fn new(traced: bool, window: u64) -> Collector {
        Collector {
            traced,
            window,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            op_ms: Vec::new(),
            first_ms: Vec::new(),
            sim_ms: Vec::new(),
            speedups: Vec::new(),
            counts: BTreeMap::new(),
            regs: Vec::new(),
            rec: Recorder::default(),
            samples: BTreeMap::new(),
        }
    }

    /// Whether the op about to be recorded belongs to the exact window.
    pub fn in_window(&self) -> bool {
        self.attempted < self.window
    }

    /// Each distinct op's best latency (ms) over its repeats in the run
    /// (the op stream repeats with period `window`): its cost with the
    /// host's interference taken out, which a change to the program
    /// moves in every repeat alike.
    pub fn best(&self, ms: &[f64]) -> Vec<f64> {
        crate::stats::best_per_slot(ms, self.window as usize)
    }

    /// Record one op: `on_clock` is its measured latency, `first` the time
    /// to its first output, `outcome` its check.
    pub fn op(&mut self, on_clock: Duration, first: Duration, outcome: Result<(), String>) {
        self.attempted += 1;
        self.op_ms.push(ms(on_clock));
        self.first_ms.push(ms(first));
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Count a failure found after its op was recorded.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Add a window op's launches to the exact counts; returns their
    /// simulated ms.
    pub fn launches<'a>(&mut self, reports: impl IntoIterator<Item = &'a LaunchReport>) -> f64 {
        let mut sim = 0.0;
        for r in reports {
            sim += r.time_ms;
            self.count("ks-sim.warp_insts", r.stats.dyn_insts as f64);
            self.count("ks-sim.cycles", r.cycles as f64);
            self.count("ks-opt.insts_out", r.static_insts as f64);
            self.regs.push(r.regs_per_thread as f64);
        }
        sim
    }

    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn sample_us(&mut self, name: &str, d: Duration) {
        self.sample(name, d.as_secs_f64() * 1e6);
    }

    /// Record a measured span (traced runs only).
    pub fn span(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let op = self.attempted;
        self.rec.record(name, op, parent, start, end)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}
