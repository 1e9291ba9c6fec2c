//! # gpu-pf — the GPU Prototyping Framework
//!
//! A Rust reproduction of the dissertation's GPU-PF (§4.4.1): a host-side
//! framework for streaming processing pipelines built around three concept
//! classes —
//!
//! * **parameters** (Table 4.1): memory extents, subsets, schedules,
//!   integers, floats, pointers, triplets, pairs, data types, booleans, and
//!   self-updating steps;
//! * **resources** (Tables 4.2/4.3): modules (compiled with kernel
//!   specialization from bound parameters), kernels, and memory references
//!   (constant, global, host, and moving subset views);
//! * **actions** (Table 4.4): memory copies (direction inferred from the
//!   endpoint memory types), kernel executions, user functions, and file
//!   I/O.
//!
//! A pipeline's lifetime has three phases: **specification** (building the
//! object graph — nothing allocated), **refresh** (recompile/reallocate
//! exactly the resources whose parameters changed), and **execution**
//! (iterating the pipeline; each action fires per its schedule). Log output
//! mirrors Appendix G: refresh reports and per-operation timing.
//!
//! ```
//! use gpu_pf::{Arg, MacroBinding, Pipeline};
//! use std::sync::Arc;
//!
//! const SRC: &str = r#"
//!     #ifndef GAIN
//!     #define GAIN gain
//!     #endif
//!     __global__ void amp(float* x, int gain, int n) {
//!         int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
//!         if (i < n) { x[i] = x[i] * (float)GAIN; }
//!     }
//! "#;
//!
//! let compiler = Arc::new(ks_core::Compiler::new(ks_sim::DeviceConfig::tesla_c1060()));
//! let mut p = Pipeline::new(compiler, 1 << 20);
//! // specification phase
//! let gain = p.int_param("GAIN", 3);
//! let ext = p.extent_param("x", [64, 1, 1], 4);
//! let host = p.host_memory(ext);
//! let dev = p.global_memory(ext);
//! let m = p.module(SRC, vec![("GAIN", MacroBinding::Param(gain))]);
//! let k = p.kernel(m, "amp");
//! let every = p.schedule_param("every", 1, 0);
//! let (g, b) = (p.triplet_param("g", [1, 1, 1]), p.triplet_param("b", [64, 1, 1]));
//! let n = p.int_param("n", 64);
//! p.copy("h2d", host, dev, every);
//! p.exec("amp", k, g, b, None, vec![Arg::Mem(dev), Arg::Param(gain), Arg::Param(n)], every);
//! p.copy("d2h", dev, host, every);
//! // refresh phase: compiles the specialized module, allocates memory
//! p.refresh().unwrap();
//! p.set_host_f32(host, &[2.0; 64]);
//! // execution phase
//! p.run(1).unwrap();
//! assert_eq!(p.host_f32(host), vec![6.0; 64]);
//! // re-specialize and run again: exactly one recompilation happens
//! p.set_int(gain, 5);
//! p.refresh().unwrap();
//! p.run(1).unwrap();
//! assert_eq!(p.host_f32(host), vec![30.0; 64]);
//! ```

pub mod log;
pub mod param;

use ks_core::{Binary, CompileTicket, Compiler, Defines};
use ks_sim::{launch_keyed, DeviceState, KArg, LaunchDims, LaunchOptions, LaunchReport, SimError};
use param::{ParamValue, StepParam};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Per-pipeline registry handles. Unlabeled pipelines publish straight
/// to the global `gpu_pf.*` metrics; labeled ones
/// ([`Pipeline::set_label`]) publish through a
/// `{pipeline=<label>}` scope whose cells roll up exactly into the same
/// globals, so fleet-wide aggregates are unchanged by labeling.
///
/// The promotion and integrity counters are this pipeline's own
/// unregistered [`ks_trace::Counter::leaf`] cells chained onto those
/// handles: [`PromotionStats`] and [`IntegrityStats`] are read-only
/// views over them, so two unlabeled pipelines sharing the globals
/// still each read only their own events.
struct PfMetrics {
    iterations: ks_trace::Counter,
    refreshes: ks_trace::Counter,
    fallback_generic: ks_trace::Counter,
    fallback_last_good: ks_trace::Counter,
    launch_retries: ks_trace::Counter,
    promotions: ks_trace::Counter,
    promotions_failed: ks_trace::Counter,
    promotions_superseded: ks_trace::Counter,
    /// Ticket spawn → hot-swap latency (µs), the always-on histogram
    /// twin of the `tier_swap` spans.
    promotion_latency_us: ks_trace::Histogram,
    /// Wall time per pipeline iteration (µs) — the windowed-p95 readout
    /// `ks-prof watch` displays per pipeline.
    iteration_us: ks_trace::Histogram,
    integrity_checks: ks_trace::Counter,
    integrity_witness: ks_trace::Counter,
    integrity_violations: ks_trace::Counter,
    integrity_transient: ks_trace::Counter,
    integrity_corrupt: ks_trace::Counter,
    integrity_recovered: ks_trace::Counter,
    integrity_reexecs: ks_trace::Counter,
}

impl PfMetrics {
    /// Handles under scope `s`; the per-pipeline leaves carry `prev`'s
    /// totals, so relabeling never resets the stats views.
    fn from_scope(s: &ks_trace::Scope<'static>, prev: Option<&PfMetrics>) -> PfMetrics {
        use ks_trace::{names, Counter};
        let leaf = |name: &str, old: fn(&PfMetrics) -> &Counter| {
            Counter::leaf(Some(&s.counter(name)), prev.map(old))
        };
        PfMetrics {
            iterations: s.counter(names::PF_ITERATIONS),
            refreshes: s.counter(names::PF_REFRESHES),
            fallback_generic: s.counter(names::PF_FALLBACK_GENERIC),
            fallback_last_good: s.counter(names::PF_FALLBACK_LAST_GOOD),
            launch_retries: s.counter(names::PF_LAUNCH_RETRIES),
            promotions: leaf(names::PF_PROMOTIONS, |m| &m.promotions),
            promotions_failed: leaf(names::PF_PROMOTIONS_FAILED, |m| &m.promotions_failed),
            promotions_superseded: leaf(names::PF_PROMOTIONS_SUPERSEDED, |m| {
                &m.promotions_superseded
            }),
            promotion_latency_us: s.histogram(names::PF_PROMOTION_LATENCY_US),
            iteration_us: s.histogram(names::PF_ITERATION_US),
            integrity_checks: leaf(names::PF_INTEGRITY_CHECKS, |m| &m.integrity_checks),
            integrity_witness: leaf(names::PF_INTEGRITY_WITNESS, |m| &m.integrity_witness),
            integrity_violations: leaf(names::PF_INTEGRITY_VIOLATIONS, |m| &m.integrity_violations),
            integrity_transient: leaf(names::PF_INTEGRITY_TRANSIENT, |m| &m.integrity_transient),
            integrity_corrupt: leaf(names::PF_INTEGRITY_CORRUPT, |m| &m.integrity_corrupt),
            integrity_recovered: leaf(names::PF_INTEGRITY_RECOVERED, |m| &m.integrity_recovered),
            integrity_reexecs: leaf(names::PF_INTEGRITY_REEXECS, |m| &m.integrity_reexecs),
        }
    }
}

/// Registry label value for one tier, used in the
/// `gpu_pf.tier.dwell_us.<tier>` dwell histogram names.
fn tier_label(t: Tier) -> &'static str {
    match t {
        Tier::Generic => "generic",
        Tier::Promoting => "promoting",
        Tier::Specialized => "specialized",
        Tier::Failed => "failed",
    }
}

/// Handle to a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Handle to a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResId(pub usize);

/// Errors from pipeline refresh or execution.
#[derive(Debug)]
pub enum PfError {
    Compile(ks_core::CompileError),
    Sim(SimError),
    Mem(ks_sim::MemError),
    Spec(String),
    Io(std::io::Error),
    /// A resource/parameter binding resolved to the wrong kind or an
    /// unallocated resource (formerly a panic; the message text is
    /// unchanged). The panicking accessors (`int_value`, `device_addr`,
    /// …) remain as thin wrappers over the `try_*` forms.
    Bind(String),
    /// Launch-path resolution failed: not a kernel resource, module not
    /// compiled, or a value unusable on the launch path.
    Launch(String),
}

impl std::fmt::Display for PfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfError::Compile(e) => write!(f, "{e}"),
            PfError::Sim(e) => write!(f, "{e}"),
            PfError::Mem(e) => write!(f, "{e}"),
            PfError::Spec(s) => write!(f, "specification error: {s}"),
            PfError::Io(e) => write!(f, "io error: {e}"),
            // Bare text: the panicking wrappers rely on this rendering
            // matching the pre-conversion panic messages exactly.
            PfError::Bind(s) => write!(f, "{s}"),
            PfError::Launch(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for PfError {}

impl From<ks_core::CompileError> for PfError {
    fn from(e: ks_core::CompileError) -> Self {
        PfError::Compile(e)
    }
}

impl From<SimError> for PfError {
    fn from(e: SimError) -> Self {
        PfError::Sim(e)
    }
}

impl From<ks_sim::MemError> for PfError {
    fn from(e: ks_sim::MemError) -> Self {
        PfError::Mem(e)
    }
}

struct ParamSlot {
    name: String,
    value: ParamValue,
    dirty: bool,
}

/// How a module macro binds to a parameter.
#[derive(Debug, Clone)]
pub enum MacroBinding {
    /// The parameter's value rendered as an integer literal.
    Param(ParamId),
    /// A fixed string (escape hatch for type tokens etc.).
    Literal(String),
}

/// How a module degraded when its specialized compile failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackKind {
    /// Compiled and bound the generic (no `-D` defines) kernel binary:
    /// correct results via runtime arguments, without the specialized
    /// variant's performance.
    Generic,
    /// Kept the previously compiled (stale-specialization) binary.
    LastKnownGood,
}

/// Record of one graceful degradation during [`Pipeline::refresh`].
#[derive(Debug, Clone)]
pub struct Degradation {
    /// Resource index of the module that degraded.
    pub module: usize,
    pub fallback: FallbackKind,
    /// The specialized compile error (or integrity verdict) that forced
    /// the fallback.
    pub error: String,
    /// Canonical cache key (32-hex [`ks_core::Fingerprint`]) of the
    /// *failed* variant, so reports name the exact artifact — the same
    /// identity `ks-store` records carry on disk.
    pub key: String,
    /// The failed variant's rendered `-D` command line (empty for a
    /// generic compile), so a report names the exact configuration
    /// without a key-to-defines lookup.
    pub defines: String,
}

/// Canonical identity of the binary a module currently serves, stamped
/// at every bind site from [`ks_core::Compiler::cache_key`] over the
/// module source and the binary's *actual* compile defines (which, for
/// a degraded module, differ from the requested specialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundKey {
    /// 32-hex canonical cache key.
    pub fingerprint: String,
    /// Low 64 bits of the key — what keyed launch-fault selectors
    /// ([`ks_fault::Target::Key`]) match on.
    pub lo64: u64,
    /// Rendered `-D` command line of the bound binary.
    pub defines: String,
}

/// End-to-end output-integrity checking for kernel executions
/// ([`Pipeline::set_integrity`]).
///
/// When enabled, every `Exec` action snapshots its device-memory
/// arguments before launching, checksums them after (FNV-1a-128 via
/// [`ks_core::StableHasher`]), and periodically *witnesses* the result:
/// the inputs are restored and the generic (define-free) binary —
/// compiled from the same source, reading its runtime arguments — re-runs
/// on them. Specialization is semantics-preserving, so any byte
/// divergence between the specialized output and the witness output is
/// an integrity violation: either a transient device flip or a corrupt
/// specialized binary. N-of-M re-execution voting tells the two apart,
/// the degradation ladder quarantines a corrupt variant, and the
/// iteration re-executes so downstream actions only ever see verified
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Witness every Nth integrity-checked execution (1 = every one).
    /// 0 disables periodic witnessing: a witness then runs only when a
    /// pinned golden checksum ([`Pipeline::expect_checksum`]) mismatches.
    pub witness_period: u64,
    /// Re-execution votes cast when a witness disagrees (the M in
    /// N-of-M).
    pub vote_m: u32,
    /// Votes that must agree with the witness to call the divergence a
    /// transient device flip (the N). Fewer agreements convict the
    /// specialized binary itself, which is then quarantined.
    pub vote_n: u32,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            witness_period: 16,
            vote_m: 3,
            vote_n: 2,
        }
    }
}

/// What first exposed an integrity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A pinned golden checksum ([`Pipeline::expect_checksum`])
    /// mismatched, and the witness confirmed the divergence.
    GoldenMismatch,
    /// A scheduled witness launch disagreed with the specialized output.
    WitnessMismatch,
}

/// Root cause assigned by N-of-M re-execution voting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Re-executions of the same specialized binary agree with the
    /// witness: the original output was corrupted in flight (an SDC
    /// event), not by the binary. The variant keeps serving.
    TransientFlip,
    /// Re-executions reproduce the divergence: the specialized binary
    /// itself computes wrong bytes. The variant is quarantined through
    /// the degradation ladder and the generic binary takes over.
    CorruptBinary,
}

/// One detected-and-adjudicated output-integrity violation.
#[derive(Debug, Clone)]
pub struct IntegrityViolation {
    /// Pipeline iteration the violating execution ran in.
    pub iteration: u64,
    /// The `Exec` action's label.
    pub label: String,
    /// Resource index of the module whose binary was suspect.
    pub module: usize,
    /// Kernel name launched.
    pub kernel: String,
    /// Canonical cache key (32-hex) of the suspect variant.
    pub key: String,
    /// The suspect variant's `-D` command line.
    pub defines: String,
    pub kind: ViolationKind,
    pub verdict: Verdict,
    /// Votes that agreed with the witness, out of `votes_total` cast.
    pub votes_agree: u32,
    pub votes_total: u32,
    /// The post-recovery re-execution reproduced the witness output
    /// byte-for-byte — downstream actions saw verified bytes.
    pub recovered: bool,
}

/// Per-pipeline integrity accounting: a read-only view over the
/// pipeline's own cells, which chain into the `gpu_pf.integrity.*`
/// registry counters (globally and under the pipeline's label scope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Executions that ran with integrity checking active.
    pub checks: u64,
    /// Witness launches performed (generic re-runs on restored inputs).
    pub witness_launches: u64,
    /// Violations detected (witness disagreed with the checked output).
    pub violations: u64,
    /// Violations adjudicated as transient device flips.
    pub transient_flips: u64,
    /// Violations adjudicated as corrupt specialized binaries.
    pub corrupt_binaries: u64,
    /// Violations whose recovery re-execution matched the witness.
    pub recovered: u64,
    /// Voting and recovery re-executions of the checked kernel.
    pub reexecutions: u64,
}

/// How [`Pipeline::refresh`] produces specialized binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshMode {
    /// Compile every dirty module synchronously inside `refresh()` —
    /// the original GPU-PF behavior: refresh returns only when every
    /// module holds its exact specialized binary.
    #[default]
    Blocking,
    /// Tiered execution: `refresh()` binds each dirty module to its
    /// generic, define-free binary immediately (a previous
    /// specialization would serve stale macro values) and enqueues the
    /// specialized compile on the background tier. The module is
    /// hot-swapped to the specialized binary when its
    /// [`CompileTicket`] resolves; in-flight launches keep the binary
    /// they pinned at launch time.
    Tiered,
}

/// Which binary a module is serving, relative to its requested
/// specialization (tiered execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Serving the generic (define-free) binary; no specialization has
    /// been requested or completed yet.
    #[default]
    Generic,
    /// A background specialization is in flight; the module serves its
    /// interim binary until the ticket resolves.
    Promoting,
    /// Serving its exact requested specialized binary.
    Specialized,
    /// The most recent specialization attempt failed; the module keeps
    /// serving its fallback binary and the next refresh retries.
    Failed,
}

/// Per-pipeline promotion accounting (tiered mode): a read-only view
/// over the pipeline's own cells, which chain into the
/// `gpu_pf.promotions*` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromotionStats {
    /// Modules hot-swapped to their specialized binary.
    pub promoted: u64,
    /// Background specializations that failed (module kept fallback).
    pub failed: u64,
    /// In-flight promotions cancelled because the module was re-dirtied
    /// before the ticket resolved.
    pub superseded: u64,
    /// Promotions currently in flight.
    pub pending: u64,
}

/// An in-flight background specialization for one module.
struct Pending {
    ticket: CompileTicket,
    /// What the module serves while the ticket is in flight — recorded
    /// as the degradation fallback if the promotion fails.
    fallback: FallbackKind,
    /// When the ticket was spawned; the `tier_swap` span covers
    /// spawn → hot-swap.
    started: Instant,
    /// Canonical identity of the variant being compiled, stamped at
    /// spawn time so a failed promotion's [`Degradation`] names the
    /// exact `-D` configuration that failed.
    key: BoundKey,
}

enum Resource {
    Module {
        source: String,
        bindings: Vec<(String, MacroBinding)>,
        binary: Option<Arc<Binary>>,
        /// Bound to a fallback binary; the next refresh retries the
        /// specialized compile even if no parameter changed.
        degraded: bool,
        /// Which binary the module currently serves (tiered execution).
        tier: Tier,
        /// When the module entered its current tier; each transition
        /// records the elapsed dwell into the per-module
        /// `gpu_pf.tier.dwell_us.*` histograms.
        tier_since: Instant,
        /// The in-flight background specialization, if any.
        pending: Option<Pending>,
        /// Canonical identity of the binary currently bound, stamped at
        /// every bind site. `None` until the first bind.
        bound: Option<BoundKey>,
    },
    Kernel {
        module: ResId,
        name: String,
    },
    GlobalMem {
        extent: ParamId,
        addr: Option<u64>,
        bytes: u64,
    },
    HostMem {
        extent: ParamId,
        data: Vec<u8>,
    },
    ConstMem {
        module: ResId,
        name: String,
    },
    /// A moving window over another memory reference; the subset parameter
    /// advances each iteration (streaming input frames, §4.4.1).
    Subset {
        of: ResId,
        subset: ParamId,
    },
    /// A texture reference inside a module, bound to a memory reference
    /// (Table 4.2's Texture resource): rebound before every launch, so a
    /// moving subset can stream frames through the texture path.
    Texture {
        module: ResId,
        name: String,
        mem: ResId,
    },
}

/// A kernel-execution argument.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// Scalar from a parameter (Integer/Float/Pointer/Bool).
    Param(ParamId),
    /// Device pointer of a memory resource.
    Mem(ResId),
}

type UserFn = Box<dyn FnMut(&mut DeviceState, u64) -> Result<(), PfError> + Send>;

enum Action {
    Copy {
        src: ResId,
        dst: ResId,
        schedule: ParamId,
        label: String,
    },
    Exec {
        kernel: ResId,
        grid: ParamId,
        block: ParamId,
        dynamic_shared: Option<ParamId>,
        args: Vec<Arg>,
        schedule: ParamId,
        label: String,
    },
    User {
        f: UserFn,
        schedule: ParamId,
        label: String,
    },
    FileOut {
        mem: ResId,
        path: PathBuf,
        schedule: ParamId,
        label: String,
    },
    FileIn {
        mem: ResId,
        path: PathBuf,
        schedule: ParamId,
        label: String,
    },
}

/// Result of a §4.4.2-style output validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    pub compared: usize,
    pub mismatches: usize,
    pub first_mismatch: Option<usize>,
    pub worst_abs: f32,
    pub worst_rel: f32,
    pub length_mismatch: bool,
}

impl ValidationReport {
    pub fn passed(&self) -> bool {
        self.mismatches == 0 && !self.length_mismatch
    }
}

/// Timing record for one executed operation.
#[derive(Debug, Clone)]
pub struct OpTiming {
    pub iteration: u64,
    pub label: String,
    /// Simulated GPU milliseconds for kernel executions; modeled transfer
    /// time for copies.
    pub sim_ms: f64,
}

/// The pipeline: owns the device, the compiler, and the object graph.
pub struct Pipeline {
    compiler: Arc<Compiler>,
    pub state: DeviceState,
    params: Vec<ParamSlot>,
    resources: Vec<Resource>,
    actions: Vec<Action>,
    iteration: u64,
    refreshed: bool,
    pub launch_options: LaunchOptions,
    /// Launch retry budget for *transient* device faults (per
    /// execution; non-transient simulation traps never retry).
    pub launch_retries: u32,
    log: log::Logger,
    timings: Vec<OpTiming>,
    /// Reports of every kernel execution (most recent last).
    pub reports: Vec<LaunchReport>,
    degradations: Vec<Degradation>,
    refresh_mode: RefreshMode,
    /// Output-integrity checking, off by default ([`Pipeline::set_integrity`]).
    integrity: Option<IntegrityConfig>,
    /// Integrity-checked executions so far — the witness-period clock.
    integrity_seq: u64,
    violations: Vec<IntegrityViolation>,
    /// Pinned golden checksums by exec label ([`Pipeline::expect_checksum`]).
    golden: BTreeMap<String, String>,
    /// Most recent observed output checksum by exec label.
    observed_checksums: BTreeMap<String, String>,
    /// The metric scope this pipeline publishes through: global when
    /// unlabeled, `{pipeline=<label>}` after [`Pipeline::set_label`].
    scope: ks_trace::Scope<'static>,
    metrics: PfMetrics,
    label: Option<String>,
}

impl Pipeline {
    /// Specification phase begins: nothing is compiled or allocated yet.
    pub fn new(compiler: Arc<Compiler>, heap_bytes: u64) -> Pipeline {
        let dev = compiler.device().clone();
        let scope = ks_trace::registry().scoped(&[]);
        Pipeline {
            compiler,
            state: DeviceState::new(dev, heap_bytes),
            params: Vec::new(),
            resources: Vec::new(),
            actions: Vec::new(),
            iteration: 0,
            refreshed: false,
            launch_options: LaunchOptions::default(),
            launch_retries: 2,
            log: log::Logger::disabled(),
            timings: Vec::new(),
            reports: Vec::new(),
            degradations: Vec::new(),
            refresh_mode: RefreshMode::Blocking,
            integrity: None,
            integrity_seq: 0,
            violations: Vec::new(),
            golden: BTreeMap::new(),
            observed_checksums: BTreeMap::new(),
            metrics: PfMetrics::from_scope(&scope, None),
            scope,
            label: None,
        }
    }

    /// Tag every metric this pipeline publishes with a
    /// `{pipeline=<label>}` scope. Scoped cells roll up exactly into
    /// the global `gpu_pf.*` aggregates, so labeling changes nothing
    /// for fleet-wide readers; per-pipeline windows and dwell
    /// histograms become separable. Call before `refresh()` — metrics
    /// already published stay on the previous scope, while
    /// [`Pipeline::promotion_stats`] and [`Pipeline::integrity_stats`]
    /// keep their totals.
    pub fn set_label(&mut self, label: &str) {
        self.scope = ks_trace::registry().scoped(&[("pipeline", label)]);
        self.metrics = PfMetrics::from_scope(&self.scope, Some(&self.metrics));
        self.label = Some(label.to_string());
    }

    /// The metric label set by [`Pipeline::set_label`], if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The registry name `base` resolves to under this pipeline's
    /// scope (e.g. `gpu_pf.iteration_us{pipeline=p0}`), for readers
    /// that want this pipeline's cells out of a snapshot or window.
    pub fn metric_name(&self, base: &str) -> String {
        ks_trace::scoped_name(base, self.scope.labels())
    }

    /// Cumulative time-in-tier dwell histogram for `tier`, under this
    /// pipeline's scope: how long modules sat on that tier before
    /// transitioning off it. Derived from the same transitions the
    /// `tier_swap` spans mark, but always-on.
    pub fn tier_dwell(&self, tier: Tier) -> ks_trace::HistogramSnapshot {
        self.scope
            .histogram(&ks_trace::names::pf_tier_dwell_us(tier_label(tier)))
            .snapshot()
    }

    /// Record the end of a module's dwell on its current tier and move
    /// it to `new`, publishing the elapsed µs into the per-module,
    /// per-pipeline, and global dwell histograms (the scope chain rolls
    /// each sample up through all three).
    fn record_tier_transition(&mut self, i: usize, new: Tier) {
        let Resource::Module {
            tier, tier_since, ..
        } = &mut self.resources[i]
        else {
            unreachable!()
        };
        let old = std::mem::replace(tier, new);
        let dwell = std::mem::replace(tier_since, Instant::now()).elapsed();
        let module = i.to_string();
        self.scope
            .scoped(&[("module", &module)])
            .histogram(&ks_trace::names::pf_tier_dwell_us(tier_label(old)))
            .record_duration_us(dwell);
    }

    /// Canonical identity of a (source, defines) variant under this
    /// pipeline's compiler.
    fn variant_key(&self, source: &str, defs: &Defines) -> BoundKey {
        let fp = self.compiler.cache_key(source, defs);
        BoundKey {
            fingerprint: fp.to_hex(),
            lo64: fp.lo64(),
            defines: defs.command_line(),
        }
    }

    /// Stamp module `i`'s bound-key identity from the binary it now
    /// holds. Called at every bind site, so keyed launch-fault checks
    /// and integrity records always name the served variant exactly.
    fn stamp_bound_key(&mut self, i: usize) {
        let Resource::Module {
            source,
            binary: Some(bin),
            ..
        } = &self.resources[i]
        else {
            return;
        };
        let key = self.variant_key(&source.clone(), &bin.defines.clone());
        let Resource::Module { bound, .. } = &mut self.resources[i] else {
            unreachable!()
        };
        *bound = Some(key);
    }

    /// Every graceful degradation recorded by [`Pipeline::refresh`]
    /// (oldest first). Empty when all specialized compiles succeeded.
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    /// Enable (or disable, with `None`) end-to-end output-integrity
    /// checking for every `Exec` action. See [`IntegrityConfig`].
    pub fn set_integrity(&mut self, cfg: Option<IntegrityConfig>) {
        self.integrity = cfg;
    }

    pub fn integrity(&self) -> Option<IntegrityConfig> {
        self.integrity
    }

    /// Per-pipeline integrity accounting, read from this pipeline's
    /// cells (the ones its `gpu_pf.integrity.*` publishes go through).
    pub fn integrity_stats(&self) -> IntegrityStats {
        let m = &self.metrics;
        IntegrityStats {
            checks: m.integrity_checks.get(),
            witness_launches: m.integrity_witness.get(),
            violations: m.integrity_violations.get(),
            transient_flips: m.integrity_transient.get(),
            corrupt_binaries: m.integrity_corrupt.get(),
            recovered: m.integrity_recovered.get(),
            reexecutions: m.integrity_reexecs.get(),
        }
    }

    /// Every detected integrity violation (oldest first).
    pub fn integrity_violations(&self) -> &[IntegrityViolation] {
        &self.violations
    }

    /// Pin the expected output checksum for an `Exec` action's label.
    /// While integrity checking is on, any execution whose observed
    /// checksum differs triggers an immediate witness — even between
    /// scheduled witness periods. Only pin stages whose inputs are
    /// stationary across iterations; for streaming stages rely on the
    /// periodic witness instead.
    pub fn expect_checksum(&mut self, label: &str, checksum: &str) {
        self.golden.insert(label.to_string(), checksum.to_string());
    }

    /// The most recent observed output checksum (32-hex FNV-1a-128 over
    /// the execution's device-memory arguments) for an exec label, once
    /// integrity checking has seen it fire.
    pub fn last_checksum(&self, label: &str) -> Option<&str> {
        self.observed_checksums.get(label).map(|s| s.as_str())
    }

    /// Canonical identity of the binary a module currently serves, or
    /// `None` before the first bind (or if `id` is not a module).
    pub fn module_bound_key(&self, id: ResId) -> Option<&BoundKey> {
        match &self.resources[id.0] {
            Resource::Module { bound, .. } => bound.as_ref(),
            _ => None,
        }
    }

    /// Select how [`Pipeline::refresh`] produces specialized binaries
    /// (blocking, the default, or tiered).
    pub fn set_refresh_mode(&mut self, mode: RefreshMode) {
        self.refresh_mode = mode;
    }

    pub fn refresh_mode(&self) -> RefreshMode {
        self.refresh_mode
    }

    /// The tier a module resource is currently serving from, or `None`
    /// if `id` is not a module.
    pub fn module_tier(&self, id: ResId) -> Option<Tier> {
        match &self.resources[id.0] {
            Resource::Module { tier, .. } => Some(*tier),
            _ => None,
        }
    }

    /// Per-pipeline promotion accounting; `pending` counts tickets
    /// still in flight right now.
    pub fn promotion_stats(&self) -> PromotionStats {
        let pending = self
            .resources
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Resource::Module {
                        pending: Some(_),
                        ..
                    }
                )
            })
            .count() as u64;
        PromotionStats {
            promoted: self.metrics.promotions.get(),
            failed: self.metrics.promotions_failed.get(),
            superseded: self.metrics.promotions_superseded.get(),
            pending,
        }
    }

    /// Route Appendix-G-style log output to a writer.
    pub fn set_logger(&mut self, w: Box<dyn std::io::Write + Send>) {
        self.log = log::Logger::new(w);
    }

    /// Route Appendix-G-style log output to a [`ks_trace::Subscriber`],
    /// sharing a sink with trace/metric exports.
    pub fn set_subscriber(&mut self, s: Arc<dyn ks_trace::Subscriber>) {
        self.log = log::Logger::subscriber(s);
    }

    // ---- parameters (Table 4.1) ----

    fn add_param(&mut self, name: &str, value: ParamValue) -> ParamId {
        self.params.push(ParamSlot {
            name: name.to_string(),
            value,
            dirty: true,
        });
        ParamId(self.params.len() - 1)
    }

    pub fn int_param(&mut self, name: &str, v: i64) -> ParamId {
        self.add_param(name, ParamValue::Int(v))
    }

    pub fn float_param(&mut self, name: &str, v: f64) -> ParamId {
        self.add_param(name, ParamValue::Float(v))
    }

    pub fn bool_param(&mut self, name: &str, v: bool) -> ParamId {
        self.add_param(name, ParamValue::Bool(v))
    }

    pub fn pointer_param(&mut self, name: &str, v: u64) -> ParamId {
        self.add_param(name, ParamValue::Ptr(v))
    }

    pub fn triplet_param(&mut self, name: &str, v: [u32; 3]) -> ParamId {
        self.add_param(name, ParamValue::Triplet(v))
    }

    pub fn pair_param(&mut self, name: &str, v: [u32; 2]) -> ParamId {
        self.add_param(name, ParamValue::Pair(v))
    }

    /// Geometry (up to 3D) and element size of a memory reference.
    pub fn extent_param(&mut self, name: &str, dims: [u32; 3], elem_bytes: u32) -> ParamId {
        self.add_param(name, ParamValue::Extent { dims, elem_bytes })
    }

    /// Period between events and delay before the first occurrence.
    pub fn schedule_param(&mut self, name: &str, period: u64, delay: u64) -> ParamId {
        self.add_param(name, ParamValue::Schedule { period, delay })
    }

    /// Subrange of a memory extent with a per-iteration stride (in
    /// elements of the underlying extent).
    pub fn subset_param(
        &mut self,
        name: &str,
        offset_elems: u64,
        len_elems: u64,
        stride_elems: i64,
        reset_period: u64,
    ) -> ParamId {
        self.add_param(
            name,
            ParamValue::Subset {
                offset: offset_elems,
                len: len_elems,
                stride: stride_elems,
                reset_period,
            },
        )
    }

    /// Self-updating parameter iterating through a range with a stride.
    pub fn step_param(&mut self, name: &str, start: i64, stride: i64, end: i64) -> ParamId {
        self.add_param(
            name,
            ParamValue::Step(StepParam {
                current: start,
                start,
                stride,
                end,
            }),
        )
    }

    /// Update an integer parameter (marks dependents dirty; takes effect at
    /// the next refresh).
    /// The compiler backing this pipeline (shared, cache and all).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    pub fn set_int(&mut self, id: ParamId, v: i64) {
        let slot = &mut self.params[id.0];
        slot.value = ParamValue::Int(v);
        slot.dirty = true;
        self.refreshed = false;
    }

    pub fn set_triplet(&mut self, id: ParamId, v: [u32; 3]) {
        let slot = &mut self.params[id.0];
        slot.value = ParamValue::Triplet(v);
        slot.dirty = true;
        self.refreshed = false;
    }

    pub fn set_pointer(&mut self, id: ParamId, v: u64) {
        let slot = &mut self.params[id.0];
        slot.value = ParamValue::Ptr(v);
        slot.dirty = true;
        self.refreshed = false;
    }

    pub fn set_extent(&mut self, id: ParamId, dims: [u32; 3], elem_bytes: u32) {
        let slot = &mut self.params[id.0];
        slot.value = ParamValue::Extent { dims, elem_bytes };
        slot.dirty = true;
        self.refreshed = false;
    }

    /// Integer value of a parameter, or [`PfError::Bind`] if the
    /// parameter is not integer-valued.
    pub fn try_int_value(&self, id: ParamId) -> Result<i64, PfError> {
        match &self.params[id.0].value {
            ParamValue::Int(v) => Ok(*v),
            ParamValue::Step(s) => Ok(s.current),
            ParamValue::Bool(b) => Ok(i64::from(*b)),
            v => Err(PfError::Bind(format!(
                "parameter {} is not an integer: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    /// Panicking form of [`Pipeline::try_int_value`] (same message).
    pub fn int_value(&self, id: ParamId) -> i64 {
        self.try_int_value(id).unwrap_or_else(|e| panic!("{e}"))
    }

    fn triplet_value(&self, id: ParamId) -> Result<[u32; 3], PfError> {
        match &self.params[id.0].value {
            ParamValue::Triplet(v) => Ok(*v),
            v => Err(PfError::Bind(format!(
                "parameter {} is not a triplet: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    fn extent_bytes(&self, id: ParamId) -> Result<u64, PfError> {
        match &self.params[id.0].value {
            ParamValue::Extent { dims, elem_bytes } => {
                Ok(dims[0] as u64 * dims[1] as u64 * dims[2] as u64 * *elem_bytes as u64)
            }
            v => Err(PfError::Bind(format!(
                "parameter {} is not an extent: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    fn schedule_fires(&self, id: ParamId, iter: u64) -> Result<bool, PfError> {
        match &self.params[id.0].value {
            ParamValue::Schedule { period, delay } => {
                Ok(iter >= *delay && (*period > 0) && (iter - delay).is_multiple_of(*period))
            }
            v => Err(PfError::Bind(format!(
                "parameter {} is not a schedule: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    // ---- resources (Tables 4.2/4.3) ----

    fn add_res(&mut self, r: Resource) -> ResId {
        self.resources.push(r);
        ResId(self.resources.len() - 1)
    }

    /// A CUDA module compiled at refresh time with macro values taken from
    /// the bound parameters — kernel specialization automation.
    pub fn module(&mut self, source: &str, bindings: Vec<(&str, MacroBinding)>) -> ResId {
        self.add_res(Resource::Module {
            source: source.to_string(),
            bindings: bindings
                .into_iter()
                .map(|(n, b)| (n.to_string(), b))
                .collect(),
            binary: None,
            degraded: false,
            tier: Tier::Generic,
            tier_since: Instant::now(),
            pending: None,
            bound: None,
        })
    }

    pub fn kernel(&mut self, module: ResId, name: &str) -> ResId {
        self.add_res(Resource::Kernel {
            module,
            name: name.to_string(),
        })
    }

    pub fn global_memory(&mut self, extent: ParamId) -> ResId {
        self.add_res(Resource::GlobalMem {
            extent,
            addr: None,
            bytes: 0,
        })
    }

    pub fn host_memory(&mut self, extent: ParamId) -> ResId {
        self.add_res(Resource::HostMem {
            extent,
            data: Vec::new(),
        })
    }

    pub fn constant_memory(&mut self, module: ResId, name: &str) -> ResId {
        self.add_res(Resource::ConstMem {
            module,
            name: name.to_string(),
        })
    }

    /// A moving window over `of`, positioned by a subset parameter. Usable
    /// anywhere a full memory reference is (Table 4.3).
    pub fn subset(&mut self, of: ResId, subset: ParamId) -> ResId {
        self.add_res(Resource::Subset { of, subset })
    }

    /// A texture reference of `module`, bound to `mem`'s device address
    /// before every kernel execution.
    pub fn texture(&mut self, module: ResId, name: &str, mem: ResId) -> ResId {
        self.add_res(Resource::Texture {
            module,
            name: name.to_string(),
            mem,
        })
    }

    /// Fill a host memory resource (before or between runs), or
    /// [`PfError::Bind`] if `id` is not host memory.
    pub fn try_set_host_data(&mut self, id: ResId, bytes: &[u8]) -> Result<(), PfError> {
        match &mut self.resources[id.0] {
            Resource::HostMem { data, .. } => {
                data.clear();
                data.extend_from_slice(bytes);
                Ok(())
            }
            _ => Err(PfError::Bind("resource is not host memory".to_string())),
        }
    }

    /// Panicking form of [`Pipeline::try_set_host_data`] (same message).
    pub fn set_host_data(&mut self, id: ResId, bytes: &[u8]) {
        self.try_set_host_data(id, bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn set_host_f32(&mut self, id: ResId, vals: &[f32]) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.set_host_data(id, &bytes);
    }

    /// Contents of a host memory resource, or [`PfError::Bind`] if `id`
    /// is not host memory.
    pub fn try_host_data(&self, id: ResId) -> Result<&[u8], PfError> {
        match &self.resources[id.0] {
            Resource::HostMem { data, .. } => Ok(data),
            _ => Err(PfError::Bind("resource is not host memory".to_string())),
        }
    }

    /// Panicking form of [`Pipeline::try_host_data`] (same message).
    pub fn host_data(&self, id: ResId) -> &[u8] {
        self.try_host_data(id).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn host_f32(&self, id: ResId) -> Vec<f32> {
        self.host_data(id)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Device address of a global memory resource (after refresh), or
    /// [`PfError::Bind`] if unresolvable.
    pub fn try_device_addr(&self, id: ResId) -> Result<u64, PfError> {
        let unallocated = || PfError::Bind("refresh() first".to_string());
        match &self.resources[id.0] {
            Resource::GlobalMem { addr, .. } => addr.ok_or_else(unallocated),
            Resource::Subset { of, subset } => {
                let (base_addr, elem) = match &self.resources[of.0] {
                    Resource::GlobalMem { addr, extent, .. } => {
                        (addr.ok_or_else(unallocated)?, self.extent_elem(*extent)?)
                    }
                    _ => {
                        return Err(PfError::Bind(
                            "subset of non-global memory has no device address".to_string(),
                        ))
                    }
                };
                match &self.params[subset.0].value {
                    ParamValue::Subset { offset, .. } => Ok(base_addr + offset * elem as u64),
                    _ => Err(PfError::Bind(
                        "subset resource bound to non-subset parameter".to_string(),
                    )),
                }
            }
            _ => Err(PfError::Bind("resource has no device address".to_string())),
        }
    }

    /// Panicking form of [`Pipeline::try_device_addr`] (same messages).
    pub fn device_addr(&self, id: ResId) -> u64 {
        self.try_device_addr(id).unwrap_or_else(|e| panic!("{e}"))
    }

    fn extent_elem(&self, id: ParamId) -> Result<u32, PfError> {
        match &self.params[id.0].value {
            ParamValue::Extent { elem_bytes, .. } => Ok(*elem_bytes),
            _ => Err(PfError::Bind("not an extent".to_string())),
        }
    }

    /// The compiled binary backing a kernel (after refresh), or
    /// [`PfError::Launch`] if the resource isn't a compiled kernel.
    pub fn try_kernel_binary(&self, kernel: ResId) -> Result<&Arc<Binary>, PfError> {
        let Resource::Kernel { module, .. } = &self.resources[kernel.0] else {
            return Err(PfError::Launch("not a kernel resource".to_string()));
        };
        match &self.resources[module.0] {
            Resource::Module {
                binary: Some(b), ..
            } => Ok(b),
            _ => Err(PfError::Launch(
                "module not compiled; refresh() first".to_string(),
            )),
        }
    }

    /// Panicking form of [`Pipeline::try_kernel_binary`] (same messages).
    pub fn kernel_binary(&self, kernel: ResId) -> &Arc<Binary> {
        self.try_kernel_binary(kernel)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    // ---- actions (Table 4.4) ----

    /// Single copy function; endpoint memory types determine the transfer
    /// direction, like GPU-PF's one-function copy.
    pub fn copy(&mut self, label: &str, src: ResId, dst: ResId, schedule: ParamId) {
        self.actions.push(Action::Copy {
            src,
            dst,
            schedule,
            label: label.to_string(),
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub fn exec(
        &mut self,
        label: &str,
        kernel: ResId,
        grid: ParamId,
        block: ParamId,
        dynamic_shared: Option<ParamId>,
        args: Vec<Arg>,
        schedule: ParamId,
    ) {
        self.actions.push(Action::Exec {
            kernel,
            grid,
            block,
            dynamic_shared,
            args,
            schedule,
            label: label.to_string(),
        });
    }

    pub fn user_fn(
        &mut self,
        label: &str,
        f: impl FnMut(&mut DeviceState, u64) -> Result<(), PfError> + Send + 'static,
        schedule: ParamId,
    ) {
        self.actions.push(Action::User {
            f: Box::new(f),
            schedule,
            label: label.to_string(),
        });
    }

    pub fn file_out(
        &mut self,
        label: &str,
        mem: ResId,
        path: impl Into<PathBuf>,
        schedule: ParamId,
    ) {
        self.actions.push(Action::FileOut {
            mem,
            path: path.into(),
            schedule,
            label: label.to_string(),
        });
    }

    /// Binary data input: read a file into a host or global memory
    /// resource each time the schedule fires (Table 4.4's File I/O).
    pub fn file_in(
        &mut self,
        label: &str,
        path: impl Into<PathBuf>,
        mem: ResId,
        schedule: ParamId,
    ) {
        self.actions.push(Action::FileIn {
            mem,
            path: path.into(),
            schedule,
            label: label.to_string(),
        });
    }

    // ---- refresh phase ----

    /// Recompute every resource affected by parameter changes: recompile
    /// modules whose bound macros changed, (re)allocate memory whose
    /// extents changed. Comprehensive error checking happens here so the
    /// execution phase stays fast (§4.4.1).
    pub fn refresh(&mut self) -> Result<(), PfError> {
        let _span = ks_trace::span("refresh");
        let dirty: BTreeSet<usize> = self
            .params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dirty)
            .map(|(i, _)| i)
            .collect();
        self.log.line_with(|| {
            format!(
                "=== refresh: {} dirty parameter(s) of {} ===",
                dirty.len(),
                self.params.len()
            )
        });
        for i in 0..self.resources.len() {
            // Split borrows: temporarily take the resource out.
            match &self.resources[i] {
                Resource::Module {
                    source,
                    bindings,
                    binary,
                    degraded,
                    ..
                } => {
                    // A degraded module retries its specialized compile on
                    // every refresh (the half-open probe of the fallback
                    // path), even when no bound parameter changed.
                    let needs = binary.is_none()
                        || *degraded
                        || bindings.iter().any(|(_, b)| match b {
                            MacroBinding::Param(p) => dirty.contains(&p.0),
                            MacroBinding::Literal(_) => false,
                        });
                    if !needs {
                        continue;
                    }
                    let mut defs = Defines::new();
                    for (name, b) in bindings {
                        match b {
                            MacroBinding::Param(p) => {
                                let v = self.render_param(*p)?;
                                defs = defs.def(name, v);
                            }
                            MacroBinding::Literal(s) => {
                                defs = defs.def(name, s.clone());
                            }
                        }
                    }
                    let source = source.clone();
                    // A define-free module's generic binary *is* its
                    // specialization target, so the tiered path would
                    // gain nothing: compile it in place either way.
                    if self.refresh_mode == RefreshMode::Tiered && !defs.is_empty() {
                        self.refresh_module_tiered(i, &source, defs)?;
                    } else {
                        self.refresh_module_blocking(i, &source, defs)?;
                    }
                }
                Resource::GlobalMem { extent, addr, .. } => {
                    let needs = addr.is_none() || dirty.contains(&extent.0);
                    if !needs {
                        continue;
                    }
                    let bytes = self.extent_bytes(*extent)?;
                    let a = self.state.global.alloc(bytes)?;
                    self.log
                        .line_with(|| format!("global[{i}]: allocated {bytes} B at {a:#x}"));
                    let Resource::GlobalMem { addr, bytes: b, .. } = &mut self.resources[i] else {
                        unreachable!()
                    };
                    *addr = Some(a);
                    *b = bytes;
                }
                Resource::HostMem { extent, data } => {
                    let bytes = self.extent_bytes(*extent)? as usize;
                    if data.len() != bytes {
                        let Resource::HostMem { data, .. } = &mut self.resources[i] else {
                            unreachable!()
                        };
                        data.resize(bytes, 0);
                    }
                }
                Resource::Texture { module, name, .. } => {
                    // Validate the binding target once the module exists.
                    if let Resource::Module {
                        binary: Some(bin), ..
                    } = &self.resources[module.0]
                    {
                        if bin.module.texture_index(name).is_none() {
                            return Err(PfError::Spec(format!(
                                "module declares no texture named {name}"
                            )));
                        }
                    }
                }
                _ => {}
            }
        }
        for p in &mut self.params {
            p.dirty = false;
        }
        self.log.line_with(|| {
            let store = match self.compiler.store_path() {
                Some(p) => format!(", store {}", p.display()),
                None => String::new(),
            };
            format!(
                "=== refresh complete: cache {}{store} ===",
                self.compiler.cache_stats()
            )
        });
        self.metrics.refreshes.inc();
        self.refreshed = true;
        Ok(())
    }

    /// Blocking module refresh: compile the specialized binary inside
    /// `refresh()` (degrading on failure) and bind it before returning.
    fn refresh_module_blocking(
        &mut self,
        i: usize,
        source: &str,
        defs: Defines,
    ) -> Result<(), PfError> {
        let Resource::Module { binary, .. } = &self.resources[i] else {
            unreachable!()
        };
        let last_good = binary.clone();
        let before = self.compiler.cache_stats();
        let (bin, fallback) = match self.compiler.compile(source, &defs) {
            Ok(b) => (b, None),
            Err(e) => self.degrade_module(i, source, &defs, last_good, e)?,
        };
        let after = self.compiler.cache_stats();
        self.log.line_with(|| {
            let how = if after.hits > before.hits {
                "cache hit".to_string()
            } else {
                // Per-phase compile metrics, Appendix-G style.
                format!("compiled in {:?}: {}", bin.compile_time, bin.metrics)
            };
            format!(
                "module[{i}]: compile [{}] -> {} ({how})",
                defs.command_line(),
                bin.module
                    .functions
                    .iter()
                    .map(|f| f.name.clone())
                    .collect::<Vec<_>>()
                    .join(","),
            )
        });
        // Surface analysis findings (non-deny severities; deny
        // already failed the compile) in the refresh report.
        for d in &bin.diagnostics {
            self.log.line_with(|| format!("module[{i}]: {d}"));
        }
        // Translation-validation findings, when the compiler
        // was built `with_validation`. Errors already denied
        // the compile; what remains are inconclusive warnings.
        if !bin.verification.is_empty() {
            self.log.line_with(|| {
                format!(
                    "module[{i}]: verification: {} finding(s), {} error(s)",
                    bin.verification.len(),
                    bin.verification.iter().filter(|f| f.is_error()).count()
                )
            });
            for f in &bin.verification {
                self.log.line_with(|| format!("module[{i}]: {f}"));
            }
        }
        let Resource::Module {
            binary, degraded, ..
        } = &mut self.resources[i]
        else {
            unreachable!()
        };
        *binary = Some(bin);
        *degraded = fallback.is_some();
        self.stamp_bound_key(i);
        let new_tier = match fallback {
            None => Tier::Specialized,
            Some(FallbackKind::Generic) => Tier::Generic,
            Some(FallbackKind::LastKnownGood) => Tier::Failed,
        };
        self.record_tier_transition(i, new_tier);
        Ok(())
    }

    /// Tiered module refresh: bind the generic, define-free binary
    /// *now* and enqueue the specialized compile on the background
    /// tier. A previous specialization is never kept: it bakes in the
    /// old macro values. An in-flight promotion for this module is
    /// superseded (cancelled and its result discarded) for the same
    /// reason.
    fn refresh_module_tiered(
        &mut self,
        i: usize,
        source: &str,
        defs: Defines,
    ) -> Result<(), PfError> {
        let Resource::Module {
            binary, pending, ..
        } = &mut self.resources[i]
        else {
            unreachable!()
        };
        if let Some(stale) = pending.take() {
            stale.ticket.cancel();
            self.metrics.promotions_superseded.inc();
            self.log.line_with(|| {
                format!("module[{i}]: superseded in-flight promotion (parameters re-dirtied)")
            });
        }
        let fallback = if binary.as_ref().is_some_and(|b| b.defines.is_empty()) {
            // Already serving the generic: keep it.
            FallbackKind::LastKnownGood
        } else {
            // The generic binary reads every macro from its runtime
            // argument, so it is the only binary that is correct for
            // the new parameters. Its compile is the one blocking cost
            // the tiered path pays — once, shared across every variant
            // of this source via the cache. If even the generic fails
            // there is nothing servable: fail the refresh, exactly like
            // the blocking path with no fallback.
            let generic = self
                .compiler
                .compile(source, Defines::new())
                .map_err(PfError::Compile)?;
            let Resource::Module { binary, .. } = &mut self.resources[i] else {
                unreachable!()
            };
            *binary = Some(generic);
            self.stamp_bound_key(i);
            self.log
                .line_with(|| format!("module[{i}]: bound generic binary for immediate service"));
            FallbackKind::Generic
        };
        let spec_key = self.variant_key(source, &defs);
        let ticket = self.compiler.spawn_compile(source, &defs);
        self.log.line_with(|| {
            format!(
                "module[{i}]: specializing [{}] in background (key {})",
                defs.command_line(),
                ticket.key()
            )
        });
        let Resource::Module {
            pending, degraded, ..
        } = &mut self.resources[i]
        else {
            unreachable!()
        };
        *pending = Some(Pending {
            ticket,
            fallback,
            started: Instant::now(),
            key: spec_key,
        });
        *degraded = false;
        self.record_tier_transition(i, Tier::Promoting);
        Ok(())
    }

    /// Apply every resolved promotion ticket (non-blocking): hot-swap
    /// the module's binary on success, or record a degradation and mark
    /// the module [`Tier::Failed`] — the next refresh retries. Returns
    /// the number of modules promoted by this call. Launches pin their
    /// binary `Arc` before executing, so a swap never affects an
    /// in-flight launch — only the next one.
    pub fn poll_promotions(&mut self) -> usize {
        let mut promoted = 0;
        for i in 0..self.resources.len() {
            let Resource::Module { pending, .. } = &mut self.resources[i] else {
                continue;
            };
            let Some(p) = pending else { continue };
            let Some(result) = p.ticket.try_result() else {
                continue;
            };
            let p = pending.take().unwrap();
            match result {
                Ok(bin) => {
                    let Resource::Module {
                        binary, degraded, ..
                    } = &mut self.resources[i]
                    else {
                        unreachable!()
                    };
                    *binary = Some(bin);
                    *degraded = false;
                    self.stamp_bound_key(i);
                    self.record_tier_transition(i, Tier::Specialized);
                    self.metrics.promotions.inc();
                    self.metrics
                        .promotion_latency_us
                        .record_duration_us(p.started.elapsed());
                    // Span covering spawn → hot-swap: the window the
                    // module served its interim tier.
                    ks_trace::complete_span("tier_swap", p.started);
                    self.log.line_with(|| {
                        format!(
                            "module[{i}]: promoted to specialized binary after {:?}",
                            p.started.elapsed()
                        )
                    });
                    promoted += 1;
                }
                Err(e) => {
                    let Resource::Module { degraded, .. } = &mut self.resources[i] else {
                        unreachable!()
                    };
                    *degraded = true;
                    self.record_tier_transition(i, Tier::Failed);
                    self.metrics.promotions_failed.inc();
                    match p.fallback {
                        FallbackKind::Generic => self.metrics.fallback_generic.inc(),
                        FallbackKind::LastKnownGood => self.metrics.fallback_last_good.inc(),
                    }
                    self.degradations.push(Degradation {
                        module: i,
                        fallback: p.fallback,
                        error: e.to_string(),
                        key: p.key.fingerprint.clone(),
                        defines: p.key.defines.clone(),
                    });
                    self.log.line_with(|| {
                        format!(
                            "module[{i}]: promotion failed ({e}); serving {:?} fallback \
                             (failed variant {} [{}])",
                            p.fallback, p.key.fingerprint, p.key.defines
                        )
                    });
                }
            }
        }
        promoted
    }

    /// Block until every in-flight promotion resolves, then apply them
    /// all. Returns the number of modules promoted.
    pub fn wait_promotions(&mut self) -> usize {
        let tickets: Vec<CompileTicket> = self
            .resources
            .iter()
            .filter_map(|r| match r {
                Resource::Module {
                    pending: Some(p), ..
                } => Some(p.ticket.clone()),
                _ => None,
            })
            .collect();
        for t in tickets {
            let _ = t.wait();
        }
        self.poll_promotions()
    }

    /// Graceful degradation when a specialized compile fails: bind the
    /// generic (no-defines) kernel binary — functionally correct, since
    /// our sources default every specialization macro to its runtime
    /// argument — or, failing that, keep the last-known-good binary.
    /// Only when neither fallback exists does the refresh fail.
    fn degrade_module(
        &mut self,
        idx: usize,
        source: &str,
        defs: &Defines,
        last_good: Option<Arc<Binary>>,
        err: ks_core::CompileError,
    ) -> Result<(Arc<Binary>, Option<FallbackKind>), PfError> {
        let _span = ks_trace::span_fields("refresh-fallback", || {
            vec![
                ("module".to_string(), idx.to_string()),
                ("error".to_string(), err.message.clone()),
            ]
        });
        // Name the exact variant that failed in every degradation
        // record: its canonical cache key and `-D` configuration.
        let failed = self.variant_key(source, defs);
        // The generic compile is only a distinct variant when the failed
        // one was actually specialized.
        if !defs.is_empty() {
            if let Ok(generic) = self.compiler.compile(source, Defines::new()) {
                self.metrics.fallback_generic.inc();
                self.log.line_with(|| {
                    format!(
                        "module[{idx}]: specialized compile failed ({err}); \
                         falling back to generic kernel (failed variant {} [{}])",
                        failed.fingerprint, failed.defines
                    )
                });
                self.degradations.push(Degradation {
                    module: idx,
                    fallback: FallbackKind::Generic,
                    error: err.to_string(),
                    key: failed.fingerprint,
                    defines: failed.defines,
                });
                return Ok((generic, Some(FallbackKind::Generic)));
            }
        }
        if let Some(prev) = last_good {
            self.metrics.fallback_last_good.inc();
            self.log.line_with(|| {
                format!("module[{idx}]: compile failed ({err}); keeping last-known-good binary")
            });
            self.degradations.push(Degradation {
                module: idx,
                fallback: FallbackKind::LastKnownGood,
                error: err.to_string(),
                key: failed.fingerprint,
                defines: failed.defines,
            });
            return Ok((prev, Some(FallbackKind::LastKnownGood)));
        }
        Err(PfError::Compile(err))
    }

    /// Render a parameter as a macro value string.
    fn render_param(&self, id: ParamId) -> Result<String, PfError> {
        match &self.params[id.0].value {
            ParamValue::Int(v) => Ok(v.to_string()),
            ParamValue::Bool(b) => Ok(if *b { "1" } else { "0" }.to_string()),
            ParamValue::Float(v) => Ok(format!("{v}f")),
            ParamValue::Ptr(v) => Ok(format!("{v:#x}")),
            ParamValue::Step(s) => Ok(s.current.to_string()),
            ParamValue::Triplet(v) => Ok(v[0].to_string()), // .x by convention
            ParamValue::Pair(v) => Ok(v[0].to_string()),
            v => Err(PfError::Bind(format!(
                "parameter {} ({v:?}) cannot be rendered as a macro value",
                self.params[id.0].name
            ))),
        }
    }

    // ---- execution phase ----

    /// Run `iterations` pipeline iterations.
    pub fn run(&mut self, iterations: u64) -> Result<(), PfError> {
        if !self.refreshed {
            return Err(PfError::Spec("refresh() must run before execution".into()));
        }
        for _ in 0..iterations {
            let iter = self.iteration;
            let _span = ks_trace::span_fields("pipeline-iteration", || {
                vec![("iter".to_string(), iter.to_string())]
            });
            let iter_started = Instant::now();
            self.log
                .line_with(|| format!("--- pipeline iteration {iter} ---"));
            // Tiered mode: promotions land between iterations, never
            // mid-action — each launch runs its pinned binary to
            // completion.
            if self.refresh_mode == RefreshMode::Tiered {
                self.poll_promotions();
            }
            for a in 0..self.actions.len() {
                self.run_action(a, iter)?;
            }
            self.metrics.iterations.inc();
            self.metrics
                .iteration_us
                .record_duration_us(iter_started.elapsed());
            // Self-updating parameters advance at the end of the iteration.
            for p in &mut self.params {
                match &mut p.value {
                    ParamValue::Step(s) => s.advance(),
                    ParamValue::Subset {
                        offset,
                        stride,
                        reset_period,
                        ..
                    } => {
                        if *reset_period > 0 && (iter + 1).is_multiple_of(*reset_period) {
                            // Reset to the start of the window cycle.
                            *offset = offset
                                .wrapping_sub((*stride as u64).wrapping_mul(*reset_period - 1));
                        } else {
                            *offset = offset.wrapping_add(*stride as u64);
                        }
                    }
                    _ => {}
                }
            }
            self.iteration += 1;
        }
        Ok(())
    }

    /// §4.4.2 validation: compare a host memory resource against reference
    /// values with an absolute/relative tolerance, reporting mismatches.
    pub fn validate_f32(
        &self,
        mem: ResId,
        reference: &[f32],
        abs_tol: f32,
        rel_tol: f32,
    ) -> ValidationReport {
        let got = self.host_f32(mem);
        let n = got.len().min(reference.len());
        let mut worst_abs = 0.0f32;
        let mut worst_rel = 0.0f32;
        let mut mismatches = 0usize;
        let mut first_mismatch = None;
        for i in 0..n {
            let (g, r) = (got[i], reference[i]);
            let abs = (g - r).abs();
            let rel = abs / r.abs().max(1e-30);
            worst_abs = worst_abs.max(abs);
            worst_rel = worst_rel.max(rel);
            if abs > abs_tol && rel > rel_tol {
                mismatches += 1;
                if first_mismatch.is_none() {
                    first_mismatch = Some(i);
                }
            }
        }
        let report = ValidationReport {
            compared: n,
            mismatches,
            first_mismatch,
            worst_abs,
            worst_rel,
            length_mismatch: got.len() != reference.len(),
        };
        self.log.line_with(|| {
            format!(
                "  [validate] {} elements, {} mismatches (worst abs {:.3e}, rel {:.3e})",
                report.compared, report.mismatches, report.worst_abs, report.worst_rel
            )
        });
        report
    }

    /// Total simulated GPU time accumulated so far (kernels + transfers).
    pub fn total_sim_ms(&self) -> f64 {
        self.timings.iter().map(|t| t.sim_ms).sum()
    }

    pub fn timings(&self) -> &[OpTiming] {
        &self.timings
    }

    pub fn clear_timings(&mut self) {
        self.timings.clear();
        self.reports.clear();
    }

    fn run_action(&mut self, idx: usize, iter: u64) -> Result<(), PfError> {
        // Determine schedule without holding a borrow on the action.
        let (fires, label) = match &self.actions[idx] {
            Action::Copy {
                schedule, label, ..
            }
            | Action::Exec {
                schedule, label, ..
            }
            | Action::User {
                schedule, label, ..
            }
            | Action::FileOut {
                schedule, label, ..
            }
            | Action::FileIn {
                schedule, label, ..
            } => (self.schedule_fires(*schedule, iter)?, label.clone()),
        };
        if !fires {
            return Ok(());
        }
        match &mut self.actions[idx] {
            Action::User { f, .. } => {
                let mut func = std::mem::replace(f, Box::new(|_, _| Ok(())));
                let r = func(&mut self.state, iter);
                // Restore the original closure.
                if let Action::User { f, .. } = &mut self.actions[idx] {
                    *f = func;
                }
                r?;
                self.log.line_with(|| format!("  [user] {label}"));
                Ok(())
            }
            _ => self.run_simple_action(idx, iter, &label),
        }
    }

    fn run_simple_action(&mut self, idx: usize, iter: u64, label: &str) -> Result<(), PfError> {
        match &self.actions[idx] {
            Action::Copy { src, dst, .. } => {
                let (src, dst) = (*src, *dst);
                let ms = self.do_copy(src, dst)?;
                self.log
                    .line_with(|| format!("  [copy] {label}: {ms:.6} ms"));
                self.timings.push(OpTiming {
                    iteration: iter,
                    label: label.to_string(),
                    sim_ms: ms,
                });
                Ok(())
            }
            Action::Exec {
                kernel,
                grid,
                block,
                dynamic_shared,
                args,
                ..
            } => {
                // Re-bind every texture resource (their backing memory —
                // e.g. a moving subset — may have advanced).
                let bindings: Vec<(String, u64)> = self
                    .resources
                    .iter()
                    .filter_map(|r| match r {
                        Resource::Texture { name, mem, .. } => {
                            Some(self.try_device_addr(*mem).map(|a| (name.clone(), a)))
                        }
                        _ => None,
                    })
                    .collect::<Result<_, _>>()?;
                for (name, addr) in bindings {
                    self.state.bind_texture(&name, addr);
                }
                let kernel = *kernel;
                let exec_args = args.clone();
                let grid = self.triplet_value(*grid)?;
                let block = self.triplet_value(*block)?;
                let dyn_sh = match dynamic_shared {
                    Some(p) => self.try_int_value(*p)? as u32,
                    None => 0,
                };
                let kargs: Vec<KArg> = exec_args
                    .iter()
                    .map(|a| self.resolve_arg(a))
                    .collect::<Result<_, _>>()?;
                let Resource::Kernel { module, name } = &self.resources[kernel.0] else {
                    return Err(PfError::Launch(format!("{label}: not a kernel resource")));
                };
                let module_idx = module.0;
                let name = name.clone();
                let Resource::Module {
                    source,
                    binary: Some(bin),
                    bound,
                    ..
                } = &self.resources[module_idx]
                else {
                    return Err(PfError::Launch(format!("{label}: module not compiled")));
                };
                let source = source.clone();
                let bin = bin.clone();
                // Identify the launch to the fault plan (and to integrity
                // records) by the served variant's canonical cache key.
                let bound = bound.clone().unwrap_or(BoundKey {
                    fingerprint: String::new(),
                    lo64: 0,
                    defines: String::new(),
                });
                let dims = LaunchDims {
                    grid: (grid[0], grid[1], grid[2]),
                    block: (block[0], block[1], block[2]),
                    dynamic_shared: dyn_sh,
                };
                // Integrity checking compares output bytes, so it needs
                // every block functionally executed.
                let integrity = self.integrity.filter(|_| self.launch_options.functional);
                let pre = match integrity {
                    Some(_) => {
                        let bufs = self.mem_arg_buffers(&exec_args)?;
                        let snap = self.read_bufs(&bufs)?;
                        Some((bufs, snap))
                    }
                    None => None,
                };
                let mut report = self.launch_with_retry(
                    &bin,
                    &name,
                    dims,
                    &kargs,
                    bound.lo64,
                    &bound.defines,
                    label,
                )?;
                if let (Some(cfg), Some((bufs, pre))) = (integrity, pre) {
                    report = self.check_integrity(
                        cfg, iter, label, module_idx, &name, &source, &bin, &bound, dims, &kargs,
                        &bufs, &pre, report,
                    )?;
                }
                self.log.line_with(|| {
                    format!(
                        "  [exec] {label}: {} grid=({},{},{}) block=({},{},{}) {:.6} ms, {} regs, occ {:.2}",
                        name,
                        grid[0],
                        grid[1],
                        grid[2],
                        block[0],
                        block[1],
                        block[2],
                        report.time_ms,
                        report.regs_per_thread,
                        report.occupancy.occupancy,
                    )
                });
                self.timings.push(OpTiming {
                    iteration: iter,
                    label: label.to_string(),
                    sim_ms: report.time_ms,
                });
                self.reports.push(report);
                Ok(())
            }
            Action::FileOut { mem, path, .. } => {
                let (mem, path) = (*mem, path.clone());
                let bytes = match &self.resources[mem.0] {
                    Resource::HostMem { data, .. } => data.clone(),
                    Resource::GlobalMem { addr, bytes, .. } => self
                        .state
                        .global
                        .read_bytes(
                            addr.ok_or_else(|| PfError::Spec("unallocated".into()))?,
                            *bytes,
                        )?
                        .to_vec(),
                    _ => {
                        return Err(PfError::Spec(
                            "file output needs host or global memory".into(),
                        ))
                    }
                };
                std::fs::write(&path, bytes).map_err(PfError::Io)?;
                self.log
                    .line_with(|| format!("  [file] {label}: wrote {}", path.display()));
                Ok(())
            }
            Action::FileIn { mem, path, .. } => {
                let (mem, path) = (*mem, path.clone());
                let bytes = std::fs::read(&path).map_err(PfError::Io)?;
                match &mut self.resources[mem.0] {
                    Resource::HostMem { data, .. } => {
                        let n = bytes.len().min(data.len());
                        data[..n].copy_from_slice(&bytes[..n]);
                    }
                    Resource::GlobalMem {
                        addr, bytes: cap, ..
                    } => {
                        let a = addr.ok_or_else(|| PfError::Spec("unallocated".into()))?;
                        let n = (bytes.len() as u64).min(*cap);
                        let a2 = a;
                        let slice = bytes[..n as usize].to_vec();
                        self.state.global.write_bytes(a2, &slice)?;
                    }
                    _ => {
                        return Err(PfError::Spec(
                            "file input needs host or global memory".into(),
                        ))
                    }
                }
                self.log
                    .line_with(|| format!("  [file] {label}: read {}", path.display()));
                Ok(())
            }
            Action::User { .. } => unreachable!("handled by run_action"),
        }
    }

    fn resolve_arg(&self, a: &Arg) -> Result<KArg, PfError> {
        Ok(match a {
            Arg::Param(p) => match &self.params[p.0].value {
                ParamValue::Int(v) => KArg::I32(*v as i32),
                ParamValue::Bool(b) => KArg::I32(i64::from(*b) as i32),
                ParamValue::Float(v) => KArg::F32(*v as f32),
                ParamValue::Ptr(v) => KArg::Ptr(*v),
                ParamValue::Step(s) => KArg::I32(s.current as i32),
                v => {
                    return Err(PfError::Spec(format!(
                        "parameter {} ({v:?}) cannot be a kernel argument",
                        self.params[p.0].name
                    )))
                }
            },
            Arg::Mem(r) => KArg::Ptr(self.try_device_addr(*r)?),
        })
    }

    /// `(addr, bytes)` of every device-memory argument of an exec — the
    /// buffers integrity checking snapshots, checksums, and compares.
    /// Kernels can only write through the pointers they receive, so the
    /// `Arg::Mem` set covers the execution's entire write set.
    fn mem_arg_buffers(&self, args: &[Arg]) -> Result<Vec<(u64, u64)>, PfError> {
        let mut bufs = Vec::new();
        for a in args {
            let Arg::Mem(r) = a else { continue };
            bufs.push((self.try_device_addr(*r)?, self.mem_bytes(*r)?));
        }
        Ok(bufs)
    }

    /// Byte length of a device-memory resource (full buffer, or the
    /// current window of a subset).
    fn mem_bytes(&self, id: ResId) -> Result<u64, PfError> {
        match &self.resources[id.0] {
            Resource::GlobalMem { bytes, .. } => Ok(*bytes),
            Resource::Subset { of, subset } => {
                let elem = match &self.resources[of.0] {
                    Resource::GlobalMem { extent, .. } => self.extent_elem(*extent)?,
                    _ => {
                        return Err(PfError::Bind(
                            "subset of non-global memory has no device buffer".to_string(),
                        ))
                    }
                };
                match &self.params[subset.0].value {
                    ParamValue::Subset { len, .. } => Ok(len * elem as u64),
                    _ => Err(PfError::Bind(
                        "subset resource bound to non-subset parameter".to_string(),
                    )),
                }
            }
            _ => Err(PfError::Bind("argument has no device buffer".to_string())),
        }
    }

    fn read_bufs(&self, bufs: &[(u64, u64)]) -> Result<Vec<Vec<u8>>, PfError> {
        bufs.iter()
            .map(|&(a, n)| Ok(self.state.global.read_bytes(a, n)?.to_vec()))
            .collect()
    }

    fn write_bufs(&mut self, bufs: &[(u64, u64)], data: &[Vec<u8>]) -> Result<(), PfError> {
        for (&(a, _), d) in bufs.iter().zip(data) {
            self.state.global.write_bytes(a, d)?;
        }
        Ok(())
    }

    /// One kernel launch with the transient-fault retry loop, identified
    /// to an active fault plan by the served variant's cache key.
    /// Transient device faults (injected watchdog timeouts, OOM, ECC)
    /// fire before any device state changes, so a retry is safe; genuine
    /// simulation traps are deterministic and fail fast. Does not touch
    /// `reports`/`timings` — the caller decides which launch represents
    /// the action.
    #[allow(clippy::too_many_arguments)]
    fn launch_with_retry(
        &mut self,
        bin: &Arc<Binary>,
        kernel: &str,
        dims: LaunchDims,
        kargs: &[KArg],
        key: u64,
        defines: &str,
        label: &str,
    ) -> Result<LaunchReport, PfError> {
        let mut attempt = 0u32;
        loop {
            match launch_keyed(
                &mut self.state,
                &bin.module,
                kernel,
                dims,
                kargs,
                self.launch_options,
                key,
                defines,
            ) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_transient() && attempt < self.launch_retries => {
                    attempt += 1;
                    self.metrics.launch_retries.inc();
                    self.log.line_with(|| {
                        format!(
                            "  [retry] {label}: transient device fault ({e}); \
                             attempt {attempt}"
                        )
                    });
                }
                Err(e) => return Err(PfError::Sim(e)),
            }
        }
    }

    /// Post-launch output-integrity check for one `Exec` firing: observe
    /// the output checksum, witness with the generic binary when due (or
    /// when a pinned golden checksum mismatches), adjudicate any
    /// divergence by N-of-M re-execution voting, quarantine a corrupt
    /// variant, and re-execute so the device holds verified bytes when
    /// this returns. Returns the launch report that ultimately produced
    /// the surviving output.
    #[allow(clippy::too_many_arguments)]
    fn check_integrity(
        &mut self,
        cfg: IntegrityConfig,
        iter: u64,
        label: &str,
        module_idx: usize,
        kernel: &str,
        source: &str,
        bin: &Arc<Binary>,
        bound: &BoundKey,
        dims: LaunchDims,
        kargs: &[KArg],
        bufs: &[(u64, u64)],
        pre: &[Vec<u8>],
        report: LaunchReport,
    ) -> Result<LaunchReport, PfError> {
        self.metrics.integrity_checks.inc();
        self.integrity_seq += 1;
        let post = self.read_bufs(bufs)?;
        let checksum = checksum_hex(&post);
        let golden_mismatch = self
            .golden
            .get(label)
            .is_some_and(|pinned| *pinned != checksum);
        self.observed_checksums
            .insert(label.to_string(), checksum.clone());
        let witness_due =
            cfg.witness_period > 0 && self.integrity_seq.is_multiple_of(cfg.witness_period);
        if !witness_due && !golden_mismatch {
            return Ok(report);
        }
        // Witness: re-run the generic (define-free) binary — compiled
        // from the same source, reading its runtime arguments — on the
        // restored inputs. Compile before touching device state so an
        // unavailable witness leaves the original output in place.
        let generic = match self.compiler.compile(source, Defines::new()) {
            Ok(g) => g,
            Err(e) => {
                self.log.line_with(|| {
                    format!("  [integrity] {label}: witness unavailable (generic compile: {e})")
                });
                return Ok(report);
            }
        };
        let gkey = self.variant_key(source, &generic.defines);
        self.metrics.integrity_witness.inc();
        self.write_bufs(bufs, pre)?;
        self.launch_with_retry(
            &generic,
            kernel,
            dims,
            kargs,
            gkey.lo64,
            &gkey.defines,
            label,
        )?;
        let witness = self.read_bufs(bufs)?;
        if witness == post {
            if golden_mismatch {
                // The computation is self-consistent across two distinct
                // binaries; the pinned expectation is stale for this
                // input. Surface it, but do not convict anything.
                self.log.line_with(|| {
                    format!(
                        "  [integrity] {label}: pinned checksum mismatch but witness \
                         agrees (observed {checksum}); pin is stale for this input"
                    )
                });
            }
            // Device state already equals the verified output.
            return Ok(report);
        }
        // Divergence: either the original output was corrupted in flight
        // or the specialized binary computes wrong bytes. Vote: restore
        // the inputs and re-run the *same* specialized binary; runs that
        // agree with the witness exonerate the binary.
        self.metrics.integrity_violations.inc();
        let kind = if golden_mismatch {
            ViolationKind::GoldenMismatch
        } else {
            ViolationKind::WitnessMismatch
        };
        let mut votes_agree = 0u32;
        for _ in 0..cfg.vote_m {
            self.write_bufs(bufs, pre)?;
            self.launch_with_retry(bin, kernel, dims, kargs, bound.lo64, &bound.defines, label)?;
            self.metrics.integrity_reexecs.inc();
            if self.read_bufs(bufs)? == witness {
                votes_agree += 1;
            }
        }
        let verdict = if votes_agree >= cfg.vote_n {
            Verdict::TransientFlip
        } else {
            Verdict::CorruptBinary
        };
        match verdict {
            Verdict::TransientFlip => {
                self.metrics.integrity_transient.inc();
            }
            Verdict::CorruptBinary => {
                // Quarantine the variant through the degradation ladder:
                // the generic binary takes over, the module is marked
                // degraded (the next refresh retries the specialization),
                // and the degradation record names the convicted variant.
                self.metrics.integrity_corrupt.inc();
                self.metrics.fallback_generic.inc();
                let Resource::Module {
                    binary, degraded, ..
                } = &mut self.resources[module_idx]
                else {
                    unreachable!()
                };
                *binary = Some(generic.clone());
                *degraded = true;
                self.stamp_bound_key(module_idx);
                self.record_tier_transition(module_idx, Tier::Generic);
                self.degradations.push(Degradation {
                    module: module_idx,
                    fallback: FallbackKind::Generic,
                    error: format!(
                        "integrity violation: specialized output diverges from generic \
                         witness ({votes_agree}/{} votes agreed with witness)",
                        cfg.vote_m
                    ),
                    key: bound.fingerprint.clone(),
                    defines: bound.defines.clone(),
                });
            }
        }
        // Recovery: restore the inputs once more and re-execute with the
        // binary the verdict left in service (the exonerated specialized
        // variant, or the generic that replaced a convicted one), so
        // downstream actions only ever see verified bytes.
        self.write_bufs(bufs, pre)?;
        let (rbin, rkey) = match verdict {
            Verdict::TransientFlip => (bin.clone(), bound.clone()),
            Verdict::CorruptBinary => (generic, gkey),
        };
        let final_report =
            self.launch_with_retry(&rbin, kernel, dims, kargs, rkey.lo64, &rkey.defines, label)?;
        self.metrics.integrity_reexecs.inc();
        let final_out = self.read_bufs(bufs)?;
        let recovered = final_out == witness;
        if recovered {
            self.metrics.integrity_recovered.inc();
        }
        self.observed_checksums
            .insert(label.to_string(), checksum_hex(&final_out));
        let violation = IntegrityViolation {
            iteration: iter,
            label: label.to_string(),
            module: module_idx,
            kernel: kernel.to_string(),
            key: bound.fingerprint.clone(),
            defines: bound.defines.clone(),
            kind,
            verdict,
            votes_agree,
            votes_total: cfg.vote_m,
            recovered,
        };
        self.log.line_with(|| {
            format!(
                "  [integrity] {label}: {:?} on variant {} [{}] -> {:?} \
                 ({votes_agree}/{} votes agreed with witness), recovered={recovered}",
                violation.kind, violation.key, violation.defines, violation.verdict, cfg.vote_m
            )
        });
        self.violations.push(violation);
        Ok(final_report)
    }

    /// Copy between two memory references; returns a modeled transfer time
    /// (PCIe-class for host↔device, device bandwidth for device↔device).
    fn do_copy(&mut self, src: ResId, dst: ResId) -> Result<f64, PfError> {
        // Resolve (kind, addr-or-host) for both ends.
        enum End {
            Host(ResId),
            Dev(u64),
            Const(ResId, String),
        }
        let classify = |p: &Pipeline, r: ResId| -> Result<(End, u64), PfError> {
            match &p.resources[r.0] {
                Resource::HostMem { data, .. } => Ok((End::Host(r), data.len() as u64)),
                Resource::GlobalMem { addr, bytes, .. } => Ok((
                    End::Dev(addr.ok_or_else(|| PfError::Spec("unallocated global".into()))?),
                    *bytes,
                )),
                Resource::Subset { of, subset } => {
                    let ParamValue::Subset { len, .. } = &p.params[subset.0].value else {
                        return Err(PfError::Spec("bad subset parameter".into()));
                    };
                    match &p.resources[of.0] {
                        Resource::GlobalMem { extent, .. } => {
                            let elem = p.extent_elem(*extent)? as u64;
                            Ok((End::Dev(p.try_device_addr(r)?), len * elem))
                        }
                        Resource::HostMem { .. } => Err(PfError::Spec(
                            "host subsets not supported; copy the full buffer".into(),
                        )),
                        _ => Err(PfError::Spec("subset of unsupported memory".into())),
                    }
                }
                Resource::ConstMem { module, name } => Ok((End::Const(*module, name.clone()), 0)),
                _ => Err(PfError::Spec("not a memory resource".into())),
            }
        };
        let (se, sb) = classify(self, src)?;
        let (de, db) = classify(self, dst)?;
        let n = match (&se, &de) {
            (End::Const(..), _) => 0,
            (_, End::Const(..)) => sb,
            _ => sb.min(db),
        };
        match (se, de) {
            (End::Host(h), End::Dev(a)) => {
                let data = match &self.resources[h.0] {
                    Resource::HostMem { data, .. } => data[..n as usize].to_vec(),
                    _ => unreachable!(),
                };
                self.state.global.write_bytes(a, &data)?;
            }
            (End::Dev(a), End::Host(h)) => {
                let data = self.state.global.read_bytes(a, n)?.to_vec();
                match &mut self.resources[h.0] {
                    Resource::HostMem { data: d, .. } => d[..n as usize].copy_from_slice(&data),
                    _ => unreachable!(),
                }
            }
            (End::Dev(a), End::Dev(b)) => {
                let data = self.state.global.read_bytes(a, n)?.to_vec();
                self.state.global.write_bytes(b, &data)?;
            }
            (End::Host(s), End::Host(d)) => {
                let data = self.host_data(s)[..n as usize].to_vec();
                match &mut self.resources[d.0] {
                    Resource::HostMem { data: dd, .. } => dd[..n as usize].copy_from_slice(&data),
                    _ => unreachable!(),
                }
            }
            (End::Host(h), End::Const(m, name)) => {
                let data = match &self.resources[h.0] {
                    Resource::HostMem { data, .. } => data.clone(),
                    _ => unreachable!(),
                };
                let Resource::Module {
                    binary: Some(bin), ..
                } = &self.resources[m.0]
                else {
                    return Err(PfError::Spec("module not compiled".into()));
                };
                let module = bin.module.clone();
                self.state.set_const(&module, &name, &data)?;
            }
            _ => return Err(PfError::Spec("unsupported copy direction".into())),
        }
        // Transfer-time model: host↔device over PCIe-gen2 (~6 GB/s
        // effective) + fixed launch overhead; device↔device at memory BW.
        let gbps = 6.0e9;
        Ok(n as f64 / gbps * 1e3 + 0.005)
    }
}

/// FNV-1a-128 over an execution's device-memory buffers (count- and
/// length-prefixed, via [`ks_core::StableHasher`]), rendered in the
/// same 32-hex form `ks-store` fingerprints use. This is the checksum
/// [`Pipeline::last_checksum`] reports and
/// [`Pipeline::expect_checksum`] pins.
fn checksum_hex(bufs: &[Vec<u8>]) -> String {
    let mut h = ks_core::StableHasher::new();
    h.str("gpu-pf.integrity.v1");
    h.usize(bufs.len());
    for b in bufs {
        h.bytes(b);
    }
    h.finish().to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_sim::DeviceConfig;

    const SCALE_SRC: &str = r#"
        #ifndef FACTOR
        #define FACTOR factor
        #endif
        __global__ void scale(float* in, float* out, int factor, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = in[i] * (float)FACTOR; }
        }
    "#;

    fn pipeline() -> Pipeline {
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        Pipeline::new(c, 32 << 20)
    }

    #[test]
    fn full_pipeline_roundtrip() {
        let mut p = pipeline();
        let n = 256u32;
        let factor = p.int_param("FACTOR", 3);
        let ext = p.extent_param("buf", [n, 1, 1], 4);
        let host_in = p.host_memory(ext);
        let host_out = p.host_memory(ext);
        let dev_in = p.global_memory(ext);
        let dev_out = p.global_memory(ext);
        let m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(factor))]);
        let k = p.kernel(m, "scale");
        let grid = p.triplet_param("grid", [2, 1, 1]);
        let blk = p.triplet_param("block", [128, 1, 1]);
        let every = p.schedule_param("every", 1, 0);
        let nparam = p.int_param("n", n as i64);
        p.copy("h2d", host_in, dev_in, every);
        p.exec(
            "scale",
            k,
            grid,
            blk,
            None,
            vec![
                Arg::Mem(dev_in),
                Arg::Mem(dev_out),
                Arg::Param(factor),
                Arg::Param(nparam),
            ],
            every,
        );
        p.copy("d2h", dev_out, host_out, every);

        let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
        p.refresh().unwrap();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        let out = p.host_f32(host_out);
        for i in 0..n as usize {
            assert_eq!(out[i], vals[i] * 3.0);
        }
        assert!(p.total_sim_ms() > 0.0);
        assert_eq!(p.reports.len(), 1);

        // Change the specialization parameter: refresh recompiles, results
        // change accordingly.
        p.set_int(factor, 5);
        p.refresh().unwrap();
        p.run(1).unwrap();
        let out = p.host_f32(host_out);
        assert_eq!(out[10], 50.0);
    }

    #[test]
    fn refresh_only_recompiles_dirty_modules() {
        let mut p = pipeline();
        let f1 = p.int_param("FACTOR", 2);
        let _m1 = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f1))]);
        p.refresh().unwrap();
        let misses_before = p.compiler.cache_stats().misses;
        // Nothing dirty: refresh again, no compile.
        p.refresh().unwrap();
        assert_eq!(p.compiler.cache_stats().misses, misses_before);
        // Dirty param: recompiles (one miss).
        p.set_int(f1, 7);
        p.refresh().unwrap();
        assert_eq!(p.compiler.cache_stats().misses, misses_before + 1);
        // Back to the old value: cache hit, not a recompile.
        p.set_int(f1, 2);
        let hits_before = p.compiler.cache_stats().hits;
        p.refresh().unwrap();
        assert_eq!(p.compiler.cache_stats().misses, misses_before + 1);
        assert_eq!(p.compiler.cache_stats().hits, hits_before + 1);
    }

    #[test]
    fn schedules_control_firing() {
        let mut p = pipeline();
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c2 = counter.clone();
        let every_third = p.schedule_param("third", 3, 1);
        p.user_fn(
            "count",
            move |_, _| {
                c2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(())
            },
            every_third,
        );
        p.refresh().unwrap();
        p.run(10).unwrap();
        // Fires at iterations 1, 4, 7 → 3 times... and 10 iterations cover
        // iters 0..9, so 1,4,7 = 3 firings.
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn run_before_refresh_is_an_error() {
        let mut p = pipeline();
        assert!(matches!(p.run(1), Err(PfError::Spec(_))));
    }

    #[test]
    fn step_param_advances_each_iteration() {
        let mut p = pipeline();
        let s = p.step_param("frame", 0, 2, 100);
        let every = p.schedule_param("e", 1, 0);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        // Capture the step value via a user function would need param
        // access; instead check the value between runs.
        p.user_fn("noop", |_, _| Ok(()), every);
        p.refresh().unwrap();
        for _ in 0..3 {
            seen2.lock().push(p.int_value(s));
            p.run(1).unwrap();
        }
        assert_eq!(*seen.lock(), vec![0, 2, 4]);
    }

    #[test]
    fn subset_window_moves_over_frames() {
        // Stream 3 "frames" stored contiguously on the device through a
        // moving subset window.
        let mut p = pipeline();
        let frame = 64u32;
        let all_ext = p.extent_param("all", [frame * 3, 1, 1], 4);
        let one_ext = p.extent_param("one", [frame, 1, 1], 4);
        let dev_all = p.global_memory(all_ext);
        let host_all = p.host_memory(all_ext);
        let host_one = p.host_memory(one_ext);
        let win = p.subset_param("w", 0, frame as u64, frame as i64, 0);
        let dev_win = p.subset(dev_all, win);
        let once = p.schedule_param("once", 1000, 0);
        let every = p.schedule_param("every", 1, 0);
        p.copy("load", host_all, dev_all, once);
        p.copy("frame", dev_win, host_one, every);
        p.refresh().unwrap();
        let data: Vec<f32> = (0..frame * 3).map(|i| i as f32).collect();
        p.set_host_f32(host_all, &data);
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_one)[0], 0.0);
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_one)[0], frame as f32);
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_one)[0], (frame * 2) as f32);
    }

    /// Table 4.2's texture resource: a kernel reads its input through a
    /// texture reference bound to a moving subset, streaming two frames.
    #[test]
    fn texture_resource_streams_through_subset() {
        const SRC: &str = r#"
            texture<float> texIn;
            __global__ void copy_tex(float* out, int n) {
                int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
                if (i < n) { out[i] = tex1Dfetch(texIn, i) * 2.0f; }
            }
        "#;
        let mut p = pipeline();
        let frame = 64u32;
        let all_ext = p.extent_param("all", [frame * 2, 1, 1], 4);
        let one_ext = p.extent_param("one", [frame, 1, 1], 4);
        let host_all = p.host_memory(all_ext);
        let dev_all = p.global_memory(all_ext);
        let dev_out = p.global_memory(one_ext);
        let host_out = p.host_memory(one_ext);
        let win = p.subset_param("w", 0, frame as u64, frame as i64, 0);
        let dev_win = p.subset(dev_all, win);
        let m = p.module(SRC, vec![]);
        let k = p.kernel(m, "copy_tex");
        let _tex = p.texture(m, "texIn", dev_win);
        let once = p.schedule_param("once", 1 << 30, 0);
        let every = p.schedule_param("every", 1, 0);
        let grid = p.triplet_param("g", [1, 1, 1]);
        let blk = p.triplet_param("b", [64, 1, 1]);
        let n = p.int_param("n", frame as i64);
        p.copy("load", host_all, dev_all, once);
        p.exec(
            "copy_tex",
            k,
            grid,
            blk,
            None,
            vec![Arg::Mem(dev_out), Arg::Param(n)],
            every,
        );
        p.copy("out", dev_out, host_out, every);
        p.refresh().unwrap();
        let data: Vec<f32> = (0..frame * 2).map(|i| i as f32).collect();
        p.set_host_f32(host_all, &data);
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[0], 0.0);
        assert_eq!(p.host_f32(host_out)[5], 10.0);
        // Second iteration: the subset (and therefore the texture binding)
        // advanced to frame 2.
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[0], frame as f32 * 2.0);
    }

    #[test]
    fn constant_memory_copy() {
        let src = r#"
            __constant__ float coef[4];
            __global__ void apply(float* out) {
                out[threadIdx.x] = coef[threadIdx.x & 3u];
            }
        "#;
        let mut p = pipeline();
        let m = p.module(src, vec![]);
        let k = p.kernel(m, "apply");
        let cmem = p.constant_memory(m, "coef");
        let ext4 = p.extent_param("c", [4, 1, 1], 4);
        let ext8 = p.extent_param("o", [8, 1, 1], 4);
        let host_c = p.host_memory(ext4);
        let dev_o = p.global_memory(ext8);
        let host_o = p.host_memory(ext8);
        let grid = p.triplet_param("g", [1, 1, 1]);
        let blk = p.triplet_param("b", [8, 1, 1]);
        let every = p.schedule_param("e", 1, 0);
        p.copy("coef", host_c, cmem, every);
        p.exec("apply", k, grid, blk, None, vec![Arg::Mem(dev_o)], every);
        p.copy("out", dev_o, host_o, every);
        p.refresh().unwrap();
        p.set_host_f32(host_c, &[9.0, 8.0, 7.0, 6.0]);
        p.run(1).unwrap();
        assert_eq!(
            p.host_f32(host_o),
            vec![9.0, 8.0, 7.0, 6.0, 9.0, 8.0, 7.0, 6.0]
        );
    }

    #[test]
    fn file_io_actions_roundtrip() {
        let dir = std::env::temp_dir().join("gpu-pf-fileio");
        let _ = std::fs::create_dir_all(&dir);
        let path_in = dir.join("in.bin");
        let path_out = dir.join("out.bin");
        let vals = [4.0f32, 5.0, 6.0, 7.0];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path_in, &bytes).unwrap();

        let mut p = pipeline();
        let ext = p.extent_param("b", [4, 1, 1], 4);
        let host = p.host_memory(ext);
        let dev = p.global_memory(ext);
        let host2 = p.host_memory(ext);
        let every = p.schedule_param("e", 1, 0);
        p.file_in("load", &path_in, host, every);
        p.copy("h2d", host, dev, every);
        p.copy("d2h", dev, host2, every);
        p.file_out("save", host2, &path_out, every);
        p.refresh().unwrap();
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host2), vals.to_vec());
        assert_eq!(std::fs::read(&path_out).unwrap(), bytes);
    }

    /// §4 footnote 1: statically compiled pointer values. A global
    /// allocation's device address is bound to a macro; the specialized
    /// kernel stores through the absolute address, no pointer argument.
    #[test]
    fn pointer_specialization_through_pipeline() {
        const SRC: &str = r#"
            #ifndef PTR_OUT
            #define PTR_OUT out
            #endif
            __global__ void mark(float* out) {
                float* p = (float*)PTR_OUT;
                p[threadIdx.x] = 42.0f + (float)threadIdx.x;
            }
        "#;
        let mut p = pipeline();
        let ext = p.extent_param("o", [16, 1, 1], 4);
        let dev = p.global_memory(ext);
        let host = p.host_memory(ext);
        // Two-phase: allocate first, then bind the address and build the
        // module in a second refresh (the paper compiles once addresses
        // are known).
        p.refresh().unwrap();
        let addr = p.device_addr(dev);
        let ptr = p.pointer_param("PTR_OUT", addr);
        let m = p.module(SRC, vec![("PTR_OUT", MacroBinding::Param(ptr))]);
        let k = p.kernel(m, "mark");
        let every = p.schedule_param("e", 1, 0);
        let grid = p.triplet_param("g", [1, 1, 1]);
        let blk = p.triplet_param("b", [16, 1, 1]);
        // The pointer argument still exists in the signature but is unused
        // after specialization.
        p.exec("mark", k, grid, blk, None, vec![Arg::Mem(dev)], every);
        p.copy("d2h", dev, host, every);
        p.refresh().unwrap();
        p.run(1).unwrap();
        let out = p.host_f32(host);
        for (t, v) in out.iter().enumerate() {
            assert_eq!(*v, 42.0 + t as f32);
        }
        // The compiled kernel contains the absolute address.
        let bin = p.kernel_binary(k);
        // The thread-index offset is register-computed; the allocation's
        // absolute device address is folded into the store displacement.
        assert!(
            bin.ptx.contains(&format!("+{addr}]")) || bin.ptx.contains(&format!("[{addr}")),
            "absolute store address expected in PTX:\n{}",
            bin.ptx
        );
    }

    #[test]
    fn validation_report_catches_mismatches() {
        let mut p = pipeline();
        let ext = p.extent_param("b", [4, 1, 1], 4);
        let host = p.host_memory(ext);
        p.refresh().unwrap();
        p.set_host_f32(host, &[1.0, 2.0, 3.0, 4.0]);
        let ok = p.validate_f32(host, &[1.0, 2.0, 3.0, 4.0], 1e-6, 1e-6);
        assert!(ok.passed());
        let bad = p.validate_f32(host, &[1.0, 2.5, 3.0, 4.0], 1e-6, 1e-6);
        assert!(!bad.passed());
        assert_eq!(bad.mismatches, 1);
        assert_eq!(bad.first_mismatch, Some(1));
        assert!((bad.worst_abs - 0.5).abs() < 1e-6);
        // Within tolerance passes.
        let tol = p.validate_f32(host, &[1.0, 2.5, 3.0, 4.0], 0.6, 0.0);
        assert!(tol.passed());
    }

    #[test]
    fn scalar_param_kinds_as_kernel_arguments() {
        const SRC: &str = r#"
            __global__ void mix(float* out, int i, float f, int b) {
                out[threadIdx.x] = (float)i + f + (float)b * 100.0f;
            }
        "#;
        let mut p = pipeline();
        let ext = p.extent_param("o", [8, 1, 1], 4);
        let dev = p.global_memory(ext);
        let host = p.host_memory(ext);
        let m = p.module(SRC, vec![]);
        let k = p.kernel(m, "mix");
        let every = p.schedule_param("e", 1, 0);
        let grid = p.triplet_param("g", [1, 1, 1]);
        let blk = p.triplet_param("b", [8, 1, 1]);
        let ai = p.int_param("i", 7);
        let af = p.float_param("f", 0.25);
        let ab = p.bool_param("flag", true);
        p.exec(
            "mix",
            k,
            grid,
            blk,
            None,
            vec![
                Arg::Mem(dev),
                Arg::Param(ai),
                Arg::Param(af),
                Arg::Param(ab),
            ],
            every,
        );
        p.copy("d2h", dev, host, every);
        p.refresh().unwrap();
        p.run(1).unwrap();
        assert!(p.host_f32(host).iter().all(|v| (*v - 107.25).abs() < 1e-5));
    }

    #[test]
    fn extent_change_reallocates_on_refresh() {
        let mut p = pipeline();
        let ext = p.extent_param("buf", [16, 1, 1], 4);
        let dev = p.global_memory(ext);
        p.refresh().unwrap();
        let a1 = p.device_addr(dev);
        // Growing the extent must produce a fresh (larger) allocation.
        p.set_extent(ext, [4096, 1, 1], 4);
        p.refresh().unwrap();
        let a2 = p.device_addr(dev);
        assert_ne!(a1, a2, "reallocation expected");
    }

    #[test]
    fn logger_produces_appendix_g_style_output() {
        let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
        struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
        impl std::io::Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut p = pipeline();
        p.set_logger(Box::new(W(buf.clone())));
        let f = p.int_param("FACTOR", 2);
        let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
        p.refresh().unwrap();
        p.run(1).unwrap();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert!(text.contains("refresh"), "{text}");
        assert!(text.contains("-D FACTOR=2"), "{text}");
        assert!(text.contains("pipeline iteration 0"), "{text}");
    }

    #[test]
    fn refresh_logs_analysis_diagnostics() {
        let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
        struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
        impl std::io::Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Column-major access: every warp load touches 32 segments, which
        // the analyzer flags as KSA005 (warn — the refresh still succeeds).
        let src = r#"
            __global__ void colmajor(float* a, float* out) {
                int t = (int)threadIdx.x;
                out[t] = a[t * 32];
            }
        "#;
        let cfg = ks_core::AnalysisConfig {
            block_dim: Some((64, 1, 1)),
            ..Default::default()
        };
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_analysis(cfg));
        let mut p = Pipeline::new(c, 32 << 20);
        p.set_logger(Box::new(W(buf.clone())));
        let _m = p.module(src, vec![]);
        p.refresh().unwrap();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert!(
            text.contains("KSA005"),
            "diagnostic missing from log: {text}"
        );
    }

    #[test]
    fn subscriber_sink_counts_lines_and_disabled_makes_no_calls() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counting(AtomicUsize);
        impl ks_trace::Subscriber for Counting {
            fn line(&self, _: &str) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let sink = Arc::new(Counting::default());
        let mut p = pipeline();
        p.set_subscriber(sink.clone());
        let f = p.int_param("FACTOR", 2);
        let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
        p.refresh().unwrap();
        p.run(2).unwrap();
        let calls = sink.0.load(Ordering::SeqCst);
        assert!(
            calls >= 4,
            "expected refresh + iteration lines, got {calls}"
        );

        // A freshly-constructed pipeline's logger is disabled: running it
        // must not touch any sink (and `line_with` closures never run —
        // see log::tests::disabled_logger_never_runs_format_closures).
        let mut q = pipeline();
        assert!(!q.log.enabled());
        let f = q.int_param("FACTOR", 3);
        let _m = q.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
        q.refresh().unwrap();
        q.run(2).unwrap();
        assert_eq!(
            sink.0.load(Ordering::SeqCst),
            calls,
            "disabled pipeline must make zero sink calls"
        );
    }

    #[test]
    fn pipeline_publishes_iteration_and_refresh_counters() {
        let reg = ks_trace::registry();
        let before_it = reg.counter_value(ks_trace::names::PF_ITERATIONS);
        let before_rf = reg.counter_value(ks_trace::names::PF_REFRESHES);
        let mut p = pipeline();
        let every = p.schedule_param("e", 1, 0);
        p.user_fn("noop", |_, _| Ok(()), every);
        p.refresh().unwrap();
        p.run(3).unwrap();
        assert!(reg.counter_value(ks_trace::names::PF_ITERATIONS) >= before_it + 3);
        assert!(reg.counter_value(ks_trace::names::PF_REFRESHES) > before_rf);
    }

    #[test]
    fn refresh_logs_compile_metrics_and_cache_stats() {
        let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
        struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
        impl std::io::Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut p = pipeline();
        p.set_logger(Box::new(W(buf.clone())));
        let f = p.int_param("FACTOR", 2);
        let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
        p.refresh().unwrap();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        // Per-phase compile metrics ride on the module compile line...
        assert!(text.contains("preproc"), "phase metrics missing: {text}");
        // ...and the refresh trailer summarizes the specialization cache.
        assert!(
            text.contains("refresh complete: cache"),
            "cache stats trailer missing: {text}"
        );
        assert!(text.contains("misses"), "{text}");

        // A second refresh with the same binding is a cache hit, visible
        // in the trailer's hit counter.
        p.set_int(f, 2);
        p.refresh().unwrap();
        let stats = p.compiler().cache_stats();
        assert!(stats.hits >= 1, "expected a re-refresh hit: {stats}");
    }

    #[test]
    fn refresh_trailer_names_the_store_and_warm_restart_skips_compiles() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("gpu-pf-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
        struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
        impl std::io::Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let run = |buf: &Arc<parking_lot::Mutex<Vec<u8>>>| {
            let c = Arc::new(
                Compiler::new(DeviceConfig::tesla_c1060())
                    .with_store(&dir)
                    .unwrap(),
            );
            let mut p = Pipeline::new(c, 32 << 20);
            p.set_logger(Box::new(W(buf.clone())));
            let f = p.int_param("FACTOR", 2);
            let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
            p.refresh().unwrap();
            p.compiler().cache_stats()
        };

        // Cold process: compiles and publishes the record.
        let cold = run(&buf);
        assert_eq!((cold.misses, cold.disk_hits), (1, 0), "{cold}");
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        assert!(
            text.contains(&format!("store {}", dir.display())),
            "store trailer missing: {text}"
        );
        assert!(text.contains("disk-hits"), "{text}");

        // Warm restart: a fresh pipeline + compiler on the same store
        // directory binds the module without compiling.
        let warm = run(&buf);
        assert_eq!((warm.misses, warm.disk_hits), (0, 1), "{warm}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Builds the standard scale pipeline around a caller-supplied
    /// compiler (so fault plans and resilience policies apply).
    fn scale_pipeline(compiler: Arc<Compiler>) -> (Pipeline, ParamId, ResId, ResId) {
        let mut p = Pipeline::new(compiler, 32 << 20);
        let n = 64u32;
        let factor = p.int_param("FACTOR", 3);
        let ext = p.extent_param("buf", [n, 1, 1], 4);
        let host_in = p.host_memory(ext);
        let host_out = p.host_memory(ext);
        let dev_in = p.global_memory(ext);
        let dev_out = p.global_memory(ext);
        let m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(factor))]);
        let k = p.kernel(m, "scale");
        let grid = p.triplet_param("grid", [1, 1, 1]);
        let blk = p.triplet_param("block", [64, 1, 1]);
        let every = p.schedule_param("every", 1, 0);
        let nparam = p.int_param("n", n as i64);
        p.copy("h2d", host_in, dev_in, every);
        p.exec(
            "scale",
            k,
            grid,
            blk,
            None,
            vec![
                Arg::Mem(dev_in),
                Arg::Mem(dev_out),
                Arg::Param(factor),
                Arg::Param(nparam),
            ],
            every,
        );
        p.copy("d2h", dev_out, host_out, every);
        (p, factor, host_in, host_out)
    }

    #[test]
    fn specialized_compile_failure_degrades_to_generic_kernel() {
        // Every specialized (-D FACTOR=...) compile of this module fails
        // persistently; the define-free generic compile is untouched.
        let plan = Arc::new(
            ks_fault::FaultPlan::new(11).rule(
                ks_fault::FaultRule::new(
                    ks_fault::FaultKind::CompileError,
                    ks_fault::Target::Define("FACTOR".into()),
                )
                .persistent(),
            ),
        );
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
        let (mut p, factor, host_in, host_out) = scale_pipeline(c);
        p.refresh().unwrap();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        // The generic kernel reads the runtime argument, so results are
        // still correct — degraded, not wrong.
        let out = p.host_f32(host_out);
        assert_eq!(out[10], 30.0);
        assert_eq!(p.degradations().len(), 1);
        assert_eq!(p.degradations()[0].fallback, FallbackKind::Generic);
        assert!(p.degradations()[0].error.contains("injected fault"));

        // A degraded module re-attempts its specialization on the next
        // refresh even though no parameter changed; the persistent fault
        // degrades it again (recorded as a second degradation).
        p.set_int(factor, 5);
        p.refresh().unwrap();
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[10], 50.0);
        assert_eq!(p.degradations().len(), 2);
    }

    #[test]
    fn last_known_good_binary_retained_when_generic_also_fails() {
        // Both rules fire on their second matching occurrence for the
        // `scale` identity. Call sequence: refresh#1 specialized (occ 1
        // for both rules, clean), refresh#2 specialized (rule 1 occ 2 →
        // fail; rule 2 not consulted), refresh#2 generic fallback
        // (rule 1 occ 3, rule 2 occ 2 → fail) → last-known-good.
        let rule = || {
            ks_fault::FaultRule::new(
                ks_fault::FaultKind::CompileError,
                ks_fault::Target::Kernel("scale".into()),
            )
            .persistent()
            .nth(2)
        };
        let plan = Arc::new(ks_fault::FaultPlan::new(5).rule(rule()).rule(rule()));
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
        let (mut p, factor, host_in, host_out) = scale_pipeline(c);
        p.refresh().unwrap();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[10], 30.0);
        assert!(p.degradations().is_empty());

        // Re-specialize: both compiles fail, the stale FACTOR=3 binary
        // keeps the pipeline running (visibly stale results).
        p.set_int(factor, 5);
        p.refresh().unwrap();
        p.run(1).unwrap();
        assert_eq!(
            p.host_f32(host_out)[10],
            30.0,
            "last-known-good keeps the old specialization"
        );
        assert_eq!(p.degradations().len(), 1);
        assert_eq!(p.degradations()[0].fallback, FallbackKind::LastKnownGood);
    }

    /// Serializes every test that installs the process-wide fault plan
    /// (`ks_fault::install`/`clear`): concurrent installs would clobber
    /// each other mid-launch.
    static GLOBAL_PLAN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn transient_launch_faults_retry_then_exhaust() {
        // The device-fault path is consulted in ks-sim via the
        // process-wide plan, so this test owns the global slot for its
        // duration; rules are pinned to kernel names no other test uses.
        let _guard = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
        const RETRY_SRC: &str = r#"
            __global__ void retryk(float* in, float* out, int factor, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { out[i] = in[i] * (float)factor; }
            }
        "#;
        let plan = Arc::new(
            ks_fault::FaultPlan::new(2)
                .rule(
                    // One transient launch timeout on the first launch.
                    ks_fault::FaultRule::new(
                        ks_fault::FaultKind::LaunchTimeout,
                        ks_fault::Target::Kernel("retryk".into()),
                    )
                    .nth(1),
                )
                .rule(
                    // Every launch of the doomed kernel times out.
                    ks_fault::FaultRule::new(
                        ks_fault::FaultKind::LaunchTimeout,
                        ks_fault::Target::Kernel("doomedk".into()),
                    )
                    .persistent(),
                ),
        );
        ks_fault::install(plan);

        let build = |src: &str, kernel: &str| {
            let mut p = pipeline();
            let ext = p.extent_param("buf", [64, 1, 1], 4);
            let dev_in = p.global_memory(ext);
            let dev_out = p.global_memory(ext);
            let m = p.module(src, vec![]);
            let k = p.kernel(m, kernel);
            let grid = p.triplet_param("grid", [1, 1, 1]);
            let blk = p.triplet_param("block", [64, 1, 1]);
            let every = p.schedule_param("every", 1, 0);
            let f = p.int_param("factor", 2);
            let n = p.int_param("n", 64);
            p.exec(
                kernel,
                k,
                grid,
                blk,
                None,
                vec![
                    Arg::Mem(dev_in),
                    Arg::Mem(dev_out),
                    Arg::Param(f),
                    Arg::Param(n),
                ],
                every,
            );
            p
        };

        // Transient fault: absorbed by the launch retry, run succeeds.
        let mut p = build(RETRY_SRC, "retryk");
        p.refresh().unwrap();
        p.run(1).unwrap();

        // Persistent fault: retries exhaust, the typed SimError surfaces
        // (still an Err, never a panic) and it reads as transient so the
        // caller knows retrying was legitimate.
        let mut p = build(&RETRY_SRC.replace("retryk", "doomedk"), "doomedk");
        p.refresh().unwrap();
        let err = p.run(1).unwrap_err();
        ks_fault::clear();
        match err {
            PfError::Sim(e) => {
                assert!(e.to_string().contains("injected fault: launch-timeout"));
            }
            other => panic!("expected PfError::Sim, got {other:?}"),
        }
    }

    #[test]
    fn degradations_name_the_failed_variant_key() {
        // Same forced compile failure as above, via the per-compiler
        // plan; what's under test is that the degradation record names
        // the exact failed variant: canonical cache key + `-D` line.
        let plan = Arc::new(
            ks_fault::FaultPlan::new(11).rule(
                ks_fault::FaultRule::new(
                    ks_fault::FaultKind::CompileError,
                    ks_fault::Target::Define("FACTOR".into()),
                )
                .persistent(),
            ),
        );
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
        let (mut p, _factor, _hi, _ho) = scale_pipeline(c.clone());
        p.refresh().unwrap();
        assert_eq!(p.degradations().len(), 1);
        let d = &p.degradations()[0];
        let expected = c.cache_key(SCALE_SRC, &Defines::new().def("FACTOR", "3"));
        assert_eq!(d.key, expected.to_hex());
        assert_eq!(d.defines, "-D FACTOR=3");
        // The served binary's stamped identity is the *generic* variant
        // — what is actually bound, not what was requested.
        let bound = p.module_bound_key(ResId(4)).unwrap();
        assert_eq!(
            bound.fingerprint,
            c.cache_key(SCALE_SRC, &Defines::new()).to_hex()
        );
        assert_eq!(bound.defines, "");
    }

    #[test]
    fn integrity_witness_catches_transient_flip_and_recovers() {
        let _guard = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let (mut p, factor, host_in, host_out) = scale_pipeline(c);
        // A label no other test uses keeps this pipeline's registry
        // cells private, so their deltas must equal its stats exactly.
        p.set_label("witness-flip");
        let cell_names: Vec<String> = [
            ks_trace::names::PF_INTEGRITY_CHECKS,
            ks_trace::names::PF_INTEGRITY_WITNESS,
            ks_trace::names::PF_INTEGRITY_VIOLATIONS,
            ks_trace::names::PF_INTEGRITY_TRANSIENT,
            ks_trace::names::PF_INTEGRITY_CORRUPT,
            ks_trace::names::PF_INTEGRITY_RECOVERED,
            ks_trace::names::PF_INTEGRITY_REEXECS,
        ]
        .iter()
        .map(|name| p.metric_name(name))
        .collect();
        let integrity_cells = || -> Vec<u64> {
            let reg = ks_trace::registry();
            cell_names.iter().map(|n| reg.counter_value(n)).collect()
        };
        let cells_before = integrity_cells();
        // A factor no other test uses keeps this variant's cache key —
        // and therefore the keyed flip rule — unique to this test.
        p.set_int(factor, 13);
        p.set_integrity(Some(IntegrityConfig {
            witness_period: 1,
            vote_m: 3,
            vote_n: 2,
        }));
        p.refresh().unwrap();
        let key = p.module_bound_key(ResId(4)).unwrap().clone();
        assert!(key.defines.contains("-D FACTOR=13"));
        // One silent bit flip on the first launch of exactly this
        // specialized variant; witness/vote/recovery launches (and every
        // other test's launches) carry other keys or occurrences.
        let plan = Arc::new(
            ks_fault::FaultPlan::new(99).rule(
                ks_fault::FaultRule::new(
                    ks_fault::FaultKind::SilentFlip,
                    ks_fault::Target::Key(key.lo64),
                )
                .nth(1),
            ),
        );
        ks_fault::install(plan.clone());
        let vals: Vec<f32> = (0..64).map(|i| i as f32 + 1.0).collect();
        p.set_host_f32(host_in, &vals);
        let r = p.run(2);
        ks_fault::clear();
        r.unwrap();
        assert_eq!(plan.injected_count(), 1);
        // The flip was detected, adjudicated as transient, and the
        // iteration re-executed: downstream saw only verified bytes.
        let out = p.host_f32(host_out);
        for i in 0..64 {
            assert_eq!(out[i], vals[i] * 13.0);
        }
        let s = p.integrity_stats();
        assert_eq!(s.checks, 2);
        assert_eq!(s.witness_launches, 2);
        assert_eq!(s.violations, 1);
        assert_eq!(s.transient_flips, 1);
        assert_eq!(s.corrupt_binaries, 0);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.reexecutions, 4); // 3 votes + 1 recovery
        let deltas: Vec<u64> = integrity_cells()
            .iter()
            .zip(&cells_before)
            .map(|(a, b)| a - b)
            .collect();
        assert_eq!(
            deltas,
            [
                s.checks,
                s.witness_launches,
                s.violations,
                s.transient_flips,
                s.corrupt_binaries,
                s.recovered,
                s.reexecutions
            ],
            "registry deltas must equal IntegrityStats"
        );
        let v = &p.integrity_violations()[0];
        assert_eq!(v.kind, ViolationKind::WitnessMismatch);
        assert_eq!(v.verdict, Verdict::TransientFlip);
        assert!(v.recovered);
        assert_eq!(v.key, key.fingerprint);
        assert_eq!((v.votes_agree, v.votes_total), (3, 3));
        // An exonerated variant keeps serving; nothing degraded.
        assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));
        assert!(p.degradations().is_empty());
    }

    #[test]
    fn corrupt_specialized_binary_is_quarantined_by_witness_voting() {
        // A macro binding that *lies*: the specialized binary bakes in
        // FACTOR=7 while the runtime argument says 5, so the variant
        // persistently computes wrong bytes — the binary-corruption case
        // (vs a one-shot flip), no fault plan needed.
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let mut p = Pipeline::new(c.clone(), 32 << 20);
        let ext = p.extent_param("buf", [64, 1, 1], 4);
        let host_in = p.host_memory(ext);
        let host_out = p.host_memory(ext);
        let dev_in = p.global_memory(ext);
        let dev_out = p.global_memory(ext);
        let m = p.module(
            SCALE_SRC,
            vec![("FACTOR", MacroBinding::Literal("7".into()))],
        );
        let k = p.kernel(m, "scale");
        let grid = p.triplet_param("grid", [1, 1, 1]);
        let blk = p.triplet_param("block", [64, 1, 1]);
        let every = p.schedule_param("every", 1, 0);
        let factor = p.int_param("factor", 5);
        let n = p.int_param("n", 64);
        p.copy("h2d", host_in, dev_in, every);
        p.exec(
            "scale",
            k,
            grid,
            blk,
            None,
            vec![
                Arg::Mem(dev_in),
                Arg::Mem(dev_out),
                Arg::Param(factor),
                Arg::Param(n),
            ],
            every,
        );
        p.copy("d2h", dev_out, host_out, every);
        p.set_integrity(Some(IntegrityConfig {
            witness_period: 1,
            vote_m: 2,
            vote_n: 1,
        }));
        p.refresh().unwrap();
        let suspect = p.module_bound_key(m).unwrap().clone();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(2).unwrap();
        // The generic witness (×5, the runtime argument) convicted the
        // ×7 variant: every vote reproduced the divergence.
        let out = p.host_f32(host_out);
        for i in 0..64 {
            assert_eq!(out[i], vals[i] * 5.0);
        }
        assert_eq!(p.integrity_violations().len(), 1);
        let v = &p.integrity_violations()[0];
        assert_eq!(v.verdict, Verdict::CorruptBinary);
        assert!(v.recovered);
        assert_eq!(v.key, suspect.fingerprint);
        assert_eq!(v.defines, "-D FACTOR=7");
        assert_eq!((v.votes_agree, v.votes_total), (0, 2));
        // Quarantined through the degradation ladder: generic serves,
        // module marked degraded (next refresh retries), record names
        // the convicted variant.
        assert_eq!(p.module_tier(m), Some(Tier::Generic));
        assert_eq!(p.degradations().len(), 1);
        let d = &p.degradations()[0];
        assert_eq!(d.fallback, FallbackKind::Generic);
        assert!(d.error.contains("integrity violation"));
        assert_eq!(d.key, suspect.fingerprint);
        assert_eq!(d.defines, "-D FACTOR=7");
        assert_eq!(p.module_bound_key(m).unwrap().defines, "");
        let s = p.integrity_stats();
        assert_eq!(s.corrupt_binaries, 1);
        assert_eq!(s.transient_flips, 0);
        // Iteration 2 served the generic: witness agreed, no new
        // violation.
        assert_eq!(s.violations, 1);
        assert_eq!(s.recovered, 1);
    }

    #[test]
    fn golden_checksum_pin_triggers_witness_and_stale_pin_is_benign() {
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let (mut p, _factor, host_in, _host_out) = scale_pipeline(c);
        // No periodic witnessing: only a pinned-checksum mismatch may
        // trigger one.
        p.set_integrity(Some(IntegrityConfig {
            witness_period: 0,
            vote_m: 3,
            vote_n: 2,
        }));
        p.refresh().unwrap();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        assert_eq!(p.integrity_stats().checks, 1);
        assert_eq!(p.integrity_stats().witness_launches, 0);
        // Pin the observed checksum: stationary inputs keep matching it,
        // so the cheap checksum compare suffices and no witness runs.
        let cs = p.last_checksum("scale").unwrap().to_string();
        assert_eq!(cs.len(), 32);
        p.expect_checksum("scale", &cs);
        p.run(2).unwrap();
        assert_eq!(p.integrity_stats().witness_launches, 0);
        assert!(p.integrity_violations().is_empty());
        // A wrong pin triggers the witness — which agrees with the
        // output, so the pin is reported stale rather than convicting
        // the binary.
        p.expect_checksum("scale", "00000000000000000000000000000000");
        p.run(1).unwrap();
        assert_eq!(p.integrity_stats().witness_launches, 1);
        assert!(p.integrity_violations().is_empty());
    }

    #[test]
    fn accessor_errors_are_typed_with_stable_messages() {
        let mut p = pipeline();
        let trip = p.triplet_param("t", [1, 1, 1]);
        let ext = p.extent_param("e", [8, 1, 1], 4);
        let dev = p.global_memory(ext);
        let m = p.module(SCALE_SRC, vec![]);
        let k = p.kernel(m, "scale");

        // Binding errors render the bare message the old panics carried.
        let e = p.try_int_value(trip).unwrap_err();
        assert!(matches!(&e, PfError::Bind(_)), "{e:?}");
        assert!(e.to_string().contains("not an integer"), "{e}");

        let e = p.try_host_data(dev).unwrap_err();
        assert!(matches!(&e, PfError::Bind(_)));
        assert_eq!(e.to_string(), "resource is not host memory");

        let e = p.try_device_addr(dev).unwrap_err();
        assert!(matches!(&e, PfError::Bind(_)));
        assert_eq!(e.to_string(), "refresh() first");

        // Kernel-resolution errors are launch-typed.
        let e = p.try_kernel_binary(dev).unwrap_err();
        assert!(matches!(&e, PfError::Launch(_)));
        assert_eq!(e.to_string(), "not a kernel resource");
        let e = p.try_kernel_binary(k).unwrap_err();
        assert!(matches!(&e, PfError::Launch(_)));
        assert_eq!(e.to_string(), "module not compiled; refresh() first");
    }

    // ---- tiered execution ----

    #[test]
    fn tiered_refresh_serves_generic_immediately_then_promotes() {
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let (mut p, factor, host_in, host_out) = scale_pipeline(c.clone());
        p.set_refresh_mode(RefreshMode::Tiered);
        let m = ResId(4); // the module created by scale_pipeline
        assert_eq!(p.module_tier(m), Some(Tier::Generic));

        p.refresh().unwrap();
        // Refresh returned without waiting for the specialization: the
        // module serves the generic binary (verifiably: same Arc as a
        // direct generic compile) while its ticket is in flight.
        assert_eq!(p.module_tier(m), Some(Tier::Promoting));
        let generic = c.compile(SCALE_SRC, Defines::new()).unwrap();
        let kernel = ResId(5);
        assert!(
            Arc::ptr_eq(p.kernel_binary(kernel), &generic),
            "first launch must be served by the generic binary"
        );

        // The generic kernel reads FACTOR from its runtime argument, so
        // the first run is already correct.
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[10], 30.0);

        // Promotion: hot-swap to the exact specialized binary. (run()
        // polls at each iteration top, so the swap may already have
        // landed there; wait_promotions() covers the slow case.)
        p.wait_promotions();
        assert_eq!(p.module_tier(m), Some(Tier::Specialized));
        let specialized = c
            .compile(SCALE_SRC, Defines::new().def("FACTOR", 3))
            .unwrap();
        assert!(Arc::ptr_eq(p.kernel_binary(kernel), &specialized));
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[10], 30.0);
        let stats = p.promotion_stats();
        assert_eq!((stats.promoted, stats.failed, stats.pending), (1, 0, 0));
        assert!(p.degradations().is_empty());

        // A parameter change rebinds the generic before any run: the
        // FACTOR=3 specialization would keep multiplying by 3.
        p.set_int(factor, 5);
        p.refresh().unwrap();
        assert!(
            Arc::ptr_eq(p.kernel_binary(kernel), &generic),
            "a re-dirtied module must serve the generic, not its stale specialization"
        );
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[10], 50.0);
    }

    /// Regression: re-dirtying a module while its promotion is in
    /// flight must supersede the stale ticket, not swap in a binary
    /// specialized for outdated parameter values. A stale FACTOR=3
    /// binary would hard-code 3 and ignore the runtime argument — the
    /// output check catches exactly that.
    #[test]
    fn superseding_a_promotion_never_swaps_in_a_stale_binary() {
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let (mut p, factor, host_in, host_out) = scale_pipeline(c);
        p.set_refresh_mode(RefreshMode::Tiered);
        p.refresh().unwrap();
        // Re-dirty before the FACTOR=3 ticket is applied.
        p.set_int(factor, 5);
        p.refresh().unwrap();
        assert_eq!(p.promotion_stats().superseded, 1);
        assert_eq!(p.wait_promotions(), 1);
        assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));

        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        assert_eq!(
            p.host_f32(host_out)[10],
            50.0,
            "a stale FACTOR=3 specialization must never be promoted"
        );
        let stats = p.promotion_stats();
        assert_eq!((stats.promoted, stats.superseded), (1, 1));
    }

    /// Tiered promotion failures route through the same degradation
    /// machinery as blocking refreshes, and a seeded fault plan makes
    /// two identical runs degrade byte-identically.
    #[test]
    fn promotion_failure_degrades_deterministically() {
        let run_once = || {
            let plan = Arc::new(
                ks_fault::FaultPlan::new(23).rule(
                    ks_fault::FaultRule::new(
                        ks_fault::FaultKind::CompileError,
                        ks_fault::Target::Define("FACTOR".into()),
                    )
                    .persistent(),
                ),
            );
            let c =
                Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan.clone()));
            let (mut p, _factor, host_in, host_out) = scale_pipeline(c);
            p.set_refresh_mode(RefreshMode::Tiered);
            p.refresh().unwrap();
            assert_eq!(p.wait_promotions(), 0, "failed promotion must not swap");
            assert_eq!(p.module_tier(ResId(4)), Some(Tier::Failed));
            assert_eq!(p.promotion_stats().failed, 1);
            assert_eq!(p.degradations().len(), 1);
            assert_eq!(p.degradations()[0].fallback, FallbackKind::Generic);
            assert!(p.degradations()[0].error.contains("injected fault"));
            // Still serving correct results from the generic tier.
            let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
            p.set_host_f32(host_in, &vals);
            p.run(1).unwrap();
            assert_eq!(p.host_f32(host_out)[10], 30.0);
            // A later refresh retries the specialization (still doomed
            // by the persistent rule — a second identical degradation).
            p.refresh().unwrap();
            assert_eq!(p.module_tier(ResId(4)), Some(Tier::Promoting));
            p.wait_promotions();
            assert_eq!(p.degradations().len(), 2);
            plan.event_log()
        };
        let first = run_once();
        let second = run_once();
        assert!(!first.is_empty());
        assert_eq!(
            first, second,
            "same seed must degrade byte-identically across runs"
        );
    }

    /// A launch racing a hot-swap must always execute a fully-built
    /// binary: launches pin an `Arc<Binary>` before executing, and the
    /// swap only changes which binary the *next* pin observes.
    #[test]
    fn launch_racing_a_hot_swap_sees_a_fully_built_binary() {
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let generic = c.compile(SCALE_SRC, Defines::new()).unwrap();
        let ticket = c.spawn_compile(SCALE_SRC, Defines::new().def("FACTOR", 7));
        // The shared slot stands in for a module's binary field; the
        // launcher threads play the part of pipeline iterations.
        let slot = Arc::new(parking_lot::Mutex::new(generic.clone()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let launchers: Vec<_> = (0..3)
            .map(|t| {
                let (slot, stop, c) = (slot.clone(), stop.clone(), c.clone());
                std::thread::spawn(move || {
                    let mut state = DeviceState::new(c.device().clone(), 1 << 20);
                    let a_in = state.global.alloc(64 * 4).unwrap();
                    let a_out = state.global.alloc(64 * 4).unwrap();
                    let dims = LaunchDims {
                        grid: (1, 1, 1),
                        block: (64, 1, 1),
                        dynamic_shared: 0,
                    };
                    let args = [
                        KArg::Ptr(a_in),
                        KArg::Ptr(a_out),
                        KArg::I32(2),
                        KArg::I32(64),
                    ];
                    let mut launches = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) || launches == 0 {
                        // Pin, then launch: the swap may happen between
                        // these two lines and must not matter.
                        let bin = slot.lock().clone();
                        assert!(
                            !bin.module.functions.is_empty() && !bin.ptx.is_empty(),
                            "launcher {t} saw a partially built binary"
                        );
                        ks_sim::launch(
                            &mut state,
                            &bin.module,
                            "scale",
                            dims,
                            &args,
                            LaunchOptions::default(),
                        )
                        .unwrap();
                        launches += 1;
                    }
                    launches
                })
            })
            .collect();
        // Resolve the promotion and hot-swap mid-traffic.
        let specialized = ticket.wait().unwrap();
        *slot.lock() = specialized.clone();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = launchers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total >= 3, "every launcher must have launched");
        // Post-swap pins observe exactly the specialized binary.
        assert!(Arc::ptr_eq(&*slot.lock(), &specialized));
    }

    #[test]
    fn blocking_refresh_reports_specialized_tier() {
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let (mut p, _f, _hi, _ho) = scale_pipeline(c);
        assert_eq!(p.refresh_mode(), RefreshMode::Blocking);
        p.refresh().unwrap();
        assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));
        assert_eq!(p.promotion_stats(), PromotionStats::default());
        // Non-module resources have no tier.
        assert_eq!(p.module_tier(ResId(0)), None);
    }

    /// Labeled pipelines publish through a `{pipeline=...}` scope:
    /// the scoped cells carry this pipeline's events, and time-in-tier
    /// dwell histograms record every transition (generic → promoting →
    /// specialized) with the promotion latency alongside.
    #[test]
    fn labeled_pipeline_scopes_metrics_and_records_dwell() {
        let reg = ks_trace::registry();
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
        let (mut p, _factor, host_in, host_out) = scale_pipeline(c);
        p.set_label("dwell-test");
        p.set_refresh_mode(RefreshMode::Tiered);
        assert_eq!(p.label(), Some("dwell-test"));
        assert_eq!(
            p.metric_name(ks_trace::names::PF_ITERATIONS),
            "gpu_pf.iterations{pipeline=dwell-test}"
        );

        let iters_before = reg.counter_value(&p.metric_name(ks_trace::names::PF_ITERATIONS));
        let lat_before = reg
            .histogram(&p.metric_name(ks_trace::names::PF_PROMOTION_LATENCY_US))
            .count();

        p.refresh().unwrap();
        // Generic dwell episode closed by the -> Promoting transition.
        assert_eq!(p.tier_dwell(Tier::Generic).count, 1);
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        p.wait_promotions();
        assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));
        assert_eq!(p.host_f32(host_out)[10], 30.0);

        // Promoting dwell closed by the hot-swap; promotion latency
        // histogram recorded the same event under this pipeline's scope.
        assert_eq!(p.tier_dwell(Tier::Promoting).count, 1);
        let lat_after = reg
            .histogram(&p.metric_name(ks_trace::names::PF_PROMOTION_LATENCY_US))
            .count();
        assert_eq!(lat_after - lat_before, 1);
        let iters_after = reg.counter_value(&p.metric_name(ks_trace::names::PF_ITERATIONS));
        assert_eq!(iters_after - iters_before, 1);
        // Per-module dwell cells exist under the nested scope and roll
        // up into the pipeline-level cell (module 4 is the only one).
        let per_module = reg
            .histogram("gpu_pf.tier.dwell_us.promoting{module=4,pipeline=dwell-test}")
            .snapshot();
        assert_eq!(per_module.count, 1);

        // Relabeling moves later publishes to the new scope but never
        // resets the pipeline's own stats views.
        let promos = p.promotion_stats();
        assert_eq!(promos.promoted, 1);
        p.set_label("dwell-test-relabeled");
        assert_eq!(p.promotion_stats(), promos);
    }
}
