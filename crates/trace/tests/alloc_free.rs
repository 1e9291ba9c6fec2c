//! Disabled-path overhead guard: once metric handles exist, publishing
//! through them — and constructing disabled spans — must not allocate.
//! A counting global allocator proves it: the telemetry hot path is
//! atomics only, so "always-on counters" cannot become an allocation
//! tax on the compile or pipeline hot paths.
//!
//! The allocator counts per thread, so tests running concurrently in
//! this binary (and the harness itself) never leak allocations into
//! each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const OPS: u64 = 100_000;

#[test]
fn publishing_through_warm_handles_is_allocation_free() {
    // Warm-up: the first fetch of each handle allocates (name interning,
    // registry map nodes), as does the scoped chain construction. All of
    // that happens once, at setup.
    let r = ks_trace::Registry::new();
    let scope = r.scoped(&[("pipeline", "alloc-test")]);
    let counter = scope.counter("af.ops");
    let gauge = scope.gauge("af.gauge");
    let hist = scope.histogram("af.lat");
    counter.inc();
    gauge.set(1.0);
    hist.record(42);
    assert!(!ks_trace::enabled(), "spans must default to disabled");
    drop(ks_trace::span("warmup"));

    // Steady state: counters, gauges, histograms (three-level scoped
    // chains included) and disabled spans are allocation-free.
    let before = thread_allocs();
    for i in 0..OPS {
        counter.inc();
        gauge.set(i as f64);
        hist.record(1 + (i % 10_000));
        let _span = ks_trace::span("disabled-hot-path");
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "hot-path publishes allocated {delta} times over {OPS} iterations"
    );

    // Sanity: the publishes actually landed, at every chain level.
    assert_eq!(counter.get(), 1 + OPS);
    assert_eq!(r.counter_value("af.ops"), 1 + OPS);
    assert_eq!(r.histogram("af.lat").snapshot().count, 1 + OPS);
    assert_eq!(
        r.histogram("af.lat{pipeline=alloc-test}").snapshot().count,
        1 + OPS
    );
}

#[test]
fn overhead_microbench_reports_cost_per_publish() {
    // Not a pass/fail latency gate (CI machines vary wildly) — this
    // measures the disabled-span and enabled-publish cost so the
    // EXPERIMENTS overhead table can cite a reproducible number:
    // `cargo test -p ks-trace --test alloc_free -- --nocapture`.
    let r = ks_trace::Registry::new();
    let scope = r.scoped(&[("pipeline", "bench")]);
    let counter = scope.counter("ob.ops");
    let hist = scope.histogram("ob.lat");
    counter.inc();
    hist.record(1);

    let time = |label: &str, f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        for _ in 0..OPS {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / OPS as f64;
        println!("overhead: {label}: {ns:.1} ns/op");
        ns
    };
    let span_ns = time("disabled span", &mut || {
        let _s = ks_trace::span("bench");
    });
    let counter_ns = time("scoped counter inc (2-level chain)", &mut || counter.inc());
    let hist_ns = time("scoped histogram record (2-level chain)", &mut || {
        hist.record(4096)
    });
    // Generous ceilings: these paths are a handful of atomics. If one
    // regresses past 2µs/op something structural broke (a lock or an
    // allocation crept in), which is worth failing loudly over even on
    // a noisy machine.
    for (label, ns) in [
        ("disabled span", span_ns),
        ("counter", counter_ns),
        ("histogram", hist_ns),
    ] {
        assert!(ns < 2_000.0, "{label} path regressed to {ns:.0} ns/op");
    }
}
