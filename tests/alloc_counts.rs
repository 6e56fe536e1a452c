//! Allocation-count regressions for the solve.
//!
//! A counting global allocator tallies every heap allocation (fresh or
//! resized) made by the current thread. The counters are thread-locals, so
//! tests running in parallel in this binary never see each other's
//! allocations. The test pins how many allocations `solve()` makes per
//! reached method on a ladder program (dominated by fragment build) and
//! per call edge on a shared-sink fan-out (dominated by call linking).
//! Growing the graph is meant to allocate only when one of its shared
//! arenas or pools doubles, so fragment builds and call links add almost
//! nothing; what remains is propagation (value states growing and being
//! copied). The bounds sit just above the measured counts, which are
//! deterministic: the analysis is, and the counters see only this thread.

use skipflow::analysis::{AnalysisConfig, AnalysisSession};
use skipflow::synth::{build_benchmark, BenchmarkSpec, Suite};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations per thread and forwards everything to [`System`].
struct Counting;

fn count_one() {
    // `try_with` fails only while the thread-local is being destroyed at
    // thread exit; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: counts, then forwards to `System.alloc` (see the impl note).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: counts, then forwards to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: counts, then forwards to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to `System.dealloc`, which allocated the block.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Solves `spec` under SkipFlow and returns `(allocations made by solve(),
/// reached methods, call edges)`.
fn measure(spec: &BenchmarkSpec) -> (u64, usize, usize) {
    let bench = build_benchmark(spec);
    let mut session = AnalysisSession::builder(&bench.program)
        .config(AnalysisConfig::skipflow())
        .roots(bench.roots.iter().copied())
        .build()
        .expect("valid benchmark");
    let before = allocs();
    let snapshot = session.solve();
    let solve_allocs = allocs() - before;
    let methods = snapshot.reachable_methods().len();
    let edges = snapshot.call_graph_edges().len();
    (solve_allocs, methods, edges)
}

#[test]
fn ladder_solve_allocations_per_reached_method() {
    let spec = BenchmarkSpec::new("rung-2000", Suite::DaCapo, 2000, 0.2).with_fanout(8);
    let (allocs, methods, _) = measure(&spec);
    let per_method = allocs as f64 / methods as f64;
    eprintln!(
        "ladder: {allocs} allocations, {methods} reached methods, {per_method:.2} per method"
    );
    assert!(
        per_method <= 15.0,
        "{per_method:.2} allocations per reached method"
    );
}

#[test]
fn fanout_solve_allocations_per_call_edge() {
    let spec = BenchmarkSpec::new("fanout-100", Suite::DaCapo, 60, 0.0).with_shared_sink(100, 64);
    let (allocs, _, edges) = measure(&spec);
    let per_edge = allocs as f64 / edges as f64;
    eprintln!("fanout: {allocs} allocations, {edges} call edges, {per_edge:.2} per call edge");
    assert!(per_edge <= 1.0, "{per_edge:.2} allocations per call edge");
}
