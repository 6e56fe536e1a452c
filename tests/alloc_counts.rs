//! Allocation-count regressions for the solve and the load.
//!
//! A counting global allocator tallies, per thread, every heap allocation
//! (fresh or resized), the bytes currently live, and the largest single
//! request. The counters are thread-locals, so tests running in parallel
//! in this binary never see each other's allocations.
//!
//! The solve tests pin how many allocations `solve()` makes per reached
//! method on a ladder program (dominated by fragment build) and per call
//! edge on a shared-sink fan-out (dominated by call linking). Growing the
//! graph is meant to allocate only when one of its shared arenas or pools
//! doubles, so fragment builds and call links add almost nothing. Value
//! states whose types fit in one 64-type word hold no heap, so what remains
//! is propagation of the wider type sets and call linking's per-site sets.
//!
//! The load tests pin the decoded program: bodies live in program-wide
//! pools, so decoding allocates a few times per method (names, signature
//! lists, per-type lists and masks), not per block or statement;
//! `Program::heap_bytes` must account for what the decoded program holds;
//! and forged counts in a file must fail cleanly without reserving memory
//! the file could never fill. The bounds sit just above the measured
//! counts, which are deterministic: the analysis and the decoder are, and
//! the counters see only this thread.

use skipflow::analysis::{AnalysisConfig, AnalysisSession};
use skipflow::ir::encode::{decode, encode, DecodeError};
use skipflow::ir::frontend::compile;
use skipflow::synth::{build_benchmark, suites, BenchmarkSpec, Suite};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (frees of another
    /// thread's blocks count where they happen).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest single allocation or reallocation this thread requested.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Counts allocations per thread and forwards everything to [`System`].
struct Counting;

fn count_one(size: usize, grow: i64) {
    // `try_with` fails only while the thread-locals are being destroyed at
    // thread exit; those allocations are simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|c| c.set(c.get() + grow));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

fn count_free(size: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get() - size as i64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: counts, then forwards to `System.alloc` (see the impl note).
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size(), layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: counts, then forwards to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size(), layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: counts, then forwards to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: counts, then forwards to `System.dealloc`, which allocated
    // the block.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Runs `f` and returns its result with the largest single allocation it
/// requested.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
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
        per_method <= 3.0,
        "{per_method:.2} allocations per reached method"
    );
}

#[test]
fn fanout_solve_allocations_per_call_edge() {
    let spec = BenchmarkSpec::new("fanout-100", Suite::DaCapo, 60, 0.0).with_shared_sink(100, 64);
    let (allocs, _, edges) = measure(&spec);
    let per_edge = allocs as f64 / edges as f64;
    eprintln!("fanout: {allocs} allocations, {edges} call edges, {per_edge:.2} per call edge");
    assert!(per_edge <= 0.70, "{per_edge:.2} allocations per call edge");
}

/// The ladder, fan-out and quick-corpus programs the load tests decode.
fn load_specs() -> Vec<BenchmarkSpec> {
    let mut specs = vec![
        BenchmarkSpec::new("rung-2000", Suite::DaCapo, 2000, 0.2).with_fanout(8),
        BenchmarkSpec::new("fanout-100", Suite::DaCapo, 60, 0.0).with_shared_sink(100, 64),
    ];
    specs.extend(suites::quick());
    specs
}

#[test]
fn decode_allocations_per_method_on_the_ladder() {
    let spec = BenchmarkSpec::new("rung-8000", Suite::DaCapo, 8000, 0.2).with_fanout(8);
    let bytes = encode(&build_benchmark(&spec).program);
    let before = allocs();
    let program = decode(&bytes).expect("decodes");
    let per_method = (allocs() - before) as f64 / program.method_count() as f64;
    eprintln!(
        "decode: {} methods, {per_method:.2} allocations per method",
        program.method_count()
    );
    assert!(per_method <= 3.3, "{per_method:.2} decode allocations per method");
}

/// Asserts `heap_bytes` is within 10 % of the bytes building the program
/// left live.
fn assert_heap_bytes_within_10pct(what: &str, build: impl FnOnce() -> skipflow::ir::Program) {
    let before = live_bytes();
    let program = build();
    let held = (live_bytes() - before) as f64;
    let reported = program.heap_bytes() as f64;
    eprintln!("{what}: heap_bytes {reported} vs {held} live");
    assert!(
        (reported - held).abs() <= 0.1 * held,
        "{what}: heap_bytes {reported} is not within 10 % of the {held} bytes left live"
    );
}

#[test]
fn heap_bytes_matches_what_the_decoded_program_holds() {
    for spec in load_specs() {
        let bytes = encode(&build_benchmark(&spec).program);
        let program = decode(&bytes).expect("decodes");
        assert_heap_bytes_within_10pct(&spec.name, || decode(&bytes).expect("decodes"));
        // A clone holds no spare capacity and sums its own figure.
        assert_heap_bytes_within_10pct(&format!("{} clone", spec.name), || program.clone());
    }
}

#[test]
fn forged_body_counts_fail_without_large_reservations() {
    let bytes = encode(&compile("class Main { static method main(): void { return; } }").unwrap());
    let len = bytes.len();
    let at = |from_end: usize| len - from_end;
    let read = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
    // The file ends with the one body: var count, block count, then the
    // entry block `start()` (tag, param count), its statement count and
    // `return` (tag, no-value marker).
    let counts = [("var count", at(22), 0), ("block count", at(18), 1), ("stmt count", at(9), 0)];
    for (what, i, expected) in counts {
        assert_eq!(read(i), expected, "{what} sits {} bytes from the end", len - i);
        for forged in [len as u32 - 1, u32::MAX] {
            let mut b = bytes.clone();
            b[i..i + 4].copy_from_slice(&forged.to_le_bytes());
            let (result, largest) = largest_allocation(|| decode(&b));
            assert!(
                matches!(result, Err(DecodeError::Truncated(_))),
                "{what} = {forged}: {result:?}"
            );
            assert!(largest <= 64 * len, "{what} = {forged}: a {largest} B allocation");
        }
    }
    // Any count anywhere: forging any four bytes never reserves more than
    // the file could fill.
    for i in 8..len - 4 {
        let mut b = bytes.clone();
        b[i..i + 4].copy_from_slice(&(len as u32 - 1).to_le_bytes());
        let (_, largest) = largest_allocation(|| decode(&b));
        assert!(largest <= 64 * len, "u32 forged at byte {i}: a {largest} B allocation");
    }
}
