//! A hand-rolled concurrency model checker for the server's writer
//! handshake (loom-style, std-only).
//!
//! The crate has two faces, switched by the `model-check` feature:
//!
//! * **Off** (default): [`sync`] and [`thread`] are zero-cost re-exports of
//!   `std::sync` / `std::thread`. Code written against this crate compiles
//!   to exactly what it compiled to before — same types, same codegen —
//!   which is what keeps the production server benchmarks bit-identical.
//!
//! * **On**: the same paths resolve to shim types that route every atomic
//!   access, mutex acquire/release, condvar wait/notify, and thread
//!   spawn/join through a cooperative scheduler (`Arc` stays
//!   `std::sync::Arc`). `explore` then runs a scenario closure under
//!   *every* interleaving of those operations (up to a preemption bound),
//!   replaying a DFS over the schedule tree, and turns panics, deadlocks
//!   and livelocks into hard failures with schedule diagnostics. Outside an
//!   `explore` call the shim types behave like `std` (so one test binary
//!   can mix checked scenarios and ordinary tests).
//!
//! # Example
//!
//! ```
//! # #[cfg(feature = "model-check")] {
//! use skipflow_modelcheck::sync::atomic::{AtomicU64, Ordering::SeqCst};
//! use skipflow_modelcheck::sync::Arc;
//!
//! let report = skipflow_modelcheck::explore(Default::default(), || {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let n2 = n.clone();
//!     let t = skipflow_modelcheck::thread::spawn(move || {
//!         n2.fetch_add(1, SeqCst);
//!     });
//!     n.fetch_add(1, SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(n.load(SeqCst), 2);
//! });
//! assert!(report.schedules >= 2);
//! # }
//! ```
//!
//! # What the model covers (and what it does not)
//!
//! The scheduler serializes logical threads, so every explored interleaving
//! is *sequentially consistent*. That models `SeqCst` atomics exactly — the
//! server uses `SeqCst` throughout — and explores a sound subset (not all)
//! of the behaviors of `Acquire`/`Release`/`Relaxed` code. Timeouts never
//! fire in-model (a missing wake-up is reported as a deadlock instead), and
//! spin loops must be bounded or the depth cap reports a livelock.

#![warn(missing_docs)]

pub mod sync;

#[cfg(feature = "model-check")]
mod sched;
#[cfg(feature = "model-check")]
mod shim;

#[cfg(feature = "model-check")]
pub use sched::{explore, try_explore, Failure, Options, Report};

/// Thread API (`std::thread` or the model-checked subset, by feature).
#[cfg(not(feature = "model-check"))]
pub mod thread {
    pub use std::thread::*;
}

#[cfg(feature = "model-check")]
pub use shim::thread;

/// Yields: an explicit interleaving point inside a model run, a plain
/// `std::thread::yield_now` otherwise. Scenario code can sprinkle this into
/// compute-only stretches to let the explorer switch threads there.
pub fn yield_now() {
    thread::yield_now();
}
