//! The `std::sync` seam: import `skipflow_modelcheck::sync::...` instead of
//! `std::sync::...` and the code is model-checkable.
//!
//! With the `model-check` feature **off** (the default and the only
//! configuration production builds see) this module is a re-export of
//! `std::sync` — identical types, zero overhead, no behavioral difference.
//!
//! With it **on**, the `Mutex`/`Condvar`/atomic types are the shim types
//! from `crate::shim`: still `std`-backed and `std`-equivalent on ordinary
//! threads, but cooperative and exhaustively schedulable inside a
//! `crate::explore` run. `Arc` is `std::sync::Arc` either way: its
//! refcount is not an interleaving point.

#[cfg(not(feature = "model-check"))]
pub use std::sync::*;

#[cfg(feature = "model-check")]
pub use std::sync::Arc;

#[cfg(feature = "model-check")]
pub use crate::shim::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};

/// Atomic types (`std::sync::atomic` or the shim's, by feature).
#[cfg(feature = "model-check")]
pub mod atomic {
    pub use crate::shim::atomic::*;
}
