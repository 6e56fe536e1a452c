//! `std::sync`, re-exported under this crate's path.
//!
//! The end-to-end benchmark (`e2ebench/`) imports its atomics as
//! `skipflow_modelcheck::sync::atomic`, and this crate keeps that path
//! compiling. The workspace itself imports `std::sync` directly; nothing
//! new should depend on this crate.
//!
//! ```
//! use skipflow_modelcheck::sync::atomic::{AtomicU64, Ordering::SeqCst};
//!
//! let n = AtomicU64::new(1);
//! assert_eq!(n.fetch_add(2, SeqCst), 1);
//! assert_eq!(n.load(SeqCst), 3);
//! ```

#![warn(missing_docs)]

/// `std::sync`, re-exported unchanged.
pub mod sync {
    pub use std::sync::*;
}
