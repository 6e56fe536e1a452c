//! Interruptible solves: budgets, cooperative cancellation, and the
//! partial-result vocabulary.
//!
//! A solve no longer has to run to completion: [`crate::AnalysisConfig`]
//! carries optional step/wall/memory budgets, and
//! [`crate::AnalysisSession::solve_interruptible`] additionally accepts a
//! [`CancelToken`] that another thread may trip at any time. The engine
//! checks both at a bounded stride between worklist steps, and an exhausted
//! budget or a tripped token surfaces as [`SolveOutcome::Interrupted`] —
//! *not* an error: the partial snapshot it carries is a sound
//! under-approximation of the final fixpoint (every propagated fact is a
//! fact of the least fixpoint; monotonicity means nothing ever has to be
//! retracted), queries on it are answerable and tagged
//! [`Completeness::Partial`], and the next solve resumes from exactly where
//! the interrupt stopped via the ordinary resume machinery — see the
//! "Interrupt safety" notes at the top of `engine.rs`.

use crate::report::AnalysisSnapshot;
use skipflow_modelcheck::sync::atomic::{AtomicBool, Ordering};
use skipflow_modelcheck::sync::Arc;
use std::fmt;
use std::time::Duration;

/// A cooperative cancellation token: a shared flag the solver polls at a
/// bounded stride. Cloning is cheap (an `Arc<AtomicBool>` handle); trip it
/// from any thread with [`CancelToken::cancel`] and the in-flight
/// [`solve_interruptible`](crate::AnalysisSession::solve_interruptible)
/// returns [`SolveOutcome::Interrupted`] with
/// [`InterruptReason::Cancelled`] within one check stride.
///
/// The token is level-triggered, not an event: it stays tripped until
/// [`CancelToken::reset`], so a token tripped *before* the first step
/// interrupts immediately, and re-using a tripped token keeps interrupting.
///
/// # Threading
///
/// `CancelToken` is `Clone + Send + Sync`, and every clone shares one flag.
/// The server-grade pattern is one token per solving thread: the solver
/// thread passes `Some(&token)` to
/// [`solve_interruptible`](crate::AnalysisSession::solve_interruptible)
/// while request handlers hold clones and call [`CancelToken::cancel`] from
/// their own threads; the solve observes the trip within one check stride.
/// Because the token is level-triggered, the *solving* thread should own the
/// [`CancelToken::reset`] (typically just before each solve) — resetting
/// from a requester's thread races a concurrent cancel of the in-flight
/// solve. All flag accesses are relaxed atomics: the token orders nothing
/// but itself, which is all cancellation needs.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: the next stride check of any solve polling it
    /// returns [`InterruptReason::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Clears the token so it can gate another solve.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// Whether the token is currently tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The shared flag itself, for callers that already coordinate on a raw
    /// `Arc<AtomicBool>`.
    pub fn as_flag(&self) -> &Arc<AtomicBool> {
        &self.flag
    }
}

impl From<Arc<AtomicBool>> for CancelToken {
    fn from(flag: Arc<AtomicBool>) -> Self {
        CancelToken { flag }
    }
}

/// Why a solve stopped before reaching the fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterruptReason {
    /// The [`CancelToken`] passed to the solve was tripped.
    Cancelled,
    /// The solve executed its configured per-solve step budget
    /// ([`crate::AnalysisConfig::with_step_budget`]).
    StepBudget {
        /// The configured budget (worklist steps per solve).
        budget: u64,
    },
    /// The solve ran longer than its configured wall-clock budget
    /// ([`crate::AnalysisConfig::with_wall_budget`]). Checked at the stride,
    /// so the overshoot is bounded by one stride of steps.
    WallBudget {
        /// The configured budget.
        budget: Duration,
    },
    /// The engine's estimated memory footprint exceeded the configured
    /// budget ([`crate::AnalysisConfig::with_memory_budget`]).
    MemoryBudget {
        /// The configured budget in bytes.
        budget_bytes: usize,
        /// The estimate that tripped it.
        estimated_bytes: usize,
    },
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::Cancelled => write!(f, "cancel token tripped"),
            InterruptReason::StepBudget { budget } => {
                write!(f, "step budget exhausted ({budget} steps)")
            }
            InterruptReason::WallBudget { budget } => {
                write!(f, "wall-clock budget exhausted ({budget:?})")
            }
            InterruptReason::MemoryBudget {
                budget_bytes,
                estimated_bytes,
            } => write!(
                f,
                "memory budget exhausted (estimated {estimated_bytes} bytes > budget {budget_bytes})"
            ),
        }
    }
}

/// How a [`solve_interruptible`](crate::AnalysisSession::solve_interruptible)
/// call ended.
///
/// Both arms carry a queryable [`AnalysisSnapshot`]; an interrupted solve is
/// a checkpoint, not a failure. Match on it, or use
/// [`SolveOutcome::snapshot`] when only the (possibly partial) view matters.
#[derive(Debug)]
pub enum SolveOutcome<'s> {
    /// The fixpoint was reached; the snapshot is the complete result.
    Completed(AnalysisSnapshot<'s>),
    /// A budget or the cancel token stopped the solve between worklist
    /// steps. The partial snapshot is a sound under-approximation of the
    /// final fixpoint (its queries answer [`Completeness::Partial`]), and
    /// the next solve on the same session resumes from this exact point.
    Interrupted {
        /// What stopped the solve.
        reason: InterruptReason,
        /// The checkpointed state, queryable like any snapshot.
        partial: AnalysisSnapshot<'s>,
    },
}

impl<'s> SolveOutcome<'s> {
    /// The snapshot either way (partial when interrupted).
    pub fn snapshot(&self) -> AnalysisSnapshot<'s> {
        match self {
            SolveOutcome::Completed(s) => *s,
            SolveOutcome::Interrupted { partial, .. } => *partial,
        }
    }

    /// Whether the solve was interrupted before reaching the fixpoint.
    pub fn is_interrupted(&self) -> bool {
        matches!(self, SolveOutcome::Interrupted { .. })
    }

    /// The interrupt reason, if the solve was interrupted.
    pub fn interrupt_reason(&self) -> Option<InterruptReason> {
        match self {
            SolveOutcome::Completed(_) => None,
            SolveOutcome::Interrupted { reason, .. } => Some(*reason),
        }
    }
}

/// Whether a result view reflects the full fixpoint or an interrupted
/// checkpoint — reported by
/// [`CallGraphQuery::completeness`](crate::CallGraphQuery::completeness) and
/// by [`AnalysisSnapshot::completeness`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Completeness {
    /// The least fixpoint over every accepted root was reached; queries are
    /// exact (for the configured abstraction).
    #[default]
    Complete,
    /// The view is a checkpoint of an unfinished solve: everything it
    /// reports (reachable methods, value states, call edges) is true of the
    /// final fixpoint, but more may be discovered by resuming — a sound
    /// under-approximation.
    Partial,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_trips_and_resets() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
        t.reset();
        assert!(!clone.is_cancelled());
        let raw: Arc<AtomicBool> = Arc::new(AtomicBool::new(true));
        let from_raw = CancelToken::from(raw);
        assert!(from_raw.is_cancelled());
    }

    /// The server-grade contract: a token crosses threads freely, a clone
    /// tripped on one thread is observed as cancelled on another, and the
    /// solving thread can reset it for the next solve.
    #[test]
    fn cancel_token_cross_thread_trip_and_reset() {
        fn assert_send_sync<T: Send + Sync + Clone + 'static>() {}
        assert_send_sync::<CancelToken>();

        let token = CancelToken::new();
        let remote = token.clone();
        std::thread::spawn(move || remote.cancel())
            .join()
            .expect("cancelling thread");
        assert!(token.is_cancelled(), "trip from another thread is visible");

        let solver_side = token.clone();
        std::thread::spawn(move || {
            assert!(solver_side.is_cancelled(), "cancelled state crosses threads");
            solver_side.reset();
        })
        .join()
        .expect("resetting thread");
        assert!(!token.is_cancelled(), "reset from another thread is visible");
    }

    #[test]
    fn interrupt_reasons_display() {
        assert!(InterruptReason::Cancelled.to_string().contains("cancel"));
        assert!(InterruptReason::StepBudget { budget: 7 }.to_string().contains('7'));
        let w = InterruptReason::WallBudget {
            budget: Duration::from_millis(5),
        };
        assert!(w.to_string().contains("wall"));
        let m = InterruptReason::MemoryBudget {
            budget_bytes: 10,
            estimated_bytes: 99,
        };
        let msg = m.to_string();
        assert!(msg.contains("99") && msg.contains("10"), "{msg}");
    }
}
