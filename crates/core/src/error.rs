//! Structured analysis errors.
//!
//! The session builder validates every externally supplied input — root
//! methods, reflective roots/fields, and unsafe fields — against the program
//! *before* the engine runs, so malformed input surfaces as a typed
//! [`AnalysisError`] instead of an index panic deep inside the fixpoint
//! iteration. Mid-solve conditions (graph capacity, an exhausted budget)
//! surface through the same type; every variant's `Display` message states
//! what happened *and* what the caller can do about it.

use crate::interrupt::InterruptReason;
use skipflow_ir::{FieldId, MethodId};
use std::fmt;

/// An analysis failure: invalid input reported by
/// [`SessionBuilder::build`](crate::SessionBuilder::build) and
/// [`AnalysisSession::add_roots`](crate::AnalysisSession::add_roots), or a
/// mid-solve condition reported by
/// [`AnalysisSession::try_solve`](crate::AnalysisSession::try_solve) /
/// [`AnalysisSession::solve_interruptible`](crate::AnalysisSession::solve_interruptible).
///
/// Marked `#[non_exhaustive]`: future sessions may validate more inputs
/// without a breaking change, so downstream matches need a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A root (or reflective root) method id does not exist in the program.
    ///
    /// ```
    /// use skipflow_core::AnalysisError;
    /// use skipflow_ir::MethodId;
    /// let e = AnalysisError::UnknownMethod { method: MethodId::from_index(7), method_count: 3 };
    /// assert_eq!(
    ///     e.to_string(),
    ///     "root method m7 does not exist (program has 3 methods; valid ids are 0..3)"
    /// );
    /// ```
    UnknownMethod {
        /// The offending id.
        method: MethodId,
        /// Methods in the program (valid ids are `0..method_count`).
        method_count: usize,
    },
    /// A reflective or unsafe field id does not exist in the program.
    ///
    /// ```
    /// use skipflow_core::AnalysisError;
    /// use skipflow_ir::FieldId;
    /// let e = AnalysisError::UnknownField { field: FieldId::from_index(4), field_count: 2 };
    /// assert_eq!(
    ///     e.to_string(),
    ///     "field f4 does not exist (program has 2 fields; valid ids are 0..2)"
    /// );
    /// ```
    UnknownField {
        /// The offending id.
        field: FieldId,
        /// Fields in the program (valid ids are `0..field_count`).
        field_count: usize,
    },
    /// The PVPG grew to the `FlowId` capacity limit. Flow indices are stored
    /// as `u32` with `u32::MAX` reserved as the intrusive-list sentinel
    /// (`NO_FLOW`), so an analysis may create at most
    /// [`crate::MAX_FLOW_COUNT`] flows; at that point the engine stops
    /// building new fragments and reports this error instead of silently
    /// corrupting the scheduler's intrusive lists.
    ///
    /// ```
    /// use skipflow_core::AnalysisError;
    /// let e = AnalysisError::TooManyFlows { flows: 4_294_967_294, limit: 4_294_967_294 };
    /// assert_eq!(
    ///     e.to_string(),
    ///     "the analysis graph reached 4294967294 flows, the FlowId capacity limit \
    ///      (4294967294); shrink the program or split the analysis across sessions"
    /// );
    /// ```
    TooManyFlows {
        /// Flows in the PVPG when the limit was hit.
        flows: usize,
        /// The hard flow-count capacity ([`crate::MAX_FLOW_COUNT`]).
        limit: usize,
    },
    /// A budget (or a pre-tripped cancel token) stopped a solve that was
    /// driven through the completion-only API
    /// ([`AnalysisSession::try_solve`](crate::AnalysisSession::try_solve) /
    /// [`solve`](crate::AnalysisSession::solve)). The session is *not*
    /// poisoned: the checkpoint is retained and
    /// [`solve_interruptible`](crate::AnalysisSession::solve_interruptible)
    /// resumes it (and hands out the partial snapshot this API cannot).
    ///
    /// ```
    /// use skipflow_core::{AnalysisError, InterruptReason};
    /// let e = AnalysisError::Interrupted { reason: InterruptReason::StepBudget { budget: 64 } };
    /// assert_eq!(
    ///     e.to_string(),
    ///     "solve interrupted: step budget exhausted (64 steps); resume with \
    ///      solve_interruptible() to continue from the checkpoint"
    /// );
    /// ```
    Interrupted {
        /// What stopped the solve.
        reason: InterruptReason,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnknownMethod { method, method_count } => write!(
                f,
                "root method {method:?} does not exist (program has {method_count} methods; \
                 valid ids are 0..{method_count})"
            ),
            AnalysisError::UnknownField { field, field_count } => write!(
                f,
                "field {field:?} does not exist (program has {field_count} fields; \
                 valid ids are 0..{field_count})"
            ),
            AnalysisError::TooManyFlows { flows, limit } => write!(
                f,
                "the analysis graph reached {flows} flows, the FlowId capacity limit \
                 ({limit}); shrink the program or split the analysis across sessions"
            ),
            AnalysisError::Interrupted { reason } => write!(
                f,
                "solve interrupted: {reason}; resume with solve_interruptible() to \
                 continue from the checkpoint"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_informative() {
        let e = AnalysisError::UnknownMethod {
            method: MethodId::from_index(7),
            method_count: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("does not exist") && msg.contains('3'), "{msg}");
        let e = AnalysisError::TooManyFlows {
            flows: 4_294_967_294,
            limit: 4_294_967_294,
        };
        assert!(e.to_string().contains("capacity limit"), "{e}");
    }

    #[test]
    fn every_message_is_actionable_and_wraps_no_source() {
        // Each variant names the remedy, not just the failure.
        let cases: Vec<(AnalysisError, &str)> = vec![
            (
                AnalysisError::UnknownMethod {
                    method: MethodId::from_index(1),
                    method_count: 1,
                },
                "valid ids are",
            ),
            (
                AnalysisError::UnknownField {
                    field: FieldId::from_index(1),
                    field_count: 1,
                },
                "valid ids are",
            ),
            (
                AnalysisError::TooManyFlows { flows: 9, limit: 9 },
                "split the analysis",
            ),
            (
                AnalysisError::Interrupted {
                    reason: InterruptReason::Cancelled,
                },
                "solve_interruptible",
            ),
        ];
        for (e, remedy) in &cases {
            let msg = e.to_string();
            assert!(msg.contains(remedy), "{msg:?} lacks remedy {remedy:?}");
        }
        // No variant wraps another error.
        for (e, _) in &cases {
            assert!(e.source().is_none(), "{e}");
        }
    }
}
