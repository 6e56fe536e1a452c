//! Deterministic fault injection for the engine (`fault-inject` feature).
//!
//! The interrupt/recovery machinery has paths no public API can reach
//! deterministically: a cancel token tripping at an exact worklist step, or
//! a budget running out at one. This module provides a step-indexed
//! [`FaultPlan`] the engine consults (only when the `fault-inject` feature is
//! compiled in — the hooks do not exist in normal builds) so the
//! differential test family can interrupt at every `k` along a sweep and
//! prove resume is bit-identical.
//!
//! Every injection fires **once**: the engine consumes the trigger when it
//! fires, so a resumed solve is not re-interrupted at the same index.

/// A deterministic, step-indexed injection plan, installed with
/// [`crate::AnalysisConfig::with_fault_plan`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Behave as if the cancel token tripped once the cumulative worklist
    /// step count reaches this value (checked before every step, ignoring
    /// the production check stride, so the interrupt lands exactly).
    pub cancel_at_step: Option<u64>,
    /// Report a step-budget exhaustion once the cumulative step count
    /// reaches this value (exercises the budget path without configuring a
    /// real budget).
    pub budget_exhaust_at_step: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self == &Self::default()
    }

    /// Step-indexed interrupt injections; consumed on fire.
    pub(crate) fn poll_step(&mut self, steps: u64) -> Option<crate::InterruptReason> {
        if let Some(k) = self.cancel_at_step {
            if steps >= k {
                self.cancel_at_step = None;
                return Some(crate::InterruptReason::Cancelled);
            }
        }
        if let Some(k) = self.budget_exhaust_at_step {
            if steps >= k {
                self.budget_exhaust_at_step = None;
                return Some(crate::InterruptReason::StepBudget { budget: k });
            }
        }
        None
    }
}
