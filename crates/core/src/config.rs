//! Analysis configuration.
//!
//! SkipFlow is the baseline type-based points-to analysis *plus* two
//! features — predicate edges and primitive tracking (paper §1) — so one
//! engine serves every configuration in the evaluation: the `PTA` baseline,
//! full SkipFlow, and the two single-feature ablations.
//!
//! Since the session API redesign the fields are private: configurations are
//! assembled from a preset ([`AnalysisConfig::skipflow`],
//! [`AnalysisConfig::baseline_pta`], …) refined through the `with_*` builder
//! methods, and validated once when an
//! [`AnalysisSession`](crate::AnalysisSession) is built (invalid inputs
//! surface as [`AnalysisError`](crate::AnalysisError) instead of panics deep
//! inside the engine).

use skipflow_ir::{FieldId, MethodId};
use std::time::Duration;

/// Which fixpoint solver drives the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Single-threaded worklist solver (the default). It drains the tiered
    /// queue: flows that have never done propagation work first, in FIFO
    /// order, then re-enqueued flows, lowest flow index first (see
    /// "Scheduling" in `engine.rs`).
    Sequential,
    /// The full-join reference solver: recomputes and re-joins a flow's
    /// entire output on every step. Slow by design — it is the oracle the
    /// differential tests and the perf-trajectory harness compare the
    /// sequential solver against. It shares the sequential solver's step
    /// rule but runs its own plain FIFO loop with no tiers and no no-op
    /// rule.
    Reference,
}

/// Configuration of one analysis session.
///
/// Construct from a preset and refine with the `with_*` methods:
///
/// ```
/// use skipflow_core::{AnalysisConfig, SolverKind};
///
/// let config = AnalysisConfig::skipflow()
///     .with_solver(SolverKind::Reference)
///     .with_saturation(32);
/// assert!(config.predicates() && config.primitives());
/// assert_eq!(config.saturation_threshold(), Some(32));
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Enable predicate edges: flows start disabled and only propagate once
    /// their predicate has a non-empty state (paper §3 "Control Flow
    /// Predicates"). Disabled for the baseline PTA, where every flow is
    /// enabled at creation.
    pub(crate) predicates: bool,
    /// Track primitive constants through the lattice `P`. When disabled,
    /// every primitive source evaluates to `Any` (the baseline PTA behaviour:
    /// primitives are invisible).
    pub(crate) primitives: bool,
    /// Optional saturation threshold (Wimmer et al. \[60\]).
    pub(crate) saturation_threshold: Option<usize>,
    /// The paper's coarse exception policy (§5).
    pub(crate) coarse_exceptions: bool,
    /// Methods invokable via Reflection/JNI (§5).
    pub(crate) reflective_roots: Vec<MethodId>,
    /// Fields accessible via Reflection/JNI (§5).
    pub(crate) reflective_fields: Vec<FieldId>,
    /// Fields accessed via `Unsafe` (§5).
    pub(crate) unsafe_fields: Vec<FieldId>,
    /// Methods whose bodies are masked out from the start: the engine marks
    /// them reachable when discovered but never builds their fragments, as
    /// if [`MethodEdit::DisableBody`](crate::MethodEdit) had been applied
    /// before the first solve. This is how a fresh differential oracle
    /// reproduces the edit state of a long-lived session.
    pub(crate) masked_methods: Vec<MethodId>,
    /// Solver selection (it also picks the worklist).
    pub(crate) solver: SolverKind,
    /// Per-solve worklist-step budget; exceeding it *interrupts* the solve
    /// (a resumable checkpoint).
    pub(crate) step_budget: Option<u64>,
    /// Per-solve wall-clock budget.
    pub(crate) wall_budget: Option<Duration>,
    /// Estimated-footprint budget in bytes (cumulative over the engine: its
    /// PVPG only grows).
    pub(crate) memory_budget: Option<usize>,
}

impl AnalysisConfig {
    /// Full SkipFlow: predicate edges + primitive tracking (the paper's
    /// `SkipFlow` configuration of Table 1).
    pub fn skipflow() -> Self {
        AnalysisConfig {
            predicates: true,
            primitives: true,
            saturation_threshold: None,
            coarse_exceptions: true,
            reflective_roots: Vec::new(),
            reflective_fields: Vec::new(),
            unsafe_fields: Vec::new(),
            masked_methods: Vec::new(),
            solver: SolverKind::Sequential,
            step_budget: None,
            wall_budget: None,
            memory_budget: None,
        }
    }

    /// The baseline: flow-insensitive, context-insensitive, type-based
    /// points-to analysis (the paper's `PTA` configuration of Table 1 —
    /// the Native Image default of Wimmer et al. \[60\]).
    pub fn baseline_pta() -> Self {
        AnalysisConfig {
            predicates: false,
            primitives: false,
            ..Self::skipflow()
        }
    }

    /// Ablation: predicate edges without primitive tracking.
    pub fn predicates_only() -> Self {
        AnalysisConfig {
            primitives: false,
            ..Self::skipflow()
        }
    }

    /// Ablation: primitive tracking without predicate edges.
    pub fn primitives_only() -> Self {
        AnalysisConfig {
            predicates: false,
            ..Self::skipflow()
        }
    }

    // ---- builder methods --------------------------------------------------

    /// Sets the solver.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Sets (or clears, with `None`) the saturation threshold.
    pub fn with_saturation(mut self, threshold: impl Into<Option<usize>>) -> Self {
        self.saturation_threshold = threshold.into();
        self
    }

    /// Sets (or clears, with `None`) the per-solve worklist-step budget.
    /// Exhausting a step budget is not an error: the solve returns
    /// [`SolveOutcome::Interrupted`](crate::SolveOutcome) with a queryable
    /// partial snapshot, and the next solve resumes — so
    /// repeatedly solving under a budget of `k` advances the fixpoint `k`
    /// steps at a time until it completes.
    pub fn with_step_budget(mut self, budget: impl Into<Option<u64>>) -> Self {
        self.step_budget = budget.into();
        self
    }

    /// Sets (or clears, with `None`) the per-solve wall-clock budget. The
    /// deadline is checked at the engine's bounded stride, so the overshoot
    /// past the budget is at most one stride of steps.
    pub fn with_wall_budget(mut self, budget: impl Into<Option<Duration>>) -> Self {
        self.wall_budget = budget.into();
        self
    }

    /// Sets (or clears, with `None`) the memory budget in bytes, compared
    /// against the engine's cheap footprint *estimate* (flow arena + edge
    /// pools — the structures that grow with the analysis), not an allocator
    /// measurement. The PVPG only grows, so once tripped, only a raised
    /// budget lets a resume make progress.
    pub fn with_memory_budget(mut self, budget: impl Into<Option<usize>>) -> Self {
        self.memory_budget = budget.into();
        self
    }

    /// Toggles predicate edges (the ablation axis of Table 1).
    pub fn with_predicates(mut self, on: bool) -> Self {
        self.predicates = on;
        self
    }

    /// Toggles primitive-constant tracking (the ablation axis of Table 1).
    pub fn with_primitives(mut self, on: bool) -> Self {
        self.primitives = on;
        self
    }

    /// Toggles the coarse exception policy (§5).
    pub fn with_coarse_exceptions(mut self, on: bool) -> Self {
        self.coarse_exceptions = on;
        self
    }

    /// Adds methods invokable via Reflection/JNI (§5): extra roots whose
    /// parameters receive every instantiated subtype of their declared types.
    pub fn with_reflective_roots(mut self, roots: impl IntoIterator<Item = MethodId>) -> Self {
        self.reflective_roots.extend(roots);
        self
    }

    /// Adds fields accessible via Reflection/JNI (§5): their value states
    /// receive every instantiated subtype of their declared types.
    pub fn with_reflective_fields(mut self, fields: impl IntoIterator<Item = FieldId>) -> Self {
        self.reflective_fields.extend(fields);
        self
    }

    /// Adds fields accessed via `Unsafe` (§5): every write into any such
    /// field may flow out of every read of any such field.
    pub fn with_unsafe_fields(mut self, fields: impl IntoIterator<Item = FieldId>) -> Self {
        self.unsafe_fields.extend(fields);
        self
    }

    /// Masks method bodies from the start of the session: a masked method is
    /// marked reachable when discovered (it still appears at call sites and
    /// in the reachable set) but its fragment is never built — calls to it
    /// derive nothing, exactly as after
    /// [`AnalysisSession::apply_edit`](crate::AnalysisSession::apply_edit)
    /// with [`MethodEdit::DisableBody`](crate::MethodEdit). The differential
    /// tests use this to build a fresh oracle matching an edited session.
    pub fn with_masked_methods(mut self, methods: impl IntoIterator<Item = MethodId>) -> Self {
        self.masked_methods.extend(methods);
        self
    }

    // ---- accessors --------------------------------------------------------

    /// Whether predicate edges are enabled.
    pub fn predicates(&self) -> bool {
        self.predicates
    }

    /// Whether primitive-constant tracking is enabled.
    pub fn primitives(&self) -> bool {
        self.primitives
    }

    /// The saturation threshold, if saturation is enabled.
    pub fn saturation_threshold(&self) -> Option<usize> {
        self.saturation_threshold
    }

    /// Whether the coarse exception policy is active.
    pub fn coarse_exceptions(&self) -> bool {
        self.coarse_exceptions
    }

    /// The configured reflective root methods.
    pub fn reflective_roots(&self) -> &[MethodId] {
        &self.reflective_roots
    }

    /// The configured reflective fields.
    pub fn reflective_fields(&self) -> &[FieldId] {
        &self.reflective_fields
    }

    /// The configured `Unsafe`-accessed fields.
    pub fn unsafe_fields(&self) -> &[FieldId] {
        &self.unsafe_fields
    }

    /// The methods whose bodies are masked out from the start.
    pub fn masked_methods(&self) -> &[MethodId] {
        &self.masked_methods
    }

    /// The selected solver.
    pub fn solver(&self) -> SolverKind {
        self.solver
    }

    /// The per-solve worklist-step budget, if any.
    pub fn step_budget(&self) -> Option<u64> {
        self.step_budget
    }

    /// The per-solve wall-clock budget, if any.
    pub fn wall_budget(&self) -> Option<Duration> {
        self.wall_budget
    }

    /// The estimated-footprint budget in bytes, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// A short human-readable label (used by the bench harness).
    pub fn label(&self) -> &'static str {
        match (self.predicates, self.primitives) {
            (true, true) => "SkipFlow",
            (false, false) => "PTA",
            (true, false) => "SkipFlow-predicates-only",
            (false, true) => "SkipFlow-primitives-only",
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self::skipflow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1_configurations() {
        let sf = AnalysisConfig::skipflow();
        assert!(sf.predicates() && sf.primitives());
        assert_eq!(sf.label(), "SkipFlow");

        let pta = AnalysisConfig::baseline_pta();
        assert!(!pta.predicates() && !pta.primitives());
        assert_eq!(pta.label(), "PTA");
    }

    #[test]
    fn ablation_labels() {
        assert_eq!(AnalysisConfig::predicates_only().label(), "SkipFlow-predicates-only");
        assert_eq!(AnalysisConfig::primitives_only().label(), "SkipFlow-primitives-only");
        assert_eq!(
            AnalysisConfig::skipflow().with_predicates(false).label(),
            "SkipFlow-primitives-only"
        );
        assert_eq!(
            AnalysisConfig::skipflow().with_primitives(false).label(),
            "SkipFlow-predicates-only"
        );
    }

    #[test]
    fn builder_helpers() {
        let c = AnalysisConfig::skipflow()
            .with_solver(SolverKind::Reference)
            .with_saturation(32);
        assert_eq!(c.solver(), SolverKind::Reference);
        assert_eq!(c.saturation_threshold(), Some(32));
        let default = AnalysisConfig::skipflow().solver();
        assert_eq!(default, SolverKind::Sequential, "sequential is the default");
        let c = c.with_saturation(None);
        assert_eq!(c.saturation_threshold(), None);
        let c = c.with_coarse_exceptions(false);
        assert!(!c.coarse_exceptions());
    }

    #[test]
    fn budget_knobs_set_and_clear() {
        let c = AnalysisConfig::skipflow();
        assert_eq!(c.step_budget(), None);
        assert_eq!(c.wall_budget(), None);
        assert_eq!(c.memory_budget(), None);
        let c = c
            .with_step_budget(100)
            .with_wall_budget(Duration::from_millis(50))
            .with_memory_budget(1 << 20);
        assert_eq!(c.step_budget(), Some(100));
        assert_eq!(c.wall_budget(), Some(Duration::from_millis(50)));
        assert_eq!(c.memory_budget(), Some(1 << 20));
        let c = c
            .with_step_budget(None)
            .with_wall_budget(None)
            .with_memory_budget(None);
        assert_eq!(c.step_budget(), None);
        assert_eq!(c.wall_budget(), None);
        assert_eq!(c.memory_budget(), None);
    }

    #[test]
    fn reflective_lists_accumulate() {
        let m = MethodId::from_index(3);
        let f = FieldId::from_index(1);
        let c = AnalysisConfig::skipflow()
            .with_reflective_roots([m])
            .with_reflective_fields([f])
            .with_unsafe_fields([f]);
        assert_eq!(c.reflective_roots(), &[m]);
        assert_eq!(c.reflective_fields(), &[f]);
        assert_eq!(c.unsafe_fields(), &[f]);
    }
}
