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

/// How the sequential solver orders its worklist.
///
/// Scheduling is a pure performance heuristic: every order reaches the same
/// least fixpoint (all joins are monotone), so both schedulers are proven
/// result-identical by `tests/delta_vs_reference.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Plain FIFO worklist (the PR 1 behaviour). Kept as the scheduling
    /// oracle for differential tests and pre-change benchmark captures.
    Fifo,
    /// SCC-aware priority scheduling, forced from solve start: flows are
    /// prioritized by the *live* topological order of their strongly
    /// connected component in the PVPG — maintained online
    /// (Pearce–Kelly-style in-place repairs as edges are inserted, cycle
    /// collapse on merge), so every flow carries an exact priority from the
    /// moment it is created — and each SCC is iterated to local fixpoint
    /// before any flow of a later SCC is re-processed (first-time flows
    /// drain frontier-first; see the scheduling invariants in `engine.rs`).
    /// Pays the per-edge order maintenance + bucket-indirection overhead
    /// even on workloads that never re-process (use
    /// [`SchedulerKind::Adaptive`] unless benchmarking the forced mode).
    SccPriority,
    /// Adaptive FIFO→SCC scheduling (the default): every solve starts on
    /// the plain FIFO worklist, the engine tracks the re-enqueue rate
    /// (`re_pops / pops` over a sliding window), and only when the rate
    /// shows that flows are genuinely being re-processed does it *flip* to
    /// the SCC priority queue. The session's first flip absorbs the graph
    /// into the online order once; afterwards the condensation stays
    /// current through every mutation (and across resumes), so later flips
    /// of resumed solves never recompute anything. Re-processing
    /// heavy workloads (shared-sink fan-out, big value cycles) get the full
    /// SCC step win minus a small detection lag; acyclic propagate-once
    /// workloads pay only the (cheap, per-edge) order maintenance. Results
    /// are scheduler-independent (all joins are monotone), so the mid-solve
    /// flip is safe at any step boundary.
    Adaptive,
}

/// Which fixpoint solver drives the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Single-threaded worklist solver (the default).
    Sequential,
    /// The full-join reference solver: recomputes and re-joins a flow's
    /// entire output on every step. Slow by design — it is the oracle the
    /// differential tests and the perf-trajectory harness compare the
    /// sequential solver against. It shares the sequential solver's step
    /// rule but runs its own FIFO loop with no scheduler and no no-op rule.
    Reference,
}

/// Configuration of one analysis session.
///
/// Construct from a preset and refine with the `with_*` methods:
///
/// ```
/// use skipflow_core::{AnalysisConfig, SchedulerKind, SolverKind};
///
/// let config = AnalysisConfig::skipflow()
///     .with_solver(SolverKind::Reference)
///     .with_scheduler(SchedulerKind::SccPriority)
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
    /// Filter method parameters by their declared types during
    /// interprocedural linking (the Native Image behaviour inherited from
    /// Wimmer et al. \[60\]).
    pub(crate) declared_type_filtering: bool,
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
    /// Solver selection.
    pub(crate) solver: SolverKind,
    /// Worklist scheduling for the sequential solver.
    pub(crate) scheduler: SchedulerKind,
    /// Safety valve for the fixpoint iteration; `None` means unbounded.
    pub(crate) max_steps: Option<u64>,
    /// Per-solve worklist-step budget; exceeding it *interrupts* the solve
    /// (a resumable checkpoint, unlike the assert-based `max_steps` valve).
    pub(crate) step_budget: Option<u64>,
    /// Per-solve wall-clock budget.
    pub(crate) wall_budget: Option<Duration>,
    /// Estimated-footprint budget in bytes (cumulative over the engine: its
    /// PVPG only grows).
    pub(crate) memory_budget: Option<usize>,
    /// Deterministic fault-injection plan (test builds only).
    #[cfg(feature = "fault-inject")]
    pub(crate) fault_plan: crate::fault::FaultPlan,
}

impl AnalysisConfig {
    /// Full SkipFlow: predicate edges + primitive tracking (the paper's
    /// `SkipFlow` configuration of Table 1).
    pub fn skipflow() -> Self {
        AnalysisConfig {
            predicates: true,
            primitives: true,
            declared_type_filtering: true,
            saturation_threshold: None,
            coarse_exceptions: true,
            reflective_roots: Vec::new(),
            reflective_fields: Vec::new(),
            unsafe_fields: Vec::new(),
            masked_methods: Vec::new(),
            solver: SolverKind::Sequential,
            scheduler: SchedulerKind::Adaptive,
            max_steps: None,
            step_budget: None,
            wall_budget: None,
            memory_budget: None,
            #[cfg(feature = "fault-inject")]
            fault_plan: crate::fault::FaultPlan::default(),
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

    /// Sets the worklist scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets (or clears, with `None`) the fixpoint step bound. Tests use a
    /// bound to fail fast on engine bugs; production runs leave it `None`.
    pub fn with_max_steps(mut self, max_steps: impl Into<Option<u64>>) -> Self {
        self.max_steps = max_steps.into();
        self
    }

    /// Sets (or clears, with `None`) the per-solve worklist-step budget.
    /// Unlike [`AnalysisConfig::with_max_steps`] (an assert-based fail-fast
    /// valve for tests), exhausting a step budget is not an error: the solve
    /// returns [`SolveOutcome::Interrupted`](crate::SolveOutcome) with a
    /// queryable partial snapshot, and the next solve resumes — so
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

    /// Installs a deterministic fault-injection plan (see [`crate::fault`]).
    /// Only compiled under the `fault-inject` feature; production builds
    /// have no injection hooks.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault_plan = plan;
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

    /// Toggles declared-type filtering on interprocedural use edges.
    pub fn with_declared_type_filtering(mut self, on: bool) -> Self {
        self.declared_type_filtering = on;
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

    /// Whether parameters are filtered by their declared types.
    pub fn declared_type_filtering(&self) -> bool {
        self.declared_type_filtering
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

    /// The selected worklist scheduler. The reference solver always runs
    /// FIFO regardless — it is the oracle and must stay byte-for-byte the
    /// PR 1 algorithm.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The fixpoint step bound, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
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
        assert!(pta.declared_type_filtering(), "baseline keeps type filtering on use edges");
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
        assert_eq!(c.scheduler(), SchedulerKind::Adaptive, "adaptive is the default");
        let c = c.with_scheduler(SchedulerKind::Fifo).with_saturation(None);
        assert_eq!(c.scheduler(), SchedulerKind::Fifo);
        assert_eq!(c.saturation_threshold(), None);
        let c = c.with_max_steps(10).with_coarse_exceptions(false);
        assert_eq!(c.max_steps(), Some(10));
        assert!(!c.coarse_exceptions());
        let c = c.with_scheduler(SchedulerKind::SccPriority);
        assert_eq!(c.scheduler(), SchedulerKind::SccPriority);
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
