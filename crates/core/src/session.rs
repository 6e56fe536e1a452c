//! The session-based analysis API.
//!
//! An [`AnalysisSession`] owns the PVPG, the solver state, and the scheduler
//! across calls, so the fixpoint can be *resumed*: after a solve, new entry
//! points can be added ([`AnalysisSession::add_roots`]) and the next
//! [`AnalysisSession::solve`] continues from the saturated graph instead of
//! rebuilding it. By the checkpoint invariant (documented at the top of
//! `engine.rs`) the resumed fixpoint is bit-identical to a fresh analysis
//! over the union of all roots — only cheaper, which the trajectory
//! harness's `resume` rung measures. The scheduler's topological order is
//! part of the carried state: it is maintained online through every graph
//! mutation, so a resumed solve starts from current priorities instead of
//! recomputing a condensation, and per-solve scheduler statistics are
//! re-based per solve (see [`crate::SchedulerStats`] for the per-solve vs
//! engine-cumulative split).
//!
//! Sessions are assembled with a typed builder:
//!
//! ```
//! use skipflow_core::{AnalysisSession, SolverKind};
//! use skipflow_ir::frontend::compile;
//!
//! let program = compile(
//!     "class App { static method main(): void { return; } }",
//! ).unwrap();
//! let app = program.type_by_name("App").unwrap();
//! let main = program.method_by_name(app, "main").unwrap();
//!
//! let mut session = AnalysisSession::builder(&program)
//!     .skipflow()
//!     .solver(SolverKind::Sequential)
//!     .roots([main])
//!     .build()
//!     .unwrap();
//! let snapshot = session.solve();
//! assert!(snapshot.is_reachable(main));
//! ```
//!
//! Solves are *interruptible*: budgets on the configuration
//! ([`AnalysisConfig::with_step_budget`] and friends) and a cooperative
//! [`crate::CancelToken`] stop a solve at a clean checkpoint instead of the
//! fixpoint. [`AnalysisSession::solve_interruptible`] surfaces the
//! checkpoint as [`crate::SolveOutcome::Interrupted`] carrying a *partial*
//! snapshot — a sound under-approximation whose queries are tagged
//! [`crate::Completeness::Partial`] — and the next solve resumes exactly
//! where the interrupted one stopped. By the checkpoint invariant the
//! eventually completed fixpoint is bit-identical to an uninterrupted run.
//!
//! Sessions are also *non-monotone*: entry points can be removed again
//! ([`AnalysisSession::retract_roots`]) and method bodies can be edited out
//! and back ([`AnalysisSession::apply_edit`]). A mutation that deletes
//! derived facts — retracting a solved-in root, disabling a reachable body —
//! rebuilds the engine for the new configuration, then the next solve runs
//! it from bottom: the fixpoint is a fresh analysis of the surviving roots
//! under the current edit state by construction
//! ([`AnalysisConfig::with_masked_methods`] reproduces that state for a
//! fresh oracle). Adding roots and restoring a body stay on the resume
//! path. The per-session cost shows up in
//! [`SolveStats::invalidation`](crate::InvalidationStats).
//!
//! The one-shot [`analyze`] free function remains as a thin convenience
//! wrapper over a single-solve session.

use crate::config::{AnalysisConfig, SchedulerKind, SolverKind};
use crate::engine::{Engine, SolveEnd};
use crate::error::AnalysisError;
use crate::interrupt::{CancelToken, Completeness, SolveOutcome};
use crate::metrics::InvalidationStats;
use crate::report::{AnalysisResult, AnalysisSnapshot, OwnedSnapshot, ReachableSet, SolveStats};
use skipflow_ir::{BitSet, FieldId, MethodId, Program};
use std::time::{Duration, Instant};

/// Runs the analysis on `program`, starting from `roots`.
///
/// A thin convenience wrapper over [`AnalysisSession`] for one-shot runs —
/// build, solve once, convert to an owned result. New code that re-analyzes
/// (added entry points, baseline comparisons, long-lived servers) should use
/// the session API directly; this wrapper rebuilds the whole fixpoint on
/// every call.
///
/// # Panics
///
/// Panics on invalid input (unknown root/field ids) —
/// the session builder reports these as [`AnalysisError`] instead — and if
/// `config.max_steps` is exceeded (a fail-fast valve for engine bugs in
/// tests; production runs leave it `None`).
pub fn analyze(program: &Program, roots: &[MethodId], config: &AnalysisConfig) -> AnalysisResult {
    let mut session = AnalysisSession::builder(program)
        .config(config.clone())
        .roots(roots.iter().copied())
        .build()
        .unwrap_or_else(|e| panic!("analyze: invalid input: {e}"));
    session.solve();
    session.into_result()
}

/// A method-level program edit applied to a live session
/// ([`AnalysisSession::apply_edit`]).
///
/// The edit model is deliberately minimal — a body is either present or
/// absent — and any statement-level edit can be expressed as disable +
/// (externally) swap the program + restore. A disabled method stays a
/// discoverable call target, but calls into it never return, matching a
/// fresh solve under [`AnalysisConfig::with_masked_methods`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodEdit {
    /// Masks the method's body out. If the engine already reached the
    /// method, the session rebuilds the engine under the new mask and the
    /// next solve starts from bottom; otherwise only the mask is recorded.
    DisableBody,
    /// Restores a previously disabled body (monotone: the fragment is built
    /// and wired into the sites that already resolved to it).
    RestoreBody,
}

/// Typed builder for [`AnalysisSession`] (see the module docs for the
/// canonical chain). Configuration presets (`skipflow()`, `baseline_pta()`,
/// …) *replace* the whole configuration, so apply them before the
/// fine-grained knobs (`solver`, `scheduler`, `saturation`, …).
#[derive(Clone, Debug)]
pub struct SessionBuilder<'p> {
    program: &'p Program,
    config: AnalysisConfig,
    roots: Vec<MethodId>,
}

impl<'p> SessionBuilder<'p> {
    fn new(program: &'p Program) -> Self {
        SessionBuilder {
            program,
            config: AnalysisConfig::skipflow(),
            roots: Vec::new(),
        }
    }

    /// Preset: full SkipFlow (predicate edges + primitive tracking). This is
    /// the default configuration of a fresh builder.
    pub fn skipflow(mut self) -> Self {
        self.config = AnalysisConfig::skipflow();
        self
    }

    /// Preset: the baseline type-based points-to analysis (`PTA`).
    pub fn baseline_pta(mut self) -> Self {
        self.config = AnalysisConfig::baseline_pta();
        self
    }

    /// Preset: predicate edges without primitive tracking.
    pub fn predicates_only(mut self) -> Self {
        self.config = AnalysisConfig::predicates_only();
        self
    }

    /// Preset: primitive tracking without predicate edges.
    pub fn primitives_only(mut self) -> Self {
        self.config = AnalysisConfig::primitives_only();
        self
    }

    /// Replaces the entire configuration (for callers that already hold an
    /// [`AnalysisConfig`], e.g. the bench harness sweeping ablations).
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the fixpoint solver.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.config = self.config.with_solver(solver);
        self
    }

    /// Selects the sequential solver's worklist scheduler.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.config = self.config.with_scheduler(scheduler);
        self
    }

    /// Sets (or clears) the saturation threshold.
    pub fn saturation(mut self, threshold: impl Into<Option<usize>>) -> Self {
        self.config = self.config.with_saturation(threshold);
        self
    }

    /// Sets (or clears) the fixpoint step bound (tests' fail-fast valve).
    pub fn max_steps(mut self, max_steps: impl Into<Option<u64>>) -> Self {
        self.config = self.config.with_max_steps(max_steps);
        self
    }

    /// Registers methods invokable via Reflection/JNI (§5).
    pub fn reflective_roots(mut self, roots: impl IntoIterator<Item = MethodId>) -> Self {
        self.config = self.config.with_reflective_roots(roots);
        self
    }

    /// Registers fields accessible via Reflection/JNI (§5).
    pub fn reflective_fields(mut self, fields: impl IntoIterator<Item = FieldId>) -> Self {
        self.config = self.config.with_reflective_fields(fields);
        self
    }

    /// Registers fields accessed via `Unsafe` (§5).
    pub fn unsafe_fields(mut self, fields: impl IntoIterator<Item = FieldId>) -> Self {
        self.config = self.config.with_unsafe_fields(fields);
        self
    }

    /// Adds analysis entry points (accumulates across calls; duplicates are
    /// accepted and deduplicated at build).
    pub fn roots(mut self, roots: impl IntoIterator<Item = MethodId>) -> Self {
        self.roots.extend(roots);
        self
    }

    /// Validates the inputs and builds the session. Nothing is solved yet —
    /// the first [`AnalysisSession::solve`] runs the fixpoint.
    pub fn build(self) -> Result<AnalysisSession<'p>, AnalysisError> {
        let SessionBuilder {
            program,
            config,
            roots,
        } = self;
        let method_count = program.method_count();
        for &m in roots.iter().chain(config.reflective_roots()) {
            if m.index() >= method_count {
                return Err(AnalysisError::UnknownMethod {
                    method: m,
                    method_count,
                });
            }
        }
        for &m in config.masked_methods() {
            if m.index() >= method_count {
                return Err(AnalysisError::UnknownMethod {
                    method: m,
                    method_count,
                });
            }
        }
        let field_count = program.field_count();
        for &f in config.reflective_fields().iter().chain(config.unsafe_fields()) {
            if f.index() >= field_count {
                return Err(AnalysisError::UnknownField {
                    field: f,
                    field_count,
                });
            }
        }
        let mut engine = Engine::new(program, config);
        engine.bootstrap();
        let mut session = AnalysisSession {
            program,
            engine,
            roots: Vec::new(),
            root_bits: BitSet::new(),
            pending_roots: Vec::new(),
            reachable: ReachableSet::default(),
            stats: SolveStats::default(),
            total_duration: Duration::ZERO,
            solves: 0,
            last_solve_steps: 0,
            invalidation: InvalidationStats::default(),
            rederiving: false,
            dirty: false,
        };
        session.accept_roots(roots);
        Ok(session)
    }
}

/// A reusable analysis session: owns the PVPG, the solver state, and the
/// scheduler across solves, supporting incremental root addition with
/// fixpoint resume, and retraction and edits by engine rebuild (see the
/// module docs).
pub struct AnalysisSession<'p> {
    program: &'p Program,
    engine: Engine<'p>,
    /// All accepted roots, in acceptance order (deduplicated).
    roots: Vec<MethodId>,
    root_bits: BitSet,
    /// Accepted roots not yet fed to the engine (drained by `solve`).
    pending_roots: Vec<MethodId>,
    /// Sorted reachable view, refreshed after each solve.
    reachable: ReachableSet,
    /// Statistics, refreshed after each solve.
    stats: SolveStats,
    total_duration: Duration,
    solves: u64,
    last_solve_steps: u64,
    /// Retraction / edit counters, kept across engine rebuilds.
    invalidation: InvalidationStats,
    /// Set by an engine rebuild until a solve completes: the steps in
    /// between count as `rederive_steps`.
    rederiving: bool,
    /// Set by a retraction or edit since the last solve: the published
    /// views are stale (possibly *over*-approximate until re-solved), so
    /// the saturated-no-op fast path must not skip the next solve.
    dirty: bool,
}

impl std::fmt::Debug for AnalysisSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("config", self.engine.config())
            .field("roots", &self.roots)
            .field("pending_roots", &self.pending_roots)
            .field("solves", &self.solves)
            .field("reachable", &self.reachable.len())
            .finish_non_exhaustive()
    }
}

impl<'p> AnalysisSession<'p> {
    /// Starts building a session over `program`.
    pub fn builder(program: &'p Program) -> SessionBuilder<'p> {
        SessionBuilder::new(program)
    }

    /// Deduplicates and records pre-validated roots.
    fn accept_roots(&mut self, roots: impl IntoIterator<Item = MethodId>) -> usize {
        let mut added = 0;
        for m in roots {
            if self.root_bits.insert(m.index()) {
                self.roots.push(m);
                self.pending_roots.push(m);
                added += 1;
            }
        }
        added
    }

    /// Adds entry points to an existing session; the next [`solve`] resumes
    /// the fixpoint from the current saturated state. Already-registered
    /// roots are ignored. Returns how many new roots were accepted.
    ///
    /// [`solve`]: AnalysisSession::solve
    pub fn add_roots(
        &mut self,
        roots: impl IntoIterator<Item = MethodId>,
    ) -> Result<usize, AnalysisError> {
        let roots: Vec<MethodId> = roots.into_iter().collect();
        let method_count = self.program.method_count();
        for &m in &roots {
            if m.index() >= method_count {
                return Err(AnalysisError::UnknownMethod {
                    method: m,
                    method_count,
                });
            }
        }
        Ok(self.accept_roots(roots))
    }

    /// Removes entry points from the session — the non-monotone inverse of
    /// [`AnalysisSession::add_roots`]. Retracting a root that was already
    /// solved in rebuilds the engine, so the next
    /// [`solve`](AnalysisSession::solve) starts from bottom and reaches a
    /// fresh analysis of the surviving root set; retracting a still-pending
    /// root only drops it. Methods that are not currently roots are
    /// ignored; unknown method ids reject the whole batch. Returns how many
    /// roots were actually removed.
    pub fn retract_roots(
        &mut self,
        roots: impl IntoIterator<Item = MethodId>,
    ) -> Result<usize, AnalysisError> {
        let roots: Vec<MethodId> = roots.into_iter().collect();
        let method_count = self.program.method_count();
        for &m in &roots {
            if m.index() >= method_count {
                return Err(AnalysisError::UnknownMethod {
                    method: m,
                    method_count,
                });
            }
        }
        let mut removed = 0;
        let mut solved_in = false;
        for m in roots {
            if !self.root_bits.remove(m.index()) {
                continue;
            }
            removed += 1;
            self.roots.retain(|&r| r != m);
            if let Some(pos) = self.pending_roots.iter().position(|&r| r == m) {
                // Never solved in: dropping the pending entry is the whole
                // retraction (nothing was derived from it).
                self.pending_roots.remove(pos);
            } else {
                self.invalidation.retractions += 1;
                solved_in = true;
            }
        }
        if solved_in {
            self.rebuild();
        }
        Ok(removed)
    }

    /// Replaces the engine with a freshly bootstrapped one for the current
    /// configuration and mask, and re-queues every surviving root as
    /// pending in acceptance order: the next solve is exactly a fresh
    /// session's first solve. The discarded engine's size is recorded in
    /// the invalidation counters.
    fn rebuild(&mut self) {
        let fresh = self.engine.rebuilt();
        let old = std::mem::replace(&mut self.engine, fresh);
        self.invalidation.invalidated_methods += old.reachable_count() as u64;
        self.invalidation.invalidated_flows += old.graph().flow_count() as u64;
        self.pending_roots = self.roots.clone();
        self.rederiving = true;
        self.dirty = true;
    }

    /// Applies a method-level edit to the analysed program (see
    /// [`MethodEdit`]). Disabling a reachable body rebuilds the engine
    /// under the new mask; restoring is monotone. Either way the next
    /// [`solve`](AnalysisSession::solve) reaches a fixpoint bit-identical
    /// to a fresh analysis of the current roots with the current masked set
    /// ([`AnalysisSession::masked_methods`]). Returns whether the edit
    /// changed anything (disabling an already-disabled body is a no-op).
    pub fn apply_edit(
        &mut self,
        method: MethodId,
        edit: MethodEdit,
    ) -> Result<bool, AnalysisError> {
        let method_count = self.program.method_count();
        if method.index() >= method_count {
            return Err(AnalysisError::UnknownMethod {
                method,
                method_count,
            });
        }
        let changed = match edit {
            MethodEdit::DisableBody => {
                let changed = self.engine.mask_method(method);
                if changed && self.engine.is_reachable(method) {
                    self.rebuild();
                }
                changed
            }
            MethodEdit::RestoreBody => {
                let is_root = self.root_bits.contains(method.index())
                    || self.engine.config().reflective_roots().contains(&method);
                self.engine.unmask_method(method, is_root)
            }
        };
        if changed {
            self.invalidation.edits += 1;
            self.dirty = true;
        }
        Ok(changed)
    }

    /// The currently disabled method bodies, in id order — the mask set a
    /// fresh oracle needs ([`AnalysisConfig::with_masked_methods`]) to
    /// reproduce this session's edit state.
    pub fn masked_methods(&self) -> Vec<MethodId> {
        self.engine.masked_list()
    }

    /// Runs the configured solver to the least fixpoint over everything
    /// added so far and returns a snapshot of the saturated state. On a
    /// session that was already solved, this *resumes*: only the frontier
    /// the new roots actually change is re-processed (the checkpoint
    /// invariant; see `engine.rs`). Solving an up-to-date session is a
    /// cheap no-op.
    ///
    /// # Panics
    ///
    /// Panics if the configured `max_steps` bound is exceeded (the
    /// fail-fast valve for engine bugs in tests), and on every condition
    /// [`AnalysisSession::try_solve`] reports as an error — graph-capacity
    /// exhaustion or an exhausted budget. Use
    /// [`try_solve`](AnalysisSession::try_solve) (or
    /// [`solve_interruptible`](AnalysisSession::solve_interruptible) for
    /// budgeted runs) to receive those as structured values instead.
    pub fn solve(&mut self) -> AnalysisSnapshot<'_> {
        self.try_solve()
            .unwrap_or_else(|e| panic!("analysis aborted: {e}"))
    }

    /// [`AnalysisSession::solve`], reporting mid-solve conditions as
    /// structured errors instead of panicking:
    ///
    /// * [`AnalysisError::TooManyFlows`] — the PVPG reached the `FlowId`
    ///   limit ([`crate::MAX_FLOW_COUNT`]); the engine stopped building
    ///   fragments and the incomplete fixpoint is never surfaced as `Ok`.
    /// * [`AnalysisError::Interrupted`] — a configured budget ran out. This
    ///   completion-only API cannot hand out a partial snapshot, but the
    ///   checkpoint is retained:
    ///   [`solve_interruptible`](AnalysisSession::solve_interruptible)
    ///   resumes (and exposes the partial state).
    pub fn try_solve(&mut self) -> Result<AnalysisSnapshot<'_>, AnalysisError> {
        match self.solve_inner(None)? {
            SolveEnd::Complete => Ok(self.snapshot()),
            SolveEnd::Interrupted(reason) => Err(AnalysisError::Interrupted { reason }),
        }
    }

    /// Runs the solver under the configured budgets and an optional
    /// cooperative cancel token, surfacing an interrupted solve as a value
    /// instead of an error.
    ///
    /// Returns [`SolveOutcome::Completed`] when the least fixpoint was
    /// reached, or [`SolveOutcome::Interrupted`] when a budget ran out or
    /// `cancel` tripped. The partial snapshot inside `Interrupted` is a
    /// sound under-approximation of the fixpoint — everything it reports
    /// reachable/live *is* — and its queries are tagged
    /// [`Completeness::Partial`](crate::Completeness::Partial). Calling any
    /// solve method again resumes from the exact checkpoint; by the
    /// checkpoint invariant the eventually completed fixpoint is
    /// bit-identical to an uninterrupted run.
    ///
    /// The token is level-triggered: a tripped token interrupts before the
    /// first step, so [`CancelToken::reset`] it before resuming. Budgets
    /// are per solve call — a step budget of `k` lets each resume advance
    /// up to `k` further steps.
    ///
    /// Hard failures still surface as errors: [`AnalysisError::TooManyFlows`].
    pub fn solve_interruptible(
        &mut self,
        cancel: Option<&CancelToken>,
    ) -> Result<SolveOutcome<'_>, AnalysisError> {
        match self.solve_inner(cancel)? {
            SolveEnd::Complete => Ok(SolveOutcome::Completed(self.snapshot())),
            SolveEnd::Interrupted(reason) => Ok(SolveOutcome::Interrupted {
                reason,
                partial: self.snapshot(),
            }),
        }
    }

    /// The shared solve driver: saturation fast path, root handoff, solver
    /// run, view refresh.
    fn solve_inner(&mut self, cancel: Option<&CancelToken>) -> Result<SolveEnd, AnalysisError> {
        // A capacity error is sticky: the engine stopped building fragments
        // mid-solve, so the incomplete fixpoint must keep being reported as
        // the error — in particular the saturated-no-op early return below
        // must never turn a failed solve into a stale Ok.
        if let Some(e) = self.engine.capacity_error() {
            return Err(e.clone());
        }
        if self.solves > 0
            && !self.dirty
            && self.pending_roots.is_empty()
            && self.engine.worklist_is_empty()
        {
            // Already saturated with no new roots: the worklist is empty, so
            // running the solver would only pay for a view refresh. Skip it —
            // this is what makes re-solving an up-to-date session genuinely
            // cheap. (After an interrupt the worklist is non-empty, so a
            // resume never takes this path.)
            self.solves += 1;
            self.last_solve_steps = 0;
            self.stats.solves = self.solves;
            return Ok(SolveEnd::Complete);
        }
        let start = Instant::now();
        let steps_before = self.engine.steps();
        let pending = std::mem::take(&mut self.pending_roots);
        self.engine.add_roots(&pending);
        let end = self.engine.run_solver(cancel);
        if let Some(e) = self.engine.capacity_error() {
            return Err(e.clone());
        }
        // Refresh the views on every other outcome — including an
        // interrupt: the graph is consistent at the checkpoint and the
        // partial state must be queryable.
        self.total_duration += start.elapsed();
        self.solves += 1;
        self.last_solve_steps = self.engine.steps() - steps_before;
        if self.rederiving {
            self.invalidation.rederive_steps += self.last_solve_steps;
            self.rederiving = end != SolveEnd::Complete;
        }
        self.reachable = self.engine.reachable_set();
        self.stats =
            self.engine
                .stats_snapshot(self.total_duration, self.solves, self.invalidation);
        // The refreshed views reflect every retraction/edit applied so far
        // (a completed solve drained the rebuilt engine; an interrupted one
        // still published a consistent checkpoint, and stays non-up-to-date
        // through the non-empty worklist).
        self.dirty = false;
        Ok(end)
    }

    /// A cheap borrowed view of the current state (empty before the first
    /// [`AnalysisSession::solve`]; roots added since the last solve are not
    /// reflected until the next one).
    pub fn snapshot(&self) -> AnalysisSnapshot<'_> {
        AnalysisSnapshot::new(
            self.engine.graph(),
            &self.reachable,
            self.engine.instantiated_bits(),
            self.engine.config(),
            &self.stats,
            self.completeness(),
        )
    }

    /// Extracts the current answers into an [`OwnedSnapshot`] that can
    /// outlive the session and cross threads — the publication primitive a
    /// server uses to keep answering queries against the last fixpoint
    /// while this session solves the next one. One pass over the call
    /// sites, writer cost, off the reader path; the PVPG stays here. See
    /// [`AnalysisSnapshot::to_owned_snapshot`].
    pub fn owned_snapshot(&self) -> OwnedSnapshot {
        self.snapshot().to_owned_snapshot()
    }

    /// The engine's memory estimate in bytes (flows plus edge lists) — the
    /// same figure the `MemoryBudget` interrupt checks, exposed so a session
    /// registry can enforce a global budget across many sessions.
    pub fn memory_estimate(&self) -> usize {
        self.engine.memory_estimate()
    }

    /// Whether the current state is a reached fixpoint over every accepted
    /// root ([`Completeness::Complete`]) or a checkpoint — interrupted
    /// solve, roots pending, capacity error, or nothing solved yet
    /// ([`Completeness::Partial`]). This is the tag every snapshot and
    /// result taken from the session carries.
    pub fn completeness(&self) -> Completeness {
        if self.is_up_to_date() {
            Completeness::Complete
        } else {
            Completeness::Partial
        }
    }

    /// Consumes the session into an owned [`AnalysisResult`] (the PVPG moves
    /// out; nothing is copied). Roots still pending a solve are *not*
    /// reflected — call [`AnalysisSession::solve`] first. The result keeps
    /// the session's [`completeness`](AnalysisSession::completeness) tag.
    pub fn into_result(self) -> AnalysisResult {
        let completeness = self.completeness();
        self.engine.finish(
            self.total_duration,
            self.solves,
            self.invalidation,
            completeness,
        )
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The configuration the session runs under.
    pub fn config(&self) -> &AnalysisConfig {
        self.engine.config()
    }

    /// Every accepted root, in acceptance order (deduplicated).
    pub fn roots(&self) -> &[MethodId] {
        &self.roots
    }

    /// Whether all accepted roots have been solved in. False once the
    /// engine hit the `FlowId` capacity limit, after an interrupted solve
    /// until a resume drains the remaining work, and after a retraction or
    /// edit until the next solve — in all three cases the
    /// published views do not describe the current configuration's
    /// fixpoint.
    pub fn is_up_to_date(&self) -> bool {
        self.solves > 0
            && !self.dirty
            && self.pending_roots.is_empty()
            && self.engine.worklist_is_empty()
            && self.engine.capacity_error().is_none()
    }

    /// Completed [`AnalysisSession::solve`] calls.
    pub fn solve_count(&self) -> u64 {
        self.solves
    }

    /// Worklist steps executed by the most recent solve alone — the
    /// incremental cost of a resume (the cumulative count is in
    /// [`SolveStats::steps`]).
    pub fn last_solve_steps(&self) -> u64 {
        self.last_solve_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_ir::frontend::compile;

    const SRC: &str = "
        class A { static method go(): void { return; } }
        class B { static method go(): void { A.go(); } }
        class Main {
          static method main(): void { A.go(); }
          static method extra(): void { B.go(); }
        }
    ";

    fn program_and_methods() -> (Program, MethodId, MethodId, MethodId, MethodId) {
        let p = compile(SRC).unwrap();
        let main_cls = p.type_by_name("Main").unwrap();
        let main = p.method_by_name(main_cls, "main").unwrap();
        let extra = p.method_by_name(main_cls, "extra").unwrap();
        let a = p.method_by_name(p.type_by_name("A").unwrap(), "go").unwrap();
        let b = p.method_by_name(p.type_by_name("B").unwrap(), "go").unwrap();
        (p, main, extra, a, b)
    }

    #[test]
    fn builder_validates_inputs() {
        let (p, main, ..) = program_and_methods();
        let bogus = MethodId::from_index(10_000);
        let err = AnalysisSession::builder(&p).roots([bogus]).build().unwrap_err();
        assert!(matches!(err, AnalysisError::UnknownMethod { .. }));

        let bogus_field = FieldId::from_index(10_000);
        let err = AnalysisSession::builder(&p)
            .roots([main])
            .reflective_fields([bogus_field])
            .build()
            .unwrap_err();
        assert!(matches!(err, AnalysisError::UnknownField { .. }));
    }

    #[test]
    fn solve_resume_extends_the_fixpoint() {
        let (p, main, extra, a, b) = program_and_methods();
        let mut session = AnalysisSession::builder(&p).skipflow().roots([main]).build().unwrap();
        assert!(!session.is_up_to_date());
        let snap = session.solve();
        assert!(snap.is_reachable(a) && !snap.is_reachable(b));
        assert!(session.is_up_to_date());

        // Adding a root and resuming reaches the new frontier…
        assert_eq!(session.add_roots([extra]).unwrap(), 1);
        assert!(!session.is_up_to_date());
        let snap = session.solve();
        assert!(snap.is_reachable(extra) && snap.is_reachable(b));
        assert_eq!(session.solve_count(), 2);
        // …and duplicates are ignored.
        assert_eq!(session.add_roots([extra, main]).unwrap(), 0);
        assert_eq!(session.roots(), &[main, extra]);

        // Re-solving an up-to-date session is a no-op.
        session.solve();
        assert_eq!(session.last_solve_steps(), 0);

        // The owned result matches a fresh union run.
        let resumed = session.into_result();
        let fresh = analyze(&p, &[main, extra], &AnalysisConfig::skipflow());
        assert_eq!(resumed.reachable_methods(), fresh.reachable_methods());
    }

    #[test]
    fn snapshot_before_solve_is_empty() {
        let (p, main, ..) = program_and_methods();
        let session = AnalysisSession::builder(&p).roots([main]).build().unwrap();
        let snap = session.snapshot();
        assert!(snap.reachable_methods().is_empty());
        assert_eq!(snap.stats().solves, 0);
    }

    #[test]
    fn retract_roots_matches_a_fresh_solve_of_the_survivors() {
        let (p, main, extra, a, b) = program_and_methods();
        let mut session = AnalysisSession::builder(&p)
            .skipflow()
            .roots([main, extra])
            .build()
            .unwrap();
        let snap = session.solve();
        assert!(snap.is_reachable(b));

        assert_eq!(session.retract_roots([extra]).unwrap(), 1);
        assert!(!session.is_up_to_date());
        assert_eq!(session.roots(), &[main]);
        let snap = session.solve();
        assert!(snap.is_reachable(main) && snap.is_reachable(a));
        assert!(!snap.is_reachable(extra) && !snap.is_reachable(b));
        assert!(snap.stats().invalidation.retractions == 1);
        assert!(snap.stats().invalidation.invalidated_flows > 0);
        assert!(session.is_up_to_date());

        // Retracting an unknown id rejects the batch; a non-root is a no-op.
        assert!(session.retract_roots([MethodId::from_index(9_999)]).is_err());
        assert_eq!(session.retract_roots([extra]).unwrap(), 0);

        let fresh = analyze(&p, &[main], &AnalysisConfig::skipflow());
        let resumed = session.into_result();
        assert_eq!(resumed.reachable_methods(), fresh.reachable_methods());
        assert_eq!(resumed.metrics(&p), fresh.metrics(&p));
    }

    #[test]
    fn method_edits_disable_and_restore_a_body() {
        let (p, main, _, a, _) = program_and_methods();
        let mut session = AnalysisSession::builder(&p).skipflow().roots([main]).build().unwrap();
        assert!(session.solve().is_reachable(a));

        // Disable A.go: it stays a discovered call target but the call
        // never returns, exactly like a fresh solve under the mask.
        assert!(session.apply_edit(a, MethodEdit::DisableBody).unwrap());
        assert!(!session.apply_edit(a, MethodEdit::DisableBody).unwrap());
        assert_eq!(session.masked_methods(), vec![a]);
        let snap = session.solve();
        let fresh = analyze(
            &p,
            &[main],
            &AnalysisConfig::skipflow().with_masked_methods([a]),
        );
        assert_eq!(
            snap.reachable_methods(),
            fresh.snapshot().reachable_methods()
        );
        assert_eq!(snap.metrics(&p), fresh.metrics(&p));
        assert_eq!(snap.stats().invalidation.edits, 1);

        // Restore: back to the unmasked fixpoint.
        assert!(session.apply_edit(a, MethodEdit::RestoreBody).unwrap());
        assert!(session.masked_methods().is_empty());
        let snap = session.solve();
        let fresh = analyze(&p, &[main], &AnalysisConfig::skipflow());
        assert_eq!(
            snap.reachable_methods(),
            fresh.snapshot().reachable_methods()
        );
        assert_eq!(snap.metrics(&p), fresh.metrics(&p));
    }

    #[test]
    fn add_roots_rejects_unknown_methods_without_corrupting_state() {
        let (p, main, extra, ..) = program_and_methods();
        let mut session = AnalysisSession::builder(&p).roots([main]).build().unwrap();
        session.solve();
        let err = session
            .add_roots([extra, MethodId::from_index(9_999)])
            .unwrap_err();
        assert!(matches!(err, AnalysisError::UnknownMethod { .. }));
        // The batch was rejected atomically: `extra` was not accepted.
        assert_eq!(session.roots(), &[main]);
    }
}
