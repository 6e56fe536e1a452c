//! The fixpoint engine: worklist propagation of whole value states over
//! the PVPG (paper Appendix C, Figure 15).
//!
//! The inference rules map onto the engine as follows:
//!
//! * **Source** — [`Engine::enable`] evaluates constant/`Any`/`new`/`null`
//!   sources when the flow is enabled; enabling a `new T` marks `T`
//!   instantiated.
//! * **Propagate** — [`Engine::process`] pushes the (filtered) output of an
//!   enabled flow along its use edges.
//! * **Predicate** — when an enabled flow's output becomes non-empty, its
//!   predicate successors are enabled.
//! * **Load/Store** — observe edges from receivers add use edges between
//!   field sinks and access flows as receiver types appear.
//! * **Invoke** — observe edges from receivers resolve and link callees:
//!   argument flows to formal parameters, callee return to the invoke flow.
//! * **TypeCheck/Cond/PassThrough** — the flow's output is a function of its
//!   input, filtered according to the flow kind (`Cond` uses
//!   [`crate::compare::compare`]).
//!
//! # The step rule
//!
//! The sequential solver has one step rule, the paper's: joins of whole
//! value states. [`Engine::join_in`] joins incoming state into a flow's
//! `in_state` with a plain monotone join, widens it to `Any` above the
//! saturation threshold (`maybe_saturate`), and queues the flow on change.
//! A worklist step recomputes the flow's output from its full `in_state`
//! ([`Engine::compute_out`]); [`Engine::apply_out`] joins that into
//! `out_state` and, on change, pushes the whole output along use,
//! predicate, and observe edges. Successor joins deduplicate, so pushing
//! bits a successor already holds changes nothing and queues nothing.
//!
//! **The no-op rule.** Plain pass-throughs, `TypeFilter`, and the
//! declared-type `Param` filter are distributive and map `⊥` to `⊥`. For
//! these kinds, a step whose input is still empty is a no-op: it computes
//! nothing and does not count as propagation work (the tiered queue's
//! frontier tier keys on that, see [`Engine::mark_worked`]). After a
//! flow's first step only a join that changed its input re-queues it, so
//! this is the only no-op such a step can be. The other kinds always
//! recompute: `CmpFilter` because its output also depends on the observed
//! right operand, whose growth re-queues it without new input (`x < y`
//! admits previously rejected values of `x` once `y` grows); `CatchAll`
//! because it adds `null` even to an empty input; and `PredOn` because it
//! is a constant source.
//!
//! **Why full joins.** The solver used to carry a second rule beside this
//! one: difference propagation, where each flow kept a pending delta of
//! not-yet-pushed input and a step filtered only that delta, plus a width
//! threshold that picked one rule per join. The second rule never paid for
//! itself. Steps and state joins were identical under every threshold on
//! every trajectory rung. The default threshold already took the full-join
//! path on most steps (296,708 of 346,149 on rung-32000, 12,267 of 14,128
//! on fanout-400). Paired, interleaved always-delta against always-full
//! runs never showed delta winning by the 10 % that would justify its
//! bookkeeping. On a shared 2-core host, the median delta/full wall ratios
//! of two runs (12 and 20 pairs) were 1.04 and 1.01 on rung-32000, 1.02
//! and 1.05 on fanout-400, and 1.12 and 1.08 on a wide-state shared sink
//! with 2,048 writers: delta was slower, if anything. Full joins also keep
//! [`Flow`] to two value states.
//!
//! All states grow monotonically and every output function is monotone,
//! so the solver reaches the same least fixpoint as the full-join
//! reference solver ([`SolverKind::Reference`], kept as the independent
//! FIFO oracle), and the worklist loop terminates because the lattice has
//! finite height.
//!
//! # Scheduling
//!
//! The sequential solver drains one worklist, the tiered queue
//! ([`TieredQueue`]), from the first step of every solve:
//!
//! * the **frontier tier** holds flows that have never done propagation
//!   work, drained first, in FIFO order;
//! * the **priority tier** holds re-enqueued flows, drained after them,
//!   lowest flow index first.
//!
//! **Why a frontier tier.** A first-time step is structure discovery: it
//! builds fragments and wires the edges later steps propagate along, and it
//! can be premature at most once. Re-processing ahead of discovery is what
//! wastes steps: a re-enqueued fan-out hub drained while an enabling
//! cascade is still growing re-propagates once per producer the cascade
//! discovers. The tiered queue's fan-out win comes from this tier: on
//! fanout-100 the sequential solver takes 3,523 steps where the FIFO
//! reference takes 43,497.
//!
//! **Why creation order is enough for the priority tier.** Flow indices are
//! creation order, and the engine creates flows as propagation discovers
//! them, a callee's fragment when a call first links it. So draining
//! re-enqueued flows in index order tends to settle a region before the
//! regions it discovered. The tier used to rank flows by an exact online
//! topological order of their strongly connected components, kept through
//! in-place repairs, anchored fragment placement and cycle collapse.
//! Keying it by flow index instead left every step count the CI gate
//! checks equal or lower: the ladder and resume-rung-2000 rows were
//! unchanged, fanout-100 went 3,616 → 3,531, fanout-200 7,120 → 7,035,
//! fanout-400 14,128 → 14,043 and resume-fanout-200 7,172 → 7,129. The
//! ungated rows moved both ways: PTA rung-2000 27,944 → 29,385 (+5.2 %),
//! PTA rung-32000 447,646 → 454,011 (+1.4 %). A constant key (the frontier
//! tier plus one FIFO) costs 14–18 % more steps on the SkipFlow fan-outs,
//! so the tier needs some order, but not an exact one.
//!
//! **Why no FIFO phase.** The solver used to start every solve on a plain
//! FIFO queue and *flip* to the tiered queue once a sliding window of
//! dequeues showed the queue dominated by re-processing. The FIFO phase and
//! its detector never won on any workload. Running the tiered queue from
//! the first step took 5.4–5.7 % fewer steps on every SkipFlow ladder rung
//! (rung-32000 346,149 → 326,621), 1.8–3.1 % fewer on the PTA rungs and
//! 0.0–0.2 % fewer on the fan-outs, with identical results. Its paired
//! wall ratio against the adaptive queue (tiered/adaptive, two runs of 24
//! alternating pairs each, in process on a shared 2-core host) was 0.912
//! and 0.925 on SkipFlow rung-8000, 0.933 and 0.955 on SkipFlow
//! rung-32000, 0.980 and 0.986 on PTA rung-8000, 0.990 and 0.984 on PTA
//! rung-32000, and 0.997/0.993 (SkipFlow) and 0.999/1.014 (PTA) on
//! fanout-400.
//!
//! **Correctness is scheduling-independent.** The order is purely a
//! performance heuristic: all joins are monotone, so any dequeue order
//! converges to the same least fixpoint. The reference solver always runs
//! its own plain FIFO loop — it is the oracle and stays byte-for-byte the
//! full-join algorithm.
//!
//! # Resume (the checkpoint argument)
//!
//! The engine is owned by an [`crate::AnalysisSession`] and may be solved
//! *repeatedly*: after a solve reaches its fixpoint, the session can add new
//! roots ([`Engine::add_roots`]) or restore a masked method body
//! ([`Engine::unmask_method`]) and solve again, continuing from the current
//! PVPG instead of rebuilding it. Every layer — `graph.rs`, this module,
//! `session.rs`, `report.rs`, and the server's `registry.rs`/`protocol.rs` —
//! relies on exactly this statement:
//!
//! > **Checkpoint invariant.** Between solves, the engine's state is a
//! > *sound under-approximation* of the least fixpoint of the current
//! > configuration (session roots + unmasked bodies), in which every
//! > derived fact is derivable in that configuration; re-running any solver
//! > to completion reaches that configuration's least fixpoint exactly.
//!
//! The engine only ever sees **monotone** mutations, for which the classical
//! argument applies, because every engine action is monotone and
//! idempotent:
//!
//! * all value states (`in_state`, `out_state`) only ever grow
//!   (joins in a finite-height lattice; saturation widens to the absorbing
//!   `Any`), and `enabled` flips only from `false` to `true`;
//! * structures only accrete — flows, edges, linked targets, instantiated
//!   types, reachable methods, subscribers, and saturated sites are never
//!   removed, and every registration replays the relevant *past* events
//!   (`subscribe` feeds already-instantiated subtypes, `push_state` feeds
//!   the source's current out-state, a saturating receiver re-dispatches
//!   over every type instantiated so far, a restored body is wired into
//!   every site that already resolved to it);
//! * a fixpoint is a state where no step can change anything, so re-running
//!   any solver over a saturated graph is a no-op, and injecting new roots
//!   merely enqueues the frontier their states actually change.
//!
//! Masking a body the engine has not reached ([`Engine::mask_method`])
//! deletes nothing: no fragment of it exists, and none will be built. The
//! **non-monotone** mutations — retracting a solved-in root, disabling a
//! reachable body — never reach an engine at all: the session discards it
//! and bootstraps a fresh one for the new configuration (see
//! [`crate::AnalysisSession::retract_roots`]). A freshly bootstrapped engine
//! sits at bottom, which under-approximates every fixpoint, so the invariant
//! holds by construction. Hence any interleaving of adds, retracts, edits,
//! and solves converges to the *same least fixpoint* as a fresh solve of the
//! final configuration — only the path (and the step count, which the
//! trajectory harness's `resume` and `edit-` rungs measure) differs.
//! `tests/session_resume.rs` and `tests/edit_scripts.rs` enforce the
//! identity differentially under both solvers.
//!
//! # Interrupt safety
//!
//! The checkpoint invariant makes *any* between-steps state a valid
//! checkpoint, which is what lets a solve stop early (budgets, the
//! cooperative [`crate::CancelToken`]) and resume later with zero special
//! machinery:
//!
//! * **Why stopping mid-solve is sound.** The scheduling invariant is that
//!   an enabled flow whose input changed since its last step is queued
//!   (except transiently *inside* a step). The engine only ever checks its
//!   interrupt guard ([`Engine::poll_interrupt`]) at points where no step
//!   is open — the top of the sequential and reference loops. So an
//!   interrupted engine is indistinguishable from one that was handed a
//!   larger worklist: every propagated fact is a fact of the least fixpoint
//!   (monotonicity — the partial result is a sound under-approximation),
//!   and the next [`Engine::run_solver`] simply keeps draining.
//! * **What survives an interrupt.** Everything, because nothing is torn
//!   down: the flows' states, the `queued` residency and worked bits, both
//!   tiers of the queue, the saturation and subscriber registries, and the
//!   cumulative counters.
//! * **Budget semantics.** The step budget is per-solve (`steps` executed
//!   since this `run_solver` call) and checked *exactly*, before every
//!   step, so an interrupt-at-`k` sweep is deterministic; the cancel
//!   token, wall clock, and memory estimate are polled every
//!   [`INTERRUPT_CHECK_STRIDE`] steps (the first poll of a solve always
//!   checks, so a pre-tripped token or zero budget interrupts before any
//!   work). Overshoot past a wall/memory budget is bounded by one stride.
//!
//! `tests/interrupt_resume.rs` and `tests/edit_scripts.rs` enforce all of
//! this differentially: interrupt at every `k`, resume, and require
//! bit-identical results to an uninterrupted solve under both solvers.

use crate::build::{build_method_graph, BuildScratch};
use crate::compare::compare;
use crate::config::{AnalysisConfig, SolverKind};
use crate::error::AnalysisError;
use crate::flow::{Flow, FlowId, FlowKind, SiteId, MAX_FLOW_COUNT};
use crate::graph::Pvpg;
use crate::interrupt::{CancelToken, Completeness, InterruptReason};
use crate::lattice::{TypeSet, ValueState};
use crate::metrics::{InterruptStats, InvalidationStats, SchedulerStats};
use crate::report::{AnalysisResult, ReachableSet, SolveStats};
use skipflow_ir::{BitSet, MethodId, Program, TypeId, TypeRef};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

/// Bit 0 of [`Engine::queued`]: the flow is resident in the worklist.
const QUEUED: u8 = 1;

/// Bit 1 of [`Engine::queued`]: some worklist step did real propagation
/// work for the flow (a no-op dequeue — disabled flow, empty input of a
/// distributive kind — does not count). This is the tiered queue's
/// frontier-tier signal: a flow stays in the frontier until its first
/// *working* step.
const WORKED: u8 = 2;

/// Flow-capacity headroom the engine keeps below [`MAX_FLOW_COUNT`]: a
/// single method fragment never creates this many flows, so checking once
/// per [`Engine::make_reachable`] (instead of per flow) cannot overshoot
/// into the `NO_FLOW` sentinel.
const FLOW_CAPACITY_MARGIN: usize = 1 << 22;

/// Worklist steps between polls of the cancel token / wall clock / memory
/// estimate. The step budget is *not* strided — it is one integer compare
/// against a precomputed end value, checked before every step, so
/// interrupt-at-`k` sweeps are exact. 1024 keeps the non-budget checks (an
/// atomic load, an `Instant::now`) far below 1% of wall time even on the
/// cheapest steps (the BENCH guard `cancel_check_overhead_within_1pct`
/// measures this on the 32000-flow rung), while bounding the response
/// latency to a trip at ~a thousand steps — microseconds, not seconds.
const INTERRUPT_CHECK_STRIDE: u64 = 1024;

/// How a solver loop ended: fixpoint reached, or stopped early at a valid
/// checkpoint (see the module docs, "Interrupt safety").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SolveEnd {
    /// The worklist drained: the least fixpoint over all added roots.
    Complete,
    /// A budget or the cancel token stopped the solve between steps.
    Interrupted(InterruptReason),
}

/// Per-solve interrupt guard, armed by [`Engine::run_solver`] only when a
/// budget is configured or a cancel token was passed — budget-less solves
/// skip the whole machinery on one `Option` test per step.
struct InterruptGuard {
    cancel: Option<CancelToken>,
    /// Absolute `Engine::steps` value at which the per-solve step budget is
    /// exhausted (`steps at solve start + budget`).
    step_end: Option<u64>,
    /// The configured step budget, for reason reporting.
    step_budget: u64,
    wall_budget: Option<Duration>,
    memory_budget: Option<usize>,
    /// When this solve started (the wall budget is per-solve).
    started: Instant,
    /// Absolute `Engine::steps` value of the next strided poll. Initialized
    /// to the solve-start step count so the *first* poll always does the
    /// full check: a pre-tripped token or zero wall/memory budget
    /// interrupts before any step runs.
    next_check_at: u64,
}

/// The tiered worklist (see the module docs, "Scheduling").
///
/// * **Frontier tier** — flows that have never done propagation work, in
///   FIFO order, drained before anything else: structure discovery first.
/// * **Priority tier** — re-enqueued flows, lowest flow index (creation
///   order) first. A flow is resident in the queue at most once, so the
///   min-heap holds no duplicates and a pop needs no staleness check.
struct TieredQueue {
    /// The frontier tier: never-worked flows, FIFO.
    fresh: VecDeque<u32>,
    /// The priority tier: re-enqueued flows by ascending index.
    again: BinaryHeap<Reverse<u32>>,
    /// Debug-only duplicate-enqueue guard: a flow must never be resident
    /// twice.
    #[cfg(debug_assertions)]
    resident: Vec<bool>,
}

impl TieredQueue {
    fn new() -> Self {
        TieredQueue {
            fresh: VecDeque::new(),
            again: BinaryHeap::new(),
            #[cfg(debug_assertions)]
            resident: Vec::new(),
        }
    }

    /// Enqueues `f`: never-worked flows (`fresh`) join the frontier tier,
    /// re-enqueued flows the priority tier.
    fn push(&mut self, f: FlowId, fresh: bool) {
        #[cfg(debug_assertions)]
        {
            if self.resident.len() <= f.index() {
                self.resident.resize(f.index() + 1, false);
            }
            debug_assert!(
                !self.resident[f.index()],
                "flow {f:?} would be resident in the queue twice"
            );
            self.resident[f.index()] = true;
        }
        let id = f.index() as u32;
        if fresh {
            self.fresh.push_back(id);
        } else {
            self.again.push(Reverse(id));
        }
    }

    /// Dequeues the frontier tier's oldest flow, else the priority tier's
    /// lowest index.
    fn pop(&mut self) -> Option<FlowId> {
        let id = match self.fresh.pop_front() {
            Some(id) => id,
            None => self.again.pop()?.0,
        };
        #[cfg(debug_assertions)]
        {
            self.resident[id as usize] = false;
        }
        Some(FlowId::from_index(id as usize))
    }

    fn is_empty(&self) -> bool {
        self.fresh.is_empty() && self.again.is_empty()
    }
}

/// The worklist, picked by the solver: the reference solver's plain FIFO
/// queue, or the sequential solver's tiered queue.
enum Worklist {
    Fifo(VecDeque<FlowId>),
    Tiered(TieredQueue),
}

pub(crate) struct Engine<'p> {
    program: &'p Program,
    config: AnalysisConfig,
    g: Pvpg,
    worklist: Worklist,
    /// Per-flow scheduling byte: bit 0 ([`QUEUED`]) = currently resident in
    /// the worklist; bit 1 ([`WORKED`]) = some step did propagation work.
    queued: Vec<u8>,
    /// Reachable methods: O(1) membership plus discovery order (sorted into
    /// a `BTreeSet` once, at the end).
    reachable: BitSet,
    reachable_order: Vec<MethodId>,
    instantiated: BitSet,
    instantiated_order: Vec<TypeId>,
    /// `(declared bound, target)`: target's input receives every
    /// instantiated subtype of the bound (root params, reflective fields,
    /// coarse exception handlers).
    type_subscribers: Vec<(TypeId, FlowId)>,
    /// Invoke sites whose receiver saturated to `Any`: re-dispatched on
    /// every newly instantiated type. Order vector for iteration, bitset
    /// for O(1) membership.
    saturated_sites: Vec<SiteId>,
    saturated_set: BitSet,
    /// Field sinks already seeded with their default value (by field index).
    defaulted_fields: BitSet,
    /// Methods whose bodies are currently masked out (seeded from
    /// [`AnalysisConfig::masked_methods`], mutated by [`Engine::mask_method`]
    /// / [`Engine::unmask_method`]): marked reachable when discovered, but
    /// no fragment is ever built while masked.
    masked: BitSet,
    /// Set once the PVPG hits the `FlowId` capacity limit: the engine stops
    /// building fragments and the session surfaces the error
    /// ([`crate::AnalysisSession::try_solve`]).
    overflow: Option<AnalysisError>,
    /// The active solve's interrupt guard (`None` on budget-less,
    /// token-less solves — the common case pays one `Option` test per step).
    guard: Option<InterruptGuard>,
    /// Whether the most recent solve ended interrupted (drives the
    /// `resumed_after_interrupt` statistic on the next solve).
    last_interrupted: bool,
    /// Cumulative interrupt statistics (engine-lifetime, like `steps`).
    interrupt_stats: InterruptStats,
    steps: u64,
    state_joins: u64,
    /// The fragment builder's reusable scratch and the build-output stacks
    /// (`crate::build` module docs, "Allocation-free growth").
    build: BuildScratch,
    /// Wall time spent inside `build_method_graph` (engine-lifetime).
    build_time: Duration,
}

impl<'p> Engine<'p> {
    pub(crate) fn new(program: &'p Program, config: AnalysisConfig) -> Self {
        // The reference solver is the oracle: it runs its own FIFO order.
        let worklist = match config.solver {
            SolverKind::Sequential => Worklist::Tiered(TieredQueue::new()),
            SolverKind::Reference => Worklist::Fifo(VecDeque::new()),
        };
        let masked = config.masked_methods.iter().map(|m| m.index()).collect();
        Engine {
            program,
            config,
            g: Pvpg::new(),
            worklist,
            queued: Vec::new(),
            reachable: BitSet::new(),
            reachable_order: Vec::new(),
            instantiated: BitSet::new(),
            instantiated_order: Vec::new(),
            type_subscribers: Vec::new(),
            saturated_sites: Vec::new(),
            saturated_set: BitSet::new(),
            defaulted_fields: BitSet::new(),
            masked,
            overflow: None,
            guard: None,
            last_interrupted: false,
            interrupt_stats: InterruptStats::default(),
            steps: 0,
            state_joins: 0,
            build: BuildScratch::default(),
            build_time: Duration::ZERO,
        }
    }

    /// The field sink for `field`, seeded once with the Java default value
    /// (`null` for references, 0 for primitives): an unwritten field read
    /// yields its default, so soundness requires it in the field's state.
    fn field_sink(&mut self, field: skipflow_ir::FieldId) -> FlowId {
        let sink = self.g.field_sink(field);
        self.sync_queued();
        if self.defaulted_fields.insert(field.index()) {
            let default = match self.program.field(field).ty {
                TypeRef::Object(_) => ValueState::null(),
                _ => {
                    if self.config.primitives {
                        ValueState::Const(0)
                    } else {
                        ValueState::Any
                    }
                }
            };
            self.join_in(sink, &default);
        }
        sink
    }

    /// One-time setup of the global flows and the configured reflective
    /// surface (§5). Called exactly once per engine, before its first
    /// solve; analysis roots are added separately via [`Engine::add_roots`].
    pub(crate) fn bootstrap(&mut self) {
        // pred_on is enabled with a non-empty token state, so the flows it
        // predicates are enabled transitively.
        let pred_on = self.g.pred_on;
        self.g.flow_mut(pred_on).enabled = true;
        self.sync_queued();
        self.join_in(pred_on, &ValueState::Const(1));
        // The global pools are always-enabled pass-throughs.
        for sink in [self.g.thrown_sink, self.g.unsafe_sink] {
            self.g.flow_mut(sink).enabled = true;
        }
        self.enqueue(pred_on);

        let reflective_roots = self.config.reflective_roots.clone();
        for m in reflective_roots {
            self.make_root(m);
        }
        let reflective_fields = self.config.reflective_fields.clone();
        for field in reflective_fields {
            let sink = self.field_sink(field);
            let declared = self.program.field(field).ty;
            self.inject(sink, declared);
        }
        self.sync_queued();
    }

    /// A freshly bootstrapped engine for this engine's configuration under
    /// the current mask, with no roots: the session swaps it in on a
    /// non-monotone mutation (module docs, "Resume"). The fragment
    /// builder's scratch moves to the new engine, which rebuilds every
    /// reached fragment, so the rebuild starts with warm buffers.
    pub(crate) fn rebuilt(&mut self) -> Engine<'p> {
        let mut config = self.config.clone();
        config.masked_methods = self.masked_list();
        let mut engine = Engine::new(self.program, config);
        engine.build = std::mem::take(&mut self.build);
        engine.bootstrap();
        engine
    }

    /// Adds analysis roots (paper §5: parameters injected with every
    /// instantiated subtype of their declared types). May be called again
    /// after a solve completed — the checkpoint invariant (module docs)
    /// guarantees re-solving then reaches the same fixpoint as a fresh
    /// analysis over the union of all roots.
    pub(crate) fn add_roots(&mut self, roots: &[MethodId]) {
        for &m in roots {
            self.make_root(m);
        }
        self.sync_queued();
    }

    /// Runs the configured solver until the current worklist is drained —
    /// or until a budget / the `cancel` token stops it at a checkpoint
    /// (module docs, "Interrupt safety").
    pub(crate) fn run_solver(&mut self, cancel: Option<&CancelToken>) -> SolveEnd {
        if self.last_interrupted {
            self.last_interrupted = false;
            self.interrupt_stats.resumed_after_interrupt += 1;
        }
        self.arm_guard(cancel);
        let end = match self.config.solver {
            SolverKind::Sequential => self.solve_sequential(),
            SolverKind::Reference => self.solve_reference(),
        };
        self.guard = None;
        if let SolveEnd::Interrupted(_) = end {
            self.last_interrupted = true;
            self.interrupt_stats.interrupts += 1;
        }
        end
    }

    /// Arms the per-solve interrupt guard: `None` (the common, zero-cost
    /// case) unless a budget is configured or a token was passed.
    fn arm_guard(&mut self, cancel: Option<&CancelToken>) {
        let cfg = &self.config;
        let wanted = cancel.is_some()
            || cfg.step_budget.is_some()
            || cfg.wall_budget.is_some()
            || cfg.memory_budget.is_some();
        self.guard = wanted.then(|| InterruptGuard {
            cancel: cancel.cloned(),
            step_end: cfg.step_budget.map(|b| self.steps.saturating_add(b)),
            step_budget: cfg.step_budget.unwrap_or(0),
            wall_budget: cfg.wall_budget,
            memory_budget: cfg.memory_budget,
            started: Instant::now(),
            next_check_at: self.steps,
        });
    }

    /// The interrupt check, called only between steps (never with
    /// a step open). The step budget is an exact compare every call; the
    /// token, wall clock, and memory estimate are polled every
    /// [`INTERRUPT_CHECK_STRIDE`] steps, with the first poll of a solve
    /// always checking (so a pre-tripped token interrupts before step one).
    #[inline]
    fn poll_interrupt(&mut self) -> Option<InterruptReason> {
        let steps = self.steps;
        let guard = self.guard.as_mut()?;
        if let Some(end) = guard.step_end {
            if steps >= end {
                return Some(InterruptReason::StepBudget {
                    budget: guard.step_budget,
                });
            }
        }
        if steps < guard.next_check_at {
            return None;
        }
        guard.next_check_at = steps.saturating_add(INTERRUPT_CHECK_STRIDE);
        if guard.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Some(InterruptReason::Cancelled);
        }
        if let Some(budget) = guard.wall_budget {
            if guard.started.elapsed() >= budget {
                return Some(InterruptReason::WallBudget { budget });
            }
        }
        let budget_bytes = guard.memory_budget?;
        let estimated_bytes = self.memory_estimate();
        if estimated_bytes > budget_bytes {
            return Some(InterruptReason::MemoryBudget {
                budget_bytes,
                estimated_bytes,
            });
        }
        None
    }

    /// A cheap O(1) estimate of the engine's dominant heap footprint: the
    /// graph's per-flow tables ([`Pvpg::BYTES_PER_FLOW`]: the flow record,
    /// its origin, and a CSR start and a spill head per edge pool) plus the
    /// edge storage (4 bytes per sealed edge, 8 per spill edge).
    /// Deliberately a proxy: it leaves out the heap bands of type sets that
    /// span more than one word, the call-site arena and the per-method
    /// pools, the dynamic-edge dedup set, the engine's own per-flow and
    /// per-type tables, and every vector's spare capacity. It is monotone in
    /// the quantities that actually grow without bound (flows and edges),
    /// which is what a memory budget guards against.
    pub(crate) fn memory_estimate(&self) -> usize {
        self.g.flow_count() * Pvpg::BYTES_PER_FLOW + self.g.edge_bytes()
    }

    /// Whether the worklist has pending work. An empty worklist (with no
    /// open capacity error) means the engine is at its fixpoint; non-empty
    /// means the last solve was interrupted (or never run).
    pub(crate) fn worklist_is_empty(&self) -> bool {
        match &self.worklist {
            Worklist::Fifo(q) => q.is_empty(),
            Worklist::Tiered(q) => q.is_empty(),
        }
    }

    /// Worklist steps executed so far (cumulative across solves).
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// The structured capacity error, if the PVPG hit the `FlowId` limit
    /// during a solve (the fixpoint is then incomplete and must not be
    /// reported as a result).
    pub(crate) fn capacity_error(&self) -> Option<&AnalysisError> {
        self.overflow.as_ref()
    }

    /// The live PVPG.
    pub(crate) fn graph(&self) -> &Pvpg {
        &self.g
    }

    /// The configuration the engine runs under.
    pub(crate) fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The instantiated-types bitset.
    pub(crate) fn instantiated_bits(&self) -> &BitSet {
        &self.instantiated
    }

    /// A sorted copy of the current reachable set (for session snapshots).
    pub(crate) fn reachable_set(&self) -> ReachableSet {
        ReachableSet::from_discovery(self.reachable.clone(), self.reachable_order.clone())
    }

    /// The current solver statistics. `duration`, `solves` and
    /// `invalidation` are session-owned: they outlive an engine rebuild.
    pub(crate) fn stats_snapshot(
        &self,
        duration: Duration,
        solves: u64,
        invalidation: InvalidationStats,
    ) -> SolveStats {
        let (use_edges, pred_edges, obs_edges) = self.g.edge_counts();
        SolveStats {
            steps: self.steps,
            state_joins: self.state_joins,
            flows: self.g.flow_count(),
            use_edges,
            pred_edges,
            obs_edges,
            solves,
            scheduler: SchedulerStats::default(),
            interrupt: self.interrupt_stats,
            invalidation,
            duration,
            build: self.build_time,
        }
    }

    fn sync_queued(&mut self) {
        let n = self.g.flow_count();
        if self.queued.len() < n {
            self.queued.resize(n, 0);
        }
    }

    fn enqueue(&mut self, f: FlowId) {
        let slot = &mut self.queued[f.index()];
        if *slot & QUEUED != 0 {
            return;
        }
        let fresh = *slot & WORKED == 0;
        *slot |= QUEUED;
        match &mut self.worklist {
            Worklist::Fifo(q) => q.push_back(f),
            Worklist::Tiered(q) => q.push(f, fresh),
        }
    }

    /// Marks a dequeued flow off-queue. The [`WORKED`] bit is *not* set
    /// here: a pop that turns out to be a no-op (disabled flow, empty input
    /// of a distributive kind) has not done any propagation work, so the
    /// flow stays in the tiered queue's frontier tier until a step actually
    /// computes something ([`Engine::mark_worked`]).
    #[inline]
    fn note_dequeued(&mut self, f: FlowId) {
        self.queued[f.index()] &= !QUEUED;
    }

    /// Records that a worklist step did real propagation work for `f` —
    /// from here on, re-enqueues of `f` join the priority tier instead of
    /// the frontier tier.
    #[inline]
    fn mark_worked(&mut self, f: FlowId) {
        self.queued[f.index()] |= WORKED;
    }

    /// Creates an injection source for `declared` feeding `target`.
    fn inject(&mut self, target: FlowId, declared: TypeRef) {
        let rs = self.g.add_root_source(declared);
        self.sync_queued();
        self.g.add_use_dedup(rs, target);
        match declared {
            TypeRef::Prim | TypeRef::Void => {
                self.join_in(rs, &ValueState::Any);
            }
            TypeRef::Object(bound) => {
                self.subscribe(bound, rs);
            }
        }
    }

    /// Registers `target` to receive every instantiated subtype of `bound`,
    /// past and future.
    fn subscribe(&mut self, bound: TypeId, target: FlowId) {
        let mut existing = TypeSet::new();
        for t in self.program.subtypes(bound).iter() {
            if self.instantiated.contains(t) {
                existing.insert(TypeId::from_index(t));
            }
        }
        if !existing.is_empty() {
            let state = ValueState::Types(existing);
            self.join_in(target, &state);
        }
        self.type_subscribers.push((bound, target));
    }

    /// Joins `state` into `target`'s input (a plain monotone join, then
    /// saturation) and queues the flow on change.
    ///
    /// Disabled flows accumulate without being queued: dequeuing them would
    /// be a no-op, and [`Engine::enable`] queues the flow when its predicate
    /// fires, at which point its first step pushes everything accumulated.
    fn join_in(&mut self, target: FlowId, state: &ValueState) {
        let flow = self.g.flow_mut(target);
        if join_state(flow, state, self.config.saturation_threshold) {
            self.state_joins += 1;
            if flow.enabled {
                self.enqueue(target);
            }
        }
    }

    /// Marks `m` reachable, building its PVPG fragment on first contact.
    fn make_reachable(&mut self, m: MethodId) {
        // FlowId capacity guard (checked once per fragment): probe, via the
        // checked conversion, whether the fragment's worst-case last flow
        // index would still be a valid id — `FLOW_CAPACITY_MARGIN` bounds
        // any single fragment's flows. Past the limit the engine stops
        // growing the graph and the session surfaces the structured
        // `TooManyFlows` instead of corrupting the intrusive lists.
        if self.overflow.is_some() {
            return;
        }
        if FlowId::try_from_index(self.g.flow_count() + FLOW_CAPACITY_MARGIN).is_err() {
            self.overflow = Some(AnalysisError::TooManyFlows {
                flows: self.g.flow_count(),
                limit: MAX_FLOW_COUNT,
            });
            return;
        }
        if !self.reachable.insert(m.index()) {
            return;
        }
        self.reachable_order.push(m);
        if self.masked.contains(m.index()) {
            // Edited-out body: the method is a discovered call target (the
            // reachability fact stands) but contributes no fragment — calls
            // into it wire nothing and never return (`Engine::mask_method`).
            return;
        }
        if !self.program.method(m).has_body() {
            return; // abstract targets are never resolved to, but be safe
        }
        self.build_fragment(m);
    }

    /// Builds `m`'s PVPG fragment and runs its enable-time actions. The
    /// graph is recorded in the [`Pvpg`] only after those actions ran, so
    /// a self-recursive static call linked while enabling the body
    /// observes no callee graph and stays unwired.
    ///
    /// The actions are this fragment's entries on the build-output stacks,
    /// walked by index: they can build further fragments, which push above
    /// them and truncate back before returning (`crate::build` module
    /// docs, "Allocation-free growth").
    fn build_fragment(&mut self, m: MethodId) {
        let enables_from = self.build.enables.len();
        let pushes_from = self.build.pushes.len();
        let catches_from = self.build.catch_subscribers.len();
        let started = Instant::now();
        let mg = build_method_graph(&mut self.g, &mut self.build, self.program, &self.config, m);
        self.build_time += started.elapsed();
        let (enables_to, pushes_to, catches_to) = (
            self.build.enables.len(),
            self.build.pushes.len(),
            self.build.catch_subscribers.len(),
        );
        self.sync_queued();
        if self.config.predicates {
            for i in enables_from..enables_to {
                let f = self.build.enables[i];
                self.enable(f);
            }
        } else {
            // Baseline: every flow is enabled at creation.
            for f in self.g.method_flows(&mg) {
                self.enable(f);
            }
        }
        for i in pushes_from..pushes_to {
            let (s, t) = self.build.pushes[i];
            // Seed defaults for field sinks created during construction
            // (static-field accesses wire their sink at build time).
            for end in [s, t] {
                if let FlowKind::FieldSink { field } = self.g.flow(end).kind {
                    self.field_sink(field);
                }
            }
            self.push_state(s, t);
        }
        for i in catches_from..catches_to {
            let (ty, f) = self.build.catch_subscribers[i];
            self.subscribe(ty, f);
        }
        self.build.enables.truncate(enables_from);
        self.build.pushes.truncate(pushes_from);
        self.build.catch_subscribers.truncate(catches_from);
        self.g.set_method_graph(m, mg);
    }

    /// Marks `m` as a root: reachable, with parameters injected per the
    /// reflection policy (paper §5).
    fn make_root(&mut self, m: MethodId) {
        self.make_reachable(m);
        self.inject_params(m);
    }

    /// Injects every instantiated subtype of each parameter's declared type
    /// into `m`'s parameters (nothing while `m` has no fragment).
    fn inject_params(&mut self, m: MethodId) {
        let Some(&graph) = self.g.method_graph(m) else { return };
        let md = self.program.method(m);
        for i in 0..self.g.method_params(&graph).len() {
            let p = self.g.method_params(&graph)[i];
            self.inject(p, md.param_type(i));
        }
    }

    /// Enables a flow (the Predicate rule's conclusion), evaluating source
    /// kinds (the Source rule) and firing enable-time actions.
    fn enable(&mut self, f: FlowId) {
        if self.g.flow(f).enabled {
            return;
        }
        self.g.flow_mut(f).enabled = true;
        match self.g.flow(f).kind.clone() {
            FlowKind::Const(n) => {
                let v = if self.config.primitives {
                    ValueState::Const(n)
                } else {
                    ValueState::Any
                };
                self.join_in(f, &v);
            }
            FlowKind::AnyPrim => {
                self.join_in(f, &ValueState::Any);
            }
            FlowKind::NullSource => {
                self.join_in(f, &ValueState::null());
            }
            FlowKind::PhiPred => {
                // φ_pred joins predicates, not values: once any incoming
                // predicate enables it, it carries an artificial token so its
                // own predicate successors fire (paper §3 "Joining Values
                // using φ Flows": the code after a join is executable iff the
                // end of any of its predecessors is).
                self.join_in(f, &ValueState::Const(1));
            }
            FlowKind::New(t) => {
                self.join_in(f, &ValueState::of_type(t));
                self.instantiate(t);
            }
            FlowKind::InvokeStatic { site } => {
                let target = self.g.site(site).static_target.expect("static site");
                self.link(site, target);
            }
            FlowKind::Invoke { .. } | FlowKind::Load { .. } | FlowKind::Store { .. } => {
                self.handle_receiver_update(f);
            }
            _ => {}
        }
        self.enqueue(f);
    }

    /// Records a newly instantiated type and notifies subscribers and
    /// saturated dispatch sites. Both lists are iterated by index — they can
    /// grow behind the cursor (a dispatch can reach code that subscribes or
    /// saturates), and late entries handle already-instantiated types
    /// themselves — so nothing is cloned.
    fn instantiate(&mut self, t: TypeId) {
        if !self.instantiated.insert(t.index()) {
            return;
        }
        self.instantiated_order.push(t);
        let state = ValueState::of_type(t);
        let mut i = 0;
        while i < self.type_subscribers.len() {
            let (bound, target) = self.type_subscribers[i];
            if self.program.is_subtype(t, bound) {
                self.join_in(target, &state);
            }
            i += 1;
        }
        let mut i = 0;
        while i < self.saturated_sites.len() {
            let site = self.saturated_sites[i];
            self.dispatch_type(site, t);
            i += 1;
        }
    }

    /// One worklist step (sequential solver): recompute the flow's output
    /// from its full input and propagate it (module docs, "The step rule").
    fn process(&mut self, f: FlowId) {
        self.steps += 1;
        let flow = self.g.flow(f);
        if !flow.enabled {
            // Disabled flows keep accumulating their input until enabled.
            return;
        }
        // The no-op rule: a distributive kind maps an empty input to an
        // empty output. The other kinds are also re-queued by observer
        // notifications without new input, so they always recompute.
        let distributive = !matches!(
            flow.kind,
            FlowKind::CmpFilter { .. } | FlowKind::CatchAll { .. } | FlowKind::PredOn
        );
        if distributive && flow.in_state.is_empty() {
            return;
        }
        self.mark_worked(f);
        let out_new = self.compute_out(f);
        self.apply_out(f, out_new);
    }

    /// Full-input output computation (the TypeCheck / Cond / PassThrough
    /// rules), shared by both solvers.
    fn compute_out(&self, f: FlowId) -> ValueState {
        let flow = self.g.flow(f);
        match &flow.kind {
            FlowKind::TypeFilter { ty, negated } => {
                filter_typecheck(self.program, &flow.in_state, *ty, *negated)
            }
            FlowKind::CatchAll { ty } => {
                let mut out = filter_typecheck(self.program, &flow.in_state, *ty, false);
                // Handlers may observe null under the coarse exception model
                // (the reference interpreter yields null when no matching
                // exception was thrown); keeping null here makes the two
                // agree and is conservative.
                out.join(&ValueState::null());
                out
            }
            FlowKind::CmpFilter { op, other } => {
                let vr = &self.g.flow(*other).out_state;
                compare(*op, &flow.in_state, vr)
            }
            FlowKind::Param { declared, .. } => {
                declared_filter(self.program, &flow.in_state, *declared)
            }
            FlowKind::PredOn => ValueState::Const(1),
            _ => flow.in_state.clone(),
        }
    }

    /// Joins a step's output into `out_state` with a plain monotone join
    /// and, on change, propagates the *entire* output state along use,
    /// predicate, and observe edges — the step tail of both solvers.
    /// Successor `join_in`s deduplicate, so re-propagating bits a successor
    /// already holds changes nothing there.
    fn apply_out(&mut self, f: FlowId, new_out: ValueState) {
        let sat = self.config.saturation_threshold;
        let changed = {
            let flow = self.g.flow_mut(f);
            let changed = flow.out_state.join(&new_out);
            if changed {
                maybe_saturate(&mut flow.out_state, sat);
            }
            changed
        };
        if !changed {
            return;
        }
        let out = self.g.flow(f).out_state.clone();
        let mut cur = self.g.uses.cursor(f);
        while let Some(t) = self.g.uses.next(&mut cur) {
            self.join_in(t, &out);
        }
        if out.is_non_empty() {
            let mut cur = self.g.preds.cursor(f);
            while let Some(t) = self.g.preds.next(&mut cur) {
                self.enable(t);
            }
        }
        let mut cur = self.g.observes.cursor(f);
        while let Some(t) = self.g.observes.next(&mut cur) {
            self.notify_observer(t);
        }
    }

    /// Observer notification: comparisons re-filter; receivers of loads,
    /// stores, and invokes trigger field wiring / method linking.
    fn notify_observer(&mut self, o: FlowId) {
        match self.g.flow(o).kind {
            FlowKind::CmpFilter { .. } => self.enqueue(o),
            FlowKind::Invoke { .. } | FlowKind::Load { .. } | FlowKind::Store { .. } => {
                self.handle_receiver_update(o)
            }
            _ => {}
        }
    }

    /// Load / Store / Invoke rules: react to the receiver's current value
    /// state (requires the acting flow to be enabled).
    fn handle_receiver_update(&mut self, f: FlowId) {
        if !self.g.flow(f).enabled {
            return;
        }
        match self.g.flow(f).kind.clone() {
            FlowKind::Invoke { site } => {
                let recv = self.g.site(site).receiver.expect("virtual site has receiver");
                match self.g.flow(recv).out_state.clone() {
                    ValueState::Types(s) => {
                        for t in s.iter() {
                            self.dispatch_type(site, t);
                        }
                    }
                    ValueState::Any
                        // Saturated receiver: dispatch over every
                        // instantiated type, now and in the future. The
                        // order list is walked by index — it can grow while
                        // dispatching (a callee can instantiate), and
                        // `instantiate` forwards late arrivals to this site.
                        if !self.saturated_set.contains(site.index()) => {
                            self.saturated_set.insert(site.index());
                            self.saturated_sites.push(site);
                            let mut i = 0;
                            while i < self.instantiated_order.len() {
                                let t = self.instantiated_order[i];
                                self.dispatch_type(site, t);
                                i += 1;
                            }
                        }
                    _ => {}
                }
            }
            FlowKind::Load { field, receiver }
                if self.receiver_reaches_field(receiver, field) => {
                    let sink = self.field_sink(field);
                    if self.g.add_use_dedup(sink, f) {
                        self.push_state(sink, f);
                    }
                }
            FlowKind::Store { field, receiver }
                if self.receiver_reaches_field(receiver, field) => {
                    let sink = self.field_sink(field);
                    if self.g.add_use_dedup(f, sink) {
                        self.push_state(f, sink);
                    }
                }
            _ => {}
        }
    }

    /// The Load/Store rules' premise `t ∈ VSout(r), LookUp(t, x)` — whether
    /// some receiver type declares/inherits the field. One flow exists per
    /// field declaration, so a single positive answer wires the access.
    fn receiver_reaches_field(&self, receiver: Option<FlowId>, field: skipflow_ir::FieldId) -> bool {
        let Some(recv) = receiver else {
            return false; // static accesses are wired at construction
        };
        match &self.g.flow(recv).out_state {
            ValueState::Types(s) => s
                .iter()
                .any(|t| self.program.lookup_field(t, field).is_some()),
            // Saturated receiver: connect conservatively.
            ValueState::Any => true,
            _ => false,
        }
    }

    /// Virtual dispatch for one receiver type at one site (the Invoke rule).
    fn dispatch_type(&mut self, site: SiteId, t: TypeId) {
        if t.is_null() {
            return;
        }
        {
            let s = self.g.site_mut(site);
            if !s.seen_receiver_types.insert(t.index()) {
                return;
            }
        }
        let selector = self.g.site(site).selector.expect("virtual site");
        if let Some(target) = self.program.resolve(t, selector) {
            self.link(site, target);
        }
    }

    /// Links a call site to a resolved target: marks the target reachable and
    /// wires arguments to parameters and the callee return to the invoke flow
    /// (the Invoke rule's conclusion).
    fn link(&mut self, site: SiteId, target: MethodId) {
        {
            let s = self.g.site_mut(site);
            if !s.linked_set.insert(target.index()) {
                return;
            }
            s.linked.push(target);
        }
        self.wire_link(site, target);
    }

    /// Physically wires an established `site → target` link: marks the
    /// target reachable (building its fragment on first contact) and wires
    /// `argument → parameter` and `return → invoke` edges. Split from
    /// [`Engine::link`] so a restored body can be wired into the sites that
    /// already resolved to it without touching the recorded bookkeeping. The
    /// `linked` lists carry abstract targets (recorded for call-graph
    /// reports), so the abstract guard lives here, on the wiring side.
    fn wire_link(&mut self, site: SiteId, target: MethodId) {
        if self.program.method(target).is_abstract {
            return;
        }
        self.make_reachable(target);
        let Some(&callee) = self.g.method_graph(target) else { return };
        // Arguments and parameters are read by index from their pools: the
        // loop body mutates the graph, so no slice can be held across it.
        let n = self.g.site_args(site).len().min(self.g.method_params(&callee).len());
        for i in 0..n {
            let a = self.g.site_args(site)[i];
            let p = self.g.method_params(&callee)[i];
            if self.g.add_use_dedup(a, p) {
                self.push_state(a, p);
            }
        }
        if let Some(r) = callee.ret {
            let invoke_flow = self.g.site(site).flow;
            if self.g.add_use_dedup(r, invoke_flow) {
                self.push_state(r, invoke_flow);
            }
        }
    }

    /// Pushes `s`'s current output into `t`'s input, respecting the
    /// only-enabled-flows-propagate rule. Used when an edge is added after
    /// its source already carries state (not on the steady-state step path).
    /// The join reads the source in place; only a self-edge (`s == t`,
    /// a method passing its parameter back to itself) clones the state.
    fn push_state(&mut self, s: FlowId, t: FlowId) {
        if s == t {
            let src = self.g.flow(s);
            if src.enabled && src.out_state.is_non_empty() {
                let out = src.out_state.clone();
                self.join_in(t, &out);
            }
            return;
        }
        let [src, dst] = self
            .g
            .flows
            .get_disjoint_mut([s.index(), t.index()])
            .expect("distinct flows in the arena");
        if !(src.enabled && src.out_state.is_non_empty()) {
            return;
        }
        if join_state(dst, &src.out_state, self.config.saturation_threshold) {
            self.state_joins += 1;
            if dst.enabled {
                self.enqueue(t);
            }
        }
    }

    // ---- method-body edits ------------------------------------------------
    //
    // Only the monotone side lives here: a body the engine already reached
    // is never masked in place — the session rebuilds the engine under the
    // new mask instead (module docs, "Resume").

    /// Whether `m` has been marked reachable.
    pub(crate) fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(m.index())
    }

    /// How many methods have been marked reachable.
    pub(crate) fn reachable_count(&self) -> usize {
        self.reachable_order.len()
    }

    /// Records `m`'s body as masked out. Returns `false` if `m` was already
    /// masked. A masked method stays a discoverable call target but builds
    /// no fragment, so calls into it never return — the same semantics a
    /// fresh solve gives [`AnalysisConfig::with_masked_methods`]. Only sound
    /// in place while `m` is unreachable (no fragment exists yet).
    pub(crate) fn mask_method(&mut self, m: MethodId) -> bool {
        self.masked.insert(m.index())
    }

    /// Restores a masked body. Returns `false` if `m` was not masked.
    /// Purely monotone: if `m` is reachable, its fragment is built and
    /// wired into every site that already resolved to it.
    pub(crate) fn unmask_method(&mut self, m: MethodId, is_root: bool) -> bool {
        if !self.masked.remove(m.index()) {
            return false;
        }
        self.resurrect_body(m, is_root);
        true
    }

    /// The currently masked methods, in id order (for session snapshots and
    /// server epochs).
    pub(crate) fn masked_list(&self) -> Vec<MethodId> {
        self.masked.iter().map(MethodId::from_index).collect()
    }

    /// Builds the fragment of a just-unmasked reachable method and wires it
    /// into the sites that already link to it. Collecting the caller sites
    /// *before* the build excludes `m`'s own self-links, which a fresh build
    /// also leaves unwired (see [`Engine::build_fragment`]).
    fn resurrect_body(&mut self, m: MethodId, is_root: bool) {
        if !self.reachable.contains(m.index())
            || self.g.method_graph(m).is_some()
            || !self.program.method(m).has_body()
            || self.overflow.is_some()
        {
            return;
        }
        if FlowId::try_from_index(self.g.flow_count() + FLOW_CAPACITY_MARGIN).is_err() {
            self.overflow = Some(AnalysisError::TooManyFlows {
                flows: self.g.flow_count(),
                limit: MAX_FLOW_COUNT,
            });
            return;
        }
        let mut callers: Vec<SiteId> = Vec::new();
        for (_, mg) in self.g.method_graphs() {
            for site in self.g.method_sites(mg) {
                if self.g.site(site).linked_set.contains(m.index()) {
                    callers.push(site);
                }
            }
        }
        self.build_fragment(m);
        for site in callers {
            self.wire_link(site, m);
        }
        if is_root {
            self.inject_params(m);
        }
        self.sync_queued();
    }

    // ---- solvers ----------------------------------------------------------

    pub(crate) fn solve_sequential(&mut self) -> SolveEnd {
        loop {
            // Interrupts are only taken while work remains: an exhausted
            // budget races a drained worklist in favour of completion.
            if self.worklist_is_empty() {
                return SolveEnd::Complete;
            }
            if let Some(reason) = self.poll_interrupt() {
                return SolveEnd::Interrupted(reason);
            }
            // [`Engine::new`] gives the sequential solver the tiered queue.
            let Worklist::Tiered(q) = &mut self.worklist else {
                unreachable!("the sequential solver runs the tiered queue");
            };
            let Some(f) = q.pop() else { return SolveEnd::Complete };
            self.note_dequeued(f);
            self.process(f);
        }
    }

    /// The full-join reference loop: recomputes each dequeued flow's output
    /// from its entire input and re-joins the entire output into every
    /// successor. Kept as the differential-testing oracle and the perf
    /// baseline the trajectory harness compares against.
    pub(crate) fn solve_reference(&mut self) -> SolveEnd {
        // [`Engine::new`] forces the FIFO worklist for the reference solver.
        let Worklist::Fifo(_) = &self.worklist else {
            unreachable!("reference solver always runs FIFO");
        };
        loop {
            let Worklist::Fifo(q) = &mut self.worklist else { unreachable!() };
            if q.is_empty() {
                return SolveEnd::Complete;
            }
            if let Some(reason) = self.poll_interrupt() {
                return SolveEnd::Interrupted(reason);
            }
            let Worklist::Fifo(q) = &mut self.worklist else { unreachable!() };
            let Some(f) = q.pop_front() else { return SolveEnd::Complete };
            self.note_dequeued(f);
            self.process_reference(f);
        }
    }

    /// One full-join step (reference solver only).
    fn process_reference(&mut self, f: FlowId) {
        self.steps += 1;
        if !self.g.flow(f).enabled {
            return;
        }
        let new_out = self.compute_out(f);
        self.apply_out(f, new_out);
    }

    /// Consumes the engine into an owned [`AnalysisResult`] (zero-copy: the
    /// PVPG moves out). The session supplies the completeness tag — the
    /// engine cannot know about roots still pending a solve.
    pub(crate) fn finish(
        self,
        elapsed: Duration,
        solves: u64,
        invalidation: InvalidationStats,
        completeness: Completeness,
    ) -> AnalysisResult {
        let stats = self.stats_snapshot(elapsed, solves, invalidation);
        AnalysisResult::new(
            self.g,
            ReachableSet::from_discovery(self.reachable, self.reachable_order),
            self.instantiated,
            self.config,
            stats,
            completeness,
        )
    }
}

/// Joins `state` into `flow`'s input, then saturates: the one input join
/// of both [`Engine::join_in`] and the in-place [`Engine::push_state`].
/// Returns whether the input changed.
fn join_state(flow: &mut Flow, state: &ValueState, threshold: Option<usize>) -> bool {
    let changed = flow.in_state.join(state);
    if changed {
        maybe_saturate(&mut flow.in_state, threshold);
    }
    changed
}

/// The TypeCheck rule: keep (or remove, negated) subtypes of `ty`.
/// `instanceof` is false for `null`, so the positive filter drops it and the
/// negative filter keeps it.
fn filter_typecheck(
    program: &Program,
    input: &ValueState,
    ty: TypeId,
    negated: bool,
) -> ValueState {
    match input {
        ValueState::Empty => ValueState::Empty,
        // Type tests on primitives are ill-typed; nothing flows.
        ValueState::Const(_) => ValueState::Empty,
        // A saturated object state cannot be narrowed without re-expanding
        // it; Any is the sound over-approximation (only reachable when
        // saturation is configured).
        ValueState::Any => ValueState::Any,
        ValueState::Types(s) => {
            let mask = program.subtypes(ty);
            let filtered = if negated {
                s.difference_mask(mask)
            } else {
                s.intersect_mask(mask, false)
            };
            ValueState::from_types(filtered)
        }
    }
}

/// Declared-type filtering for parameters: object parameters admit subtypes
/// of the declared type plus `null`; primitive parameters admit everything.
fn declared_filter(program: &Program, input: &ValueState, declared: TypeRef) -> ValueState {
    match (input, declared) {
        (ValueState::Types(s), TypeRef::Object(t)) => {
            ValueState::from_types(s.intersect_mask(program.subtypes(t), true))
        }
        _ => input.clone(),
    }
}

/// Saturation (Wimmer et al. [60]): widen oversized type sets to `Any`.
fn maybe_saturate(state: &mut ValueState, threshold: Option<usize>) {
    if let (Some(k), ValueState::Types(s)) = (threshold, &*state) {
        if s.len() > k {
            *state = ValueState::Any;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::TypeSet;
    use skipflow_ir::ProgramBuilder;

    /// Object <- Animal <- Dog; Cat extends Animal.
    fn hierarchy() -> (Program, TypeId, TypeId, TypeId) {
        let mut pb = ProgramBuilder::new();
        let animal = pb.add_class("Animal");
        let dog = pb.class("Dog").extends(animal).build();
        let cat = pb.class("Cat").extends(animal).build();
        let m = pb.method(animal, "noop").static_().returns(TypeRef::Void).build();
        pb.set_trivial_body(m, None);
        (pb.finish().unwrap(), animal, dog, cat)
    }

    fn types_of(ids: &[TypeId]) -> ValueState {
        ValueState::Types(ids.iter().copied().collect::<TypeSet>())
    }

    #[test]
    fn typecheck_filter_keeps_subtypes_and_drops_null() {
        let (p, animal, dog, cat) = hierarchy();
        let mut input = TypeSet::null_only();
        input.insert(dog);
        input.insert(cat);
        let input = ValueState::Types(input);

        // instanceof Dog: only Dog survives; null is filtered (instanceof is
        // false for null).
        let out = filter_typecheck(&p, &input, dog, false);
        assert_eq!(out, types_of(&[dog]));

        // !instanceof Dog: Cat and null survive.
        let out = filter_typecheck(&p, &input, dog, true);
        let s = out.types().unwrap();
        assert!(s.contains(cat) && s.contains_null() && !s.contains(dog));

        // instanceof Animal admits both subclasses.
        let out = filter_typecheck(&p, &input, animal, false);
        assert_eq!(out, types_of(&[dog, cat]));
    }

    #[test]
    fn typecheck_filter_edge_cases() {
        let (p, _, dog, _) = hierarchy();
        assert_eq!(filter_typecheck(&p, &ValueState::Empty, dog, false), ValueState::Empty);
        // Primitives never pass a type test (ill-typed).
        assert_eq!(filter_typecheck(&p, &ValueState::Const(3), dog, false), ValueState::Empty);
        // Saturated input stays saturated (sound over-approximation).
        assert_eq!(filter_typecheck(&p, &ValueState::Any, dog, false), ValueState::Any);
        // Filtering to nothing normalizes to Empty.
        let only_null = ValueState::null();
        assert_eq!(filter_typecheck(&p, &only_null, dog, false), ValueState::Empty);
    }

    #[test]
    fn declared_filter_keeps_null_but_drops_foreign_types() {
        let (p, animal, dog, cat) = hierarchy();
        let mut input = TypeSet::null_only();
        input.insert(dog);
        input.insert(cat);
        let input = ValueState::Types(input);

        // Declared Dog: null stays (a reference parameter may be null).
        let out = declared_filter(&p, &input, TypeRef::Object(dog));
        let s = out.types().unwrap();
        assert!(s.contains(dog) && s.contains_null() && !s.contains(cat));

        // Declared Animal keeps everything.
        let out = declared_filter(&p, &input, TypeRef::Object(animal));
        assert_eq!(out.types().unwrap().len(), 3);

        // Primitive declarations pass anything through.
        assert_eq!(declared_filter(&p, &ValueState::Const(7), TypeRef::Prim), ValueState::Const(7));
        assert_eq!(declared_filter(&p, &input, TypeRef::Prim), input);
    }

    #[test]
    fn tiered_queue_pops_frontier_fifo_then_by_index() {
        // Fresh flows pop first, in push order; re-enqueued flows pop
        // after them in ascending index, whatever order they were pushed in.
        let f = FlowId::from_index;
        let mut q = TieredQueue::new();
        for (i, fresh) in [(7, false), (5, true), (2, false), (9, true), (4, false), (1, true)] {
            q.push(f(i), fresh);
        }
        let popped: Vec<FlowId> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, [5, 9, 1, 2, 4, 7].map(f));
        assert!(q.is_empty());
        // A popped flow may be queued again, in either tier.
        q.push(f(2), false);
        q.push(f(3), true);
        assert_eq!(q.pop(), Some(f(3)));
        assert_eq!(q.pop(), Some(f(2)));
        assert_eq!(q.pop(), None);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "resident in the queue twice")]
    fn scc_queue_rejects_duplicate_residency() {
        let mut q = TieredQueue::new();
        q.push(FlowId::from_index(0), false);
        q.push(FlowId::from_index(0), true);
    }

    #[test]
    fn saturation_widens_only_above_threshold() {
        let (_, animal, dog, cat) = hierarchy();
        let mut s = types_of(&[animal, dog, cat]);
        maybe_saturate(&mut s, None);
        assert!(matches!(s, ValueState::Types(_)), "no threshold, no widening");
        maybe_saturate(&mut s, Some(3));
        assert!(matches!(s, ValueState::Types(_)), "at the threshold, keep");
        maybe_saturate(&mut s, Some(2));
        assert_eq!(s, ValueState::Any, "above the threshold, widen");
        // Primitives are never saturated.
        let mut c = ValueState::Const(1);
        maybe_saturate(&mut c, Some(0));
        assert_eq!(c, ValueState::Const(1));
    }
}
