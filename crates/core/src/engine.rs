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
//! nothing and does not count as propagation work (the SCC queue's
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
//! The sequential solver drains its worklist under one of three schedulers
//! ([`crate::SchedulerKind`]):
//!
//! * **FIFO** — a plain queue; kept as the scheduling oracle.
//! * **SCC priority** (forced) — flows are prioritized by the live
//!   topological order of their strongly connected component in the PVPG,
//!   maintained *online* by [`crate::graph::OnlineTopo`] over the
//!   value-carrying use and observe edges (predicate edges are one-shot
//!   enabling, impose no re-processing order, and are excluded — including
//!   them would glue method chains into one SCC via invoke-as-predicate
//!   and erase the ordering).
//! * **Adaptive** (the default) — starts every solve on the FIFO queue and
//!   *flips* to the SCC queue mid-solve when re-processing is observed (see
//!   "The adaptive flip" below).
//!
//! Invariants of the online-order SCC scheduler:
//!
//! * **Exact priorities at all times** — every flow is assigned an order
//!   position the moment it is created, and every inserted value edge
//!   either already respects the order or triggers an in-place
//!   Pearce–Kelly-style repair of the affected region (bounded
//!   bidirectional search; the smaller side moves). There is no
//!   provisional adoption, no dirty counter, and no batch recompute: the
//!   condensation the queue reads is current after every mutation,
//!   enforced by `Pvpg::assert_valid_order` in the differential suites and
//!   a Tarjan-oracle property test.
//! * **Anchored fragment placement** — a fragment built mid-solve by call
//!   linking is placed directly between the call's arguments and its
//!   invoke flow, which is exactly where the `argument → parameter` and
//!   `return → invoke` edges want it: the dominant linking pattern
//!   inserts only order-consistent edges and pays no repairs.
//! * **Cycle collapse** — when an inserted edge closes a cycle, the
//!   components on the connecting paths merge into one (union-find +
//!   member-list splice) and the disturbed region re-packs into the
//!   vacated label slots: strictly-upstream components take the lowest
//!   slots (they only move down, and any unvisited predecessor of them
//!   lies below the search window), strictly-downstream components take
//!   the highest slots (symmetrically safe), and the merged component
//!   sits between the two blocks, whose unvisited neighbours are all
//!   outside the window. This is the Pearce–Kelly pooled reorder extended
//!   with contraction.
//! * **Frontier first, then local fixpoint before successors** — the
//!   queue drains flows that have never done propagation work in FIFO
//!   order *before* any re-enqueued flow: a first-time step is structure
//!   discovery (it builds fragments and wires the very edges the order
//!   schedules by) and can be premature at most once, whereas an exact
//!   topological order over an *incomplete* graph would happily drain a
//!   re-enqueued fan-out hub once per yet-undiscovered producer.
//!   Re-enqueued flows then drain lowest-label-first: every PVPG edge
//!   between distinct SCCs goes label-upward, so intra-SCC re-enqueues
//!   land back in the bucket being drained and an SCC reaches its local
//!   fixpoint before any flow of a later SCC is re-processed.
//! * **Bounded, self-healing queue maintenance** — a repair that relocates
//!   a component while some of its flows are queued leaves stale bucket
//!   entries; the pop paths detect the label mismatch and re-queue the
//!   flow under its live label (`rebucketed_flows`). Work is proportional
//!   to the flows actually disturbed, never to the queue or the graph.
//! * **Correctness is scheduling-independent** — priorities are purely a
//!   performance heuristic: all joins are monotone, so any dequeue order
//!   converges to the same least fixpoint. Implicit dependencies that are
//!   not materialized as edges (type-subscriber injections, saturated-site
//!   re-dispatch) may therefore be safely absent from the order.
//! * The reference solver always runs FIFO — it is the oracle and stays
//!   byte-for-byte the full-join algorithm — and neither it nor the forced
//!   FIFO scheduler pays for the online order (it is never enabled there).
//!
//! # The adaptive flip (FIFO → SCC)
//!
//! The SCC machinery costs real wall time — the per-edge order maintenance
//! and the bucket indirection on every push/pop — and only pays off when
//! flows are *re-processed* (cyclic regions, shared-sink fan-out). On
//! acyclic propagate-once workloads FIFO is strictly cheaper. The default
//! [`crate::SchedulerKind::Adaptive`] therefore starts every solve on the
//! FIFO queue and watches the **re-enqueue rate**: a sliding window over
//! the last [`FLIP_WINDOW`] worklist pops counts how many dequeued a flow
//! that had already done real propagation work. When the window is
//! dominated by re-pops ([`FLIP_TRIP`] of [`FLIP_WINDOW`]) *and* enough
//! work is queued for ordering to matter ([`FLIP_MIN_QUEUE`]), the solver
//! flips: the *first* flip of a session absorbs the graph into the online
//! order (one O(V+E) pass — the cost the old lazy condensation paid, paid
//! at the same moment), and the queued flows migrate into the SCC queue
//! in their FIFO order under exact priorities. From then on the order is
//! maintained through every mutation, so everything after the first flip
//! — including every *resumed* solve of the session — reads an
//! already-current condensation and never recomputes anything.
//! The window is cleared at the start of every solve, so
//! a resumed solve's flip decision rides on its own behaviour (the
//! per-solve vs cumulative split is documented on
//! [`crate::SchedulerStats`]), while the flip itself is sticky: once a
//! session has demonstrated re-processing, resumed solves stay on the SCC
//! queue.
//!
//! **Why the mid-solve flip is safe.** Scheduling is a pure performance
//! heuristic (see above): every dequeue order converges to the same least
//! fixpoint because all joins are monotone and every state is part of the
//! graph, not the queue. The flip merely permutes the order in which the
//! already-queued flows are drained, and it is only ever taken *between*
//! worklist steps, so no step observes a half-migrated queue. `tests/delta_vs_reference.rs` asserts a
//! flipping run is result-identical to forced-FIFO and forced-SCC runs.
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
//! identity differentially across every solver × scheduler combination.
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
//!   down: the flows' states, the `queued` residency/processed/worked
//!   bits, the live online topological order and its union-find
//!   condensation, the sticky adaptive flip (and its cleared-per-solve
//!   window), the saturation and subscriber registries, and the
//!   cumulative counters. The resumed solve re-bases
//!   its per-solve statistics exactly like a resume after completion.
//! * **Budget semantics.** The step budget is per-solve (`steps` executed
//!   since this `run_solver` call) and checked *exactly*, before every
//!   step, so an interrupt-at-`k` sweep is deterministic; the cancel
//!   token, wall clock, and memory estimate are polled every
//!   [`INTERRUPT_CHECK_STRIDE`] steps (the first poll of a solve always
//!   checks, so a pre-tripped token or zero budget interrupts before any
//!   work). Overshoot past a wall/memory budget is bounded by one stride.
//!
//! `tests/interrupt_resume.rs` (and, with `--features fault-inject`,
//! `tests/fault_injection.rs`) enforce all of this differentially:
//! interrupt at every `k`, resume, and require bit-identical results to an
//! uninterrupted solve across every solver × scheduler combination.

use crate::build::{build_method_graph, BuildOutput};
use crate::compare::compare;
use crate::config::{AnalysisConfig, SchedulerKind, SolverKind};
use crate::error::AnalysisError;
use crate::flow::{Flow, FlowId, FlowKind, SiteId, MAX_FLOW_COUNT};
use crate::graph::Pvpg;
use crate::interrupt::{CancelToken, Completeness, InterruptReason};
use crate::lattice::{TypeSet, ValueState};
use crate::metrics::{InterruptStats, InvalidationStats, SchedulerStats};
use crate::report::{AnalysisResult, ReachableSet, SolveStats};
use skipflow_ir::{BitSet, MethodId, Program, TypeId, TypeRef};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Bit 0 of [`Engine::queued`]: the flow is resident in the worklist.
const QUEUED: u8 = 1;

/// Bit 1 of [`Engine::queued`]: the flow has been dequeued at least once
/// (the adaptive flip detector's re-process signal — deliberately counting
/// *any* re-dequeue, so the detector's trip point is unchanged from the
/// batch-recompute scheduler it was tuned with).
const PROCESSED: u8 = 2;

/// Bit 2 of [`Engine::queued`]: some worklist step did real propagation
/// work for the flow (a no-op dequeue — disabled flow, empty input of a
/// distributive kind — does not count). This is the SCC queue's
/// frontier-tier signal: a flow stays in the frontier until its first
/// *working* step.
const WORKED: u8 = 4;

/// Flow-capacity headroom the engine keeps below [`MAX_FLOW_COUNT`]: a
/// single method fragment never creates this many flows, so checking once
/// per [`Engine::make_reachable`] (instead of per flow) cannot overshoot
/// into the `NO_FLOW` sentinel.
const FLOW_CAPACITY_MARGIN: usize = 1 << 22;

/// Sliding-window length (in worklist pushes) of the adaptive scheduler's
/// re-enqueue-rate detector. Small enough that a fan-out re-processing
/// storm is detected within a few hundred wasted steps (the fan-out rungs'
/// step budget), large enough that a handful of loop-φ re-enqueues on an
/// acyclic workload cannot dominate it. Fixed at 128 so the window is one
/// branchless `u128` shift register (the detector rides the solver's
/// hottest loop; a ring buffer here costs measurable wall time).
const FLIP_WINDOW: usize = 128;

/// Re-pushes within the window that trip the FIFO→SCC flip (3/4 of
/// [`FLIP_WINDOW`]): the queue is then demonstrably dominated by
/// re-processing, which is the regime where SCC priorities win 10–25× in
/// steps. Acyclic ladders measure far below this outside their drain tail.
const FLIP_TRIP: u32 = 96;

/// Minimum queued flows for the flip to fire. A re-push-heavy window over a
/// near-empty queue (the drain tail of an otherwise acyclic solve) is not
/// worth an O(V+E) condensation — there is almost nothing left to order.
const FLIP_MIN_QUEUE: usize = 64;

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

/// The SCC-aware priority worklist over the live online order (see the
/// module docs, "Scheduling").
///
/// Two tiers:
///
/// * **Frontier tier** — flows that have never been processed, in FIFO
///   order, drained before anything else. A first-time step is *structure
///   discovery*: it builds fragments, wires edges, and thereby adds the
///   very order constraints the priority tier schedules by — and it can be
///   premature at most once, so running the whole frontier ahead of any
///   re-processing is cheap insurance. Without this tier, a re-enqueued
///   fan-out hub whose (exact!) label sits below a still-growing enabling
///   cascade re-propagates once per discovered producer — the topological
///   order is correct but the graph it orders is not complete yet.
/// * **Priority tier** — re-enqueued flows, in buckets keyed by the
///   *current* order label of their component (`BTreeMap<label, FIFO>`):
///   a push reads the flow's live label off the graph's
///   [`crate::graph::OnlineTopo`], so every flow — including a fragment
///   instantiated one step ago — is queued under its exact condensation
///   priority; there is no provisional adoption and no dirty counter.
///
/// When an order repair relocates a component *while some of its flows are
/// queued*, those bucket entries go stale; the pop paths self-heal by
/// re-queueing any popped flow whose live label no longer matches its
/// bucket (counted as `rebucketed_flows` — the bounded replacement for the
/// old wholesale bucket migration at recompute time).
struct SccQueue {
    /// Never-processed flows, FIFO — the *frontier tier*, drained before
    /// any labeled bucket (see the type docs: structure discovery first).
    fresh: VecDeque<u32>,
    /// Non-empty FIFO buckets of re-enqueued flows keyed by order label
    /// (empty buckets are removed eagerly, so `contains_key` doubles as
    /// "has queued work").
    buckets: BTreeMap<u64, VecDeque<u32>>,
    /// Queued flows across all buckets.
    len: usize,
    /// Stale pops re-queued under their live label.
    rebucketed: u64,
    /// Debug-only duplicate-enqueue guard: a flow must never be resident in
    /// two buckets at once.
    #[cfg(debug_assertions)]
    resident: Vec<bool>,
}

impl SccQueue {
    fn new() -> Self {
        SccQueue {
            fresh: VecDeque::new(),
            buckets: BTreeMap::new(),
            len: 0,
            rebucketed: 0,
            #[cfg(debug_assertions)]
            resident: Vec::new(),
        }
    }

    /// Enqueues `f`: never-processed flows (`fresh`) join the frontier
    /// tier in FIFO order; re-enqueued flows go to the bucket of their
    /// current order label (FIFO within the bucket — a bucket is one SCC,
    /// iterated to local fixpoint).
    fn push(&mut self, f: FlowId, label: u64, fresh: bool) {
        #[cfg(debug_assertions)]
        {
            if self.resident.len() <= f.index() {
                self.resident.resize(f.index() + 1, false);
            }
            debug_assert!(
                !self.resident[f.index()],
                "flow {f:?} would be resident in two priority buckets"
            );
            self.resident[f.index()] = true;
        }
        if fresh {
            self.fresh.push_back(f.index() as u32);
        } else {
            self.buckets.entry(label).or_default().push_back(f.index() as u32);
        }
        self.len += 1;
    }

    /// Dequeues from the lowest-label non-empty bucket, re-queueing stale
    /// entries (flows whose component was relocated while queued) under
    /// their live label first.
    fn pop(&mut self, g: &Pvpg) -> Option<FlowId> {
        // Frontier tier first: structure discovery before saturation.
        if let Some(id) = self.fresh.pop_front() {
            self.len -= 1;
            #[cfg(debug_assertions)]
            {
                self.resident[id as usize] = false;
            }
            return Some(FlowId::from_index(id as usize));
        }
        loop {
            let mut entry = self.buckets.first_entry()?;
            let label = *entry.key();
            let Some(id) = entry.get_mut().pop_front() else {
                entry.remove();
                continue;
            };
            if entry.get().is_empty() {
                entry.remove();
            }
            self.len -= 1;
            let f = FlowId::from_index(id as usize);
            #[cfg(debug_assertions)]
            {
                self.resident[id as usize] = false;
            }
            let live = g.live_label(f);
            if live != label {
                self.rebucketed += 1;
                self.push(f, live, false);
                continue;
            }
            return Some(f);
        }
    }
}

/// The solver worklist: a plain FIFO queue or the (boxed — it carries the
/// bucket arrays and condensation-edge list) SCC priority queue.
enum Worklist {
    Fifo(VecDeque<FlowId>),
    Scc(Box<SccQueue>),
}

/// The adaptive scheduler's re-enqueue-rate detector (present only while an
/// `Adaptive` solve is still in its FIFO phase; dropped at the flip).
///
/// The rate is observed at *dequeue* time: every re-enqueued flow is seen
/// exactly once when it drains, so the fraction of dequeues hitting an
/// already-processed flow equals the re-enqueue rate one queue-length
/// later — and the processed-before bit rides in the engine's `queued`
/// byte, which the pop reads and writes anyway (see [`Engine::queued`]),
/// so the detector touches no memory of its own. The window over the last
/// [`FLIP_WINDOW`] (= 128) dequeues is a `u128` shift register: one
/// shift-or per pop, one popcount for the trip test — branchless, so the
/// FIFO phase stays within the ±2 % wall-time band of a plain FIFO solve
/// (the guard BENCH_PR4.json enforces on the ladder).
struct FlipTracker {
    /// The last [`FLIP_WINDOW`] dequeues, newest in bit 0: set = re-process.
    window: u128,
    /// Total dequeues observed (mirrored into `SchedulerStats` lazily).
    pops: u64,
    /// Total re-process dequeues observed.
    re_pops: u64,
}

impl FlipTracker {
    fn new() -> Self {
        const { assert!(FLIP_WINDOW == 128, "the window is a u128 shift register") };
        FlipTracker {
            window: 0,
            pops: 0,
            re_pops: 0,
        }
    }

    /// Observes one worklist pop: `re` is whether the flow had been
    /// processed before (the engine reads it off the `queued` byte).
    #[inline]
    fn observe(&mut self, re: bool) {
        self.window = (self.window << 1) | re as u128;
        self.pops += 1;
        self.re_pops += re as u64;
    }

    /// Clears the sliding window at the start of a resumed solve: the flip
    /// decision must be driven by *this* solve's re-enqueue behaviour, not
    /// residue from the prior solve's drain tail. The cumulative `pops` /
    /// `re_pops` counters are left alone (the engine snapshots them to
    /// derive per-solve values).
    fn begin_solve(&mut self) {
        self.window = 0;
    }

    /// Whether the sliding window is dominated by re-processing.
    #[inline]
    fn tripped(&self) -> bool {
        self.window.count_ones() >= FLIP_TRIP
    }
}

pub(crate) struct Engine<'p> {
    program: &'p Program,
    config: AnalysisConfig,
    g: Pvpg,
    worklist: Worklist,
    /// Per-flow scheduling byte: bit 0 ([`QUEUED`]) = currently resident in
    /// the worklist; bit 1 ([`PROCESSED`]) = dequeued at least once (the
    /// adaptive flip detector's re-process signal, kept in the byte the
    /// pop writes anyway so observing it costs nothing).
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
    /// The adaptive scheduler's FIFO-phase re-push detector (`None` under
    /// forced schedulers, and after the flip).
    flip: Option<FlipTracker>,
    /// Cumulative step count at the start of the current solve (per-solve
    /// statistics like `flip_at_step` are relative to it).
    solve_start_steps: u64,
    /// The flip detector's `(pops, re_pops)` at the start of the current
    /// solve — the baseline the per-solve adaptive counters subtract.
    adaptive_base: (u64, u64),
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
    /// Deterministic fault-injection triggers (test builds only).
    #[cfg(feature = "fault-inject")]
    fault: crate::fault::FaultPlan,
    sched_stats: SchedulerStats,
    steps: u64,
    state_joins: u64,
}

impl<'p> Engine<'p> {
    pub(crate) fn new(program: &'p Program, config: AnalysisConfig) -> Self {
        // The reference solver is the oracle: it always runs the FIFO order,
        // whatever scheduler is configured.
        let worklist = match (config.solver, config.scheduler) {
            (SolverKind::Reference, _) | (_, SchedulerKind::Fifo | SchedulerKind::Adaptive) => {
                Worklist::Fifo(VecDeque::new())
            }
            (_, SchedulerKind::SccPriority) => Worklist::Scc(Box::new(SccQueue::new())),
        };
        let adaptive = !matches!(config.solver, SolverKind::Reference)
            && config.scheduler == SchedulerKind::Adaptive;
        // The online topological order backs every scheduler that reads
        // priorities, from the first moment one needs it: session start
        // under forced SCC, the first flip under Adaptive (a one-time
        // O(V+E) absorption — the same cost the flip used to pay for its
        // lazy condensation). From then on it is maintained through every
        // mutation and carried across resumes, so a resumed solve never
        // recomputes anything at solve start. Never-flipping adaptive
        // runs (acyclic, propagate-once) pay nothing at all, as do the
        // FIFO oracle and the reference solver.
        let mut g = Pvpg::new();
        if !matches!(config.solver, SolverKind::Reference)
            && config.scheduler == SchedulerKind::SccPriority
        {
            g.enable_online_order();
        }
        #[cfg(feature = "fault-inject")]
        let config_fault_plan = config.fault_plan.clone();
        let masked = config.masked_methods.iter().map(|m| m.index()).collect();
        Engine {
            program,
            config,
            g,
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
            flip: adaptive.then(FlipTracker::new),
            solve_start_steps: 0,
            adaptive_base: (0, 0),
            overflow: None,
            guard: None,
            last_interrupted: false,
            interrupt_stats: InterruptStats::default(),
            #[cfg(feature = "fault-inject")]
            fault: config_fault_plan,
            sched_stats: SchedulerStats::default(),
            steps: 0,
            state_joins: 0,
        }
    }

    /// The adaptive scheduler's FIFO→SCC flip: when the sliding-window
    /// re-push rate shows the queue is dominated by re-processing (and
    /// enough is queued for ordering to matter), migrate the FIFO queue
    /// into SCC priority buckets in its current order. The condensation is
    /// *already current* — the online order has been maintained since
    /// session start — so the flip is a pure queue migration: no Tarjan
    /// pass, no lazily computed priorities. Only ever called *between*
    /// worklist steps, so no step observes a half-migrated queue;
    /// safe mid-solve because results are scheduler-independent (module
    /// docs, "The adaptive flip").
    fn maybe_flip(&mut self) {
        let Some(tracker) = &self.flip else { return };
        // Fast guard: the window can only have *become* tripped if the most
        // recent observation was a re-process (bit 0); skipping the
        // popcount otherwise keeps this per-step call at two branches on
        // propagate-once workloads.
        if tracker.window & 1 == 0 || !tracker.tripped() {
            return;
        }
        let Worklist::Fifo(fifo) = &self.worklist else { return };
        if fifo.len() < FLIP_MIN_QUEUE {
            return;
        }
        let tracker = self.flip.take().expect("checked above");
        self.sched_stats.adaptive_pops = tracker.pops - self.adaptive_base.0;
        self.sched_stats.adaptive_re_pops = tracker.re_pops - self.adaptive_base.1;
        self.sched_stats.adaptive_pops_total = tracker.pops;
        self.sched_stats.adaptive_re_pops_total = tracker.re_pops;
        self.sched_stats.flips += 1;
        self.sched_stats.flip_at_step = self.steps - self.solve_start_steps;
        // First flip of the session: absorb the graph into the online
        // order (one O(V+E) pass). Every later mutation maintains it
        // incrementally, and it stays current across resumes — the flip is
        // taken between steps, so no batch is open here.
        self.g.enable_online_order();
        let Worklist::Fifo(fifo) = &mut self.worklist else { unreachable!("checked above") };
        let drained = std::mem::take(fifo);
        let mut q = Box::new(SccQueue::new());
        for f in drained {
            // The migrated queue goes entirely into the priority tier: at
            // the flip the graph region the queued flows span is already
            // discovered (they have been sitting in a FIFO queue mid
            // re-processing storm), so exact labels order them better than
            // the frontier heuristic — only flows enqueued from here on
            // split by the worked bit.
            q.push(f, self.g.live_label(f), false);
        }
        self.worklist = Worklist::Scc(q);
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
    /// non-monotone mutation (module docs, "Resume"). Fault-plan triggers
    /// that already fired stay consumed.
    pub(crate) fn rebuilt(&self) -> Engine<'p> {
        let mut config = self.config.clone();
        config.masked_methods = self.masked_list();
        #[cfg(feature = "fault-inject")]
        {
            config.fault_plan = self.fault.clone();
        }
        let mut engine = Engine::new(self.program, config);
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
    /// (module docs, "Interrupt safety"). Per-solve statistics (the
    /// adaptive pop counters, `flip_at_step`) are re-based here, and the
    /// flip detector's sliding window is cleared, so a resumed solve
    /// reports its own behaviour instead of residue from the prior solve —
    /// while the cumulative `*_total` counters and the sticky flip keep
    /// accumulating across the session.
    pub(crate) fn run_solver(&mut self, cancel: Option<&CancelToken>) -> SolveEnd {
        self.solve_start_steps = self.steps;
        match &mut self.flip {
            Some(tracker) => {
                tracker.begin_solve();
                self.adaptive_base = (tracker.pops, tracker.re_pops);
            }
            None => {
                // Forced scheduler, or the session already flipped: no FIFO
                // phase this solve, so its per-solve pop counts are zero.
                self.sched_stats.adaptive_pops = 0;
                self.sched_stats.adaptive_re_pops = 0;
            }
        }
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
        #[cfg(feature = "fault-inject")]
        if let Some(reason) = self.fault.poll_step(steps) {
            return Some(reason);
        }
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
    /// flow table plus the edge arrays (8 bytes per edge endpoint pair).
    /// Deliberately a proxy — exact accounting would mean walking every
    /// `ValueState` — but it is monotone in the quantities that actually
    /// grow without bound (flows and edges), which is what a memory budget
    /// guards against.
    pub(crate) fn memory_estimate(&self) -> usize {
        let (use_edges, pred_edges, obs_edges) = self.g.edge_counts();
        self.g.flow_count() * std::mem::size_of::<Flow>()
            + (use_edges + pred_edges + obs_edges) * 8
    }

    /// Whether the worklist has pending work. An empty worklist (with no
    /// open capacity error) means the engine is at its fixpoint; non-empty
    /// means the last solve was interrupted (or never run).
    pub(crate) fn worklist_is_empty(&self) -> bool {
        match &self.worklist {
            Worklist::Fifo(q) => q.is_empty(),
            Worklist::Scc(q) => q.len == 0,
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
        // The flip detector keeps its own pop counters off the hot path;
        // fold them in here (after a flip they were copied at flip time).
        let mut scheduler = self.sched_stats.clone();
        if let Some(tracker) = &self.flip {
            scheduler.adaptive_pops = tracker.pops - self.adaptive_base.0;
            scheduler.adaptive_re_pops = tracker.re_pops - self.adaptive_base.1;
            scheduler.adaptive_pops_total = tracker.pops;
            scheduler.adaptive_re_pops_total = tracker.re_pops;
        }
        // The live condensation and its maintenance counters come straight
        // off the online order — there is no "last recompute" snapshot.
        if let Some(os) = self.g.order_stats() {
            scheduler.scc_count = os.comps;
            scheduler.cyclic_flows = os.cyclic_flows;
            scheduler.max_scc_size = os.max_scc_size;
            scheduler.order_repairs = os.repairs;
            scheduler.order_comps_moved = os.comps_moved;
            scheduler.scc_merges = os.merges;
            scheduler.order_relabels = os.relabels;
        }
        if let Worklist::Scc(q) = &self.worklist {
            scheduler.rebucketed_flows = q.rebucketed;
        }
        SolveStats {
            steps: self.steps,
            state_joins: self.state_joins,
            flows: self.g.flow_count(),
            use_edges,
            pred_edges,
            obs_edges,
            solves,
            scheduler,
            interrupt: self.interrupt_stats,
            invalidation,
            duration,
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
            // The live order label: exact even for a flow created by the
            // step currently executing. First-time flows join the frontier
            // tier instead (see the SccQueue docs).
            Worklist::Scc(q) => q.push(f, self.g.live_label(f), fresh),
        }
    }

    /// Marks a dequeued flow off-queue and dequeued-once, feeding the
    /// adaptive flip detector (if still active) the re-process bit. The
    /// [`WORKED`] bit is *not* set here: a pop that turns out to be a
    /// no-op (disabled flow, empty input of a distributive kind) has not
    /// done any propagation work, so the flow stays in the SCC queue's
    /// frontier tier until a step actually computes something
    /// ([`Engine::mark_worked`]).
    #[inline]
    fn note_dequeued(&mut self, f: FlowId) {
        let slot = &mut self.queued[f.index()];
        let re = *slot & PROCESSED != 0;
        *slot = (*slot | PROCESSED) & !QUEUED;
        if let Some(tracker) = &mut self.flip {
            tracker.observe(re);
        }
    }

    /// Records that a worklist step did real propagation work for `f` —
    /// from here on, re-enqueues of `f` queue under exact priorities
    /// instead of the frontier tier.
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
        if flow.in_state.join(state) {
            maybe_saturate(&mut flow.in_state, self.config.saturation_threshold);
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
        if self.program.method(m).body.is_none() {
            return; // abstract targets are never resolved to, but be safe
        }
        self.build_fragment(m);
    }

    /// Builds `m`'s PVPG fragment and runs its enable-time actions. The
    /// graph is inserted into [`Pvpg::methods`] only after those actions
    /// ran, so a self-recursive static call linked while enabling the body
    /// observes no callee graph and stays unwired.
    fn build_fragment(&mut self, m: MethodId) {
        let out: BuildOutput = build_method_graph(&mut self.g, self.program, &self.config, m);
        self.sync_queued();
        if self.config.predicates {
            for f in out.enables {
                self.enable(f);
            }
        } else {
            // Baseline: every flow is enabled at creation.
            for i in out.first_flow..self.g.flow_count() {
                self.enable(FlowId::from_index(i));
            }
        }
        for (s, t) in out.pushes {
            // Seed defaults for field sinks created during construction
            // (static-field accesses wire their sink at build time).
            for end in [s, t] {
                if let FlowKind::FieldSink { field } = self.g.flow(end).kind {
                    self.field_sink(field);
                }
            }
            self.push_state(s, t);
        }
        for (ty, f) in out.catch_subscribers {
            self.subscribe(ty, f);
        }
        self.g.methods.insert(m, out.graph);
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
        let Some(graph) = self.g.methods.get(&m) else { return };
        let params = graph.params.clone();
        let md = self.program.method(m);
        for (i, p) in params.iter().enumerate() {
            self.inject(*p, md.param_type(i));
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
        if matches!(self.worklist, Worklist::Scc(_)) && self.g.flow_in_cycle(f) {
            self.sched_stats.steps_in_cycles += 1;
        }
        if let Some(max) = self.config.max_steps {
            assert!(self.steps <= max, "analysis exceeded max_steps = {max}");
        }
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
            FlowKind::Param { declared, .. } if self.config.declared_type_filtering => {
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
    ///
    /// Fragment construction is *anchored* at the invoke flow: under the
    /// online order, the callee's flows are placed directly between the
    /// call's arguments and the invoke — so the `argument → parameter` and
    /// `return → invoke` edges wired below respect the order by
    /// construction, and the dominant mid-solve linking pattern triggers no
    /// repairs at all.
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
        let (args, invoke_flow) = {
            let s = self.g.site(site);
            (s.args.clone(), s.flow)
        };
        self.g.set_fragment_anchor(Some(invoke_flow));
        self.make_reachable(target);
        self.g.set_fragment_anchor(None);
        let Some(callee) = self.g.methods.get(&target) else { return };
        let params = callee.params.clone();
        let ret = callee.ret;
        for (a, p) in args.iter().zip(params.iter()) {
            if self.g.add_use_dedup(*a, *p) {
                self.push_state(*a, *p);
            }
        }
        if let Some(r) = ret {
            if self.g.add_use_dedup(r, invoke_flow) {
                self.push_state(r, invoke_flow);
            }
        }
    }

    /// Pushes `s`'s current output into `t`'s input, respecting the
    /// only-enabled-flows-propagate rule. Used when an edge is added after
    /// its source already carries state (not on the steady-state step path).
    fn push_state(&mut self, s: FlowId, t: FlowId) {
        let src = self.g.flow(s);
        if src.enabled && src.out_state.is_non_empty() {
            let out = src.out_state.clone();
            self.join_in(t, &out);
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
            || self.g.methods.contains_key(&m)
            || self.program.method(m).body.is_none()
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
        for mg in self.g.methods.values() {
            for &site in &mg.sites {
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
        // No solve-start condensation pass: the online order is maintained
        // through every graph mutation (and carried across session
        // resumes), so the SCC queue reads exact priorities at all times.
        loop {
            // Interrupts are only taken while work remains: an exhausted
            // budget races a drained worklist in favour of completion.
            if self.worklist_is_empty() {
                return SolveEnd::Complete;
            }
            if let Some(reason) = self.poll_interrupt() {
                return SolveEnd::Interrupted(reason);
            }
            self.maybe_flip();
            let next = match &mut self.worklist {
                Worklist::Fifo(q) => q.pop_front(),
                Worklist::Scc(q) => q.pop(&self.g),
            };
            let Some(f) = next else { return SolveEnd::Complete };
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
        if let Some(max) = self.config.max_steps {
            assert!(self.steps <= max, "analysis exceeded max_steps = {max}");
        }
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

    /// A PVPG with the online order enabled and `n` phi flows wired by
    /// `edges` (construction-time use edges, indices into the created
    /// flows). Returns the graph and the created flow ids — the scaffold
    /// for queue tests, which key buckets off the live order labels.
    fn ordered_graph(n: usize, edges: &[(usize, usize)]) -> (Pvpg, Vec<FlowId>) {
        let mut g = Pvpg::new();
        g.enable_online_order();
        let first = g.flow_count();
        let ids: Vec<FlowId> = (0..n)
            .map(|_| g.add_flow(crate::flow::Flow::new(crate::flow::FlowKind::Phi, None, None)))
            .collect();
        for &(s, t) in edges {
            g.add_use(ids[s], ids[t]);
        }
        g.seal_batch(first);
        (g, ids)
    }

    /// Pushes as a *re-enqueued* flow (the priority tier) — the queue
    /// tests exercise label ordering; the frontier tier has its own test.
    fn push_live(q: &mut SccQueue, g: &Pvpg, f: FlowId) {
        q.push(f, g.live_label(f), false);
    }

    #[test]
    fn scc_queue_orders_buckets_by_live_labels() {
        // a → b → c: three singleton components, labels ascending along the
        // chain; pops come out lowest-label-first regardless of push order.
        let (g, ids) = ordered_graph(3, &[(0, 1), (1, 2)]);
        let mut q = SccQueue::new();
        for &i in &[2usize, 0, 1] {
            push_live(&mut q, &g, ids[i]);
        }
        assert_eq!(q.pop(&g), Some(ids[0]));
        assert_eq!(q.pop(&g), Some(ids[1]));
        assert_eq!(q.pop(&g), Some(ids[2]));
        assert_eq!(q.pop(&g), None);
        assert_eq!(q.rebucketed, 0, "no repairs, no healing");
    }

    #[test]
    fn scc_queue_shares_a_bucket_within_one_scc() {
        // a → b with a back edge b → a: one component, one bucket, FIFO
        // within it; a downstream flow c drains strictly after.
        let (mut g, ids) = ordered_graph(3, &[(0, 1), (1, 2)]);
        assert!(g.add_use_dedup(ids[1], ids[0]), "close the cycle");
        assert_eq!(g.same_component(ids[0], ids[1]), Some(true));
        let mut q = SccQueue::new();
        for &i in &[1usize, 2, 0] {
            push_live(&mut q, &g, ids[i]);
        }
        assert_eq!(q.pop(&g), Some(ids[1]), "FIFO within the SCC bucket");
        assert_eq!(q.pop(&g), Some(ids[0]));
        assert_eq!(q.pop(&g), Some(ids[2]), "downstream flow drains last");
        assert_eq!(q.pop(&g), None);
    }

    #[test]
    fn scc_queue_heals_entries_staled_by_an_order_repair() {
        // Queue b under its current label, then insert c → b where c sits
        // above b: the repair relocates b''s component while it is queued.
        // The pop must hand b out exactly once, re-bucketed under its live
        // label, and count the heal.
        let (mut g, ids) = ordered_graph(3, &[(0, 1)]);
        let mut q = SccQueue::new();
        push_live(&mut q, &g, ids[1]); // b, label as of now
        push_live(&mut q, &g, ids[2]); // c
        let stale = g.live_label(ids[1]);
        assert!(g.add_use_dedup(ids[2], ids[1]), "violating edge: c above b");
        assert!(g.order_stats().unwrap().repairs >= 1, "the insert repaired");
        assert_ne!(g.live_label(ids[1]), stale, "b''s component moved");
        let mut popped = Vec::new();
        while let Some(f) = q.pop(&g) {
            popped.push(f);
        }
        popped.sort();
        assert_eq!(popped, vec![ids[1], ids[2]], "each flow pops exactly once");
        assert!(q.rebucketed >= 1, "the stale entry was healed");
        g.assert_valid_order();
    }

    #[test]
    fn flip_tracker_trips_only_on_a_reprocess_dominated_window() {
        let mut t = FlipTracker::new();
        // First-time dequeues never trip the detector.
        for _ in 0..FLIP_WINDOW * 2 {
            t.observe(false);
            assert!(!t.tripped());
        }
        assert_eq!(t.pops, (FLIP_WINDOW * 2) as u64);
        assert_eq!(t.re_pops, 0);
        // A re-process-dominated stream trips at exactly the threshold.
        let mut pops = 0;
        while !t.tripped() {
            t.observe(true);
            pops += 1;
            assert!(pops <= FLIP_WINDOW, "must trip within one window");
        }
        assert_eq!(pops, FLIP_TRIP as usize, "trips exactly at the threshold");
        assert_eq!(t.re_pops, FLIP_TRIP as u64);
        // Fresh dequeues wash the window back below the threshold, and a
        // mixed stream below the trip rate never fires.
        for _ in 0..FLIP_WINDOW {
            t.observe(false);
        }
        assert!(!t.tripped());
        for i in 0..FLIP_WINDOW * 4 {
            t.observe(i % 2 == 0); // 50 % re-process rate < 75 % trip rate
            assert!(!t.tripped());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "resident in two priority buckets")]
    fn scc_queue_rejects_duplicate_residency() {
        let mut q = SccQueue::new();
        q.push(FlowId::from_index(0), 1, false);
        q.push(FlowId::from_index(0), 2, true);
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
