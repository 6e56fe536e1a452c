//! Analysis results: reachability, value states, call-graph queries,
//! liveness, and dead-code reports.
//!
//! Two views share one query surface:
//!
//! * [`AnalysisSnapshot`] — a cheap borrowed view of a (paused)
//!   [`AnalysisSession`](crate::AnalysisSession). Every query method lives
//!   here; taking a snapshot copies five references.
//! * [`AnalysisResult`] — the owned form, produced by
//!   [`AnalysisSession::into_result`](crate::AnalysisSession::into_result)
//!   (or the [`crate::analyze`] convenience wrapper). It stores the final
//!   PVPG and delegates every query to an internal snapshot.
//!
//! What crosses threads is neither: [`OwnedSnapshot`] holds the published
//! *answers* (reachable set, instantiated types, a call-edge CSR and its
//! counts) extracted in one pass, without the graph.
//!
//! Reachability is stored as a [`ReachableSet`] — a bitset for O(1)
//! membership plus a sorted id vector for deterministic iteration.

use crate::config::AnalysisConfig;
use crate::flow::{CallKind, FlowKind, SiteId};
use crate::graph::Pvpg;
use crate::interrupt::Completeness;
use crate::lattice::ValueState;
use crate::metrics::{compute_metrics, InterruptStats, InvalidationStats, Metrics, SchedulerStats};
use skipflow_ir::{BitSet, BlockId, MethodId, Program, TypeId};
use std::time::Duration;

/// Solver statistics.
///
/// Most counters belong to the session's current engine: they accumulate
/// across resumes but restart at zero when a retraction or a disable edit
/// rebuilds the engine ([`crate::AnalysisSession::retract_roots`]) — that
/// covers `steps`, `state_joins`, the graph sizes, and the `scheduler`
/// and `interrupt` families. Only
/// `solves`, `duration` and `invalidation` are session-cumulative; `build`
/// belongs to the engine like `steps`.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Worklist steps executed (cumulative across resumes of the current
    /// engine).
    pub steps: u64,
    /// Input-state joins that actually changed a state (propagation volume).
    pub state_joins: u64,
    /// Flows in the engine's PVPG (its arena only grows, so this is the
    /// engine's peak).
    pub flows: usize,
    /// Use edges.
    pub use_edges: usize,
    /// Predicate edges.
    pub pred_edges: usize,
    /// Observe edges.
    pub obs_edges: usize,
    /// `solve()` calls that contributed to these numbers (1 for a one-shot
    /// [`crate::analyze`] run; grows as a session is resumed).
    pub solves: u64,
    /// Scheduler statistics (always zero, kept for the end-to-end
    /// benchmark's `core.scheduler.*` fields).
    pub scheduler: SchedulerStats,
    /// Interrupt / resume counters (all zero for an engine that never hit a
    /// budget or cancel token).
    pub interrupt: InterruptStats,
    /// Retraction / edit counters (all zero for a session that never
    /// retracted roots or applied a method edit; session-cumulative).
    pub invalidation: InvalidationStats,
    /// Wall-clock analysis time (session-cumulative).
    pub duration: Duration,
    /// Wall time spent building PVPG fragments, the part of the analysis
    /// that is not propagation: every fragment the engine built, whether
    /// at root injection or discovered mid-solve. Engine-lifetime, like
    /// `steps`; an engine rebuild re-builds and re-times every fragment.
    pub build: Duration,
}

/// The set of reachable methods: a bitset for O(1) membership plus the ids
/// in ascending order for deterministic iteration (the replacement for the
/// former `BTreeSet<MethodId>` representation).
///
/// Equality is set equality — two solvers that discover the same methods in
/// different orders compare equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReachableSet {
    bits: BitSet,
    /// Ascending method ids (sorted once at construction).
    order: Vec<MethodId>,
}

impl ReachableSet {
    /// Builds the set from the engine's membership bitset and discovery
    /// order. The order is re-sorted into ascending id order so iteration is
    /// deterministic across solvers.
    pub(crate) fn from_discovery(bits: BitSet, mut order: Vec<MethodId>) -> Self {
        order.sort_unstable();
        debug_assert_eq!(bits.len(), order.len(), "bitset and order must agree");
        ReachableSet { bits, order }
    }

    /// Number of reachable methods.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no method is reachable.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// O(1) membership test.
    pub fn contains(&self, m: MethodId) -> bool {
        self.bits.contains(m.index())
    }

    /// Iterates the methods in ascending id order.
    pub fn iter(&self) -> std::slice::Iter<'_, MethodId> {
        self.order.iter()
    }

    /// The methods as a sorted slice.
    pub fn as_slice(&self) -> &[MethodId] {
        &self.order
    }

    /// Whether every method of `self` is also in `other`.
    pub fn is_subset(&self, other: &ReachableSet) -> bool {
        self.order.iter().all(|&m| other.contains(m))
    }

    /// Heap bytes held by the bitset and the id vector.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bits.word_width() * std::mem::size_of::<u64>()
            + self.order.capacity() * std::mem::size_of::<MethodId>()
    }
}

impl<'a> IntoIterator for &'a ReachableSet {
    type Item = &'a MethodId;
    type IntoIter = std::slice::Iter<'a, MethodId>;
    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

/// A cheap borrowed view of an analysis fixpoint: all query methods, no
/// ownership. Obtained from [`AnalysisSession::solve`](crate::AnalysisSession::solve),
/// [`AnalysisSession::snapshot`](crate::AnalysisSession::snapshot), or
/// [`AnalysisResult::snapshot`].
#[derive(Clone, Copy, Debug)]
pub struct AnalysisSnapshot<'a> {
    graph: &'a Pvpg,
    reachable: &'a ReachableSet,
    instantiated: &'a BitSet,
    config: &'a AnalysisConfig,
    stats: &'a SolveStats,
    completeness: Completeness,
}

impl<'a> AnalysisSnapshot<'a> {
    pub(crate) fn new(
        graph: &'a Pvpg,
        reachable: &'a ReachableSet,
        instantiated: &'a BitSet,
        config: &'a AnalysisConfig,
        stats: &'a SolveStats,
        completeness: Completeness,
    ) -> Self {
        AnalysisSnapshot {
            graph,
            reachable,
            instantiated,
            config,
            stats,
            completeness,
        }
    }

    /// Whether this view is a reached fixpoint
    /// ([`Completeness::Complete`]) or the checkpoint of an interrupted
    /// solve ([`Completeness::Partial`]). Partial answers are sound
    /// under-approximations: everything reported reachable/live *is*, but
    /// further propagation may add more.
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// The PVPG (for advanced inspection and the bench harness).
    pub fn graph(&self) -> &'a Pvpg {
        self.graph
    }

    /// The configuration the analysis ran under.
    pub fn config(&self) -> &'a AnalysisConfig {
        self.config
    }

    /// Solver statistics (cumulative across session resumes).
    pub fn stats(&self) -> &'a SolveStats {
        self.stats
    }

    /// The set of reachable methods (the paper's `R`).
    pub fn reachable_methods(&self) -> &'a ReachableSet {
        self.reachable
    }

    /// Whether `m` was marked reachable (O(1)).
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(m)
    }

    /// Whether any enabled `new T` for this exact type was reached.
    pub fn is_instantiated(&self, t: TypeId) -> bool {
        self.instantiated.contains(t.index())
    }

    /// The value state returned by `m` (the out-state of its method-return
    /// flow). `None` if `m` is unreachable or never returns.
    pub fn return_state(&self, m: MethodId) -> Option<&'a ValueState> {
        let mg = self.graph.method_graph(m)?;
        let ret = mg.ret?;
        Some(&self.graph.flow(ret).out_state)
    }

    /// The value state of parameter `i` of `m` (receiver = 0 for instance
    /// methods).
    pub fn param_state(&self, m: MethodId, i: usize) -> Option<&'a ValueState> {
        let mg = self.graph.method_graph(m)?;
        let p = *self.graph.method_params(mg).get(i)?;
        Some(&self.graph.flow(p).out_state)
    }

    /// The resolved targets of each call site in `m`, in source order:
    /// `(site, kind, linked targets, enabled)`.
    pub fn call_sites(&self, m: MethodId) -> Vec<CallSiteInfo> {
        let Some(mg) = self.graph.method_graph(m) else {
            return Vec::new();
        };
        self.graph
            .method_sites(mg)
            .map(|s| {
                let site = self.graph.site(s);
                CallSiteInfo {
                    site: s,
                    kind: site.kind,
                    targets: site.linked.clone(),
                    enabled: self.graph.flow(site.flow).enabled,
                }
            })
            .collect()
    }

    /// Per-block liveness of `m`'s body (`true` = the block's entry
    /// predicate is active). Empty if `m` is unreachable.
    pub fn live_blocks(&self, m: MethodId) -> Vec<bool> {
        let Some(mg) = self.graph.method_graph(m) else {
            return Vec::new();
        };
        self.graph
            .block_preds(mg)
            .iter()
            .map(|&p| self.graph.flow(p).is_active())
            .collect()
    }

    /// The blocks of `m` proven unreachable by the analysis — the dead-code
    /// elimination opportunities of §6 "Impact on Compiler Optimizations".
    pub fn dead_blocks(&self, m: MethodId) -> Vec<BlockId> {
        self.live_blocks(m)
            .iter()
            .enumerate()
            .filter(|(_, live)| !**live)
            .map(|(i, _)| BlockId::from_index(i))
            .collect()
    }

    /// Virtual call sites in `m` devirtualized to exactly one target.
    pub fn devirtualized_sites(&self, m: MethodId) -> Vec<(SiteId, MethodId)> {
        self.call_sites(m)
            .into_iter()
            .filter(|s| s.enabled && s.kind == CallKind::Virtual && s.targets.len() == 1)
            .map(|s| (s.site, s.targets[0]))
            .collect()
    }

    /// The out-state of the flow created for statement `stmt` of block
    /// `block` in `m` (for fine-grained assertions in tests).
    pub fn stmt_state(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<&'a ValueState> {
        let mg = self.graph.method_graph(m)?;
        let f = *self.graph.stmt_flows(mg, block).get(stmt)?;
        Some(&self.graph.flow(f).out_state)
    }

    /// Whether the flow of statement `stmt` in `block` of `m` is enabled.
    pub fn stmt_enabled(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<bool> {
        let mg = self.graph.method_graph(m)?;
        let f = *self.graph.stmt_flows(mg, block).get(stmt)?;
        Some(self.graph.flow(f).enabled)
    }

    /// Computes the paper's counter metrics.
    pub fn metrics(&self, program: &Program) -> Metrics {
        compute_metrics(self, program)
    }

    /// Renders a human-readable dead-code report for one method.
    pub fn dead_code_report(&self, program: &Program, m: MethodId) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let label = program.method_label(m);
        if !self.is_reachable(m) {
            let _ = writeln!(out, "{label}: unreachable (entire method removed)");
            return out;
        }
        let dead = self.dead_blocks(m);
        if dead.is_empty() {
            let _ = writeln!(out, "{label}: fully live");
        } else {
            let _ = writeln!(out, "{label}: dead blocks {dead:?}");
        }
        for info in self.call_sites(m) {
            if !info.enabled {
                let _ = writeln!(out, "  call site {:?}: unreachable", info.site);
            } else if info.kind == CallKind::Virtual {
                let names: Vec<String> = info
                    .targets
                    .iter()
                    .map(|t| program.method_label(*t))
                    .collect();
                let tag = match names.len() {
                    0 => "no targets (dead receiver)".to_string(),
                    1 => format!("devirtualized -> {}", names[0]),
                    _ => format!("polymorphic -> {{{}}}", names.join(", ")),
                };
                let _ = writeln!(out, "  call site {:?}: {tag}", info.site);
            }
        }
        out
    }

    /// Flow-level view used by debugging tests: the out-state of the `new T`
    /// flows of a type, if any were created.
    pub fn allocation_enabled(&self, t: TypeId) -> bool {
        self.graph
            .flows
            .iter()
            .any(|f| matches!(f.kind, FlowKind::New(ty) if ty == t) && f.enabled)
    }

    /// The call graph induced by the analysis: one `(caller, site, callee)`
    /// edge per linked target of every enabled call site, in deterministic
    /// order. This is the artifact consumed by the call-graph-construction
    /// applications the paper's introduction cites.
    pub fn call_graph_edges(&self) -> Vec<CallEdge> {
        let mut edges = Vec::new();
        for (caller, mg) in self.graph.method_graphs() {
            for site in self.graph.method_sites(mg) {
                let s = self.graph.site(site);
                if !self.graph.flow(s.flow).enabled {
                    continue;
                }
                for &callee in &s.linked {
                    edges.push(CallEdge {
                        caller,
                        site,
                        callee,
                        kind: s.kind,
                    });
                }
            }
        }
        edges
    }

    /// Enabled virtual call sites with two or more resolved targets (the
    /// PolyCalls counter, shared with [`crate::CallGraphQuery`]).
    pub fn poly_call_sites(&self) -> usize {
        let mut n = 0;
        for (_, mg) in self.graph.method_graphs() {
            for site in self.graph.method_sites(mg) {
                let s = self.graph.site(site);
                if s.kind == CallKind::Virtual
                    && self.graph.flow(s.flow).enabled
                    && s.linked.len() >= 2
                {
                    n += 1;
                }
            }
        }
        n
    }

    /// Extracts the published answers of this view into an
    /// [`OwnedSnapshot`] (the serving seam used by `skipflow-server`). One
    /// pass over the reached methods' call sites builds the call-edge CSR
    /// and counts PolyCalls; the reachable set and instantiated types are
    /// copied. The PVPG is not copied.
    pub fn to_owned_snapshot(&self) -> OwnedSnapshot {
        let mut sites = Vec::new();
        let mut targets = Vec::new();
        let mut poly_calls = 0;
        for (caller, mg) in self.graph.method_graphs() {
            for (ordinal, id) in self.graph.method_sites(mg).enumerate() {
                let site = self.graph.site(id);
                if site.linked.is_empty() || !self.graph.flow(site.flow).enabled {
                    continue;
                }
                if site.kind == CallKind::Virtual && site.linked.len() >= 2 {
                    poly_calls += 1;
                }
                let start = targets.len();
                targets.extend_from_slice(&site.linked);
                targets[start..].sort_unstable();
                sites.push(SiteRow {
                    caller,
                    // Every site owns a flow, so ordinals are below
                    // `MAX_FLOW_COUNT` like flow ids.
                    ordinal: ordinal as u32,
                    kind: site.kind,
                    end: u32::try_from(targets.len()).expect("call edges fit in u32"),
                });
            }
        }
        sites.shrink_to_fit();
        targets.shrink_to_fit();
        let mut stats = self.stats.clone();
        stats.flows = self.graph.flow_count();
        OwnedSnapshot {
            reachable: self.reachable.clone(),
            instantiated: self.instantiated.clone(),
            sites,
            targets,
            poly_calls,
            stats,
            completeness: self.completeness,
        }
    }

    /// Renders the call graph as Graphviz `dot` (method-level nodes;
    /// polymorphic sites produce multiple out-edges).
    pub fn call_graph_dot(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n");
        for &m in self.reachable.iter() {
            let _ = writeln!(out, "  m{} [label=\"{}\"];", m.index(), program.method_label(m));
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in self.call_graph_edges() {
            if seen.insert((e.caller, e.callee)) {
                let style = match e.kind {
                    CallKind::Virtual => "",
                    CallKind::Static => " [style=dashed]",
                };
                let _ = writeln!(out, "  m{} -> m{}{style};", e.caller.index(), e.callee.index());
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The owned outcome of one analysis (see [`crate::analyze`] and
/// [`AnalysisSession::into_result`](crate::AnalysisSession::into_result)).
/// Every query delegates to [`AnalysisSnapshot`].
#[derive(Debug)]
pub struct AnalysisResult {
    graph: Pvpg,
    reachable: ReachableSet,
    instantiated: BitSet,
    config: AnalysisConfig,
    stats: SolveStats,
    completeness: Completeness,
}

impl AnalysisResult {
    pub(crate) fn new(
        graph: Pvpg,
        reachable: ReachableSet,
        instantiated: BitSet,
        config: AnalysisConfig,
        mut stats: SolveStats,
        completeness: Completeness,
    ) -> Self {
        stats.flows = graph.flow_count();
        AnalysisResult {
            graph,
            reachable,
            instantiated,
            config,
            stats,
            completeness,
        }
    }

    /// A borrowed view of this result carrying the full query surface.
    pub fn snapshot(&self) -> AnalysisSnapshot<'_> {
        AnalysisSnapshot::new(
            &self.graph,
            &self.reachable,
            &self.instantiated,
            &self.config,
            &self.stats,
            self.completeness,
        )
    }

    /// Whether this result is a reached fixpoint or an interrupted
    /// checkpoint; see [`AnalysisSnapshot::completeness`].
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// The final PVPG (for advanced inspection and the bench harness).
    pub fn graph(&self) -> &Pvpg {
        &self.graph
    }

    /// The configuration the analysis ran under.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Solver statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The set of reachable methods (the paper's `R`).
    pub fn reachable_methods(&self) -> &ReachableSet {
        &self.reachable
    }

    /// Whether `m` was marked reachable (O(1)).
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(m)
    }

    /// Whether any enabled `new T` for this exact type was reached.
    pub fn is_instantiated(&self, t: TypeId) -> bool {
        self.instantiated.contains(t.index())
    }

    /// The value state returned by `m`; see [`AnalysisSnapshot::return_state`].
    pub fn return_state(&self, m: MethodId) -> Option<&ValueState> {
        self.snapshot().return_state(m)
    }

    /// The value state of parameter `i` of `m`; see
    /// [`AnalysisSnapshot::param_state`].
    pub fn param_state(&self, m: MethodId, i: usize) -> Option<&ValueState> {
        self.snapshot().param_state(m, i)
    }

    /// The resolved targets of each call site in `m`, in source order.
    pub fn call_sites(&self, m: MethodId) -> Vec<CallSiteInfo> {
        self.snapshot().call_sites(m)
    }

    /// Per-block liveness of `m`'s body; see [`AnalysisSnapshot::live_blocks`].
    pub fn live_blocks(&self, m: MethodId) -> Vec<bool> {
        self.snapshot().live_blocks(m)
    }

    /// The blocks of `m` proven unreachable by the analysis.
    pub fn dead_blocks(&self, m: MethodId) -> Vec<BlockId> {
        self.snapshot().dead_blocks(m)
    }

    /// Virtual call sites in `m` devirtualized to exactly one target.
    pub fn devirtualized_sites(&self, m: MethodId) -> Vec<(SiteId, MethodId)> {
        self.snapshot().devirtualized_sites(m)
    }

    /// The out-state of the flow created for statement `stmt` of `block`.
    pub fn stmt_state(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<&ValueState> {
        self.snapshot().stmt_state(m, block, stmt)
    }

    /// Whether the flow of statement `stmt` in `block` of `m` is enabled.
    pub fn stmt_enabled(&self, m: MethodId, block: BlockId, stmt: usize) -> Option<bool> {
        self.snapshot().stmt_enabled(m, block, stmt)
    }

    /// Computes the paper's counter metrics.
    pub fn metrics(&self, program: &Program) -> Metrics {
        self.snapshot().metrics(program)
    }

    /// Renders a human-readable dead-code report for one method.
    pub fn dead_code_report(&self, program: &Program, m: MethodId) -> String {
        self.snapshot().dead_code_report(program, m)
    }

    /// Flow-level view used by debugging tests.
    pub fn allocation_enabled(&self, t: TypeId) -> bool {
        self.snapshot().allocation_enabled(t)
    }

    /// The call graph induced by the analysis.
    pub fn call_graph_edges(&self) -> Vec<CallEdge> {
        self.snapshot().call_graph_edges()
    }

    /// Renders the call graph as Graphviz `dot`.
    pub fn call_graph_dot(&self, program: &Program) -> String {
        self.snapshot().call_graph_dot(program)
    }
}

/// The published answers of one analysis state: the compact,
/// query-shaped result that crosses threads.
///
/// [`AnalysisSnapshot`] borrows a paused session, so it cannot outlive the
/// solve loop that produced it; a server that answers queries *while* the
/// next solve runs needs an owned form. An `OwnedSnapshot` holds what the
/// paper's clients read — the reachable set, the instantiated types and
/// the call graph, plus [`SolveStats`] and [`Completeness`] — and none of
/// the PVPG:
///
/// * building one ([`AnalysisSnapshot::to_owned_snapshot`] or
///   [`AnalysisSession::owned_snapshot`](crate::AnalysisSession::owned_snapshot))
///   is one pass over the session's call sites, on the writer's thread;
/// * the call edges of enabled sites are a per-site CSR keyed by
///   `(caller, ordinal)`, and every count is computed at extraction, so
///   each [`crate::CallGraphQuery`] count is O(1);
/// * it is `Send + Sync`, and [`OwnedSnapshot::heap_bytes`] reports what it
///   holds, so a server's memory accounting can count published epochs.
///
/// Flow-level questions (value states, liveness, `dot`) stay with the
/// session's [`AnalysisSnapshot`] or an [`AnalysisResult`], which keep the
/// graph.
#[derive(Clone, Debug)]
pub struct OwnedSnapshot {
    reachable: ReachableSet,
    instantiated: BitSet,
    /// CSR rows: the enabled call sites with at least one target, in
    /// ascending `(caller, ordinal)` order.
    sites: Vec<SiteRow>,
    /// CSR columns: the resolved targets, ascending within each site. Its
    /// length is the call-edge count.
    targets: Vec<MethodId>,
    /// Enabled virtual sites with two or more targets.
    poly_calls: usize,
    stats: SolveStats,
    completeness: Completeness,
}

/// One row of the [`OwnedSnapshot`] call-edge CSR: the site's targets end
/// at `end` and start where the previous row's end.
#[derive(Clone, Copy, Debug)]
struct SiteRow {
    caller: MethodId,
    ordinal: u32,
    kind: CallKind,
    end: u32,
}

/// One enabled call site of an [`OwnedSnapshot`] and its resolved targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteTargets<'a> {
    /// The calling method.
    pub caller: MethodId,
    /// The site's position among the caller's call sites in source order
    /// (its index in [`AnalysisSnapshot::call_sites`]). Unlike a
    /// [`SiteId`], which numbers one graph's call-site arena, the ordinal
    /// is the same in every session over the same program.
    pub ordinal: usize,
    /// Virtual or static dispatch.
    pub kind: CallKind,
    /// The resolved targets, ascending.
    pub targets: &'a [MethodId],
}

impl OwnedSnapshot {
    /// Whether the answers are a reached fixpoint or an interrupted
    /// checkpoint; see [`AnalysisSnapshot::completeness`].
    pub fn completeness(&self) -> Completeness {
        self.completeness
    }

    /// Solver statistics at the time the answers were extracted.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The set of reachable methods.
    pub fn reachable_methods(&self) -> &ReachableSet {
        &self.reachable
    }

    /// Whether `m` was marked reachable (O(1)).
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(m)
    }

    /// Whether any enabled `new T` for this exact type was reached.
    pub fn is_instantiated(&self, t: TypeId) -> bool {
        self.instantiated.contains(t.index())
    }

    /// The enabled call sites that resolved at least one target, in
    /// ascending `(caller, ordinal)` order.
    pub fn sites(&self) -> impl ExactSizeIterator<Item = SiteTargets<'_>> + '_ {
        self.sites.iter().enumerate().map(|(i, row)| {
            let start = if i == 0 { 0 } else { self.sites[i - 1].end as usize };
            SiteTargets {
                caller: row.caller,
                ordinal: row.ordinal as usize,
                kind: row.kind,
                targets: &self.targets[start..row.end as usize],
            }
        })
    }

    /// Call edges: one per `(site, target)` pair of an enabled site (O(1)).
    pub fn call_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Enabled virtual call sites with two or more targets — the PolyCalls
    /// counter (O(1)).
    pub fn poly_call_count(&self) -> usize {
        self.poly_calls
    }

    /// Heap bytes these answers hold (what a server retains per published
    /// epoch).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.reachable.heap_bytes()
            + self.instantiated.word_width() * size_of::<u64>()
            + self.sites.capacity() * size_of::<SiteRow>()
            + self.targets.capacity() * size_of::<MethodId>()
    }
}

/// One edge of the computed call graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallEdge {
    /// The calling method.
    pub caller: MethodId,
    /// The call site within the caller.
    pub site: SiteId,
    /// The resolved target.
    pub callee: MethodId,
    /// Virtual or static dispatch.
    pub kind: CallKind,
}

/// Summary of one call site for reports.
#[derive(Clone, Debug)]
pub struct CallSiteInfo {
    /// Site id.
    pub site: SiteId,
    /// Virtual or static.
    pub kind: CallKind,
    /// Targets linked by the analysis.
    pub targets: Vec<MethodId>,
    /// Whether the invoke flow was ever enabled.
    pub enabled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachable_set_sorts_membership_and_iteration() {
        let mut bits = BitSet::new();
        for i in [5usize, 1, 9] {
            bits.insert(i);
        }
        let order = vec![
            MethodId::from_index(9),
            MethodId::from_index(1),
            MethodId::from_index(5),
        ];
        let set = ReachableSet::from_discovery(bits, order);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(set.contains(MethodId::from_index(5)));
        assert!(!set.contains(MethodId::from_index(2)));
        let ids: Vec<usize> = set.iter().map(|m| m.index()).collect();
        assert_eq!(ids, vec![1, 5, 9], "ascending regardless of discovery order");
        // `for &m in &set` works like the former BTreeSet.
        let mut n = 0;
        for &m in &set {
            assert!(set.contains(m));
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn reachable_set_equality_ignores_discovery_order() {
        let build = |order: &[usize]| {
            let mut bits = BitSet::new();
            for &i in order {
                bits.insert(i);
            }
            ReachableSet::from_discovery(
                bits,
                order.iter().map(|&i| MethodId::from_index(i)).collect(),
            )
        };
        assert_eq!(build(&[3, 1, 2]), build(&[1, 2, 3]));
        assert_ne!(build(&[1, 2]), build(&[1, 2, 3]));
        assert!(build(&[1, 2]).is_subset(&build(&[1, 2, 3])));
        assert!(!build(&[1, 4]).is_subset(&build(&[1, 2, 3])));
    }
}
