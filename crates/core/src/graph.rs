//! The predicated value propagation graph (PVPG): flow arena, the three
//! edge kinds, call sites, field sinks, and per-method graph summaries.
//!
//! The flow arena holds only what a worklist step reads ([`Flow`]: kind,
//! the two value states and the enabled bit). Each flow's provenance, the
//! method and block it was created for, sits in an 8-byte cold side array
//! read through [`Pvpg::flow_method`] and [`Pvpg::flow_block`]; only reports
//! and tests read it.
//!
//! Adjacency is stored CSR-style in graph-owned [`EdgePool`]s rather than in
//! per-flow `Vec`s: construction-time edges of one method fragment are
//! buffered and *sealed* into one shared `Vec<FlowId>` in flow order, with
//! one start offset per flow (a flow's edges end where the next flow's
//! start), while edges discovered during solving (field wiring, invoke
//! linking) go to a linked spill arena. Worklist steps iterate successors
//! through a [`EdgeCursor`] — a `Copy` value that survives re-borrows — so
//! the engine never clones an edge list. Dynamic use edges are deduplicated through a
//! set keyed by the packed `(source, target)` pair under a one-multiply
//! hash (flow ids are dense engine-assigned indices, not input values).
//!
//! Per-method summaries follow the same layout. A [`MethodGraph`] is a
//! `Copy` record of index ranges into graph-wide pools — parameters, `if`
//! records, per-block entry predicates, and statement flows as a CSR with
//! per-block starts — plus ranges of the flow and call-site arenas
//! themselves, which a fragment fills contiguously. Call-site arguments
//! live in one more pool. The records sit in a dense table indexed by
//! method id, so iteration is in id order. Growing the graph therefore
//! allocates only when an arena or pool doubles.
//!
//! The graph keeps no scheduling state. Flow ids are dense and follow
//! creation order, and that order is all the engine's worklist ranks
//! re-enqueued flows by (`engine.rs`, "Scheduling"): adding a flow or an
//! edge costs the same under either solver.

use crate::flow::{CallSite, Flow, FlowId, FlowKind, SiteId};
use skipflow_ir::{BlockId, FieldId, MethodId, TypeRef};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::num::NonZeroU32;

const NO_SPILL: u32 = u32::MAX;

/// CSR-style adjacency shared by every flow for one edge kind.
#[derive(Clone, Debug, Default)]
pub struct EdgePool {
    /// Frozen edge targets, grouped contiguously per source flow in flow
    /// order.
    csr: Vec<FlowId>,
    /// Per-flow start into `csr`, written at seal time for every flow
    /// created since the previous seal. A flow's range ends where the next
    /// flow's starts, or at `csr.len()` for the last sealed flow.
    starts: Vec<u32>,
    /// Per-flow head index into `spill` (`NO_SPILL` = none).
    spill_head: Vec<u32>,
    /// `(target, next)` nodes for edges added after the source was sealed.
    spill: Vec<(FlowId, u32)>,
    /// Buffered `(src, dst)` pairs of the open construction batch.
    pending: Vec<(FlowId, FlowId)>,
    /// Reusable counting-sort scratch for [`EdgePool::seal`].
    scratch: Vec<u32>,
}

/// Iteration state over one flow's successors; `Copy`, so the caller can
/// interleave `next` calls with arbitrary graph mutation (edges are never
/// removed and CSR ranges are frozen, so a cursor never dangles).
#[derive(Clone, Copy, Debug)]
pub struct EdgeCursor {
    csr_pos: u32,
    csr_end: u32,
    spill: u32,
}

impl EdgePool {
    fn ensure(&mut self, flow_count: usize) {
        if self.spill_head.len() < flow_count {
            self.spill_head.resize(flow_count, NO_SPILL);
        }
    }

    /// Buffers a construction-time edge; materialized by [`EdgePool::seal`].
    fn push_pending(&mut self, s: FlowId, t: FlowId) {
        self.pending.push((s, t));
    }

    /// Adds an edge immediately to the spill arena (newest first).
    fn push_spill(&mut self, s: FlowId, t: FlowId, flow_count: usize) {
        self.ensure(flow_count);
        let idx = self.spill.len() as u32;
        assert!(idx != NO_SPILL, "spill arena overflow");
        self.spill.push((t, self.spill_head[s.index()]));
        self.spill_head[s.index()] = idx;
    }

    /// Seals the open batch: pending edges whose source is `≥ first` (the
    /// fragment's own flows, each sealed exactly once) get contiguous CSR
    /// ranges via a counting sort; pending edges from older sources join
    /// their spill lists. Flows created between the previous seal and
    /// `first` (root sources and field sinks made mid-solve) get empty
    /// ranges.
    fn seal(&mut self, first: usize, flow_count: usize) {
        self.ensure(flow_count);
        assert!(self.starts.len() <= first, "flows are sealed once");
        let base = self.csr.len();
        self.starts.resize(first, pool_index(base));
        if self.pending.is_empty() {
            self.starts.resize(flow_count, pool_index(base));
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let mut batch_edges = 0u32;
        let mut counts = std::mem::take(&mut self.scratch);
        counts.clear();
        counts.resize(flow_count - first, 0);
        for &(s, _) in &pending {
            if s.index() >= first {
                counts[s.index() - first] += 1;
                batch_edges += 1;
            }
        }
        let mut offset = pool_index(base);
        for &c in &counts {
            self.starts.push(offset);
            offset += c;
        }
        self.csr.resize(base + batch_edges as usize, FlowId(0));
        // Reuse `counts` as per-flow write cursors.
        for c in counts.iter_mut() {
            *c = 0;
        }
        for &(s, t) in &pending {
            if s.index() >= first {
                let slot = s.index() - first;
                let pos = self.starts[s.index()] + counts[slot];
                self.csr[pos as usize] = t;
                counts[slot] += 1;
            } else {
                let idx = self.spill.len() as u32;
                self.spill.push((t, self.spill_head[s.index()]));
                self.spill_head[s.index()] = idx;
            }
        }
        self.scratch = counts;
        // Hand the drained buffer back so the next batch reuses it.
        self.pending = pending;
        self.pending.clear();
    }

    /// Starts iterating `f`'s successors. Must not be called while a
    /// construction batch is open.
    pub fn cursor(&self, f: FlowId) -> EdgeCursor {
        debug_assert!(self.pending.is_empty(), "cursor over unsealed pool");
        let i = f.index();
        let (csr_pos, csr_end) = match self.starts.get(i) {
            Some(&start) => {
                let end = self.starts.get(i + 1).copied();
                (start, end.unwrap_or_else(|| pool_index(self.csr.len())))
            }
            None => (0, 0),
        };
        let spill = self.spill_head.get(i).copied().unwrap_or(NO_SPILL);
        EdgeCursor {
            csr_pos,
            csr_end,
            spill,
        }
    }

    /// Advances a cursor; CSR range first, then the spill list.
    pub fn next(&self, cur: &mut EdgeCursor) -> Option<FlowId> {
        if cur.csr_pos < cur.csr_end {
            let t = self.csr[cur.csr_pos as usize];
            cur.csr_pos += 1;
            return Some(t);
        }
        if cur.spill != NO_SPILL {
            let (t, next) = self.spill[cur.spill as usize];
            cur.spill = next;
            return Some(t);
        }
        None
    }

    /// Iterates `f`'s successors (read-only contexts: reports, dot export).
    pub fn targets(&self, f: FlowId) -> impl Iterator<Item = FlowId> + '_ {
        let mut cur = self.cursor(f);
        std::iter::from_fn(move || self.next(&mut cur))
    }

    /// Total number of materialized edges.
    pub fn len(&self) -> usize {
        self.csr.len() + self.spill.len()
    }

    /// Whether the pool holds no edges. (`len`'s conventional companion;
    /// only tests exercise it today, hence the lint allowance.)
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The classification of a branching instruction, used by the paper's
/// counter metrics (Type Checks / Null Checks / Prim Checks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckCategory {
    /// `instanceof` conditions.
    Type,
    /// Comparisons against a `null` literal (and reference equality).
    Null,
    /// Primitive comparisons.
    Prim,
}

/// Metrics/reporting record for one `if` instruction: the filtering flows
/// whose emptiness decides whether each branch is dead.
#[derive(Clone, Debug)]
pub struct IfRecord {
    /// Block ending with the `if`.
    pub block: BlockId,
    /// Metric category of the check.
    pub category: CheckCategory,
    /// Entry predicate of the then branch (last filter in its chain).
    pub then_pred: FlowId,
    /// Entry predicate of the else branch.
    pub else_pred: FlowId,
}

/// Narrows a pool length or index to the `u32` the pools are indexed by,
/// like flow ids; panics if a pool outgrows that (4 billion entries).
pub(crate) fn pool_index(i: usize) -> u32 {
    u32::try_from(i).expect("PVPG pools are indexed by u32")
}

/// A half-open range `start..end` of indices into one of the [`Pvpg`]'s
/// arenas or pools. Unlike `Range<u32>` it is `Copy`, which keeps
/// [`MethodGraph`] a plain value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    /// The span from `start` to the current length `end` of a pool.
    pub(crate) fn between(start: usize, end: usize) -> Self {
        Span {
            start: pool_index(start),
            end: pool_index(end),
        }
    }

    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    pub(crate) fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    pub(crate) fn contains(self, i: usize) -> bool {
        self.range().contains(&i)
    }
}

/// The PVPG fragment of one method, plus reporting metadata.
///
/// A small `Copy` record of index ranges: the fragment's lists live in
/// `Pvpg`-wide arenas and pools, appended to once per fragment, so building
/// a fragment allocates nothing of its own. Read the lists through the
/// graph's accessors ([`Pvpg::method_flows`], [`Pvpg::method_params`],
/// [`Pvpg::method_sites`], [`Pvpg::method_ifs`], [`Pvpg::block_preds`] and
/// [`Pvpg::stmt_flows`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct MethodGraph {
    /// The method-return flow (joins all return sites).
    pub ret: Option<FlowId>,
    /// The flow arena range `first_flow..end` created while the fragment
    /// was built. It can contain global flows the build created on first
    /// use (a static field's sink), whose [`Pvpg::flow_method`] is `None`.
    pub(crate) flows: Span,
    /// Parameter flows (receiver first for instance methods), in the
    /// parameter pool.
    pub(crate) params: Span,
    /// Call sites, in creation order: a range of the site arena itself,
    /// since every site is created by exactly one fragment build.
    pub(crate) sites: Span,
    /// `if` records, in the if pool.
    pub(crate) ifs: Span,
    /// One entry per basic block, indexed by block id, in the block pools:
    /// the entry predicate (block liveness = that flow is active) and the
    /// start of the block's statement flows.
    pub(crate) blocks: Span,
    /// All statement flows of the body, in the statement pool: a CSR whose
    /// per-block starts sit in the block pool.
    pub(crate) stmts: Span,
}

/// Builds a hasher for the dynamic-edge dedup set: its keys are
/// `(source << 32) | target` over dense, engine-assigned flow ids — never
/// values taken from the input — so one multiply spreads them, and folding
/// the high half into the low half feeds the bits hashbrown picks buckets
/// from.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EdgeKeyHash;

/// The hasher [`EdgeKeyHash`] builds; it accepts only `u64` keys.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EdgeKeyHasher(u64);

impl BuildHasher for EdgeKeyHash {
    type Hasher = EdgeKeyHasher;

    fn build_hasher(&self) -> EdgeKeyHasher {
        EdgeKeyHasher(0)
    }
}

impl Hasher for EdgeKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("edge keys hash as u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// The dedup key of the edge `s → t`.
fn edge_key(s: FlowId, t: FlowId) -> u64 {
    (u64::from(s.0) << 32) | u64::from(t.0)
}

/// Where a flow was created, packed for the cold side array beside the
/// flow arena: the method and block ids plus one, `None` for none, so the
/// pair takes 8 bytes where two `Option`s of ids would take 16.
#[derive(Clone, Copy, Debug)]
struct Origin {
    method: Option<NonZeroU32>,
    block: Option<NonZeroU32>,
}

/// An id's index plus one: never zero, so `Option` packs it in 4 bytes.
fn plus_one(index: usize) -> Option<NonZeroU32> {
    NonZeroU32::new(pool_index(index + 1))
}

/// The whole-program PVPG.
#[derive(Debug)]
pub struct Pvpg {
    /// Flow arena: what a worklist step reads.
    pub(crate) flows: Vec<Flow>,
    /// Provenance of each flow, aligned with `flows`; only reports read it
    /// ([`Pvpg::flow_method`], [`Pvpg::flow_block`]).
    origins: Vec<Origin>,
    /// Call-site arena.
    pub sites: Vec<CallSite>,
    /// Use-edge adjacency.
    pub(crate) uses: EdgePool,
    /// Predicate-edge adjacency.
    pub(crate) preds: EdgePool,
    /// Observe-edge adjacency.
    pub(crate) observes: EdgePool,
    /// The always-enabled predicate.
    pub pred_on: FlowId,
    /// Global pool of thrown exception values.
    pub thrown_sink: FlowId,
    /// Global pool of unsafe-accessed field values.
    pub unsafe_sink: FlowId,
    /// Per-method graphs, indexed by method id; an entry is set when the
    /// method's fragment is built.
    methods: Vec<Option<MethodGraph>>,
    /// Parameter flows of every fragment ([`MethodGraph::params`]).
    pub(crate) param_pool: Vec<FlowId>,
    /// Argument flows of every call site ([`CallSite::args`]).
    pub(crate) arg_pool: Vec<FlowId>,
    /// `if` records of every fragment ([`MethodGraph::ifs`]).
    pub(crate) if_pool: Vec<IfRecord>,
    /// Entry predicate of every block of every fragment
    /// ([`MethodGraph::blocks`]).
    pub(crate) block_pred_pool: Vec<FlowId>,
    /// Start of each block's statement flows in `stmt_pool`, aligned with
    /// `block_pred_pool`.
    pub(crate) block_stmt_start: Vec<u32>,
    /// Statement flows of every fragment ([`MethodGraph::stmts`]).
    pub(crate) stmt_pool: Vec<FlowId>,
    /// Per-field sinks, created on first access.
    field_sinks: HashMap<FieldId, FlowId>,
    /// Dedup set for dynamically added use edges (field/invoke linking),
    /// keyed by [`edge_key`].
    dynamic_use_edges: HashSet<u64, EdgeKeyHash>,
}

impl Pvpg {
    /// Creates a PVPG containing only the global flows.
    pub fn new() -> Self {
        let mut g = Pvpg {
            flows: Vec::new(),
            origins: Vec::new(),
            sites: Vec::new(),
            uses: EdgePool::default(),
            preds: EdgePool::default(),
            observes: EdgePool::default(),
            pred_on: FlowId(0),
            thrown_sink: FlowId(0),
            unsafe_sink: FlowId(0),
            methods: Vec::new(),
            param_pool: Vec::new(),
            arg_pool: Vec::new(),
            if_pool: Vec::new(),
            block_pred_pool: Vec::new(),
            block_stmt_start: Vec::new(),
            stmt_pool: Vec::new(),
            field_sinks: HashMap::new(),
            dynamic_use_edges: HashSet::default(),
        };
        g.pred_on = g.add_flow(Flow::new(FlowKind::PredOn), None, None);
        g.thrown_sink = g.add_flow(Flow::new(FlowKind::ThrownSink), None, None);
        g.unsafe_sink = g.add_flow(Flow::new(FlowKind::UnsafeSink), None, None);
        g
    }

    /// Bytes each flow costs across the graph's per-flow tables: the flow
    /// record, its origin in the side array, and a CSR start and a spill
    /// head in each of the three edge pools.
    pub(crate) const BYTES_PER_FLOW: usize = std::mem::size_of::<Flow>()
        + std::mem::size_of::<Origin>()
        + 3 * 2 * std::mem::size_of::<u32>();

    /// Adds a flow created for `method`'s `block` (`None` for the global
    /// flows) and returns its id. Ids follow creation order, which is also
    /// the order the engine's priority tier drains re-enqueued flows in.
    pub fn add_flow(
        &mut self,
        flow: Flow,
        method: Option<MethodId>,
        block: Option<BlockId>,
    ) -> FlowId {
        let id = FlowId::from_index(self.flows.len());
        self.flows.push(flow);
        self.origins.push(Origin {
            method: method.and_then(|m| plus_one(m.index())),
            block: block.and_then(|b| plus_one(b.index())),
        });
        id
    }

    /// Immutable access to a flow.
    pub fn flow(&self, id: FlowId) -> &Flow {
        &self.flows[id.index()]
    }

    /// Mutable access to a flow.
    pub fn flow_mut(&mut self, id: FlowId) -> &mut Flow {
        &mut self.flows[id.index()]
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// The method whose fragment created `id` (`None` for the global flows:
    /// `pred_on`, field sinks, the thrown/unsafe pools, and root sources).
    pub fn flow_method(&self, id: FlowId) -> Option<MethodId> {
        let m = self.origins[id.index()].method?;
        Some(MethodId::from_index(m.get() as usize - 1))
    }

    /// The basic block `id` was created for, when applicable (used by
    /// liveness reporting).
    pub fn flow_block(&self, id: FlowId) -> Option<BlockId> {
        let b = self.origins[id.index()].block?;
        Some(BlockId::from_index(b.get() as usize - 1))
    }

    /// Adds a call site and returns its id.
    pub fn add_site(&mut self, site: CallSite) -> SiteId {
        let id = SiteId::from_index(self.sites.len());
        self.sites.push(site);
        id
    }

    /// Immutable access to a call site.
    pub fn site(&self, id: SiteId) -> &CallSite {
        &self.sites[id.index()]
    }

    /// Mutable access to a call site.
    pub fn site_mut(&mut self, id: SiteId) -> &mut CallSite {
        &mut self.sites[id.index()]
    }

    /// Adds a use edge `s ⇝use t` (construction-time; caller guarantees no
    /// duplicates). Buffered until [`Pvpg::seal_batch`].
    pub fn add_use(&mut self, s: FlowId, t: FlowId) {
        self.uses.push_pending(s, t);
    }

    /// Adds a use edge with deduplication (for edges discovered during
    /// solving: field accesses and invoke linking); goes straight to the
    /// spill arena. Returns `true` if the edge is new.
    pub fn add_use_dedup(&mut self, s: FlowId, t: FlowId) -> bool {
        if self.dynamic_use_edges.insert(edge_key(s, t)) {
            let n = self.flows.len();
            self.uses.push_spill(s, t, n);
            true
        } else {
            false
        }
    }

    /// Adds a predicate edge `s ⇝pred t` (construction-time, buffered).
    pub fn add_pred(&mut self, s: FlowId, t: FlowId) {
        self.preds.push_pending(s, t);
    }

    /// Adds an observe edge `s ⇝obs t` (construction-time, buffered).
    pub fn add_observe(&mut self, s: FlowId, t: FlowId) {
        self.observes.push_pending(s, t);
    }

    /// Seals a construction batch: every pending edge whose source is one of
    /// the flows created since `first_flow` is frozen into CSR storage.
    /// Called once per method fragment, right after construction.
    pub fn seal_batch(&mut self, first_flow: usize) {
        let n = self.flows.len();
        self.uses.seal(first_flow, n);
        self.preds.seal(first_flow, n);
        self.observes.seal(first_flow, n);
    }

    /// Iterates `f`'s use-edge successors.
    pub fn use_targets(&self, f: FlowId) -> impl Iterator<Item = FlowId> + '_ {
        self.uses.targets(f)
    }

    /// Iterates `f`'s predicate-edge successors.
    pub fn pred_targets(&self, f: FlowId) -> impl Iterator<Item = FlowId> + '_ {
        self.preds.targets(f)
    }

    /// Iterates `f`'s observe-edge successors.
    pub fn observe_targets(&self, f: FlowId) -> impl Iterator<Item = FlowId> + '_ {
        self.observes.targets(f)
    }

    /// The field sink for `field`, created on first request (always enabled:
    /// field state exists independently of any one access site).
    pub fn field_sink(&mut self, field: FieldId) -> FlowId {
        if let Some(&f) = self.field_sinks.get(&field) {
            return f;
        }
        let mut flow = Flow::new(FlowKind::FieldSink { field });
        flow.enabled = true;
        let id = self.add_flow(flow, None, None);
        self.field_sinks.insert(field, id);
        id
    }

    /// The field sink for `field` if it was ever accessed.
    pub fn field_sink_opt(&self, field: FieldId) -> Option<FlowId> {
        self.field_sinks.get(&field).copied()
    }

    /// The method graph of `m`, if its fragment has been built.
    pub fn method_graph(&self, m: MethodId) -> Option<&MethodGraph> {
        self.methods.get(m.index())?.as_ref()
    }

    /// Records `m`'s built fragment.
    pub(crate) fn set_method_graph(&mut self, m: MethodId, mg: MethodGraph) {
        if self.methods.len() <= m.index() {
            self.methods.resize(m.index() + 1, None);
        }
        self.methods[m.index()] = Some(mg);
    }

    /// Every built method graph, in method-id order.
    pub fn method_graphs(&self) -> impl Iterator<Item = (MethodId, &MethodGraph)> + '_ {
        self.methods
            .iter()
            .enumerate()
            .filter_map(|(i, mg)| Some((MethodId::from_index(i), mg.as_ref()?)))
    }

    /// The flows created while `mg` was built, in arena order (see
    /// [`MethodGraph`] for the global flows this range can include).
    pub fn method_flows(&self, mg: &MethodGraph) -> impl Iterator<Item = FlowId> + 'static {
        mg.flows.range().map(FlowId::from_index)
    }

    /// `mg`'s parameter flows, receiver first for instance methods.
    pub fn method_params(&self, mg: &MethodGraph) -> &[FlowId] {
        &self.param_pool[mg.params.range()]
    }

    /// `mg`'s call sites, in creation order.
    pub fn method_sites(
        &self,
        mg: &MethodGraph,
    ) -> impl ExactSizeIterator<Item = SiteId> + 'static {
        mg.sites.range().map(SiteId::from_index)
    }

    /// `mg`'s `if` records, in creation order.
    pub fn method_ifs(&self, mg: &MethodGraph) -> &[IfRecord] {
        &self.if_pool[mg.ifs.range()]
    }

    /// The entry predicate of each of `mg`'s blocks, indexed by block id.
    pub fn block_preds(&self, mg: &MethodGraph) -> &[FlowId] {
        &self.block_pred_pool[mg.blocks.range()]
    }

    /// The statement flows of `block` in `mg`, aligned with the block's
    /// statements (empty for a block id outside the body).
    pub fn stmt_flows(&self, mg: &MethodGraph, block: BlockId) -> &[FlowId] {
        if block.index() >= mg.blocks.len() {
            return &[];
        }
        let b = mg.blocks.start as usize + block.index();
        let start = self.block_stmt_start[b] as usize;
        let end = if block.index() + 1 < mg.blocks.len() {
            self.block_stmt_start[b + 1] as usize
        } else {
            mg.stmts.end as usize
        };
        &self.stmt_pool[start..end]
    }

    /// The argument flows of `site`, receiver first for virtual calls.
    pub fn site_args(&self, site: SiteId) -> &[FlowId] {
        &self.arg_pool[self.sites[site.index()].args.range()]
    }

    /// Creates an always-enabled injection source bounded by `declared`.
    pub fn add_root_source(&mut self, declared: TypeRef) -> FlowId {
        let mut flow = Flow::new(FlowKind::RootSource { declared });
        flow.enabled = true;
        self.add_flow(flow, None, None)
    }

    /// Total number of edges of each kind `(use, pred, observe)` — used by
    /// statistics and sanity tests. Counts sealed and spill edges; a batch
    /// must not be open.
    pub fn edge_counts(&self) -> (usize, usize, usize) {
        (self.uses.len(), self.preds.len(), self.observes.len())
    }

    /// Bytes of edge storage across the three pools: a 4-byte target per
    /// sealed CSR edge, an 8-byte `(target, next)` node per spill edge.
    pub(crate) fn edge_bytes(&self) -> usize {
        [&self.uses, &self.preds, &self.observes]
            .iter()
            .map(|p| {
                p.csr.len() * std::mem::size_of::<FlowId>()
                    + p.spill.len() * std::mem::size_of::<(FlowId, u32)>()
            })
            .sum()
    }
}

impl Default for Pvpg {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_has_global_flows() {
        let g = Pvpg::new();
        assert_eq!(g.flow_count(), 3);
        assert!(matches!(g.flow(g.pred_on).kind, FlowKind::PredOn));
        assert!(matches!(g.flow(g.thrown_sink).kind, FlowKind::ThrownSink));
        assert!(matches!(g.flow(g.unsafe_sink).kind, FlowKind::UnsafeSink));
    }

    #[test]
    fn field_sinks_are_created_once() {
        let mut g = Pvpg::new();
        let f = FieldId::from_index(0);
        let a = g.field_sink(f);
        let b = g.field_sink(f);
        assert_eq!(a, b);
        assert!(g.flow(a).enabled);
        assert_eq!(g.field_sink_opt(FieldId::from_index(1)), None);
    }

    #[test]
    fn dynamic_use_edges_deduplicate() {
        let mut g = Pvpg::new();
        let a = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        let b = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        assert!(g.add_use_dedup(a, b));
        assert!(!g.add_use_dedup(a, b));
        assert_eq!(g.use_targets(a).count(), 1);
    }

    #[test]
    fn edge_counts_sum_all_kinds() {
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        let b = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        assert!(g.uses.is_empty());
        g.add_use(a, b);
        g.add_pred(a, b);
        g.add_pred(b, a);
        g.add_observe(a, b);
        g.seal_batch(first);
        assert_eq!(g.edge_counts(), (1, 2, 1));
        assert!(!g.uses.is_empty());
    }

    #[test]
    fn sealed_and_spill_edges_iterate_in_order() {
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        let b = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        let c = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        g.add_use(a, b);
        g.add_use(a, c);
        g.seal_batch(first);
        // Dynamic edges land in the spill list after the CSR range.
        assert!(g.add_use_dedup(a, a));
        let targets: Vec<FlowId> = g.use_targets(a).collect();
        assert_eq!(targets, vec![b, c, a]);
        // A second sealed batch for new flows leaves old ranges intact.
        let first2 = g.flow_count();
        let d = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        g.add_use(d, a);
        g.seal_batch(first2);
        assert_eq!(g.use_targets(a).collect::<Vec<_>>(), vec![b, c, a]);
        assert_eq!(g.use_targets(d).collect::<Vec<_>>(), vec![a]);
        assert_eq!(g.edge_counts(), (4, 0, 0));
    }

    #[test]
    fn flows_made_between_seals_get_empty_ranges() {
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        g.add_use(a, a);
        g.seal_batch(first);
        // A root source and a field sink made mid-solve, then a fragment
        // whose pending edges also leave one of them.
        let rs = g.add_root_source(TypeRef::Prim);
        let sink = g.field_sink(FieldId::from_index(0));
        let first2 = g.flow_count();
        let b = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        let c = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        g.add_use(b, c);
        g.add_use(rs, b);
        g.add_use(c, a);
        g.add_use(c, b);
        g.seal_batch(first2);
        assert_eq!(g.use_targets(a).collect::<Vec<_>>(), vec![a]);
        assert_eq!(
            g.use_targets(rs).collect::<Vec<_>>(),
            vec![b],
            "older source: spill"
        );
        assert_eq!(g.use_targets(sink).count(), 0);
        assert_eq!(g.use_targets(b).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.use_targets(c).collect::<Vec<_>>(), vec![a, b]);
        // A seal with nothing pending still closes the last flow's range.
        let first3 = g.flow_count();
        let d = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        g.seal_batch(first3);
        assert_eq!(g.use_targets(d).count(), 0);
        assert_eq!(g.use_targets(c).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(g.edge_counts(), (5, 0, 0));
    }

    #[test]
    fn origins_round_trip_through_the_side_array() {
        let mut g = Pvpg::new();
        let m = MethodId::from_index(7);
        let in_block = g.add_flow(
            Flow::new(FlowKind::Phi),
            Some(m),
            Some(BlockId::from_index(0)),
        );
        let no_block = g.add_flow(Flow::new(FlowKind::Phi), Some(m), None);
        assert_eq!(g.flow_method(in_block), Some(m));
        assert_eq!(g.flow_block(in_block), Some(BlockId::from_index(0)));
        assert_eq!(g.flow_method(no_block), Some(m));
        assert_eq!(g.flow_block(no_block), None);
        assert_eq!(g.flow_method(g.pred_on), None);
        assert_eq!(g.flow_block(g.pred_on), None);
        assert_eq!(std::mem::size_of::<Origin>(), 8);
    }

    #[test]
    fn cursor_survives_concurrent_spill_growth() {
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        let b = g.add_flow(Flow::new(FlowKind::Phi), None, None);
        g.add_use(a, b);
        g.seal_batch(first);
        g.add_use_dedup(a, b);
        let mut cur = g.uses.cursor(a);
        let mut seen = Vec::new();
        while let Some(t) = g.uses.next(&mut cur) {
            seen.push(t);
            // New edges appended mid-iteration must not invalidate the
            // cursor (they prepend to the spill head, before the snapshot).
            let n = g.flow_count();
            g.uses.push_spill(a, a, n);
        }
        assert_eq!(seen, vec![b, b]);
    }
}
