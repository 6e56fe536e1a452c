//! The predicated value propagation graph (PVPG): flow arena, the three
//! edge kinds, call sites, field sinks, and per-method graph summaries.
//!
//! Adjacency is stored CSR-style in graph-owned [`EdgePool`]s rather than in
//! per-flow `Vec`s: construction-time edges of one method fragment are
//! buffered and *sealed* into one shared `Vec<FlowId>` with per-flow ranges,
//! while edges discovered during solving (field wiring, invoke linking) go
//! to a linked spill arena. Worklist steps iterate successors through a
//! [`EdgeCursor`] — a `Copy` value that survives re-borrows — so the engine
//! never clones an edge list. Dynamic use edges are deduplicated through a
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

use crate::flow::{CallSite, Flow, FlowId, FlowKind, SiteId};
use skipflow_ir::{BlockId, FieldId, MethodId, TypeRef};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

const NO_SPILL: u32 = u32::MAX;

/// Linked-list sentinel of the online order structure.
const NO_NODE: u32 = u32::MAX;

/// Initial label spacing of the online order: appended components are this
/// far apart, so midpoint insertion has ~32 levels of headroom before a
/// local relabel is needed.
const LABEL_STRIDE: u64 = 1 << 32;

/// Target minimum gap a local relabel re-establishes between neighbours.
const RELABEL_MIN_GAP: u64 = 1 << 16;

/// CSR-style adjacency shared by every flow for one edge kind.
#[derive(Clone, Debug, Default)]
pub struct EdgePool {
    /// Frozen edge targets, grouped contiguously per source flow.
    csr: Vec<FlowId>,
    /// Per-flow `(start, len)` range into `csr`, frozen at seal time.
    ranges: Vec<(u32, u32)>,
    /// Per-flow head index into `spill` (`NO_SPILL` = none).
    spill_head: Vec<u32>,
    /// `(target, next)` nodes for edges added after the source was sealed.
    spill: Vec<(FlowId, u32)>,
    /// Buffered `(src, dst)` pairs of the open construction batch.
    pending: Vec<(FlowId, FlowId)>,
    /// Reusable counting-sort scratch for [`EdgePool::seal`].
    scratch: Vec<u32>,
    /// Total materialized edges (csr + spill).
    count: usize,
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
        if self.ranges.len() < flow_count {
            self.ranges.resize(flow_count, (0, 0));
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
        self.count += 1;
    }

    /// Seals the open batch: pending edges whose source is `≥ first` (the
    /// fragment's own flows, each sealed exactly once) get contiguous CSR
    /// ranges via a counting sort; pending edges from older sources join
    /// their spill lists.
    fn seal(&mut self, first: usize, flow_count: usize) {
        self.ensure(flow_count);
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let base = self.csr.len();
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
        let mut offset = base as u32;
        for (i, &c) in counts.iter().enumerate() {
            debug_assert_eq!(self.ranges[first + i], (0, 0), "flows are sealed once");
            self.ranges[first + i] = (offset, c);
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
                let pos = self.ranges[first + slot].0 + counts[slot];
                self.csr[pos as usize] = t;
                counts[slot] += 1;
            } else {
                let idx = self.spill.len() as u32;
                self.spill.push((t, self.spill_head[s.index()]));
                self.spill_head[s.index()] = idx;
            }
        }
        self.count += pending.len();
        self.scratch = counts;
        // Hand the drained buffer back so the next batch reuses it.
        self.pending = pending;
        self.pending.clear();
    }

    /// Starts iterating `f`'s successors. Must not be called while a
    /// construction batch is open.
    pub fn cursor(&self, f: FlowId) -> EdgeCursor {
        debug_assert!(self.pending.is_empty(), "cursor over unsealed pool");
        let (start, len) = self.ranges.get(f.index()).copied().unwrap_or((0, 0));
        let spill = self.spill_head.get(f.index()).copied().unwrap_or(NO_SPILL);
        EdgeCursor {
            csr_pos: start,
            csr_end: start + len,
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
        self.count
    }

    /// Whether the pool holds no edges. (`len`'s conventional companion;
    /// only tests exercise it today, hence the lint allowance.)
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The condensation of the PVPG: per-flow strongly-connected-component ids
/// and scheduling priorities, computed by [`Pvpg::compute_sccs`].
///
/// Priorities are the topological index of the flow's SCC in the
/// condensation over the *value-carrying* edge kinds (use and observe):
/// every such edge `s → t` with `comp[s] ≠ comp[t]` satisfies
/// `priority[s] < priority[t]`, so draining the lowest-priority bucket to
/// exhaustion iterates each SCC to local fixpoint before any successor SCC
/// is touched.
///
/// Predicate edges are deliberately *excluded*: enabling is one-shot and
/// idempotent (a disabled flow is never queued, and an enabled flow never
/// re-processes because of its predicate), so predicate edges impose no
/// re-processing order — but they routinely close cycles through a
/// method's statement chain (invoke-as-predicate) that would glue large
/// acyclic value-flow regions into one SCC and erase the ordering.
#[derive(Clone, Debug, Default)]
pub struct SccInfo {
    /// Per-flow SCC id (dense; ids are assigned in completion order, which
    /// is *reverse* topological).
    pub comp: Vec<u32>,
    /// Per-flow condensation-topological priority (sources first).
    pub priority: Vec<u32>,
    /// Per-flow flag: the flow sits in an SCC of size ≥ 2 (a genuine value
    /// cycle — loop φs, recursion, `pred_on → φ_pred` predicate loops).
    pub cyclic: Vec<bool>,
    /// Number of SCCs.
    pub count: u32,
    /// Size of the largest SCC.
    pub max_size: u32,
    /// Total flows sitting in SCCs of size ≥ 2.
    pub cyclic_flows: u32,
}

/// Cumulative maintenance counters of the online order structure —
/// the bounded order-repair work that replaced the PR 2 batch condensation
/// recomputes (surfaced through [`crate::SchedulerStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderStats {
    /// Live strongly connected components (including singletons).
    pub comps: usize,
    /// Live flows sitting in components of size ≥ 2.
    pub cyclic_flows: usize,
    /// Size of the largest component.
    pub max_scc_size: usize,
    /// Order-violating edge insertions repaired in place.
    pub repairs: u64,
    /// Components relocated by those repairs (the affected-region mass).
    pub comps_moved: u64,
    /// Component unions performed by cycle collapses.
    pub merges: u64,
    /// Components whose label was rewritten by a local/global relabel
    /// (gap exhaustion of the list-labeling scheme).
    pub relabels: u64,
}

/// Online topological order and SCC maintenance over the PVPG's
/// value-carrying (use + observe) edges — the Pearce–Kelly style
/// replacement for the PR 2 batch condensation recomputes.
///
/// Every flow is assigned an exact order position the moment it is created
/// (mid-solve fragments are *anchored* just below the invoke flow that
/// discovered them, which makes the argument/return linking edges
/// order-consistent by construction), and every inserted value edge either
/// already respects the order (one comparison) or triggers an in-place
/// repair of the affected region:
///
/// * components are union-find sets; the current order is a doubly-linked
///   list of component representatives carrying sparse `u64` labels
///   (list-labeling: midpoint insertion, local respacing on gap
///   exhaustion), so "s before t" is one label comparison at any time;
/// * a violating edge `s → t` (`label(s) ≥ label(t)`) starts a *bounded
///   bidirectional* search — forward from `t` and backward from `s`,
///   expanded in lockstep and restricted to the `[label(t), label(s)]`
///   window — and relocates whichever side exhausts first (the smaller
///   affected region), Pearce–Kelly style;
/// * when the searches meet, the edge closes a cycle: the nodes on the
///   `t ⇝ s` paths are collapsed into one component, and the remaining
///   upstream/downstream region is re-packed into the vacated label slots
///   (upstream, merged component, downstream — the PK pooled reorder
///   extended with contraction).
///
/// The structure therefore exposes, at *all* times: an exact
/// condensation-topological priority per flow (`label_of`) and exact SCC
/// membership (`same_component` / `component_size`) — which is what lets
/// the scheduler give mid-solve fragments exact priorities and the
/// adaptive flip start from a current condensation.
///
/// Out-edges are *not* duplicated here: forward searches walk the graph's
/// own CSR pools through the component member lists. Only the in-edge
/// adjacency (needed by the backward search) is kept, as an intrusive
/// arena.
#[derive(Clone, Debug)]
pub struct OnlineTopo {
    /// Union-find parent per flow (path-halved in mutating contexts).
    parent: Vec<u32>,
    /// Component size, valid at representatives.
    csize: Vec<u32>,
    /// Order label, valid at representatives; strictly increasing along
    /// every cross-component value edge.
    label: Vec<u64>,
    /// Doubly-linked list of representatives in ascending label order.
    ord_next: Vec<u32>,
    ord_prev: Vec<u32>,
    ord_head: u32,
    ord_tail: u32,
    /// Circular list threading the member flows of each component
    /// (singletons self-loop; unions splice in O(1)).
    member_next: Vec<u32>,
    /// Per-flow head into `in_arena` (value-edge predecessors).
    in_head: Vec<u32>,
    /// `(source flow, next)` in-edge nodes.
    in_arena: Vec<(u32, u32)>,
    /// Anchor flow: when set, new flows are placed immediately before the
    /// anchor's component instead of at the end of the order.
    anchor: u32,
    /// Search stamps (per flow; compared against `stamp`).
    fwd_mark: Vec<u32>,
    bwd_mark: Vec<u32>,
    stamp: u32,
    /// Scratch buffers reused across repairs.
    fwd_stack: Vec<u32>,
    bwd_stack: Vec<u32>,
    fwd_seen: Vec<u32>,
    bwd_seen: Vec<u32>,
    /// Live component count.
    comps: usize,
    /// Live flows in components of size ≥ 2.
    cyclic_flows: usize,
    /// Largest component seen.
    max_scc_size: usize,
    repairs: u64,
    comps_moved: u64,
    merges: u64,
    relabels: u64,
}

impl OnlineTopo {
    fn new() -> Self {
        OnlineTopo {
            parent: Vec::new(),
            csize: Vec::new(),
            label: Vec::new(),
            ord_next: Vec::new(),
            ord_prev: Vec::new(),
            ord_head: NO_NODE,
            ord_tail: NO_NODE,
            member_next: Vec::new(),
            in_head: Vec::new(),
            in_arena: Vec::new(),
            anchor: NO_NODE,
            fwd_mark: Vec::new(),
            bwd_mark: Vec::new(),
            stamp: 0,
            fwd_stack: Vec::new(),
            bwd_stack: Vec::new(),
            fwd_seen: Vec::new(),
            bwd_seen: Vec::new(),
            comps: 0,
            cyclic_flows: 0,
            max_scc_size: 0,
            repairs: 0,
            comps_moved: 0,
            merges: 0,
            relabels: 0,
        }
    }

    /// Representative of `x`'s component, with path halving.
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Read-only representative lookup (shared contexts: priority
    /// queries). Trees stay shallow — unions are by size and the
    /// mutating paths compress.
    fn find_ro(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// The live order label of `f`'s component.
    pub(crate) fn label_of(&self, f: FlowId) -> u64 {
        self.label[self.find_ro(f.0) as usize]
    }

    /// Whether `f` sits in a component of size ≥ 2 (a genuine value cycle).
    pub(crate) fn in_cycle(&self, f: FlowId) -> bool {
        self.csize[self.find_ro(f.0) as usize] >= 2
    }

    /// Whether `a` and `b` share a strongly connected component.
    pub(crate) fn same_component(&self, a: FlowId, b: FlowId) -> bool {
        self.find_ro(a.0) == self.find_ro(b.0)
    }

    /// Size of `f`'s component.
    pub(crate) fn component_size(&self, f: FlowId) -> usize {
        self.csize[self.find_ro(f.0) as usize] as usize
    }

    /// The maintenance counters (see [`OrderStats`]).
    pub(crate) fn stats(&self) -> OrderStats {
        OrderStats {
            comps: self.comps,
            cyclic_flows: self.cyclic_flows,
            max_scc_size: self.max_scc_size,
            repairs: self.repairs,
            comps_moved: self.comps_moved,
            merges: self.merges,
            relabels: self.relabels,
        }
    }

    /// Appends a new singleton component for the next flow index: at the
    /// end of the order, or — when an anchor is set — immediately before
    /// the anchor's component (the exact position a fragment discovered by
    /// an invoke belongs: after the arguments, before the invoke).
    fn add_flow(&mut self) {
        let i = self.parent.len() as u32;
        self.parent.push(i);
        self.csize.push(1);
        self.label.push(0);
        self.ord_next.push(NO_NODE);
        self.ord_prev.push(NO_NODE);
        self.member_next.push(i);
        self.in_head.push(NO_NODE);
        self.fwd_mark.push(0);
        self.bwd_mark.push(0);
        self.comps += 1;
        self.max_scc_size = self.max_scc_size.max(1);
        if self.anchor != NO_NODE {
            let ra = self.find(self.anchor);
            let prev = self.ord_prev[ra as usize];
            self.place_after(prev, i);
        } else {
            self.place_after(self.ord_tail, i);
        }
    }

    /// Links the unlinked node `x` directly after `a` (`NO_NODE` = at the
    /// head) and assigns it a label strictly between its new neighbours,
    /// making room via a local relabel when the gap is exhausted.
    fn place_after(&mut self, a: u32, x: u32) {
        loop {
            let (lo, b) = if a == NO_NODE {
                (0u64, self.ord_head)
            } else {
                (self.label[a as usize], self.ord_next[a as usize])
            };
            if b == NO_NODE {
                if lo > u64::MAX - LABEL_STRIDE {
                    self.global_relabel();
                    continue;
                }
                self.link_with_label(a, b, x, lo + LABEL_STRIDE);
                return;
            }
            let hi = self.label[b as usize];
            if hi - lo >= 2 {
                self.link_with_label(a, b, x, lo + (hi - lo) / 2);
                return;
            }
            self.make_room_after(a);
        }
    }

    fn link_with_label(&mut self, a: u32, b: u32, x: u32, label: u64) {
        self.label[x as usize] = label;
        self.ord_prev[x as usize] = a;
        self.ord_next[x as usize] = b;
        if a == NO_NODE {
            self.ord_head = x;
        } else {
            self.ord_next[a as usize] = x;
        }
        if b == NO_NODE {
            self.ord_tail = x;
        } else {
            self.ord_prev[b as usize] = x;
        }
    }

    fn unlink(&mut self, x: u32) {
        let p = self.ord_prev[x as usize];
        let n = self.ord_next[x as usize];
        if p == NO_NODE {
            self.ord_head = n;
        } else {
            self.ord_next[p as usize] = n;
        }
        if n == NO_NODE {
            self.ord_tail = p;
        } else {
            self.ord_prev[n as usize] = p;
        }
        self.ord_prev[x as usize] = NO_NODE;
        self.ord_next[x as usize] = NO_NODE;
    }

    /// Re-establishes a usable gap after `a` by respacing a doubling window
    /// of its successors (the list-labeling relabel step); falls back to a
    /// global renumber near the label-space ceiling.
    ///
    /// The window is respaced with **exponential gap spreading** rather than
    /// an even stride: the first gap gets half the reclaimed span, the
    /// second a quarter, and so on (floored at [`RELABEL_MIN_GAP`]). The
    /// pressure that triggered this relabel is always in the gap
    /// immediately after `a` — `place_after(a, _)` bisects exactly there,
    /// and repair chains land every moved component in it — so giving that
    /// gap `span/2` instead of `span/(window+1)` buys
    /// `log2(window+1) − 1` extra insertions per relabeled window, which
    /// compounds into far fewer relabeled components on the
    /// repeatedly-subdivided gaps the fan-out workloads produce.
    fn make_room_after(&mut self, a: u32) {
        let base = if a == NO_NODE { 0 } else { self.label[a as usize] };
        let mut nodes: Vec<u32> = Vec::with_capacity(16);
        let mut cur = if a == NO_NODE {
            self.ord_head
        } else {
            self.ord_next[a as usize]
        };
        let mut want = 8usize;
        loop {
            while nodes.len() < want && cur != NO_NODE {
                nodes.push(cur);
                cur = self.ord_next[cur as usize];
            }
            if cur == NO_NODE {
                // The window reaches the tail: unbounded space above.
                let needed = (nodes.len() as u64 + 2).saturating_mul(LABEL_STRIDE);
                if base > u64::MAX - needed {
                    self.global_relabel();
                    return;
                }
                for (i, &nd) in nodes.iter().enumerate() {
                    self.label[nd as usize] = base + (i as u64 + 1) * LABEL_STRIDE;
                }
                self.relabels += nodes.len() as u64;
                return;
            }
            let span = self.label[cur as usize] - base;
            if span >= (nodes.len() as u64 + 1) * RELABEL_MIN_GAP {
                // Geometric spreading: each gap takes half the remaining
                // span, clamped so every node still to place (and the final
                // gap up to `cur`) keeps at least RELABEL_MIN_GAP. The
                // guard above guarantees `remaining >= (n - i + 1) * MIN`
                // at every iteration, so the clamp bounds are well-formed
                // and the last label lands strictly below `label[cur]`.
                let n = nodes.len() as u64;
                let mut lab = base;
                let mut remaining = span;
                for (i, &nd) in nodes.iter().enumerate() {
                    let after = n - 1 - i as u64;
                    let gap = (remaining / 2)
                        .max(RELABEL_MIN_GAP)
                        .min(remaining - after * RELABEL_MIN_GAP - RELABEL_MIN_GAP);
                    lab += gap;
                    remaining -= gap;
                    self.label[nd as usize] = lab;
                }
                self.relabels += nodes.len() as u64;
                return;
            }
            want *= 2;
        }
    }

    /// Renumbers every live component at [`LABEL_STRIDE`] spacing (rare:
    /// label-space exhaustion only).
    fn global_relabel(&mut self) {
        let mut lab = 0u64;
        let mut cur = self.ord_head;
        while cur != NO_NODE {
            lab += LABEL_STRIDE;
            self.label[cur as usize] = lab;
            self.relabels += 1;
            cur = self.ord_next[cur as usize];
        }
    }

    /// Records the value edge `s → t` and repairs the order if it violates
    /// it (see the type docs for the algorithm).
    fn insert_edge(&mut self, s: FlowId, t: FlowId, uses: &EdgePool, observes: &EdgePool) {
        // In-edge first, so the backward searches of this very repair (and
        // everything after) see it.
        let idx = self.in_arena.len() as u32;
        assert!(idx != NO_NODE, "in-edge arena overflow");
        self.in_arena.push((s.0, self.in_head[t.0 as usize]));
        self.in_head[t.0 as usize] = idx;
        let rs = self.find(s.0);
        let rt = self.find(t.0);
        if rs == rt || self.label[rs as usize] < self.label[rt as usize] {
            return;
        }
        self.repair(rs, rt, uses, observes);
    }

    /// Expands one forward node: pushes every unvisited successor component
    /// of `x` within the window onto `stack`/`seen`. Returns `true` if a
    /// cycle was detected (the search touched `rs` or a backward-marked
    /// component).
    fn expand_fwd(
        &mut self,
        x: u32,
        hi: u64,
        uses: &EdgePool,
        observes: &EdgePool,
        stack: &mut Vec<u32>,
        seen: &mut Vec<u32>,
    ) -> bool {
        let stamp = self.stamp;
        let mut cycle = false;
        let mut m = x;
        loop {
            for pool in [uses, observes] {
                let mut cur = pool.cursor(FlowId(m));
                while let Some(w) = pool.next(&mut cur) {
                    let rw = self.find(w.0);
                    if self.fwd_mark[rw as usize] == stamp || self.label[rw as usize] > hi {
                        continue;
                    }
                    if self.bwd_mark[rw as usize] == stamp {
                        cycle = true;
                    }
                    self.fwd_mark[rw as usize] = stamp;
                    stack.push(rw);
                    seen.push(rw);
                }
            }
            m = self.member_next[m as usize];
            if m == x {
                break;
            }
        }
        cycle
    }

    /// Expands one backward node: pushes every unvisited predecessor
    /// component of `x` within the window. Returns `true` on cycle.
    fn expand_bwd(
        &mut self,
        x: u32,
        lo: u64,
        stack: &mut Vec<u32>,
        seen: &mut Vec<u32>,
    ) -> bool {
        let stamp = self.stamp;
        let mut cycle = false;
        let mut m = x;
        loop {
            let mut e = self.in_head[m as usize];
            while e != NO_NODE {
                let (src, next) = self.in_arena[e as usize];
                e = next;
                let ru = self.find(src);
                if self.bwd_mark[ru as usize] == stamp || self.label[ru as usize] < lo {
                    continue;
                }
                if self.fwd_mark[ru as usize] == stamp {
                    cycle = true;
                }
                self.bwd_mark[ru as usize] = stamp;
                stack.push(ru);
                seen.push(ru);
            }
            m = self.member_next[m as usize];
            if m == x {
                break;
            }
        }
        cycle
    }

    /// Repairs the order after inserting a violating edge whose endpoints'
    /// components are `rs → rt` with `label(rs) ≥ label(rt)`.
    fn repair(&mut self, rs: u32, rt: u32, uses: &EdgePool, observes: &EdgePool) {
        self.repairs += 1;
        let hi = self.label[rs as usize];
        let lo = self.label[rt as usize];
        self.stamp += 1;
        let stamp = self.stamp;
        let mut fwd_stack = std::mem::take(&mut self.fwd_stack);
        let mut bwd_stack = std::mem::take(&mut self.bwd_stack);
        let mut fwd_seen = std::mem::take(&mut self.fwd_seen);
        let mut bwd_seen = std::mem::take(&mut self.bwd_seen);
        fwd_stack.clear();
        bwd_stack.clear();
        fwd_seen.clear();
        bwd_seen.clear();
        self.fwd_mark[rt as usize] = stamp;
        fwd_stack.push(rt);
        fwd_seen.push(rt);
        self.bwd_mark[rs as usize] = stamp;
        bwd_stack.push(rs);
        bwd_seen.push(rs);
        // Lockstep bidirectional expansion: the side that exhausts first is
        // the smaller affected region and the one that moves. Once a cycle
        // is detected both searches run to completion (the collapse needs
        // the full forward and backward regions; both stay bounded by the
        // label window).
        let mut cycle = false;
        let move_fwd = loop {
            if !cycle && fwd_stack.is_empty() {
                break true;
            }
            if !cycle && bwd_stack.is_empty() {
                break false;
            }
            if cycle && fwd_stack.is_empty() && bwd_stack.is_empty() {
                break true; // unused in the cycle case
            }
            if let Some(x) = fwd_stack.pop() {
                cycle |= self.expand_fwd(x, hi, uses, observes, &mut fwd_stack, &mut fwd_seen);
            }
            if !cycle && fwd_stack.is_empty() {
                break true;
            }
            if let Some(x) = bwd_stack.pop() {
                cycle |= self.expand_bwd(x, lo, &mut bwd_stack, &mut bwd_seen);
            }
        };
        if cycle {
            self.collapse(&fwd_seen, &bwd_seen);
        } else if move_fwd {
            // Forward region complete and s unreachable: shift it (in
            // relative order) to directly after rs. Every node of it moves
            // strictly *up*, above label(rs), so edges from unvisited
            // in-window nodes stay satisfied.
            fwd_seen.sort_unstable_by_key(|&x| self.label[x as usize]);
            for &x in &fwd_seen {
                self.unlink(x);
            }
            let mut cursor = rs;
            for &x in &fwd_seen {
                self.place_after(cursor, x);
                cursor = x;
            }
            self.comps_moved += fwd_seen.len() as u64;
        } else {
            // Backward region complete: shift it (in relative order) to
            // directly before rt — strictly *down*, below label(rt).
            bwd_seen.sort_unstable_by_key(|&x| self.label[x as usize]);
            for &x in &bwd_seen {
                self.unlink(x);
            }
            let mut cursor = self.ord_prev[rt as usize];
            for &x in &bwd_seen {
                self.place_after(cursor, x);
                cursor = x;
            }
            self.comps_moved += bwd_seen.len() as u64;
        }
        self.fwd_stack = fwd_stack;
        self.bwd_stack = bwd_stack;
        self.fwd_seen = fwd_seen;
        self.bwd_seen = bwd_seen;
    }

    /// Collapses the cycle the searches found. Components marked by *both*
    /// searches lie on a `t ⇝ s` path and merge into one; the vacated
    /// label slots are re-occupied in the PK pooled style extended with
    /// contraction: the strictly-upstream components take the *lowest*
    /// slots (they only ever move down — safe, because any unvisited
    /// predecessor of them sits below the window), the strictly-downstream
    /// components take the *highest* slots (they only move up — safe
    /// symmetrically), and the merged component takes the slot just below
    /// the downstream block (its unvisited predecessors are below the
    /// window and its unvisited successors above it, so any slot between
    /// the blocks is valid). Slots left over from the contraction simply
    /// fall out of use.
    fn collapse(&mut self, fwd_seen: &[u32], bwd_seen: &[u32]) {
        let stamp = self.stamp;
        // Slots: every visited component, in ascending label order.
        let mut slots: Vec<u32> = Vec::with_capacity(fwd_seen.len() + bwd_seen.len());
        slots.extend_from_slice(fwd_seen);
        slots.extend(
            bwd_seen
                .iter()
                .copied()
                .filter(|&x| self.fwd_mark[x as usize] != stamp),
        );
        slots.sort_unstable_by_key(|&x| self.label[x as usize]);
        let slot_labels: Vec<u64> = slots.iter().map(|&x| self.label[x as usize]).collect();
        // For each slot, the first non-moved list node after it (computed
        // before any unlinking; a moved node's list successor is either a
        // stable node or the next slot in label order).
        let mut stable_next = vec![NO_NODE; slots.len()];
        for i in (0..slots.len()).rev() {
            let nx = self.ord_next[slots[i] as usize];
            stable_next[i] = if i + 1 < slots.len() && nx == slots[i + 1] {
                stable_next[i + 1]
            } else {
                nx
            };
        }
        // Merge the both-marked components (union by size; the circular
        // member lists splice in O(1)).
        let cycle_comps: Vec<u32> = slots
            .iter()
            .copied()
            .filter(|&x| self.fwd_mark[x as usize] == stamp && self.bwd_mark[x as usize] == stamp)
            .collect();
        debug_assert!(cycle_comps.len() >= 2, "a collapse merges at least two components");
        let mut c = cycle_comps[0];
        let mut singleton_flows = 0usize;
        let mut total = 0u32;
        for &x in &cycle_comps {
            if self.csize[x as usize] == 1 {
                singleton_flows += 1;
            }
            total += self.csize[x as usize];
        }
        for &x in &cycle_comps[1..] {
            let (big, small) = if self.csize[c as usize] >= self.csize[x as usize] {
                (c, x)
            } else {
                (x, c)
            };
            self.parent[small as usize] = big;
            self.csize[big as usize] += self.csize[small as usize];
            self.member_next.swap(big as usize, small as usize);
            c = big;
        }
        self.merges += cycle_comps.len() as u64 - 1;
        self.comps -= cycle_comps.len() - 1;
        self.cyclic_flows += singleton_flows;
        self.max_scc_size = self.max_scc_size.max(total as usize);
        // Slot assignment: upstream block at the bottom, downstream block
        // at the top, the merged component directly below the downstream
        // block. `(slot index, occupant)`, ascending by construction.
        let mut upstream: Vec<u32> = bwd_seen
            .iter()
            .copied()
            .filter(|&x| self.fwd_mark[x as usize] != stamp)
            .collect();
        upstream.sort_unstable_by_key(|&x| self.label[x as usize]);
        let mut downstream: Vec<u32> = fwd_seen
            .iter()
            .copied()
            .filter(|&x| self.bwd_mark[x as usize] != stamp)
            .collect();
        downstream.sort_unstable_by_key(|&x| self.label[x as usize]);
        let total_slots = slots.len();
        let down_base = total_slots - downstream.len();
        let mut assignments: Vec<(usize, u32)> = Vec::with_capacity(upstream.len() + 1 + downstream.len());
        assignments.extend(upstream.iter().copied().enumerate());
        assignments.push((down_base - 1, c));
        assignments.extend(
            downstream
                .iter()
                .copied()
                .enumerate()
                .map(|(k, x)| (down_base + k, x)),
        );
        for &x in slots.iter() {
            self.unlink(x);
        }
        for &(i, x) in &assignments {
            let before = stable_next[i];
            let prev = if before == NO_NODE {
                self.ord_tail
            } else {
                self.ord_prev[before as usize]
            };
            self.link_with_label(prev, before, x, slot_labels[i]);
        }
        self.comps_moved += assignments.len() as u64;
    }

    /// Asserts the full order invariant: along every cross-component value
    /// edge the source's label is strictly below the target's, and the
    /// order list is label-sorted. Test/diagnostic helper — O(V + E).
    fn validate(&self, flow_count: usize, uses: &EdgePool, observes: &EdgePool) {
        let mut cur = self.ord_head;
        let mut last = 0u64;
        let mut listed = 0usize;
        while cur != NO_NODE {
            assert!(
                self.label[cur as usize] > last || listed == 0,
                "order list is not label-sorted"
            );
            last = self.label[cur as usize];
            listed += 1;
            cur = self.ord_next[cur as usize];
        }
        assert_eq!(listed, self.comps, "order list out of sync with component count");
        for v in 0..flow_count {
            let f = FlowId(v as u32);
            let lf = self.label_of(f);
            for pool in [uses, observes] {
                let mut cur = pool.cursor(f);
                while let Some(t) = pool.next(&mut cur) {
                    if self.find_ro(f.0) != self.find_ro(t.0) {
                        assert!(
                            lf < self.label_of(t),
                            "value edge {f:?} -> {t:?} violates the online order"
                        );
                    }
                }
            }
        }
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
    /// use (a static field's sink), whose `method` is `None`.
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

/// The whole-program PVPG.
#[derive(Debug)]
pub struct Pvpg {
    /// Flow arena.
    pub flows: Vec<Flow>,
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
    /// Online topological order / SCC maintenance over the value-carrying
    /// edges, kept current through every flow and edge mutation. Enabled by
    /// the engine for the schedulers that read priorities
    /// ([`Pvpg::enable_online_order`]); `None` for the FIFO oracle and the
    /// reference solver, which must not pay for it.
    topo: Option<OnlineTopo>,
    /// Value edges the online order absorbs at the next
    /// [`Pvpg::seal_batch`]: those added while a construction batch was
    /// open (static-field and unsafe-sink wiring), then the batch's own.
    /// Reused across batches.
    topo_deferred: Vec<(FlowId, FlowId)>,
}

impl Pvpg {
    /// Creates a PVPG containing only the global flows.
    pub fn new() -> Self {
        let mut g = Pvpg {
            flows: Vec::new(),
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
            topo: None,
            topo_deferred: Vec::new(),
        };
        g.pred_on = g.add_flow(Flow::new(FlowKind::PredOn, None, None));
        g.thrown_sink = g.add_flow(Flow::new(FlowKind::ThrownSink, None, None));
        g.unsafe_sink = g.add_flow(Flow::new(FlowKind::UnsafeSink, None, None));
        g
    }

    /// Adds a flow and returns its id. Under the online order the flow is
    /// assigned an exact order position immediately: at the end of the
    /// order, or at the current fragment anchor (see
    /// [`Pvpg::set_fragment_anchor`]).
    pub fn add_flow(&mut self, flow: Flow) -> FlowId {
        let id = FlowId::from_index(self.flows.len());
        self.flows.push(flow);
        if let Some(topo) = self.topo.as_mut() {
            topo.add_flow();
        }
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
            if self.uses.pending.is_empty() && self.observes.pending.is_empty() {
                if let Some(topo) = self.topo.as_mut() {
                    topo.insert_edge(s, t, &self.uses, &self.observes);
                }
            } else if self.topo.is_some() {
                // A construction batch is open (static-field / unsafe
                // wiring happens mid-build): the order absorbs the edge
                // at seal time, together with the batch.
                self.topo_deferred.push((s, t));
            }
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
    /// Called once per method fragment, right after construction. The online
    /// order (when enabled) absorbs the batch's value edges here — after the
    /// seal, so its searches can walk the CSR pools.
    pub fn seal_batch(&mut self, first_flow: usize) {
        let n = self.flows.len();
        if self.topo.is_some() {
            // Queue the batch's value edges behind the deferred ones: the
            // pools drain their pending buffers when they seal.
            self.topo_deferred.extend_from_slice(&self.uses.pending);
            self.topo_deferred.extend_from_slice(&self.observes.pending);
        }
        self.uses.seal(first_flow, n);
        self.preds.seal(first_flow, n);
        self.observes.seal(first_flow, n);
        if let Some(topo) = self.topo.as_mut() {
            for &(s, t) in &self.topo_deferred {
                topo.insert_edge(s, t, &self.uses, &self.observes);
            }
            self.topo_deferred.clear();
        }
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
        let mut flow = Flow::new(FlowKind::FieldSink { field }, None, None);
        flow.enabled = true;
        let id = self.add_flow(flow);
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
        let mut flow = Flow::new(FlowKind::RootSource { declared }, None, None);
        flow.enabled = true;
        self.add_flow(flow)
    }

    /// Total number of edges of each kind `(use, pred, observe)` — used by
    /// statistics and sanity tests. Counts sealed and spill edges; a batch
    /// must not be open.
    pub fn edge_counts(&self) -> (usize, usize, usize) {
        (self.uses.len(), self.preds.len(), self.observes.len())
    }

    /// Switches on online topological order maintenance (see the
    /// `OnlineTopo` type in this module): every existing flow is appended
    /// in index order,
    /// every existing value edge is absorbed, and from here on each
    /// `add_flow` / edge insertion keeps the order and the SCC partition
    /// exact. Idempotent. Must not be called while a construction batch is
    /// open. Costs a few nanoseconds per subsequent edge insertion, so the
    /// engine only enables it for the schedulers that read priorities — the
    /// FIFO oracle and the reference solver skip it.
    pub fn enable_online_order(&mut self) {
        if self.topo.is_some() {
            return;
        }
        // Absorb the existing graph in one pass: a single Tarjan
        // condensation seeds the union-find, member lists, and labels
        // (priority-spaced, so incremental insertion has full headroom),
        // and one edge sweep builds the in-edge arena. This is the same
        // O(V + E) the adaptive flip used to pay for its lazy priority
        // computation — feeding the edges through `insert_edge` instead
        // would re-discover every back edge with a repair cascade.
        let n = self.flows.len();
        let mut topo = OnlineTopo::new();
        if n > 0 {
            let info = self.compute_sccs();
            // One representative per component: the first member seen.
            let mut rep_of_comp = vec![NO_NODE; info.count as usize];
            topo.parent = vec![0; n];
            topo.csize = vec![0; n];
            topo.label = vec![0; n];
            topo.ord_next = vec![NO_NODE; n];
            topo.ord_prev = vec![NO_NODE; n];
            topo.member_next = vec![NO_NODE; n];
            topo.in_head = vec![NO_NODE; n];
            topo.fwd_mark = vec![0; n];
            topo.bwd_mark = vec![0; n];
            for v in 0..n {
                let comp = info.comp[v] as usize;
                let rep = rep_of_comp[comp];
                if rep == NO_NODE {
                    rep_of_comp[comp] = v as u32;
                    topo.parent[v] = v as u32;
                    topo.csize[v] = 1;
                    topo.member_next[v] = v as u32;
                } else {
                    topo.parent[v] = rep;
                    topo.csize[rep as usize] += 1;
                    // Splice v into the rep's circular member list.
                    topo.member_next[v] = topo.member_next[rep as usize];
                    topo.member_next[rep as usize] = v as u32;
                }
            }
            // Link the representatives in priority order with spaced labels.
            let mut order: Vec<u32> = rep_of_comp;
            order.sort_unstable_by_key(|&r| info.priority[r as usize]);
            let mut prev = NO_NODE;
            for (i, &rep) in order.iter().enumerate() {
                topo.label[rep as usize] = (i as u64 + 1) * LABEL_STRIDE;
                topo.ord_prev[rep as usize] = prev;
                if prev == NO_NODE {
                    topo.ord_head = rep;
                } else {
                    topo.ord_next[prev as usize] = rep;
                }
                prev = rep;
            }
            topo.ord_tail = prev;
            topo.comps = info.count as usize;
            topo.cyclic_flows = info.cyclic_flows as usize;
            topo.max_scc_size = (info.max_size as usize).max(usize::from(n > 0));
            for v in 0..n {
                let f = FlowId(v as u32);
                for pool in [&self.uses, &self.observes] {
                    let mut cur = pool.cursor(f);
                    while let Some(t) = pool.next(&mut cur) {
                        let idx = topo.in_arena.len() as u32;
                        assert!(idx != NO_NODE, "in-edge arena overflow");
                        topo.in_arena.push((v as u32, topo.in_head[t.index()]));
                        topo.in_head[t.index()] = idx;
                    }
                }
            }
        }
        self.topo = Some(topo);
    }

    /// Whether the online order is being maintained.
    pub fn online_order_enabled(&self) -> bool {
        self.topo.is_some()
    }

    /// Sets (or clears) the fragment anchor of the online order: while set,
    /// new flows are placed immediately *before* the anchor flow's
    /// component instead of at the end of the order. The engine anchors
    /// mid-solve fragment construction at the discovering invoke flow, so a
    /// callee lands exactly between the call's arguments and its invoke —
    /// the position where the argument/return linking edges are
    /// order-consistent without any repair. No-op when the online order is
    /// disabled.
    pub fn set_fragment_anchor(&mut self, anchor: Option<FlowId>) {
        if let Some(topo) = self.topo.as_mut() {
            topo.anchor = anchor.map_or(NO_NODE, |f| f.0);
        }
    }

    /// The live scheduling priority of `f`: its component's current order
    /// label. Exact at all times — this is what replaced the provisional
    /// bucket adoption of the batch-recompute scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the online order is not enabled.
    pub fn live_label(&self, f: FlowId) -> u64 {
        self.topo
            .as_ref()
            .expect("online order not enabled")
            .label_of(f)
    }

    /// The current order label of `f`, if the online order is enabled.
    pub fn order_key(&self, f: FlowId) -> Option<u64> {
        self.topo.as_ref().map(|t| t.label_of(f))
    }

    /// Whether `f` currently sits in a strongly connected component of
    /// size ≥ 2 (`false` when the online order is disabled).
    pub fn flow_in_cycle(&self, f: FlowId) -> bool {
        self.topo.as_ref().is_some_and(|t| t.in_cycle(f))
    }

    /// Whether `a` and `b` currently share a strongly connected component
    /// (`None` when the online order is disabled).
    pub fn same_component(&self, a: FlowId, b: FlowId) -> Option<bool> {
        self.topo.as_ref().map(|t| t.same_component(a, b))
    }

    /// The current size of `f`'s strongly connected component (`None` when
    /// the online order is disabled).
    pub fn component_size(&self, f: FlowId) -> Option<usize> {
        self.topo.as_ref().map(|t| t.component_size(f))
    }

    /// The online order's maintenance counters (`None` when disabled).
    pub fn order_stats(&self) -> Option<OrderStats> {
        self.topo.as_ref().map(|t| t.stats())
    }

    /// Asserts the online order invariant over the whole graph (label-sorted
    /// order list; every cross-component value edge goes label-upward).
    /// O(V + E) — a test and diagnostics helper, also the "exact priorities
    /// at all times" regression oracle. No-op when the online order is
    /// disabled; must not be called while a construction batch is open.
    pub fn assert_valid_order(&self) {
        if let Some(topo) = &self.topo {
            topo.validate(self.flows.len(), &self.uses, &self.observes);
        }
    }

    /// Computes the strongly connected components of the PVPG over the use
    /// and observe edges with an iterative Tarjan walk, and derives the
    /// condensation-topological priority of every flow (see [`SccInfo`] for
    /// why predicate edges are excluded).
    ///
    /// Implicit engine dependencies that are *not* materialized as edges
    /// (type-subscriber injections, saturated-site re-dispatch) are absent
    /// here by design: scheduling is a heuristic and missing edges only cost
    /// re-processing, never correctness.
    ///
    /// Must not be called while a construction batch is open.
    pub fn compute_sccs(&self) -> SccInfo {
        const UNVISITED: u32 = u32::MAX;
        let n = self.flows.len();
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![UNVISITED; n];
        let mut scc_stack: Vec<u32> = Vec::new();
        // DFS frame: (flow, pool 0..=2, cursor into that pool).
        let mut frames: Vec<(u32, u8, EdgeCursor)> = Vec::new();
        let mut next_index = 0u32;
        let mut comp_count = 0u32;
        let mut comp_sizes: Vec<u32> = Vec::new();

        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            index[root] = next_index;
            lowlink[root] = next_index;
            next_index += 1;
            scc_stack.push(root as u32);
            on_stack[root] = true;
            frames.push((root as u32, 0, self.uses.cursor(FlowId(root as u32))));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0 as usize;
                // Advance to the next successor, falling through the pools
                // in use → observe order (predicate edges excluded; see SccInfo).
                let mut succ = None;
                loop {
                    let pool = match frame.1 {
                        0 => &self.uses,
                        1 => &self.observes,
                        _ => break,
                    };
                    if let Some(t) = pool.next(&mut frame.2) {
                        succ = Some(t);
                        break;
                    }
                    frame.1 += 1;
                    if frame.1 == 1 {
                        frame.2 = self.observes.cursor(FlowId(v as u32));
                    }
                }
                match succ {
                    Some(w) => {
                        let w = w.index();
                        if index[w] == UNVISITED {
                            index[w] = next_index;
                            lowlink[w] = next_index;
                            next_index += 1;
                            scc_stack.push(w as u32);
                            on_stack[w] = true;
                            frames.push((w as u32, 0, self.uses.cursor(FlowId(w as u32))));
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    None => {
                        frames.pop();
                        if let Some(parent) = frames.last() {
                            let p = parent.0 as usize;
                            lowlink[p] = lowlink[p].min(lowlink[v]);
                        }
                        if lowlink[v] == index[v] {
                            let mut size = 0u32;
                            loop {
                                let w = scc_stack.pop().expect("SCC stack underflow") as usize;
                                on_stack[w] = false;
                                comp[w] = comp_count;
                                size += 1;
                                if w == v {
                                    break;
                                }
                            }
                            comp_sizes.push(size);
                            comp_count += 1;
                        }
                    }
                }
            }
        }

        // Tarjan completes an SCC only after every SCC reachable from it, so
        // completion order is reverse topological; flip it into a priority.
        let mut priority = vec![0u32; n];
        let mut cyclic = vec![false; n];
        let mut cyclic_flows = 0u32;
        for f in 0..n {
            priority[f] = comp_count - 1 - comp[f];
            if comp_sizes[comp[f] as usize] >= 2 {
                cyclic[f] = true;
                cyclic_flows += 1;
            }
        }
        SccInfo {
            comp,
            priority,
            cyclic,
            count: comp_count,
            max_size: comp_sizes.iter().copied().max().unwrap_or(0),
            cyclic_flows,
        }
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
        let a = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let b = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        assert!(g.add_use_dedup(a, b));
        assert!(!g.add_use_dedup(a, b));
        assert_eq!(g.use_targets(a).count(), 1);
    }

    #[test]
    fn edge_counts_sum_all_kinds() {
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let b = g.add_flow(Flow::new(FlowKind::Phi, None, None));
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
        let a = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let b = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let c = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        g.add_use(a, b);
        g.add_use(a, c);
        g.seal_batch(first);
        // Dynamic edges land in the spill list after the CSR range.
        assert!(g.add_use_dedup(a, a));
        let targets: Vec<FlowId> = g.use_targets(a).collect();
        assert_eq!(targets, vec![b, c, a]);
        // A second sealed batch for new flows leaves old ranges intact.
        let first2 = g.flow_count();
        let d = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        g.add_use(d, a);
        g.seal_batch(first2);
        assert_eq!(g.use_targets(a).collect::<Vec<_>>(), vec![b, c, a]);
        assert_eq!(g.use_targets(d).collect::<Vec<_>>(), vec![a]);
        assert_eq!(g.edge_counts(), (4, 0, 0));
    }

    #[test]
    fn sccs_follow_topological_priorities() {
        // a → b → c with a back edge c → b: {a} and {b, c} are the SCCs and
        // a's priority is strictly lower.
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let b = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let c = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        g.add_use(a, b);
        g.add_use(b, c);
        g.add_observe(c, b); // cycles may span use and observe edges
        g.seal_batch(first);
        let info = g.compute_sccs();
        assert_eq!(info.comp[b.index()], info.comp[c.index()]);
        assert_ne!(info.comp[a.index()], info.comp[b.index()]);
        assert!(info.priority[a.index()] < info.priority[b.index()]);
        assert_eq!(info.priority[b.index()], info.priority[c.index()]);
        assert!(info.cyclic[b.index()] && info.cyclic[c.index()]);
        assert!(!info.cyclic[a.index()]);
        assert_eq!(info.cyclic_flows, 2);
        assert_eq!(info.max_size, 2);
    }

    #[test]
    fn scc_priorities_respect_spill_edges() {
        // An edge added after sealing (the dynamic-linking path) must still
        // order its endpoints.
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let b = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        g.seal_batch(first);
        assert!(g.add_use_dedup(a, b));
        let info = g.compute_sccs();
        assert!(info.priority[a.index()] < info.priority[b.index()]);
        assert_eq!(info.count as usize, g.flow_count());
    }

    fn phi(g: &mut Pvpg) -> FlowId {
        g.add_flow(Flow::new(FlowKind::Phi, None, None))
    }

    #[test]
    fn online_order_labels_ascend_along_edges() {
        let mut g = Pvpg::new();
        g.enable_online_order();
        let first = g.flow_count();
        let a = phi(&mut g);
        let b = phi(&mut g);
        let c = phi(&mut g);
        g.add_use(a, b);
        g.add_observe(b, c);
        g.seal_batch(first);
        assert!(g.order_key(a) < g.order_key(b));
        assert!(g.order_key(b) < g.order_key(c));
        g.assert_valid_order();
        let stats = g.order_stats().unwrap();
        assert_eq!(stats.comps, g.flow_count());
        assert_eq!(stats.repairs, 0, "creation-order edges need no repair");
    }

    #[test]
    fn online_order_repairs_violating_dynamic_edges() {
        // Flows in creation order a, b with the edge b → a inserted
        // dynamically: the repair must reorder them, exactly.
        let mut g = Pvpg::new();
        g.enable_online_order();
        let first = g.flow_count();
        let a = phi(&mut g);
        let b = phi(&mut g);
        g.seal_batch(first);
        assert!(g.order_key(a) < g.order_key(b));
        assert!(g.add_use_dedup(b, a));
        assert!(g.order_key(b) < g.order_key(a), "the repair reordered b before a");
        g.assert_valid_order();
        let stats = g.order_stats().unwrap();
        assert_eq!(stats.repairs, 1);
        assert!(stats.comps_moved >= 1);
        assert_eq!(stats.merges, 0);
    }

    #[test]
    fn online_order_collapses_cycles_into_one_component() {
        // a → b → c sealed, then c → a dynamically: one 3-flow SCC, with
        // an upstream u → a and downstream c → d staying ordered around it.
        let mut g = Pvpg::new();
        g.enable_online_order();
        let first = g.flow_count();
        let u = phi(&mut g);
        let a = phi(&mut g);
        let b = phi(&mut g);
        let c = phi(&mut g);
        let d = phi(&mut g);
        g.add_use(u, a);
        g.add_use(a, b);
        g.add_observe(b, c); // cycles may span use and observe edges
        g.add_use(c, d);
        g.seal_batch(first);
        assert!(g.add_use_dedup(c, a));
        for (x, y) in [(a, b), (b, c), (a, c)] {
            assert_eq!(g.same_component(x, y), Some(true));
        }
        assert_eq!(g.same_component(u, a), Some(false));
        assert_eq!(g.same_component(c, d), Some(false));
        assert_eq!(g.component_size(a), Some(3));
        assert!(g.flow_in_cycle(b) && !g.flow_in_cycle(u) && !g.flow_in_cycle(d));
        assert!(g.order_key(u) < g.order_key(a));
        assert!(g.order_key(c) < g.order_key(d));
        g.assert_valid_order();
        let stats = g.order_stats().unwrap();
        assert_eq!(stats.merges, 2, "three components united");
        assert_eq!(stats.cyclic_flows, 3);
        assert_eq!(stats.max_scc_size, 3);
        assert_eq!(stats.comps, g.flow_count() - 2);
        // Growing the SCC later keeps membership and order exact.
        assert!(g.add_use_dedup(d, b));
        assert_eq!(g.component_size(d), Some(4));
        assert!(g.flow_in_cycle(d));
        g.assert_valid_order();
    }

    #[test]
    fn online_order_anchored_flows_sit_before_their_anchor() {
        // The engine anchors mid-solve fragments at the discovering invoke:
        // new flows must land directly below the anchor, so the fragment's
        // argument/return wiring is order-consistent without repairs.
        let mut g = Pvpg::new();
        g.enable_online_order();
        let first = g.flow_count();
        let arg = phi(&mut g);
        let invoke = phi(&mut g);
        g.add_use(arg, invoke);
        g.seal_batch(first);
        g.set_fragment_anchor(Some(invoke));
        let param = phi(&mut g);
        let ret = phi(&mut g);
        g.set_fragment_anchor(None);
        assert!(g.order_key(arg) < g.order_key(param));
        assert!(g.order_key(param) < g.order_key(ret));
        assert!(g.order_key(ret) < g.order_key(invoke));
        // The canonical linking edges are forward — no repairs needed.
        assert!(g.add_use_dedup(arg, param));
        assert!(g.add_use_dedup(ret, invoke));
        assert_eq!(g.order_stats().unwrap().repairs, 0);
        g.assert_valid_order();
    }

    #[test]
    fn online_order_survives_dense_insertions_at_one_gap() {
        // Hammer one gap (every flow anchored before the same target) until
        // the list-labeling scheme must relabel; the order stays exact.
        let mut g = Pvpg::new();
        g.enable_online_order();
        let anchor = phi(&mut g);
        let mut prev = None;
        for _ in 0..200 {
            g.set_fragment_anchor(Some(anchor));
            let f = phi(&mut g);
            g.set_fragment_anchor(None);
            assert!(g.order_key(f) < g.order_key(anchor));
            if let Some(p) = prev {
                // Later insertions land closer to the anchor.
                assert!(g.order_key(p) < g.order_key(f));
            }
            prev = Some(f);
        }
        assert!(
            g.order_stats().unwrap().relabels > 0,
            "200 insertions into one gap must exhaust midpoints"
        );
        g.assert_valid_order();
    }

    #[test]
    fn windowed_relabel_spreads_gaps_geometrically() {
        // The bounded-window branch of `make_room_after`: the anchor has
        // enough successors that relabels respace a window *between* nodes
        // (span clamped by `cur`'s label) instead of walking off the tail.
        // The geometric spreading must keep every label strictly ordered,
        // keep the window's successors above the insertion point, and never
        // disturb nodes beyond the window's clamp. (The churn *drop* is
        // asserted at workload scale in
        // `tests/delta_vs_reference.rs::windowed_relabel_churn_stays_low_on_the_fanout_corpus`,
        // where repair chains produce the repeatedly-subdivided gaps.)
        let mut g = Pvpg::new();
        g.enable_online_order();
        let anchor = phi(&mut g);
        let tail: Vec<FlowId> = (0..16).map(|_| phi(&mut g)).collect();
        let mut prev = None;
        for _ in 0..600 {
            g.set_fragment_anchor(Some(anchor));
            let f = phi(&mut g);
            g.set_fragment_anchor(None);
            assert!(g.order_key(f) < g.order_key(anchor));
            if let Some(p) = prev {
                assert!(g.order_key(p) < g.order_key(f));
            }
            prev = Some(f);
        }
        assert!(g.order_key(anchor) < g.order_key(tail[0]));
        for w in tail.windows(2) {
            assert!(g.order_key(w[0]) < g.order_key(w[1]), "tail order preserved");
        }
        let relabels = g.order_stats().unwrap().relabels;
        assert!(relabels > 0, "600 insertions into one gap must relabel");
        g.assert_valid_order();
    }

    #[test]
    fn enable_online_order_absorbs_an_existing_graph() {
        // Enabling on an already-built graph (the engine enables before
        // bootstrap, but the structure must not depend on that).
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = phi(&mut g);
        let b = phi(&mut g);
        let c = phi(&mut g);
        g.add_use(b, c);
        g.add_use(c, b); // pre-existing cycle
        g.add_use(c, a); // pre-existing violation of creation order
        g.seal_batch(first);
        assert!(g.order_key(a).is_none(), "disabled until requested");
        g.enable_online_order();
        assert_eq!(g.same_component(b, c), Some(true));
        assert!(g.order_key(c) < g.order_key(a));
        g.assert_valid_order();
        // Idempotent.
        let stats = g.order_stats().unwrap();
        g.enable_online_order();
        assert_eq!(g.order_stats().unwrap(), stats);
    }

    #[test]
    fn cursor_survives_concurrent_spill_growth() {
        let mut g = Pvpg::new();
        let first = g.flow_count();
        let a = g.add_flow(Flow::new(FlowKind::Phi, None, None));
        let b = g.add_flow(Flow::new(FlowKind::Phi, None, None));
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
