//! PVPG construction: one sequential pass over a method body
//! (paper Appendix B.4, Figures 12–14).
//!
//! Basic blocks are visited in reverse postorder; each block carries a state
//! `(m, pred)` — a mapping from SSA variables to their current flows, and the
//! most recent predicate. Statements create flows with a predicate edge from
//! `pred`; invokes become the new `pred`; `if` terminators create filtering
//! flows that both refine the tested variables and predicate their branches;
//! `jump` terminators propagate `(m, pred)` into merge blocks, joining
//! predicates with φ_pred flows and colliding variable flows with φ flows.
//!
//! Deviation from the paper's Figure 13: flows for the *declared* φ
//! instructions of a merge are created eagerly so that loop back-edges
//! connect loop-carried values correctly; the paper's lazy collision
//! mechanism is kept for the analysis-internal redefinitions introduced by
//! filtering flows. A collision on a back edge can only be a filter
//! refinement of an already-joined definition and is dropped (a sound
//! over-approximation).
//!
//! # Allocation-free growth
//!
//! A fragment allocates nothing of its own in steady state. Its lists go to
//! `Pvpg`-wide pools (see [`MethodGraph`]), and the builder's working state
//! lives in one engine-owned [`BuildScratch`], reused across fragments: the
//! per-block `(m, pred)` states are cleared, not freed, so their maps and φ
//! lists keep their capacity, and the reverse-postorder walk runs in the
//! scratch's buffers.
//!
//! The three build outputs the engine acts on after the build — flows to
//! enable, initial pushes and catch subscriptions — are *stacks* in the
//! scratch rather than per-build vectors. Acting on them re-enters the
//! builder (`enable → link → make_reachable` builds a callee's fragment),
//! so a single taken buffer would leave every nested build allocating a
//! fresh one. Instead each fragment notes the stacks' lengths before it
//! builds, walks its own entries by index (nested builds push above them
//! and truncate back before returning), and truncates to the noted lengths
//! when done. The builder itself never re-enters: it returns before any of
//! its outputs is acted on.

use crate::config::AnalysisConfig;
use crate::flow::{CallKind, CallSite, Flow, FlowId, FlowKind};
use crate::graph::{pool_index, CheckCategory, IfRecord, MethodGraph, Pvpg, Span};
use skipflow_ir::{
    BlockBegin, BlockEnd, BlockId, BodyView, Cond, Expr, MethodId, Program, Stmt, TypeId, VarId,
};

/// The builder's reusable working state and the engine's build-output
/// stacks (module docs, "Allocation-free growth").
#[derive(Debug, Default)]
pub(crate) struct BuildScratch {
    /// Per-block construction states; the first `block_count` are live
    /// during a build, the rest keep their capacity for larger bodies.
    states: Vec<BlockCtx>,
    /// Reverse-postorder walk: the order and its traversal scratch.
    rpo: Vec<BlockId>,
    rpo_visited: Vec<bool>,
    rpo_stack: Vec<(BlockId, usize)>,
    /// Flows gated directly by `pred_on`, to be enabled immediately (under
    /// the predicate-less baseline the engine enables the whole fragment
    /// range instead).
    pub(crate) enables: Vec<FlowId>,
    /// Build-time edges from global flows that may already carry state
    /// (field sinks, the thrown/unsafe pools) and need an initial push.
    pub(crate) pushes: Vec<(FlowId, FlowId)>,
    /// Catch flows to subscribe to instantiated exception types (coarse
    /// exception policy).
    pub(crate) catch_subscribers: Vec<(TypeId, FlowId)>,
}

/// A small variable→flow map kept sorted by [`VarId`]: method bodies bind a
/// handful of SSA variables, so a sorted vector beats a `BTreeMap` on both
/// lookup and the per-branch copies `initBlock` performs (a copy reuses the
/// target's buffer). The sorted order also keeps iteration deterministic,
/// which fixes the order implicit φs are created in.
#[derive(Clone, Debug, Default)]
struct VarMap {
    entries: Vec<(VarId, FlowId)>,
}

impl VarMap {
    fn get(&self, v: VarId) -> Option<FlowId> {
        self.entries
            .binary_search_by_key(&v, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    fn insert(&mut self, v: VarId, f: FlowId) {
        match self.entries.binary_search_by_key(&v, |e| e.0) {
            Ok(i) => self.entries[i].1 = f,
            Err(i) => self.entries.insert(i, (v, f)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (VarId, FlowId)> + '_ {
        self.entries.iter().copied()
    }
}

/// Per-block construction state (the paper's `(m, pred)` plus the merge
/// bookkeeping). The φ bookkeeping lists are tiny, so plain vectors with
/// linear membership tests replace hash sets.
#[derive(Clone, Debug, Default)]
struct BlockCtx {
    map: VarMap,
    pred: Option<FlowId>,
    phi_pred: Option<FlowId>,
    /// Flows of the declared φs, positionally aligned with the merge's φ list.
    phi_flows: Vec<FlowId>,
    /// Defs of the declared φs (skipped during collision propagation).
    phi_defs: Vec<VarId>,
    /// Implicit φ flows created by collisions (paper Figure 13 `isPhi`).
    implicit_phis: Vec<FlowId>,
    /// Set once the block's own instructions have been processed; back edges
    /// into a visited merge drop refinements instead of creating φs.
    visited: bool,
}

impl BlockCtx {
    /// Resets to the empty state, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.map.entries.clear();
        self.pred = None;
        self.phi_pred = None;
        self.phi_flows.clear();
        self.phi_defs.clear();
        self.implicit_phis.clear();
        self.visited = false;
    }
}

struct Builder<'a> {
    g: &'a mut Pvpg,
    scratch: &'a mut BuildScratch,
    program: &'a Program,
    config: &'a AnalysisConfig,
    method: MethodId,
    /// The fragment's first entry in the block pools.
    blocks_start: usize,
    ret: Option<FlowId>,
}

/// Builds the PVPG fragment for method `m` (which must have a body) and
/// returns its record; the engine stores it once it has acted on the
/// fragment's entries on the `scratch` output stacks.
pub(crate) fn build_method_graph(
    g: &mut Pvpg,
    scratch: &mut BuildScratch,
    program: &Program,
    config: &AnalysisConfig,
    m: MethodId,
) -> MethodGraph {
    let first_flow = g.flow_count();
    let body = program.body(m).expect("reachable methods have bodies");
    let n_blocks = body.block_count();
    if scratch.states.len() < n_blocks {
        scratch.states.resize_with(n_blocks, BlockCtx::default);
    }
    for ctx in &mut scratch.states[..n_blocks] {
        ctx.clear();
    }

    // Lay out the block pools and the statement CSR up front (`pred_on`
    // is a placeholder): every block is visited exactly once, so the walk
    // overwrites each slot exactly once.
    let first_param = g.param_pool.len();
    let first_site = g.sites.len();
    let first_if = g.if_pool.len();
    let blocks_start = g.block_pred_pool.len();
    let stmts_start = g.stmt_pool.len();
    let mut stmt_end = stmts_start;
    for (_, block) in body.iter_blocks() {
        g.block_stmt_start.push(pool_index(stmt_end));
        stmt_end += block.stmt_count();
    }
    g.block_pred_pool.resize(blocks_start + n_blocks, g.pred_on);
    g.stmt_pool.resize(stmt_end, g.pred_on);

    let mut b = Builder {
        g,
        scratch,
        program,
        config,
        method: m,
        blocks_start,
        ret: None,
    };

    // Pre-create φ_pred and declared-φ flows for every merge, so back edges
    // can connect loop-carried values.
    for (id, block) in body.iter_blocks() {
        if let BlockBegin::Merge { phis, .. } = block.begin() {
            let phi_pred = b.new_flow(FlowKind::PhiPred, Some(id));
            let ctx = &mut b.scratch.states[id.index()];
            ctx.phi_pred = Some(phi_pred);
            ctx.pred = Some(phi_pred);
            // φ flows need the φ_pred as predicate.
            for phi in phis {
                let f = b.new_flow(FlowKind::Phi, Some(id));
                b.g.add_pred(phi_pred, f);
                let ctx = &mut b.scratch.states[id.index()];
                ctx.phi_defs.push(phi.def);
                ctx.phi_flows.push(f);
                ctx.map.insert(phi.def, f);
            }
        }
    }

    body.reverse_postorder_into(
        &mut b.scratch.rpo,
        &mut b.scratch.rpo_visited,
        &mut b.scratch.rpo_stack,
    );
    for i in 0..n_blocks {
        let block_id = b.scratch.rpo[i];
        b.process_block(body, block_id);
    }

    let ret = b.ret;
    let g = b.g;
    let graph = MethodGraph {
        ret,
        flows: Span::between(first_flow, g.flow_count()),
        params: Span::between(first_param, g.param_pool.len()),
        sites: Span::between(first_site, g.sites.len()),
        ifs: Span::between(first_if, g.if_pool.len()),
        blocks: Span::between(blocks_start, g.block_pred_pool.len()),
        stmts: Span::between(stmts_start, g.stmt_pool.len()),
    };
    // Freeze this fragment's construction-time edges into CSR storage.
    g.seal_batch(first_flow);
    graph
}

impl Builder<'_> {
    fn new_flow(&mut self, kind: FlowKind, block: Option<BlockId>) -> FlowId {
        self.g.add_flow(Flow::new(kind), Some(self.method), block)
    }

    /// Creates a flow predicated on `pred` (the paper: "each flow is assigned
    /// a predicate edge b.pred ⇝pred f upon its creation"). Flows gated by
    /// `pred_on` are queued for immediate enabling.
    fn new_predicated_flow(&mut self, kind: FlowKind, block: BlockId, pred: FlowId) -> FlowId {
        let f = self.new_flow(kind, Some(block));
        self.g.add_pred(pred, f);
        if pred == self.g.pred_on {
            self.scratch.enables.push(f);
        }
        f
    }

    fn lookup(&self, ctx: &BlockCtx, v: VarId) -> FlowId {
        ctx.map
            .get(v)
            .unwrap_or_else(|| panic!("validated SSA: {v} must be mapped"))
    }

    fn process_block(&mut self, body: BodyView<'_>, id: BlockId) {
        // Take the accumulated entry context (handed back, with its
        // buffers, at the end).
        let mut ctx = std::mem::take(&mut self.scratch.states[id.index()]);

        match body.block(id).begin() {
            BlockBegin::Start { params } => {
                ctx.pred = Some(self.g.pred_on);
                let md = self.program.method(self.method);
                for (i, p) in params.iter().enumerate() {
                    let declared = md.param_type(i);
                    let f = self.new_predicated_flow(
                        FlowKind::Param { index: i, declared },
                        id,
                        self.g.pred_on,
                    );
                    ctx.map.insert(*p, f);
                    self.g.param_pool.push(f);
                }
            }
            BlockBegin::Merge { .. } => {
                // φ_pred / φ flows pre-created; map already primed by the
                // forward predecessors' propagate calls.
            }
            BlockBegin::Label => {
                // Entry state installed by the predecessor's `if`. A label
                // inside an unreachable region may have none; give it a dead
                // predicate so the block's flows simply stay disabled.
                if ctx.pred.is_none() {
                    let dead = self.new_flow(FlowKind::PhiPred, Some(id));
                    ctx.pred = Some(dead);
                }
            }
        }

        let pred0 = ctx.pred.expect("entry predicate installed");
        let slot = self.blocks_start + id.index();
        self.g.block_pred_pool[slot] = pred0;

        // Statements (paper Figure 12), written into the block's CSR slots.
        // `body` is not reachable through `self`, so iterating it borrows
        // nothing from the builder.
        let stmts_at = self.g.block_stmt_start[slot] as usize;
        for (k, stmt) in body.block(id).stmts().enumerate() {
            let f = self.process_stmt(&mut ctx, id, &stmt);
            self.g.stmt_pool[stmts_at + k] = f;
        }

        // Terminator.
        match body.block(id).end() {
            BlockEnd::Return(v) => {
                let pred = ctx.pred.unwrap();
                let site = match v {
                    Some(v) => {
                        let f = self.new_predicated_flow(FlowKind::ReturnSite, id, pred);
                        let src = self.lookup(&ctx, v);
                        self.g.add_use(src, f);
                        f
                    }
                    None => {
                        // Void return: an artificial constant token signals
                        // that the return is reachable (paper §3).
                        self.new_predicated_flow(FlowKind::Const(0), id, pred)
                    }
                };
                let ret = match self.ret {
                    Some(r) => r,
                    None => {
                        let r = self.new_flow(FlowKind::MethodReturn, Some(id));
                        self.ret = Some(r);
                        r
                    }
                };
                self.g.add_use(site, ret);
                self.g.add_pred(site, ret);
            }
            BlockEnd::Throw(v) => {
                let pred = ctx.pred.unwrap();
                let f = self.new_predicated_flow(FlowKind::ThrowSite, id, pred);
                let src = self.lookup(&ctx, v);
                self.g.add_use(src, f);
                let sink = self.g.thrown_sink;
                self.g.add_use(f, sink);
            }
            BlockEnd::Jump(target) => {
                self.propagate(body, &ctx, id, target);
            }
            BlockEnd::If {
                cond,
                then_block,
                else_block,
            } => {
                let category = self.classify(&ctx, &cond);
                let then_pred = self.init_branch(&ctx, id, then_block, cond);
                let else_pred = self.init_branch(&ctx, id, else_block, cond.invert());
                self.g.if_pool.push(IfRecord {
                    block: id,
                    category,
                    then_pred,
                    else_pred,
                });
            }
        }

        ctx.visited = true;
        self.scratch.states[id.index()] = ctx;
    }

    fn process_stmt(&mut self, ctx: &mut BlockCtx, id: BlockId, stmt: &Stmt<&[VarId]>) -> FlowId {
        let pred = ctx.pred.unwrap();
        match stmt {
            Stmt::Assign { def, expr } => {
                let kind = match expr {
                    Expr::Const(n) => FlowKind::Const(*n),
                    Expr::AnyPrim => FlowKind::AnyPrim,
                    Expr::New(t) => FlowKind::New(*t),
                    Expr::Null => FlowKind::NullSource,
                };
                let f = self.new_predicated_flow(kind, id, pred);
                ctx.map.insert(*def, f);
                f
            }
            Stmt::Load { def, object, field } => {
                let is_static = self.program.field(*field).is_static;
                let receiver = if is_static {
                    None
                } else {
                    Some(self.lookup(ctx, *object))
                };
                let f = self.new_predicated_flow(
                    FlowKind::Load { field: *field, receiver },
                    id,
                    pred,
                );
                if let Some(recv) = receiver {
                    self.g.add_observe(recv, f);
                } else {
                    let sink = self.g.field_sink(*field);
                    self.g.add_use_dedup(sink, f);
                    self.scratch.pushes.push((sink, f));
                }
                if self.config.unsafe_fields.contains(field) {
                    let us = self.g.unsafe_sink;
                    self.g.add_use_dedup(us, f);
                    self.scratch.pushes.push((us, f));
                }
                ctx.map.insert(*def, f);
                f
            }
            Stmt::Store {
                object,
                field,
                value,
            } => {
                let is_static = self.program.field(*field).is_static;
                let receiver = if is_static {
                    None
                } else {
                    Some(self.lookup(ctx, *object))
                };
                let f = self.new_predicated_flow(
                    FlowKind::Store { field: *field, receiver },
                    id,
                    pred,
                );
                let v = self.lookup(ctx, *value);
                self.g.add_use(v, f);
                if let Some(recv) = receiver {
                    self.g.add_observe(recv, f);
                } else {
                    let sink = self.g.field_sink(*field);
                    self.g.add_use_dedup(f, sink);
                }
                if self.config.unsafe_fields.contains(field) {
                    let us = self.g.unsafe_sink;
                    self.g.add_use_dedup(f, us);
                }
                f
            }
            Stmt::Invoke {
                def,
                receiver,
                selector,
                args,
            } => {
                let recv = self.lookup(ctx, *receiver);
                let first_arg = self.g.arg_pool.len();
                self.g.arg_pool.push(recv);
                for a in args.iter() {
                    let f = self.lookup(ctx, *a);
                    self.g.arg_pool.push(f);
                }
                let site = self.g.add_site(CallSite {
                    kind: CallKind::Virtual,
                    flow: FlowId(0), // patched below
                    receiver: Some(recv),
                    args: Span::between(first_arg, self.g.arg_pool.len()),
                    selector: Some(*selector),
                    static_target: None,
                    caller: self.method,
                    linked: Vec::new(),
                    linked_set: skipflow_ir::BitSet::new(),
                    seen_receiver_types: skipflow_ir::BitSet::new(),
                });
                let f = self.new_predicated_flow(FlowKind::Invoke { site }, id, pred);
                self.g.site_mut(site).flow = f;
                self.g.add_observe(recv, f);
                ctx.map.insert(*def, f);
                // The invocation becomes the predicate for what follows
                // (paper §3 "Method Invocations as Predicates").
                ctx.pred = Some(f);
                f
            }
            Stmt::InvokeStatic { def, target, args } => {
                let first_arg = self.g.arg_pool.len();
                for a in args.iter() {
                    let f = self.lookup(ctx, *a);
                    self.g.arg_pool.push(f);
                }
                let site = self.g.add_site(CallSite {
                    kind: CallKind::Static,
                    flow: FlowId(0),
                    receiver: None,
                    args: Span::between(first_arg, self.g.arg_pool.len()),
                    selector: None,
                    static_target: Some(*target),
                    caller: self.method,
                    linked: Vec::new(),
                    linked_set: skipflow_ir::BitSet::new(),
                    seen_receiver_types: skipflow_ir::BitSet::new(),
                });
                let f = self.new_predicated_flow(FlowKind::InvokeStatic { site }, id, pred);
                self.g.site_mut(site).flow = f;
                ctx.map.insert(*def, f);
                ctx.pred = Some(f);
                f
            }
            Stmt::Catch { def, ty } => {
                let f = self.new_predicated_flow(FlowKind::CatchAll { ty: *ty }, id, pred);
                let sink = self.g.thrown_sink;
                self.g.add_use_dedup(sink, f);
                self.scratch.pushes.push((sink, f));
                if self.config.coarse_exceptions {
                    self.scratch.catch_subscribers.push((*ty, f));
                }
                ctx.map.insert(*def, f);
                f
            }
        }
    }

    /// The paper's `propagate` (Figure 13), adjusted for pre-created φs.
    fn propagate(&mut self, body: BodyView<'_>, ctx: &BlockCtx, from: BlockId, target: BlockId) {
        let t_idx = target.index();
        let phi_pred = self.scratch.states[t_idx]
            .phi_pred
            .expect("jump targets are merge blocks");
        let pred = ctx.pred.unwrap();
        self.g.add_pred(pred, phi_pred);
        // A φ_pred hanging directly off `pred_on` must be queued for
        // immediate enabling, exactly like the flows `new_predicated_flow`
        // collects: when this fragment is built *during* solving (a callee
        // discovered by dispatch), `pred_on` has already fired and will
        // never walk its predicate successors again — without this, a loop
        // header whose predecessor predicate is `pred_on` would stay
        // disabled and everything in the loop body would be wrongly dead.
        if pred == self.g.pred_on {
            self.scratch.enables.push(phi_pred);
        }

        // Connect declared φ arguments for this predecessor position.
        if let BlockBegin::Merge { phis, preds } = body.block(target).begin() {
            let j = preds
                .iter()
                .position(|p| *p == from)
                .expect("validated merge predecessor lists");
            for (phi, k) in phis.iter().zip(0..) {
                let phi_flow = self.scratch.states[t_idx].phi_flows[k];
                let src = self.lookup(ctx, phi.args[j]);
                self.g.add_use(src, phi_flow);
            }
        }

        // Collision-based propagation of the remaining mappings (filter
        // redefinitions and plain inherited values). `ctx` is the caller's
        // local context, disjoint from the scratch states, so no copy is
        // needed.
        for (v, f) in ctx.map.iter() {
            let st = &mut self.scratch.states[t_idx];
            if st.phi_defs.contains(&v) {
                continue;
            }
            match st.map.get(v) {
                None => {
                    if !st.visited {
                        st.map.insert(v, f);
                    }
                }
                Some(e) if e == f => {}
                Some(e) => {
                    if st.visited {
                        // Back edge: the collision is a filter refinement of
                        // an already-joined definition; drop it (sound).
                        continue;
                    }
                    if st.implicit_phis.contains(&e) {
                        self.g.add_use(f, e);
                    } else {
                        let nf = self.new_flow(FlowKind::Phi, Some(target));
                        self.g.add_pred(phi_pred, nf);
                        self.g.add_use(e, nf);
                        self.g.add_use(f, nf);
                        let st = &mut self.scratch.states[t_idx];
                        st.map.insert(v, nf);
                        st.implicit_phis.push(nf);
                    }
                }
            }
        }
    }

    /// The paper's `initBlock`/`initUnary`/`initBinary` (Figure 14); installs
    /// the branch block's entry state and returns its entry predicate.
    fn init_branch(&mut self, ctx: &BlockCtx, from: BlockId, target: BlockId, cond: Cond) -> FlowId {
        let pred = ctx.pred.unwrap();
        // A branch block has the `if` as its only predecessor: its entry
        // map is a copy of this block's map, written into its own buffer.
        let t_idx = target.index();
        let t_map = &mut self.scratch.states[t_idx].map.entries;
        t_map.clear();
        t_map.extend_from_slice(&ctx.map.entries);
        let t_pred = match cond {
            Cond::InstanceOf { var, ty, negated } => {
                let f = self.new_predicated_flow(FlowKind::TypeFilter { ty, negated }, from, pred);
                let src = self.lookup(ctx, var);
                self.g.add_use(src, f);
                self.scratch.states[t_idx].map.insert(var, f);
                f
            }
            Cond::Cmp { op, lhs, rhs } => {
                let l = self.lookup(ctx, lhs);
                let r = self.lookup(ctx, rhs);
                let fl = self.new_predicated_flow(FlowKind::CmpFilter { op, other: r }, from, pred);
                self.g.add_use(l, fl);
                self.g.add_observe(r, fl);
                self.scratch.states[t_idx].map.insert(lhs, fl);
                let fr = self
                    .new_predicated_flow(FlowKind::CmpFilter { op: op.flip(), other: l }, from, fl);
                // Chained predicates: b.pred ⇝ f_l ⇝ f_r.
                self.g.add_use(r, fr);
                self.g.add_observe(l, fr);
                self.scratch.states[t_idx].map.insert(rhs, fr);
                fr
            }
        };
        let st = &mut self.scratch.states[t_idx];
        st.pred = Some(t_pred);
        st.phi_pred = None;
        t_pred
    }

    /// Classification for the counter metrics: `instanceof` → Type; a
    /// comparison against a `null` source → Null; anything else → Prim.
    fn classify(&self, ctx: &BlockCtx, cond: &Cond) -> CheckCategory {
        match cond {
            Cond::InstanceOf { .. } => CheckCategory::Type,
            Cond::Cmp { lhs, rhs, .. } => {
                let is_null = |v: VarId| {
                    ctx.map
                        .get(v)
                        .is_some_and(|f| matches!(self.g.flow(f).kind, FlowKind::NullSource))
                };
                if is_null(*lhs) || is_null(*rhs) {
                    CheckCategory::Null
                } else {
                    CheckCategory::Prim
                }
            }
        }
    }
}

// The unit tests for construction live in `engine.rs` alongside the value
// propagation tests (graph shape is easiest to assert through behaviour),
// plus dedicated structural tests here.
#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_ir::{BodyBuilder, BranchExit, CmpOp, ProgramBuilder, TypeRef};

    /// Builds `m`'s fragment into a fresh graph and scratch.
    fn build(program: &Program, m: MethodId) -> (Pvpg, BuildScratch, MethodGraph) {
        let mut g = Pvpg::new();
        let mut scratch = BuildScratch::default();
        let config = AnalysisConfig::skipflow();
        let mg = build_method_graph(&mut g, &mut scratch, program, &config, m);
        (g, scratch, mg)
    }

    fn build_single(
        body_f: impl FnOnce(&mut BodyBuilder),
    ) -> (Program, Pvpg, BuildScratch, MethodGraph) {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb.method(a, "run").static_().returns(TypeRef::Prim).build();
        let mut bb = BodyBuilder::new(&[]);
        body_f(&mut bb);
        pb.set_body(m, bb.finish());
        let program = pb.finish().unwrap();
        let m = program.method_by_name(program.type_by_name("A").unwrap(), "run").unwrap();
        let (g, scratch, mg) = build(&program, m);
        (program, g, scratch, mg)
    }

    #[test]
    fn straight_line_flows_are_pred_on_gated() {
        let (_, g, scratch, mg) = build_single(|bb| {
            let c = bb.const_(5);
            bb.ret(Some(c));
        });
        // const + return site + method return.
        assert_eq!(mg.flows.len(), 3);
        // The constant is gated by pred_on and queued for enabling.
        assert_eq!(scratch.enables.len(), 2, "const and return site");
        let (_, preds, _) = g.edge_counts();
        assert!(preds >= 2);
        assert!(mg.ret.is_some());
    }

    #[test]
    fn if_creates_filter_chain_and_records_category() {
        let (_, g, _, mg) = build_single(|bb| {
            let x = bb.any_prim();
            let ten = bb.const_(10);
            let j = bb.if_else(
                skipflow_ir::Cond::Cmp { op: CmpOp::Lt, lhs: x, rhs: ten },
                |bb| BranchExit::value(bb.const_(1)),
                |bb| BranchExit::value(bb.const_(2)),
            );
            bb.ret(Some(j[0]));
        });
        assert_eq!(g.method_ifs(&mg).len(), 1);
        let rec = &g.method_ifs(&mg)[0];
        assert_eq!(rec.category, CheckCategory::Prim);
        // then_pred is the flipped filter f_r whose predicate is f_l.
        let fr = g.flow(rec.then_pred);
        assert!(matches!(fr.kind, FlowKind::CmpFilter { op: CmpOp::Gt, .. }));
        // The else branch uses the inverted condition `x >= 10` (flipped: ≤).
        let er = g.flow(rec.else_pred);
        assert!(matches!(er.kind, FlowKind::CmpFilter { op: CmpOp::Le, .. }));
    }

    #[test]
    fn null_check_is_classified_null() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb
            .method(a, "run")
            .static_()
            .params(vec![TypeRef::Object(a)])
            .returns(TypeRef::Prim)
            .build();
        pb.build_body(m, |bb| {
            let p = bb.param(0);
            let nl = bb.null_();
            let j = bb.if_else(
                skipflow_ir::Cond::Cmp { op: CmpOp::Eq, lhs: p, rhs: nl },
                |bb| BranchExit::value(bb.const_(1)),
                |bb| BranchExit::value(bb.const_(0)),
            );
            bb.ret(Some(j[0]));
        });
        let program = pb.finish().unwrap();
        let (g, _, mg) = build(&program, m);
        assert_eq!(g.method_ifs(&mg)[0].category, CheckCategory::Null);
    }

    #[test]
    fn instanceof_is_classified_type_and_creates_type_filters() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb
            .method(a, "run")
            .static_()
            .params(vec![TypeRef::Object(a)])
            .returns(TypeRef::Prim)
            .build();
        pb.build_body(m, |bb| {
            let p = bb.param(0);
            let j = bb.if_else(
                skipflow_ir::Cond::InstanceOf { var: p, ty: a, negated: false },
                |bb| BranchExit::value(bb.const_(1)),
                |bb| BranchExit::value(bb.const_(0)),
            );
            bb.ret(Some(j[0]));
        });
        let program = pb.finish().unwrap();
        let (g, _, mg) = build(&program, m);
        let rec = &g.method_ifs(&mg)[0];
        assert_eq!(rec.category, CheckCategory::Type);
        assert!(matches!(
            g.flow(rec.then_pred).kind,
            FlowKind::TypeFilter { negated: false, .. }
        ));
        assert!(matches!(
            g.flow(rec.else_pred).kind,
            FlowKind::TypeFilter { negated: true, .. }
        ));
    }

    #[test]
    fn invoke_becomes_predicate_of_following_statements() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let callee = pb.method(a, "f").returns(TypeRef::Prim).build();
        pb.set_trivial_body(callee, Some(1));
        let sel = pb.selector("f", 0);
        let m = pb
            .method(a, "run")
            .static_()
            .params(vec![TypeRef::Object(a)])
            .returns(TypeRef::Prim)
            .build();
        pb.build_body(m, |bb| {
            let p = bb.param(0);
            let r = bb.invoke(p, sel, &[]);
            let c = bb.const_(9);
            let _ = c;
            bb.ret(Some(r));
        });
        let program = pb.finish().unwrap();
        let (g, _, mg) = build(&program, m);
        assert_eq!(g.method_sites(&mg).len(), 1);
        let site = g.site(g.method_sites(&mg).next().unwrap());
        let invoke_flow = site.flow;
        // The const created after the invoke is predicated by the invoke.
        let const_flow = g
            .method_flows(&mg)
            .find(|&f| matches!(g.flow(f).kind, FlowKind::Const(9)))
            .unwrap();
        assert!(
            g.pred_targets(invoke_flow).any(|t| t == const_flow),
            "invoke must predicate the following statement"
        );
    }

    #[test]
    fn loop_phis_receive_back_edge_use_edges() {
        let (_, g, _, mg) = build_single(|bb| {
            let zero = bb.const_(0);
            let hundred = bb.const_(100);
            let after = bb.while_loop(
                &[zero],
                |_, p| skipflow_ir::Cond::Cmp { op: CmpOp::Lt, lhs: p[0], rhs: hundred },
                |bb, _| BranchExit::Values(vec![bb.any_prim()]),
            );
            bb.ret(Some(after[0]));
        });
        // Find the φ flow: it must have two incoming use edges — one from the
        // initial constant, one from the loop-body AnyPrim.
        let phi = g
            .method_flows(&mg)
            .find(|&f| matches!(g.flow(f).kind, FlowKind::Phi))
            .expect("loop φ exists");
        let incoming: Vec<FlowId> = g
            .method_flows(&mg)
            .filter(|&f| g.use_targets(f).any(|t| t == phi))
            .collect();
        assert_eq!(incoming.len(), 2, "initial value and back-edge value");
        assert!(incoming
            .iter()
            .any(|&f| matches!(g.flow(f).kind, FlowKind::AnyPrim)));
    }

    #[test]
    fn void_return_produces_token_const() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb.method(a, "run").static_().returns(TypeRef::Void).build();
        pb.set_trivial_body(m, None);
        let program = pb.finish().unwrap();
        let (g, _, mg) = build(&program, m);
        let ret = mg.ret.unwrap();
        // The return site feeding the method return is a Const(0) token.
        let token = g
            .method_flows(&mg)
            .find(|&f| g.use_targets(f).any(|t| t == ret))
            .unwrap();
        assert!(matches!(g.flow(token).kind, FlowKind::Const(0)));
    }

    #[test]
    fn throw_connects_to_thrown_sink() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let exc = pb.add_class("Err");
        let m = pb.method(a, "boom").static_().returns(TypeRef::Void).build();
        pb.build_body(m, |bb| {
            let e = bb.new_obj(exc);
            bb.throw(e);
        });
        let program = pb.finish().unwrap();
        let (g, _, mg) = build(&program, m);
        assert!(mg.ret.is_none(), "throwing methods have no return flow");
        let throw_site = g
            .method_flows(&mg)
            .find(|&f| matches!(g.flow(f).kind, FlowKind::ThrowSite))
            .unwrap();
        assert!(g.use_targets(throw_site).any(|t| t == g.thrown_sink));
    }
}
