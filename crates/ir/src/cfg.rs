//! Control-flow-graph analyses: dominator trees (Cooper–Harvey–Kennedy) and
//! natural-loop detection.
//!
//! The validator uses a dataflow formulation of definite assignment; the
//! dominator tree here provides the classical formulation used by tests as a
//! cross-check, and the loop information feeds program statistics and the
//! workload generator's sanity checks.

use crate::body::BodyView;
use crate::ids::BlockId;

/// The dominator tree of a method body.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// Immediate dominator per block; `idom[entry] == entry`; unreachable
    /// blocks have `None`.
    idom: Vec<Option<BlockId>>,
    /// Reverse-postorder index per block (used for intersection).
    rpo_index: Vec<usize>,
}

impl Dominators {
    /// Computes the dominator tree with the Cooper–Harvey–Kennedy iterative
    /// algorithm.
    pub fn compute(body: BodyView<'_>) -> Self {
        let n = body.block_count();
        let rpo = body.reverse_postorder();
        let preds = body.predecessors();

        // Restrict to reachable blocks: those before the appended
        // unreachable tail. Compute reachability from the entry.
        let mut reachable = vec![false; n];
        reachable[BlockId::ENTRY.index()] = true;
        for &b in &rpo {
            if reachable[b.index()] {
                for s in body.block(b).end().successors() {
                    reachable[s.index()] = true;
                }
            }
        }

        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[BlockId::ENTRY.index()] = Some(BlockId::ENTRY);

        let intersect = |idom: &[Option<BlockId>], rpo_index: &[usize], a: BlockId, b: BlockId| {
            let (mut x, mut y) = (a, b);
            while x != y {
                while rpo_index[x.index()] > rpo_index[y.index()] {
                    x = idom[x.index()].expect("processed block has an idom");
                }
                while rpo_index[y.index()] > rpo_index[x.index()] {
                    y = idom[y.index()].expect("processed block has an idom");
                }
            }
            x
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if b == BlockId::ENTRY || !reachable[b.index()] {
                    continue;
                }
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // predecessor not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        Dominators { idom, rpo_index }
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.index()] {
            Some(d) if b != BlockId::ENTRY => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexive). Unreachable blocks dominate
    /// nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.index()].is_none() || self.idom[a.index()].is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == BlockId::ENTRY {
                return false;
            }
            cur = self.idom[cur.index()].expect("reachable chain");
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom[b.index()].is_some()
    }

    /// The reverse-postorder index of a block.
    pub fn rpo_index(&self, b: BlockId) -> usize {
        self.rpo_index[b.index()]
    }
}

/// One natural loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (always a merge block in the base language).
    pub header: BlockId,
    /// The source of the back edge.
    pub back_edge_from: BlockId,
    /// All blocks in the loop body (header included), ascending.
    pub blocks: Vec<BlockId>,
}

/// Finds all natural loops: for every edge `t → h` where `h` dominates `t`,
/// the loop is `h` plus every block that reaches `t` without passing
/// through `h`.
pub fn natural_loops(body: BodyView<'_>, doms: &Dominators) -> Vec<NaturalLoop> {
    let preds = body.predecessors();
    let mut loops = Vec::new();
    for (t, block) in body.iter_blocks() {
        if !doms.is_reachable(t) {
            continue;
        }
        for h in block.end().successors() {
            if doms.dominates(h, t) {
                // Back edge t -> h: flood predecessors from t, stopping at h.
                let mut in_loop = vec![false; body.block_count()];
                in_loop[h.index()] = true;
                let mut stack = vec![t];
                while let Some(b) = stack.pop() {
                    if in_loop[b.index()] {
                        continue;
                    }
                    in_loop[b.index()] = true;
                    for &p in &preds[b.index()] {
                        stack.push(p);
                    }
                }
                let blocks: Vec<BlockId> = (0..body.block_count())
                    .filter(|i| in_loop[*i])
                    .map(BlockId::from_index)
                    .collect();
                loops.push(NaturalLoop {
                    header: h,
                    back_edge_from: t,
                    blocks,
                });
            }
        }
    }
    loops
}

/// Summary statistics of one body, used by reports and the generator's
/// self-checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BodyStats {
    /// Basic blocks.
    pub blocks: usize,
    /// Statements plus terminators.
    pub instructions: usize,
    /// Natural loops.
    pub loops: usize,
    /// `if` terminators.
    pub branches: usize,
    /// Invoke statements (virtual + static).
    pub calls: usize,
    /// Field accesses (loads + stores).
    pub field_accesses: usize,
    /// `new` expressions.
    pub allocations: usize,
}

/// Computes [`BodyStats`].
pub fn body_stats(body: BodyView<'_>) -> BodyStats {
    use crate::instr::{BlockEnd, Expr, Stmt};
    let doms = Dominators::compute(body);
    let mut s = BodyStats {
        blocks: body.block_count(),
        instructions: body.instruction_count(),
        loops: natural_loops(body, &doms).len(),
        ..BodyStats::default()
    };
    for (_, block) in body.iter_blocks() {
        if matches!(block.end(), BlockEnd::If { .. }) {
            s.branches += 1;
        }
        for stmt in block.stmts() {
            match stmt {
                Stmt::Invoke { .. } | Stmt::InvokeStatic { .. } => s.calls += 1,
                Stmt::Load { .. } | Stmt::Store { .. } => s.field_accesses += 1,
                Stmt::Assign { expr: Expr::New(_), .. } => s.allocations += 1,
                _ => {}
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::tests::pooled;
    use crate::body::Body;
    use crate::builder::{BodyBuilder, BranchExit};
    use crate::instr::{CmpOp, Cond};

    fn b(i: usize) -> BlockId {
        BlockId::from_index(i)
    }

    fn diamond() -> Body {
        let mut bb = BodyBuilder::new(&["x"]);
        let x = bb.param(0);
        let zero = bb.const_(0);
        let j = bb.if_else(
            Cond::Cmp { op: CmpOp::Eq, lhs: x, rhs: zero },
            |bb| BranchExit::value(bb.const_(1)),
            |bb| BranchExit::value(bb.const_(2)),
        );
        bb.ret(Some(j[0]));
        bb.finish()
    }

    fn looped() -> Body {
        let mut bb = BodyBuilder::new(&[]);
        let zero = bb.const_(0);
        let ten = bb.const_(10);
        let after = bb.while_loop(
            &[zero],
            |_, p| Cond::Cmp { op: CmpOp::Lt, lhs: p[0], rhs: ten },
            |bb, _| BranchExit::Values(vec![bb.any_prim()]),
        );
        bb.ret(Some(after[0]));
        bb.finish()
    }

    #[test]
    fn diamond_dominators() {
        let (pools, span) = pooled(diamond());
        let doms = Dominators::compute(pools.view(span));
        // entry (b0) dominates everything; branches dominate only themselves;
        // the merge (b3) is dominated by the entry, not by either branch.
        assert_eq!(doms.idom(b(1)), Some(b(0)));
        assert_eq!(doms.idom(b(2)), Some(b(0)));
        assert_eq!(doms.idom(b(3)), Some(b(0)));
        assert!(doms.dominates(b(0), b(3)));
        assert!(!doms.dominates(b(1), b(3)));
        assert!(doms.dominates(b(1), b(1)));
        assert_eq!(doms.idom(b(0)), None, "entry has no idom");
    }

    #[test]
    fn loop_header_dominates_body_and_exit() {
        let (pools, span) = pooled(looped());
        let doms = Dominators::compute(pools.view(span));
        // b0 entry, b1 header, b2 body, b3 exit.
        assert!(doms.dominates(b(1), b(2)));
        assert!(doms.dominates(b(1), b(3)));
        assert_eq!(doms.idom(b(2)), Some(b(1)));
    }

    #[test]
    fn natural_loop_detection() {
        let (pools, span) = pooled(looped());
        let body = pools.view(span);
        let doms = Dominators::compute(body);
        let loops = natural_loops(body, &doms);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, b(1));
        assert_eq!(loops[0].back_edge_from, b(2));
        assert_eq!(loops[0].blocks, vec![b(1), b(2)]);
    }

    #[test]
    fn diamond_has_no_loops() {
        let (pools, span) = pooled(diamond());
        let body = pools.view(span);
        let doms = Dominators::compute(body);
        assert!(natural_loops(body, &doms).is_empty());
    }

    #[test]
    fn unreachable_blocks_have_no_dominators() {
        let mut body = diamond();
        body.blocks.push(crate::body::Block {
            begin: crate::body::BlockBegin::Label,
            stmts: vec![],
            end: crate::instr::BlockEnd::Return(None),
        });
        let dead = b(body.blocks.len() - 1);
        let (pools, span) = pooled(body);
        let doms = Dominators::compute(pools.view(span));
        assert!(!doms.is_reachable(dead));
        assert!(!doms.dominates(b(0), dead));
    }

    #[test]
    fn defs_dominate_uses_in_valid_bodies() {
        // Cross-check the validator's dataflow check with the dominator
        // tree: for every use, the defining block dominates the using block
        // (or they are the same block with the def first — which block-local
        // ordering already guarantees for builder output).
        let (pools, span) = pooled(looped());
        let body = pools.view(span);
        let doms = Dominators::compute(body);
        let mut def_block = std::collections::HashMap::new();
        for (id, block) in body.iter_blocks() {
            match block.begin() {
                crate::body::BlockBegin::Start { params } => {
                    for &p in params {
                        def_block.insert(p, id);
                    }
                }
                crate::body::BlockBegin::Merge { phis, .. } => {
                    for phi in phis {
                        def_block.insert(phi.def, id);
                    }
                }
                crate::body::BlockBegin::Label => {}
            }
            for stmt in block.stmts() {
                if let Some(d) = stmt.def() {
                    def_block.insert(d, id);
                }
            }
        }
        for (id, block) in body.iter_blocks() {
            for stmt in block.stmts() {
                for u in stmt.uses() {
                    assert!(doms.dominates(def_block[&u], id));
                }
            }
            for u in block.end().uses() {
                assert!(doms.dominates(def_block[&u], id));
            }
        }
    }

    #[test]
    fn body_stats_counts_shapes() {
        let (pools, span) = pooled(looped());
        let stats = body_stats(pools.view(span));
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.loops, 1);
        assert_eq!(stats.branches, 1);
        assert_eq!(stats.calls, 0);

        let (pools, span) = pooled(diamond());
        let stats = body_stats(pools.view(span));
        assert_eq!(stats.loops, 0);
        assert_eq!(stats.branches, 1);
    }
}
