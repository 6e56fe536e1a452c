//! Method bodies: basic blocks in SSA form plus CFG utilities.
//!
//! The block discipline follows the paper's base language (Appendix B.1):
//!
//! * the entry block begins with `start(p0, …, pn)`;
//! * blocks beginning with `merge […] m` are the targets of `jump`
//!   instructions and may form loops;
//! * blocks beginning with `label l` mark the two branches of an `if` and
//!   have exactly one predecessor;
//! * consequently the CFG has no critical edges.

use crate::ids::{BlockId, VarId};
use crate::instr::{BlockEnd, Stmt};

/// A φ instruction at a merge: `def ← φ(args…)`, one argument per incoming
/// jump (in [`BlockBegin::Merge::preds`] order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phi {
    /// The variable defined by the φ.
    pub def: VarId,
    /// One argument per predecessor, positionally aligned with the merge's
    /// predecessor list.
    pub args: Vec<VarId>,
}

/// The header pseudo-instruction of a basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockBegin {
    /// `start(p0, …, pn)`: defines the method parameters. Entry block only.
    Start {
        /// Parameter variables; `params[0]` is the receiver for instance
        /// methods.
        params: Vec<VarId>,
    },
    /// `merge [φs] m`: a control-flow join, target of `jump`s.
    Merge {
        /// φ instructions joining values from the predecessors.
        phis: Vec<Phi>,
        /// Incoming jump blocks, in φ-argument order. Back edges (loops) list
        /// blocks with a larger id than the merge itself.
        preds: Vec<BlockId>,
    },
    /// `label l`: beginning of one branch of an `if`; single predecessor.
    Label,
}

/// A basic block: header, straight-line statements, terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Header pseudo-instruction.
    pub begin: BlockBegin,
    /// Straight-line statements.
    pub stmts: Vec<Stmt>,
    /// Terminator.
    pub end: BlockEnd,
}

impl Block {
    /// The variables the header defines: the parameters of a `start` or the
    /// φ defs of a `merge`.
    pub(crate) fn header_defs(&self) -> impl Iterator<Item = VarId> + '_ {
        let (params, phis): (&[VarId], &[Phi]) = match &self.begin {
            BlockBegin::Start { params } => (params, &[]),
            BlockBegin::Merge { phis, .. } => (&[], phis),
            BlockBegin::Label => (&[], &[]),
        };
        params.iter().copied().chain(phis.iter().map(|p| p.def))
    }

    /// The variables the block defines: header defs, then statement defs
    /// in statement order.
    pub(crate) fn defs(&self) -> impl Iterator<Item = VarId> + '_ {
        self.header_defs().chain(self.stmts.iter().filter_map(Stmt::def))
    }
}

/// Debug information for one SSA variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarData {
    /// A printable name (not necessarily unique; SSA identity is the id).
    pub name: String,
}

/// An SSA method body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Body {
    /// Basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Variable debug data, indexed by [`VarId`].
    pub vars: Vec<VarData>,
}

impl Body {
    /// The formal parameters declared by the entry block's `start`.
    ///
    /// # Panics
    ///
    /// Panics if the entry block does not begin with `start` (validation
    /// rejects such bodies).
    pub fn params(&self) -> &[VarId] {
        match &self.blocks[BlockId::ENTRY.index()].begin {
            BlockBegin::Start { params } => params,
            _ => panic!("entry block must begin with start"),
        }
    }

    /// Returns the block with the given id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over `(BlockId, &Block)` pairs in id order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// Total number of statements plus block terminators — the "instruction
    /// count" used by the binary-size proxy.
    pub fn instruction_count(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len() + 1).sum()
    }

    /// Computes the predecessor lists of all blocks from the terminators.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, block) in self.iter_blocks() {
            for succ in block.end.successors() {
                preds[succ.index()].push(id);
            }
        }
        preds
    }

    /// Computes a reverse postorder over the CFG starting from the entry
    /// block. Unreachable blocks are appended at the end in id order so every
    /// block receives a position (the PVPG builder still creates flows for
    /// them; they simply stay disabled).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut postorder = Vec::with_capacity(n);
        // Iterative DFS to avoid recursion depth limits on deep CFGs.
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId::ENTRY, 0)];
        visited[BlockId::ENTRY.index()] = true;
        while let Some((block, child)) = stack.pop() {
            if let Some(s) = self.blocks[block.index()].end.successors().nth(child) {
                stack.push((block, child + 1));
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(block);
            }
        }
        postorder.reverse();
        for (i, seen) in visited.iter().enumerate() {
            if !seen {
                postorder.push(BlockId::from_index(i));
            }
        }
        postorder
    }

    /// All variables defined in the body, in definition order: parameters,
    /// then φs and statement defs in block order.
    pub fn definitions(&self) -> impl Iterator<Item = VarId> + '_ {
        self.blocks.iter().flat_map(Block::defs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Cond, Expr};
    use crate::TypeId;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }
    fn b(i: usize) -> BlockId {
        BlockId::from_index(i)
    }

    /// start(p0); if (p0 instanceof T) then b1 else b2;
    /// b1: jump b3; b2: jump b3; b3: merge [x ← φ(p0, p0)]; return x
    fn diamond() -> Body {
        Body {
            blocks: vec![
                Block {
                    begin: BlockBegin::Start { params: vec![v(0)] },
                    stmts: vec![],
                    end: BlockEnd::If {
                        cond: Cond::InstanceOf {
                            var: v(0),
                            ty: TypeId::from_index(1),
                            negated: false,
                        },
                        then_block: b(1),
                        else_block: b(2),
                    },
                },
                Block {
                    begin: BlockBegin::Label,
                    stmts: vec![],
                    end: BlockEnd::Jump(b(3)),
                },
                Block {
                    begin: BlockBegin::Label,
                    stmts: vec![],
                    end: BlockEnd::Jump(b(3)),
                },
                Block {
                    begin: BlockBegin::Merge {
                        phis: vec![Phi {
                            def: v(1),
                            args: vec![v(0), v(0)],
                        }],
                        preds: vec![b(1), b(2)],
                    },
                    stmts: vec![],
                    end: BlockEnd::Return(Some(v(1))),
                },
            ],
            vars: vec![VarData::default(); 2],
        }
    }

    #[test]
    fn params_of_entry() {
        assert_eq!(diamond().params(), &[v(0)]);
    }

    #[test]
    fn predecessors_of_diamond() {
        let preds = diamond().predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![b(0)]);
        assert_eq!(preds[2], vec![b(0)]);
        assert_eq!(preds[3], vec![b(1), b(2)]);
    }

    #[test]
    fn rpo_visits_entry_first_and_merge_last() {
        let rpo = diamond().reverse_postorder();
        assert_eq!(rpo[0], b(0));
        assert_eq!(rpo[3], b(3));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn rpo_appends_unreachable_blocks() {
        let mut body = diamond();
        body.blocks.push(Block {
            begin: BlockBegin::Label,
            stmts: vec![],
            end: BlockEnd::Return(None),
        });
        let rpo = body.reverse_postorder();
        assert_eq!(rpo.len(), 5);
        assert_eq!(*rpo.last().unwrap(), b(4));
    }

    #[test]
    fn definitions_include_params_and_phis() {
        let mut body = diamond();
        body.blocks[1].stmts.push(Stmt::Assign {
            def: v(2),
            expr: Expr::Const(1),
        });
        let defs: Vec<_> = body.definitions().collect();
        assert_eq!(defs, vec![v(0), v(2), v(1)]);
    }

    #[test]
    fn instruction_count_counts_terminators() {
        assert_eq!(diamond().instruction_count(), 4);
    }
}
