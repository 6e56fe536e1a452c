//! Method bodies: basic blocks in SSA form, their program-wide pooled
//! storage, and the `Copy` view every reader goes through.
//!
//! The block discipline follows the paper's base language (Appendix B.1):
//!
//! * the entry block begins with `start(p0, …, pn)`;
//! * blocks beginning with `merge […] m` are the targets of `jump`
//!   instructions and may form loops;
//! * blocks beginning with `label l` mark the two branches of an `if` and
//!   have exactly one predecessor;
//! * consequently the CFG has no critical edges.
//!
//! # Storage
//!
//! A [`Body`] is the owned form: a `Vec` of blocks, each with its own `Vec`
//! of statements. It exists only as builder input
//! ([`crate::ProgramBuilder::set_body`], the frontend, the shrinker). A
//! [`crate::Program`] stores every body in one set of program-wide pools
//! instead:
//!
//! * a block pool of fixed-size block records (header, statement range,
//!   terminator);
//! * a statement pool, whose call arguments are ranges;
//! * one `VarId` list pool holding parameters, φ arguments and call
//!   arguments, next to a φ pool of `(def, argument range)` records and a
//!   `BlockId` pool of merge predecessors;
//! * one interned name symbol per variable, and the symbol table itself
//!   (programs reuse a handful of variable names many times over).
//!
//! A method's [`crate::MethodData`] holds only a `Copy` range record into
//! these pools, so a program's allocation count does not grow with its
//! block, statement or variable count, and its bodies' heap size is a sum
//! of pool capacities.
//!
//! # Reading
//!
//! [`crate::Program::body`] hands out a [`BodyView`]: a `Copy` handle that
//! lends blocks ([`BlockView`]), statements (as [`Stmt`] over argument
//! slices), headers (as [`BlockHeader`]) and variable names straight out
//! of the pools. Nothing outside this crate touches the pools themselves.

use crate::ids::{BlockId, VarId};
use crate::instr::{BlockEnd, Stmt};
use std::collections::HashMap;

/// A φ instruction at a merge: `def ← φ(args…)`, one argument per incoming
/// jump (in the merge's predecessor order).
///
/// `A` holds the arguments: an owned `Vec` in builder input, a borrowed
/// slice when read through a [`BodyView`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phi<A = Vec<VarId>> {
    /// The variable defined by the φ.
    pub def: VarId,
    /// One argument per predecessor, positionally aligned with the merge's
    /// predecessor list.
    pub args: A,
}

/// The header pseudo-instruction of a basic block.
///
/// The type parameters hold the header's lists: owned `Vec`s in builder
/// input, slices and [`Phis`] in the [`BlockHeader`] a [`BlockView`]
/// returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockBegin<V = Vec<VarId>, P = Vec<Phi>, B = Vec<BlockId>> {
    /// `start(p0, …, pn)`: defines the method parameters. Entry block only.
    Start {
        /// Parameter variables; `params[0]` is the receiver for instance
        /// methods.
        params: V,
    },
    /// `merge [φs] m`: a control-flow join, target of `jump`s.
    Merge {
        /// φ instructions joining values from the predecessors.
        phis: P,
        /// Incoming jump blocks, in φ-argument order. Back edges (loops) list
        /// blocks with a larger id than the merge itself.
        preds: B,
    },
    /// `label l`: beginning of one branch of an `if`; single predecessor.
    Label,
}

/// A block header as read through a [`BlockView`].
pub type BlockHeader<'p> = BlockBegin<&'p [VarId], Phis<'p>, &'p [BlockId]>;

/// A basic block of builder input: header, straight-line statements,
/// terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Header pseudo-instruction.
    pub begin: BlockBegin,
    /// Straight-line statements.
    pub stmts: Vec<Stmt>,
    /// Terminator.
    pub end: BlockEnd,
}

/// Debug information for one SSA variable of builder input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarData {
    /// A printable name (not necessarily unique; SSA identity is the id).
    pub name: String,
}

/// An owned SSA method body: the input form of
/// [`crate::ProgramBuilder::set_body`]. Programs store bodies pooled and
/// read them through [`BodyView`].
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
}

// ---------------------------------------------------------------------------
// Pooled storage
// ---------------------------------------------------------------------------

/// A `start..end` index range into one pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    /// The span from `start` to the current length `end` of a pool.
    pub(crate) fn between(start: usize, end: usize) -> Self {
        let index = |i: usize| u32::try_from(i).expect("body pool exceeds u32 indices");
        Span {
            start: index(start),
            end: index(end),
        }
    }

    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    pub(crate) fn len(self) -> usize {
        (self.end - self.start) as usize
    }
}

/// Where one method's body lives in the [`BodyPools`]: its block records
/// and its variable names. Statement and list ranges sit in the block
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BodySpan {
    pub(crate) blocks: Span,
    pub(crate) vars: Span,
}

/// One pooled block: the header's lists and the statements are ranges into
/// the other pools.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockRec {
    pub(crate) begin: BlockBegin<Span, Span, Span>,
    pub(crate) stmts: Span,
    pub(crate) end: BlockEnd,
}

/// The program-wide body pools (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct BodyPools {
    pub(crate) blocks: Vec<BlockRec>,
    pub(crate) stmts: Vec<Stmt<Span>>,
    pub(crate) phis: Vec<Phi<Span>>,
    /// Parameters, φ arguments and call arguments.
    pub(crate) vars: Vec<VarId>,
    /// Merge predecessor lists.
    pub(crate) preds: Vec<BlockId>,
    /// One name symbol per variable.
    pub(crate) var_names: Vec<u32>,
    /// The name of each symbol.
    pub(crate) symbols: Vec<Box<str>>,
}

impl BodyPools {
    /// The symbol of `name`, interning it through `index` on first sight.
    pub(crate) fn intern(&mut self, index: &mut HashMap<Box<str>, u32>, name: &str) -> u32 {
        if let Some(&sym) = index.get(name) {
            return sym;
        }
        let sym = u32::try_from(self.symbols.len()).expect("symbol table exceeds u32 indices");
        self.symbols.push(name.into());
        index.insert(name.into(), sym);
        sym
    }

    /// Appends `list` to the variable-list pool.
    fn push_vars(&mut self, list: &[VarId]) -> Span {
        let start = self.vars.len();
        self.vars.extend_from_slice(list);
        Span::between(start, self.vars.len())
    }

    /// Appends an owned body, interning its variable names through `index`.
    pub(crate) fn push_body(&mut self, body: Body, index: &mut HashMap<Box<str>, u32>) -> BodySpan {
        let var_start = self.var_names.len();
        for v in &body.vars {
            let sym = self.intern(index, &v.name);
            self.var_names.push(sym);
        }
        let block_start = self.blocks.len();
        for block in body.blocks {
            let begin = match block.begin {
                BlockBegin::Start { params } => BlockBegin::Start {
                    params: self.push_vars(&params),
                },
                BlockBegin::Merge { phis, preds } => {
                    let phi_start = self.phis.len();
                    for phi in phis {
                        let args = self.push_vars(&phi.args);
                        self.phis.push(Phi { def: phi.def, args });
                    }
                    let pred_start = self.preds.len();
                    self.preds.extend_from_slice(&preds);
                    BlockBegin::Merge {
                        phis: Span::between(phi_start, self.phis.len()),
                        preds: Span::between(pred_start, self.preds.len()),
                    }
                }
                BlockBegin::Label => BlockBegin::Label,
            };
            let stmt_start = self.stmts.len();
            for stmt in block.stmts {
                let stmt = stmt.map_args(|args| self.push_vars(&args));
                self.stmts.push(stmt);
            }
            self.blocks.push(BlockRec {
                begin,
                stmts: Span::between(stmt_start, self.stmts.len()),
                end: block.end,
            });
        }
        BodySpan {
            blocks: Span::between(block_start, self.blocks.len()),
            vars: Span::between(var_start, self.var_names.len()),
        }
    }

    /// Drops spare capacity, so the pools hold exactly their contents.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.blocks.shrink_to_fit();
        self.stmts.shrink_to_fit();
        self.phis.shrink_to_fit();
        self.vars.shrink_to_fit();
        self.preds.shrink_to_fit();
        self.var_names.shrink_to_fit();
        self.symbols.shrink_to_fit();
    }

    /// Bytes the pools hold on the heap: their capacities plus the symbol
    /// strings.
    pub(crate) fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        cap(&self.blocks)
            + cap(&self.stmts)
            + cap(&self.phis)
            + cap(&self.vars)
            + cap(&self.preds)
            + cap(&self.var_names)
            + cap(&self.symbols)
            + self.symbols.iter().map(|s| s.len()).sum::<usize>()
    }

    /// The view of the body at `span`.
    pub(crate) fn view(&self, span: BodySpan) -> BodyView<'_> {
        BodyView { pools: self, span }
    }
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// A method body as stored in a [`crate::Program`]: a `Copy` handle that
/// reads blocks, statements and variable names out of the program's pools.
#[derive(Clone, Copy)]
pub struct BodyView<'p> {
    pools: &'p BodyPools,
    span: BodySpan,
}

impl std::fmt::Debug for BodyView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BodyView")
            .field("blocks", &self.block_count())
            .field("vars", &self.var_count())
            .finish()
    }
}

impl<'p> BodyView<'p> {
    /// The formal parameters declared by the entry block's `start`.
    ///
    /// # Panics
    ///
    /// Panics if the entry block does not begin with `start` (validation
    /// rejects such bodies).
    pub fn params(self) -> &'p [VarId] {
        match self.block(BlockId::ENTRY).begin() {
            BlockBegin::Start { params } => params,
            _ => panic!("entry block must begin with start"),
        }
    }

    /// Returns the block with the given id.
    pub fn block(self, id: BlockId) -> BlockView<'p> {
        let recs = &self.pools.blocks[self.span.blocks.range()];
        BlockView {
            pools: self.pools,
            rec: &recs[id.index()],
        }
    }

    /// Number of blocks.
    pub fn block_count(self) -> usize {
        self.span.blocks.len()
    }

    /// Number of variables.
    pub fn var_count(self) -> usize {
        self.span.vars.len()
    }

    /// The printable name of variable `v` (not necessarily unique).
    pub fn var_name(self, v: VarId) -> &'p str {
        let sym = self.pools.var_names[self.span.vars.range()][v.index()];
        &self.pools.symbols[sym as usize]
    }

    /// Iterates over `(BlockId, BlockView)` pairs in id order.
    pub fn iter_blocks(self) -> impl Iterator<Item = (BlockId, BlockView<'p>)> {
        let pools = self.pools;
        pools.blocks[self.span.blocks.range()]
            .iter()
            .enumerate()
            .map(move |(i, rec)| (BlockId::from_index(i), BlockView { pools, rec }))
    }

    /// Total number of statements plus block terminators — the "instruction
    /// count" used by the binary-size proxy.
    pub fn instruction_count(self) -> usize {
        self.iter_blocks().map(|(_, b)| b.stmt_count() + 1).sum()
    }

    /// Computes the predecessor lists of all blocks from the terminators.
    pub fn predecessors(self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.block_count()];
        for (id, block) in self.iter_blocks() {
            for succ in block.end().successors() {
                preds[succ.index()].push(id);
            }
        }
        preds
    }

    /// Computes a reverse postorder over the CFG starting from the entry
    /// block. Unreachable blocks are appended at the end in id order so every
    /// block receives a position (the PVPG builder still creates flows for
    /// them; they simply stay disabled).
    pub fn reverse_postorder(self) -> Vec<BlockId> {
        let mut order = Vec::with_capacity(self.block_count());
        self.reverse_postorder_into(&mut order, &mut Vec::new(), &mut Vec::new());
        order
    }

    /// [`BodyView::reverse_postorder`] into caller-owned buffers: `order`
    /// receives the result, `visited` and `stack` are traversal scratch.
    /// All three are cleared first, so a caller walking many bodies reuses
    /// their capacity instead of allocating per body.
    pub fn reverse_postorder_into(
        self,
        order: &mut Vec<BlockId>,
        visited: &mut Vec<bool>,
        stack: &mut Vec<(BlockId, usize)>,
    ) {
        let n = self.block_count();
        order.clear();
        visited.clear();
        visited.resize(n, false);
        stack.clear();
        // Iterative DFS to avoid recursion depth limits on deep CFGs;
        // `order` collects the postorder, reversed below.
        stack.push((BlockId::ENTRY, 0));
        visited[BlockId::ENTRY.index()] = true;
        while let Some((block, child)) = stack.pop() {
            if let Some(s) = self.block(block).end().successors().nth(child) {
                stack.push((block, child + 1));
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(block);
            }
        }
        order.reverse();
        for (i, seen) in visited.iter().enumerate() {
            if !seen {
                order.push(BlockId::from_index(i));
            }
        }
    }

    /// All variables defined in the body, in definition order: parameters,
    /// then φs and statement defs in block order.
    pub fn definitions(self) -> impl Iterator<Item = VarId> + 'p {
        self.iter_blocks().flat_map(|(_, b)| b.defs())
    }
}

/// One block of a [`BodyView`].
#[derive(Clone, Copy)]
pub struct BlockView<'p> {
    pools: &'p BodyPools,
    rec: &'p BlockRec,
}

impl std::fmt::Debug for BlockView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockView")
            .field("begin", &self.begin())
            .field("stmts", &self.stmts().collect::<Vec<_>>())
            .field("end", &self.end())
            .finish()
    }
}

impl<'p> BlockView<'p> {
    /// The header pseudo-instruction.
    pub fn begin(self) -> BlockHeader<'p> {
        let pools = self.pools;
        match self.rec.begin {
            BlockBegin::Start { params } => BlockBegin::Start {
                params: &pools.vars[params.range()],
            },
            BlockBegin::Merge { phis, preds } => BlockBegin::Merge {
                phis: Phis {
                    recs: &pools.phis[phis.range()],
                    vars: &pools.vars,
                },
                preds: &pools.preds[preds.range()],
            },
            BlockBegin::Label => BlockBegin::Label,
        }
    }

    /// The straight-line statements, in order.
    pub fn stmts(self) -> impl ExactSizeIterator<Item = Stmt<&'p [VarId]>> + Clone + 'p {
        let vars = &self.pools.vars;
        self.pools.stmts[self.rec.stmts.range()]
            .iter()
            .map(move |s| s.map_args(|args| &vars[args.range()]))
    }

    /// Number of statements.
    pub fn stmt_count(self) -> usize {
        self.rec.stmts.len()
    }

    /// The terminator.
    pub fn end(self) -> BlockEnd {
        self.rec.end
    }

    /// The variables the header defines: the parameters of a `start` or the
    /// φ defs of a `merge`.
    pub(crate) fn header_defs(self) -> impl Iterator<Item = VarId> + 'p {
        let (params, phis): (&[VarId], &[Phi<Span>]) = match self.begin() {
            BlockBegin::Start { params } => (params, &[]),
            BlockBegin::Merge { phis, .. } => (&[], phis.recs),
            BlockBegin::Label => (&[], &[]),
        };
        params.iter().copied().chain(phis.iter().map(|p| p.def))
    }

    /// The variables the block defines: header defs, then statement defs
    /// in statement order.
    pub(crate) fn defs(self) -> impl Iterator<Item = VarId> + 'p {
        self.header_defs()
            .chain(self.stmts().filter_map(|s| s.def()))
    }
}

/// The φs of a merge header, read through a [`BlockView`].
#[derive(Clone, Copy)]
pub struct Phis<'p> {
    recs: &'p [Phi<Span>],
    vars: &'p [VarId],
}

impl std::fmt::Debug for Phis<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'p> Phis<'p> {
    /// Number of φs.
    pub fn len(self) -> usize {
        self.recs.len()
    }

    /// Returns `true` if the merge has no φs.
    pub fn is_empty(self) -> bool {
        self.recs.is_empty()
    }

    /// The `i`-th φ.
    pub fn get(self, i: usize) -> Phi<&'p [VarId]> {
        let p = self.recs[i];
        Phi {
            def: p.def,
            args: &self.vars[p.args.range()],
        }
    }

    /// Iterates over the φs in order.
    pub fn iter(self) -> PhiIter<'p> {
        PhiIter {
            phis: self,
            next: 0,
        }
    }
}

impl<'p> IntoIterator for Phis<'p> {
    type Item = Phi<&'p [VarId]>;
    type IntoIter = PhiIter<'p>;

    fn into_iter(self) -> PhiIter<'p> {
        self.iter()
    }
}

/// The iterator of [`Phis::iter`].
#[derive(Clone, Debug)]
pub struct PhiIter<'p> {
    phis: Phis<'p>,
    next: usize,
}

impl<'p> Iterator for PhiIter<'p> {
    type Item = Phi<&'p [VarId]>;

    fn next(&mut self) -> Option<Self::Item> {
        (self.next < self.phis.len()).then(|| {
            self.next += 1;
            self.phis.get(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.phis.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PhiIter<'_> {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instr::{Cond, Expr};
    use crate::TypeId;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }
    fn b(i: usize) -> BlockId {
        BlockId::from_index(i)
    }

    /// Pools holding just `body`, and its span.
    pub(crate) fn pooled(body: Body) -> (BodyPools, BodySpan) {
        let mut pools = BodyPools::default();
        let span = pools.push_body(body, &mut HashMap::new());
        (pools, span)
    }

    /// An owned copy of a pooled body.
    fn owned(view: BodyView<'_>) -> Body {
        let blocks = view
            .iter_blocks()
            .map(|(_, b)| Block {
                begin: match b.begin() {
                    BlockBegin::Start { params } => BlockBegin::Start {
                        params: params.to_vec(),
                    },
                    BlockBegin::Merge { phis, preds } => BlockBegin::Merge {
                        phis: phis
                            .iter()
                            .map(|p| Phi {
                                def: p.def,
                                args: p.args.to_vec(),
                            })
                            .collect(),
                        preds: preds.to_vec(),
                    },
                    BlockBegin::Label => BlockBegin::Label,
                },
                stmts: b.stmts().map(|s| s.map_args(<[VarId]>::to_vec)).collect(),
                end: b.end(),
            })
            .collect();
        let vars = (0..view.var_count())
            .map(|i| VarData {
                name: view.var_name(VarId::from_index(i)).to_owned(),
            })
            .collect();
        Body { blocks, vars }
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
        let (pools, span) = pooled(diamond());
        assert_eq!(pools.view(span).params(), &[v(0)]);
    }

    #[test]
    fn predecessors_of_diamond() {
        let (pools, span) = pooled(diamond());
        let preds = pools.view(span).predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![b(0)]);
        assert_eq!(preds[2], vec![b(0)]);
        assert_eq!(preds[3], vec![b(1), b(2)]);
    }

    #[test]
    fn rpo_visits_entry_first_and_merge_last() {
        let (pools, span) = pooled(diamond());
        let rpo = pools.view(span).reverse_postorder();
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
        let (pools, span) = pooled(body);
        let rpo = pools.view(span).reverse_postorder();
        assert_eq!(rpo.len(), 5);
        assert_eq!(*rpo.last().unwrap(), b(4));
    }

    #[test]
    fn rpo_into_reused_buffers_matches_a_fresh_walk() {
        let mut small = diamond();
        small.blocks.truncate(1);
        small.blocks[0].end = BlockEnd::Return(None);
        let mut pools = BodyPools::default();
        let mut index = HashMap::new();
        let spans = [
            pools.push_body(diamond(), &mut index),
            pools.push_body(small, &mut index),
        ];
        let (mut order, mut visited, mut stack) = (Vec::new(), Vec::new(), Vec::new());
        // Larger body first, so the smaller walk starts from dirty buffers.
        for span in spans {
            let body = pools.view(span);
            body.reverse_postorder_into(&mut order, &mut visited, &mut stack);
            assert_eq!(order, body.reverse_postorder());
        }
        assert_eq!(order, vec![b(0)]);
    }

    #[test]
    fn definitions_include_params_and_phis() {
        let mut body = diamond();
        body.blocks[1].stmts.push(Stmt::Assign {
            def: v(2),
            expr: Expr::Const(1),
        });
        let (pools, span) = pooled(body);
        let defs: Vec<_> = pools.view(span).definitions().collect();
        assert_eq!(defs, vec![v(0), v(2), v(1)]);
    }

    #[test]
    fn instruction_count_counts_terminators() {
        let (pools, span) = pooled(diamond());
        assert_eq!(pools.view(span).instruction_count(), 4);
    }

    #[test]
    fn pooled_bodies_read_back_as_pushed() {
        let mut body = diamond();
        body.vars[0].name = "this".into();
        body.vars[1].name = "x".into();
        body.blocks[1].stmts.push(Stmt::Invoke {
            def: v(1),
            receiver: v(0),
            selector: crate::SelectorId::from_index(0),
            args: vec![v(0), v(1)],
        });
        let mut pools = BodyPools::default();
        let mut index = HashMap::new();
        // A second body shares the pools and the name symbols.
        let first = pools.push_body(body.clone(), &mut index);
        let second = pools.push_body(body.clone(), &mut index);
        assert_eq!(pools.symbols.len(), 2);
        for span in [first, second] {
            let view = pools.view(span);
            assert_eq!(owned(view), body);
            assert_eq!(view.var_name(v(1)), "x");
            match view.block(b(3)).begin() {
                BlockBegin::Merge { phis, preds } => {
                    assert_eq!(preds, &[b(1), b(2)]);
                    assert_eq!(phis.get(0).args, &[v(0), v(0)]);
                }
                other => panic!("expected merge, got {other:?}"),
            }
        }
    }
}
