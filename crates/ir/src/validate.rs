//! Whole-program validation: block discipline, SSA invariants, and
//! declaration consistency.
//!
//! The checks enforce the base-language constraints of Appendix B.1:
//! `jump` targets are merges, `if` targets are labels with a single
//! predecessor, the CFG is critical-edge free (implied by the previous two),
//! every use is dominated by its definition, and every variable has exactly
//! one definition.
//!
//! The per-method checks run over one scratch area reused from method to
//! method, so validation allocates only while the scratch grows to the
//! largest body and for the errors it reports (an error's `Owner.name`
//! label is formatted only when the error is pushed). Each method's
//! predecessors are computed once, as a CSR (compressed sparse row) array.
//! The definite-assignment sets are flat rows of `u64` words, one row per
//! block, and each block's defs are walked in place from its header and
//! statements.

use crate::body::{BlockBegin, BodyView};
use crate::ids::{BlockId, MethodId, TypeId, VarId};
use crate::instr::{BlockEnd, Cond, Expr, Stmt};
use crate::program::Program;
use crate::types::{TypeKind, TypeRef};
use std::fmt;

/// A single validation failure. The `method` field holds a human-readable
/// `Owner.name` label where applicable.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ValidationError {
    /// The entry block of a body does not begin with `start`.
    EntryNotStart { method: String },
    /// A non-entry block begins with `start`.
    MisplacedStart { method: String, block: BlockId },
    /// The entry block has incoming edges.
    EntryHasPredecessors { method: String },
    /// A `jump` targets a block that is not a merge.
    JumpToNonMerge { method: String, from: BlockId, to: BlockId },
    /// An `if` successor is not a label block.
    IfToNonLabel { method: String, from: BlockId, to: BlockId },
    /// A label block has a predecessor count other than one.
    LabelPredCount { method: String, block: BlockId, count: usize },
    /// A label block's predecessor does not end with `if`.
    LabelPredNotIf { method: String, block: BlockId },
    /// A merge block's declared predecessor list disagrees with the CFG.
    MergePredMismatch { method: String, block: BlockId },
    /// A φ has a different argument count than the merge has predecessors.
    PhiArgCount { method: String, block: BlockId, phi_index: usize },
    /// A variable has more than one definition.
    DuplicateDefinition { method: String, var: VarId },
    /// A use is not dominated by its definition (or the variable is never
    /// defined).
    UseBeforeDef { method: String, block: BlockId, var: VarId },
    /// `return` arity disagrees with the declared return type.
    BadReturnArity { method: String, block: BlockId },
    /// `new T` on a non-instantiable type (interface / abstract / null).
    NewNotInstantiable { method: String, ty: TypeId },
    /// `instanceof null` or `catch null`.
    NullTypeTest { method: String },
    /// A virtual invoke's argument count disagrees with the selector arity.
    InvokeArityMismatch { method: String, block: BlockId },
    /// A static invoke targets an instance or abstract method, or the
    /// argument count disagrees.
    BadStaticInvoke { method: String, block: BlockId },
    /// An abstract method has a body.
    AbstractWithBody { method: String },
    /// A concrete method has no body.
    MissingBody { method: String },
    /// A static method is marked abstract.
    StaticAbstract { method: String },
    /// A body's parameter count disagrees with the declared signature.
    BodyParamMismatch { method: String },
    /// A superclass reference is not a class, or not declared earlier.
    BadSuperclass { ty: String },
    /// An entry in an `interfaces` list is not an interface.
    NotAnInterface { ty: String },
    /// An interface declares an instance field.
    InterfaceInstanceField { field: String },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidationError::*;
        match self {
            EntryNotStart { method } => write!(f, "{method}: entry block must begin with start"),
            MisplacedStart { method, block } => {
                write!(f, "{method}: non-entry block {block} begins with start")
            }
            EntryHasPredecessors { method } => {
                write!(f, "{method}: entry block has incoming edges")
            }
            JumpToNonMerge { method, from, to } => {
                write!(f, "{method}: jump {from} -> {to} targets a non-merge block")
            }
            IfToNonLabel { method, from, to } => {
                write!(f, "{method}: if {from} -> {to} targets a non-label block")
            }
            LabelPredCount { method, block, count } => {
                write!(f, "{method}: label block {block} has {count} predecessors (expected 1)")
            }
            LabelPredNotIf { method, block } => {
                write!(f, "{method}: label block {block}'s predecessor does not end with if")
            }
            MergePredMismatch { method, block } => {
                write!(f, "{method}: merge block {block} predecessor list disagrees with the CFG")
            }
            PhiArgCount { method, block, phi_index } => {
                write!(f, "{method}: φ #{phi_index} in {block} has the wrong argument count")
            }
            DuplicateDefinition { method, var } => {
                write!(f, "{method}: variable {var} has multiple definitions")
            }
            UseBeforeDef { method, block, var } => {
                write!(f, "{method}: use of {var} in {block} is not dominated by a definition")
            }
            BadReturnArity { method, block } => {
                write!(f, "{method}: return arity in {block} disagrees with the signature")
            }
            NewNotInstantiable { method, ty } => {
                write!(f, "{method}: new of non-instantiable type {ty}")
            }
            NullTypeTest { method } => write!(f, "{method}: type test against the null pseudo-type"),
            InvokeArityMismatch { method, block } => {
                write!(f, "{method}: invoke argument count disagrees with selector arity in {block}")
            }
            BadStaticInvoke { method, block } => {
                write!(f, "{method}: malformed static invoke in {block}")
            }
            AbstractWithBody { method } => write!(f, "{method}: abstract method has a body"),
            MissingBody { method } => write!(f, "{method}: concrete method has no body"),
            StaticAbstract { method } => write!(f, "{method}: static method marked abstract"),
            BodyParamMismatch { method } => {
                write!(f, "{method}: body parameter count disagrees with the signature")
            }
            BadSuperclass { ty } => write!(f, "type {ty}: malformed superclass reference"),
            NotAnInterface { ty } => write!(f, "type {ty}: implements a non-interface"),
            InterfaceInstanceField { field } => {
                write!(f, "field {field}: interfaces cannot declare instance fields")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates an entire program; returns all failures found.
pub fn validate_program(program: &Program) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    validate_hierarchy(program, &mut errors);
    let mut scratch = Scratch::default();
    for m in program.iter_methods() {
        validate_method(program, m, &mut scratch, &mut errors);
    }
    errors
}

/// Working storage of the per-method checks, reused from one method to the
/// next: each buffer is cleared and resized, never freed, so it grows to
/// the largest body seen and then stops allocating.
#[derive(Default)]
struct Scratch {
    /// The CFG's predecessor lists.
    preds: Preds,
    /// The definite-assignment rows.
    rows: Rows,
    /// Per variable: a definition has been seen (unique-definition check).
    seen: Vec<bool>,
    /// Per variable: `b + 1` once a statement of block `b` is found to
    /// define it (see the final pass of [`validate_ssa`]).
    stmt_def_in: Vec<usize>,
    /// A merge's declared predecessor list, sorted for comparison.
    sorted: Vec<BlockId>,
}

/// Predecessor lists as a CSR (compressed sparse row) array: the
/// predecessors of block `b` are `list[start[b]..start[b + 1]]`.
///
/// Rows list the same blocks in the same order as
/// [`BodyView::predecessors`]: by source block id, then successor position, so
/// each row is sorted. Successors outside the body are left out;
/// [`validate_cfg`] reports them.
#[derive(Default)]
struct Preds {
    start: Vec<usize>,
    list: Vec<BlockId>,
    /// Next free slot of each row while `list` is filled.
    fill: Vec<usize>,
}

impl Preds {
    fn compute(&mut self, body: BodyView<'_>) {
        let n = body.block_count();
        let in_body = |s: &BlockId| s.index() < n;
        self.start.clear();
        self.start.resize(n + 1, 0);
        for (_, block) in body.iter_blocks() {
            for s in block.end().successors().filter(in_body) {
                self.start[s.index() + 1] += 1;
            }
        }
        for i in 0..n {
            self.start[i + 1] += self.start[i];
        }
        self.list.clear();
        self.list.resize(self.start[n], BlockId::ENTRY);
        self.fill.clear();
        self.fill.extend_from_slice(&self.start[..n]);
        for (id, block) in body.iter_blocks() {
            for s in block.end().successors().filter(in_body) {
                let slot = &mut self.fill[s.index()];
                self.list[*slot] = id;
                *slot += 1;
            }
        }
    }

    fn of(&self, b: BlockId) -> &[BlockId] {
        &self.list[self.start[b.index()]..self.start[b.index() + 1]]
    }
}

/// Definite-assignment sets as flat word rows: `words` `u64`s per row, bit
/// `v` set when variable `v` is definitely assigned. `out` holds every
/// block's `OUT` set, block `b` at `out[b * words..(b + 1) * words]`; `row`
/// is the one `IN` (then live) set being computed. Bits at or above the
/// variable count are never set.
#[derive(Default)]
struct Rows {
    words: usize,
    /// The bits of the last word that name variables.
    last_mask: u64,
    out: Vec<u64>,
    row: Vec<u64>,
}

impl Rows {
    /// Sizes the rows for `n_vars` variables and sets every `OUT` row to
    /// the universe (the optimistic start of a greatest fixpoint).
    fn reset(&mut self, n_vars: usize, n_blocks: usize) {
        self.words = n_vars.div_ceil(64);
        self.last_mask = match n_vars % 64 {
            0 => u64::MAX,
            r => (1 << r) - 1,
        };
        self.row.clear();
        self.row.resize(self.words, 0);
        self.out.clear();
        self.out.resize(self.words * n_blocks, 0);
        if self.words > 0 {
            for row in self.out.chunks_exact_mut(self.words) {
                fill_universe(row, self.last_mask);
            }
        }
    }

    fn out(&self, b: BlockId) -> &[u64] {
        &self.out[b.index() * self.words..(b.index() + 1) * self.words]
    }

    /// Sets `row` to `IN[b]`: empty at the entry, the universe for a block
    /// without predecessors (unreachable, so its uses are vacuous), else
    /// the intersection of the predecessors' `OUT` rows.
    fn flow_in(&mut self, b: BlockId, preds: &[BlockId]) {
        let words = self.words;
        if b == BlockId::ENTRY {
            self.row.fill(0);
            return;
        }
        match preds.split_first() {
            None => fill_universe(&mut self.row, self.last_mask),
            Some((first, rest)) => {
                let at = first.index() * words;
                self.row.copy_from_slice(&self.out[at..at + words]);
                for p in rest {
                    let at = p.index() * words;
                    for (w, o) in self.row.iter_mut().zip(&self.out[at..at + words]) {
                        *w &= o;
                    }
                }
            }
        }
    }

    /// Stores `row` as `OUT[b]`; returns whether it changed.
    fn commit(&mut self, b: BlockId) -> bool {
        let at = b.index() * self.words;
        let out = &mut self.out[at..at + self.words];
        let changed = out != self.row.as_slice();
        if changed {
            out.copy_from_slice(&self.row);
        }
        changed
    }
}

/// Sets every bit that names a variable.
fn fill_universe(row: &mut [u64], last_mask: u64) {
    row.fill(u64::MAX);
    if let Some(last) = row.last_mut() {
        *last = last_mask;
    }
}

/// Whether bit `v` is set; `false` for variables outside the row.
fn has(row: &[u64], v: VarId) -> bool {
    row.get(v.index() / 64)
        .is_some_and(|w| w >> (v.index() % 64) & 1 != 0)
}

/// Sets bit `v`, which must name a variable of the body.
fn set(row: &mut [u64], v: VarId) {
    row[v.index() / 64] |= 1 << (v.index() % 64);
}

fn validate_hierarchy(program: &Program, errors: &mut Vec<ValidationError>) {
    for t in program.iter_types() {
        if t.is_null() {
            continue;
        }
        let td = program.type_data(t);
        if let Some(sup) = td.superclass {
            let ok = !sup.is_null()
                && sup.index() < t.index()
                && matches!(
                    program.type_data(sup).kind,
                    TypeKind::Class | TypeKind::AbstractClass
                );
            if !ok {
                errors.push(ValidationError::BadSuperclass { ty: td.name.clone() });
            }
        }
        for &i in &td.interfaces {
            if i.is_null()
                || i.index() >= t.index()
                || program.type_data(i).kind != TypeKind::Interface
            {
                errors.push(ValidationError::NotAnInterface { ty: td.name.clone() });
            }
        }
        if td.kind == TypeKind::Interface {
            for &fid in td.declared_fields() {
                if !program.field(fid).is_static {
                    errors.push(ValidationError::InterfaceInstanceField {
                        field: program.field(fid).name.clone(),
                    });
                }
            }
        }
    }
}

fn validate_method(
    program: &Program,
    m: MethodId,
    scratch: &mut Scratch,
    errors: &mut Vec<ValidationError>,
) {
    let md = program.method(m);
    // The `Owner.name` label is formatted only for an error.
    let label = || program.method_label(m);
    if md.is_static && md.is_abstract {
        errors.push(ValidationError::StaticAbstract { method: label() });
    }
    match (md.has_body(), md.is_abstract) {
        (true, true) => {
            errors.push(ValidationError::AbstractWithBody { method: label() });
        }
        (false, false) => {
            errors.push(ValidationError::MissingBody { method: label() });
        }
        _ => {}
    }
    let Some(body) = program.body(m) else { return };

    // Entry-block discipline.
    match body.block(BlockId::ENTRY).begin() {
        BlockBegin::Start { params } => {
            if params.len() != md.param_count() {
                errors.push(ValidationError::BodyParamMismatch { method: label() });
            }
        }
        _ => errors.push(ValidationError::EntryNotStart { method: label() }),
    }
    for (id, block) in body.iter_blocks().skip(1) {
        if matches!(block.begin(), BlockBegin::Start { .. }) {
            errors.push(ValidationError::MisplacedStart {
                method: label(),
                block: id,
            });
        }
    }

    scratch.preds.compute(body);
    validate_cfg(body, scratch, &label, errors);
    validate_ssa(md.sig.ret, body, scratch, &label, errors);
    validate_instructions(program, body, &label, errors);
}

fn validate_cfg(
    body: BodyView<'_>,
    scratch: &mut Scratch,
    label: &dyn Fn() -> String,
    errors: &mut Vec<ValidationError>,
) {
    let preds = &scratch.preds;
    if !preds.of(BlockId::ENTRY).is_empty() {
        errors.push(ValidationError::EntryHasPredecessors { method: label() });
    }
    for (id, block) in body.iter_blocks() {
        match block.end() {
            BlockEnd::Jump(t) => {
                if t.index() >= body.block_count()
                    || !matches!(body.block(t).begin(), BlockBegin::Merge { .. })
                {
                    errors.push(ValidationError::JumpToNonMerge {
                        method: label(),
                        from: id,
                        to: t,
                    });
                }
            }
            BlockEnd::If {
                then_block,
                else_block,
                ..
            } => {
                for t in [then_block, else_block] {
                    if t.index() >= body.block_count()
                        || !matches!(body.block(t).begin(), BlockBegin::Label)
                    {
                        errors.push(ValidationError::IfToNonLabel {
                            method: label(),
                            from: id,
                            to: t,
                        });
                    }
                }
            }
            BlockEnd::Return(_) | BlockEnd::Throw(_) => {}
        }
        match block.begin() {
            BlockBegin::Label => {
                let ps = preds.of(id);
                if ps.len() != 1 {
                    errors.push(ValidationError::LabelPredCount {
                        method: label(),
                        block: id,
                        count: ps.len(),
                    });
                } else if !matches!(body.block(ps[0]).end(), BlockEnd::If { .. }) {
                    errors.push(ValidationError::LabelPredNotIf {
                        method: label(),
                        block: id,
                    });
                }
            }
            BlockBegin::Merge { phis, preds: declared } => {
                // CSR rows are already sorted.
                let listed = &mut scratch.sorted;
                listed.clear();
                listed.extend_from_slice(declared);
                listed.sort_unstable();
                if preds.of(id) != listed.as_slice() {
                    errors.push(ValidationError::MergePredMismatch {
                        method: label(),
                        block: id,
                    });
                }
                for (i, phi) in phis.iter().enumerate() {
                    if phi.args.len() != declared.len() {
                        errors.push(ValidationError::PhiArgCount {
                            method: label(),
                            block: id,
                            phi_index: i,
                        });
                    }
                }
            }
            BlockBegin::Start { .. } => {}
        }
    }
}

/// Definite-assignment dataflow: `OUT[b] = IN[b] ∪ defs(b)`,
/// `IN[b] = ∩ preds OUT[p]` (optimistic initialization with the universe,
/// iterated to the greatest fixpoint). Equivalent to checking that every use
/// is dominated by its definition.
///
/// The sets are [`Rows`] over [`Scratch::preds`]; defs are walked in place
/// from the blocks.
fn validate_ssa(
    ret: TypeRef,
    body: BodyView<'_>,
    scratch: &mut Scratch,
    label: &dyn Fn() -> String,
    errors: &mut Vec<ValidationError>,
) {
    let n_vars = body.var_count();
    let n_blocks = body.block_count();
    let Scratch { preds, rows, seen, stmt_def_in, .. } = scratch;

    // Unique definitions.
    seen.clear();
    seen.resize(n_vars, false);
    for def in body.definitions() {
        if def.index() >= n_vars || seen[def.index()] {
            errors.push(ValidationError::DuplicateDefinition {
                method: label(),
                var: def,
            });
        } else {
            seen[def.index()] = true;
        }
    }

    rows.reset(n_vars, n_blocks);
    // Iterate to fixpoint (sets only shrink).
    loop {
        let mut changed = false;
        for (id, block) in body.iter_blocks() {
            rows.flow_in(id, preds.of(id));
            for def in block.defs() {
                if def.index() < n_vars {
                    set(&mut rows.row, def);
                }
            }
            changed |= rows.commit(id);
        }
        if !changed {
            break;
        }
    }

    // Final pass: check each use against the flow-in set at its position.
    stmt_def_in.clear();
    stmt_def_in.resize(n_vars, 0);
    for (id, block) in body.iter_blocks() {
        rows.flow_in(id, preds.of(id));
        // φ arguments are checked against the corresponding predecessor.
        if let BlockBegin::Merge { phis, preds: declared } = block.begin() {
            for phi in phis {
                for (arg, p) in phi.args.iter().zip(declared) {
                    if p.index() < n_blocks && !has(rows.out(*p), *arg) {
                        errors.push(ValidationError::UseBeforeDef {
                            method: label(),
                            block: id,
                            var: *arg,
                        });
                    }
                }
            }
        }
        // Header defs are visible before the statements run, except one
        // that a statement of this block also defines: that one becomes
        // visible at the statement.
        for d in block.stmts().filter_map(|s| s.def()) {
            if d.index() < n_vars {
                stmt_def_in[d.index()] = id.index() + 1;
            }
        }
        for d in block.header_defs() {
            if d.index() < n_vars && stmt_def_in[d.index()] != id.index() + 1 {
                set(&mut rows.row, d);
            }
        }
        let live = &mut rows.row;
        let mut check = |v: VarId, live: &[u64]| {
            if !has(live, v) {
                errors.push(ValidationError::UseBeforeDef {
                    method: label(),
                    block: id,
                    var: v,
                });
            }
        };
        for stmt in block.stmts() {
            for u in stmt.uses() {
                check(u, live);
            }
            if let Some(d) = stmt.def().filter(|d| d.index() < n_vars) {
                set(live, d);
            }
        }
        for u in block.end().uses() {
            check(u, live);
        }
        // Return arity.
        if let BlockEnd::Return(v) = block.end() {
            let ok = match ret {
                TypeRef::Void => v.is_none(),
                _ => v.is_some(),
            };
            if !ok {
                errors.push(ValidationError::BadReturnArity {
                    method: label(),
                    block: id,
                });
            }
        }
    }
}

fn validate_instructions(
    program: &Program,
    body: BodyView<'_>,
    label: &dyn Fn() -> String,
    errors: &mut Vec<ValidationError>,
) {
    for (id, block) in body.iter_blocks() {
        for stmt in block.stmts() {
            match stmt {
                Stmt::Assign { expr: Expr::New(t), .. }
                    if !program.is_instantiable(t) => {
                        errors.push(ValidationError::NewNotInstantiable {
                            method: label(),
                            ty: t,
                        });
                    }
                Stmt::Invoke { selector, args, .. }
                    if program.selector(selector).arity != args.len() => {
                        errors.push(ValidationError::InvokeArityMismatch {
                            method: label(),
                            block: id,
                        });
                    }
                Stmt::InvokeStatic { target, args, .. } => {
                    let td = program.method(target);
                    if !td.is_static || td.is_abstract || td.sig.params.len() != args.len() {
                        errors.push(ValidationError::BadStaticInvoke {
                            method: label(),
                            block: id,
                        });
                    }
                }
                Stmt::Catch { ty, .. }
                    if ty.is_null() => {
                        errors.push(ValidationError::NullTypeTest { method: label() });
                    }
                _ => {}
            }
        }
        if let BlockEnd::If { cond: Cond::InstanceOf { ty, .. }, .. } = block.end() {
            if ty.is_null() {
                errors.push(ValidationError::NullTypeTest { method: label() });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, BranchExit, ProgramBuilder};
    use crate::instr::CmpOp;

    fn one_method_program(body_f: impl FnOnce(&mut BodyBuilder)) -> Result<Program, crate::builder::ValidationErrors> {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb.method(a, "run").static_().returns(TypeRef::Prim).build();
        let mut bb = BodyBuilder::new(&[]);
        body_f(&mut bb);
        pb.set_body(m, bb.finish());
        pb.finish()
    }

    #[test]
    fn accepts_well_formed_diamond() {
        let result = one_method_program(|bb| {
            let zero = bb.const_(0);
            let x = bb.any_prim();
            let j = bb.if_else(
                Cond::Cmp { op: CmpOp::Lt, lhs: x, rhs: zero },
                |bb| BranchExit::value(bb.const_(1)),
                |bb| BranchExit::value(bb.const_(2)),
            );
            bb.ret(Some(j[0]));
        });
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn accepts_loops() {
        let result = one_method_program(|bb| {
            let zero = bb.const_(0);
            let hundred = bb.const_(100);
            let after = bb.while_loop(
                &[zero],
                |_, p| Cond::Cmp { op: CmpOp::Lt, lhs: p[0], rhs: hundred },
                |bb, _| BranchExit::Values(vec![bb.any_prim()]),
            );
            bb.ret(Some(after[0]));
        });
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn rejects_use_before_def_across_branches() {
        // Define x only in the then-branch, use it after the merge.
        let result = one_method_program(|bb| {
            let zero = bb.const_(0);
            let c = bb.any_prim();
            let mut leaked = None;
            bb.if_else(
                Cond::Cmp { op: CmpOp::Eq, lhs: c, rhs: zero },
                |bb| {
                    leaked = Some(bb.const_(7));
                    BranchExit::fallthrough()
                },
                |_| BranchExit::fallthrough(),
            );
            bb.ret(Some(leaked.unwrap()));
        });
        let errs = result.expect_err("must be rejected").0;
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::UseBeforeDef { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_duplicate_definition() {
        let result = one_method_program(|bb| {
            let x = bb.const_(1);
            // Manually emit a second definition of the same var.
            bb.push_stmt(Stmt::Assign { def: x, expr: Expr::Const(2) });
            bb.ret(Some(x));
        });
        let errs = result.expect_err("must be rejected").0;
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::DuplicateDefinition { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_new_of_abstract_class() {
        let mut pb = ProgramBuilder::new();
        let a = pb.class("Abstract").abstract_().build();
        let host = pb.add_class("Host");
        let m = pb.method(host, "run").static_().returns(TypeRef::Void).build();
        let mut bb = BodyBuilder::new(&[]);
        let _ = bb.new_obj(a);
        bb.ret(None);
        pb.set_body(m, bb.finish());
        let errs = pb.finish().expect_err("must be rejected").0;
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::NewNotInstantiable { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_missing_body() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        pb.method(a, "m").returns(TypeRef::Void).build();
        let errs = pb.finish().expect_err("must be rejected").0;
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::MissingBody { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_return_arity_mismatch() {
        let result = one_method_program(|bb| {
            bb.ret(None); // method declared to return Prim
        });
        let errs = result.expect_err("must be rejected").0;
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::BadReturnArity { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_wrong_invoke_arity() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let callee = pb.method(a, "f").params(vec![TypeRef::Prim]).returns(TypeRef::Void).build();
        pb.set_trivial_body(callee, None);
        let sel_wrong = pb.selector("f", 1);
        let m = pb.method(a, "run").returns(TypeRef::Void).build();
        pb.build_body(m, |bb| {
            let this = bb.param(0);
            let def = bb.raw_var("r");
            // Pass zero args to an arity-1 selector.
            bb.push_stmt(Stmt::Invoke {
                def,
                receiver: this,
                selector: sel_wrong,
                args: vec![],
            });
            bb.ret(None);
        });
        let errs = pb.finish().expect_err("must be rejected").0;
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::InvokeArityMismatch { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_interface_instance_field() {
        let mut pb = ProgramBuilder::new();
        let i = pb.add_interface("I", &[]);
        pb.add_field(i, "x", TypeRef::Prim);
        let errs = pb.finish().expect_err("must be rejected").0;
        assert!(
            errs.iter().any(|e| matches!(e, ValidationError::InterfaceInstanceField { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_instanceof_null() {
        let result = one_method_program(|bb| {
            let x = bb.null_();
            let j = bb.if_else(
                Cond::InstanceOf { var: x, ty: TypeId::NULL, negated: false },
                |bb| BranchExit::value(bb.const_(1)),
                |bb| BranchExit::value(bb.const_(0)),
            );
            bb.ret(Some(j[0]));
        });
        let errs = result.expect_err("must be rejected").0;
        assert!(errs.iter().any(|e| matches!(e, ValidationError::NullTypeTest { .. })), "{errs:?}");
    }

    // ---- exact output, one test per variant -------------------------------
    //
    // These pin the full error list (order included) for shapes that only a
    // raw body, a raw declaration or a mutated program can produce.

    use crate::body::{Block, Body, Phi, VarData};

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    fn b(i: usize) -> BlockId {
        BlockId::from_index(i)
    }

    fn block(begin: BlockBegin, stmts: Vec<Stmt>, end: BlockEnd) -> Block {
        Block { begin, stmts, end }
    }

    fn start() -> BlockBegin {
        BlockBegin::Start { params: vec![] }
    }

    fn zero(def: VarId) -> Stmt {
        Stmt::Assign { def, expr: Expr::Const(0) }
    }

    fn run() -> String {
        "A.run".to_string()
    }

    /// The errors of a program whose only method, `static A.run(): void`,
    /// has the given raw blocks and `n_vars` variables.
    fn raw_body_errors(blocks: Vec<Block>, n_vars: usize) -> Vec<ValidationError> {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb.method(a, "run").static_().returns(TypeRef::Void).build();
        pb.set_body(m, Body { blocks, vars: vec![VarData::default(); n_vars] });
        pb.finish().expect_err("must be rejected").0
    }

    /// A valid program with an instance method `A.m(int): void`; callers
    /// break it after `finish`, where the builder's own asserts cannot
    /// intervene.
    fn valid_instance_method() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb.method(a, "m").params(vec![TypeRef::Prim]).returns(TypeRef::Void).build();
        pb.set_trivial_body(m, None);
        (pb.finish().expect("valid"), m)
    }

    #[test]
    fn exact_entry_not_start() {
        let (mut program, m) = valid_instance_method();
        let body = Body {
            blocks: vec![block(BlockBegin::Label, vec![], BlockEnd::Return(None))],
            vars: vec![],
        };
        let span = program.bodies.push_body(body, &mut Default::default());
        program.methods[m.index()].body = Some(span);
        assert_eq!(
            validate_program(&program),
            vec![
                ValidationError::EntryNotStart { method: "A.m".into() },
                ValidationError::LabelPredCount { method: "A.m".into(), block: b(0), count: 0 },
            ]
        );
    }

    #[test]
    fn exact_misplaced_start() {
        let errs = raw_body_errors(
            vec![
                block(start(), vec![], BlockEnd::Return(None)),
                block(start(), vec![], BlockEnd::Return(None)),
            ],
            0,
        );
        assert_eq!(errs, vec![ValidationError::MisplacedStart { method: run(), block: b(1) }]);
    }

    #[test]
    fn exact_entry_has_predecessors() {
        let errs = raw_body_errors(vec![block(start(), vec![], BlockEnd::Jump(b(0)))], 0);
        assert_eq!(
            errs,
            vec![
                ValidationError::EntryHasPredecessors { method: run() },
                ValidationError::JumpToNonMerge { method: run(), from: b(0), to: b(0) },
            ]
        );
    }

    #[test]
    fn exact_jump_to_non_merge() {
        let errs = raw_body_errors(
            vec![
                block(start(), vec![], BlockEnd::Jump(b(2))),
                block(BlockBegin::Label, vec![], BlockEnd::Return(None)),
                block(start(), vec![], BlockEnd::Return(None)),
            ],
            0,
        );
        assert_eq!(
            errs,
            vec![
                ValidationError::MisplacedStart { method: run(), block: b(2) },
                ValidationError::JumpToNonMerge { method: run(), from: b(0), to: b(2) },
                ValidationError::LabelPredCount { method: run(), block: b(1), count: 0 },
            ]
        );
    }

    #[test]
    fn exact_label_pred_not_if() {
        let errs = raw_body_errors(
            vec![
                block(start(), vec![], BlockEnd::Jump(b(1))),
                block(BlockBegin::Label, vec![], BlockEnd::Return(None)),
            ],
            0,
        );
        assert_eq!(
            errs,
            vec![
                ValidationError::JumpToNonMerge { method: run(), from: b(0), to: b(1) },
                ValidationError::LabelPredNotIf { method: run(), block: b(1) },
            ]
        );
    }

    #[test]
    fn exact_if_to_non_label() {
        let cond = Cond::Cmp { op: CmpOp::Eq, lhs: v(0), rhs: v(0) };
        let errs = raw_body_errors(
            vec![
                block(
                    start(),
                    vec![zero(v(0))],
                    BlockEnd::If { cond, then_block: b(1), else_block: b(2) },
                ),
                block(
                    BlockBegin::Merge { phis: vec![], preds: vec![b(0)] },
                    vec![],
                    BlockEnd::Return(None),
                ),
                block(BlockBegin::Label, vec![], BlockEnd::Return(None)),
            ],
            1,
        );
        assert_eq!(errs, vec![ValidationError::IfToNonLabel { method: run(), from: b(0), to: b(1) }]);
    }

    #[test]
    fn exact_label_pred_count() {
        // A label reached from both arms of one `if`, plus an unreachable
        // label.
        let cond = Cond::Cmp { op: CmpOp::Lt, lhs: v(0), rhs: v(0) };
        let errs = raw_body_errors(
            vec![
                block(
                    start(),
                    vec![zero(v(0))],
                    BlockEnd::If { cond, then_block: b(1), else_block: b(1) },
                ),
                block(BlockBegin::Label, vec![], BlockEnd::Return(None)),
                block(BlockBegin::Label, vec![], BlockEnd::Return(None)),
            ],
            1,
        );
        assert_eq!(
            errs,
            vec![
                ValidationError::LabelPredCount { method: run(), block: b(1), count: 2 },
                ValidationError::LabelPredCount { method: run(), block: b(2), count: 0 },
            ]
        );
    }

    #[test]
    fn exact_merge_pred_mismatch() {
        let errs = raw_body_errors(
            vec![
                block(start(), vec![], BlockEnd::Jump(b(1))),
                block(
                    BlockBegin::Merge { phis: vec![], preds: vec![b(0), b(0)] },
                    vec![],
                    BlockEnd::Return(None),
                ),
            ],
            0,
        );
        assert_eq!(errs, vec![ValidationError::MergePredMismatch { method: run(), block: b(1) }]);
    }

    #[test]
    fn exact_phi_arg_count() {
        let errs = raw_body_errors(
            vec![
                block(start(), vec![zero(v(0))], BlockEnd::Jump(b(1))),
                block(
                    BlockBegin::Merge {
                        phis: vec![
                            Phi { def: v(1), args: vec![v(0)] },
                            Phi { def: v(2), args: vec![v(0), v(0)] },
                            Phi { def: v(3), args: vec![] },
                        ],
                        preds: vec![b(0)],
                    },
                    vec![],
                    BlockEnd::Return(None),
                ),
            ],
            4,
        );
        assert_eq!(
            errs,
            vec![
                ValidationError::PhiArgCount { method: run(), block: b(1), phi_index: 1 },
                ValidationError::PhiArgCount { method: run(), block: b(1), phi_index: 2 },
            ]
        );
    }

    #[test]
    fn exact_abstract_with_body() {
        let (mut program, m) = valid_instance_method();
        program.methods[m.index()].is_abstract = true;
        assert_eq!(
            validate_program(&program),
            vec![ValidationError::AbstractWithBody { method: "A.m".into() }]
        );
    }

    #[test]
    fn exact_static_abstract() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        pb.method(a, "m").static_().abstract_().build();
        let errs = pb.finish().expect_err("must be rejected").0;
        assert_eq!(errs, vec![ValidationError::StaticAbstract { method: "A.m".into() }]);
    }

    #[test]
    fn exact_body_param_mismatch() {
        let (mut program, m) = valid_instance_method();
        program.methods[m.index()].sig.params.clear();
        assert_eq!(
            validate_program(&program),
            vec![ValidationError::BodyParamMismatch { method: "A.m".into() }]
        );
    }

    #[test]
    fn exact_bad_static_invoke() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let inst = pb.method(a, "inst").returns(TypeRef::Void).build();
        pb.set_trivial_body(inst, None);
        let two = pb.method(a, "two").static_().params(vec![TypeRef::Prim; 2]).build();
        pb.set_trivial_body(two, None);
        let m = pb.method(a, "run").static_().returns(TypeRef::Void).build();
        pb.build_body(m, |bb| {
            let x = bb.const_(1);
            bb.invoke_static(two, &[x, x]);
            bb.raw_end(BlockEnd::Jump(BlockId::from_index(1)));
            bb.raw_merge_block(vec![], vec![BlockId::ENTRY]);
            bb.raw_switch_to(BlockId::from_index(1));
            bb.invoke_static(inst, &[x]);
            bb.invoke_static(two, &[x]);
            bb.ret(None);
        });
        let errs = pb.finish().expect_err("must be rejected").0;
        assert_eq!(
            errs,
            vec![
                ValidationError::BadStaticInvoke { method: run(), block: b(1) },
                ValidationError::BadStaticInvoke { method: run(), block: b(1) },
            ]
        );
    }

    #[test]
    fn exact_bad_superclass() {
        let mut pb = ProgramBuilder::new();
        let i = pb.add_interface("I", &[]);
        pb.add_class_extending("C", i);
        let errs = pb.finish().expect_err("must be rejected").0;
        assert_eq!(errs, vec![ValidationError::BadSuperclass { ty: "C".into() }]);
    }

    #[test]
    fn exact_not_an_interface() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C");
        let i = pb.add_interface("I", &[c]);
        pb.class("D").implements_(i).implements_(c).build();
        let errs = pb.finish().expect_err("must be rejected").0;
        assert_eq!(
            errs,
            vec![
                ValidationError::NotAnInterface { ty: "I".into() },
                ValidationError::NotAnInterface { ty: "D".into() },
            ]
        );
    }

    #[test]
    fn exact_ssa_errors_in_block_and_statement_order() {
        let m0 = MethodId::from_index(0);
        let cond = Cond::Cmp { op: CmpOp::Lt, lhs: v(0), rhs: v(1) };
        let errs = raw_body_errors(
            vec![
                block(
                    start(),
                    vec![zero(v(0))],
                    BlockEnd::If { cond, then_block: b(1), else_block: b(2) },
                ),
                block(
                    BlockBegin::Label,
                    vec![
                        Stmt::InvokeStatic { def: v(5), target: m0, args: vec![v(2)] },
                        zero(v(1)),
                        zero(v(2)),
                    ],
                    BlockEnd::Jump(b(3)),
                ),
                block(BlockBegin::Label, vec![zero(v(0))], BlockEnd::Jump(b(3))),
                block(
                    BlockBegin::Merge {
                        phis: vec![Phi { def: v(3), args: vec![v(1), v(2)] }],
                        preds: vec![b(1), b(2)],
                    },
                    // A φ def redefined by a statement of its own block is
                    // visible only after that statement.
                    vec![
                        Stmt::InvokeStatic { def: v(4), target: m0, args: vec![v(3)] },
                        zero(v(3)),
                    ],
                    BlockEnd::Return(Some(v(2))),
                ),
                block(BlockBegin::Label, vec![], BlockEnd::Throw(v(7))),
                block(
                    BlockBegin::Merge { phis: vec![], preds: vec![] },
                    vec![zero(v(5)), zero(v(9))],
                    BlockEnd::Throw(v(3)),
                ),
            ],
            6,
        );
        use ValidationError::*;
        assert_eq!(
            errs,
            vec![
                LabelPredCount { method: run(), block: b(4), count: 0 },
                DuplicateDefinition { method: run(), var: v(0) },
                DuplicateDefinition { method: run(), var: v(3) },
                DuplicateDefinition { method: run(), var: v(5) },
                DuplicateDefinition { method: run(), var: v(9) },
                UseBeforeDef { method: run(), block: b(0), var: v(1) },
                UseBeforeDef { method: run(), block: b(1), var: v(2) },
                UseBeforeDef { method: run(), block: b(3), var: v(2) },
                UseBeforeDef { method: run(), block: b(3), var: v(3) },
                UseBeforeDef { method: run(), block: b(3), var: v(2) },
                BadReturnArity { method: run(), block: b(3) },
                UseBeforeDef { method: run(), block: b(4), var: v(7) },
                BadStaticInvoke { method: run(), block: b(1) },
                BadStaticInvoke { method: run(), block: b(3) },
            ]
        );
    }

    #[test]
    fn out_of_range_targets_are_reported_not_indexed() {
        let cond = Cond::Cmp { op: CmpOp::Eq, lhs: v(0), rhs: v(0) };
        let errs = raw_body_errors(
            vec![
                block(
                    start(),
                    vec![zero(v(0))],
                    BlockEnd::If { cond, then_block: b(1), else_block: b(7) },
                ),
                block(BlockBegin::Label, vec![], BlockEnd::Jump(b(9))),
            ],
            1,
        );
        assert_eq!(
            errs,
            vec![
                ValidationError::IfToNonLabel { method: run(), from: b(0), to: b(7) },
                ValidationError::JumpToNonMerge { method: run(), from: b(1), to: b(9) },
            ]
        );
    }
}
