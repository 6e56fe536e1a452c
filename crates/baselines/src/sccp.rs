//! Sparse Conditional Constant Propagation (Wegman–Zadeck), intraprocedural.
//!
//! The paper's §7 positions SkipFlow as "a novel Whole-Program Sparse
//! Conditional Constant Propagation": classical SCCP operates within a
//! single compilation unit, so a branch on a value that is constant only
//! *interprocedurally* (a parameter, a callee's return) cannot be folded.
//! This module implements the classical algorithm so the gap is measurable:
//! every branch SCCP folds, SkipFlow folds too (see the integration tests),
//! and the bench harness counts how many more SkipFlow gets.

use skipflow_ir::{
    BlockBegin, BlockEnd, BlockId, BodyView, CmpOp, Cond, Expr, MethodId, Program, Stmt, TypeId, VarId,
};
use std::collections::VecDeque;

/// The classic SCCP lattice, extended with exact object information so
/// intraprocedural `instanceof` and null checks fold as well.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatVal {
    /// Not yet seen (⊥).
    Bottom,
    /// A known integer constant.
    Const(i64),
    /// Definitely the null reference.
    Null,
    /// Definitely an object of exactly this runtime type (from `new T`).
    Obj(TypeId),
    /// Overdefined (⊤).
    Top,
}

impl LatVal {
    fn join(self, other: LatVal) -> LatVal {
        use LatVal::*;
        match (self, other) {
            (Bottom, x) | (x, Bottom) => x,
            (a, b) if a == b => a,
            _ => Top,
        }
    }
}

/// The per-method result of SCCP.
#[derive(Clone, Debug)]
pub struct SccpResult {
    /// Executable blocks (entry always included).
    pub executable: Vec<bool>,
    /// Lattice value per SSA variable.
    pub values: Vec<LatVal>,
    /// Branches (`if` terminators) with exactly one executable successor —
    /// the foldable ones.
    pub folded_branches: Vec<BlockId>,
}

impl SccpResult {
    /// Blocks proven unreachable inside the method.
    pub fn dead_blocks(&self) -> Vec<BlockId> {
        self.executable
            .iter()
            .enumerate()
            .filter(|(_, e)| !**e)
            .map(|(i, _)| BlockId::from_index(i))
            .collect()
    }
}

/// Runs SCCP on one method body.
///
/// # Examples
///
/// ```
/// use skipflow_baselines::sccp::sccp;
/// use skipflow_ir::frontend::compile;
///
/// let program = compile(
///     "class Main { static method m(): int {
///        var x = 1;
///        if (x == 1) { return 10; }
///        return 20;
///      } }",
/// )?;
/// let cls = program.type_by_name("Main").unwrap();
/// let m = program.method_by_name(cls, "m").unwrap();
/// let result = sccp(&program, program.body(m).unwrap());
/// assert_eq!(result.folded_branches.len(), 1);
/// # Ok::<(), skipflow_ir::frontend::FrontendError>(())
/// ```
pub fn sccp(program: &Program, body: BodyView<'_>) -> SccpResult {
    let n_blocks = body.block_count();
    let n_vars = body.var_count();
    let preds = body.predecessors();

    let mut values = vec![LatVal::Bottom; n_vars];
    let mut exec_block = vec![false; n_blocks];
    // Executable CFG edges, keyed (from, to).
    let mut exec_edge = std::collections::HashSet::new();
    let mut block_worklist: VecDeque<BlockId> = VecDeque::new();
    let mut var_worklist: VecDeque<VarId> = VecDeque::new();

    // Uses index: for each var, the blocks whose evaluation depends on it.
    let mut use_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); n_vars];
    for (id, block) in body.iter_blocks() {
        if let BlockBegin::Merge { phis, .. } = block.begin() {
            for phi in phis {
                for a in phi.args {
                    use_blocks[a.index()].push(id);
                }
            }
        }
        for stmt in block.stmts() {
            for u in stmt.uses() {
                use_blocks[u.index()].push(id);
            }
        }
        for u in block.end().uses() {
            use_blocks[u.index()].push(id);
        }
    }

    exec_block[BlockId::ENTRY.index()] = true;
    block_worklist.push_back(BlockId::ENTRY);
    // Parameters are unknown inputs.
    for p in body.params() {
        values[p.index()] = LatVal::Top;
    }

    let eval_cond = |cond: &Cond, values: &[LatVal]| -> Option<bool> {
        match cond {
            Cond::Cmp { op, lhs, rhs } => {
                let l = values[lhs.index()];
                let r = values[rhs.index()];
                match (l, r) {
                    (LatVal::Const(a), LatVal::Const(b)) => Some(op.eval(a, b)),
                    (LatVal::Null, LatVal::Null) => match op {
                        CmpOp::Eq => Some(true),
                        CmpOp::Ne => Some(false),
                        _ => None,
                    },
                    // Exactly-typed object vs null: identity is decidable.
                    (LatVal::Obj(_), LatVal::Null) | (LatVal::Null, LatVal::Obj(_)) => match op {
                        CmpOp::Eq => Some(false),
                        CmpOp::Ne => Some(true),
                        _ => None,
                    },
                    _ => None,
                }
            }
            Cond::InstanceOf { var, ty, negated } => {
                let is = match values[var.index()] {
                    LatVal::Obj(t) => Some(program.is_subtype(t, *ty)),
                    LatVal::Null => Some(false),
                    _ => None,
                }?;
                Some(is != *negated)
            }
        }
    };

    // Process a block's straight-line part once executable; returns the
    // changed vars.
    let eval_stmt = |stmt: &Stmt<&[VarId]>, values: &mut [LatVal]| -> Option<VarId> {
        let (def, val) = match stmt {
            Stmt::Assign { def, expr } => {
                let v = match expr {
                    Expr::Const(n) => LatVal::Const(*n),
                    Expr::AnyPrim => LatVal::Top,
                    Expr::New(t) => LatVal::Obj(*t),
                    Expr::Null => LatVal::Null,
                };
                (*def, v)
            }
            // Heap and calls are outside the compilation unit's knowledge.
            Stmt::Load { def, .. }
            | Stmt::Invoke { def, .. }
            | Stmt::InvokeStatic { def, .. }
            | Stmt::Catch { def, .. } => (*def, LatVal::Top),
            Stmt::Store { .. } => return None,
        };
        let joined = values[def.index()].join(val);
        if joined != values[def.index()] {
            values[def.index()] = joined;
            Some(def)
        } else {
            None
        }
    };

    // Main SCCP loop.
    loop {
        let mut progress = false;
        while let Some(b) = block_worklist.pop_front() {
            progress = true;
            // φs of b: join over executable incoming edges.
            if let BlockBegin::Merge { phis, preds: decl } = body.block(b).begin() {
                for phi in phis {
                    let mut v = values[phi.def.index()];
                    for (j, p) in decl.iter().enumerate() {
                        if exec_edge.contains(&(*p, b)) {
                            v = v.join(values[phi.args[j].index()]);
                        }
                    }
                    if v != values[phi.def.index()] {
                        values[phi.def.index()] = v;
                        var_worklist.push_back(phi.def);
                    }
                }
            }
            for stmt in body.block(b).stmts() {
                if let Some(changed) = eval_stmt(&stmt, &mut values) {
                    var_worklist.push_back(changed);
                }
            }
            match body.block(b).end() {
                BlockEnd::Return(_) | BlockEnd::Throw(_) => {}
                BlockEnd::Jump(t) => {
                    mark_edge(b, t, &mut exec_edge, &mut exec_block, &mut block_worklist);
                }
                BlockEnd::If {
                    cond,
                    then_block,
                    else_block,
                } => match eval_cond(&cond, &values) {
                    Some(true) => {
                        mark_edge(b, then_block, &mut exec_edge, &mut exec_block, &mut block_worklist)
                    }
                    Some(false) => {
                        mark_edge(b, else_block, &mut exec_edge, &mut exec_block, &mut block_worklist)
                    }
                    None => {
                        mark_edge(b, then_block, &mut exec_edge, &mut exec_block, &mut block_worklist);
                        mark_edge(b, else_block, &mut exec_edge, &mut exec_block, &mut block_worklist);
                    }
                },
            }
        }
        while let Some(v) = var_worklist.pop_front() {
            progress = true;
            for &b in &use_blocks[v.index()] {
                if exec_block[b.index()] {
                    block_worklist.push_back(b);
                }
            }
        }
        if !progress {
            break;
        }
    }

    // Foldable branches: executable ifs with one dead successor edge.
    let mut folded = Vec::new();
    for (id, block) in body.iter_blocks() {
        if !exec_block[id.index()] {
            continue;
        }
        if let BlockEnd::If {
            then_block,
            else_block,
            ..
        } = block.end()
        {
            let t = exec_edge.contains(&(id, then_block));
            let e = exec_edge.contains(&(id, else_block));
            if t != e {
                folded.push(id);
            }
        }
    }
    let _ = preds;

    SccpResult {
        executable: exec_block,
        values,
        folded_branches: folded,
    }
}

fn mark_edge(
    from: BlockId,
    to: BlockId,
    exec_edge: &mut std::collections::HashSet<(BlockId, BlockId)>,
    exec_block: &mut [bool],
    worklist: &mut VecDeque<BlockId>,
) {
    let new_edge = exec_edge.insert((from, to));
    let new_block = !exec_block[to.index()];
    if new_block {
        exec_block[to.index()] = true;
    }
    if new_edge || new_block {
        // φ joins depend on edges, so re-evaluate the target either way.
        worklist.push_back(to);
    }
}

/// Convenience: SCCP over every concrete method; returns
/// `(method, folded branch count, dead block count)` per method.
pub fn sccp_program(program: &Program) -> Vec<(MethodId, usize, usize)> {
    program
        .iter_methods()
        .filter_map(|m| {
            let body = program.body(m)?;
            let r = sccp(program, body);
            Some((m, r.folded_branches.len(), r.dead_blocks().len()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_ir::frontend::compile;

    fn run_on(src: &str, class: &str, method: &str) -> (Program, MethodId, SccpResult) {
        let p = compile(src).unwrap();
        let c = p.type_by_name(class).unwrap();
        let m = p.method_by_name(c, method).unwrap();
        let r = sccp(&p, p.body(m).unwrap());
        (p, m, r)
    }

    #[test]
    fn folds_local_constant_branches() {
        let (_, _, r) = run_on(
            "class Main { static method m(): int {
               var x = 1;
               if (x == 1) { return 10; }
               return 20;
             } }",
            "Main",
            "m",
        );
        assert_eq!(r.folded_branches.len(), 1);
        assert!(!r.dead_blocks().is_empty(), "the else side is dead");
    }

    #[test]
    fn cannot_fold_parameter_branches() {
        // The Figure 4 discussion: when x is a parameter, intraprocedural
        // constant folding is powerless.
        let (_, _, r) = run_on(
            "class Main { static method m(x: int): int {
               if (x == 1) { return 10; }
               return 20;
             } }",
            "Main",
            "m",
        );
        assert!(r.folded_branches.is_empty());
        assert!(r.dead_blocks().is_empty());
    }

    #[test]
    fn folds_local_instanceof_and_null_checks() {
        let (_, _, r) = run_on(
            "class A { }
             class B { }
             class Main { static method m(): int {
               var a = new A();
               if (a instanceof B) { return 1; }
               if (a == null) { return 2; }
               return 3;
             } }",
            "Main",
            "m",
        );
        assert_eq!(r.folded_branches.len(), 2);
    }

    #[test]
    fn phi_of_equal_constants_stays_constant() {
        let (_, _, r) = run_on(
            "class Main { static method m(c: int): int {
               var x = 0;
               if (c == 0) { x = 5; } else { x = 5; }
               if (x == 5) { return 1; }
               return 0;
             } }",
            "Main",
            "m",
        );
        // The second branch folds even though the first cannot.
        assert_eq!(r.folded_branches.len(), 1);
    }

    #[test]
    fn phi_of_distinct_constants_is_top() {
        let (_, _, r) = run_on(
            "class Main { static method m(c: int): int {
               var x = 0;
               if (c == 0) { x = 5; } else { x = 6; }
               if (x == 5) { return 1; }
               return 0;
             } }",
            "Main",
            "m",
        );
        assert!(r.folded_branches.is_empty());
    }

    #[test]
    fn loops_converge() {
        let (_, _, r) = run_on(
            "class Main { static method m(): int {
               var i = 0;
               while (i < 10) { i = any(); }
               return i;
             } }",
            "Main",
            "m",
        );
        // The loop condition is initially 0 < 10 = true, but `any()` makes i
        // Top on the back edge, so both exits stay live.
        assert!(r.folded_branches.is_empty());
    }

    #[test]
    fn calls_are_opaque() {
        let (_, _, r) = run_on(
            "class Main {
               static method flag(): int { return 0; }
               static method m(): int {
                 var f = Main.flag();
                 if (f == 0) { return 1; }
                 return 2;
               }
             }",
            "Main",
            "m",
        );
        // SkipFlow folds this (interprocedural constant); SCCP cannot.
        assert!(r.folded_branches.is_empty());
    }
}
