//! Statements, expressions, conditions, and block terminators of the base
//! language (paper Appendix B.1, Figure 10).

use crate::ids::{BlockId, FieldId, MethodId, SelectorId, TypeId, VarId};

/// Right-hand side of a `v ← e` assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expr {
    /// A primitive integer constant `n`. Booleans are 0/1.
    Const(i64),
    /// The result of arbitrary arithmetic: always produces the lattice value
    /// `Any`. The base language does not model arithmetic precisely
    /// (paper §3, "Abstractions for Primitive Values").
    AnyPrim,
    /// Object allocation `new T`. `T` must be an instantiable class.
    New(TypeId),
    /// The `null` reference.
    Null,
}

/// A statement inside a basic block.
///
/// `A` is how the call arguments are held: an owned `Vec` in builder
/// input, a borrowed slice in the [`crate::BodyView`] readers get from a
/// [`crate::Program`], and an index range into the program's argument pool
/// in storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stmt<A = Vec<VarId>> {
    /// `v ← e`
    Assign {
        /// Defined variable.
        def: VarId,
        /// Right-hand side expression.
        expr: Expr,
    },
    /// Field load `v ← r.x`.
    Load {
        /// Defined variable.
        def: VarId,
        /// Receiver object.
        object: VarId,
        /// The accessed field.
        field: FieldId,
    },
    /// Field store `r.x ← v`.
    Store {
        /// Receiver object.
        object: VarId,
        /// The accessed field.
        field: FieldId,
        /// Stored value.
        value: VarId,
    },
    /// Virtual invocation `v ← v0.m(v1, …, vn)`; `def` also represents the
    /// returned value (or the artificial token for void callees).
    Invoke {
        /// Defined variable (call result / reachability token).
        def: VarId,
        /// Receiver `v0`.
        receiver: VarId,
        /// Dispatch selector.
        selector: SelectorId,
        /// Arguments `v1, …, vn` (receiver excluded).
        args: A,
    },
    /// Static invocation `v ← T::m(v1, …, vn)` — an extension over the formal
    /// base language needed for always-throwing helpers such as
    /// `Assert.fail()` (paper §5, "Handling Exceptions").
    InvokeStatic {
        /// Defined variable (call result / reachability token).
        def: VarId,
        /// The statically-bound target method.
        target: MethodId,
        /// Arguments.
        args: A,
    },
    /// `v ← catch T` — an exception-handler entry: receives every instantiated
    /// exception type that is a subtype of `T` thrown anywhere in the program
    /// (the paper's deliberately coarse exception policy, §5).
    Catch {
        /// Defined variable holding the caught exception.
        def: VarId,
        /// Handler type bound.
        ty: TypeId,
    },
}

impl<A> Stmt<A> {
    /// The variable defined by this statement, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Stmt::Assign { def, .. }
            | Stmt::Load { def, .. }
            | Stmt::Invoke { def, .. }
            | Stmt::InvokeStatic { def, .. }
            | Stmt::Catch { def, .. } => Some(*def),
            Stmt::Store { .. } => None,
        }
    }

    /// The same statement with its arguments mapped through `f`.
    pub fn map_args<B>(self, f: impl FnOnce(A) -> B) -> Stmt<B> {
        match self {
            Stmt::Assign { def, expr } => Stmt::Assign { def, expr },
            Stmt::Load { def, object, field } => Stmt::Load { def, object, field },
            Stmt::Store { object, field, value } => Stmt::Store { object, field, value },
            Stmt::Invoke { def, receiver, selector, args } => Stmt::Invoke {
                def,
                receiver,
                selector,
                args: f(args),
            },
            Stmt::InvokeStatic { def, target, args } => Stmt::InvokeStatic {
                def,
                target,
                args: f(args),
            },
            Stmt::Catch { def, ty } => Stmt::Catch { def, ty },
        }
    }
}

impl<A: AsRef<[VarId]>> Stmt<A> {
    /// Variables used (read) by this statement, in operand order.
    pub fn uses(&self) -> impl Iterator<Item = VarId> + '_ {
        let (fixed, args): ([Option<VarId>; 2], &[VarId]) = match self {
            Stmt::Assign { .. } | Stmt::Catch { .. } => ([None, None], &[]),
            Stmt::Load { object, .. } => ([Some(*object), None], &[]),
            Stmt::Store { object, value, .. } => ([Some(*object), Some(*value)], &[]),
            Stmt::Invoke { receiver, args, .. } => ([Some(*receiver), None], args.as_ref()),
            Stmt::InvokeStatic { args, .. } => ([None, None], args.as_ref()),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }
}

/// Comparison operators.
///
/// The formal base language only needs `=` and `<`; the rest are expressible
/// by [`CmpOp::invert`]ing (for else-branches) and [`CmpOp::flip`]ping (for
/// filtering the right operand), so the IR carries all six directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Logical negation, used for the else branch: `inv(<) = ≥`.
    pub fn invert(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Operand swap, used for filtering the right operand: `flip(<) = >`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluates the comparison on two concrete integers.
    pub fn eval(self, l: i64, r: i64) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    /// The source-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A branching condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Binary comparison `lhs op rhs`. Null checks are `x == v` with
    /// `v ← null`; truth tests are `x != v` with `v ← 0`.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: VarId,
        /// Right operand.
        rhs: VarId,
    },
    /// Type test `var instanceof ty` (or its negation).
    InstanceOf {
        /// Tested variable.
        var: VarId,
        /// Tested type.
        ty: TypeId,
        /// `true` for `!(var instanceof ty)`.
        negated: bool,
    },
}

impl Cond {
    /// Logical negation of the condition (used for else branches).
    pub fn invert(self) -> Cond {
        match self {
            Cond::Cmp { op, lhs, rhs } => Cond::Cmp {
                op: op.invert(),
                lhs,
                rhs,
            },
            Cond::InstanceOf { var, ty, negated } => Cond::InstanceOf {
                var,
                ty,
                negated: !negated,
            },
        }
    }

    /// Variables read by the condition.
    pub fn uses(&self) -> impl Iterator<Item = VarId> {
        self.operands().into_iter().flatten()
    }

    fn operands(&self) -> [Option<VarId>; 2] {
        match *self {
            Cond::Cmp { lhs, rhs, .. } => [Some(lhs), Some(rhs)],
            Cond::InstanceOf { var, .. } => [Some(var), None],
        }
    }
}

/// The terminator of a basic block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockEnd {
    /// `return v` / `return` (void).
    Return(Option<VarId>),
    /// `jump m` — unconditional jump to a merge block.
    Jump(BlockId),
    /// `if c then l_then else l_else` — both successors are label blocks.
    If {
        /// Branching condition.
        cond: Cond,
        /// Successor when the condition holds.
        then_block: BlockId,
        /// Successor when the condition does not hold.
        else_block: BlockId,
    },
    /// `throw v` — aborts the method; the value flows into the global thrown
    /// pool (extension; see [`Stmt::Catch`]).
    Throw(VarId),
}

impl BlockEnd {
    /// Successor blocks of this terminator: `then` before `else`.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let succs = match *self {
            BlockEnd::Return(_) | BlockEnd::Throw(_) => [None, None],
            BlockEnd::Jump(t) => [Some(t), None],
            BlockEnd::If {
                then_block,
                else_block,
                ..
            } => [Some(then_block), Some(else_block)],
        };
        succs.into_iter().flatten()
    }

    /// Variables read by this terminator.
    pub fn uses(&self) -> impl Iterator<Item = VarId> {
        let vars = match *self {
            BlockEnd::Return(v) => [v, None],
            BlockEnd::Jump(_) => [None, None],
            BlockEnd::If { cond, .. } => cond.operands(),
            BlockEnd::Throw(v) => [Some(v), None],
        };
        vars.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invert_is_involution() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.invert().invert(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn invert_and_flip_match_paper() {
        // Paper: inv(<) = ≥, flip(<) = >.
        assert_eq!(CmpOp::Lt.invert(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn eval_agrees_with_invert() {
        let vals = [-3, 0, 1, 7];
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for &l in &vals {
                for &r in &vals {
                    assert_eq!(op.eval(l, r), !op.invert().eval(l, r));
                    assert_eq!(op.eval(l, r), op.flip().eval(r, l));
                }
            }
        }
    }

    #[test]
    fn cond_invert() {
        let v = VarId::from_index(0);
        let w = VarId::from_index(1);
        let c = Cond::Cmp {
            op: CmpOp::Lt,
            lhs: v,
            rhs: w,
        };
        assert_eq!(
            c.invert(),
            Cond::Cmp {
                op: CmpOp::Ge,
                lhs: v,
                rhs: w
            }
        );
        let t = Cond::InstanceOf {
            var: v,
            ty: TypeId::from_index(1),
            negated: false,
        };
        match t.invert() {
            Cond::InstanceOf { negated, .. } => assert!(negated),
            _ => panic!("expected instanceof"),
        }
    }

    #[test]
    fn stmt_defs_and_uses() {
        let v = |i| VarId::from_index(i);
        let s: Stmt = Stmt::Invoke {
            def: v(0),
            receiver: v(1),
            selector: SelectorId::from_index(0),
            args: vec![v(2), v(3)],
        };
        assert_eq!(s.def(), Some(v(0)));
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![v(1), v(2), v(3)]);

        let st: Stmt = Stmt::Store {
            object: v(1),
            field: FieldId::from_index(0),
            value: v(2),
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses().collect::<Vec<_>>(), vec![v(1), v(2)]);
    }

    #[test]
    fn block_end_successors() {
        let b = BlockEnd::If {
            cond: Cond::InstanceOf {
                var: VarId::from_index(0),
                ty: TypeId::from_index(1),
                negated: false,
            },
            then_block: BlockId::from_index(1),
            else_block: BlockId::from_index(2),
        };
        assert_eq!(
            b.successors().collect::<Vec<_>>(),
            vec![BlockId::from_index(1), BlockId::from_index(2)]
        );
        assert_eq!(BlockEnd::Return(None).successors().count(), 0);
    }
}
