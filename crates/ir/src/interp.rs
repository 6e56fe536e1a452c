//! A reference interpreter for the base language.
//!
//! The interpreter executes programs concretely (with a seeded RNG supplying
//! the values of `any()` expressions) and records a [`Trace`]: which methods
//! actually executed, which types were actually instantiated, and the
//! abstract values observed at parameter and return positions.
//!
//! Its purpose is *differential validation* of the static analysis: for any
//! program and any input, dynamically executed methods must be a subset of
//! the statically reachable set, and every observed value must be covered by
//! the corresponding static value state. The workspace-level property tests
//! run exactly this comparison on randomly generated programs.

use crate::ids::{BlockId, FieldId, MethodId, TypeId, VarId};
use crate::instr::{BlockEnd, CmpOp, Cond, Expr, Stmt};
use crate::program::Program;
use crate::types::TypeRef;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Interpreter limits and inputs.
#[derive(Clone, Debug)]
pub struct InterpConfig {
    /// Maximum number of executed statements/terminators before the run is
    /// cut off (programs may legitimately loop forever).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Seed for the values produced by `any()` expressions.
    pub seed: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_steps: 100_000,
            max_depth: 128,
            seed: 0,
        }
    }
}

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// A primitive integer (booleans are 0/1).
    Int(i64),
    /// A reference: `None` is `null`.
    Ref(Option<ObjId>),
}

impl Value {
    /// The `null` reference.
    pub fn null() -> Self {
        Value::Ref(None)
    }
}

/// Heap object identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(u32);

/// The lattice-free abstraction of an observed runtime value, used to check
/// value states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObservedValue {
    /// A concrete integer.
    Int(i64),
    /// The null reference.
    Null,
    /// An object of the given runtime type.
    Obj(TypeId),
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The root method returned normally.
    Returned(Option<ObservedValue>),
    /// An exception of the given type escaped the root method.
    Threw(TypeId),
    /// The step budget ran out (e.g. an infinite loop).
    BudgetExhausted,
    /// The call-depth limit was hit.
    StackOverflow,
    /// A null receiver was dereferenced (field access or invoke).
    NullDereference,
    /// Virtual dispatch found no target (ill-typed program or abstract
    /// receiver).
    UnresolvedCall,
}

/// The record of one interpreted run.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Methods whose bodies began executing.
    pub executed_methods: BTreeSet<MethodId>,
    /// Types actually allocated with `new`.
    pub instantiated: BTreeSet<TypeId>,
    /// Distinct abstract values observed per (method, parameter index).
    pub param_values: BTreeMap<(MethodId, usize), BTreeSet<ObservedValue>>,
    /// Distinct abstract values observed at each method's returns.
    pub return_values: BTreeMap<MethodId, BTreeSet<ObservedValue>>,
    /// Statements plus terminators executed.
    pub steps: u64,
    /// How the run ended.
    pub outcome: Outcome,
}

struct Object {
    ty: TypeId,
    fields: HashMap<FieldId, Value>,
}

/// A thrown exception unwinding the interpreter stack.
struct Thrown {
    ty: TypeId,
}

enum Abort {
    Budget,
    Stack,
    NullDeref,
    Unresolved,
}

enum Eval<T> {
    Ok(T),
    Threw(Thrown),
    Abort(Abort),
}

/// Runs `method` (which must be static, with parameters supplied as
/// `args`) and records a trace.
///
/// # Examples
///
/// ```
/// use skipflow_ir::frontend::compile;
/// use skipflow_ir::interp::{run, InterpConfig, ObservedValue, Outcome};
///
/// let program = compile(
///     "class Main { static method main(): int { return 41; } }",
/// )?;
/// let main_cls = program.type_by_name("Main").unwrap();
/// let main = program.method_by_name(main_cls, "main").unwrap();
/// let trace = run(&program, main, &[], &InterpConfig::default());
/// assert_eq!(trace.outcome, Outcome::Returned(Some(ObservedValue::Int(41))));
/// # Ok::<(), skipflow_ir::frontend::FrontendError>(())
/// ```
///
/// # Panics
///
/// Panics if `method` is abstract or `args` disagrees with its parameter
/// count — caller bugs, not program behaviours.
pub fn run(program: &Program, method: MethodId, args: &[Value], config: &InterpConfig) -> Trace {
    let md = program.method(method);
    assert!(md.has_body(), "cannot interpret an abstract method");
    assert_eq!(args.len(), md.param_count(), "argument count mismatch");
    let mut interp = Interp {
        program,
        config,
        heap: Vec::new(),
        statics: HashMap::new(),
        thrown_pool: Vec::new(),
        rng_state: config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        trace: Trace {
            executed_methods: BTreeSet::new(),
            instantiated: BTreeSet::new(),
            param_values: BTreeMap::new(),
            return_values: BTreeMap::new(),
            steps: 0,
            outcome: Outcome::BudgetExhausted,
        },
    };
    let outcome = match interp.call(method, args.to_vec(), 0) {
        Eval::Ok(v) => Outcome::Returned(v.map(|v| interp.observe(v))),
        Eval::Threw(t) => Outcome::Threw(t.ty),
        Eval::Abort(Abort::Budget) => Outcome::BudgetExhausted,
        Eval::Abort(Abort::Stack) => Outcome::StackOverflow,
        Eval::Abort(Abort::NullDeref) => Outcome::NullDereference,
        Eval::Abort(Abort::Unresolved) => Outcome::UnresolvedCall,
    };
    interp.trace.outcome = outcome;
    interp.trace
}

struct Interp<'p> {
    program: &'p Program,
    config: &'p InterpConfig,
    heap: Vec<Object>,
    /// Static fields live outside any object.
    statics: HashMap<FieldId, Value>,
    /// Every exception ever thrown (for `catch T` under the coarse model).
    thrown_pool: Vec<ObjId>,
    rng_state: u64,
    trace: Trace,
}

impl Interp<'_> {
    /// xorshift64* — deterministic `any()` values without a dependency.
    fn next_any(&mut self) -> i64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        // Small values make branch conditions interesting.
        ((x.wrapping_mul(0x2545_F491_4F6C_DD1D)) % 23) as i64 - 4
    }

    fn observe(&self, v: Value) -> ObservedValue {
        match v {
            Value::Int(n) => ObservedValue::Int(n),
            Value::Ref(None) => ObservedValue::Null,
            Value::Ref(Some(o)) => ObservedValue::Obj(self.heap[o.0 as usize].ty),
        }
    }

    fn tick(&mut self) -> Result<(), Abort> {
        self.trace.steps += 1;
        if self.trace.steps > self.config.max_steps {
            Err(Abort::Budget)
        } else {
            Ok(())
        }
    }

    fn alloc(&mut self, ty: TypeId) -> ObjId {
        self.trace.instantiated.insert(ty);
        let id = ObjId(self.heap.len() as u32);
        self.heap.push(Object {
            ty,
            fields: HashMap::new(),
        });
        id
    }

    fn default_value(&self, field: FieldId) -> Value {
        match self.program.field(field).ty {
            TypeRef::Object(_) => Value::null(),
            _ => Value::Int(0),
        }
    }

    fn call(&mut self, method: MethodId, args: Vec<Value>, depth: usize) -> Eval<Option<Value>> {
        if depth >= self.config.max_depth {
            return Eval::Abort(Abort::Stack);
        }
        self.trace.executed_methods.insert(method);
        for (i, v) in args.iter().enumerate() {
            let ov = self.observe(*v);
            self.trace
                .param_values
                .entry((method, i))
                .or_default()
                .insert(ov);
        }
        let body = self.program.body(method).expect("resolved methods are concrete");

        let mut env: Vec<Option<Value>> = vec![None; body.var_count()];
        for (i, p) in body.params().iter().enumerate() {
            env[p.index()] = Some(args[i]);
        }

        let mut block = BlockId::ENTRY;
        let mut prev_block: Option<BlockId> = None;
        loop {
            // Header: φ resolution against the incoming edge.
            if let crate::body::BlockBegin::Merge { phis, preds } = body.block(block).begin() {
                let from = prev_block.expect("merges are never entry blocks");
                let j = preds
                    .iter()
                    .position(|p| *p == from)
                    .expect("validated predecessor lists");
                // φs read their inputs simultaneously.
                let vals: Vec<Value> = phis
                    .iter()
                    .map(|phi| env[phi.args[j].index()].expect("validated SSA"))
                    .collect();
                for (phi, v) in phis.iter().zip(vals) {
                    env[phi.def.index()] = Some(v);
                }
            }

            for stmt in body.block(block).stmts() {
                if let Err(a) = self.tick() {
                    return Eval::Abort(a);
                }
                match self.exec_stmt(stmt, &mut env, depth) {
                    Eval::Ok(()) => {}
                    Eval::Threw(t) => return Eval::Threw(t),
                    Eval::Abort(a) => return Eval::Abort(a),
                }
            }

            if let Err(a) = self.tick() {
                return Eval::Abort(a);
            }
            match body.block(block).end() {
                BlockEnd::Return(v) => {
                    let val = v.map(|v| env[v.index()].expect("validated SSA"));
                    if let Some(val) = val {
                        let ov = self.observe(val);
                        self.trace
                            .return_values
                            .entry(method)
                            .or_default()
                            .insert(ov);
                    }
                    return Eval::Ok(val);
                }
                BlockEnd::Throw(v) => {
                    let val = env[v.index()].expect("validated SSA");
                    match val {
                        Value::Ref(Some(o)) => {
                            self.thrown_pool.push(o);
                            return Eval::Threw(Thrown {
                                ty: self.heap[o.0 as usize].ty,
                            });
                        }
                        // Throwing null or an int: treat as a null deref.
                        _ => return Eval::Abort(Abort::NullDeref),
                    }
                }
                BlockEnd::Jump(t) => {
                    prev_block = Some(block);
                    block = t;
                }
                BlockEnd::If {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let taken = match self.eval_cond(&cond, &env) {
                        Some(b) => b,
                        None => return Eval::Abort(Abort::Unresolved),
                    };
                    prev_block = Some(block);
                    block = if taken { then_block } else { else_block };
                }
            }
        }
    }

    fn eval_cond(&self, cond: &Cond, env: &[Option<Value>]) -> Option<bool> {
        match cond {
            Cond::Cmp { op, lhs, rhs } => {
                let l = env[lhs.index()].expect("validated SSA");
                let r = env[rhs.index()].expect("validated SSA");
                match (l, r) {
                    (Value::Int(a), Value::Int(b)) => Some(op.eval(a, b)),
                    (Value::Ref(a), Value::Ref(b)) => match op {
                        CmpOp::Eq => Some(a == b),
                        CmpOp::Ne => Some(a != b),
                        _ => None, // relational on references: ill-typed
                    },
                    _ => None, // mixed: ill-typed
                }
            }
            Cond::InstanceOf { var, ty, negated } => {
                let v = env[var.index()].expect("validated SSA");
                let is = match v {
                    Value::Ref(Some(o)) => {
                        self.program.is_subtype(self.heap[o.0 as usize].ty, *ty)
                    }
                    Value::Ref(None) => false, // instanceof is false for null
                    Value::Int(_) => return None,
                };
                Some(is != *negated)
            }
        }
    }

    fn exec_stmt(
        &mut self,
        stmt: Stmt<&[VarId]>,
        env: &mut [Option<Value>],
        depth: usize,
    ) -> Eval<()> {
        match &stmt {
            Stmt::Assign { def, expr } => {
                let v = match expr {
                    Expr::Const(n) => Value::Int(*n),
                    Expr::AnyPrim => Value::Int(self.next_any()),
                    Expr::New(t) => Value::Ref(Some(self.alloc(*t))),
                    Expr::Null => Value::null(),
                };
                env[def.index()] = Some(v);
                Eval::Ok(())
            }
            Stmt::Load { def, object, field } => {
                let v = if self.program.field(*field).is_static {
                    self.statics
                        .get(field)
                        .copied()
                        .unwrap_or_else(|| self.default_value(*field))
                } else {
                    let obj = match env[object.index()].expect("validated SSA") {
                        Value::Ref(Some(o)) => o,
                        _ => return Eval::Abort(Abort::NullDeref),
                    };
                    let default = self.default_value(*field);
                    self.heap[obj.0 as usize]
                        .fields
                        .get(field)
                        .copied()
                        .unwrap_or(default)
                };
                env[def.index()] = Some(v);
                Eval::Ok(())
            }
            Stmt::Store {
                object,
                field,
                value,
            } => {
                let v = env[value.index()].expect("validated SSA");
                if self.program.field(*field).is_static {
                    self.statics.insert(*field, v);
                } else {
                    let obj = match env[object.index()].expect("validated SSA") {
                        Value::Ref(Some(o)) => o,
                        _ => return Eval::Abort(Abort::NullDeref),
                    };
                    self.heap[obj.0 as usize].fields.insert(*field, v);
                }
                Eval::Ok(())
            }
            Stmt::Invoke {
                def,
                receiver,
                selector,
                args,
            } => {
                let recv = env[receiver.index()].expect("validated SSA");
                let obj = match recv {
                    Value::Ref(Some(o)) => o,
                    _ => return Eval::Abort(Abort::NullDeref),
                };
                let ty = self.heap[obj.0 as usize].ty;
                let target = match self.program.resolve(ty, *selector) {
                    Some(m) => m,
                    None => return Eval::Abort(Abort::Unresolved),
                };
                let mut call_args = vec![recv];
                for a in args.iter() {
                    call_args.push(env[a.index()].expect("validated SSA"));
                }
                match self.call(target, call_args, depth + 1) {
                    Eval::Ok(v) => {
                        // Void results leave a token 0 behind (the analysis's
                        // artificial return value).
                        env[def.index()] = Some(v.unwrap_or(Value::Int(0)));
                        Eval::Ok(())
                    }
                    Eval::Threw(t) => Eval::Threw(t),
                    Eval::Abort(a) => Eval::Abort(a),
                }
            }
            Stmt::InvokeStatic { def, target, args } => {
                let call_args: Vec<Value> = args
                    .iter()
                    .map(|a| env[a.index()].expect("validated SSA"))
                    .collect();
                match self.call(*target, call_args, depth + 1) {
                    Eval::Ok(v) => {
                        env[def.index()] = Some(v.unwrap_or(Value::Int(0)));
                        Eval::Ok(())
                    }
                    Eval::Threw(t) => Eval::Threw(t),
                    Eval::Abort(a) => Eval::Abort(a),
                }
            }
            Stmt::Catch { def, ty } => {
                // The coarse handler model: some previously thrown exception
                // of a matching type, or null when none exists.
                let found = self
                    .thrown_pool
                    .iter()
                    .rev()
                    .copied()
                    .find(|o| self.program.is_subtype(self.heap[o.0 as usize].ty, *ty));
                env[def.index()] = Some(Value::Ref(found));
                Eval::Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;

    fn run_main(src: &str) -> (Program, Trace) {
        let p = compile(src).expect("compiles");
        let main_cls = p.type_by_name("Main").unwrap();
        let main = p.method_by_name(main_cls, "main").unwrap();
        let trace = run(&p, main, &[], &InterpConfig::default());
        (p, trace)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (_, t) = run_main(
            "class Main { static method main(): int { return 41; } }",
        );
        assert_eq!(t.outcome, Outcome::Returned(Some(ObservedValue::Int(41))));
        assert_eq!(t.executed_methods.len(), 1);
    }

    #[test]
    fn branches_follow_concrete_values() {
        let (p, t) = run_main(
            "class Main {
               static method yes(): int { return 1; }
               static method no(): int { return 0; }
               static method main(): int {
                 var x = 42;
                 if (x > 10) { return Main.yes(); }
                 return Main.no();
               }
             }",
        );
        let main_cls = p.type_by_name("Main").unwrap();
        assert!(t.executed_methods.contains(&p.method_by_name(main_cls, "yes").unwrap()));
        assert!(!t.executed_methods.contains(&p.method_by_name(main_cls, "no").unwrap()));
        assert_eq!(t.outcome, Outcome::Returned(Some(ObservedValue::Int(1))));
    }

    #[test]
    fn virtual_dispatch_selects_runtime_type() {
        let (_, t) = run_main(
            "abstract class A { abstract method f(): int; }
             class B extends A { method f(): int { return 2; } }
             class C extends A { method f(): int { return 3; } }
             class Main {
               static method main(): int {
                 var x = new C();
                 return x.f();
               }
             }",
        );
        assert_eq!(t.outcome, Outcome::Returned(Some(ObservedValue::Int(3))));
    }

    #[test]
    fn fields_store_and_load_with_defaults() {
        let (_, t) = run_main(
            "class Box { var v: int; var o: Box; }
             class Main {
               static method main(): int {
                 var b = new Box();
                 var before = b.v;        // default 0
                 var o = b.o;             // default null
                 if (o == null) { b.v = 7; }
                 return b.v;
               }
             }",
        );
        assert_eq!(t.outcome, Outcome::Returned(Some(ObservedValue::Int(7))));
    }

    #[test]
    fn loops_terminate_or_exhaust_budget() {
        let (_, t) = run_main(
            "class Main {
               static method main(): int {
                 var i = 0;
                 while (i < 5) { i = any(); }
                 return i;
               }
             }",
        );
        // Either the RNG eventually produced ≥ 5 (return) or the budget ran
        // out; both are legal traces.
        assert!(matches!(
            t.outcome,
            Outcome::Returned(_) | Outcome::BudgetExhausted
        ));
    }

    #[test]
    fn infinite_loop_exhausts_budget() {
        let p = compile(
            "class Main { static method main(): void {
               var going = 1;
               while (going == 1) { going = 1; }
             } }",
        )
        .unwrap();
        let main_cls = p.type_by_name("Main").unwrap();
        let main = p.method_by_name(main_cls, "main").unwrap();
        let config = InterpConfig {
            max_steps: 1_000,
            ..Default::default()
        };
        let t = run(&p, main, &[], &config);
        assert_eq!(t.outcome, Outcome::BudgetExhausted);
    }

    #[test]
    fn throw_unwinds_to_root() {
        let (p, t) = run_main(
            "class Err { }
             class Main {
               static method boom(): void { throw new Err(); }
               static method after(): void { return; }
               static method main(): void {
                 Main.boom();
                 Main.after();
               }
             }",
        );
        let err = p.type_by_name("Err").unwrap();
        assert_eq!(t.outcome, Outcome::Threw(err));
        let main_cls = p.type_by_name("Main").unwrap();
        assert!(!t.executed_methods.contains(&p.method_by_name(main_cls, "after").unwrap()));
    }

    #[test]
    fn catch_returns_matching_thrown_exception_or_null() {
        let (p, t) = run_main(
            "class Err { }
             class Main {
               static method main(): Err {
                 var e = catch (Err);     // nothing thrown yet -> null
                 return e;
               }
             }",
        );
        assert_eq!(t.outcome, Outcome::Returned(Some(ObservedValue::Null)));
        let _ = p;
    }

    #[test]
    fn null_dereference_aborts() {
        let (_, t) = run_main(
            "class A { method f(): int { return 1; } }
             class Main {
               static method main(): int {
                 var a = null;
                 return a.f();
               }
             }",
        );
        assert_eq!(t.outcome, Outcome::NullDereference);
    }

    #[test]
    fn recursion_hits_depth_limit() {
        let p = compile(
            "class Main {
               static method rec(): int { return Main.rec(); }
               static method main(): int { return Main.rec(); }
             }",
        )
        .unwrap();
        let main_cls = p.type_by_name("Main").unwrap();
        let main = p.method_by_name(main_cls, "main").unwrap();
        let t = run(&p, main, &[], &InterpConfig::default());
        assert_eq!(t.outcome, Outcome::StackOverflow);
    }

    #[test]
    fn traces_record_params_and_returns() {
        let (p, t) = run_main(
            "class Main {
               static method id(x: int): int { return x; }
               static method main(): int { return Main.id(9); }
             }",
        );
        let main_cls = p.type_by_name("Main").unwrap();
        let id = p.method_by_name(main_cls, "id").unwrap();
        assert!(t.param_values[&(id, 0)].contains(&ObservedValue::Int(9)));
        assert!(t.return_values[&id].contains(&ObservedValue::Int(9)));
    }

    #[test]
    fn any_is_deterministic_per_seed() {
        let p = compile(
            "class Main { static method main(): int { return any(); } }",
        )
        .unwrap();
        let main_cls = p.type_by_name("Main").unwrap();
        let main = p.method_by_name(main_cls, "main").unwrap();
        let a = run(&p, main, &[], &InterpConfig { seed: 7, ..Default::default() });
        let b = run(&p, main, &[], &InterpConfig { seed: 7, ..Default::default() });
        let c = run(&p, main, &[], &InterpConfig { seed: 8, ..Default::default() });
        assert_eq!(a.outcome, b.outcome);
        let _ = c; // different seeds may or may not differ; only determinism is asserted
    }

    #[test]
    fn phi_values_follow_the_taken_edge() {
        let (_, t) = run_main(
            "class Main {
               static method pick(c: int): int {
                 var x = 0;
                 if (c == 0) { x = 10; } else { x = 20; }
                 return x;
               }
               static method main(): int { return Main.pick(0); }
             }",
        );
        assert_eq!(t.outcome, Outcome::Returned(Some(ObservedValue::Int(10))));
    }
}
