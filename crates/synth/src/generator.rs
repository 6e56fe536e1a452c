//! The deterministic program generator.
//!
//! Programs are assembled from *modules* — clusters of one interface,
//! several implementations with call chains, and a facade with a dispatch
//! helper — mirroring how library subsystems hang off entry points in the
//! paper's benchmarks. *Live* modules are invoked directly from `main`;
//! *dead* modules sit behind one of the guard patterns of
//! [`GuardKind`](crate::GuardKind), which SkipFlow folds and the baseline
//! PTA cannot.
//!
//! Everything is seeded: the same [`BenchmarkSpec`] always yields the same
//! program, bit for bit.

use crate::spec::{BenchmarkSpec, GuardKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipflow_ir::{
    BranchExit, CmpOp, Cond, MethodId, Program, ProgramBuilder, SelectorId, TypeId,
    TypeRef,
};

/// A generated benchmark program.
#[derive(Debug)]
pub struct Benchmark {
    /// The spec the program was generated from.
    pub spec: BenchmarkSpec,
    /// The program itself.
    pub program: Program,
    /// Analysis entry points (`main`).
    pub roots: Vec<MethodId>,
    /// Extra entry points to register as reflective roots (empty unless the
    /// spec asks for them).
    pub reflective_roots: Vec<MethodId>,
    /// Concrete methods emitted into live code (reachable under every
    /// configuration).
    pub live_methods: usize,
    /// Concrete methods emitted into guarded modules (reachable under PTA,
    /// pruned by SkipFlow).
    pub dead_methods: usize,
}

impl Benchmark {
    /// Total concrete methods generated.
    pub fn total_methods(&self) -> usize {
        self.live_methods + self.dead_methods
    }
}

/// Builds the program described by `spec`.
///
/// # Panics
///
/// Panics if the generated program fails IR validation — that would be a
/// generator bug, not a user error.
pub fn build_benchmark(spec: &BenchmarkSpec) -> Benchmark {
    let mut g = Gen {
        pb: ProgramBuilder::new(),
        rng: StdRng::seed_from_u64(spec.seed),
        spec: spec.clone(),
        live_methods: 0,
        dead_methods: 0,
        live_entries: Vec::new(),
        wires: Vec::new(),
        fail_helper: None,
        next_module: 0,
    };

    let dead_target = (spec.total_methods as f64 * spec.dead_fraction).round() as usize;
    let live_target = spec.total_methods.saturating_sub(dead_target);

    // The shared-field fan-out subsystem comes first so the budget loop
    // below absorbs its method count into the live target.
    if spec.shared_sink_readers > 0 {
        let drive = g.emit_shared_hub(
            spec.shared_sink_readers,
            spec.shared_sink_writers.max(1),
        );
        g.live_entries.push(drive);
    }

    // Alternate live and dead module emission so cross-module call targets
    // exist early and ids interleave like real programs.
    let fanout = spec.dispatch_fanout.max(1);
    let depth = spec.chain_depth.max(1);
    while g.live_methods < live_target || g.dead_methods < dead_target {
        if g.live_methods < live_target {
            let module = g.emit_module(false, fanout, depth);
            g.live_entries.push(module.run);
        }
        if g.dead_methods < dead_target {
            // Shrink the last dead modules so small calibration targets are
            // met without a full-module overshoot.
            let remaining = dead_target - g.dead_methods;
            let full = fanout * (depth + 1) + 2;
            let (df, dd) = if remaining < full { (2, 1) } else { (fanout, depth) };
            let roll = g.rng.gen::<u32>();
            let kind = spec.guard_mix.pick(roll);
            let module = g.emit_module(true, df, dd);
            let wire = g.emit_guard(kind, &module);
            g.wires.push(wire);
        }
    }

    // Reflective entries (Spark-shaped benchmarks register analysis roots
    // via configuration files; paper §5).
    let mut reflective_roots = Vec::new();
    if !g.live_entries.is_empty() {
        for i in 0..g.spec_reflective_entries() {
            reflective_roots.push(g.emit_reflective_entry(i));
        }
    }

    // main(): invoke all live entries and all wires.
    let main_cls = g.pb.add_class("Main");
    let main = g
        .pb
        .method(main_cls, "main")
        .static_()
        .returns(TypeRef::Void)
        .build();
    let entries = g.live_entries.clone();
    let wires = g.wires.clone();
    g.pb.build_body(main, |bb| {
        for e in &entries {
            let _ = bb.invoke_static(*e, &[]);
        }
        for w in &wires {
            let _ = bb.invoke_static(*w, &[]);
        }
        bb.ret(None);
    });
    g.live_methods += 1;

    let program = g
        .pb
        .finish()
        .unwrap_or_else(|e| panic!("generator produced invalid IR for {}: {e}", spec.name));
    Benchmark {
        spec: spec.clone(),
        program,
        roots: vec![main],
        reflective_roots,
        live_methods: g.live_methods,
        dead_methods: g.dead_methods,
    }
}

struct ModuleHandle {
    iface: TypeId,
    impls: Vec<TypeId>,
    enter_sel: SelectorId,
    run: MethodId,
}

struct Gen {
    pb: ProgramBuilder,
    rng: StdRng,
    spec: BenchmarkSpec,
    live_methods: usize,
    dead_methods: usize,
    live_entries: Vec<MethodId>,
    wires: Vec<MethodId>,
    fail_helper: Option<(MethodId, TypeId)>,
    next_module: usize,
}

/// What kind of branching instruction a work method carries.
#[derive(Clone, Copy, PartialEq)]
enum CheckKind {
    None,
    Prim,
    Null,
}

impl Gen {
    fn spec_reflective_entries(&self) -> usize {
        // Spark-shaped Renaissance benchmarks get a reflective surface; the
        // heuristic keys off the large-program sizes used by those specs.
        if self.spec.suite == crate::Suite::Renaissance && self.spec.total_methods >= 2000 {
            4
        } else {
            0
        }
    }

    fn count(&mut self, dead: bool, n: usize) {
        if dead {
            self.dead_methods += n;
        } else {
            self.live_methods += n;
        }
    }

    /// Emits one module: `fanout` implementations of a fresh interface, each
    /// with a call chain of `depth` static helpers, plus a facade with a
    /// dispatching helper and a loop-shaped entry point.
    fn emit_module(&mut self, dead: bool, fanout: usize, depth: usize) -> ModuleHandle {
        let idx = self.next_module;
        self.next_module += 1;
        let n = format!("M{idx}");

        // ---- declarations ---------------------------------------------
        let iface = self.pb.add_interface(&format!("{n}Iface"), &[]);
        self.pb
            .method(iface, "enter")
            .returns(TypeRef::Prim)
            .abstract_()
            .build();
        let enter_sel = self.pb.selector("enter", 0);

        let mut impls = Vec::with_capacity(fanout);
        let mut enters = Vec::with_capacity(fanout);
        let mut works: Vec<Vec<MethodId>> = Vec::with_capacity(fanout);
        let mut buddies = Vec::with_capacity(fanout);
        for k in 0..fanout {
            let cls = self
                .pb
                .class(&format!("{n}Impl{k}"))
                .implements_(iface)
                .build();
            impls.push(cls);
            buddies.push(self.pb.add_field(cls, "buddy", TypeRef::Object(iface)));
            enters.push(self.pb.method(cls, "enter").returns(TypeRef::Prim).build());
            let chain: Vec<MethodId> = (0..depth)
                .map(|d| {
                    self.pb
                        .method(cls, &format!("work{d}"))
                        .static_()
                        .returns(TypeRef::Prim)
                        .build()
                })
                .collect();
            works.push(chain);
            self.count(dead, depth + 1);
        }

        let facade = self.pb.add_class(&format!("{n}Facade"));
        let dispatch = self
            .pb
            .method(facade, "dispatch")
            .static_()
            .params(vec![TypeRef::Object(iface)])
            .returns(TypeRef::Prim)
            .build();
        let run = self
            .pb
            .method(facade, "run")
            .static_()
            .returns(TypeRef::Prim)
            .build();
        self.count(dead, 2);

        // ---- bodies ------------------------------------------------------
        // enter(): optional buddy store, null-checked buddy dispatch, then
        // the work chain.
        for k in 0..fanout {
            let store_buddy = self.rng.gen_bool(0.5);
            let cls = impls[k];
            let buddy = buddies[k];
            let work0 = works[k][0];
            self.pb.build_body(enters[k], move |bb| {
                let this = bb.param(0);
                if store_buddy {
                    let o = bb.new_obj(cls);
                    bb.store(this, buddy, o);
                }
                let b = bb.load(this, buddy);
                let nl = bb.null_();
                bb.if_then(
                    Cond::Cmp {
                        op: CmpOp::Ne,
                        lhs: b,
                        rhs: nl,
                    },
                    |bb| {
                        let _ = bb.invoke(b, enter_sel, &[]);
                        BranchExit::fallthrough()
                    },
                );
                let r = bb.invoke_static(work0, &[]);
                bb.ret(Some(r));
            });

            // Work chain: each hop may carry a check. The chain must bottom
            // out (the analysis is right to treat a cycle with no base case
            // as never returning), so the last hop produces an opaque value.
            for d in 0..depth {
                let target = if d + 1 < depth {
                    Some(works[k][d + 1])
                } else {
                    None
                };
                let check = match self.rng.gen_range(0..4u32) {
                    0 => CheckKind::Prim,
                    1 => CheckKind::Null,
                    _ => CheckKind::None,
                };
                let threshold = self.rng.gen_range(-5i64..20);
                let alloc_cls = impls[self.rng.gen_range(0..fanout)];
                let buddy_field = buddies[self.rng.gen_range(0..fanout)];
                let buddy_owner = {
                    // buddy fields are declared per impl; pick the matching
                    // class so the load is well-typed.
                    let i = buddies.iter().position(|b| *b == buddy_field).unwrap();
                    impls[i]
                };
                self.pb.build_body(works[k][d], move |bb| {
                    match check {
                        CheckKind::Prim => {
                            let v = bb.any_prim();
                            let t = bb.const_(threshold);
                            bb.if_then(
                                Cond::Cmp {
                                    op: CmpOp::Lt,
                                    lhs: v,
                                    rhs: t,
                                },
                                |bb| {
                                    let _ = bb.const_(1);
                                    BranchExit::fallthrough()
                                },
                            );
                        }
                        CheckKind::Null => {
                            let o = bb.new_obj(buddy_owner);
                            let b = bb.load(o, buddy_field);
                            let nl = bb.null_();
                            bb.if_then(
                                Cond::Cmp {
                                    op: CmpOp::Eq,
                                    lhs: b,
                                    rhs: nl,
                                },
                                |bb| {
                                    let _ = bb.const_(0);
                                    BranchExit::fallthrough()
                                },
                            );
                        }
                        CheckKind::None => {
                            let o = bb.new_obj(alloc_cls);
                            let _ = o;
                        }
                    }
                    let r = match target {
                        Some(t) => bb.invoke_static(t, &[]),
                        None => bb.any_prim(),
                    };
                    bb.ret(Some(r));
                });
            }
        }

        // dispatch(x): an instanceof check that survives when the module has
        // more than one implementation, then a virtual call (the PolyCalls
        // metric source).
        let impl0 = impls[0];
        self.pb.build_body(dispatch, move |bb| {
            let x = bb.param(0);
            let j = bb.if_else(
                Cond::InstanceOf {
                    var: x,
                    ty: impl0,
                    negated: false,
                },
                |bb| BranchExit::value(bb.invoke(x, enter_sel, &[])),
                |bb| BranchExit::value(bb.invoke(x, enter_sel, &[])),
            );
            bb.ret(Some(j[0]));
        });

        // run(): allocate every implementation and dispatch over them inside
        // a loop with an opaque bound (both loop exits stay live). With
        // `loop_calls` the body allocates and dispatches per iteration, so
        // callees are entered from inside a loop — their enabling predicate
        // (the loop body's φ_pred) is exactly the late-built predicate
        // plumbing the interpreter-differential proptests must exercise.
        let impls_clone = impls.clone();
        let cross = if !dead && !self.live_entries.is_empty() && self.rng.gen_bool(0.25) {
            Some(self.live_entries[self.rng.gen_range(0..self.live_entries.len())])
        } else {
            None
        };
        let bound = self.rng.gen_range(2i64..6);
        let loop_impl = impls[self.rng.gen_range(0..fanout)];
        let loop_calls = self.spec.loop_calls;
        self.pb.build_body(run, move |bb| {
            let mut acc = bb.const_(0);
            for &imp in &impls_clone {
                let o = bb.new_obj(imp);
                acc = bb.invoke_static(dispatch, &[o]);
            }
            let zero = bb.const_(0);
            let limit = bb.const_(bound);
            let after = bb.while_loop(
                &[zero],
                |_, p| Cond::Cmp {
                    op: CmpOp::Lt,
                    lhs: p[0],
                    rhs: limit,
                },
                |bb, _| {
                    if loop_calls {
                        let o = bb.new_obj(loop_impl);
                        let r = bb.invoke_static(dispatch, &[o]);
                        BranchExit::Values(vec![r])
                    } else {
                        BranchExit::Values(vec![bb.any_prim()])
                    }
                },
            );
            let _ = after;
            if let Some(c) = cross {
                acc = bb.invoke_static(c, &[]);
            }
            bb.ret(Some(acc));
        });

        ModuleHandle {
            iface,
            impls,
            enter_sel,
            run,
        }
    }

    /// Emits the guard wiring for a dead module and returns the wire method
    /// (live, called from `main`).
    fn emit_guard(&mut self, kind: GuardKind, module: &ModuleHandle) -> MethodId {
        let idx = self.wires.len();
        let n = format!("Guard{idx}");
        let run = module.run;
        match kind {
            GuardKind::ConstFlag => {
                // class Config { static enabled(): int { return 0; } }
                // wire: if (Config.enabled() != 0) { run(); }
                let cfg = self.pb.add_class(&format!("{n}Config"));
                let enabled = self
                    .pb
                    .method(cfg, "enabled")
                    .static_()
                    .returns(TypeRef::Prim)
                    .build();
                self.pb.set_trivial_body(enabled, Some(0));
                let wire = self.wire_method(&n);
                self.pb.build_body(wire, move |bb| {
                    let f = bb.invoke_static(enabled, &[]);
                    let zero = bb.const_(0);
                    bb.if_then(
                        Cond::Cmp {
                            op: CmpOp::Ne,
                            lhs: f,
                            rhs: zero,
                        },
                        |bb| {
                            let _ = bb.invoke_static(run, &[]);
                            BranchExit::fallthrough()
                        },
                    );
                    bb.ret(None);
                });
                self.live_methods += 2;
                wire
            }
            GuardKind::TypeTest => {
                // The Figure 2 pattern: an interprocedural boolean-returning
                // type test against a never-instantiated subclass.
                let probe = self.pb.add_class(&format!("{n}Probe"));
                let special = self
                    .pb
                    .class(&format!("{n}Special"))
                    .extends(probe)
                    .abstract_()
                    .build();
                let is_special = self
                    .pb
                    .method(probe, "isSpecial")
                    .returns(TypeRef::Prim)
                    .build();
                self.pb.build_body(is_special, move |bb| {
                    let this = bb.param(0);
                    bb.if_then(
                        Cond::InstanceOf {
                            var: this,
                            ty: special,
                            negated: false,
                        },
                        |bb| {
                            let one = bb.const_(1);
                            bb.ret(Some(one));
                            BranchExit::Terminated
                        },
                    );
                    let zero = bb.const_(0);
                    bb.ret(Some(zero));
                });
                let sel = self.pb.selector("isSpecial", 0);
                let wire = self.wire_method(&n);
                self.pb.build_body(wire, move |bb| {
                    let p = bb.new_obj(probe);
                    let s = bb.invoke(p, sel, &[]);
                    let zero = bb.const_(0);
                    bb.if_then(
                        Cond::Cmp {
                            op: CmpOp::Ne,
                            lhs: s,
                            rhs: zero,
                        },
                        |bb| {
                            let _ = bb.invoke_static(run, &[]);
                            BranchExit::fallthrough()
                        },
                    );
                    bb.ret(None);
                });
                self.live_methods += 2;
                wire
            }
            GuardKind::NullDefault => {
                // The Figure 1 pattern: a never-null value receives a dead
                // default allocation under an `== null` guard.
                let seed = self
                    .pb
                    .class(&format!("{n}Seed"))
                    .implements_(module.iface)
                    .build();
                let seed_enter = self.pb.method(seed, "enter").returns(TypeRef::Prim).build();
                self.pb.set_trivial_body(seed_enter, Some(1));
                let boot = self.pb.add_class(&format!("{n}Boot"));
                let ensure = self
                    .pb
                    .method(boot, "ensure")
                    .static_()
                    .params(vec![TypeRef::Object(module.iface)])
                    .returns(TypeRef::Void)
                    .build();
                let impl0 = module.impls[0];
                let enter_sel = module.enter_sel;
                self.pb.build_body(ensure, move |bb| {
                    let x = bb.param(0);
                    let nl = bb.null_();
                    // Figure 1: the default allocation *and* the module boot
                    // both live in the never-taken branch.
                    let d = bb.if_else(
                        Cond::Cmp {
                            op: CmpOp::Eq,
                            lhs: x,
                            rhs: nl,
                        },
                        |bb| {
                            let o = bb.new_obj(impl0);
                            let _ = bb.invoke_static(run, &[]);
                            BranchExit::value(o)
                        },
                        |_| BranchExit::value(x),
                    );
                    let _ = bb.invoke(d[0], enter_sel, &[]);
                    bb.ret(None);
                });
                let wire = self.wire_method(&n);
                self.pb.build_body(wire, move |bb| {
                    let s = bb.new_obj(seed);
                    bb.invoke_static(ensure, &[s]);
                    bb.ret(None);
                });
                self.live_methods += 3;
                wire
            }
            GuardKind::AlwaysThrows => {
                let (fail, panic_cls) = self.fail_helper();
                let wire = self.wire_method(&n);
                self.pb.build_body(wire, move |bb| {
                    let c = bb.any_prim();
                    let one = bb.const_(1);
                    bb.if_then(
                        Cond::Cmp {
                            op: CmpOp::Eq,
                            lhs: c,
                            rhs: one,
                        },
                        |bb| {
                            bb.invoke_static(fail, &[]);
                            // Unreachable at runtime — and, with predicate
                            // edges, to the analysis too.
                            let _ = bb.invoke_static(run, &[]);
                            BranchExit::fallthrough()
                        },
                    );
                    // A handler after the guarded region: exercises the
                    // coarse exception policy (paper §5) inside the corpus
                    // and contributes a realistic surviving null check.
                    let e = bb.catch_(panic_cls);
                    let nl = bb.null_();
                    bb.if_then(
                        Cond::Cmp {
                            op: CmpOp::Ne,
                            lhs: e,
                            rhs: nl,
                        },
                        |bb| {
                            let _ = bb.const_(0);
                            BranchExit::fallthrough()
                        },
                    );
                    bb.ret(None);
                });
                self.live_methods += 1;
                wire
            }
        }
    }

    /// The shared `Assert.fail()`-style helper (one per program), plus its
    /// panic class for handlers.
    fn fail_helper(&mut self) -> (MethodId, TypeId) {
        if let Some(f) = self.fail_helper {
            return f;
        }
        let panic_cls = self.pb.add_class("PanicError");
        let assert_cls = self.pb.add_class("Assert");
        let fail = self
            .pb
            .method(assert_cls, "fail")
            .static_()
            .returns(TypeRef::Void)
            .build();
        self.pb.build_body(fail, move |bb| {
            let e = bb.new_obj(panic_cls);
            bb.throw(e);
        });
        self.live_methods += 1;
        self.fail_helper = Some((fail, panic_cls));
        (fail, panic_cls)
    }

    fn wire_method(&mut self, name: &str) -> MethodId {
        let cls = self.pb.add_class(&format!("{name}Wire"));
        self.pb
            .method(cls, "wire")
            .static_()
            .returns(TypeRef::Void)
            .build()
    }

    /// Emits the shared-field fan-out subsystem: `writers` hub
    /// implementations stored one by one into a *single* field (one field
    /// sink in the PVPG), and `readers` methods each loading that field and
    /// dispatching on the result. Every store adds one type to the sink's
    /// value state, and every addition must reach all readers — the regime
    /// where SCC priority scheduling drains all writers before the sink
    /// fans out, while FIFO re-pushes the growing state once per writer.
    /// Returns the live driver method.
    fn emit_shared_hub(&mut self, readers: usize, writers: usize) -> MethodId {
        let iface = self.pb.add_interface("HubIface", &[]);
        self.pb
            .method(iface, "tick")
            .returns(TypeRef::Prim)
            .abstract_()
            .build();
        let tick_sel = self.pb.selector("tick", 0);
        let hub = self.pb.add_class("Hub");
        let sink = self.pb.add_field(hub, "sink", TypeRef::Object(iface));

        let mut write_methods = Vec::with_capacity(writers);
        for k in 0..writers {
            let cls = self
                .pb
                .class(&format!("HubImpl{k}"))
                .implements_(iface)
                .build();
            let tick = self.pb.method(cls, "tick").returns(TypeRef::Prim).build();
            self.pb.set_trivial_body(tick, Some(k as i64));
            let write = self
                .pb
                .method(hub, &format!("write{k}"))
                .static_()
                .params(vec![TypeRef::Object(hub)])
                .returns(TypeRef::Void)
                .build();
            self.pb.build_body(write, move |bb| {
                let h = bb.param(0);
                let o = bb.new_obj(cls);
                bb.store(h, sink, o);
                bb.ret(None);
            });
            write_methods.push(write);
            self.count(false, 2);
        }

        let mut read_methods = Vec::with_capacity(readers);
        for k in 0..readers {
            let read = self
                .pb
                .method(hub, &format!("read{k}"))
                .static_()
                .params(vec![TypeRef::Object(hub)])
                .returns(TypeRef::Prim)
                .build();
            self.pb.build_body(read, move |bb| {
                let h = bb.param(0);
                let v = bb.load(h, sink);
                let nl = bb.null_();
                let j = bb.if_else(
                    Cond::Cmp {
                        op: CmpOp::Ne,
                        lhs: v,
                        rhs: nl,
                    },
                    |bb| BranchExit::value(bb.invoke(v, tick_sel, &[])),
                    |bb| BranchExit::value(bb.const_(0)),
                );
                bb.ret(Some(j[0]));
            });
            read_methods.push(read);
            self.count(false, 1);
        }

        let drive = self
            .pb
            .method(hub, "drive")
            .static_()
            .returns(TypeRef::Prim)
            .build();
        self.pb.build_body(drive, move |bb| {
            let h = bb.new_obj(hub);
            // Readers first: their sink → load use edges wire while the
            // sink is still empty, so every writer's store afterwards is an
            // *incremental* update that must fan out to all readers — what
            // separates a scheduler that drains the writers first from one
            // that fans out after every store.
            let mut acc = bb.const_(0);
            for r in &read_methods {
                acc = bb.invoke_static(*r, &[h]);
            }
            for w in &write_methods {
                let _ = bb.invoke_static(*w, &[h]);
            }
            bb.ret(Some(acc));
        });
        self.count(false, 1);
        drive
    }

    /// A reflective entry point: takes a module interface and dispatches.
    fn emit_reflective_entry(&mut self, i: usize) -> MethodId {
        // Reuse the first live module's interface: entries receive "any
        // instantiated subtype of the declared type" under §5's policy.
        let entry_cls = self.pb.add_class(&format!("ReflectiveEntry{i}"));
        let enter_sel = self.pb.selector("enter", 0);
        // Find any interface named M*Iface via the first live entry's owner…
        // simpler: declare the parameter as the facade-independent root of
        // dispatch — each entry gets its own tiny interface consumer.
        let m = self
            .pb
            .method(entry_cls, "invokeExternal")
            .static_()
            .params(vec![TypeRef::Prim])
            .returns(TypeRef::Prim)
            .build();
        let first_entry = self.live_entries[i % self.live_entries.len()];
        self.pb.build_body(m, move |bb| {
            let _ = enter_sel;
            let r = bb.invoke_static(first_entry, &[]);
            bb.ret(Some(r));
        });
        self.live_methods += 1;
        m
    }
}

/// Convenience: builds a benchmark directly from a spec reference.
pub fn build(spec: &BenchmarkSpec) -> Benchmark {
    build_benchmark(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Suite;

    fn small_spec() -> BenchmarkSpec {
        BenchmarkSpec::new("test-small", Suite::DaCapo, 120, 0.25)
    }

    #[test]
    fn generated_programs_validate() {
        let b = build_benchmark(&small_spec());
        assert!(b.program.method_count() > 0);
        assert_eq!(b.roots.len(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build_benchmark(&small_spec());
        let b = build_benchmark(&small_spec());
        assert_eq!(a.program.method_count(), b.program.method_count());
        assert_eq!(a.program.type_count(), b.program.type_count());
        assert_eq!(a.live_methods, b.live_methods);
        assert_eq!(a.dead_methods, b.dead_methods);
        // Same printed form, bit for bit.
        assert_eq!(
            skipflow_ir::printer::print_program(&a.program),
            skipflow_ir::printer::print_program(&b.program)
        );
    }

    #[test]
    fn method_budget_is_respected() {
        let spec = small_spec();
        let b = build_benchmark(&spec);
        let total = b.total_methods();
        // Module granularity allows overshoot by at most two modules.
        let module = spec.dispatch_fanout * (spec.chain_depth + 1) + 2 + 3;
        assert!(
            total >= spec.total_methods && total <= spec.total_methods + 2 * module,
            "total {total} vs target {}",
            spec.total_methods
        );
        // Dead fraction within a couple of modules of the target.
        let f = b.dead_methods as f64 / total as f64;
        assert!(
            (f - spec.dead_fraction).abs() < 0.15,
            "dead fraction {f} vs target {}",
            spec.dead_fraction
        );
    }

    #[test]
    fn zero_dead_fraction_yields_no_dead_modules() {
        let spec = BenchmarkSpec::new("all-live", Suite::DaCapo, 60, 0.0);
        let b = build_benchmark(&spec);
        assert_eq!(b.dead_methods, 0);
    }

    #[test]
    fn shared_sink_subsystem_is_emitted_on_request() {
        let spec = BenchmarkSpec::new("hub", Suite::DaCapo, 60, 0.0).with_shared_sink(12, 5);
        let b = build_benchmark(&spec);
        let hub = b.program.type_by_name("Hub").expect("hub class");
        for k in 0..12 {
            assert!(b.program.method_by_name(hub, &format!("read{k}")).is_some());
        }
        for k in 0..5 {
            assert!(b.program.method_by_name(hub, &format!("write{k}")).is_some());
            assert!(b.program.type_by_name(&format!("HubImpl{k}")).is_some());
        }
        assert!(b.program.method_by_name(hub, "drive").is_some());
        // Default specs stay hub-free (Table 1 calibration untouched).
        let plain = build_benchmark(&small_spec());
        assert!(plain.program.type_by_name("Hub").is_none());
    }
}
