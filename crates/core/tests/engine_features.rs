//! Behavioural tests for the engine features beyond the paper's worked
//! examples: invokes as predicates (always-throwing callees, infinite
//! loops), field flows, devirtualization, dynamic-feature handling
//! (reflection, unsafe), saturation, loops, and solver equivalence.

use skipflow_core::{analyze, AnalysisConfig, SolverKind, ValueState};
use skipflow_ir::frontend::compile;
use skipflow_ir::{MethodId, Program, TypeId};

fn run(src: &str, config: AnalysisConfig) -> (Program, skipflow_core::AnalysisResult) {
    let program = compile(src).expect("example compiles");
    let cls = program.type_by_name("Main").expect("Main class");
    let main = program.method_by_name(cls, "main").expect("main method");
    let result = analyze(&program, &[main], &config);
    (program, result)
}

fn method(p: &Program, class: &str, name: &str) -> MethodId {
    let c = p.type_by_name(class).unwrap_or_else(|| panic!("class {class}"));
    p.method_by_name(c, name)
        .unwrap_or_else(|| panic!("method {class}.{name}"))
}

fn class(p: &Program, name: &str) -> TypeId {
    p.type_by_name(name).unwrap_or_else(|| panic!("class {name}"))
}

// ---------------------------------------------------------------------------
// Method invocations as predicates (paper §3 and §5 "Handling Exceptions")
// ---------------------------------------------------------------------------

#[test]
fn always_throwing_callee_kills_following_code() {
    let src = "
        class AssertionError { }
        class Assert {
          static method fail(): void { throw new AssertionError(); }
        }
        class Main {
          static method afterFail(): void { return; }
          static method main(): void {
            Assert.fail();
            Main.afterFail();
          }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    assert!(result.is_reachable(method(&p, "Assert", "fail")));
    // fail() never returns: its invoke flow stays empty, so the following
    // statement is never enabled.
    assert!(!result.is_reachable(method(&p, "Main", "afterFail")));

    // The baseline cannot prove this.
    let (p, result) = run(src, AnalysisConfig::baseline_pta());
    assert!(result.is_reachable(method(&p, "Main", "afterFail")));
}

#[test]
fn infinite_loop_kills_following_code() {
    let src = "
        class Main {
          static method spin(): void {
            var going = 1;
            while (going == 1) { going = 1; }
          }
          static method after(): void { return; }
          static method main(): void {
            Main.spin();
            Main.after();
          }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    assert!(result.is_reachable(method(&p, "Main", "spin")));
    // spin() provably never returns (the loop condition filters 1 == 1 to
    // non-empty forever, the exit filter 1 != 1 to empty).
    assert!(!result.is_reachable(method(&p, "Main", "after")));
}

#[test]
fn catch_receives_thrown_and_instantiated_exceptions() {
    let src = "
        class Exception { }
        class IoException extends Exception { }
        class OtherError { }
        class Main {
          static method risky(): void { throw new IoException(); }
          static method main(): void {
            Main.risky();
            return;
          }
          static method handler(): Exception {
            var e = catch (Exception);
            return e;
          }
        }
    ";
    let program = compile(src).unwrap();
    let main = method(&program, "Main", "main");
    let handler = method(&program, "Main", "handler");
    let result = analyze(&program, &[main, handler], &AnalysisConfig::skipflow());
    let ret = result.return_state(handler).expect("handler returns");
    let types = ret.types().expect("exception types");
    assert!(types.contains(class(&program, "IoException")));
    // Not an Exception subtype: never enters the handler.
    assert!(!types.contains(class(&program, "OtherError")));
}

#[test]
fn precise_exceptions_config_only_sees_thrown_values() {
    // With coarse_exceptions off, an instantiated-but-never-thrown exception
    // does not reach the handler.
    let src = "
        class Exception { }
        class IoException extends Exception { }
        class NeverThrown extends Exception { }
        class Main {
          static method risky(): void { throw new IoException(); }
          static method main(): void {
            var x = new NeverThrown();
            Main.use(x);
            Main.risky();
            return;
          }
          static method use(e: Exception): void { return; }
          static method handler(): Exception {
            var e = catch (Exception);
            return e;
          }
        }
    ";
    let program = compile(src).unwrap();
    let main = method(&program, "Main", "main");
    let handler = method(&program, "Main", "handler");

    let coarse = AnalysisConfig::skipflow().with_coarse_exceptions(true);
    let result = analyze(&program, &[main, handler], &coarse);
    let types = result.return_state(handler).unwrap().types().unwrap().clone();
    assert!(types.contains(class(&program, "NeverThrown")), "coarse policy injects instantiated subtypes");

    let precise = AnalysisConfig::skipflow().with_coarse_exceptions(false);
    let result = analyze(&program, &[main, handler], &precise);
    let types = result.return_state(handler).unwrap().types().unwrap().clone();
    assert!(types.contains(class(&program, "IoException")));
    assert!(!types.contains(class(&program, "NeverThrown")));
}

// ---------------------------------------------------------------------------
// Field flows
// ---------------------------------------------------------------------------

#[test]
fn instance_field_flows_from_store_to_load() {
    let src = "
        class Box { var item: Item; }
        class Item { }
        class Main {
          static method main(): void {
            var b = new Box();
            b.item = new Item();
            var got = b.item;
            Main.use(got);
          }
          static method use(x: Item): void { return; }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    let use_m = method(&p, "Main", "use");
    let types = result.param_state(use_m, 0).unwrap().types().unwrap().clone();
    assert!(types.contains(class(&p, "Item")));
}

#[test]
fn static_field_flows_without_receiver() {
    let src = "
        class Config { static var current: Impl; }
        class Impl { }
        class Main {
          static method main(): void {
            Config.current = new Impl();
            var got = Config.current;
            Main.use(got);
          }
          static method use(x: Impl): void { return; }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    let use_m = method(&p, "Main", "use");
    let types = result.param_state(use_m, 0).unwrap().types().unwrap().clone();
    assert!(types.contains(class(&p, "Impl")));
}

#[test]
fn field_of_unreached_receiver_type_does_not_flow() {
    // A store through a receiver whose value state never contains the
    // declaring type does not pollute the field.
    let src = "
        class Box { var item: Item; }
        class Item { }
        class Main {
          static method store(b: Box): void {
            b.item = new Item();
          }
          static method main(): void {
            Main.store(null);
            return;
          }
          static method reader(b: Box): Item { return b.item; }
        }
    ";
    let program = compile(src).unwrap();
    let main = method(&program, "Main", "main");
    let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
    // store() runs with a null receiver: the Store rule finds no type t with
    // LookUp(t, item), so the field sink never receives Item.
    let sink_field = program.field_by_name(class(&program, "Box"), "item").unwrap();
    let g = result.graph();
    if let Some(sink) = g.field_sink_opt(sink_field) {
        // At most the default null — never the stored Item.
        assert!(
            g.flow(sink).out_state.le(&ValueState::null()),
            "field must hold at most the default value, got {:?}",
            g.flow(sink).out_state
        );
    }
}

// ---------------------------------------------------------------------------
// Dispatch and devirtualization
// ---------------------------------------------------------------------------

const DISPATCH: &str = "
    abstract class Shape { abstract method area(): int; }
    class Circle extends Shape { method area(): int { return 3; } }
    class Square extends Shape { method area(): int { return 4; } }
    class Main {
      static method compute(s: Shape): int { return s.area(); }
      static method main(): void {
        var c = new Circle();
        Main.compute(c);
        CIRCLE_ONLY
      }
    }
";

#[test]
fn single_receiver_type_devirtualizes() {
    let src = DISPATCH.replace("CIRCLE_ONLY", "return;");
    let (p, result) = run(&src, AnalysisConfig::skipflow());
    let compute = method(&p, "Main", "compute");
    assert!(result.is_reachable(method(&p, "Circle", "area")));
    assert!(!result.is_reachable(method(&p, "Square", "area")));
    let devirt = result.devirtualized_sites(compute);
    assert_eq!(devirt.len(), 1);
    assert_eq!(devirt[0].1, method(&p, "Circle", "area"));
    // The call result is the constant 3.
    assert_eq!(result.return_state(compute), Some(&ValueState::Const(3)));
}

#[test]
fn two_receiver_types_stay_polymorphic() {
    let src = DISPATCH.replace("CIRCLE_ONLY", "Main.compute(new Square());");
    let (p, result) = run(&src, AnalysisConfig::skipflow());
    let compute = method(&p, "Main", "compute");
    assert!(result.is_reachable(method(&p, "Circle", "area")));
    assert!(result.is_reachable(method(&p, "Square", "area")));
    assert!(result.devirtualized_sites(compute).is_empty());
    let sites = result.call_sites(compute);
    assert_eq!(sites[0].targets.len(), 2);
    // 3 ∨ 4 = Any.
    assert_eq!(result.return_state(compute), Some(&ValueState::Any));
}

#[test]
fn null_receiver_resolves_nothing() {
    let src = "
        class T { method m(): void { return; } }
        class Main {
          static method main(): void {
            var x = null;
            Main.call(x);
          }
          static method call(t: T): void { t.m(); }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    assert!(!result.is_reachable(method(&p, "T", "m")));
}

// ---------------------------------------------------------------------------
// Declared-type filtering
// ---------------------------------------------------------------------------

#[test]
fn declared_type_filtering_narrows_parameters() {
    let src = "
        class A { }
        class B { }
        class Main {
          static method pick(c: int): A {
            if (c == 0) { return new A(); }
            return new A();
          }
          static method takesA(x: A): void { return; }
          static method main(): void {
            Main.takesA(Main.pick(any()));
            Main.unrelated(new B());
          }
          static method unrelated(b: B): void { return; }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    let takes_a = method(&p, "Main", "takesA");
    let types = result.param_state(takes_a, 0).unwrap().types().unwrap().clone();
    assert!(types.contains(class(&p, "A")));
    assert!(!types.contains(class(&p, "B")));
}

// ---------------------------------------------------------------------------
// Reflection / Unsafe (paper §5)
// ---------------------------------------------------------------------------

#[test]
fn reflective_roots_inject_instantiated_subtypes() {
    let src = "
        class Plugin { method run(): void { return; } }
        class FancyPlugin extends Plugin { method run(): void { return; } }
        class Main {
          static method main(): void {
            var p = new FancyPlugin();
            Main.use(p);
          }
          static method use(p: Plugin): void { return; }
          static method reflectiveEntry(p: Plugin): void { p.run(); }
        }
    ";
    let program = compile(src).unwrap();
    let main = method(&program, "Main", "main");
    let entry = method(&program, "Main", "reflectiveEntry");
    let config = AnalysisConfig::skipflow().with_reflective_roots([entry]);
    let result = analyze(&program, &[main], &config);
    assert!(result.is_reachable(entry));
    // The reflective parameter receives the instantiated subtype, so the
    // override is reachable.
    assert!(result.is_reachable(method(&program, "FancyPlugin", "run")));
    // The base Plugin.run is NOT reachable: Plugin itself is never
    // instantiated, so dispatch only sees FancyPlugin.
    assert!(!result.is_reachable(method(&program, "Plugin", "run")));
}

#[test]
fn reflective_fields_receive_instantiated_subtypes() {
    let src = "
        class Handler { }
        class CustomHandler extends Handler { }
        class Registry { var handler: Handler; }
        class Main {
          static method main(): void {
            var h = new CustomHandler();
            Main.use(h);
            var r = new Registry();
            var got = r.handler;
            Main.read(got);
          }
          static method use(h: Handler): void { return; }
          static method read(h: Handler): void { return; }
        }
    ";
    let program = compile(src).unwrap();
    let main = method(&program, "Main", "main");
    let field = program
        .field_by_name(class(&program, "Registry"), "handler")
        .unwrap();
    let config = AnalysisConfig::skipflow().with_reflective_fields([field]);
    let result = analyze(&program, &[main], &config);
    let read = method(&program, "Main", "read");
    let types = result.param_state(read, 0).unwrap().types().unwrap().clone();
    assert!(
        types.contains(class(&program, "CustomHandler")),
        "reflective field injects instantiated subtypes: {types:?}"
    );
}

#[test]
fn unsafe_fields_unify_stores_and_loads() {
    let src = "
        class A { var x: Val; }
        class B { var y: Val; }
        class Val { }
        class Main {
          static method main(): void {
            var a = new A();
            a.x = new Val();
            var b = new B();
            var got = b.y;     // never stored directly
            Main.use(got);
          }
          static method use(v: Val): void { return; }
        }
    ";
    let program = compile(src).unwrap();
    let main = method(&program, "Main", "main");
    let fx = program.field_by_name(class(&program, "A"), "x").unwrap();
    let fy = program.field_by_name(class(&program, "B"), "y").unwrap();

    // Without the unsafe marking, b.y holds at most its default null.
    let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
    let use_m = method(&program, "Main", "use");
    assert!(result.param_state(use_m, 0).unwrap().le(&ValueState::null()));

    // Marking both fields unsafe routes the store into the load.
    let config = AnalysisConfig::skipflow().with_unsafe_fields([fx, fy]);
    let result = analyze(&program, &[main], &config);
    let types = result.param_state(use_m, 0).unwrap().types().unwrap().clone();
    assert!(types.contains(class(&program, "Val")));
}

// ---------------------------------------------------------------------------
// Loops
// ---------------------------------------------------------------------------

#[test]
fn loop_carried_values_reach_uses_inside_the_loop() {
    let src = "
        class Node { var next: Node; }
        class Main {
          static method walk(head: Node): Node {
            var cur = head;
            while (cur != null) { cur = cur.next; }
            return cur;
          }
          static method main(): void {
            var a = new Node();
            a.next = new Node();
            Main.walk(a);
          }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    let walk = method(&p, "Main", "walk");
    assert!(result.is_reachable(walk));
    // The loop exit filters cur == null: the returned value is exactly null.
    assert_eq!(result.return_state(walk), Some(&ValueState::null()));
}

#[test]
fn loop_condition_on_any_keeps_both_exits_live() {
    let src = "
        class Main {
          static method inside(): void { return; }
          static method after(): void { return; }
          static method main(): void {
            var i = 0;
            while (i < 10) { Main.inside(); i = any(); }
            Main.after();
          }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    assert!(result.is_reachable(method(&p, "Main", "inside")));
    assert!(result.is_reachable(method(&p, "Main", "after")));
}

// ---------------------------------------------------------------------------
// Saturation & solvers
// ---------------------------------------------------------------------------

fn many_types_src() -> String {
    // 12 subclasses flowing into one parameter.
    let mut src = String::from("abstract class Base { abstract method id(): int; }\n");
    for i in 0..12 {
        src.push_str(&format!(
            "class C{i} extends Base {{ method id(): int {{ return {i}; }} }}\n"
        ));
    }
    src.push_str(
        "class Main {
           static method use(b: Base): int { return b.id(); }
           static method main(): void {\n",
    );
    for i in 0..12 {
        src.push_str(&format!("Main.use(new C{i}());\n"));
    }
    src.push_str("} }\n");
    src
}

#[test]
fn saturation_widens_but_stays_sound() {
    let src = many_types_src();
    let program = compile(&src).unwrap();
    let main = method(&program, "Main", "main");

    let exact = analyze(&program, &[main], &AnalysisConfig::skipflow());
    let saturated = analyze(
        &program,
        &[main],
        &AnalysisConfig::skipflow().with_saturation(4),
    );
    // Saturation must not lose reachable methods.
    assert!(exact
        .reachable_methods()
        .is_subset(saturated.reachable_methods()));
    // All 12 id() overrides reachable in both.
    for i in 0..12 {
        let m = method(&program, &format!("C{i}"), "id");
        assert!(exact.is_reachable(m));
        assert!(saturated.is_reachable(m));
    }
    // The saturated parameter widened to Any.
    let use_m = method(&program, "Main", "use");
    assert_eq!(saturated.param_state(use_m, 0), Some(&ValueState::Any));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

#[test]
fn metrics_count_surviving_checks_and_polycalls() {
    let src = "
        abstract class Shape { abstract method area(): int; }
        class Circle extends Shape { method area(): int { return 3; } }
        class Square extends Shape { method area(): int { return 4; } }
        class Main {
          static method main(): void {
            var s = Main.pick(any());
            var a = s.area();              // polymorphic: 2 targets
            if (a < 4) { Main.small(); }   // surviving prim check (a = Any)
            var dead = 1;
            if (dead == 2) { Main.never(); }  // foldable prim check
          }
          static method pick(c: int): Shape {
            if (c == 0) { return new Circle(); }
            return new Square();
          }
          static method small(): void { return; }
          static method never(): void { return; }
        }
    ";
    let (p, result) = run(src, AnalysisConfig::skipflow());
    let m = result.metrics(&p);
    assert!(!result.is_reachable(method(&p, "Main", "never")));
    assert!(result.is_reachable(method(&p, "Main", "small")));
    assert_eq!(m.poly_calls, 1, "s.area() cannot be devirtualized");
    // `a < 4` survives; `dead == 2` and `c == 0` fold…
    // (`c == 0` survives too: c is Any). So prim checks = 2.
    assert_eq!(m.prim_checks, 2, "{m:?}");

    // The baseline counts the folded check as well.
    let (p2, base) = run(src, AnalysisConfig::baseline_pta());
    let bm = base.metrics(&p2);
    assert!(bm.prim_checks >= 3, "{bm:?}");
    assert!(bm.reachable_methods > m.reachable_methods);
    assert!(bm.binary_size_bytes > m.binary_size_bytes);
}

#[test]
fn loop_body_call_in_late_built_callee_is_reachable() {
    // Regression test: `Worker.go` is only discovered by virtual dispatch
    // *during* solving, after `pred_on` has already fired. Its loop header's
    // φ_pred hangs directly off `pred_on` (the jump from the start block),
    // so the builder must queue it for immediate enabling — `pred_on` never
    // walks its predicate successors again. Before the fix, the loop body
    // (and `Main.tick`) was wrongly dead while the interpreter executed it.
    let src = "
        class Main {
          static method tick(): void { return; }
          static method main(): void {
            var w = new Worker();
            w.go();
            return;
          }
        }
        class Worker {
          method go(): void {
            var i = 0;
            while (i < 3) { Main.tick(); i = any(); }
            return;
          }
        }";
    for solver in [
        SolverKind::Sequential,
        SolverKind::Reference,
    ] {
        let (p, result) = run(src, AnalysisConfig::skipflow().with_solver(solver));
        assert!(
            result.is_reachable(method(&p, "Main", "tick")),
            "{solver:?}: loop-body call must be reachable"
        );
    }
}

#[test]
fn skipflow_never_reaches_more_than_baseline() {
    for src in [DISPATCH.replace("CIRCLE_ONLY", "return;"), many_types_src()] {
        let program = compile(&src).unwrap();
        let main = method(&program, "Main", "main");
        let sf = analyze(&program, &[main], &AnalysisConfig::skipflow());
        let pta = analyze(&program, &[main], &AnalysisConfig::baseline_pta());
        assert!(
            sf.reachable_methods().is_subset(pta.reachable_methods()),
            "SkipFlow must be at least as precise as the baseline"
        );
    }
}
