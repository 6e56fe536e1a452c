//! Executable versions of the paper's worked examples: Figures 1–5 and the
//! fixed-point state of Figure 8.

use skipflow_core::{analyze, AnalysisConfig, ValueState};
use skipflow_ir::frontend::compile;
use skipflow_ir::{MethodId, Program, TypeId};

fn run(src: &str, main_class: &str, config: AnalysisConfig) -> (Program, skipflow_core::AnalysisResult) {
    let program = compile(src).expect("example compiles");
    let cls = program.type_by_name(main_class).expect("main class exists");
    let main = program
        .method_by_name(cls, "main")
        .expect("main method exists");
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

/// Figure 1 — the DaCapo Sunflow motivating example: `display` is never
/// null, so the guarded `new FrameDisplay()` never executes, the type is
/// never instantiated, and the GUI library behind `FrameDisplay.imageBegin`
/// stays unreachable.
const SUNFLOW: &str = "
    abstract class Display { abstract method imageBegin(): void; }
    class FileDisplay extends Display {
      method imageBegin(): void { return; }
    }
    class FrameDisplay extends Display {
      method imageBegin(): void { FrameDisplay.initAwt(); }
      static method initAwt(): void { return; }   // stands in for AWT/Swing
    }
    class Scene {
      method render(display: Display): void {
        var d = display;
        if (d == null) { d = new FrameDisplay(); }
        d.imageBegin();
      }
    }
    class Main {
      static method main(): void {
        var scene = new Scene();
        var display = new FileDisplay();
        scene.render(display);
      }
    }
";

#[test]
fn fig1_sunflow_skipflow_prunes_the_gui_library() {
    let (p, result) = run(SUNFLOW, "Main", AnalysisConfig::skipflow());
    // The predicate `d == null` never fires: FrameDisplay is not
    // instantiated and the AWT stand-in is unreachable.
    assert!(!result.is_instantiated(class(&p, "FrameDisplay")));
    assert!(!result.is_reachable(method(&p, "FrameDisplay", "imageBegin")));
    assert!(!result.is_reachable(method(&p, "FrameDisplay", "initAwt")));
    // The real display still works.
    assert!(result.is_reachable(method(&p, "FileDisplay", "imageBegin")));
}

#[test]
fn fig1_sunflow_baseline_pta_drags_the_gui_library_in() {
    let (p, result) = run(SUNFLOW, "Main", AnalysisConfig::baseline_pta());
    // Without predicate edges the spurious path
    // new FrameDisplay() ⇝ display ⇝ imageBegin() exists.
    assert!(result.is_instantiated(class(&p, "FrameDisplay")));
    assert!(result.is_reachable(method(&p, "FrameDisplay", "imageBegin")));
    assert!(result.is_reachable(method(&p, "FrameDisplay", "initAwt")));
}

/// Figure 2 / 7 / 8 — the JDK `SharedThreadContainer.onExit` example: the
/// application never creates virtual threads, so `isVirtual()` returns only
/// the constant 0 and the body of the `if` (the `remove()` call) is dead.
const JDK_ISVIRTUAL: &str = "
    abstract class BaseVirtualThread extends Thread { }
    class Thread {
      method isVirtual(): int {
        if (this instanceof BaseVirtualThread) { return 1; }
        return 0;
      }
    }
    class VirtualThread extends BaseVirtualThread { }
    class PlatformThread extends Thread { }
    class ThreadSet {
      method remove(t: Thread): void { return; }
    }
    class SharedThreadContainer {
      var virtualThreads: ThreadSet;
      method onExit(thread: Thread): void {
        if (thread.isVirtual()) {
          var s = this.virtualThreads;
          s.remove(thread);
        }
      }
    }
    class Main {
      static method main(): void {
        var c = new SharedThreadContainer();
        c.virtualThreads = new ThreadSet();
        var t = new PlatformThread();
        c.onExit(t);
      }
    }
";

#[test]
fn fig8_isvirtual_fixed_point_state() {
    let (p, result) = run(JDK_ISVIRTUAL, "Main", AnalysisConfig::skipflow());
    let is_virtual = method(&p, "Thread", "isVirtual");
    let on_exit = method(&p, "SharedThreadContainer", "onExit");
    let remove = method(&p, "ThreadSet", "remove");

    // Paper Figure 8: VS(Return) = {0} — only the else branch of the type
    // check returns.
    assert_eq!(result.return_state(is_virtual), Some(&ValueState::Const(0)));

    // VirtualThread ∉ VS(p_thread).
    let p_thread = result.param_state(on_exit, 1).expect("onExit reachable");
    let types = p_thread.types().expect("object state");
    assert!(types.contains(class(&p, "PlatformThread")));
    assert!(!types.contains(class(&p, "VirtualThread")));

    // The ≠-filter stays empty: Invoke remove() is never enabled and the
    // remove method is not processed.
    assert!(!result.is_reachable(remove));
}

#[test]
fn fig8_isvirtual_baseline_keeps_remove_reachable() {
    let (p, result) = run(JDK_ISVIRTUAL, "Main", AnalysisConfig::baseline_pta());
    assert!(result.is_reachable(method(&p, "ThreadSet", "remove")));
}

#[test]
fn fig8_isvirtual_with_virtual_threads_keeps_remove() {
    // Sanity: when a virtual thread *is* created, SkipFlow keeps remove().
    let src = JDK_ISVIRTUAL.replace(
        "var t = new PlatformThread();",
        "var t = new VirtualThread();",
    );
    let (p, result) = run(&src, "Main", AnalysisConfig::skipflow());
    assert!(result.is_reachable(method(&p, "ThreadSet", "remove")));
    let is_virtual = method(&p, "Thread", "isVirtual");
    // With only virtual threads instantiated, the type check always passes:
    // the else branch is dead and isVirtual() provably returns {1}.
    assert_eq!(result.return_state(is_virtual), Some(&ValueState::Const(1)));
}

#[test]
fn fig8_isvirtual_with_mixed_threads_returns_any() {
    // With both thread kinds alive, both branches return: 0 ∨ 1 = Any.
    let src = JDK_ISVIRTUAL.replace(
        "var t = new PlatformThread();",
        "var t = new PlatformThread();
         c.onExit(new VirtualThread());",
    );
    let (p, result) = run(&src, "Main", AnalysisConfig::skipflow());
    assert!(result.is_reachable(method(&p, "ThreadSet", "remove")));
    let is_virtual = method(&p, "Thread", "isVirtual");
    assert_eq!(result.return_state(is_virtual), Some(&ValueState::Any));
}

/// Figure 7 — the structure of the `onExit` PVPG: the observe edges from
/// p_thread to the invoke, from the constant 0 to the ≠-filter, and the
/// chain p_this → LoadField → Invoke remove; the predicate chain
/// Invoke isVirtual ⇝pred ≠ ⇝pred {LoadField, Invoke remove}.
#[test]
fn fig7_onexit_pvpg_structure() {
    use skipflow_core::FlowKind;
    let (p, result) = run(JDK_ISVIRTUAL, "Main", AnalysisConfig::skipflow());
    let on_exit = method(&p, "SharedThreadContainer", "onExit");
    let g = result.graph();
    let mg = g.method_graph(on_exit).expect("reachable");

    let find = |pred: &dyn Fn(&FlowKind) -> bool| -> skipflow_core::FlowId {
        g.method_flows(mg)
            .find(|&f| pred(&g.flow(f).kind))
            .expect("flow exists")
    };
    let p_thread = find(&|k| matches!(k, FlowKind::Param { index: 1, .. }));
    let p_this = find(&|k| matches!(k, FlowKind::Param { index: 0, .. }));
    let invoke_isvirtual = find(&|k| matches!(k, FlowKind::Invoke { site }
        if g.site(*site).selector.map(|s| p.selector(s).name.as_str()) == Some("isVirtual")));
    let invoke_remove = find(&|k| matches!(k, FlowKind::Invoke { site }
        if g.site(*site).selector.map(|s| p.selector(s).name.as_str()) == Some("remove")));
    let load_field = find(&|k| matches!(k, FlowKind::Load { .. }));
    let zero_const = find(&|k| matches!(k, FlowKind::Const(0)));
    let ne_filter = find(&|k| matches!(k, FlowKind::CmpFilter { op: skipflow_ir::CmpOp::Ne, .. }));

    // Observe edges (dotted in the figure).
    assert!(g.observe_targets(p_thread).any(|t| t == invoke_isvirtual),
        "p_thread observes into Invoke isVirtual (method linking)");
    assert!(g.observe_targets(p_this).any(|t| t == load_field),
        "p_this observes into LoadField virtualThreads");
    assert!(g.observe_targets(load_field).any(|t| t == invoke_remove),
        "the loaded set observes into Invoke remove");
    assert!(g.observe_targets(zero_const).any(|t| t == ne_filter),
        "the constant 0 observes into the ≠ filter");

    // Use edge: the invoke's value feeds the ≠ filter.
    assert!(g.use_targets(invoke_isvirtual).any(|t| t == ne_filter));

    // Predicate chain: the invoke predicates the filter; the filter chain
    // predicates the body of the if (LoadField and Invoke remove).
    assert!(g.pred_targets(invoke_isvirtual).any(|t| t == ne_filter));
    let reaches_pred = |from: skipflow_core::FlowId, to: skipflow_core::FlowId| -> bool {
        // BFS over predicate edges (the filter chain has two hops: ≠ then
        // the flipped filter).
        let mut stack = vec![from];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(f) = stack.pop() {
            if f == to {
                return true;
            }
            if seen.insert(f) {
                stack.extend(g.pred_targets(f));
            }
        }
        false
    };
    assert!(reaches_pred(ne_filter, load_field));
    assert!(reaches_pred(ne_filter, invoke_remove));

    // And the fixed point of Figure 8: the filter never fires.
    assert!(!g.flow(invoke_remove).enabled);
    assert!(g.flow(ne_filter).out_state.is_empty());
}

/// Figure 3 — type-check filtering: `useT` sees only `T` (and subtypes),
/// `useU` never sees `T`.
#[test]
fn fig3_typecheck_filters_both_branches() {
    let src = "
        class Base { }
        class T extends Base { }
        class U extends Base { }
        class Sink {
          static method useT(x: Base): void { return; }
          static method useU(x: Base): void { return; }
        }
        class Main {
          static method pick(c: int): Base {
            if (c == 0) { return new T(); }
            return new U();
          }
          static method main(): void {
            var x = Main.pick(any());
            if (x instanceof T) { Sink.useT(x); } else { Sink.useU(x); }
          }
        }
    ";
    let (p, result) = run(src, "Main", AnalysisConfig::skipflow());
    let use_t = method(&p, "Sink", "useT");
    let use_u = method(&p, "Sink", "useU");
    assert!(result.is_reachable(use_t));
    assert!(result.is_reachable(use_u));
    let xt = result.param_state(use_t, 0).unwrap().types().unwrap().clone();
    let xu = result.param_state(use_u, 0).unwrap().types().unwrap().clone();
    assert!(xt.contains(class(&p, "T")));
    assert!(!xt.contains(class(&p, "U")));
    assert!(xu.contains(class(&p, "U")));
    assert!(!xu.contains(class(&p, "T")));
}

/// Figure 4 — the predicate example: with `x = 42`, only `m()` is invoked;
/// the else branch `x <= 10` filters 42 to ∅ so `f()` is never marked
/// reachable.
#[test]
fn fig4_constant_42_enables_only_the_then_branch() {
    let src = "
        class Main {
          static method m(): void { return; }
          static method f(): void { return; }
          static method branch(x: int): void {
            if (x > 10) { Main.m(); } else { Main.f(); }
          }
          static method main(): void {
            Main.branch(42);
          }
        }
    ";
    let (p, result) = run(src, "Main", AnalysisConfig::skipflow());
    assert!(result.is_reachable(method(&p, "Main", "m")));
    assert!(!result.is_reachable(method(&p, "Main", "f")));

    // The baseline reaches both.
    let (p, result) = run(src, "Main", AnalysisConfig::baseline_pta());
    assert!(result.is_reachable(method(&p, "Main", "m")));
    assert!(result.is_reachable(method(&p, "Main", "f")));
}

/// Figure 5 — φ and φ_pred joins: `y` is 5 or 10 depending on the branch;
/// after the join, `use(y)` sees the join of both constants (`Any`), and the
/// block after the merge is reachable if either branch is.
#[test]
fn fig5_phi_joins_values_and_predicates() {
    let src = "
        class Sink { static method use(y: int): void { return; } }
        class Main {
          static method join(x: Thing): void {
            var y = 0;
            if (x != null) { y = 5; } else { y = 10; }
            Sink.use(y);
          }
          static method main(): void {
            Main.join(new Thing());
            Main.join(null);
          }
        }
        class Thing { }
    ";
    let (p, result) = run(src, "Main", AnalysisConfig::skipflow());
    let use_m = method(&p, "Sink", "use");
    assert!(result.is_reachable(use_m));
    // 5 ∨ 10 = Any.
    assert_eq!(result.param_state(use_m, 0), Some(&ValueState::Any));
}

#[test]
fn fig5_phi_with_one_dead_branch_keeps_single_constant() {
    // When x is never null, only y = 5 reaches the φ.
    let src = "
        class Sink { static method use(y: int): void { return; } }
        class Thing { }
        class Main {
          static method join(x: Thing): void {
            var y = 0;
            if (x != null) { y = 5; } else { y = 10; }
            Sink.use(y);
          }
          static method main(): void {
            Main.join(new Thing());
          }
        }
    ";
    let (p, result) = run(src, "Main", AnalysisConfig::skipflow());
    let use_m = method(&p, "Sink", "use");
    assert_eq!(result.param_state(use_m, 0), Some(&ValueState::Const(5)));
}
