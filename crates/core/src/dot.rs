//! Graphviz export of PVPG fragments, using the paper's figure conventions:
//! solid edges are *use* edges, dashed edges are *predicate* edges, dotted
//! edges are *observe* edges; enabled flows are drawn red, disabled flows
//! grey (Figures 7 and 8).

use crate::flow::{FlowId, FlowKind};
use crate::report::AnalysisSnapshot;
use skipflow_ir::{MethodId, Program};
use std::fmt::Write as _;

fn flow_label(result: &AnalysisSnapshot<'_>, program: &Program, f: FlowId) -> String {
    let flow = result.graph().flow(f);
    let kind = match &flow.kind {
        FlowKind::PredOn => "pred_on".to_string(),
        FlowKind::Param { index, .. } => format!("p{index}"),
        FlowKind::Const(n) => format!("{n}"),
        FlowKind::AnyPrim => "Any".to_string(),
        FlowKind::New(t) => format!("new {}", program.type_data(*t).name),
        FlowKind::NullSource => "null".to_string(),
        FlowKind::Load { field, .. } => format!("LoadField {}", program.field(*field).name),
        FlowKind::Store { field, .. } => format!("StoreField {}", program.field(*field).name),
        FlowKind::FieldSink { field } => format!("Field {}", program.field(*field).name),
        FlowKind::Invoke { site } => {
            let s = result.graph().site(*site);
            let sel = s.selector.expect("virtual site");
            format!("Invoke {}()", program.selector(sel).name)
        }
        FlowKind::InvokeStatic { site } => {
            let s = result.graph().site(*site);
            let t = s.static_target.expect("static site");
            format!("Invoke {}()", program.method_label(t))
        }
        FlowKind::MethodReturn => "Return".to_string(),
        FlowKind::ReturnSite => "return-site".to_string(),
        FlowKind::TypeFilter { ty, negated } => format!(
            "{}instanceof {}",
            if *negated { "!" } else { "" },
            program.type_data(*ty).name
        ),
        FlowKind::CmpFilter { op, .. } => format!("cmp {}", op.symbol()),
        FlowKind::Phi => "φ".to_string(),
        FlowKind::PhiPred => "φ_pred".to_string(),
        FlowKind::ThrowSite => "throw".to_string(),
        FlowKind::ThrownSink => "thrown-pool".to_string(),
        FlowKind::CatchAll { ty } => format!("catch {}", program.type_data(*ty).name),
        FlowKind::UnsafeSink => "unsafe-pool".to_string(),
        FlowKind::RootSource { .. } => "root-source".to_string(),
    };
    let state = format!("{:?}", flow.out_state);
    format!("{kind}\\n{state}")
}

/// Renders the PVPG fragment of one reachable method as Graphviz `dot`:
/// the method's own flows and the edges among them. Global flows the
/// fragment's build happened to create (a static field's sink) are not
/// drawn. Returns `None` if the method was never reached (it has no
/// fragment).
/// Takes any [`AnalysisSnapshot`] view — pass `result.snapshot()` for an
/// owned [`crate::AnalysisResult`].
pub fn method_pvpg_dot(
    result: &AnalysisSnapshot<'_>,
    program: &Program,
    method: MethodId,
) -> Option<String> {
    let g = result.graph();
    let mg = g.method_graph(method)?;
    // The fragment's flows are one contiguous arena range; membership is
    // a range check plus the owner test that excludes global flows.
    let own = |f: FlowId| mg.flows.contains(f.index()) && g.flow(f).method == Some(method);
    let mut out = String::new();
    let _ = writeln!(out, "digraph pvpg {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  label=\"PVPG of {}\"; labelloc=top;",
        program.method_label(method)
    );
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for f in g.method_flows(mg).filter(|&f| own(f)) {
        let flow = g.flow(f);
        let color = if flow.is_active() {
            "red"
        } else if flow.enabled {
            "orange"
        } else {
            "grey"
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\", color={color}];",
            f.index(),
            flow_label(result, program, f)
        );
    }
    // Edges within the fragment (cross-method edges are summarized).
    for f in g.method_flows(mg).filter(|&f| own(f)) {
        for t in g.use_targets(f) {
            if own(t) {
                let _ = writeln!(out, "  n{} -> n{};", f.index(), t.index());
            }
        }
        for t in g.pred_targets(f) {
            if own(t) {
                let _ = writeln!(
                    out,
                    "  n{} -> n{} [style=dashed, arrowhead=empty];",
                    f.index(),
                    t.index()
                );
            }
        }
        for t in g.observe_targets(f) {
            if own(t) {
                let _ = writeln!(out, "  n{} -> n{} [style=dotted];", f.index(), t.index());
            }
        }
    }
    let _ = writeln!(out, "}}");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use skipflow_ir::frontend::compile;

    #[test]
    fn renders_the_isvirtual_pvpg() {
        let program = compile(
            "abstract class BaseVirtualThread extends Thread { }
             class Thread {
               method isVirtual(): int {
                 if (this instanceof BaseVirtualThread) { return 1; }
                 return 0;
               }
             }
             class PlatformThread extends Thread { }
             class Main {
               static method main(): int {
                 var t = new PlatformThread();
                 return t.isVirtual();
               }
             }",
        )
        .unwrap();
        let main_cls = program.type_by_name("Main").unwrap();
        let main = program.method_by_name(main_cls, "main").unwrap();
        let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
        let thread = program.type_by_name("Thread").unwrap();
        let is_virtual = program.method_by_name(thread, "isVirtual").unwrap();
        let dot = method_pvpg_dot(&result.snapshot(), &program, is_virtual).expect("reachable");
        assert!(dot.starts_with("digraph"), "{dot}");
        assert!(dot.contains("instanceof BaseVirtualThread"), "{dot}");
        assert!(dot.contains("!instanceof BaseVirtualThread"), "{dot}");
        assert!(dot.contains("style=dashed"), "predicate edges present");
        // The then-branch constant 1 is disabled (grey); the constant 0 is
        // active (red).
        assert!(dot.contains("color=grey"), "{dot}");
        assert!(dot.contains("color=red"), "{dot}");
    }

    #[test]
    fn static_field_sinks_are_not_drawn_as_the_method_s_flows() {
        // `get`'s build creates the sink of `Main.flag` on first access, so
        // the sink's id falls inside `get`'s flow range; it is global.
        let program = compile(
            "class Main {
               static var flag: int;
               static method get(): int { return Main.flag; }
               static method main(): int { return Main.get(); }
             }",
        )
        .unwrap();
        let main_cls = program.type_by_name("Main").unwrap();
        let main = program.method_by_name(main_cls, "main").unwrap();
        let get = program.method_by_name(main_cls, "get").unwrap();
        let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
        let g = result.graph();
        let mg = g.method_graph(get).expect("reachable");
        assert!(
            g.method_flows(mg)
                .any(|f| matches!(g.flow(f).kind, FlowKind::FieldSink { .. })),
            "the sink sits in get's flow range"
        );
        let dot = method_pvpg_dot(&result.snapshot(), &program, get).expect("reachable");
        assert!(dot.contains("LoadField flag"), "{dot}");
        assert!(!dot.contains("label=\"Field flag"), "{dot}");
        let nodes = dot.lines().filter(|l| l.contains("[label=")).count();
        let own = g
            .method_flows(mg)
            .filter(|&f| g.flow(f).method == Some(get))
            .count();
        assert_eq!(nodes, own, "{dot}");
    }

    #[test]
    fn unreachable_method_has_no_dot() {
        let program = compile(
            "class Main {
               static method dead(): void { return; }
               static method main(): void { return; }
             }",
        )
        .unwrap();
        let main_cls = program.type_by_name("Main").unwrap();
        let main = program.method_by_name(main_cls, "main").unwrap();
        let dead = program.method_by_name(main_cls, "dead").unwrap();
        let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
        assert!(method_pvpg_dot(&result.snapshot(), &program, dead).is_none());
    }
}
