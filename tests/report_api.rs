//! Coverage for the result/report API surface: statement-level states,
//! call-site info, dead-code reports, and solver statistics.

use skipflow::analysis::{analyze, AnalysisConfig, CallKind, ValueState};
use skipflow::ir::frontend::compile;
use skipflow::ir::BlockId;

fn fixture() -> (skipflow::ir::Program, skipflow::analysis::AnalysisResult) {
    let program = compile(
        "abstract class Shape { abstract method area(): int; }
         class Circle extends Shape { method area(): int { return 3; } }
         class Square extends Shape { method area(): int { return 4; } }
         class Main {
           static method compute(s: Shape): int { return s.area(); }
           static method guarded(): void {
             var flag = 0;
             if (flag == 1) {
               var c = new Square();
               Main.compute(c);
             }
           }
           static method main(): int {
             Main.guarded();
             return Main.compute(new Circle());
           }
         }",
    )
    .unwrap();
    let main_cls = program.type_by_name("Main").unwrap();
    let main = program.method_by_name(main_cls, "main").unwrap();
    let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
    (program, result)
}

#[test]
fn stmt_level_states_are_queryable() {
    let (program, result) = fixture();
    let main_cls = program.type_by_name("Main").unwrap();
    let main = program.method_by_name(main_cls, "main").unwrap();
    // Statement 0 of the entry block is the static call to guarded().
    let s = result.stmt_state(main, BlockId::ENTRY, 0).expect("exists");
    assert!(s.is_non_empty(), "guarded() returns (void token)");
    assert_eq!(result.stmt_enabled(main, BlockId::ENTRY, 0), Some(true));
    // Out-of-range queries answer None, not panic.
    assert!(result.stmt_state(main, BlockId::from_index(99), 0).is_none());
    assert!(result.stmt_state(main, BlockId::ENTRY, 99).is_none());
}

#[test]
fn call_sites_expose_kinds_targets_and_liveness() {
    let (program, result) = fixture();
    let main_cls = program.type_by_name("Main").unwrap();
    let compute = program.method_by_name(main_cls, "compute").unwrap();
    let sites = result.call_sites(compute);
    assert_eq!(sites.len(), 1);
    assert_eq!(sites[0].kind, CallKind::Virtual);
    // Only Circle is instantiated (Square is behind the dead guard).
    let circle = program.type_by_name("Circle").unwrap();
    let circle_area = program.method_by_name(circle, "area").unwrap();
    assert_eq!(sites[0].targets, vec![circle_area]);
    assert!(sites[0].enabled);
    // And the devirtualization report agrees.
    assert_eq!(result.devirtualized_sites(compute), vec![(sites[0].site, circle_area)]);
}

#[test]
fn dead_code_report_mentions_dead_blocks_and_devirt() {
    let (program, result) = fixture();
    let main_cls = program.type_by_name("Main").unwrap();
    let guarded = program.method_by_name(main_cls, "guarded").unwrap();
    let report = result.dead_code_report(&program, guarded);
    assert!(report.contains("dead blocks"), "{report}");

    let square = program.type_by_name("Square").unwrap();
    let square_area = program.method_by_name(square, "area").unwrap();
    let report = result.dead_code_report(&program, square_area);
    assert!(report.contains("unreachable"), "{report}");
}

#[test]
fn allocation_enabled_distinguishes_guarded_news() {
    let (program, result) = fixture();
    assert!(result.allocation_enabled(program.type_by_name("Circle").unwrap()));
    assert!(!result.allocation_enabled(program.type_by_name("Square").unwrap()));
}

#[test]
fn stats_expose_graph_shape() {
    let (_, result) = fixture();
    let stats = result.stats();
    assert!(stats.flows > 10);
    assert!(stats.use_edges > 0);
    assert!(stats.pred_edges > 0);
    assert!(stats.obs_edges > 0);
    assert!(stats.steps > 0);
}

#[test]
fn compute_returns_exactly_the_circle_constant() {
    let (program, result) = fixture();
    let main_cls = program.type_by_name("Main").unwrap();
    let compute = program.method_by_name(main_cls, "compute").unwrap();
    assert_eq!(result.return_state(compute), Some(&ValueState::Const(3)));
}

#[test]
fn call_graph_edges_and_dot() {
    let (program, result) = fixture();
    let edges = result.call_graph_edges();
    // main → guarded (static), main → compute (static),
    // compute → Circle.area (virtual). The guarded branch's call to compute
    // is dead, so no edge from guarded.
    let main_cls = program.type_by_name("Main").unwrap();
    let compute = program.method_by_name(main_cls, "compute").unwrap();
    let guarded = program.method_by_name(main_cls, "guarded").unwrap();
    let circle_area = program
        .method_by_name(program.type_by_name("Circle").unwrap(), "area")
        .unwrap();
    assert!(edges.iter().any(|e| e.callee == compute && e.kind == CallKind::Static));
    assert!(edges.iter().any(|e| e.caller == compute && e.callee == circle_area));
    assert!(
        !edges.iter().any(|e| e.caller == guarded && e.callee == compute),
        "the call inside the dead branch must not appear"
    );

    let dot = result.call_graph_dot(&program);
    assert!(dot.contains("digraph callgraph"));
    assert!(dot.contains("Main.compute"));
    assert!(dot.contains("Circle.area"));
}

#[test]
#[should_panic(expected = "step budget exhausted")]
fn max_steps_guard_fires() {
    let program = compile(
        "class Main { static method main(): int { return 1; } }",
    )
    .unwrap();
    let main_cls = program.type_by_name("Main").unwrap();
    let main = program.method_by_name(main_cls, "main").unwrap();
    let config = AnalysisConfig::skipflow().with_step_budget(1);
    let _ = analyze(&program, &[main], &config);
}
