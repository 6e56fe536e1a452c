//! SkipFlow as "whole-program SCCP" (paper §7): classical intraprocedural
//! Sparse Conditional Constant Propagation folds a subset of the branches
//! SkipFlow folds — strictly fewer whenever constants flow through calls.

use skipflow::analysis::{analyze, AnalysisConfig};
use skipflow::baselines::sccp::sccp;
use skipflow::synth::{build_benchmark, suites};

#[test]
fn skipflow_subsumes_sccp_on_the_corpus() {
    let spec = suites::by_name("sunflow").unwrap();
    let bench = build_benchmark(&spec);
    let program = &bench.program;
    let result = analyze(program, &bench.roots, &AnalysisConfig::skipflow());

    let mut sccp_folded_total = 0usize;
    let mut skipflow_extra = 0usize;

    for &m in result.reachable_methods() {
        let Some(body) = program.body(m) else { continue };
        let local = sccp(program, body);
        sccp_folded_total += local.folded_branches.len();

        // Every block SCCP proves dead, SkipFlow proves dead too.
        let sf_dead: std::collections::BTreeSet<_> =
            result.dead_blocks(m).into_iter().collect();
        for b in local.dead_blocks() {
            assert!(
                sf_dead.contains(&b),
                "{}: SCCP-dead block {b} not dead under SkipFlow",
                program.method_label(m)
            );
        }
        skipflow_extra += sf_dead.len().saturating_sub(local.dead_blocks().len());
    }

    // The corpus's guards are interprocedural by construction, so SkipFlow
    // must fold strictly more than local SCCP.
    assert!(
        skipflow_extra > 0,
        "SkipFlow should prove blocks dead that SCCP cannot \
         (SCCP folded {sccp_folded_total} branches)"
    );
}

#[test]
fn the_fig4_gap_local_vs_interprocedural() {
    // Figure 4's discussion verbatim: constant folding covers the case where
    // x is a constant *locally*; once it is a parameter, only an
    // interprocedural analysis helps.
    let src = "
        class Main {
          static method m(): void { return; }
          static method f(): void { return; }
          static method branchLocal(): void {
            var x = 42;
            if (x > 10) { Main.m(); } else { Main.f(); }
          }
          static method branchParam(x: int): void {
            if (x > 10) { Main.m(); } else { Main.f(); }
          }
          static method main(): void {
            Main.branchLocal();
            Main.branchParam(42);
          }
        }
    ";
    let program = skipflow::ir::frontend::compile(src).unwrap();
    let main_cls = program.type_by_name("Main").unwrap();
    let get = |n: &str| program.method_by_name(main_cls, n).unwrap();

    // SCCP folds the local branch…
    let local = sccp(&program, program.body(get("branchLocal")).unwrap());
    assert_eq!(local.folded_branches.len(), 1);
    // …but not the parameterized one.
    let param = sccp(&program, program.body(get("branchParam")).unwrap());
    assert!(param.folded_branches.is_empty());

    // SkipFlow folds both: the constant 42 flows through the call.
    let result = analyze(&program, &[get("main")], &AnalysisConfig::skipflow());
    assert!(!result.dead_blocks(get("branchLocal")).is_empty());
    assert!(!result.dead_blocks(get("branchParam")).is_empty());
    assert!(!result.is_reachable(get("f")), "f() is dead in both branches");
}
