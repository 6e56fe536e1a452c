//! Differential validation of the sequential solver against the
//! reference solver ([`SolverKind::Reference`]), its independent FIFO
//! full-join oracle: on the whole synthetic quick corpus (plus randomized,
//! fan-out, and loop-call specs), under SkipFlow and the PTA baseline, with
//! and without saturation, the sequential solver must produce *identical*
//! analysis results: the reachable set, every per-method value state,
//! liveness, dead-branch reports, linked call targets, and the counter
//! metrics. The sequential solver's tiered queue reorders its steps and it
//! adds the no-op rule; the reference loop has neither.
//!
//! Results are compared per method rather than per flow id: the solvers may
//! discover methods in different orders, which permutes flow ids, but every
//! observable outcome must match exactly.

use skipflow::analysis::{analyze, AnalysisConfig, SolverKind};
use skipflow::synth::{build_benchmark, suites, BenchmarkSpec, Suite};

mod common;
use common::assert_results_identical;

fn check_spec(spec: &BenchmarkSpec) {
    let bench = build_benchmark(spec);
    let program = &bench.program;
    for saturation in [None, Some(3)] {
        for base in [
            AnalysisConfig::skipflow(),
            AnalysisConfig::baseline_pta(),
        ] {
            let reference_cfg = base
                .clone()
                .with_solver(SolverKind::Reference)
                .with_saturation(saturation);
            let reference = analyze(program, &bench.roots, &reference_cfg);
            let cfg = base.clone().with_saturation(saturation);
            let result = analyze(program, &bench.roots, &cfg);
            assert_results_identical(
                program,
                &reference,
                &result,
                &format!("{}/{}/sat={saturation:?}", spec.name, base.label()),
            );
        }
    }
}

#[test]
fn delta_solvers_match_reference_on_the_quick_corpus() {
    for spec in suites::quick() {
        check_spec(&spec);
    }
}

#[test]
fn delta_solvers_match_reference_on_randomized_specs() {
    for seed in [11u64, 4242, 90210] {
        let mut spec = BenchmarkSpec::new("diff-ref", Suite::Renaissance, 150, 0.3);
        spec.seed = seed;
        check_spec(&spec);
    }
}

#[test]
fn delta_solvers_match_reference_under_heavy_fanout() {
    // Wide dispatch produces large, multi-word type sets, where the tiered
    // queue's step order diverges most from the reference FIFO loop —
    // the observable results must still be identical.
    let spec = BenchmarkSpec::new("diff-wide", Suite::DaCapo, 400, 0.2).with_fanout(16);
    check_spec(&spec);
}

#[test]
fn delta_solvers_match_reference_on_the_shared_sink_fanout_corpus() {
    // The shared-field fan-out workload: one field sink feeding dozens of
    // readers, with the sink's state growing one type per writer. This is
    // where the tiered queue diverges hardest from FIFO (writers drain
    // before the sink fans out), so the solvers must still agree on every
    // observable outcome.
    let spec = BenchmarkSpec::new("diff-fanout", Suite::DaCapo, 80, 0.2).with_shared_sink(60, 24);
    check_spec(&spec);
}

#[test]
fn tiered_queue_survives_mid_solve_fragment_instantiation() {
    // Fragments are built *during* solving (virtual dispatch discovers
    // methods), so flows keep being created while the tiered queue holds
    // re-enqueued ones. Results must match the full-join reference exactly.
    let spec = BenchmarkSpec::new("scc-midsolve", Suite::DaCapo, 2000, 0.2).with_fanout(8);
    let bench = build_benchmark(&spec);
    let sequential = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    let reference = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
    );
    assert_results_identical(&bench.program, &reference, &sequential, "scc-midsolve");
}

/// The trajectory's fan-out and smallest ladder rungs, named as there (the
/// generator seeds each program from its name).
fn fanout_100() -> BenchmarkSpec {
    BenchmarkSpec::new("fanout-100", Suite::DaCapo, 60, 0.0).with_shared_sink(100, 64)
}

fn rung_2000() -> BenchmarkSpec {
    BenchmarkSpec::new("rung-2000", Suite::DaCapo, 2000, 0.2).with_fanout(8)
}

#[test]
fn frontier_tier_keeps_the_fanout_step_win_over_the_reference() {
    // The shared-sink fan-out re-processes readers once per stored type
    // under FIFO. The tiered queue drains never-worked flows first (the
    // frontier tier), so the sink fans out after its writers: the
    // sequential solver must take under half the reference's steps, with
    // identical results.
    let bench = build_benchmark(&fanout_100());
    let sequential = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    let reference = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
    );
    assert_results_identical(&bench.program, &reference, &sequential, "fanout-100");
    assert!(
        sequential.stats().steps < reference.stats().steps / 2,
        "sequential {} steps vs reference {}",
        sequential.stats().steps,
        reference.stats().steps
    );
}

#[test]
fn reference_step_counts_are_pinned() {
    // The reference solver is the oracle: its plain FIFO loop must not
    // change with the sequential solver's scheduling, so its step counts
    // on the trajectory rungs stay fixed.
    let reference = AnalysisConfig::skipflow().with_solver(SolverKind::Reference);
    for (spec, steps) in [(rung_2000(), 21_934), (fanout_100(), 43_497)] {
        let bench = build_benchmark(&spec);
        let result = analyze(&bench.program, &bench.roots, &reference);
        assert_eq!(result.stats().steps, steps, "{}", spec.name);
    }
}

#[test]
fn delta_solvers_match_reference_on_loop_call_corpora() {
    // Calls inside `while` bodies: the callee's enabling predicate is the
    // loop body's φ_pred, built (and linked) mid-solve — the regime of
    // PR 1's late-built `pred_on → φ_pred` soundness fix, now exercised
    // under both solvers.
    for seed in [7u64, 5150] {
        let mut spec = BenchmarkSpec::new("diff-loop-calls", Suite::Microservices, 160, 0.3);
        spec.seed = seed;
        assert!(spec.loop_calls, "loop-body calls are the default");
        check_spec(&spec);
    }
    // The call-free ablation shape stays identical too.
    let spec = BenchmarkSpec::new("diff-loop-plain", Suite::DaCapo, 120, 0.2)
        .with_loop_calls(false);
    check_spec(&spec);
}



/// A method that passes its own parameter back to itself creates the
/// self use-edge `(p, p)`, the one case where a pushed state's source and
/// target are the same flow. One static and one virtual recursion, each
/// wired mid-solve (the static call sits behind a comparison on another
/// call's result, the virtual one behind receiver dispatch), so both self-edges exist and receive a
/// push. Results must match the reference, and the join counts are
/// pinned.
#[test]
fn self_use_edges_push_like_any_other_edge() {
    use skipflow::analysis::FlowKind;
    let program = skipflow::ir::frontend::compile(
        "class Main {
           static method id(x: int): int { return x; }
           static method down(x: int): int {
             var y = Main.id(x);
             if (y < 10) { return Main.down(x); }
             return y;
           }
           method spin(x: int): int { return this.spin(x); }
           static method main(): int {
             var b = Main.down(any());
             var m = new Main();
             return m.spin(b);
           }
         }",
    )
    .unwrap();
    let main_cls = program.type_by_name("Main").unwrap();
    let root = program.method_by_name(main_cls, "main").unwrap();
    let reference = analyze(
        &program,
        &[root],
        &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
    );
    let result = analyze(&program, &[root], &AnalysisConfig::skipflow());
    assert_results_identical(&program, &reference, &result, "self-edge");
    // Both recursions really did wire a parameter onto itself.
    let g = result.graph();
    // `x` is parameter 0 of the static method, 1 behind the receiver.
    for (name, index) in [("down", 0), ("spin", 1)] {
        let m = program.method_by_name(main_cls, name).unwrap();
        let mg = g.method_graph(m).expect("reachable");
        let x = g.method_params(mg)[index];
        assert!(matches!(g.flow(x).kind, FlowKind::Param { .. }));
        assert!(
            g.use_targets(x).any(|t| t == x),
            "{name}: self-edge on its parameter"
        );
    }
    assert_eq!([result.stats().state_joins, reference.stats().state_joins], [21, 21]);
}
