//! Differential validation of the sequential solver against the
//! reference solver ([`SolverKind::Reference`]), its independent FIFO
//! full-join oracle: on the whole synthetic quick corpus (plus randomized,
//! fan-out, and loop-call specs), under SkipFlow and the PTA baseline, with
//! and without saturation, every scheduler — FIFO, SCC priority, and the
//! adaptive flip between them — must produce *identical* analysis results:
//! the reachable set, every per-method value state, liveness, dead-branch
//! reports, linked call targets, and the counter metrics. The schedulers
//! reorder the sequential solver's steps and add its no-op rule; the
//! reference loop has neither.
//!
//! Results are compared per method rather than per flow id: the solvers may
//! discover methods in different orders, which permutes flow ids, but every
//! observable outcome must match exactly.

use skipflow::analysis::{analyze, AnalysisConfig, SchedulerKind, SolverKind};
use skipflow::synth::{build_benchmark, suites, BenchmarkSpec, Suite};

mod common;
use common::assert_results_identical;

/// Every scheduler the sequential solver runs under.
const SCHEDULERS: [SchedulerKind; 3] =
    [SchedulerKind::Fifo, SchedulerKind::SccPriority, SchedulerKind::Adaptive];

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
            for scheduler in SCHEDULERS {
                let cfg = base
                    .clone()
                    .with_scheduler(scheduler)
                    .with_saturation(saturation);
                let result = analyze(program, &bench.roots, &cfg);
                assert_results_identical(
                    program,
                    &reference,
                    &result,
                    &format!(
                        "{}/{}/sat={saturation:?}/{scheduler:?}",
                        spec.name,
                        base.label()
                    ),
                );
            }
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
    // Wide dispatch produces large, multi-word type sets, where the
    // schedulers' step orders diverge most from the reference FIFO loop —
    // the observable results must still be identical.
    let spec = BenchmarkSpec::new("diff-wide", Suite::DaCapo, 400, 0.2).with_fanout(16);
    check_spec(&spec);
}

#[test]
fn delta_solvers_match_reference_on_the_shared_sink_fanout_corpus() {
    // The shared-field fan-out workload: one field sink feeding dozens of
    // readers, with the sink's state growing one type per writer. This is
    // where SCC-priority scheduling diverges hardest from FIFO (writers
    // drain before the sink fans out), so all three schedulers must still
    // agree on every observable outcome.
    let spec = BenchmarkSpec::new("diff-fanout", Suite::DaCapo, 80, 0.2).with_shared_sink(60, 24);
    check_spec(&spec);
}

#[test]
fn tiered_queue_survives_mid_solve_fragment_instantiation() {
    // Fragments are built *during* solving (virtual dispatch discovers
    // methods), so flows keep being created while the tiered queue holds
    // re-enqueued ones. Results must match the FIFO scheduler and the
    // full-join reference exactly.
    let spec = BenchmarkSpec::new("scc-midsolve", Suite::DaCapo, 2000, 0.2).with_fanout(8);
    let bench = build_benchmark(&spec);
    let scc = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_scheduler(SchedulerKind::SccPriority),
    );
    let fifo = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_scheduler(SchedulerKind::Fifo),
    );
    let reference = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
    );
    assert_results_identical(&bench.program, &reference, &scc, "scc-midsolve/scc");
    assert_results_identical(&bench.program, &reference, &fifo, "scc-midsolve/fifo");
}

#[test]
fn adaptive_scheduler_flips_mid_solve_and_stays_result_identical() {
    // The shared-sink fan-out regime re-processes readers once per stored
    // type — exactly the re-push storm the adaptive detector watches for.
    // The run must actually flip FIFO→SCC mid-solve (flips ≥ 1, strictly
    // between steps 0 and the end), land near the forced-SCC step count,
    // and stay result-identical to both forced schedulers and the
    // full-join reference.
    let spec = BenchmarkSpec::new("adaptive-flip", Suite::DaCapo, 60, 0.0)
        .with_shared_sink(100, 64);
    let bench = build_benchmark(&spec);
    let adaptive = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_scheduler(SchedulerKind::Adaptive),
    );
    let sched = &adaptive.stats().scheduler;
    assert!(sched.flips >= 1, "expected a mid-solve FIFO→SCC flip");
    assert!(
        sched.flip_at_step > 0 && sched.flip_at_step < adaptive.stats().steps,
        "the flip happened mid-solve (step {} of {})",
        sched.flip_at_step,
        adaptive.stats().steps
    );
    assert!(
        sched.adaptive_re_pops > 0,
        "the detector observed the re-push storm"
    );
    let fifo = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_scheduler(SchedulerKind::Fifo),
    );
    let forced_scc = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_scheduler(SchedulerKind::SccPriority),
    );
    let reference = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
    );
    assert_results_identical(&bench.program, &reference, &adaptive, "adaptive-flip/adaptive");
    assert_results_identical(&bench.program, &reference, &fifo, "adaptive-flip/fifo");
    assert_results_identical(&bench.program, &reference, &forced_scc, "adaptive-flip/scc");
    // The step win is retained: far below FIFO, close to forced SCC.
    assert!(
        adaptive.stats().steps < fifo.stats().steps / 2,
        "adaptive {} steps vs FIFO {}",
        adaptive.stats().steps,
        fifo.stats().steps
    );
    // The forced schedulers never flip.
    assert_eq!(fifo.stats().scheduler.flips, 0);
    assert_eq!(forced_scc.stats().scheduler.flips, 0);
}

#[test]
fn delta_solvers_match_reference_on_loop_call_corpora() {
    // Calls inside `while` bodies: the callee's enabling predicate is the
    // loop body's φ_pred, built (and linked) mid-solve — the regime of
    // PR 1's late-built `pred_on → φ_pred` soundness fix, now exercised
    // across every solver × scheduler combination.
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
/// push. Results must match the reference under FIFO and Adaptive, and
/// the join counts are pinned.
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
    let mut joins = Vec::new();
    for scheduler in [SchedulerKind::Fifo, SchedulerKind::Adaptive] {
        let cfg = AnalysisConfig::skipflow().with_scheduler(scheduler);
        let result = analyze(&program, &[root], &cfg);
        let label = format!("self-edge/{scheduler:?}");
        assert_results_identical(&program, &reference, &result, &label);
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
        joins.push(result.stats().state_joins);
    }
    joins.push(reference.stats().state_joins);
    assert_eq!(joins, [21, 21, 21]);
}
