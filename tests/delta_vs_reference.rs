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
fn windowed_relabel_churn_stays_low_on_the_fanout_corpus() {
    // The list-labeling relabel churn the fan-out corpus provokes: repairs
    // keep relocating components into the same repeatedly-subdivided gap,
    // so the relabel policy decides whether churn stays proportional to the
    // repairs or blows up. Exponential gap spreading (half the reclaimed
    // span goes to the gap under insertion pressure) keeps this workload at
    // ~35.6k relabeled components; the previous even-stride respacing
    // needed ~63.9k, and the gap widens with scale (fanout-400: ~139k vs
    // ~351k). Steps are unaffected — relabeling preserves relative order,
    // so the scheduler drains identically.
    let spec = BenchmarkSpec::new("fanout-200", Suite::DaCapo, 60, 0.0).with_shared_sink(200, 128);
    let bench = build_benchmark(&spec);
    let scc = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_scheduler(SchedulerKind::SccPriority),
    );
    let sched = &scc.stats().scheduler;
    assert!(
        sched.order_relabels > 0,
        "the fan-out corpus must exercise the relabel path"
    );
    assert!(
        sched.order_relabels <= 45_000,
        "relabel churn regressed: {} relabeled components (geometric spreading \
         keeps this workload at ~35.6k; even-stride needed ~63.9k)",
        sched.order_relabels
    );
    scc.graph().assert_valid_order();
}

#[test]
fn scc_priorities_survive_mid_solve_fragment_instantiation() {
    // Fragments are built *during* solving (virtual dispatch discovers
    // methods), so the online order must keep the condensation exact as
    // the graph grows: a program of this size exercises mid-solve order
    // repairs, and the final order must still be a valid topological order
    // of the condensation — *exact* priorities at all times, with no
    // provisional-adoption window and no batch recomputes. Results must
    // match the FIFO scheduler and the full-join reference exactly.
    let spec = BenchmarkSpec::new("scc-midsolve", Suite::DaCapo, 2000, 0.2).with_fanout(8);
    let bench = build_benchmark(&spec);
    let scc = analyze(
        &bench.program,
        &bench.roots,
        &AnalysisConfig::skipflow().with_scheduler(SchedulerKind::SccPriority),
    );
    let sched = &scc.stats().scheduler;
    assert!(
        sched.order_repairs >= 1,
        "expected mid-solve order repairs, got {}",
        sched.order_repairs
    );
    assert!(sched.scc_count > 0, "live condensation recorded");
    assert!(
        sched.order_comps_moved > 0,
        "repairs relocated components in place"
    );
    // The exactness guarantee itself: the final live order is a valid
    // topological order of the condensation over every value edge,
    // including everything wired mid-solve.
    scc.graph().assert_valid_order();
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
    // The oracle paths never touch the online-order machinery.
    assert_eq!(fifo.stats().scheduler.order_repairs, 0);
    assert_eq!(reference.stats().scheduler.order_repairs, 0);
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
    assert!(sched.scc_count > 0, "the condensation was computed at the flip");
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


