//! Differential validation of the session API's incremental resume: solving
//! roots `A`, then `add_roots(B)` and re-solving, must be **bit-identical**
//! (reachable set, instantiated types, per-flow states, liveness, linked
//! targets, metrics) to a fresh session over `A ∪ B` — for the sequential
//! solver under FIFO, SCC priority and the adaptive flip, and for the
//! reference solver, under SkipFlow and the PTA baseline, with and without
//! saturation. This is the
//! monotone half of the checkpoint invariant documented at the top of
//! `crates/core/src/engine.rs`.

use skipflow::analysis::{
    analyze, AnalysisConfig, AnalysisSession, SchedulerKind, SolverKind,
};
use skipflow::ir::MethodId;
use skipflow::synth::{
    build_benchmark, pick_spread_roots, suites, Benchmark, BenchmarkSpec, Suite,
};

mod common;
use common::assert_results_identical;

/// Every solver × scheduler combination the resume matrix covers (the
/// reference solver always runs FIFO, so it appears once).
const SOLVER_MATRIX: [(SolverKind, SchedulerKind); 4] = [
    (SolverKind::Sequential, SchedulerKind::Fifo),
    (SolverKind::Sequential, SchedulerKind::SccPriority),
    (SolverKind::Sequential, SchedulerKind::Adaptive),
    (SolverKind::Reference, SchedulerKind::Fifo),
];

/// Solves roots `A`, resumes with `B`, and compares against a fresh session
/// over `A ∪ B` for one configuration. Also checks the resume actually
/// reused work: the incremental solve must not redo the full fixpoint.
fn check_resume_identity(
    bench: &Benchmark,
    extra: &[MethodId],
    config: &AnalysisConfig,
    label: &str,
) {
    let program = &bench.program;

    let mut session = AnalysisSession::builder(program)
        .config(config.clone())
        .roots(bench.roots.iter().copied())
        .build()
        .expect("valid roots");
    session.solve();
    let phase1_steps = session.last_solve_steps();
    session.add_roots(extra.iter().copied()).expect("valid extra roots");
    session.solve();
    let resume_steps = session.last_solve_steps();
    let resumed = session.into_result();

    let union_roots: Vec<MethodId> = bench
        .roots
        .iter()
        .chain(extra.iter())
        .copied()
        .collect();
    let fresh = analyze(program, &union_roots, config);

    assert_results_identical(program, &fresh, &resumed, label);
    let fresh_steps = fresh.stats().steps;
    assert!(
        resume_steps < fresh_steps,
        "{label}: the incremental solve ({resume_steps} steps) must execute fewer steps \
         than the fresh union fixpoint ({fresh_steps}); phase 1 took {phase1_steps}"
    );
}

fn check_spec(spec: &BenchmarkSpec) {
    let bench = build_benchmark(spec);
    let extra = pick_spread_roots(&bench.program, &bench.roots, 12);
    assert!(!extra.is_empty(), "{}: no extra roots to add", spec.name);
    for saturation in [None, Some(3)] {
        for base in [AnalysisConfig::skipflow(), AnalysisConfig::baseline_pta()] {
            for (solver, scheduler) in SOLVER_MATRIX {
                let config = base
                    .clone()
                    .with_solver(solver)
                    .with_scheduler(scheduler)
                    .with_saturation(saturation);
                check_resume_identity(
                    &bench,
                    &extra,
                    &config,
                    &format!(
                        "{}/{}/sat={saturation:?}/{solver:?}/{scheduler:?}",
                        spec.name,
                        base.label()
                    ),
                );
            }
        }
    }
}

#[test]
fn resume_matches_fresh_union_on_quick_corpus_specs() {
    // Two representative quick-corpus shapes (the full sweep per spec covers
    // 2 saturations × 2 configs × 4 solver/scheduler combinations).
    for spec in suites::quick().into_iter().take(2) {
        check_spec(&spec);
    }
}

#[test]
fn resume_matches_fresh_union_on_randomized_specs() {
    for seed in [23u64, 7071] {
        let mut spec = BenchmarkSpec::new("resume-rand", Suite::Renaissance, 150, 0.3);
        spec.seed = seed;
        check_spec(&spec);
    }
}

#[test]
fn resume_matches_fresh_union_under_shared_sink_fanout() {
    // The shared-field fan-out regime: resuming must correctly re-fan-out
    // the sink state to readers reached only through the new roots.
    let spec = BenchmarkSpec::new("resume-fanout", Suite::DaCapo, 80, 0.2).with_shared_sink(40, 16);
    check_spec(&spec);
}

#[test]
fn adaptive_flip_is_sticky_across_resume_and_stays_identical() {
    // Phase 1 runs the shared-sink fan-out regime, so the adaptive
    // scheduler flips FIFO→SCC mid-solve; the resumed solve then continues
    // on the SCC queue (the flip is sticky) and must still reach the same
    // fixpoint as a fresh union run.
    let spec = BenchmarkSpec::new("resume-flip", Suite::DaCapo, 60, 0.0).with_shared_sink(100, 64);
    let bench = build_benchmark(&spec);
    let extra = pick_spread_roots(&bench.program, &bench.roots, 8);
    assert!(!extra.is_empty());

    let config = AnalysisConfig::skipflow(); // Adaptive is the default.
    let mut session = AnalysisSession::builder(&bench.program)
        .config(config.clone())
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    let snap = session.solve();
    assert!(
        snap.stats().scheduler.flips >= 1,
        "phase 1 must flip on the fan-out regime"
    );
    session.add_roots(extra.iter().copied()).unwrap();
    let snap = session.solve();
    assert_eq!(snap.stats().scheduler.flips, 1, "the flip is sticky, not repeated");
    let resumed = session.into_result();

    let union_roots: Vec<MethodId> = bench.roots.iter().chain(&extra).copied().collect();
    let fresh = analyze(&bench.program, &union_roots, &config);
    assert_results_identical(&bench.program, &fresh, &resumed, "resume-flip");
}

#[test]
fn multi_stage_resume_accumulates_roots() {
    // Adding roots one at a time over several resumes equals the one-shot
    // union as well — the invariant composes.
    let spec = BenchmarkSpec::new("resume-stages", Suite::DaCapo, 120, 0.2);
    let bench = build_benchmark(&spec);
    let extra = pick_spread_roots(&bench.program, &bench.roots, 6);
    assert!(extra.len() >= 3);

    let config = AnalysisConfig::skipflow();
    let mut session = AnalysisSession::builder(&bench.program)
        .config(config.clone())
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    session.solve();
    for &m in &extra {
        session.add_roots([m]).unwrap();
        let snapshot = session.solve();
        assert!(snapshot.is_reachable(m), "added root must become reachable");
    }
    assert_eq!(session.solve_count() as usize, 1 + extra.len());
    let resumed = session.into_result();

    let union_roots: Vec<MethodId> = bench.roots.iter().chain(&extra).copied().collect();
    let fresh = analyze(&bench.program, &union_roots, &config);
    assert_results_identical(&bench.program, &fresh, &resumed, "resume-stages");
}

#[test]
fn resume_noop_solve_is_free_and_identical() {
    let spec = BenchmarkSpec::new("resume-noop", Suite::DaCapo, 100, 0.2);
    let bench = build_benchmark(&spec);
    let mut session = AnalysisSession::builder(&bench.program)
        .skipflow()
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    session.solve();
    let first_steps = session.last_solve_steps();
    assert!(first_steps > 0);
    // Solving again without new roots is a no-op…
    session.solve();
    assert_eq!(session.last_solve_steps(), 0, "saturated fixpoint re-solve");
    // …and re-adding known roots stays a no-op.
    assert_eq!(session.add_roots(bench.roots.iter().copied()).unwrap(), 0);
    session.solve();
    assert_eq!(session.last_solve_steps(), 0);
    let resumed = session.into_result();
    let fresh = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    assert_results_identical(&bench.program, &fresh, &resumed, "resume-noop");
}

#[test]
fn resumed_solves_report_per_solve_scheduler_stats() {
    // Satellite regression (PR 5): per-solve scheduler statistics must not
    // leak across session resumes. Phase 1 flips on the fan-out regime;
    // the resumed solve stays on the SCC queue (sticky flip) but its
    // per-solve adaptive counters must be *its own* (zero — no FIFO phase
    // ran), while the cumulative totals and the flip event record persist.
    let spec = BenchmarkSpec::new("resume-stats", Suite::DaCapo, 60, 0.0)
        .with_shared_sink(100, 64);
    let bench = build_benchmark(&spec);
    let mut session = AnalysisSession::builder(&bench.program)
        .skipflow() // Adaptive is the default
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    let first = session.solve().stats().scheduler.clone();
    assert_eq!(first.flips, 1, "phase 1 flips on the fan-out regime");
    assert!(first.adaptive_pops > 0 && first.adaptive_re_pops > 0);
    assert_eq!(first.adaptive_pops_total, first.adaptive_pops);
    assert!(
        first.flip_at_step > 0 && first.flip_at_step < session.last_solve_steps(),
        "flip_at_step is relative to the flipping solve"
    );

    let extra = pick_spread_roots(&bench.program, &bench.roots, 8);
    assert!(!extra.is_empty());
    session.add_roots(extra.iter().copied()).unwrap();
    let second = session.solve().stats().scheduler.clone();
    assert!(session.last_solve_steps() > 0, "the resume did real work");
    assert_eq!(second.flips, 1, "the flip is sticky, not repeated");
    assert_eq!(
        (second.adaptive_pops, second.adaptive_re_pops),
        (0, 0),
        "a post-flip solve has no FIFO phase: per-solve counters are its own"
    );
    assert_eq!(
        (second.adaptive_pops_total, second.adaptive_re_pops_total),
        (first.adaptive_pops_total, first.adaptive_re_pops_total),
        "cumulative totals persist unchanged"
    );
    assert_eq!(second.flip_at_step, first.flip_at_step, "flip event record persists");

    // An *unflipped* adaptive session: the per-solve pop counters of a tiny
    // resume must reflect that solve alone, not the first solve's residue,
    // while the totals accumulate across both.
    let spec = BenchmarkSpec::new("resume-stats-acyclic", Suite::DaCapo, 120, 0.2);
    let bench = build_benchmark(&spec);
    let mut session = AnalysisSession::builder(&bench.program)
        .skipflow()
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    let first = session.solve().stats().scheduler.clone();
    assert_eq!(first.flips, 0, "the acyclic corpus never flips");
    assert!(first.adaptive_pops > 0);
    let extra = pick_spread_roots(&bench.program, &bench.roots, 2);
    session.add_roots(extra.iter().copied()).unwrap();
    let second = session.solve().stats().scheduler.clone();
    let resume_steps = session.last_solve_steps();
    assert!(
        second.adaptive_pops <= resume_steps,
        "per-solve pops ({}) must be bounded by the resume's own steps ({resume_steps})",
        second.adaptive_pops
    );
    assert_eq!(
        second.adaptive_pops_total,
        first.adaptive_pops_total + second.adaptive_pops,
        "totals accumulate across solves"
    );
}
