//! Differential validation of interruptible solves: a solve stopped by a
//! step/wall/memory budget or a cancel token and then resumed must complete
//! to a fixpoint **bit-identical** (reachable set, instantiated types,
//! per-flow states, liveness, linked targets, metrics) to an uninterrupted
//! run — under both solvers, at every interrupt point along a sweep. Every
//! intermediate checkpoint must itself be a sound under-approximation: a
//! valid, queryable snapshot whose reachable set is a subset of the final
//! one, tagged `Completeness::Partial`.
//!
//! This is the interrupt-safety contract documented at the top of
//! `crates/core/src/engine.rs`. The step budget is the deterministic
//! trigger: it is checked before every step, so a budget of `k` stops each
//! solve after exactly `k` steps.

use skipflow::analysis::{
    analyze, AnalysisConfig, AnalysisError, AnalysisResult, AnalysisSession, CallGraphQuery,
    CancelToken, Completeness, InterruptReason, SolveOutcome, SolverKind,
};
use skipflow::ir::MethodId;
use skipflow::synth::{build_benchmark, pick_spread_roots, Benchmark, BenchmarkSpec, Suite};
use std::time::Duration;

mod common;
use common::assert_results_identical;

/// The solvers the interrupt differential covers: each runs its own
/// worklist (the tiered queue, the reference FIFO).
const SOLVERS: [SolverKind; 2] = [SolverKind::Sequential, SolverKind::Reference];

fn bench() -> Benchmark {
    build_benchmark(&BenchmarkSpec::new("interrupt", Suite::DaCapo, 60, 0.2))
}

/// Solves to completion under the config's per-solve step budget `k`,
/// asserting at every interrupt that the checkpoint is a valid partial view
/// taken after exactly `k` more steps. Returns the finished result and how
/// many interrupts it took.
fn solve_through_interrupts(
    bench: &Benchmark,
    config: &AnalysisConfig,
    oracle: &AnalysisResult,
    label: &str,
) -> (AnalysisResult, u64) {
    let mut session = AnalysisSession::builder(&bench.program)
        .config(config.clone())
        .roots(bench.roots.iter().copied())
        .build()
        .expect("valid roots");
    let budget = config.step_budget().expect("a step-budgeted config");
    let mut interrupts = 0u64;
    loop {
        let done = match session.solve_interruptible(None).expect("no hard failure") {
            SolveOutcome::Completed(snap) => {
                assert_eq!(snap.completeness(), Completeness::Complete, "{label}");
                true
            }
            SolveOutcome::Interrupted { reason, partial } => {
                assert_eq!(reason, InterruptReason::StepBudget { budget }, "{label}");
                // The budget is checked before every step, so the interrupt
                // lands exactly `budget` steps after the previous one.
                assert_eq!(partial.stats().steps, (interrupts + 1) * budget, "{label}");
                // The checkpoint is a sound under-approximation, fully
                // queryable and tagged partial.
                assert_eq!(partial.completeness(), Completeness::Partial, "{label}");
                assert!(
                    partial
                        .reachable_methods()
                        .is_subset(oracle.reachable_methods()),
                    "{label}: partial reachable set must under-approximate the fixpoint"
                );
                assert!(partial.refines(oracle), "{label}: partial ⊆ complete");
                let _ = partial.call_graph_edges();
                false
            }
        };
        if done {
            break;
        }
        assert!(!session.is_up_to_date(), "{label}: interrupted ⇒ work remains");
        interrupts += 1;
        assert!(interrupts < 100_000, "{label}: interrupt loop did not converge");
    }
    assert!(session.is_up_to_date(), "{label}");
    let stats = session.snapshot().stats().clone();
    assert_eq!(stats.interrupt.interrupts, interrupts, "{label}");
    assert_eq!(stats.interrupt.resumed_after_interrupt, interrupts, "{label}");
    (session.into_result(), interrupts)
}

#[test]
fn step_budget_sweep_resumes_bit_identical_across_the_matrix() {
    let bench = bench();
    for solver in SOLVERS {
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let oracle = analyze(&bench.program, &bench.roots, &config);
        let total = oracle.stats().steps;
        assert!(total > 16, "corpus too small to sweep ({total} steps)");
        // Every small k (where the edge cases live: the first steps) plus a
        // spread of larger interrupt points up to one past the total.
        let stride = (total / 24).max(1);
        let ks = (1..=16).chain((17..=total + 1).step_by(stride as usize));
        for k in ks {
            let label = format!("{solver:?}/k={k}");
            let budgeted = config.clone().with_step_budget(k);
            let (resumed, interrupts) =
                solve_through_interrupts(&bench, &budgeted, &oracle, &label);
            assert_results_identical(&bench.program, &oracle, &resumed, &label);
            if k > total {
                assert_eq!(interrupts, 0, "{label}: budget larger than the solve");
            } else {
                assert!(interrupts >= 1, "{label}: budget {k} ≤ {total} must interrupt");
            }
        }
    }
}

#[test]
fn interrupt_then_add_roots_then_resume_matches_fresh_union() {
    // The resume machinery must compose: interrupt mid-solve, add new entry
    // points at the checkpoint, and keep solving under the same budget —
    // the eventual fixpoint equals a fresh uninterrupted run over the union.
    let bench = bench();
    let extra = pick_spread_roots(&bench.program, &bench.roots, 8);
    assert!(!extra.is_empty());
    let union_roots: Vec<MethodId> = bench.roots.iter().chain(&extra).copied().collect();
    for solver in SOLVERS {
        let label = format!("union/{solver:?}");
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let oracle = analyze(&bench.program, &union_roots, &config);

        let mut session = AnalysisSession::builder(&bench.program)
            .config(config.clone().with_step_budget(7))
            .roots(bench.roots.iter().copied())
            .build()
            .unwrap();
        // Take a few interrupted bites at the first root set…
        for _ in 0..3 {
            let outcome = session.solve_interruptible(None).unwrap();
            if !outcome.is_interrupted() {
                break;
            }
        }
        // …inject the extra roots at whatever checkpoint we reached…
        session.add_roots(extra.iter().copied()).unwrap();
        // …and drive the budgeted session to completion.
        let mut rounds = 0;
        while !session.is_up_to_date() {
            session.solve_interruptible(None).unwrap();
            rounds += 1;
            assert!(rounds < 100_000, "{label}: did not converge");
        }
        let resumed = session.into_result();
        assert_results_identical(&bench.program, &oracle, &resumed, &label);
    }
}

#[test]
fn zero_budgets_interrupt_immediately_with_a_valid_empty_checkpoint() {
    let bench = bench();
    let oracle = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    let zero_budgets: Vec<(&str, AnalysisConfig)> = vec![
        ("steps=0", AnalysisConfig::skipflow().with_step_budget(0u64)),
        (
            "wall=0",
            AnalysisConfig::skipflow().with_wall_budget(Duration::ZERO),
        ),
        ("memory=0", AnalysisConfig::skipflow().with_memory_budget(0usize)),
    ];
    for (label, config) in zero_budgets {
        let mut session = AnalysisSession::builder(&bench.program)
            .config(config)
            .roots(bench.roots.iter().copied())
            .build()
            .unwrap();
        // A zero budget can never admit a step: every solve interrupts
        // before step one, repeatedly, without corrupting the session.
        for round in 0..3 {
            let outcome = session.solve_interruptible(None).unwrap();
            match outcome {
                SolveOutcome::Interrupted { reason, partial } => {
                    match (label, reason) {
                        ("steps=0", InterruptReason::StepBudget { budget: 0 }) => {}
                        ("wall=0", InterruptReason::WallBudget { .. }) => {}
                        (
                            "memory=0",
                            InterruptReason::MemoryBudget {
                                budget_bytes: 0,
                                estimated_bytes,
                            },
                        ) => assert!(estimated_bytes > 0, "{label}"),
                        (_, other) => panic!("{label}: unexpected reason {other}"),
                    }
                    // The checkpoint is empty but valid: zero steps run,
                    // every query answers, and it under-approximates.
                    assert_eq!(partial.stats().steps, 0, "{label} round {round}");
                    assert_eq!(partial.completeness(), Completeness::Partial);
                    assert!(partial.refines(&oracle), "{label}");
                    let _ = partial.call_graph_edges();
                    let _ = partial.metrics(&bench.program);
                }
                SolveOutcome::Completed(_) => panic!("{label}: zero budget completed"),
            }
            assert!(!session.is_up_to_date(), "{label}");
        }
    }
}

#[test]
fn pre_tripped_cancel_token_interrupts_before_the_first_step() {
    let bench = bench();
    let config = AnalysisConfig::skipflow();
    let oracle = analyze(&bench.program, &bench.roots, &config);
    let mut session = AnalysisSession::builder(&bench.program)
        .config(config)
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    let token = CancelToken::new();
    token.cancel();
    match session.solve_interruptible(Some(&token)).unwrap() {
        SolveOutcome::Interrupted { reason, partial } => {
            assert_eq!(reason, InterruptReason::Cancelled);
            assert_eq!(partial.stats().steps, 0, "interrupted before step one");
        }
        SolveOutcome::Completed(_) => panic!("pre-tripped token must interrupt"),
    }
    // The token is level-triggered: still tripped, still interrupting.
    assert!(session
        .solve_interruptible(Some(&token))
        .unwrap()
        .is_interrupted());
    // Reset and resume: the solve completes, identical to the oracle.
    token.reset();
    match session.solve_interruptible(Some(&token)).unwrap() {
        SolveOutcome::Completed(snap) => {
            assert_eq!(snap.completeness(), Completeness::Complete);
        }
        SolveOutcome::Interrupted { reason, .. } => panic!("reset token interrupted: {reason}"),
    }
    let resumed = session.into_result();
    assert_results_identical(&bench.program, &oracle, &resumed, "cancel-pretripped");
}

#[test]
fn try_solve_surfaces_budget_exhaustion_as_error_without_poisoning() {
    // The completion-only API reports an exhausted budget as
    // `AnalysisError::Interrupted` — and the checkpoint is retained, so
    // repeatedly calling it marches the same fixpoint to completion.
    let bench = bench();
    let config = AnalysisConfig::skipflow().with_step_budget(64u64);
    let oracle = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    let mut session = AnalysisSession::builder(&bench.program)
        .config(config)
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    let mut errors = 0;
    loop {
        match session.try_solve() {
            Ok(snap) => {
                assert_eq!(snap.completeness(), Completeness::Complete);
                break;
            }
            Err(AnalysisError::Interrupted { reason }) => {
                assert!(matches!(reason, InterruptReason::StepBudget { budget: 64 }));
                let rendered = AnalysisError::Interrupted { reason }.to_string();
                assert!(rendered.contains("solve_interruptible"), "{rendered}");
                errors += 1;
                assert!(errors < 100_000, "did not converge");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(errors >= 1, "the 64-step budget must trip at least once");
    let resumed = session.into_result();
    assert_results_identical(&bench.program, &oracle, &resumed, "try-solve-budget");
}

#[test]
fn completeness_tags_follow_the_session_lifecycle() {
    let bench = bench();
    let extra = pick_spread_roots(&bench.program, &bench.roots, 4);
    assert!(!extra.is_empty());
    let mut session = AnalysisSession::builder(&bench.program)
        .skipflow()
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    // Nothing solved yet: the empty snapshot is partial.
    assert_eq!(session.completeness(), Completeness::Partial);
    assert_eq!(session.snapshot().completeness(), Completeness::Partial);
    // A completed solve is complete — through the inherent accessor and
    // the `CallGraphQuery` default alike.
    let snap = session.solve();
    assert_eq!(snap.completeness(), Completeness::Complete);
    assert_eq!(CallGraphQuery::completeness(&snap), Completeness::Complete);
    // Roots pending a solve make the current view partial again…
    session.add_roots(extra.iter().copied()).unwrap();
    assert_eq!(session.snapshot().completeness(), Completeness::Partial);
    // …until the next solve catches up.
    session.solve();
    assert_eq!(session.completeness(), Completeness::Complete);
    let result = session.into_result();
    assert_eq!(result.completeness(), Completeness::Complete);
    assert_eq!(CallGraphQuery::completeness(&result), Completeness::Complete);
}

#[test]
fn wall_and_memory_budgets_admit_generous_limits() {
    // Budgets that are never hit must not change the result (the guard's
    // strided polls are observationally free).
    let bench = bench();
    let plain = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    let config = AnalysisConfig::skipflow()
        .with_wall_budget(Duration::from_secs(3600))
        .with_memory_budget(usize::MAX);
    let mut session = AnalysisSession::builder(&bench.program)
        .config(config)
        .roots(bench.roots.iter().copied())
        .build()
        .unwrap();
    match session.solve_interruptible(None).unwrap() {
        SolveOutcome::Completed(_) => {}
        SolveOutcome::Interrupted { reason, .. } => panic!("generous budget tripped: {reason}"),
    }
    let result = session.into_result();
    assert_results_identical(&bench.program, &plain, &result, "generous-budgets");
}
