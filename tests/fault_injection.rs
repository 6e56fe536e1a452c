//! The fault-injection differential family (`--features fault-inject`).
//!
//! The deterministic, step-indexed [`FaultPlan`] drives the interrupt paths
//! no public API can reach exactly: a cancel firing at worklist step `k` and
//! a budget exhausting at step `k`. Each family proves the robustness
//! contract: interrupt → resume is **bit-identical** to an uninterrupted
//! solve.

#![cfg(feature = "fault-inject")]

use skipflow::analysis::fault::FaultPlan;
use skipflow::analysis::{
    analyze, AnalysisConfig, AnalysisError, AnalysisSession, CallGraphQuery, Completeness,
    InterruptReason, SchedulerKind, SolveOutcome, SolverKind,
};
use skipflow::synth::{build_benchmark, Benchmark, BenchmarkSpec, Suite};

mod common;
use common::assert_results_identical;

fn bench() -> Benchmark {
    build_benchmark(&BenchmarkSpec::new("fault", Suite::DaCapo, 60, 0.2))
}

fn session_with_plan<'p>(
    bench: &'p Benchmark,
    config: &AnalysisConfig,
    plan: FaultPlan,
) -> AnalysisSession<'p> {
    AnalysisSession::builder(&bench.program)
        .config(config.clone().with_fault_plan(plan))
        .roots(bench.roots.iter().copied())
        .build()
        .expect("valid roots")
}

fn matrix() -> Vec<(SolverKind, SchedulerKind)> {
    vec![
        (SolverKind::Sequential, SchedulerKind::Fifo),
        (SolverKind::Sequential, SchedulerKind::SccPriority),
        (SolverKind::Sequential, SchedulerKind::Adaptive),
        (SolverKind::Reference, SchedulerKind::Fifo),
    ]
}

#[test]
fn cancel_at_every_step_resumes_bit_identical() {
    let bench = bench();
    for (solver, scheduler) in matrix() {
        let config = AnalysisConfig::skipflow()
            .with_solver(solver)
            .with_scheduler(scheduler);
        let oracle = analyze(&bench.program, &bench.roots, &config);
        let total = oracle.stats().steps;
        let stride = (total / 32).max(1);
        // Interrupt at every step index along the sweep (subsampled beyond
        // the dense low range), resume, and demand the identical fixpoint.
        for k in (0..=16).chain((17..total).step_by(stride as usize)) {
            let label = format!("cancel/{solver:?}/{scheduler:?}/k={k}");
            let plan = FaultPlan {
                cancel_at_step: Some(k),
                ..FaultPlan::none()
            };
            let mut session = session_with_plan(&bench, &config, plan);
            match session.solve_interruptible(None).expect("no hard failure") {
                SolveOutcome::Interrupted { reason, partial } => {
                    assert_eq!(reason, InterruptReason::Cancelled, "{label}");
                    assert_eq!(partial.completeness(), Completeness::Partial);
                    // The injection ignores the production stride, so the
                    // interrupt lands exactly at step k.
                    assert_eq!(partial.stats().steps, k, "{label}");
                    assert!(partial.refines(&oracle), "{label}");
                }
                SolveOutcome::Completed(_) => panic!("{label}: injection did not fire"),
            }
            // The trigger was consumed: the resume runs to completion (the
            // step *count* may differ from the oracle — the resumed solve
            // clears the adaptive flip window — but the fixpoint below may
            // not).
            assert!(!session.solve_interruptible(None).unwrap().is_interrupted(), "{label}");
            let resumed = session.into_result();
            assert_results_identical(&bench.program, &oracle, &resumed, &label);
        }
    }
}

#[test]
fn budget_exhaust_injection_exercises_the_budget_path() {
    let bench = bench();
    let config = AnalysisConfig::skipflow();
    let oracle = analyze(&bench.program, &bench.roots, &config);
    let total = oracle.stats().steps;
    for k in [0, 1, total / 2, total - 1] {
        let label = format!("budget-inject/k={k}");
        let plan = FaultPlan {
            budget_exhaust_at_step: Some(k),
            ..FaultPlan::none()
        };
        let mut session = session_with_plan(&bench, &config, plan);
        // Through the completion-only API the injected exhaustion surfaces
        // as the structured Interrupted error…
        match session.try_solve() {
            Err(AnalysisError::Interrupted {
                reason: InterruptReason::StepBudget { budget },
            }) => assert_eq!(budget, k, "{label}"),
            other => panic!("{label}: expected Interrupted, got {other:?}"),
        }
        // …and the retained checkpoint completes to the identical fixpoint.
        session.try_solve().unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        let resumed = session.into_result();
        assert_results_identical(&bench.program, &oracle, &resumed, &label);
    }
}

#[test]
fn unfired_injections_do_not_perturb_the_solve() {
    // A plan aimed beyond the solve (step index past the fixpoint) never
    // fires and never changes the result.
    let bench = bench();
    for (solver, scheduler) in [
        (SolverKind::Sequential, SchedulerKind::Adaptive),
        (SolverKind::Sequential, SchedulerKind::SccPriority),
    ] {
        let config = AnalysisConfig::skipflow()
            .with_solver(solver)
            .with_scheduler(scheduler);
        let oracle = analyze(&bench.program, &bench.roots, &config);
        let plan = FaultPlan {
            cancel_at_step: Some(u64::MAX),
            budget_exhaust_at_step: Some(u64::MAX),
        };
        let mut session = session_with_plan(&bench, &config, plan);
        assert!(!session.solve_interruptible(None).unwrap().is_interrupted());
        let result = session.into_result();
        assert_results_identical(&bench.program, &oracle, &result, "unfired-plan");
    }
}

#[test]
fn seeded_random_interrupt_sweep_is_bit_identical() {
    // The smoke sweep CI runs: a seeded LCG picks (configuration, interrupt
    // step) pairs; every draw must resume to the oracle fixpoint.
    let bench = bench();
    let grid = matrix();
    let mut state: u64 = 0x5eed_cafe_f00d_0001;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for draw in 0..24 {
        let (solver, scheduler) = grid[(lcg() % grid.len() as u64) as usize];
        let config = AnalysisConfig::skipflow()
            .with_solver(solver)
            .with_scheduler(scheduler);
        let oracle = analyze(&bench.program, &bench.roots, &config);
        let k = lcg() % oracle.stats().steps;
        let label = format!("seeded/{draw}/{solver:?}/{scheduler:?}/k={k}");
        let plan = FaultPlan {
            cancel_at_step: Some(k),
            ..FaultPlan::none()
        };
        let mut session = session_with_plan(&bench, &config, plan);
        let outcome = session.solve_interruptible(None).expect("no hard failure");
        assert!(outcome.is_interrupted(), "{label}");
        assert!(!session.solve_interruptible(None).unwrap().is_interrupted(), "{label}");
        let resumed = session.into_result();
        assert_results_identical(&bench.program, &oracle, &resumed, &label);
    }
}
