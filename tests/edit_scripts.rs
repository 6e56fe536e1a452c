//! Differential validation of non-monotone incrementality: after any
//! sequence of root retractions and method-body edits, re-solving the
//! session must be **bit-identical** (reachable set, instantiated types,
//! per-flow states, liveness, linked targets, metrics) to a fresh analysis
//! of the *surviving* root set under the *current* mask — for the
//! sequential and the reference solver, through interrupted solves after
//! an engine rebuild, and under seeded random edit scripts with and
//! without step budgets. This is the checkpoint argument documented at the
//! top of `crates/core/src/engine.rs`.

use skipflow::analysis::{
    analyze, AnalysisConfig, AnalysisSession, InterruptReason, MethodEdit, SolveOutcome,
    SolverKind,
};
use skipflow::ir::MethodId;
use skipflow::synth::{
    build_benchmark, build_edit_script, pick_spread_roots, suites, Benchmark, BenchmarkSpec,
    EditOp, Suite,
};

mod common;
use common::assert_results_identical;

/// Both solvers, each on its own worklist — the same coverage the
/// monotone-resume tests use.
const SOLVERS: [SolverKind; 2] = [SolverKind::Sequential, SolverKind::Reference];

fn bench() -> Benchmark {
    build_benchmark(&BenchmarkSpec::new("edits", Suite::DaCapo, 60, 0.2))
}

/// The fresh oracle for a session state: a one-shot analysis of `roots`
/// with `masked` bodies masked from the start.
fn fresh_oracle(
    bench: &Benchmark,
    config: &AnalysisConfig,
    roots: &[MethodId],
    masked: &[MethodId],
) -> skipflow::analysis::AnalysisResult {
    analyze(
        &bench.program,
        roots,
        &config.clone().with_masked_methods(masked.iter().copied()),
    )
}

#[test]
fn retraction_matches_fresh_solve_of_survivors_across_matrix() {
    let bench = bench();
    let extra = pick_spread_roots(&bench.program, &bench.roots, 3);
    assert!(!extra.is_empty());
    for solver in SOLVERS {
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let label = format!("retract {solver:?}");

        let mut session = AnalysisSession::builder(&bench.program)
            .config(config.clone())
            .roots(bench.roots.iter().copied())
            .roots(extra.iter().copied())
            .build()
            .expect("valid roots");
        session.solve();

        // Retract the extras again: the surviving fixpoint must equal a
        // fresh solve that never saw them.
        let removed = session.retract_roots(extra.iter().copied()).unwrap();
        assert_eq!(removed, extra.len(), "{label}");
        assert!(!session.is_up_to_date(), "{label}");
        session.solve();
        let inv = session.snapshot().stats().invalidation;
        assert_eq!(inv.retractions, extra.len() as u64, "{label}");
        assert!(inv.invalidated_flows > 0, "{label}");
        assert!(inv.rederive_steps > 0, "{label}");
        let retracted = session.into_result();
        let fresh = fresh_oracle(&bench, &config, &bench.roots, &[]);
        assert_results_identical(&bench.program, &fresh, &retracted, &label);
    }
}

#[test]
fn edits_match_fresh_solve_under_the_mask_across_matrix() {
    let bench = bench();
    // Edit a method that is actually load-bearing: a reachable concrete
    // non-root method from the baseline solve.
    let probe = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    let victim = *probe
        .reachable_methods()
        .iter()
        .find(|&&m| bench.program.method(m).has_body() && !bench.roots.contains(&m))
        .expect("a reachable non-root method");
    for solver in SOLVERS {
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let label = format!("edit {solver:?}");

        let mut session = AnalysisSession::builder(&bench.program)
            .config(config.clone())
            .roots(bench.roots.iter().copied())
            .build()
            .expect("valid roots");
        session.solve();

        // Disable → the fixpoint of the masked program.
        assert!(session.apply_edit(victim, MethodEdit::DisableBody).unwrap(), "{label}");
        session.solve();
        {
            let masked_now = session.masked_methods();
            assert_eq!(masked_now, vec![victim], "{label}");
            let fresh = fresh_oracle(&bench, &config, &bench.roots, &masked_now);
            let snap = session.snapshot();
            assert_eq!(
                snap.reachable_methods(),
                fresh.reachable_methods(),
                "{label}: masked reachable sets differ"
            );
            assert_eq!(
                snap.metrics(&bench.program),
                fresh.metrics(&bench.program),
                "{label}: masked metrics differ"
            );
        }

        // Restore → bit-identical to a session that never edited.
        assert!(session.apply_edit(victim, MethodEdit::RestoreBody).unwrap(), "{label}");
        session.solve();
        assert!(session.masked_methods().is_empty(), "{label}");
        let edited = session.into_result();
        assert_eq!(edited.stats().invalidation.edits, 2, "{label}");
        let fresh = fresh_oracle(&bench, &config, &bench.roots, &[]);
        assert_results_identical(&bench.program, &fresh, &edited, &label);
    }
}

#[test]
fn interrupted_rederive_resumes_to_the_retracted_fixpoint() {
    let bench = bench();
    let extra = pick_spread_roots(&bench.program, &bench.roots, 3);
    for solver in SOLVERS {
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let budgeted = config.clone().with_step_budget(97u64);
        let label = format!("interrupted rederive {solver:?}");

        let mut session = AnalysisSession::builder(&bench.program)
            .config(budgeted)
            .roots(bench.roots.iter().copied())
            .roots(extra.iter().copied())
            .build()
            .expect("valid roots");
        let mut guard = 0;
        while !matches!(
            session.solve_interruptible(None).expect("no hard failure"),
            SolveOutcome::Completed(_)
        ) {
            guard += 1;
            assert!(guard < 10_000, "{label}: budgeted solve never completed");
        }

        session.retract_roots(extra.iter().copied()).unwrap();
        // The re-derivation itself is interrupted every 97 steps; each
        // resume continues from the checkpoint, and the drained fixpoint
        // must still equal the fresh survivors-only solve.
        let mut interrupts = 0;
        while !matches!(
            session.solve_interruptible(None).expect("no hard failure"),
            SolveOutcome::Completed(_)
        ) {
            interrupts += 1;
            assert!(interrupts < 10_000, "{label}: re-derive never completed");
        }
        assert!(interrupts > 0, "{label}: budget never fired during re-derive");
        let retracted = session.into_result();
        let fresh = fresh_oracle(&bench, &config, &bench.roots, &[]);
        assert_results_identical(&bench.program, &fresh, &retracted, &label);
    }
}

/// Applies one [`EditOp`] to a live session, mirroring it in the model.
fn apply_op(
    session: &mut AnalysisSession<'_>,
    roots: &mut Vec<MethodId>,
    masked: &mut Vec<MethodId>,
    op: &EditOp,
) {
    match op {
        EditOp::AddRoots(batch) => {
            session.add_roots(batch.iter().copied()).unwrap();
            roots.extend(batch.iter().copied());
        }
        EditOp::RetractRoots(batch) => {
            let removed = session.retract_roots(batch.iter().copied()).unwrap();
            assert_eq!(removed, batch.len());
            roots.retain(|r| !batch.contains(r));
        }
        EditOp::DisableMethod(m) => {
            assert!(session.apply_edit(*m, MethodEdit::DisableBody).unwrap());
            masked.push(*m);
        }
        EditOp::RestoreMethod(m) => {
            assert!(session.apply_edit(*m, MethodEdit::RestoreBody).unwrap());
            masked.retain(|x| x != m);
        }
        EditOp::Solve => unreachable!("solve points are handled by the driver"),
    }
}

/// The random edit-script driver under a per-solve step budget: every
/// solve point is interrupted every `budget` steps and resumed until it
/// completes. The session must still match the fresh oracle at every solve
/// point — invalidation and interruption compose.
fn run_script_under_budget(bench: &Benchmark, seed: u64, solver: SolverKind, budget: u64) {
    let label = format!("budgeted script seed {seed} {solver:?} budget {budget}");
    let script = build_edit_script(bench, seed, 10, 2);
    let config = AnalysisConfig::skipflow().with_solver(solver);
    let mut session = AnalysisSession::builder(&bench.program)
        .config(config.clone().with_step_budget(budget))
        .roots(bench.roots.iter().copied())
        .build()
        .expect("valid roots");
    let mut roots = bench.roots.clone();
    let mut masked: Vec<MethodId> = Vec::new();
    let mut interrupts = 0;
    for (i, op) in script.ops.iter().enumerate() {
        if let EditOp::Solve = op {
            let mut spins = 0;
            loop {
                match session.solve_interruptible(None) {
                    Ok(SolveOutcome::Completed(_)) => break,
                    Ok(SolveOutcome::Interrupted { reason, .. }) => {
                        assert_eq!(reason, InterruptReason::StepBudget { budget }, "{label} op {i}");
                        interrupts += 1;
                    }
                    Err(e) => panic!("{label} op {i}: unexpected error {e}"),
                }
                spins += 1;
                assert!(spins < 100_000, "{label} op {i}: solve never completed");
            }
            let fresh = fresh_oracle(bench, &config, &roots, &masked);
            let snap = session.snapshot();
            assert_eq!(
                snap.reachable_methods(),
                fresh.reachable_methods(),
                "{label} op {i}: reachable sets differ"
            );
            assert_eq!(
                snap.metrics(&bench.program),
                fresh.metrics(&bench.program),
                "{label} op {i}: metrics differ"
            );
        } else {
            apply_op(&mut session, &mut roots, &mut masked, op);
        }
    }
    assert!(interrupts > 0, "{label}: the budget never fired");
    let finished = session.into_result();
    let fresh = fresh_oracle(bench, &config, &roots, &masked);
    assert_results_identical(&bench.program, &fresh, &finished, &format!("{label} final"));
}

#[test]
fn edit_scripts_survive_step_budget_interrupts() {
    let bench = build_benchmark(&suites::by_name("lusearch").unwrap());
    // Seeded budget generator for the sweep.
    let mut state = 0xed17_5eedu64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for (seed, solver) in [
        (21u64, SolverKind::Sequential),
        (22, SolverKind::Sequential),
        (23, SolverKind::Reference),
    ] {
        for _ in 0..3 {
            run_script_under_budget(&bench, seed, solver, 1 + lcg() % 400);
        }
    }
}

#[test]
fn random_edit_scripts_match_fresh_solves_at_every_solve_point() {
    let bench = build_benchmark(&suites::by_name("lusearch").unwrap());
    for (seed, solver) in [
        (11u64, SolverKind::Sequential),
        (12, SolverKind::Sequential),
        (13, SolverKind::Sequential),
        (15, SolverKind::Reference),
    ] {
        let script = build_edit_script(&bench, seed, 14, 2);
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let mut session = AnalysisSession::builder(&bench.program)
            .config(config.clone())
            .roots(bench.roots.iter().copied())
            .build()
            .expect("valid roots");
        let mut roots = bench.roots.clone();
        let mut masked: Vec<MethodId> = Vec::new();
        for (i, op) in script.ops.iter().enumerate() {
            if let EditOp::Solve = op {
                let label = format!("script seed {seed} {solver:?} op {i}");
                let fresh = fresh_oracle(&bench, &config, &roots, &masked);
                let snap = session.solve();
                assert_eq!(
                    snap.reachable_methods(),
                    fresh.reachable_methods(),
                    "{label}: reachable sets differ"
                );
                assert_eq!(
                    snap.metrics(&bench.program),
                    fresh.metrics(&bench.program),
                    "{label}: metrics differ"
                );
            } else {
                apply_op(&mut session, &mut roots, &mut masked, op);
            }
        }
        // Full observable comparison at the end of the script.
        let mut final_roots = roots.clone();
        let mut expect_roots = script.final_roots.clone();
        final_roots.sort();
        expect_roots.sort();
        assert_eq!(final_roots, expect_roots);
        let finished = session.into_result();
        let fresh = fresh_oracle(&bench, &config, &roots, &masked);
        assert_results_identical(
            &bench.program,
            &fresh,
            &finished,
            &format!("script seed {seed} {solver:?} final"),
        );
    }
}

/// A retraction of a solved-in root, or disabling a body the engine already
/// reached, rebuilds the session's engine: the solve that follows must take
/// exactly the steps of a fresh session's first solve over the same roots
/// (in acceptance order) and mask, under both solvers, and all of them
/// count as `rederive_steps`.
#[test]
fn rebuild_solve_points_cost_exactly_a_fresh_solve() {
    let bench = build_benchmark(&suites::by_name("lusearch").unwrap());
    for solver in SOLVERS {
        let config = AnalysisConfig::skipflow().with_solver(solver);
        let mut rebuild_points = 0;
        for seed in 31u64..41 {
            let script = build_edit_script(&bench, seed, 24, 2);
            let mut session = AnalysisSession::builder(&bench.program)
                .config(config.clone())
                .roots(bench.roots.iter().copied())
                .build()
                .expect("valid roots");
            let mut roots = bench.roots.clone();
            let mut masked: Vec<MethodId> = Vec::new();
            let mut prev_reachable = skipflow::analysis::ReachableSet::default();
            for (i, op) in script.ops.iter().enumerate() {
                if !matches!(op, EditOp::Solve) {
                    apply_op(&mut session, &mut roots, &mut masked, op);
                    continue;
                }
                let before = session.snapshot().stats().invalidation;
                session.solve();
                // Only `Solve, mutation, Solve` windows are classified: the
                // engine then still holds the previous fixpoint, whose roots
                // were all solved in and whose reachable set is on record.
                let rebuilt = i >= 2
                    && script.ops[i - 2] == EditOp::Solve
                    && match &script.ops[i - 1] {
                        EditOp::RetractRoots(_) => true,
                        // The engine the body was disabled in is the
                        // previous solve point's fixpoint.
                        EditOp::DisableMethod(m) => prev_reachable.contains(*m),
                        _ => false,
                    };
                if rebuilt {
                    let label = format!("seed {seed} {solver:?} op {i}");
                    let mut fresh = AnalysisSession::builder(&bench.program)
                        .config(config.clone().with_masked_methods(masked.iter().copied()))
                        .roots(session.roots().iter().copied())
                        .build()
                        .expect("valid roots");
                    fresh.solve();
                    assert_eq!(
                        session.last_solve_steps(),
                        fresh.last_solve_steps(),
                        "{label}: a rebuild must solve like a fresh session"
                    );
                    let after = session.snapshot().stats().invalidation;
                    assert_eq!(
                        after.rederive_steps - before.rederive_steps,
                        session.last_solve_steps(),
                        "{label}"
                    );
                    assert!(
                        after.invalidated_methods > before.invalidated_methods,
                        "{label}"
                    );
                    rebuild_points += 1;
                }
                prev_reachable = session.snapshot().reachable_methods().clone();
            }
        }
        assert!(
            rebuild_points >= 10,
            "{solver:?}: only {rebuild_points} points"
        );
    }
}
