//! Extraction differential for the published answers: the
//! [`OwnedSnapshot`] a session extracts must match, field by field,
//!
//! * the graph-derived answers of the same session (`call_graph_edges()`,
//!   `poly_call_sites()`, `call_sites()`, `is_instantiated`,
//!   `reachable_methods()`), and
//! * the `owned_snapshot()` of a fresh session solved at the same
//!   configuration,
//!
//! for every quick-corpus program under both solvers,
//! after every `Solve` point of seeded edit scripts (root additions,
//! retractions, body disables and restores). The server publishes exactly
//! these answers, so this is what makes its epochs trustworthy without a
//! copy of the graph.

use skipflow::analysis::{
    AnalysisConfig, AnalysisSession, AnalysisSnapshot, CallKind, Completeness, MethodEdit,
    OwnedSnapshot, SolverKind,
};
use skipflow::ir::{MethodId, Program, TypeId};
use skipflow::synth::{build_benchmark, build_edit_script, suites, EditOp};

/// One published call site, owned so graph-derived and extracted rows
/// compare with `assert_eq!`.
type Row = (MethodId, usize, CallKind, Vec<MethodId>);

/// Both solvers, each on its own worklist.
const SOLVERS: [SolverKind; 2] = [SolverKind::Reference, SolverKind::Sequential];

fn rows(owned: &OwnedSnapshot) -> Vec<Row> {
    owned
        .sites()
        .map(|s| (s.caller, s.ordinal, s.kind, s.targets.to_vec()))
        .collect()
}

/// The extracted answers equal what the session's graph says.
fn assert_matches_graph(
    program: &Program,
    snap: &AnalysisSnapshot<'_>,
    owned: &OwnedSnapshot,
    label: &str,
) {
    assert_eq!(
        owned.completeness(),
        snap.completeness(),
        "{label}: completeness"
    );
    assert_eq!(
        owned.reachable_methods(),
        snap.reachable_methods(),
        "{label}: reachable set"
    );
    for t in 0..program.type_count() {
        let t = TypeId::from_index(t);
        assert_eq!(
            owned.is_instantiated(t),
            snap.is_instantiated(t),
            "{label}: instantiated({t:?})"
        );
    }
    let mut expect: Vec<Row> = Vec::new();
    for m in program.iter_methods() {
        for (ordinal, site) in snap.call_sites(m).into_iter().enumerate() {
            if site.enabled && !site.targets.is_empty() {
                let mut targets = site.targets;
                targets.sort_unstable();
                expect.push((m, ordinal, site.kind, targets));
            }
        }
    }
    assert_eq!(rows(owned), expect, "{label}: call-edge CSR");
    assert_eq!(
        owned.call_edge_count(),
        snap.call_graph_edges().len(),
        "{label}: call edges"
    );
    assert_eq!(
        owned.poly_call_count(),
        snap.poly_call_sites(),
        "{label}: PolyCalls"
    );
    assert_eq!(owned.stats().steps, snap.stats().steps, "{label}: stats");
    assert_eq!(
        owned.stats().flows,
        snap.graph().flow_count(),
        "{label}: flows"
    );
}

/// Two extractions publish the same answers.
fn assert_same_answers(program: &Program, a: &OwnedSnapshot, b: &OwnedSnapshot, label: &str) {
    assert_eq!(a.completeness(), b.completeness(), "{label}: completeness");
    assert_eq!(
        a.reachable_methods(),
        b.reachable_methods(),
        "{label}: reachable set"
    );
    for t in 0..program.type_count() {
        let t = TypeId::from_index(t);
        assert_eq!(
            a.is_instantiated(t),
            b.is_instantiated(t),
            "{label}: instantiated({t:?})"
        );
    }
    assert_eq!(rows(a), rows(b), "{label}: call-edge CSR");
    assert_eq!(
        a.call_edge_count(),
        b.call_edge_count(),
        "{label}: call edges"
    );
    assert_eq!(
        a.poly_call_count(),
        b.poly_call_count(),
        "{label}: PolyCalls"
    );
}

/// The answers of a fresh session solved at `roots` under `masked`.
fn fresh(
    program: &Program,
    config: &AnalysisConfig,
    roots: &[MethodId],
    masked: &[MethodId],
) -> OwnedSnapshot {
    let mut session = AnalysisSession::builder(program)
        .config(config.clone().with_masked_methods(masked.iter().copied()))
        .roots(roots.iter().copied())
        .build()
        .expect("valid roots");
    session.solve();
    session.owned_snapshot()
}

#[test]
fn extraction_matches_the_graph_and_every_solver_on_the_quick_corpus() {
    for spec in suites::quick() {
        let bench = build_benchmark(&spec);
        let program = &bench.program;
        let reference = fresh(
            program,
            &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
            &bench.roots,
            &[],
        );
        assert!(
            reference.call_edge_count() > 0,
            "{}: the corpus has call edges",
            spec.name
        );
        for solver in SOLVERS {
            let label = format!("{} {solver:?}", spec.name);
            let config = AnalysisConfig::skipflow().with_solver(solver);
            let mut session = AnalysisSession::builder(program)
                .config(config)
                .roots(bench.roots.iter().copied())
                .build()
                .expect("valid roots");
            session.solve();
            let owned = session.owned_snapshot();
            assert_eq!(owned.completeness(), Completeness::Complete, "{label}");
            assert_matches_graph(program, &session.snapshot(), &owned, &label);
            assert_same_answers(program, &reference, &owned, &label);
        }
    }
}

#[test]
fn extraction_matches_at_every_solve_point_of_edit_scripts() {
    for (i, spec) in suites::quick().into_iter().enumerate() {
        let bench = build_benchmark(&spec);
        let program = &bench.program;
        for (j, solver) in SOLVERS.into_iter().enumerate() {
            let seed = 100 + 10 * i as u64 + j as u64;
            let script = build_edit_script(&bench, seed, 8, 2);
            let config = AnalysisConfig::skipflow().with_solver(solver);
            let mut session = AnalysisSession::builder(program)
                .config(config.clone())
                .roots(bench.roots.iter().copied())
                .build()
                .expect("valid roots");
            let mut roots = bench.roots.clone();
            let mut masked: Vec<MethodId> = Vec::new();
            for (k, op) in script.ops.iter().enumerate() {
                match op {
                    EditOp::AddRoots(batch) => {
                        session.add_roots(batch.iter().copied()).unwrap();
                        roots.extend(batch.iter().copied());
                    }
                    EditOp::RetractRoots(batch) => {
                        session.retract_roots(batch.iter().copied()).unwrap();
                        roots.retain(|r| !batch.contains(r));
                    }
                    EditOp::DisableMethod(m) => {
                        session.apply_edit(*m, MethodEdit::DisableBody).unwrap();
                        masked.push(*m);
                    }
                    EditOp::RestoreMethod(m) => {
                        session.apply_edit(*m, MethodEdit::RestoreBody).unwrap();
                        masked.retain(|x| x != m);
                    }
                    EditOp::Solve => {
                        let label = format!("{} seed {seed} {solver:?} op {k}", spec.name);
                        session.solve();
                        let owned = session.owned_snapshot();
                        assert_matches_graph(program, &session.snapshot(), &owned, &label);
                        let oracle = fresh(program, &config, &roots, &masked);
                        assert_same_answers(program, &oracle, &owned, &label);
                    }
                }
            }
        }
    }
}
