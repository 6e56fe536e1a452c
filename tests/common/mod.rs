//! Shared helpers for the differential integration tests: full observable
//! comparison of two analysis results (used by `delta_vs_reference.rs` for
//! solver identity and by `session_resume.rs` for the
//! incremental-resume identity).

use skipflow::analysis::AnalysisResult;
use skipflow::ir::Program;

/// Asserts every observable outcome of `b` equals `a` (the reference): the
/// reachable set, instantiated types, per-method value states, liveness,
/// dead-branch reports, linked call targets, and the counter metrics.
///
/// Results are compared per method rather than per flow id: the solvers may
/// discover methods in different orders, which permutes flow ids, but every
/// observable outcome must match exactly.
pub fn assert_results_identical(
    program: &Program,
    a: &AnalysisResult,
    b: &AnalysisResult,
    label: &str,
) {
    assert_eq!(
        a.reachable_methods(),
        b.reachable_methods(),
        "{label}: reachable sets differ"
    );
    for t in 0..program.type_count() {
        let t = skipflow::ir::TypeId::from_index(t);
        assert_eq!(
            a.is_instantiated(t),
            b.is_instantiated(t),
            "{label}: instantiated({t:?}) differs"
        );
    }
    for &m in a.reachable_methods() {
        let md = program.method(m);
        let n_params = md.param_count();
        for i in 0..n_params {
            assert_eq!(
                a.param_state(m, i),
                b.param_state(m, i),
                "{label}: param state {}#{i} differs",
                program.method_label(m)
            );
        }
        assert_eq!(
            a.return_state(m),
            b.return_state(m),
            "{label}: return state of {} differs",
            program.method_label(m)
        );
        assert_eq!(
            a.live_blocks(m),
            b.live_blocks(m),
            "{label}: liveness of {} differs",
            program.method_label(m)
        );
        assert_eq!(
            a.dead_blocks(m),
            b.dead_blocks(m),
            "{label}: dead blocks of {} differ",
            program.method_label(m)
        );
        // Per-statement value states and enablement (flow-level outcomes,
        // keyed stably by (method, block, stmt) instead of flow id).
        if let Some(body) = program.body(m) {
            for (bi, block) in body.iter_blocks() {
                for si in 0..block.stmt_count() {
                    assert_eq!(
                        a.stmt_state(m, bi, si),
                        b.stmt_state(m, bi, si),
                        "{label}: stmt state {}/{bi:?}/{si} differs",
                        program.method_label(m)
                    );
                    assert_eq!(
                        a.stmt_enabled(m, bi, si),
                        b.stmt_enabled(m, bi, si),
                        "{label}: stmt enablement {}/{bi:?}/{si} differs",
                        program.method_label(m)
                    );
                }
            }
        }
        // Linked targets per call site (order-insensitive: linking order is
        // a solver schedule artifact; the *set* is the analysis outcome).
        let sites_a = a.call_sites(m);
        let sites_b = b.call_sites(m);
        assert_eq!(sites_a.len(), sites_b.len(), "{label}: site counts differ");
        for (sa, sb) in sites_a.iter().zip(sites_b.iter()) {
            assert_eq!(sa.enabled, sb.enabled, "{label}: site enablement differs");
            let mut ta = sa.targets.clone();
            let mut tb = sb.targets.clone();
            ta.sort_unstable();
            tb.sort_unstable();
            assert_eq!(
                ta,
                tb,
                "{label}: linked targets of a site in {} differ",
                program.method_label(m)
            );
        }
    }
    assert_eq!(
        a.metrics(program),
        b.metrics(program),
        "{label}: metrics differ"
    );
}
