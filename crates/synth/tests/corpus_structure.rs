//! Structural sanity of the generated corpus, measured with the IR's CFG
//! analyses: benchmarks must contain loops, branches, virtual dispatch, and
//! field traffic in realistic densities, and every generated body must have
//! a well-formed dominator tree.

use skipflow_ir::cfg::{body_stats, natural_loops, BodyStats, Dominators};
use skipflow_synth::{build_benchmark, suites};

fn aggregate(name: &str) -> (BodyStats, usize) {
    let spec = suites::by_name(name).expect("known benchmark");
    let bench = build_benchmark(&spec);
    let mut total = BodyStats::default();
    let mut methods = 0;
    for m in bench.program.iter_methods() {
        let Some(body) = bench.program.body(m) else { continue };
        methods += 1;
        let s = body_stats(body);
        total.blocks += s.blocks;
        total.instructions += s.instructions;
        total.loops += s.loops;
        total.branches += s.branches;
        total.calls += s.calls;
        total.field_accesses += s.field_accesses;
        total.allocations += s.allocations;
    }
    (total, methods)
}

#[test]
fn benchmarks_have_realistic_shape() {
    let (stats, methods) = aggregate("lusearch");
    assert!(methods > 250);
    // Real programs branch, loop, call, and touch the heap.
    assert!(stats.branches * 10 >= methods, "≥0.1 branches/method: {stats:?}");
    assert!(stats.loops > 10, "facades contain loops: {stats:?}");
    assert!(stats.calls > methods / 2, "call-heavy: {stats:?}");
    assert!(stats.field_accesses > 50, "heap traffic: {stats:?}");
    assert!(stats.allocations > 50, "allocations: {stats:?}");
    // Average method size stays small (Java-like), not one giant body.
    assert!(stats.instructions / methods < 30, "{stats:?}");
}

#[test]
fn every_generated_body_has_a_consistent_dominator_tree() {
    let spec = suites::by_name("scrabble").unwrap();
    let bench = build_benchmark(&spec);
    for m in bench.program.iter_methods() {
        let Some(body) = bench.program.body(m) else { continue };
        let doms = Dominators::compute(body);
        for (id, _) in body.iter_blocks() {
            // Builder output has no unreachable blocks, and the entry
            // dominates everything.
            assert!(doms.is_reachable(id), "{}: {id} unreachable", bench.program.method_label(m));
            assert!(doms.dominates(skipflow_ir::BlockId::ENTRY, id));
        }
        // Loop headers (if any) are merge blocks.
        for l in natural_loops(body, &doms) {
            assert!(matches!(
                body.block(l.header).begin(),
                skipflow_ir::BlockBegin::Merge { .. }
            ));
        }
    }
}

#[test]
fn while_bodies_contain_calls() {
    // The ROADMAP coverage gap: loop bodies used to be call-free, hiding
    // loop-predicate bugs (a callee enabled only by a loop body's φ_pred)
    // from the interpreter-differential proptests. The generator now
    // dispatches inside each facade loop.
    let spec = suites::by_name("lusearch").unwrap();
    let bench = build_benchmark(&spec);
    let mut loops_seen = 0usize;
    let mut loops_with_calls = 0usize;
    for m in bench.program.iter_methods() {
        let Some(body) = bench.program.body(m) else { continue };
        let doms = Dominators::compute(body);
        for l in natural_loops(body, &doms) {
            loops_seen += 1;
            let has_call = l.blocks.iter().any(|&b| {
                body.block(b).stmts().any(|s| {
                    matches!(
                        s,
                        skipflow_ir::Stmt::Invoke { .. } | skipflow_ir::Stmt::InvokeStatic { .. }
                    )
                })
            });
            if has_call {
                loops_with_calls += 1;
            }
        }
    }
    assert!(loops_seen > 10, "corpus has loops: {loops_seen}");
    assert_eq!(
        loops_with_calls, loops_seen,
        "every facade loop dispatches from its body"
    );
    // The knob still produces call-free loops for ablation.
    let plain = build_benchmark(&spec.clone().with_loop_calls(false));
    let mut plain_calls = 0usize;
    for m in plain.program.iter_methods() {
        let Some(body) = plain.program.body(m) else { continue };
        let doms = Dominators::compute(body);
        for l in natural_loops(body, &doms) {
            plain_calls += l
                .blocks
                .iter()
                .filter(|&&b| {
                    body.block(b).stmts().any(|s| {
                        matches!(
                            s,
                            skipflow_ir::Stmt::Invoke { .. }
                                | skipflow_ir::Stmt::InvokeStatic { .. }
                        )
                    })
                })
                .count();
        }
    }
    assert_eq!(plain_calls, 0, "with_loop_calls(false) restores the old shape");
}

#[test]
fn suites_differ_in_guard_mix_but_share_structure() {
    // The microservice mix is const-flag heavy; sunflow is null-default
    // heavy; both still produce valid calibrated programs.
    for name in ["sunflow", "micronaut-helloworld"] {
        let spec = suites::by_name(name).unwrap();
        let bench = build_benchmark(&spec);
        assert!(bench.dead_methods > 0, "{name} has guarded modules");
        assert!(bench.live_methods > bench.dead_methods / 60, "{name}");
    }
}
