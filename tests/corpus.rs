//! Cross-crate integration tests over the generated corpus: calibration,
//! the precision ladder, solver determinism, and metric monotonicity.

use skipflow::analysis::{analyze, AnalysisConfig, CallGraphQuery};
use skipflow::baselines::{class_hierarchy_analysis, rapid_type_analysis};
use skipflow::synth::{build_benchmark, suites};

#[test]
fn quick_suite_reductions_track_calibration() {
    for spec in suites::quick() {
        let bench = build_benchmark(&spec);
        let pta = analyze(&bench.program, &bench.roots, &AnalysisConfig::baseline_pta());
        let skf = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
        let reduction = 1.0
            - skf.reachable_methods().len() as f64 / pta.reachable_methods().len() as f64;
        assert!(
            (reduction - spec.dead_fraction).abs() < 0.06,
            "{}: reduction {reduction:.3} vs calibrated {:.3}",
            spec.name,
            spec.dead_fraction
        );
    }
}

#[test]
fn precision_ladder_holds_on_generated_programs() {
    for spec in suites::quick() {
        let bench = build_benchmark(&spec);
        let cha = class_hierarchy_analysis(&bench.program, &bench.roots);
        let rta = rapid_type_analysis(&bench.program, &bench.roots);
        let pta = analyze(&bench.program, &bench.roots, &AnalysisConfig::baseline_pta());
        let skf = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
        // The unified CallGraphQuery interface spans the whole ladder.
        assert!(rta.refines(&cha), "{}", spec.name);
        assert!(pta.refines(&rta), "{}", spec.name);
        assert!(skf.refines(&pta), "{}", spec.name);
    }
}

#[test]
fn all_metrics_improve_or_hold_under_skipflow() {
    // The paper's Table 1: SkipFlow improves every metric (apart from
    // analysis time) on every benchmark.
    for spec in suites::quick() {
        let bench = build_benchmark(&spec);
        let p = analyze(&bench.program, &bench.roots, &AnalysisConfig::baseline_pta())
            .metrics(&bench.program);
        let s = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow())
            .metrics(&bench.program);
        assert!(s.reachable_methods <= p.reachable_methods, "{}", spec.name);
        assert!(s.type_checks <= p.type_checks, "{}", spec.name);
        assert!(s.null_checks <= p.null_checks, "{}", spec.name);
        assert!(s.prim_checks <= p.prim_checks, "{}", spec.name);
        assert!(s.poly_calls <= p.poly_calls, "{}", spec.name);
        assert!(s.binary_size_bytes <= p.binary_size_bytes, "{}", spec.name);
    }
}

#[test]
fn ablations_order_by_precision() {
    // predicates-only sits between PTA and full SkipFlow; primitives-only
    // cannot prune reachability at all (primitives only matter through
    // predicate edges).
    let spec = suites::by_name("sunflow").unwrap();
    let bench = build_benchmark(&spec);
    let pta = analyze(&bench.program, &bench.roots, &AnalysisConfig::baseline_pta());
    let pred = analyze(&bench.program, &bench.roots, &AnalysisConfig::predicates_only());
    let prim = analyze(&bench.program, &bench.roots, &AnalysisConfig::primitives_only());
    let full = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());

    assert_eq!(
        prim.reachable_methods().len(),
        pta.reachable_methods().len(),
        "primitives without predicates cannot remove methods"
    );
    assert!(pred.reachable_methods().is_subset(pta.reachable_methods()));
    assert!(full.reachable_methods().is_subset(pred.reachable_methods()));
    assert!(
        full.reachable_methods().len() < pred.reachable_methods().len(),
        "const-flag and type-test guards need primitive tracking on top of predicates"
    );
}

#[test]
fn reflective_roots_extend_reachability() {
    // Spark-shaped specs expose reflective entries; registering them must
    // only ever add reachable methods.
    let spec = suites::by_name("als").unwrap();
    let bench = build_benchmark(&spec);
    assert!(!bench.reflective_roots.is_empty(), "als has a reflective surface");
    let plain = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
    let config =
        AnalysisConfig::skipflow().with_reflective_roots(bench.reflective_roots.iter().copied());
    let with_reflection = analyze(&bench.program, &bench.roots, &config);
    assert!(plain
        .reachable_methods()
        .is_subset(with_reflection.reachable_methods()));
    for r in &bench.reflective_roots {
        assert!(with_reflection.is_reachable(*r));
    }
}
