//! Property-based tests across the whole stack:
//!
//! * lattice laws for [`ValueState`] joins;
//! * soundness of the `Compare` filter against a concrete-execution oracle;
//! * for randomly generated programs: analysis termination and the
//!   precision ladder.

use proptest::prelude::*;
use skipflow::analysis::{analyze, compare, AnalysisConfig, CallGraphQuery, ValueState};
use skipflow::baselines::rapid_type_analysis;
use skipflow::ir::{CmpOp, TypeId};
use skipflow::synth::{build_benchmark, BenchmarkSpec, GuardMix, Suite};

fn arb_state() -> impl Strategy<Value = ValueState> {
    prop_oneof![
        Just(ValueState::Empty),
        (-3i64..10).prop_map(ValueState::Const),
        Just(ValueState::Any),
        proptest::collection::btree_set(1usize..12, 0..5).prop_map(|s| {
            let set: skipflow::analysis::TypeSet =
                s.into_iter().map(TypeId::from_index).collect();
            ValueState::from_types(set)
        }),
        Just(ValueState::null()),
    ]
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

proptest! {
    #[test]
    fn join_is_commutative_associative_idempotent(
        a in arb_state(), b in arb_state(), c in arb_state()
    ) {
        // Commutative.
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(&ab, &ba);
        // Idempotent.
        let mut aa = a.clone();
        prop_assert!(!aa.join(&a));
        prop_assert_eq!(&aa, &a);
        // Associative.
        let mut ab_c = ab.clone();
        ab_c.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut a_bc = a.clone();
        a_bc.join(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn join_is_an_upper_bound(a in arb_state(), b in arb_state()) {
        let mut j = a.clone();
        j.join(&b);
        prop_assert!(a.le(&j));
        prop_assert!(b.le(&j));
    }

    #[test]
    fn le_is_a_partial_order(a in arb_state(), b in arb_state(), c in arb_state()) {
        prop_assert!(a.le(&a));
        if a.le(&b) && b.le(&a) {
            prop_assert_eq!(&a, &b);
        }
        if a.le(&b) && b.le(&c) {
            prop_assert!(a.le(&c));
        }
    }

    /// Oracle: if a concrete primitive `l ∈ vl` and some `r ∈ vr` satisfy
    /// `l op r`, then `l` must survive `compare(op, vl, vr)` — filtering can
    /// lose precision, never soundness.
    #[test]
    fn compare_is_sound_for_primitive_constants(
        op in arb_op(),
        l in -3i64..10,
        r in -3i64..10,
    ) {
        let vl = ValueState::Const(l);
        let vr = ValueState::Const(r);
        let out = compare(op, &vl, &vr);
        if op.eval(l, r) {
            prop_assert!(
                vl.le(&out),
                "concrete witness {l} {op:?} {r} lost: {out:?}"
            );
        }
    }

    /// Widening an operand never shrinks the filter result (monotonicity of
    /// Compare in its left argument) — for *well-typed* operand pairs.
    /// Mixed primitive/reference equality is ill-typed in the base language;
    /// `compare` answers it conservatively (`vl` unfiltered), which is not
    /// monotone against the `Any` case, and the engine's accumulate-only
    /// out-states absorb that corner (outputs only ever grow).
    #[test]
    fn compare_is_monotone_in_vl(
        op in arb_op(),
        a in arb_state(),
        b in arb_state(),
        vr in arb_state(),
    ) {
        let is_prim = |v: &ValueState| matches!(v, ValueState::Const(_));
        let is_obj = |v: &ValueState| matches!(v, ValueState::Types(_));
        let mut ab = a.clone();
        ab.join(&b);
        // Skip ill-typed pairings (either side, before or after the join).
        let mixed = (is_prim(&vr) && (is_obj(&a) || is_obj(&b)))
            || (is_obj(&vr) && (is_prim(&a) || is_prim(&b)));
        prop_assume!(!mixed);
        let out_a = compare(op, &a, &vr);
        let out_ab = compare(op, &ab, &vr);
        prop_assert!(
            out_a.le(&out_ab),
            "compare({op:?}, {a:?} ⊑ {ab:?}, {vr:?}): {out_a:?} ⋢ {out_ab:?}"
        );
    }
}

fn arb_spec() -> impl Strategy<Value = BenchmarkSpec> {
    (
        0u64..1_000_000,
        60usize..200,
        0.0f64..0.6,
        1usize..4,
        1usize..4,
        0u32..4,
    )
        .prop_map(|(seed, methods, dead, fanout, depth, mix)| {
            let mut spec = BenchmarkSpec::new("prop", Suite::DaCapo, methods, dead);
            spec.seed = seed;
            spec.dispatch_fanout = fanout;
            spec.chain_depth = depth;
            spec.guard_mix = match mix {
                0 => GuardMix::balanced(),
                1 => GuardMix::null_default_heavy(),
                2 => GuardMix::const_flag_heavy(),
                _ => GuardMix {
                    null_default: 1,
                    const_flag: 1,
                    type_test: 1,
                    always_throws: 2,
                },
            };
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end soundness on random programs: the analysis terminates and
    /// the precision ladder holds.
    #[test]
    fn random_programs_satisfy_the_precision_ladder(spec in arb_spec()) {
        let bench = build_benchmark(&spec);
        let bounded = AnalysisConfig::skipflow().with_step_budget(5_000_000);
        let skf = analyze(&bench.program, &bench.roots, &bounded);
        let pta_cfg = AnalysisConfig::baseline_pta().with_step_budget(5_000_000);
        let pta = analyze(&bench.program, &bench.roots, &pta_cfg);
        let rta = rapid_type_analysis(&bench.program, &bench.roots);

        prop_assert!(skf.reachable_methods().is_subset(pta.reachable_methods()));
        prop_assert!(pta.refines(&rta));

        // Every live-module method must stay reachable under SkipFlow: the
        // generator's live wiring is unguarded.
        let live_floor = bench.live_methods;
        prop_assert!(
            skf.reachable_methods().len() >= live_floor.saturating_sub(2),
            "SkipFlow dropped live code: {} < {}",
            skf.reachable_methods().len(),
            live_floor
        );
    }

}
