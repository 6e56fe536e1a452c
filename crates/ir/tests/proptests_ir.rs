//! Property tests for the IR substrate: the bitset against a model, CmpOp
//! algebra, CFG invariants of builder-produced bodies, dominator
//! properties, and the frozen subtype masks against a brute-force closure.

use proptest::prelude::*;
use skipflow_ir::bitset::BitSet;
use skipflow_ir::cfg::{natural_loops, Dominators};
use skipflow_ir::{BlockBegin, BodyBuilder, BranchExit, CmpOp, Cond, ProgramBuilder, TypeId};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// BitSet vs BTreeSet model
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum SetOp {
    Insert(usize),
    Remove(usize),
    UnionWith(Vec<usize>),
    IntersectWith(Vec<usize>),
    DifferenceWith(Vec<usize>),
}

fn arb_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0usize..300).prop_map(SetOp::Insert),
        (0usize..300).prop_map(SetOp::Remove),
        proptest::collection::vec(0usize..300, 0..10).prop_map(SetOp::UnionWith),
        proptest::collection::vec(0usize..300, 0..10).prop_map(SetOp::IntersectWith),
        proptest::collection::vec(0usize..300, 0..10).prop_map(SetOp::DifferenceWith),
    ]
}

proptest! {
    #[test]
    fn bitset_matches_btreeset_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut bits = BitSet::new();
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for op in ops {
            match op {
                SetOp::Insert(i) => {
                    let newly = bits.insert(i);
                    prop_assert_eq!(newly, model.insert(i));
                }
                SetOp::Remove(i) => {
                    let was = bits.remove(i);
                    prop_assert_eq!(was, model.remove(&i));
                }
                SetOp::UnionWith(other) => {
                    let o: BitSet = other.iter().copied().collect();
                    bits.union_with(&o);
                    model.extend(other);
                }
                SetOp::IntersectWith(other) => {
                    let o: BitSet = other.iter().copied().collect();
                    bits.intersect_with(&o);
                    let keep: BTreeSet<usize> = other.into_iter().collect();
                    model.retain(|x| keep.contains(x));
                }
                SetOp::DifferenceWith(other) => {
                    let o: BitSet = other.iter().copied().collect();
                    bits.difference_with(&o);
                    for x in other {
                        model.remove(&x);
                    }
                }
            }
            prop_assert_eq!(bits.len(), model.len());
            prop_assert_eq!(bits.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(bits.is_empty(), model.is_empty());
        }
    }

    #[test]
    fn bitset_subset_and_disjoint_match_model(
        a in proptest::collection::btree_set(0usize..200, 0..20),
        b in proptest::collection::btree_set(0usize..200, 0..20),
    ) {
        let ba: BitSet = a.iter().copied().collect();
        let bb: BitSet = b.iter().copied().collect();
        prop_assert_eq!(ba.is_subset(&bb), a.is_subset(&b));
        prop_assert_eq!(ba.is_disjoint(&bb), a.is_disjoint(&b));
    }

    // -----------------------------------------------------------------------
    // CmpOp algebra
    // -----------------------------------------------------------------------

    #[test]
    fn cmp_op_laws(l in -50i64..50, r in -50i64..50) {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            // inv is logical negation.
            prop_assert_eq!(op.eval(l, r), !op.invert().eval(l, r));
            // flip swaps operands.
            prop_assert_eq!(op.eval(l, r), op.flip().eval(r, l));
            // double inversion / flip are identities.
            prop_assert_eq!(op.invert().invert(), op);
            prop_assert_eq!(op.flip().flip(), op);
            // flip∘inv == inv∘flip.
            prop_assert_eq!(op.invert().flip(), op.flip().invert());
        }
    }

    // -----------------------------------------------------------------------
    // Builder CFG invariants
    // -----------------------------------------------------------------------

    /// Random nestings of if/else and while produced through the structured
    /// builder are always valid and have consistent dominators.
    #[test]
    fn structured_builder_output_is_well_formed(shape in proptest::collection::vec(0u8..4, 1..8)) {
        let mut bb = BodyBuilder::new(&["p"]);
        let p = bb.param(0);
        for s in &shape {
            let c = bb.const_(i64::from(*s));
            match s % 3 {
                0 => {
                    bb.if_then(
                        Cond::Cmp { op: CmpOp::Lt, lhs: p, rhs: c },
                        |bb| {
                            let _ = bb.any_prim();
                            BranchExit::fallthrough()
                        },
                    );
                }
                1 => {
                    let j = bb.if_else(
                        Cond::Cmp { op: CmpOp::Eq, lhs: p, rhs: c },
                        |bb| BranchExit::value(bb.const_(1)),
                        |bb| BranchExit::value(bb.const_(2)),
                    );
                    let _ = j;
                }
                _ => {
                    let init = bb.const_(0);
                    bb.while_loop(
                        &[init],
                        |_, ph| Cond::Cmp { op: CmpOp::Lt, lhs: ph[0], rhs: c },
                        |bb, _| BranchExit::Values(vec![bb.any_prim()]),
                    );
                }
            }
        }
        bb.ret(Some(p));
        let body = bb.finish();

        // The body passes full validation inside a one-method program.
        let mut pb = skipflow_ir::ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb
            .method(a, "m")
            .static_()
            .params(vec![skipflow_ir::TypeRef::Prim])
            .returns(skipflow_ir::TypeRef::Prim)
            .build();
        pb.set_body(m, body);
        let program = pb.finish();
        prop_assert!(program.is_ok());
        let program = program.unwrap();
        let body = program.body(m).unwrap();

        // Dominator sanity: the entry dominates every reachable block, and
        // loop count equals the number of while shapes emitted.
        let doms = Dominators::compute(body);
        for (id, _) in body.iter_blocks() {
            if doms.is_reachable(id) {
                prop_assert!(doms.dominates(skipflow_ir::BlockId::ENTRY, id));
            }
        }
        let whiles = shape.iter().filter(|s| *s % 3 == 2).count();
        prop_assert_eq!(natural_loops(body, &doms).len(), whiles);

        // Merge predecessor lists agree with the CFG (spot-check of the
        // validator's own invariant).
        let preds = body.predecessors();
        for (id, block) in body.iter_blocks() {
            if let BlockBegin::Merge { preds: declared, .. } = block.begin() {
                let mut a: Vec<_> = declared.to_vec();
                let mut b = preds[id.index()].clone();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Subtype masks vs a brute-force closure
// ---------------------------------------------------------------------------

/// One declaration of a random hierarchy: an interface (`true`) or a
/// class, a pick among the earlier classes for the superclass (a pick past
/// the end means none), and picks among the earlier interfaces.
type Decl = (bool, usize, Vec<usize>);

fn arb_hierarchy() -> impl Strategy<Value = Vec<Decl>> {
    proptest::collection::vec(
        (
            (0u8..4).prop_map(|k| k == 0),
            0usize..64,
            proptest::collection::vec(0usize..64, 0..4),
        ),
        1..160,
    )
}

proptest! {
    /// Classes with superclasses and multiply-inherited interfaces: every
    /// mask holds exactly the brute-force closure of the declared
    /// supertype edges, in a band spanning only its own members.
    #[test]
    fn subtype_masks_match_the_brute_force_closure(decls in arb_hierarchy()) {
        let mut pb = ProgramBuilder::new();
        let (mut classes, mut ifaces) = (Vec::new(), Vec::new());
        // Direct supertypes by type index (index 0 is the null pseudo-type).
        let mut supers: Vec<Vec<TypeId>> = vec![Vec::new()];
        for (i, (is_interface, sup, picks)) in decls.iter().enumerate() {
            let mut direct: Vec<TypeId> = picks
                .iter()
                .filter(|_| !ifaces.is_empty())
                .map(|k| ifaces[k % ifaces.len()])
                .collect();
            direct.sort_unstable();
            direct.dedup();
            let name = format!("T{i}");
            let t = if *is_interface {
                let t = pb.add_interface(&name, &direct);
                ifaces.push(t);
                t
            } else {
                let superclass = classes.get(*sup % (classes.len() + 1)).copied();
                let mut cb = pb.class(&name);
                if let Some(s) = superclass {
                    cb = cb.extends(s);
                }
                for &d in &direct {
                    cb = cb.implements_(d);
                }
                let t = cb.build();
                classes.push(t);
                direct.extend(superclass);
                t
            };
            prop_assert_eq!(t.index(), supers.len());
            supers.push(direct);
        }
        let program = pb.finish().expect("random hierarchies are valid");

        let n = supers.len();
        // subs[t][s]: `s <: t`, found by walking declared edges up from `s`.
        let mut subs = vec![vec![false; n]; n];
        for (s, _) in supers.iter().enumerate().skip(1) {
            let mut stack = vec![s];
            while let Some(x) = stack.pop() {
                if !subs[x][s] {
                    subs[x][s] = true;
                    stack.extend(supers[x].iter().map(|t| t.index()));
                }
            }
        }
        for (t, row) in subs.iter().enumerate() {
            let mask = program.subtypes(TypeId::from_index(t));
            let expected: Vec<usize> = (0..n).filter(|&s| row[s]).collect();
            let got: Vec<usize> = mask.iter().collect();
            prop_assert_eq!(&got, &expected);
            for (s, &is_sub) in row.iter().enumerate() {
                prop_assert_eq!(
                    program.is_subtype(TypeId::from_index(s), TypeId::from_index(t)),
                    is_sub
                );
            }
            // The band covers exactly the words from the smallest member's
            // to the largest's: at most (max − min) / 64 + 2 words, one
            // more than that span only when it straddles a word boundary.
            if let (Some(&min), Some(&max)) = (expected.first(), expected.last()) {
                prop_assert_eq!(mask.word_width(), max / 64 - min / 64 + 1);
            }
        }
    }
}
