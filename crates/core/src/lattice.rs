//! The value lattice of SkipFlow (paper §3 Figure 6, Appendix B.2 Figure 11).
//!
//! Value states combine two abstractions:
//!
//! * **primitive values** from the lattice `P`: `Empty ⊑ {c} ⊑ Any` — only
//!   concrete constants, no intervals or sets (the join of two distinct
//!   constants is immediately `Any`);
//! * **objects** from the subset lattice over program types, with `null`
//!   modelled as a pseudo-type ([`TypeId::NULL`]) that may be part of any
//!   object state.
//!
//! The combined lattice `L` shares one bottom (`Empty`) and one top (`Any`);
//! every object set sits below `Any` (Figure 11). Joins of a primitive and an
//! object state also widen to `Any` (such joins only arise in ill-typed
//! corners like unsafe accesses, where `Any` is the sound answer).

use skipflow_ir::{BitSet, TypeId};
use std::fmt;

/// A set of runtime types (possibly including the `null` pseudo-type).
///
/// Wrapper around [`BitSet`] indexed by [`TypeId`]. The `null` pseudo-type
/// ([`TypeId::NULL`], index 0) is stored as a separate flag rather than as
/// bit 0: null accompanies types from anywhere in the id space, and keeping
/// it out of the bitset keeps the banded storage narrow (a set holding
/// `{null, T}` would otherwise span every word from 0 to `T`).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TypeSet {
    has_null: bool,
    bits: BitSet,
}

impl TypeSet {
    /// The empty type set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A singleton set.
    pub fn singleton(t: TypeId) -> Self {
        let mut s = Self::new();
        s.insert(t);
        s
    }

    /// The set `{null}`.
    pub fn null_only() -> Self {
        Self::singleton(TypeId::NULL)
    }

    /// Inserts a type; returns `true` if newly inserted.
    pub fn insert(&mut self, t: TypeId) -> bool {
        if t.is_null() {
            let newly = !self.has_null;
            self.has_null = true;
            newly
        } else {
            self.bits.insert(t.index())
        }
    }

    /// Membership test.
    pub fn contains(&self, t: TypeId) -> bool {
        if t.is_null() {
            self.has_null
        } else {
            self.bits.contains(t.index())
        }
    }

    /// Whether `null` is a member.
    pub fn contains_null(&self) -> bool {
        self.has_null
    }

    /// Number of member types (including `null` if present).
    pub fn len(&self) -> usize {
        self.has_null as usize + self.bits.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        !self.has_null && self.bits.is_empty()
    }

    /// Unions `other` into `self`; returns `true` on change.
    pub fn union_with(&mut self, other: &TypeSet) -> bool {
        let mut changed = other.has_null && !self.has_null;
        self.has_null |= other.has_null;
        changed |= self.bits.union_with(&other.bits);
        changed
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &TypeSet) -> bool {
        (!self.has_null || other.has_null) && self.bits.is_subset(&other.bits)
    }

    /// Intersection with a raw subtype mask (masks never contain `null`).
    /// `keep_null` retains a `null` member through the filter — used by
    /// declared-type filtering, where `null` inhabits every reference type.
    pub fn intersect_mask(&self, mask: &BitSet, keep_null: bool) -> TypeSet {
        let mut bits = self.bits.clone();
        bits.intersect_with(mask);
        TypeSet {
            has_null: keep_null && self.has_null,
            bits,
        }
    }

    /// Set difference with a raw subtype mask (`null` always survives, since
    /// masks never include it).
    pub fn difference_mask(&self, mask: &BitSet) -> TypeSet {
        let mut bits = self.bits.clone();
        bits.difference_with(mask);
        TypeSet {
            has_null: self.has_null,
            bits,
        }
    }

    /// Intersection with another type set.
    pub fn intersection(&self, other: &TypeSet) -> TypeSet {
        let mut bits = self.bits.clone();
        bits.intersect_with(&other.bits);
        TypeSet {
            has_null: self.has_null && other.has_null,
            bits,
        }
    }

    /// Set difference with another type set.
    pub fn difference(&self, other: &TypeSet) -> TypeSet {
        let mut bits = self.bits.clone();
        bits.difference_with(&other.bits);
        TypeSet {
            has_null: self.has_null && !other.has_null,
            bits,
        }
    }

    /// Iterates member types in ascending id order (`null` first — its id
    /// is 0).
    pub fn iter(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.has_null
            .then_some(TypeId::NULL)
            .into_iter()
            .chain(self.bits.iter().map(TypeId::from_index))
    }
}

impl FromIterator<TypeId> for TypeSet {
    fn from_iter<I: IntoIterator<Item = TypeId>>(iter: I) -> Self {
        let mut s = TypeSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl fmt::Debug for TypeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A value state: an element of the combined lattice `L`.
///
/// # Examples
///
/// The join of two distinct constants widens immediately to `Any`
/// (paper §3: no sets or intervals of primitives):
///
/// ```
/// use skipflow_core::ValueState;
///
/// let mut state = ValueState::Const(1);
/// state.join(&ValueState::Const(1));
/// assert_eq!(state, ValueState::Const(1));
/// state.join(&ValueState::Const(0));
/// assert_eq!(state, ValueState::Any);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ValueState {
    /// `⊥` — no value can reach this flow (yet).
    #[default]
    Empty,
    /// A single primitive constant `{c}`. Booleans are the constants 0 and 1.
    Const(i64),
    /// A non-empty set of runtime types (`null` included as a pseudo-type).
    Types(TypeSet),
    /// `⊤` — any value (primitive `Any`, and the top of the object sets).
    Any,
}

impl ValueState {
    /// A state holding exactly the type `t`.
    pub fn of_type(t: TypeId) -> Self {
        ValueState::Types(TypeSet::singleton(t))
    }

    /// The state `{null}`.
    pub fn null() -> Self {
        ValueState::Types(TypeSet::null_only())
    }

    /// Normalizing constructor: an empty type set becomes [`ValueState::Empty`].
    pub fn from_types(set: TypeSet) -> Self {
        if set.is_empty() {
            ValueState::Empty
        } else {
            ValueState::Types(set)
        }
    }

    /// `⊥`?
    pub fn is_empty(&self) -> bool {
        matches!(self, ValueState::Empty)
    }

    /// Non-`⊥`? (This is the condition that triggers predicate edges —
    /// note that `Const(0)`, i.e. `false`, is non-empty; paper §5.)
    pub fn is_non_empty(&self) -> bool {
        !self.is_empty()
    }

    /// Joins `other` into `self`; returns `true` on change.
    pub fn join(&mut self, other: &ValueState) -> bool {
        match (&mut *self, other) {
            (_, ValueState::Empty) => false,
            (ValueState::Empty, o) => {
                *self = o.clone();
                true
            }
            (ValueState::Any, _) => false,
            (s, ValueState::Any) => {
                *s = ValueState::Any;
                true
            }
            (ValueState::Const(a), ValueState::Const(b)) => {
                if *a == *b {
                    false
                } else {
                    // Join of two distinct constants is immediately Any
                    // (paper §3: no sets or intervals of primitives).
                    *self = ValueState::Any;
                    true
                }
            }
            (ValueState::Types(s), ValueState::Types(o)) => s.union_with(o),
            // Mixed primitive/object joins widen to top.
            _ => {
                *self = ValueState::Any;
                true
            }
        }
    }

    /// The partial order `self ≤ other` of lattice `L`.
    pub fn le(&self, other: &ValueState) -> bool {
        match (self, other) {
            (ValueState::Empty, _) => true,
            (_, ValueState::Any) => true,
            (ValueState::Const(a), ValueState::Const(b)) => a == b,
            (ValueState::Types(a), ValueState::Types(b)) => a.is_subset(b),
            _ => false,
        }
    }

    /// The member types, if this is an object state.
    pub fn types(&self) -> Option<&TypeSet> {
        match self {
            ValueState::Types(s) => Some(s),
            _ => None,
        }
    }

    /// The constant, if this is a primitive singleton.
    pub fn constant(&self) -> Option<i64> {
        match self {
            ValueState::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Whether the state is a singleton (one constant, one type, or only
    /// `null`) — the precondition under which `≠`-filtering is sound.
    pub fn is_singleton(&self) -> bool {
        match self {
            ValueState::Const(_) => true,
            ValueState::Types(s) => s.len() == 1,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TypeId {
        TypeId::from_index(i)
    }

    #[test]
    fn join_constants() {
        let mut s = ValueState::Const(5);
        assert!(!s.join(&ValueState::Const(5)));
        assert!(s.join(&ValueState::Const(7)));
        assert_eq!(s, ValueState::Any);
    }

    #[test]
    fn join_with_bottom_and_top() {
        let mut s = ValueState::Empty;
        assert!(!s.join(&ValueState::Empty));
        assert!(s.join(&ValueState::Const(0)));
        assert_eq!(s, ValueState::Const(0));
        assert!(s.join(&ValueState::Any));
        assert_eq!(s, ValueState::Any);
        assert!(!s.join(&ValueState::Const(3)));
    }

    #[test]
    fn join_type_sets_unions() {
        let mut s = ValueState::of_type(t(1));
        assert!(s.join(&ValueState::of_type(t(2))));
        let types = s.types().unwrap();
        assert!(types.contains(t(1)) && types.contains(t(2)));
        assert!(!s.join(&ValueState::of_type(t(1))));
    }

    #[test]
    fn join_mixed_widens_to_any() {
        let mut s = ValueState::Const(1);
        assert!(s.join(&ValueState::of_type(t(1))));
        assert_eq!(s, ValueState::Any);
    }

    #[test]
    fn le_matches_figure_11() {
        let a = ValueState::of_type(t(1));
        let mut ab = a.clone();
        ab.join(&ValueState::of_type(t(2)));
        assert!(ValueState::Empty.le(&a));
        assert!(a.le(&ab));
        assert!(!ab.le(&a));
        assert!(ab.le(&ValueState::Any));
        assert!(ValueState::Const(5).le(&ValueState::Any));
        assert!(!ValueState::Const(5).le(&ValueState::Const(6)));
        assert!(!ValueState::Const(5).le(&a));
        assert!(!a.le(&ValueState::Const(5)));
    }

    #[test]
    fn false_is_non_empty() {
        // Paper §5: a state holding the constant 0 (false) still triggers
        // predicate edges.
        assert!(ValueState::Const(0).is_non_empty());
        assert!(!ValueState::Empty.is_non_empty());
    }

    #[test]
    fn from_types_normalizes_empty() {
        assert_eq!(ValueState::from_types(TypeSet::new()), ValueState::Empty);
    }

    #[test]
    fn typeset_mask_operations() {
        let mut s = TypeSet::null_only();
        s.insert(t(3));
        s.insert(t(4));
        let mask: BitSet = [3].into_iter().collect();
        // instanceof-style: intersect with mask drops null.
        let kept = s.intersect_mask(&mask, false);
        assert_eq!(kept.iter().collect::<Vec<_>>(), vec![t(3)]);
        // declared-type-style: keep null.
        let kept_null = s.intersect_mask(&mask, true);
        assert!(kept_null.contains_null());
        // negated instanceof: difference keeps null.
        let dropped = s.difference_mask(&mask);
        assert!(dropped.contains_null());
        assert!(dropped.contains(t(4)));
        assert!(!dropped.contains(t(3)));
    }

    #[test]
    fn singleton_detection() {
        assert!(ValueState::Const(3).is_singleton());
        assert!(ValueState::null().is_singleton());
        assert!(ValueState::of_type(t(2)).is_singleton());
        let mut two = ValueState::of_type(t(1));
        two.join(&ValueState::of_type(t(2)));
        assert!(!two.is_singleton());
        assert!(!ValueState::Any.is_singleton());
        assert!(!ValueState::Empty.is_singleton());
    }

    #[test]
    fn typeset_null_flag_behaves_like_a_member() {
        let mut s = TypeSet::null_only();
        assert!(s.contains_null() && s.len() == 1 && !s.is_empty());
        assert!(!s.insert(TypeId::NULL), "already present");
        s.insert(t(70_000));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![TypeId::NULL, t(70_000)]);
        // union_with carries the null flag across and reports it exactly once.
        let mut target = TypeSet::singleton(t(3));
        assert!(target.union_with(&s));
        assert!(target.contains_null() && target.contains(t(70_000)) && target.contains(t(3)));
        assert_eq!(target.len(), 3);
        assert!(!target.union_with(&s), "a second union adds nothing");
        let mut only_null = TypeSet::singleton(t(3));
        assert!(only_null.union_with(&TypeSet::null_only()), "null alone is a change");
        assert!(!only_null.union_with(&TypeSet::null_only()));
        // Subset accounts for null.
        assert!(TypeSet::null_only().is_subset(&s));
        assert!(!s.is_subset(&TypeSet::singleton(t(70_000))));
    }

    #[test]
    fn join_is_monotone_and_idempotent() {
        let states = [
            ValueState::Empty,
            ValueState::Const(0),
            ValueState::Const(1),
            ValueState::of_type(t(1)),
            ValueState::null(),
            ValueState::Any,
        ];
        for a in &states {
            for b in &states {
                let mut j = a.clone();
                j.join(b);
                assert!(a.le(&j), "{a:?} ≤ {a:?}∨{b:?}");
                assert!(b.le(&j), "{b:?} ≤ {a:?}∨{b:?}");
                let mut jj = j.clone();
                assert!(!jj.join(b), "idempotent second join");
                // Commutativity.
                let mut k = b.clone();
                k.join(a);
                assert_eq!(j, k);
            }
        }
    }
}
