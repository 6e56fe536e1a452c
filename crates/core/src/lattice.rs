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
//!
//! Every flow holds two states, so their size sets a session's memory. A
//! [`ValueState`] is 16 bytes: `Empty`, `Const` and `Any` carry no heap, and
//! a [`TypeSet`] keeps members that fit in one 64-type word inline, boxing
//! a banded [`BitSet`] only for sets that span more than one word.

use skipflow_ir::{BitSet, TypeId};
use std::fmt;

/// Types per storage word.
const WORD_BITS: usize = 64;

/// A set of runtime types (possibly including the `null` pseudo-type).
///
/// Indexed by [`TypeId`], in one of two representations chosen by the
/// members alone, so every set has exactly one:
///
/// * **one word inline** while the non-null members fit in one aligned
///   64-type word: the word's index and its bits, no heap at all. Most value
///   states are empty, one type or a few neighbouring types;
/// * **a boxed banded [`BitSet`]** once they span more than one word.
///
/// Operations that grow a set past one word move it to the heap; operations
/// that build a narrower set (filters, intersections, differences) move it
/// back. With 16 bytes a set, a whole [`ValueState`] is 16 bytes too.
///
/// The `null` pseudo-type ([`TypeId::NULL`], index 0) is stored as a
/// separate flag rather than as bit 0: null accompanies types from anywhere
/// in the id space, and keeping it out of the bits keeps the storage narrow
/// (a set holding `{null, T}` would otherwise span every word from 0 to `T`).
#[derive(Clone, PartialEq, Eq)]
pub struct TypeSet(Repr);

/// The two representations. Each set has exactly one, so the derived
/// equality is content equality.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// Members `WORD_BITS * offset + b` for each bit `b` of `word`; an empty
    /// set is `offset: 0, word: 0`.
    Word {
        has_null: bool,
        offset: u32,
        word: u64,
    },
    /// Members spanning more than one word.
    Band { has_null: bool, bits: Box<BitSet> },
}

/// The inline representation holding `bits`, or `None` if they span more
/// than one word.
fn one_word(bits: &BitSet) -> Option<(u32, u64)> {
    let mut members = bits.iter();
    let Some(first) = members.next() else {
        return Some((0, 0));
    };
    let offset = first / WORD_BITS;
    let mut word = 1u64 << (first % WORD_BITS);
    for i in members {
        if i / WORD_BITS != offset {
            return None;
        }
        word |= 1 << (i % WORD_BITS);
    }
    Some((word_offset(offset), word))
}

/// A word index as stored inline.
fn word_offset(w: usize) -> u32 {
    u32::try_from(w).expect("type id exceeds the word offset range")
}

/// The type indices of one inline word, ascending.
fn word_members(offset: u32, word: u64) -> impl Iterator<Item = usize> {
    let base = offset as usize * WORD_BITS;
    let mut rest = word;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let b = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        Some(base + b)
    })
}

/// The bits of `word` (at `offset`) whose type index satisfies `keep`.
fn filter_word(offset: u32, word: u64, mut keep: impl FnMut(usize) -> bool) -> u64 {
    let base = offset as usize * WORD_BITS;
    word_members(offset, word)
        .filter(|&i| keep(i))
        .fold(0, |acc, i| acc | 1 << (i - base))
}

impl TypeSet {
    /// The empty type set.
    pub fn new() -> Self {
        TypeSet::word(false, 0, 0)
    }

    /// An inline set. An empty word sits at offset 0, so that equal sets
    /// are equal field by field.
    fn word(has_null: bool, offset: u32, word: u64) -> Self {
        let offset = if word == 0 { 0 } else { offset };
        TypeSet(Repr::Word {
            has_null,
            offset,
            word,
        })
    }

    /// The set of `null` (if `has_null`) and `bits`, in the representation
    /// its members call for.
    fn from_bits(has_null: bool, bits: BitSet) -> Self {
        match one_word(&bits) {
            Some((offset, word)) => TypeSet::word(has_null, offset, word),
            None => TypeSet(Repr::Band {
                has_null,
                bits: Box::new(bits),
            }),
        }
    }

    /// A singleton set.
    pub fn singleton(t: TypeId) -> Self {
        let mut s = Self::new();
        s.insert(t);
        s
    }

    /// The set `{null}`.
    pub fn null_only() -> Self {
        TypeSet::word(true, 0, 0)
    }

    fn null_flag(&mut self) -> &mut bool {
        match &mut self.0 {
            Repr::Word { has_null, .. } | Repr::Band { has_null, .. } => has_null,
        }
    }

    /// Inserts a type; returns `true` if newly inserted.
    pub fn insert(&mut self, t: TypeId) -> bool {
        if t.is_null() {
            return !std::mem::replace(self.null_flag(), true);
        }
        let i = t.index();
        match &mut self.0 {
            Repr::Word { offset, word, .. } if *word == 0 || *offset as usize == i / WORD_BITS => {
                *offset = word_offset(i / WORD_BITS);
                let bit = 1 << (i % WORD_BITS);
                let newly = *word & bit == 0;
                *word |= bit;
                newly
            }
            Repr::Word {
                has_null,
                offset,
                word,
            } => {
                let mut bits: BitSet = word_members(*offset, *word).collect();
                bits.insert(i);
                self.0 = Repr::Band {
                    has_null: *has_null,
                    bits: Box::new(bits),
                };
                true
            }
            Repr::Band { bits, .. } => bits.insert(i),
        }
    }

    /// Membership test of a non-null type index.
    fn contains_index(&self, i: usize) -> bool {
        match &self.0 {
            Repr::Word { offset, word, .. } => {
                *offset as usize == i / WORD_BITS && *word & 1 << (i % WORD_BITS) != 0
            }
            Repr::Band { bits, .. } => bits.contains(i),
        }
    }

    /// Membership test.
    pub fn contains(&self, t: TypeId) -> bool {
        if t.is_null() {
            self.contains_null()
        } else {
            self.contains_index(t.index())
        }
    }

    /// Whether `null` is a member.
    pub fn contains_null(&self) -> bool {
        match self.0 {
            Repr::Word { has_null, .. } | Repr::Band { has_null, .. } => has_null,
        }
    }

    /// Number of member types (including `null` if present).
    pub fn len(&self) -> usize {
        self.contains_null() as usize
            + match &self.0 {
                Repr::Word { word, .. } => word.count_ones() as usize,
                Repr::Band { bits, .. } => bits.len(),
            }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        matches!(
            self.0,
            Repr::Word {
                has_null: false,
                word: 0,
                ..
            }
        )
    }

    /// The non-null member indices, ascending.
    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        let (word, band) = match &self.0 {
            Repr::Word { offset, word, .. } => (Some(word_members(*offset, *word)), None),
            Repr::Band { bits, .. } => (None, Some(bits.iter())),
        };
        word.into_iter().flatten().chain(band.into_iter().flatten())
    }

    /// Unions `other` into `self`; returns `true` on change.
    pub fn union_with(&mut self, other: &TypeSet) -> bool {
        let mut changed = false;
        if other.contains_null() {
            changed = !std::mem::replace(self.null_flag(), true);
        }
        match (&mut self.0, &other.0) {
            (_, Repr::Word { word: 0, .. }) => {}
            (
                Repr::Word { offset, word, .. },
                &Repr::Word {
                    offset: o_offset,
                    word: o_word,
                    ..
                },
            ) if *word == 0 || *offset == o_offset => {
                *offset = o_offset;
                changed |= o_word & !*word != 0;
                *word |= o_word;
            }
            (Repr::Band { bits, .. }, Repr::Band { bits: o_bits, .. }) => {
                changed |= bits.union_with(o_bits);
            }
            (Repr::Band { bits, .. }, &Repr::Word { offset, word, .. }) => {
                for i in word_members(offset, word) {
                    changed |= bits.insert(i);
                }
            }
            // A non-empty word meets members outside it: the union spans
            // more than one word.
            (
                &mut Repr::Word {
                    has_null,
                    offset,
                    word,
                },
                o_repr,
            ) => {
                let mut bits = match o_repr {
                    Repr::Band { bits: o_bits, .. } => BitSet::clone(o_bits),
                    Repr::Word { .. } => other.indices().collect(),
                };
                bits.extend(word_members(offset, word));
                self.0 = Repr::Band {
                    has_null,
                    bits: Box::new(bits),
                };
                changed = true;
            }
        }
        changed
    }

    /// `self ⊆ other`.
    pub fn is_subset(&self, other: &TypeSet) -> bool {
        (!self.contains_null() || other.contains_null())
            && match (&self.0, &other.0) {
                (Repr::Band { bits, .. }, Repr::Band { bits: o_bits, .. }) => {
                    bits.is_subset(o_bits)
                }
                _ => self.indices().all(|i| other.contains_index(i)),
            }
    }

    /// The members of `self` whose index satisfies `keep`, with `null` if
    /// `has_null`. `band_op` computes the same for a band in place.
    fn filtered(
        &self,
        has_null: bool,
        keep: impl FnMut(usize) -> bool,
        band_op: impl FnOnce(&mut BitSet),
    ) -> TypeSet {
        match &self.0 {
            &Repr::Word { offset, word, .. } => {
                TypeSet::word(has_null, offset, filter_word(offset, word, keep))
            }
            Repr::Band { bits, .. } => {
                let mut bits = BitSet::clone(bits);
                band_op(&mut bits);
                TypeSet::from_bits(has_null, bits)
            }
        }
    }

    /// Intersection with a raw subtype mask (masks never contain `null`).
    /// `keep_null` retains a `null` member through the filter — used by
    /// declared-type filtering, where `null` inhabits every reference type.
    pub fn intersect_mask(&self, mask: &BitSet, keep_null: bool) -> TypeSet {
        self.filtered(
            keep_null && self.contains_null(),
            |i| mask.contains(i),
            |bits| {
                bits.intersect_with(mask);
            },
        )
    }

    /// Set difference with a raw subtype mask (`null` always survives, since
    /// masks never include it).
    pub fn difference_mask(&self, mask: &BitSet) -> TypeSet {
        self.filtered(
            self.contains_null(),
            |i| !mask.contains(i),
            |bits| {
                bits.difference_with(mask);
            },
        )
    }

    /// Intersection with another type set.
    pub fn intersection(&self, other: &TypeSet) -> TypeSet {
        let has_null = self.contains_null() && other.contains_null();
        match &other.0 {
            // Intersect from the inline side: its word bounds the result.
            Repr::Word { .. } => other.filtered(has_null, |i| self.contains_index(i), |_| {}),
            Repr::Band { bits: o_bits, .. } => self.filtered(
                has_null,
                |i| o_bits.contains(i),
                |bits| {
                    bits.intersect_with(o_bits);
                },
            ),
        }
    }

    /// Set difference with another type set.
    pub fn difference(&self, other: &TypeSet) -> TypeSet {
        let has_null = self.contains_null() && !other.contains_null();
        self.filtered(
            has_null,
            |i| !other.contains_index(i),
            |bits| match &other.0 {
                &Repr::Word { offset, word, .. } => {
                    for i in word_members(offset, word) {
                        bits.remove(i);
                    }
                }
                Repr::Band { bits: o_bits, .. } => {
                    bits.difference_with(o_bits);
                }
            },
        )
    }

    /// Iterates member types in ascending id order (`null` first — its id
    /// is 0).
    pub fn iter(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.contains_null()
            .then_some(TypeId::NULL)
            .into_iter()
            .chain(self.indices().map(TypeId::from_index))
    }
}

impl Default for TypeSet {
    fn default() -> Self {
        TypeSet::new()
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

    /// Every flow holds two states: at 16 bytes each, a cli-ladder session's
    /// 270k flows carry 8.7 MB of them instead of 22 MB at 40 bytes.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn value_state_is_16_bytes() {
        assert_eq!(std::mem::size_of::<ValueState>(), 16);
        assert_eq!(std::mem::size_of::<TypeSet>(), 16);
    }

    fn is_inline(s: &TypeSet) -> bool {
        matches!(s.0, Repr::Word { .. })
    }

    #[test]
    fn sets_leave_the_inline_word_only_when_they_span_two() {
        let mut s = TypeSet::singleton(t(64));
        s.insert(t(127));
        s.insert(TypeId::NULL);
        assert!(is_inline(&s), "one word, null aside");
        assert!(s.insert(t(128)));
        assert!(!is_inline(&s), "a second word moves to the heap");
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![TypeId::NULL, t(64), t(127), t(128)]
        );
        // A filter that narrows the set back to one word returns inline,
        // equal to the same members built directly.
        let mask: BitSet = [64, 127].into_iter().collect();
        let narrowed = s.intersect_mask(&mask, true);
        let direct: TypeSet = [TypeId::NULL, t(64), t(127)].into_iter().collect();
        assert!(is_inline(&narrowed));
        assert_eq!(narrowed, direct);
        assert_eq!(
            s.difference_mask(&mask),
            [TypeId::NULL, t(128)].into_iter().collect()
        );
        assert_eq!(s.difference(&direct), TypeSet::singleton(t(128)));
        assert_eq!(s.intersection(&direct), direct);
        assert_eq!(direct.intersection(&s), direct);
        // An emptied set is the one empty set, whatever word it left.
        assert_eq!(
            TypeSet::singleton(t(200)).difference(&TypeSet::singleton(t(200))),
            TypeSet::new()
        );
        assert!(TypeSet::singleton(t(200))
            .intersect_mask(&mask, true)
            .is_empty());
    }

    #[test]
    fn unions_across_representations_match_inserts() {
        let ids = [3, 70, 5, 200, 64, 0x1_0000];
        let mut by_union = TypeSet::new();
        let mut by_insert = TypeSet::new();
        for (k, &i) in ids.iter().enumerate() {
            assert_eq!(
                by_union.union_with(&TypeSet::singleton(t(i))),
                by_insert.insert(t(i))
            );
            assert_eq!(by_union, by_insert, "after {} inserts", k + 1);
            assert!(!by_union.union_with(&TypeSet::singleton(t(i))));
        }
        assert_eq!(by_union.len(), ids.len());
        // Inline into heap, heap into inline, heap into heap.
        let word: TypeSet = [t(3), t(5)].into_iter().collect();
        let mut w = word.clone();
        assert!(w.union_with(&by_union));
        assert_eq!(w, by_union);
        let mut h = by_union.clone();
        assert!(!h.union_with(&word));
        assert!(h.union_with(&TypeSet::singleton(t(6))));
        assert!(word.is_subset(&by_union) && !by_union.is_subset(&word));
        assert!(by_union.is_subset(&h) && !h.is_subset(&by_union));
        assert_eq!(format!("{word:?}"), "{t3, t5}");
        assert_eq!(format!("{h:?}"), "{t3, t5, t6, t64, t70, t200, t65536}");
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
