//! A dense, growable bitset used for type sets and CFG analyses.
//!
//! The analysis engine manipulates sets of [`crate::TypeId`]s constantly
//! (value states, subtype masks, filter results), so the representation is
//! word-level — with one twist: storage is *banded*. A set only stores the
//! words between the lowest and highest it has ever needed (`offset` is the
//! logical index of `words[0]`), so a value state holding a handful of
//! clustered type ids costs a few words regardless of how large the
//! program's type-id space is. Binary operations iterate band overlaps, not
//! the full id range; equality and hashing are content-based (the band
//! placement of equal sets may differ).

use std::fmt;
use std::hash::{Hash, Hasher};

/// A dense-banded bitset over `usize` indices.
#[derive(Clone, Default)]
pub struct BitSet {
    /// Logical word index of `words[0]`.
    offset: u32,
    words: Vec<u64>,
}

const BITS: usize = 64;

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitset whose band already covers bits `0..n`: a
    /// dense set, for a caller that will fill most of that range. Sparse or
    /// clustered sets (value states, the program's subtype masks) start
    /// from [`BitSet::new`] and grow only the band they use.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            offset: 0,
            words: vec![0; n.div_ceil(BITS)],
        }
    }

    /// Creates an empty bitset whose band covers exactly the words of bits
    /// `lo..=hi`, so inserting anything in that range never reallocates.
    pub(crate) fn with_band(lo: usize, hi: usize) -> Self {
        Self {
            offset: u32::try_from(lo / BITS).expect("bit index exceeds the band offset range"),
            words: vec![0; hi / BITS - lo / BITS + 1],
        }
    }

    /// Bytes the set holds on the heap (its band's capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The logical word at band-external index `w` (zero outside the band).
    #[inline]
    fn word(&self, w: usize) -> u64 {
        let off = self.offset as usize;
        if w < off {
            return 0;
        }
        self.words.get(w - off).copied().unwrap_or(0)
    }

    /// Trimmed logical word bounds `(first_nonzero, last_nonzero)`.
    #[inline]
    fn bounds(&self) -> Option<(usize, usize)> {
        let first = self.words.iter().position(|&w| w != 0)?;
        let last = self.words.iter().rposition(|&w| w != 0).unwrap();
        let off = self.offset as usize;
        Some((off + first, off + last))
    }

    /// Grows the band (if needed) so logical words `lo..=hi` are backed.
    fn reserve_words(&mut self, lo: usize, hi: usize) {
        if self.words.is_empty() {
            self.offset = lo as u32;
            self.words.resize(hi - lo + 1, 0);
            return;
        }
        let off = self.offset as usize;
        if lo < off {
            let grow = off - lo;
            self.words.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = lo as u32;
        }
        let off = self.offset as usize;
        if hi >= off + self.words.len() {
            self.words.resize(hi - off + 1, 0);
        }
    }

    /// Number of storage words in the band (including interior zero words).
    /// This is the *representation width*, not the population count — what
    /// the set's storage costs in heap words.
    pub fn word_width(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns the number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Sets bit `i`, growing the band as needed. Returns `true` if the bit
    /// was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / BITS, i % BITS);
        self.reserve_words(w, w);
        let slot = &mut self.words[w - self.offset as usize];
        let newly = *slot & (1 << b) == 0;
        *slot |= 1 << b;
        newly
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / BITS, i % BITS);
        let off = self.offset as usize;
        if w < off || w >= off + self.words.len() {
            return false;
        }
        let slot = &mut self.words[w - off];
        let was = *slot & (1 << b) != 0;
        *slot &= !(1 << b);
        was
    }

    /// Returns `true` if bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / BITS) & (1 << (i % BITS)) != 0
    }

    /// Removes all bits.
    pub fn clear(&mut self) {
        self.offset = 0;
        self.words.clear();
    }

    /// Unions `other` into `self`. Returns `true` if any bit changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let Some((lo, hi)) = other.bounds() else {
            return false;
        };
        self.reserve_words(lo, hi);
        let off = self.offset as usize;
        let mut changed = false;
        for w in lo..=hi {
            let b = other.word(w);
            let a = &mut self.words[w - off];
            changed |= b & !*a != 0;
            *a |= b;
        }
        changed
    }

    /// Intersects `self` with `other` in place. Returns `true` if any bit
    /// changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let off = self.offset as usize;
        let mut changed = false;
        for (i, a) in self.words.iter_mut().enumerate() {
            let b = other.word(off + i);
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Removes all bits of `other` from `self`. Returns `true` if any bit
    /// changed.
    pub fn difference_with(&mut self, other: &BitSet) -> bool {
        let off = self.offset as usize;
        let mut changed = false;
        for (i, a) in self.words.iter_mut().enumerate() {
            let b = other.word(off + i);
            let next = *a & !b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Returns `true` if every bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        let off = self.offset as usize;
        self.words
            .iter()
            .enumerate()
            .all(|(i, &a)| a & !other.word(off + i) == 0)
    }

    /// Returns `true` if `self` and `other` share no bit.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        let off = self.offset as usize;
        self.words
            .iter()
            .enumerate()
            .all(|(i, &a)| a & other.word(off + i) == 0)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl PartialEq for BitSet {
    /// Content equality: band placement and slack are representation
    /// details.
    fn eq(&self, other: &BitSet) -> bool {
        match (self.bounds(), other.bounds()) {
            (None, None) => true,
            (Some((alo, ahi)), Some((blo, bhi))) => {
                alo == blo && ahi == bhi && (alo..=ahi).all(|w| self.word(w) == other.word(w))
            }
            _ => false,
        }
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    /// Content hash matching the content-based [`PartialEq`].
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.bounds() {
            None => 0usize.hash(state),
            Some((lo, hi)) => {
                lo.hash(state);
                for w in lo..=hi {
                    self.word(w).hash(state);
                }
            }
        }
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over set bit indices, produced by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some((self.set.offset as usize + self.word) * BITS + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_across_words() {
        let mut s = BitSet::new();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(1000);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 1000]);
    }

    #[test]
    fn banded_storage_stays_narrow() {
        // A set holding clustered high indices must not allocate the words
        // below the cluster.
        let mut s = BitSet::new();
        s.insert(70_000);
        s.insert(70_001);
        s.insert(70_100);
        assert!(s.words.len() <= 3, "band width {} too wide", s.words.len());
        assert!(s.contains(70_000) && !s.contains(0) && !s.contains(69_000));
        // Growing downward extends the band at the front.
        s.insert(64_000);
        assert!(s.contains(64_000) && s.contains(70_100));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn equality_and_hash_ignore_band_placement() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Same content, different construction order → possibly different
        // band layouts.
        let mut a = BitSet::new();
        a.insert(500);
        a.insert(100);
        let mut b = BitSet::with_capacity(1000);
        b.insert(100);
        b.insert(500);
        assert_eq!(a, b);
        let hash = |s: &BitSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        // Removing everything equals the empty set.
        let mut c = a.clone();
        c.remove(100);
        c.remove(500);
        assert_eq!(c, BitSet::new());
        assert_ne!(a, BitSet::new());
    }

    #[test]
    fn union_intersect_difference() {
        let a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2, 3, 4, 200].into_iter().collect();

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 200]);
        assert!(!u.union_with(&b));

        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);

        let mut d = a.clone();
        assert!(d.difference_with(&b));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn binary_ops_across_disjoint_bands() {
        let lo: BitSet = [5].into_iter().collect();
        let hi: BitSet = [100_000].into_iter().collect();
        let mut u = lo.clone();
        assert!(u.union_with(&hi));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![5, 100_000]);
        let mut i = lo.clone();
        assert!(i.intersect_with(&hi));
        assert!(i.is_empty());
        let mut d = u.clone();
        assert!(d.difference_with(&hi));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![5]);
        assert!(lo.is_disjoint(&hi));
        assert!(lo.is_subset(&u));
        assert!(hi.is_subset(&u));
        assert!(!u.is_subset(&lo));
    }

    #[test]
    fn subset_and_disjoint() {
        let a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [1, 2, 3].into_iter().collect();
        let c: BitSet = [9, 300].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        // Empty set is subset of everything and disjoint from everything.
        let e = BitSet::new();
        assert!(e.is_subset(&a));
        assert!(e.is_disjoint(&a));
    }

    #[test]
    fn intersect_with_shorter_other_truncates() {
        let mut a: BitSet = [1, 100].into_iter().collect();
        let b: BitSet = [1].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn debug_format() {
        let s: BitSet = [1, 5].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 5}");
    }
}
