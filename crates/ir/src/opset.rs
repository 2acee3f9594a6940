//! Bitset over operator ids, used as the dynamic-programming state of IOS.
//!
//! The scheduler memoizes on subsets of a block's operators (Algorithm 1 of
//! the paper keys `cost[S]` and `choice[S]` by the operator set `S`).
//! A 128-bit bitset covers every block in the benchmark networks — the
//! largest block the paper schedules has 33 operators (RandWire, Table 1).

use crate::op::OpId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum number of operators a single scheduled graph may contain.
pub const MAX_OPS: usize = 128;

/// A set of operators represented as a 128-bit bitmask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct OpSet(u128);

impl OpSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        OpSet(0)
    }

    /// The set containing the first `n` operator ids `{0, 1, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(
            n <= MAX_OPS,
            "OpSet supports at most {MAX_OPS} operators, got {n}"
        );
        if n == MAX_OPS {
            OpSet(u128::MAX)
        } else {
            OpSet((1u128 << n) - 1)
        }
    }

    /// The set containing a single operator.
    #[must_use]
    pub fn singleton(op: OpId) -> Self {
        let mut s = OpSet::empty();
        s.insert(op);
        s
    }

    /// Raw bit representation (useful for hashing or debugging).
    #[must_use]
    pub fn bits(self) -> u128 {
        self.0
    }

    /// True if the set contains no operators.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of operators in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if `op` is a member.
    #[must_use]
    pub fn contains(self, op: OpId) -> bool {
        debug_assert!(op.index() < MAX_OPS);
        self.0 & (1u128 << op.index()) != 0
    }

    /// Inserts an operator.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the operator index exceeds [`MAX_OPS`].
    pub fn insert(&mut self, op: OpId) {
        debug_assert!(
            op.index() < MAX_OPS,
            "operator index {} out of range",
            op.index()
        );
        self.0 |= 1u128 << op.index();
    }

    /// Removes an operator (no-op if absent).
    pub fn remove(&mut self, op: OpId) {
        self.0 &= !(1u128 << op.index());
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: OpSet) -> OpSet {
        OpSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: OpSet) -> OpSet {
        OpSet(self.0 & other.0)
    }

    /// Set difference `self − other`.
    #[must_use]
    pub fn difference(self, other: OpSet) -> OpSet {
        OpSet(self.0 & !other.0)
    }

    /// True if every member of `self` is a member of `other`.
    #[must_use]
    pub fn is_subset(self, other: OpSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the two sets share no members.
    #[must_use]
    pub fn is_disjoint(self, other: OpSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterates over the members in increasing id order (and, from the
    /// back, in decreasing order).
    pub fn iter(self) -> impl DoubleEndedIterator<Item = OpId> {
        OpSetIter(self.0)
    }

    /// The member with the smallest id, if any.
    #[must_use]
    pub fn first(self) -> Option<OpId> {
        if self.0 == 0 {
            None
        } else {
            Some(OpId(self.0.trailing_zeros() as usize))
        }
    }

    /// The member with the largest id, if any.
    #[must_use]
    pub fn last(self) -> Option<OpId> {
        self.iter().next_back()
    }
}

/// A hash map keyed by [`OpSet`] — the shape of every memo table of the
/// dynamic program (`cost[S]`, `choice[S]`, the stage memo, the Table 1
/// schedule counts).
pub type OpSetMap<V> = HashMap<OpSet, V, BuildHasherDefault<OpSetHasher>>;

/// The hasher behind [`OpSetMap`]: two multiply-folds over the bitmask's
/// halves instead of SipHash over its sixteen bytes. The keys are states the
/// program enumerates itself, so resistance to crafted collisions — what the
/// default hasher pays for — buys nothing here.
#[derive(Debug, Clone, Copy)]
pub struct OpSetHasher(u64);

impl Default for OpSetHasher {
    fn default() -> Self {
        OpSetHasher(0x243f_6a88_85a3_08d3)
    }
}

impl OpSetHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for OpSetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u128(&mut self, bits: u128) {
        self.mix(bits as u64);
        self.mix((bits >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl FromIterator<OpId> for OpSet {
    fn from_iter<T: IntoIterator<Item = OpId>>(iter: T) -> Self {
        let mut s = OpSet::empty();
        for op in iter {
            s.insert(op);
        }
        s
    }
}

impl Extend<OpId> for OpSet {
    fn extend<T: IntoIterator<Item = OpId>>(&mut self, iter: T) {
        for op in iter {
            self.insert(op);
        }
    }
}

impl fmt::Debug for OpSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpSet{{")?;
        let mut first = true;
        for op in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}", op.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for OpSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the members of an [`OpSet`].
struct OpSetIter(u128);

impl Iterator for OpSetIter {
    type Item = OpId;

    fn next(&mut self) -> Option<OpId> {
        if self.0 == 0 {
            None
        } else {
            let idx = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(OpId(idx))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for OpSetIter {
    fn next_back(&mut self) -> Option<OpId> {
        if self.0 == 0 {
            None
        } else {
            let idx = 127 - self.0.leading_zeros() as usize;
            self.0 &= !(1u128 << idx);
            Some(OpId(idx))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_full() {
        assert!(OpSet::empty().is_empty());
        assert_eq!(OpSet::full(0), OpSet::empty());
        assert_eq!(OpSet::full(5).len(), 5);
        assert_eq!(OpSet::full(128).len(), 128);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn full_beyond_capacity_panics() {
        let _ = OpSet::full(129);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = OpSet::empty();
        s.insert(OpId(3));
        s.insert(OpId(127));
        assert!(s.contains(OpId(3)));
        assert!(s.contains(OpId(127)));
        assert!(!s.contains(OpId(4)));
        s.remove(OpId(3));
        assert!(!s.contains(OpId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a: OpSet = [OpId(0), OpId(1), OpId(2)].into_iter().collect();
        let b: OpSet = [OpId(2), OpId(3)].into_iter().collect();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), OpSet::singleton(OpId(2)));
        assert_eq!(a.difference(b).len(), 2);
        assert!(OpSet::singleton(OpId(2)).is_subset(a));
        assert!(!a.is_subset(b));
        assert!(a.difference(b).is_disjoint(b));
    }

    #[test]
    fn iteration_in_order() {
        let s: OpSet = [OpId(5), OpId(1), OpId(64)].into_iter().collect();
        let got: Vec<usize> = s.iter().map(OpId::index).collect();
        assert_eq!(got, vec![1, 5, 64]);
        assert_eq!(s.first(), Some(OpId(1)));
        assert_eq!(OpSet::empty().first(), None);
        let back: Vec<usize> = s.iter().rev().map(OpId::index).collect();
        assert_eq!(back, vec![64, 5, 1]);
        assert_eq!(s.last(), Some(OpId(64)));
        assert_eq!(OpSet::full(128).last(), Some(OpId(127)));
        assert_eq!(OpSet::empty().last(), None);
    }

    #[test]
    fn opset_map_tells_nearby_states_apart() {
        // Every subset of seven operators spread over both halves of the
        // mask, as keys of one map: all distinct, all found again.
        let ops = [0usize, 1, 2, 63, 64, 65, 127];
        let mut map: OpSetMap<usize> = OpSetMap::default();
        for mask in 0..1usize << ops.len() {
            let set: OpSet = (0..ops.len())
                .filter(|bit| mask >> bit & 1 == 1)
                .map(|bit| OpId(ops[bit]))
                .collect();
            assert_eq!(map.insert(set, mask), None);
        }
        assert_eq!(map.len(), 128);
        let probe: OpSet = [OpId(1), OpId(64)].into_iter().collect();
        assert_eq!(map[&probe], 0b1_0010);
    }

    #[test]
    fn debug_format_lists_members() {
        let s: OpSet = [OpId(2), OpId(7)].into_iter().collect();
        assert_eq!(format!("{s:?}"), "OpSet{2, 7}");
    }

    proptest! {
        #[test]
        fn prop_union_len_bounds(xs in proptest::collection::vec(0usize..128, 0..40),
                                 ys in proptest::collection::vec(0usize..128, 0..40)) {
            let a: OpSet = xs.iter().map(|&i| OpId(i)).collect();
            let b: OpSet = ys.iter().map(|&i| OpId(i)).collect();
            let u = a.union(b);
            prop_assert!(u.len() <= a.len() + b.len());
            prop_assert!(u.len() >= a.len().max(b.len()));
            prop_assert!(a.is_subset(u) && b.is_subset(u));
        }

        #[test]
        fn prop_difference_partition(xs in proptest::collection::vec(0usize..128, 0..40),
                                     ys in proptest::collection::vec(0usize..128, 0..40)) {
            let a: OpSet = xs.iter().map(|&i| OpId(i)).collect();
            let b: OpSet = ys.iter().map(|&i| OpId(i)).collect();
            let diff = a.difference(b);
            let inter = a.intersection(b);
            prop_assert_eq!(diff.union(inter), a);
            prop_assert!(diff.is_disjoint(b));
            prop_assert_eq!(diff.len() + inter.len(), a.len());
        }

        #[test]
        fn prop_iter_roundtrip(xs in proptest::collection::vec(0usize..128, 0..60)) {
            let a: OpSet = xs.iter().map(|&i| OpId(i)).collect();
            let rebuilt: OpSet = a.iter().collect();
            prop_assert_eq!(a, rebuilt);
            prop_assert_eq!(a.iter().count(), a.len());
        }
    }
}
