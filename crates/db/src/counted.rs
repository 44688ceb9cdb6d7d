//! A persistent counted relation: tuple → derivation count.
//!
//! The incremental materialization circuit (td-engine's `incremental`
//! module) maintains, for every derived predicate, how many distinct rule
//! instantiations currently derive each tuple. Under a base-relation delta
//! the counts move by small increments; a tuple is *in* the derived
//! relation exactly while its count is positive, and the interesting events
//! are the 0 ↔ positive transitions, which propagate further through the
//! circuit.
//!
//! The store is the same persistent ordered map as [`crate::Relation`]'s,
//! carrying the count as its value: snapshots are O(1) clones sharing
//! structure, so keeping one materialized state per database version costs
//! O(Δ log n) per version, not a copy of the whole relation, and nothing
//! where the older version is not kept ([`CountedRelation::update`]).
//! [`CountedRelation::select`] is [`crate::Relation::select`] restricted to
//! entries with a positive count.

use crate::ord::OrdMap;
use crate::relation;
use crate::tuple::Tuple;
use td_core::Value;

/// A persistent map tuple → count with structural sharing between versions.
/// A tuple is a member while its count is positive; entries reaching count
/// zero are removed.
#[derive(Clone, Debug)]
pub struct CountedRelation {
    arity: usize,
    /// Entries with a non-zero count.
    counts: OrdMap<Tuple, i64>,
}

impl CountedRelation {
    /// Empty counted relation of the given arity.
    pub fn new(arity: usize) -> CountedRelation {
        CountedRelation {
            arity,
            counts: OrdMap::new(),
        }
    }

    /// The relation holding `run`: tuples strictly increasing, counts
    /// non-zero. O(n).
    pub fn from_sorted(
        arity: usize,
        run: impl IntoIterator<Item = (Tuple, i64)>,
    ) -> CountedRelation {
        let counts = OrdMap::from_sorted(run);
        debug_assert!({
            let mut ok = true;
            counts.for_each(|t: &Tuple, c| ok &= t.arity() == arity && *c != 0);
            ok
        });
        CountedRelation { arity, counts }
    }

    /// The arity every member tuple must have.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of entries with a non-zero count.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The stored count (0 when absent).
    pub fn count(&self, t: &Tuple) -> i64 {
        debug_assert_eq!(t.arity(), self.arity);
        self.counts.get(t).copied().unwrap_or(0)
    }

    /// Membership: positive count.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.count(t) > 0
    }

    /// Set the count of `t` to `f(its count)` in place, in one descent
    /// ([`OrdMap::alter_mut`]): the nodes another version shares are
    /// copied, never edited. An entry reaching count 0 is removed. Returns
    /// the count `t` had.
    pub fn update(&mut self, t: &Tuple, f: impl FnOnce(i64) -> i64) -> i64 {
        debug_assert_eq!(t.arity(), self.arity);
        let mut was = 0;
        self.counts.alter_mut(t, |mine| {
            was = mine.copied().unwrap_or(0);
            let new = f(was);
            (new != 0).then_some(new)
        });
        was
    }

    /// Visit, in sorted order, every member tuple (count > 0) whose leading
    /// fields equal the values `prefix()` yields; see
    /// [`crate::Relation::for_each_with_prefix`].
    pub fn for_each_with_prefix<I: Iterator<Item = Value>>(
        &self,
        prefix: impl Fn() -> I,
        mut f: impl FnMut(&Tuple),
    ) {
        relation::for_each_with_prefix(&self.counts, prefix, |t, c| {
            if *c > 0 {
                f(t);
            }
        });
    }

    /// All member tuples (count > 0) matching a binding pattern
    /// (`None` = free position), in sorted (lexicographic) order — the same
    /// three probe regimes as [`crate::Relation::select`].
    pub fn select(&self, pattern: &[Option<Value>]) -> Vec<Tuple> {
        debug_assert_eq!(pattern.len(), self.arity);
        relation::select(&self.counts, pattern, |c| *c > 0)
    }

    /// Visit every entry in sorted order with its count.
    pub fn for_each(&self, mut f: impl FnMut(&Tuple, i64)) {
        self.counts.for_each(|t, c| f(t, *c));
    }

    /// All member tuples (count > 0) in sorted order.
    pub fn to_vec(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|t, c| {
            if c > 0 {
                out.push(t.clone());
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    /// `r` with `n` added to the count of `t`; `r` itself stays as it was.
    fn add(r: &CountedRelation, t: Tuple, n: i64) -> CountedRelation {
        let mut r = r.clone();
        r.update(&t, |c| c + n);
        r
    }

    #[test]
    fn counts_accumulate_and_cross_the_boundary() {
        let r = add(&CountedRelation::new(1), tuple!(1), 1);
        assert!(r.contains(&tuple!(1)));
        let r = add(&r, tuple!(1), 2);
        assert_eq!(r.count(&tuple!(1)), 3);
        assert!(r.contains(&tuple!(1)));
        let r = add(&r, tuple!(1), -3);
        assert!(!r.contains(&tuple!(1)));
        assert!(r.is_empty());
    }

    #[test]
    fn updating_in_place_spares_the_old_version() {
        let mut r = add(&CountedRelation::new(1), tuple!(1), 2);
        let kept = r.clone();
        assert_eq!(r.update(&tuple!(1), |c| c - 2), 2);
        assert_eq!(r.update(&tuple!(2), |c| c + 3), 0);
        assert_eq!(
            (r.count(&tuple!(1)), r.count(&tuple!(2)), r.len()),
            (0, 3, 1)
        );
        assert_eq!((kept.count(&tuple!(1)), kept.len()), (2, 1));
    }

    #[test]
    fn zero_delta_is_identity() {
        let r = add(&CountedRelation::new(1), tuple!(1), 2);
        let r2 = add(&add(&r, tuple!(1), 0), tuple!(2), 0);
        assert_eq!(r2.count(&tuple!(1)), 2);
        assert_eq!(r2.len(), 1, "a zero count is no entry");
    }

    #[test]
    fn negative_counts_are_not_members() {
        // Transient over-deletion (DRed's overestimate phase) may drive a
        // count negative; the tuple must read as absent until re-derived.
        let r = add(&CountedRelation::new(1), tuple!(7), -2);
        assert_eq!(r.count(&tuple!(7)), -2);
        assert!(!r.contains(&tuple!(7)));
        assert_eq!(r.len(), 1, "entry retained until it nets to zero");
        let r = add(&r, tuple!(7), 3);
        assert_eq!(r.count(&tuple!(7)), 1);
        assert_eq!(r.to_vec(), vec![tuple!(7)]);
    }

    #[test]
    fn select_matches_relation_regimes() {
        let mut r = CountedRelation::new(2);
        for (s, i) in [("w1", 1i64), ("w1", 2), ("w2", 1)] {
            r = add(&r, tuple!(s, i), 1);
        }
        // A suppressed (zero-crossing-avoided) negative entry must not show.
        r = add(&r, tuple!("w3", 9), -1);
        assert_eq!(r.select(&[None, None]).len(), 3);
        let w1 = r.select(&[Some(Value::sym("w1")), None]);
        assert_eq!(w1, vec![tuple!("w1", 1), tuple!("w1", 2)]);
        let one = r.select(&[None, Some(Value::Int(1))]);
        assert_eq!(one.len(), 2);
        let exact = r.select(&[Some(Value::sym("w2")), Some(Value::Int(1))]);
        assert_eq!(exact, vec![tuple!("w2", 1)]);
        assert!(r.select(&[Some(Value::sym("w3")), None]).is_empty());
    }
}
