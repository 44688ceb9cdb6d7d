//! A single stored relation: a persistent set of tuples of fixed arity.

use crate::ord::{OrdMap, Probe};
use crate::sip::Sip;
use crate::tuple::{Prefix, Tuple};
use std::hash::Hash;
use td_core::Value;

/// Seed separating the high digest lane from the low one.
const DIGEST_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// 128-bit member hash for the commutative set digest: the plain hash in the
/// low lane, an independently seeded hash in the high lane. 64 bits is not
/// enough once digests key long-lived memo tables — a silent collision there
/// would merge distinct database states. Persisted (WAL records, snapshot
/// headers), so the seeds and lane layout are frozen;
/// `crates/db/tests/digest_golden.rs` pins them.
fn hash128_of(t: &Tuple) -> u128 {
    const START: Sip<true> = Sip::seeded(DIGEST_SEED);
    let mut h = START;
    t.hash(&mut h);
    h.finish128()
}

/// A persistent relation. Like [`crate::Database`], relations are values:
/// `insert`/`remove` return new versions sharing structure, and the
/// database edits a version only it holds in place.
///
/// The tuples live in one sorted persistent map ([`OrdMap`]), which serves
/// membership, ordered iteration and the *binding-pattern index* alike:
/// tuples order lexicographically, so every pattern that binds a contiguous
/// prefix of columns selects a contiguous sorted range, and
/// [`Relation::select`] answers it with a range probe instead of a scan.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    tuples: OrdMap<Tuple, ()>,
    /// Commutative (xor) fold of all 128-bit member hashes; lets two
    /// versions be compared or hashed in O(1).
    pub(crate) sethash: u128,
    /// This version's contribution to the digest of the database holding
    /// it ([`crate::Database::relation_digest`]): set by the database
    /// update that made it, so that the next one strips it unhashed. 0 for
    /// an empty relation; only a database's own relations keep it current.
    pub(crate) contribution: u128,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        // Unequal digests prove unequal contents; equal ones are verified
        // structurally (a 2⁻¹²⁸ collision must not forge equality).
        self.arity == other.arity && self.sethash == other.sethash && self.tuples == other.tuples
    }
}

impl Eq for Relation {}

impl Relation {
    /// Empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            tuples: OrdMap::new(),
            sethash: 0,
            contribution: 0,
        }
    }

    /// The arity every member tuple must have.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Commutative digest of the tuple set, maintained incrementally. Equal
    /// sets have equal digests; unequal sets collide with probability
    /// ~2⁻¹²⁸ per comparison.
    pub fn digest(&self) -> u128 {
        self.sethash
    }

    /// Recompute the digest by re-hashing every stored tuple. Always equal
    /// to [`Relation::digest`]; exists as the oracle for the incremental
    /// maintenance (`Store::verify` cross-checks the two).
    pub fn digest_from_scratch(&self) -> u128 {
        let mut digest = 0;
        self.tuples.for_each(|t, ()| digest ^= hash128_of(t));
        digest
    }

    /// Membership test, O(log n).
    ///
    /// # Panics
    /// Debug-asserts the tuple arity.
    pub fn contains(&self, t: &Tuple) -> bool {
        debug_assert_eq!(t.arity(), self.arity);
        self.tuples.get(t).is_some()
    }

    /// Membership of the tuple `probe` stands for, without a tuple being
    /// made for it ([`OrdMap::get_entry`]).
    pub fn holds<P: Probe<Tuple>>(&self, probe: &P) -> bool {
        self.tuples.get_entry(probe).is_some()
    }

    /// Insert; returns the new relation and whether it grew.
    pub fn insert(&self, t: &Tuple) -> (Relation, bool) {
        let mut next = self.clone();
        let grew = next.set(t, true);
        (next, grew)
    }

    /// Remove; returns the new relation and whether it shrank.
    pub fn remove(&self, t: &Tuple) -> (Relation, bool) {
        let mut next = self.clone();
        let shrank = next.set(t, false);
        (next, shrank)
    }

    /// Make `t` a member or not, in this version itself ([`OrdMap::set`]):
    /// true if that changed it. A member that comes or goes is hashed once,
    /// here. The digest contribution is the caller's to set.
    pub(crate) fn set(&mut self, t: &Tuple, member: bool) -> bool {
        debug_assert_eq!(t.arity(), self.arity);
        let changed = self.tuples.set(t, member.then_some(()));
        if changed {
            self.sethash ^= hash128_of(t);
        }
        changed
    }

    /// [`Relation::set`] taken back: `t`'s membership is `member` again and
    /// the digests are what they were, restored rather than rehashed.
    pub(crate) fn reset(&mut self, t: &Tuple, member: bool, sethash: u128, contribution: u128) {
        self.tuples.set(t, member.then_some(()));
        (self.sethash, self.contribution) = (sethash, contribution);
    }

    /// All tuples matching a binding pattern (`None` = free position).
    ///
    /// Three regimes, fastest applicable first:
    /// - fully bound: a membership test, O(log n);
    /// - a bound contiguous prefix of ≥ 1 column: a sorted-range probe,
    ///   O(log n + candidates), with any bound columns *after* the first
    ///   free one filtered per candidate;
    /// - otherwise (first column free): an in-order walk.
    ///
    /// Every regime returns tuples in sorted (lexicographic) order — the
    /// engine's canonical expansion order — so callers never re-sort.
    pub fn select(&self, pattern: &[Option<Value>]) -> Vec<Tuple> {
        debug_assert_eq!(pattern.len(), self.arity);
        select(&self.tuples, pattern, |()| true)
    }

    /// Visit, in sorted order, every tuple whose leading fields equal the
    /// values `prefix()` yields: [`Relation::select`]'s range probe without
    /// the `Vec` (an empty prefix visits everything, a full one at most one
    /// tuple). `prefix` is called once per tuple compared, so that a caller
    /// can read the values from wherever it keeps them.
    pub fn for_each_with_prefix<I: Iterator<Item = Value>>(
        &self,
        prefix: impl Fn() -> I,
        mut f: impl FnMut(&Tuple),
    ) {
        for_each_with_prefix(&self.tuples, prefix, |t, ()| f(t));
    }

    /// Visit every tuple in sorted order.
    pub fn for_each(&self, mut f: impl FnMut(&Tuple)) {
        self.tuples.for_each(|t, ()| f(t));
    }

    /// All tuples in sorted (lexicographic) order.
    pub fn to_vec(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|t| out.push(t.clone()));
        out
    }
}

/// The three-regime selection behind [`Relation::select`] and
/// [`crate::CountedRelation::select`]: the keys of `map` matching `pattern`
/// whose value `is_member` accepts, in sorted order.
pub(crate) fn select<V: Clone + PartialEq>(
    map: &OrdMap<Tuple, V>,
    pattern: &[Option<Value>],
    is_member: impl Fn(&V) -> bool,
) -> Vec<Tuple> {
    let bound = pattern.iter().take_while(|v| v.is_some()).count();
    if bound == pattern.len() {
        let t: Tuple = pattern.iter().map(|v| v.expect("fully bound")).collect();
        return match map.get(&t) {
            Some(v) if is_member(v) => vec![t],
            _ => Vec::new(),
        };
    }
    // Whether any bound column remains after the first free one; if not,
    // every tuple visited matches and the per-candidate filter is skipped.
    let fully_covered = pattern[bound..].iter().all(Option::is_none);
    let mut out = Vec::new();
    let keep = |t: &Tuple, v: &V| {
        if is_member(v) && (fully_covered || t.matches(pattern)) {
            out.push(t.clone());
        }
    };
    if bound == 0 {
        map.for_each(keep);
    } else {
        for_each_with_prefix(map, || pattern[..bound].iter().flatten().copied(), keep);
    }
    out
}

/// The range probe behind [`Relation::select`] and the callback-form probes
/// of both relation types — and of any other sorted tuple map, such as the
/// Datalog circuit's arrangements: tuples sort lexicographically, so those
/// whose leading fields equal the prefix are contiguous. The prefix is
/// encoded once, as a tuple's code is ([`tuple`](mod@crate::tuple)), and the
/// probe searches the nodes' code arrays: a slot costs a word compare or
/// two, and its tuple is read only when the prefix's encoding is 8 bytes or
/// longer and the first 8 bytes tie.
pub fn for_each_with_prefix<V: Clone + PartialEq, I: Iterator<Item = Value>>(
    map: &OrdMap<Tuple, V>,
    prefix: impl Fn() -> I,
    f: impl FnMut(&Tuple, &V),
) {
    let probe = Prefix::of(prefix());
    map.for_each_in_range(probe.codes(), |t| probe.order(t, &prefix), f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn insert_remove_contains() {
        let r = Relation::new(2);
        let (r, grew) = r.insert(&tuple!("a", 1));
        assert!(grew);
        assert!(r.contains(&tuple!("a", 1)));
        let (r, grew) = r.insert(&tuple!("a", 1));
        assert!(!grew);
        assert_eq!(r.len(), 1);
        let (r, shrank) = r.remove(&tuple!("a", 1));
        assert!(shrank);
        assert!(r.is_empty());
    }

    #[test]
    fn select_with_patterns() {
        let mut r = Relation::new(2);
        for (s, i) in [("w1", 1), ("w1", 2), ("w2", 1)] {
            r = r.insert(&tuple!(s, i)).0;
        }
        assert_eq!(r.select(&[None, None]).len(), 3);
        let w1 = r.select(&[Some(Value::sym("w1")), None]);
        assert_eq!(w1.len(), 2);
        let one = r.select(&[None, Some(Value::Int(1))]);
        assert_eq!(one.len(), 2);
        let exact = r.select(&[Some(Value::sym("w2")), Some(Value::Int(1))]);
        assert_eq!(exact, vec![tuple!("w2", 1)]);
        assert!(r.select(&[Some(Value::sym("w3")), None]).is_empty());
    }

    #[test]
    fn persistence_across_versions() {
        let r0 = Relation::new(1);
        let (r1, _) = r0.insert(&tuple!("x"));
        let (r2, _) = r1.remove(&tuple!("x"));
        assert!(r0.is_empty());
        assert!(r1.contains(&tuple!("x")));
        assert!(r2.is_empty());
        assert_eq!(r0.digest(), r2.digest());
        assert_eq!(r0, r2);
    }

    #[test]
    fn zero_ary_relation_acts_as_flag() {
        let r = Relation::new(0);
        assert!(!r.contains(&Tuple::unit()));
        let (r, _) = r.insert(&Tuple::unit());
        assert!(r.contains(&Tuple::unit()));
        assert_eq!(r.len(), 1);
        let (r, _) = r.insert(&Tuple::unit());
        assert_eq!(r.len(), 1, "flag cannot be set twice");
    }

    #[test]
    fn from_scratch_digest_catches_a_drifted_sethash() {
        let mut r = Relation::new(2);
        for (s, i) in [("w1", 1), ("w1", 2), ("w2", 1)] {
            r = r.insert(&tuple!(s, i)).0;
        }
        r = r.remove(&tuple!("w1", 2)).0;
        assert_eq!(r.digest(), r.digest_from_scratch());
        // A relation whose maintained digest missed the removal.
        let drifted = Relation {
            sethash: r.sethash ^ hash128_of(&tuple!("w1", 2)),
            ..r.clone()
        };
        assert_ne!(drifted.digest(), drifted.digest_from_scratch());
        assert_eq!(drifted.digest_from_scratch(), r.digest());
    }
}
