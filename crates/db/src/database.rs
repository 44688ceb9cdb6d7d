//! Snapshot databases.
//!
//! A [`Database`] is an immutable value: updates return new versions, and the
//! engine keeps old versions on its choicepoint stack (TD transactions are
//! all-or-nothing, so a failed execution must restore the pre-state exactly —
//! here that is free). Relations share structure between versions, so a
//! snapshot costs one small map clone.

use crate::relation::Relation;
use crate::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt;
use td_core::{Atom, Pred};

/// Errors raised by database operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DbError {
    /// Tuple arity does not match the relation arity.
    ArityMismatch {
        pred: Pred,
        expected: usize,
        found: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::ArityMismatch {
                pred,
                expected,
                found,
            } => write!(
                f,
                "tuple of arity {found} for relation `{pred}` (arity {expected})"
            ),
        }
    }
}

impl std::error::Error for DbError {}

/// An immutable snapshot of the whole database.
///
/// The relation map is a `BTreeMap` so iteration (and therefore display) is
/// deterministic. The content digest is carried alongside and maintained
/// incrementally: each non-empty relation contributes a 128-bit hash of
/// `(pred, relation digest, len)`, and the database digest is the XOR of all
/// contributions. XOR is commutative and self-inverse, so an `insert` or
/// `delete` updates the digest in O(1) — it strips the touched relation's
/// old contribution and adds the new one — and the result is
/// history-independent: content-equal databases always digest equally.
#[derive(Clone, Debug, Default)]
pub struct Database {
    rels: BTreeMap<Pred, Relation>,
    digest: u128,
}

impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        // The digest is derived data; relations carry content identity.
        self.rels == other.rels
    }
}

impl Eq for Database {}

/// The digest contribution of one relation: 0 when empty (so declared-but-
/// empty relations don't affect content identity), otherwise a 128-bit hash
/// of the predicate, the relation's commutative tuple digest, and its size.
fn contribution(pred: Pred, rel: &Relation) -> u128 {
    contribution_of(pred, rel.digest(), rel.len())
}

/// [`contribution`] from a relation's tuple digest `d` and size.
fn contribution_of(pred: Pred, d: u128, len: usize) -> u128 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    if len == 0 {
        return 0;
    }
    let mut lo = DefaultHasher::new();
    pred.hash(&mut lo);
    d.hash(&mut lo);
    len.hash(&mut lo);
    // Independent high lane: same fields under a distinct seed.
    let mut hi = DefaultHasher::new();
    0x85eb_ca6b_27d4_eb4fu64.hash(&mut hi);
    pred.hash(&mut hi);
    d.hash(&mut hi);
    len.hash(&mut hi);
    ((hi.finish() as u128) << 64) | lo.finish() as u128
}

impl Database {
    /// An empty database with no declared relations.
    pub fn new() -> Database {
        Database::default()
    }

    /// A database with empty relations for every base predicate of a
    /// program.
    pub fn with_schema_of(program: &td_core::Program) -> Database {
        let mut db = Database::new();
        for p in program.base_preds() {
            db = db.declare(p);
        }
        db
    }

    /// Declare a relation for `pred` (empty if not present). Idempotent.
    pub fn declare(&self, pred: Pred) -> Database {
        if self.rels.contains_key(&pred) {
            return self.clone();
        }
        let mut rels = self.rels.clone();
        rels.insert(pred, Relation::new(pred.arity as usize));
        // An empty relation contributes 0: the digest is unchanged.
        Database {
            rels,
            digest: self.digest,
        }
    }

    /// The relation for `pred`, if declared.
    pub fn relation(&self, pred: Pred) -> Option<&Relation> {
        self.rels.get(&pred)
    }

    /// Declared predicates, in sorted order.
    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.rels.keys().copied()
    }

    /// Does the database contain the tuple?
    pub fn contains(&self, pred: Pred, t: &Tuple) -> bool {
        self.rels.get(&pred).is_some_and(|r| r.contains(t))
    }

    /// Insert a tuple, returning the new database and whether it changed.
    /// Auto-declares unknown relations (the schema check happens upstream in
    /// program validation).
    pub fn insert(&self, pred: Pred, t: &Tuple) -> Result<(Database, bool), DbError> {
        let rel = match self.rels.get(&pred) {
            Some(r) => r.clone(),
            None => Relation::new(pred.arity as usize),
        };
        if t.arity() != rel.arity() {
            return Err(DbError::ArityMismatch {
                pred,
                expected: rel.arity(),
                found: t.arity(),
            });
        }
        let old_contribution = contribution(pred, &rel);
        let (rel, grew) = rel.insert(t);
        if !grew && self.rels.contains_key(&pred) {
            return Ok((self.clone(), false));
        }
        let digest = self.digest ^ old_contribution ^ contribution(pred, &rel);
        let mut rels = self.rels.clone();
        rels.insert(pred, rel);
        Ok((Database { rels, digest }, grew))
    }

    /// Delete a tuple, returning the new database and whether it changed.
    /// Deleting an absent tuple succeeds with no change (TD's `del` is a
    /// "make it absent" operation).
    pub fn delete(&self, pred: Pred, t: &Tuple) -> Result<(Database, bool), DbError> {
        let Some(rel) = self.rels.get(&pred) else {
            return Ok((self.clone(), false));
        };
        if t.arity() != rel.arity() {
            return Err(DbError::ArityMismatch {
                pred,
                expected: rel.arity(),
                found: t.arity(),
            });
        }
        let old_contribution = contribution(pred, rel);
        let (rel, shrank) = rel.remove(t);
        if !shrank {
            return Ok((self.clone(), false));
        }
        let digest = self.digest ^ old_contribution ^ contribution(pred, &rel);
        let mut rels = self.rels.clone();
        rels.insert(pred, rel);
        Ok((Database { rels, digest }, true))
    }

    /// Check whether a *ground* atom holds.
    pub fn holds(&self, atom: &Atom) -> bool {
        match atom.ground_args() {
            Some(vals) => self.contains(atom.pred, &Tuple::new(vals)),
            None => false,
        }
    }

    /// Total number of tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(Relation::len).sum()
    }

    /// Deterministic 128-bit digest of the database contents, usable for
    /// config-space memoization and subgoal-cache keys. Maintained
    /// incrementally on every update, so this is O(1) — no relation walk on
    /// the memoization hot path.
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// The stable per-relation digest of `pred`'s relation: exactly this
    /// relation's contribution to [`Database::digest`]. 0 for an empty or
    /// undeclared relation (consistently with the whole-db digest, where
    /// empty relations contribute nothing), so declaring a relation never
    /// changes its per-relation digest. O(1): the underlying relation
    /// digest is maintained incrementally.
    ///
    /// Two databases agree on `relation_digest(p)` iff `p`'s relation has
    /// equal content in both (up to a 2⁻¹²⁸ collision) — the comparison
    /// fine-grained OCC validation makes per read relation.
    pub fn relation_digest(&self, pred: Pred) -> u128 {
        self.rels
            .get(&pred)
            .map_or(0, |rel| contribution(pred, rel))
    }

    /// Recompute the digest by walking every tuple of every relation,
    /// trusting neither this database's maintained digest nor the
    /// relations' (see [`Relation::digest_from_scratch`]). Always equal to
    /// [`Database::digest`]; exists as the oracle for the incremental
    /// maintenance.
    pub fn digest_from_scratch(&self) -> u128 {
        self.rels.iter().fold(0u128, |acc, (p, r)| {
            acc ^ contribution_of(*p, r.digest_from_scratch(), r.len())
        })
    }

    /// Content equality ignoring which empty relations are declared.
    ///
    /// Compares digests first: the digest is history-independent, so equal
    /// contents always digest equally — unequal digests prove unequal
    /// contents with no relation walk. Equal digests are then verified
    /// structurally (a 2⁻¹²⁸ collision must not forge equality).
    pub fn same_content(&self, other: &Database) -> bool {
        if self.digest != other.digest {
            return false;
        }
        fn nonempty(db: &Database) -> Vec<(Pred, &Relation)> {
            db.rels
                .iter()
                .filter(|(_, r)| !r.is_empty())
                .map(|(p, r)| (*p, r))
                .collect()
        }
        nonempty(self) == nonempty(other)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for (p, r) in &self.rels {
            for t in r.to_vec() {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                if t.arity() == 0 {
                    write!(f, "{}", p.name)?;
                } else {
                    write!(f, "{}{}", p.name, t)?;
                }
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn p(name: &str, arity: u32) -> Pred {
        Pred::new(name, arity)
    }

    #[test]
    fn insert_and_contains() {
        let db = Database::new();
        let (db, changed) = db.insert(p("item", 1), &tuple!("w1")).unwrap();
        assert!(changed);
        assert!(db.contains(p("item", 1), &tuple!("w1")));
        assert!(!db.contains(p("item", 1), &tuple!("w2")));
        assert!(!db.contains(p("other", 1), &tuple!("w1")));
    }

    #[test]
    fn delete_absent_is_noop_success() {
        let db = Database::new();
        let (db2, changed) = db.delete(p("item", 1), &tuple!("w1")).unwrap();
        assert!(!changed);
        assert!(db2.same_content(&db));
    }

    #[test]
    fn arity_mismatch_errors() {
        let db = Database::new().declare(p("r", 2));
        let err = db.insert(p("r", 2), &tuple!("only-one")).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { found: 1, .. }));
    }

    #[test]
    fn snapshots_are_cheap_and_independent() {
        let (db1, _) = Database::new().insert(p("a", 1), &tuple!(1)).unwrap();
        let snap = db1.clone();
        let (db2, _) = db1.insert(p("a", 1), &tuple!(2)).unwrap();
        let (db3, _) = db2.delete(p("a", 1), &tuple!(1)).unwrap();
        assert_eq!(snap.relation(p("a", 1)).unwrap().len(), 1);
        assert_eq!(db2.relation(p("a", 1)).unwrap().len(), 2);
        assert_eq!(db3.relation(p("a", 1)).unwrap().len(), 1);
        assert!(db3.contains(p("a", 1), &tuple!(2)));
        assert!(!db3.contains(p("a", 1), &tuple!(1)));
    }

    #[test]
    fn holds_checks_ground_atoms() {
        use td_core::Term;
        let (db, _) = Database::new()
            .insert(p("task", 2), &tuple!("w1", "t1"))
            .unwrap();
        let ground = Atom::new("task", vec![Term::sym("w1"), Term::sym("t1")]);
        let nonground = Atom::new("task", vec![Term::sym("w1"), Term::var(0)]);
        assert!(db.holds(&ground));
        assert!(!db.holds(&nonground));
    }

    #[test]
    fn digest_ignores_declared_empty_relations() {
        let a = Database::new().declare(p("x", 1));
        let b = Database::new();
        assert_eq!(a.digest(), b.digest());
        assert!(a.same_content(&b));
    }

    #[test]
    fn digest_tracks_content_roundtrip() {
        let db = Database::new();
        let d0 = db.digest();
        let (db1, _) = db.insert(p("q", 1), &tuple!(5)).unwrap();
        assert_ne!(db1.digest(), d0);
        let (db2, _) = db1.delete(p("q", 1), &tuple!(5)).unwrap();
        assert_eq!(db2.digest(), d0);
    }

    #[test]
    fn digest_is_history_independent() {
        // Same content reached by different op orders (and through a
        // detour) digests identically — the property the same_content fast
        // path and the subgoal cache rely on.
        let (a, _) = Database::new().insert(p("q", 1), &tuple!(1)).unwrap();
        let (a, _) = a.insert(p("r", 1), &tuple!(2)).unwrap();
        let (b, _) = Database::new().insert(p("r", 1), &tuple!(2)).unwrap();
        let (b, _) = b.insert(p("q", 1), &tuple!(9)).unwrap();
        let (b, _) = b.delete(p("q", 1), &tuple!(9)).unwrap();
        let (b, _) = b.insert(p("q", 1), &tuple!(1)).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest_from_scratch());
        assert_eq!(b.digest(), b.digest_from_scratch());
        assert!(a.same_content(&b));
    }

    #[test]
    fn same_content_digest_fast_path_rejects_differences() {
        let (a, _) = Database::new().insert(p("q", 1), &tuple!(1)).unwrap();
        let (b, _) = Database::new().insert(p("q", 1), &tuple!(2)).unwrap();
        assert_ne!(a.digest(), b.digest());
        assert!(!a.same_content(&b));
    }

    #[test]
    fn display_is_sorted_and_readable() {
        let (db, _) = Database::new().insert(p("b", 1), &tuple!(2)).unwrap();
        let (db, _) = db.insert(p("a", 0), &Tuple::unit()).unwrap();
        let (db, _) = db.insert(p("b", 1), &tuple!(1)).unwrap();
        assert_eq!(db.to_string(), "{a, b(1), b(2)}");
    }

    #[test]
    fn with_schema_of_declares_base_relations() {
        let prog = td_core::Program::builder()
            .base_pred("item", 1)
            .base_pred("busy", 2)
            .build()
            .unwrap();
        let db = Database::with_schema_of(&prog);
        assert_eq!(db.preds().count(), 2);
        assert!(db.relation(p("item", 1)).is_some());
    }

    #[test]
    fn relation_digest_is_the_digest_contribution() {
        let db = Database::new().declare(p("a", 1));
        // Empty and undeclared relations both digest to 0.
        assert_eq!(db.relation_digest(p("a", 1)), 0);
        assert_eq!(db.relation_digest(p("nope", 1)), 0);
        let (db1, _) = db.insert(p("a", 1), &tuple!(1)).unwrap();
        let (db2, _) = db1.insert(p("b", 1), &tuple!(2)).unwrap();
        // Writing `b` leaves `a`'s per-relation digest alone.
        assert_eq!(
            db1.relation_digest(p("a", 1)),
            db2.relation_digest(p("a", 1))
        );
        assert_ne!(db2.relation_digest(p("b", 1)), 0);
        // The whole-db digest is exactly the XOR of the contributions.
        assert_eq!(
            db2.digest(),
            db2.relation_digest(p("a", 1)) ^ db2.relation_digest(p("b", 1))
        );
        // Restoring content restores the per-relation digest (ABA is fine:
        // digest-equal means content-equal).
        let (db3, _) = db2.delete(p("a", 1), &tuple!(1)).unwrap();
        let (db4, _) = db3.insert(p("a", 1), &tuple!(1)).unwrap();
        assert_eq!(
            db4.relation_digest(p("a", 1)),
            db2.relation_digest(p("a", 1))
        );
    }

    #[test]
    fn total_tuples_sums_relations() {
        let (db, _) = Database::new().insert(p("a", 1), &tuple!(1)).unwrap();
        let (db, _) = db.insert(p("b", 1), &tuple!(1)).unwrap();
        let (db, _) = db.insert(p("b", 1), &tuple!(2)).unwrap();
        assert_eq!(db.total_tuples(), 3);
    }
}
