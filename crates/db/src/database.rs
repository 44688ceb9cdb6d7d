//! Snapshot databases.
//!
//! A [`Database`] is an immutable value: updates return new versions, and the
//! engine keeps old versions on its choicepoint stack (TD transactions are
//! all-or-nothing, so a failed execution must restore the pre-state exactly —
//! here that is free). The relation map and every relation in it are
//! persistent, so a snapshot is one refcount, and an update path-copies the
//! O(log R) map nodes above the touched relation and the O(log n) tuple nodes
//! above the touched tuple — nothing else.

use crate::delta::DeltaOp;
use crate::ord::OrdMap;
use crate::relation::Relation;
use crate::tuple::Tuple;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use td_core::{Atom, Pred, Term};

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
/// The relation map is the crate's persistent [`OrdMap`], ordered by
/// predicate so iteration (and therefore display) is deterministic, and
/// shared between versions so that `clone` is one refcount. The content
/// digest is carried alongside and maintained incrementally: each non-empty
/// relation contributes a 128-bit hash of `(pred, relation digest, len)`,
/// and the database digest is the XOR of all contributions. XOR is commutative and self-inverse, so an `insert` or
/// `delete` updates the digest in O(1) — it strips the touched relation's
/// old contribution and adds the new one — and the result is
/// history-independent: content-equal databases always digest equally.
///
/// A version also carries what has been derived from it so far: the
/// [arrangements](Database::arrangement) of its relations that somebody has
/// probed, and one [slot](Database::derived) per owner (the engine gives
/// each compiled circuit one) for what that owner derives. `insert` and
/// `delete` carry both to the version they make, whoever calls them: an
/// arrangement by one edit, a slot as a [`Pending`] one that names where
/// to derive from. Derived data lives exactly as long as the version does,
/// and nothing that identifies or renders content — `==`, the digest,
/// `Display`, the store's codec — sees it.
#[derive(Clone, Debug, Default)]
pub struct Database {
    rels: OrdMap<Pred, Relation>,
    digest: u128,
    /// Empty until the first derivation from this version, or from the
    /// version it was made from. From then on it is one cell for this
    /// handle and every clone made of it afterwards: whichever of them
    /// derives something derives it for all. A clone made earlier has a
    /// cell of its own.
    derived: OnceLock<Arc<Derived>>,
}

/// A slot of a database version, for one owner: what the owner derived
/// from exactly this version — whoever fills it chooses the type — or,
/// until it has, where to derive it from.
#[derive(Default)]
pub struct Slot {
    made: OnceLock<Box<dyn Any + Send + Sync>>,
    /// Until `made` is set.
    source: Mutex<Source>,
}

/// Where a slot's content comes from.
#[derive(Default)]
enum Source {
    /// Nowhere: the first derivation is from scratch.
    #[default]
    Scratch,
    /// The version was made from one that had something derived.
    Pending(Pending),
    /// Taken by the derivation that fills the slot.
    Taken,
}

/// A version made by `insert`/`delete` from one whose slot held something,
/// before anything is derived from it: the nearest ancestor that had, and
/// the ops since. Held here, the ancestor and what its owner derived from
/// it live until the version is derived from; so a lineage of k updates
/// nobody derives from holds one ancestor and one list of k ops.
pub struct Pending {
    /// The ancestor as this owner needs it ([`Database::anchor`]).
    ancestor: Database,
    ops: Ops,
}

/// An op sequence, newest first, as a persistent list: a version appends
/// to its parent's in O(1) and shares the rest.
#[derive(Clone, Default)]
struct Ops(Option<Arc<OpLink>>);

struct OpLink {
    op: DeltaOp,
    prev: Ops,
    /// The version this op ends the list of, as an anchor, once something
    /// was derived from it while another list ran through here: it is
    /// nearer than the ancestor to every version whose list does.
    made: OnceLock<Database>,
}

impl Ops {
    fn push(self, op: DeltaOp) -> Ops {
        let made = OnceLock::new();
        Ops(Some(Arc::new(OpLink {
            op,
            prev: self,
            made,
        })))
    }

    fn links(&self) -> impl Iterator<Item = &OpLink> {
        std::iter::successors(self.0.as_deref(), |l| l.prev.0.as_deref())
    }
}

/// Unlinked one by one: a long list would recurse once per op.
impl Drop for OpLink {
    fn drop(&mut self) {
        let mut next = self.prev.0.take();
        while let Some(link) = next {
            next = Arc::try_unwrap(link).ok().and_then(|mut l| l.prev.0.take());
        }
    }
}

impl Slot {
    /// What the owner derived from this version, if it has.
    pub fn get(&self) -> Option<&(dyn Any + Send + Sync)> {
        self.made.get().map(|made| &**made)
    }

    /// Is there something to derive from short of a from-scratch run: is
    /// it derived, being derived, or pending?
    pub fn holds(&self) -> bool {
        self.made.get().is_some() || !matches!(*self.source(), Source::Scratch)
    }

    fn source(&self) -> MutexGuard<'_, Source> {
        (self.source.lock()).expect("only a panic under the lock poisons it")
    }
}

impl Pending {
    /// The nearest version something was derived from, and the ops from it
    /// to the pending version, newest first: the ancestor, or a version
    /// between the two that was derived from since — that marked the newest
    /// op of its own list ([`Database::derive`]).
    fn nearest(&self) -> (&Database, Vec<&DeltaOp>) {
        let mut since = Vec::new();
        for link in self.ops.links() {
            if let Some(made) = link.made.get() {
                return (made, since);
            }
            since.push(&link.op);
        }
        (&self.ancestor, since)
    }

    /// The nearest version something was derived from, and the ops from it
    /// to the pending version, newest first: the ancestor, or a version
    /// between the two that was derived from since. The ancestor is moved
    /// out when it is the nearest, so the caller's is the handle the
    /// pending version held. Either is an anchor of its version: the
    /// version's relations and arrangements and the owner's slot, not the
    /// other owners' slots.
    pub fn into_nearest(self) -> (Database, Vec<DeltaOp>) {
        let (marked, since) = {
            let (from, since) = self.nearest();
            let marked = (!std::ptr::eq(from, &self.ancestor)).then(|| from.clone());
            (marked, since.into_iter().cloned().collect())
        };
        (marked.unwrap_or(self.ancestor), since)
    }
}

/// What has been derived from one version, as two lists that only grow.
#[derive(Default)]
struct Derived {
    /// That relation's tuples, permuted.
    arranged: Chain<ArrangedBy, OrdMap<Tuple, ()>>,
    /// By owner; an anchor of the version shares one
    /// ([`Database::anchor`]).
    slots: Chain<u64, Arc<Slot>>,
}

/// Which arrangement: a predicate and an order of its columns.
type ArrangedBy = (Pred, Arc<[usize]>);

/// A list that is appended to through `&self`: a link is set once.
type Chain<K, V> = OnceLock<Box<Link<K, V>>>;

struct Link<K, V> {
    key: K,
    value: V,
    next: Chain<K, V>,
}

fn links<K, V>(chain: &Chain<K, V>) -> impl Iterator<Item = &Link<K, V>> {
    std::iter::successors(chain.get(), |l| l.next.get()).map(|l| &**l)
}

/// Set the last, empty link of a chain being built; the next one is its
/// tail.
fn append<K, V>(chain: &Chain<K, V>, key: K, value: V) -> &Chain<K, V> {
    let next = Chain::new();
    &chain
        .get_or_init(|| Box::new(Link { key, value, next }))
        .next
}

/// The value under the key `is` accepts; `make` appends it if there is none.
/// Two appends may race for a link: the loser's entry, if it is another,
/// goes into the next one.
fn entry<K, V>(mut chain: &Chain<K, V>, is: impl Fn(&K) -> bool, make: impl Fn() -> (K, V)) -> &V {
    loop {
        let link = chain.get_or_init(|| {
            let (key, value) = make();
            let next = Chain::new();
            Box::new(Link { key, value, next })
        });
        if is(&link.key) {
            return &link.value;
        }
        chain = &link.next;
    }
}

impl fmt::Debug for Derived {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arranged: Vec<_> = links(&self.arranged).map(|l| &l.key).collect();
        (f.debug_struct("Derived").field("arranged", &arranged)).finish_non_exhaustive()
    }
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
        if self.rels.get(&pred).is_some() {
            return self.clone();
        }
        let empty = Relation::new(pred.arity as usize);
        let rels = self.rels.alter(&pred, |_| Some(empty));
        // An empty relation contributes 0: the digest is unchanged.
        Database::version(rels, self.digest)
    }

    /// A new version: nothing is derived from it yet.
    fn version(rels: OrdMap<Pred, Relation>, digest: u128) -> Database {
        Database {
            rels,
            digest,
            derived: OnceLock::new(),
        }
    }

    /// `owner`'s slot of this version (an owner is whoever picked the
    /// number: the engine gives each compiled circuit one). The first call
    /// makes the slot; different owners never see each other's. Filling it
    /// through one handle fills it for every handle that shares this
    /// version's derived data (see the field) — so call this, or
    /// [`Database::arrangement`], before handing out clones that should.
    pub fn derived(&self, owner: u64) -> &Slot {
        self.slot(owner)
    }

    /// [`Database::derived`], as the version's derived data holds it.
    fn slot(&self, owner: u64) -> &Arc<Slot> {
        let derived = self.derived.get_or_init(Arc::default);
        entry(&derived.slots, |o| *o == owner, || (owner, Arc::default()))
    }

    /// This version as `owner`'s derivations from it need it — its
    /// relations, its arrangements and `owner`'s `slot`, shared — and not
    /// the other owners' slots: a [`Pending`] holds its ancestor as this.
    /// Another owner's slot may be pending on a version further back, so
    /// two owners deriving from one lineage in turn would otherwise have
    /// every version hold the one before, and all it derived.
    fn anchor(&self, owner: u64, slot: &Arc<Slot>) -> Database {
        let derived = Derived::default();
        let mut chain = &derived.arranged;
        for (pred, order, tuples) in self.arrangements() {
            chain = append(chain, (pred, order.into()), tuples.clone());
        }
        append(&derived.slots, owner, Arc::clone(slot));
        Database {
            rels: self.rels.clone(),
            digest: self.digest,
            derived: OnceLock::from(Arc::new(derived)),
        }
    }

    /// The slot `owner` has on the version `op` makes from this one, whose
    /// slot is `slot`: pending on this version when something is derived
    /// from it (or being derived right now), on this version's own ancestor
    /// when it is pending too, and none when nothing is.
    fn pending_after(
        &self,
        owner: u64,
        slot: &Arc<Slot>,
        op: impl FnOnce() -> DeltaOp,
    ) -> Option<Slot> {
        let (ancestor, ops) = match slot.made.get() {
            Some(_) => (self.anchor(owner, slot), Ops::default()),
            None => match &*slot.source() {
                Source::Scratch => return None,
                Source::Pending(p) => (p.ancestor.clone(), p.ops.clone()),
                Source::Taken => (self.anchor(owner, slot), Ops::default()),
            },
        };
        let ops = ops.push(op());
        let source = Mutex::new(Source::Pending(Pending { ancestor, ops }));
        let made = OnceLock::new();
        Some(Slot { made, source })
    }

    /// What `owner` derives from this version: made by `make` on the first
    /// call, held by the slot from then on. `make` is handed the version's
    /// [`Pending`] when it has one, `None` for a derivation from scratch.
    /// Once it has made this version's, the newest op of the pending list is
    /// marked with this version when another list runs through that op, so
    /// that a version whose list does derives from here
    /// ([`Pending::into_nearest`]). Callers racing on one slot make it once.
    pub fn derive(
        &self,
        owner: u64,
        make: impl FnOnce(Option<Pending>) -> Box<dyn Any + Send + Sync>,
    ) -> &(dyn Any + Send + Sync) {
        let slot = self.slot(owner);
        let made = slot.made.get_or_init(|| {
            let source = std::mem::replace(&mut *slot.source(), Source::Taken);
            let Source::Pending(pending) = source else {
                return make(None);
            };
            let newest = pending.ops.0.clone();
            let made = make(Some(pending));
            // Held by nothing else, the link goes with this handle.
            if let Some(newest) = newest.filter(|link| Arc::strong_count(link) > 1) {
                let _ = newest.made.set(self.anchor(owner, slot));
            }
            made
        });
        &**made
    }

    /// Take what `owner` derived from this version out of its slot — only
    /// through the one handle to the version's derived data and to the
    /// slot: `None` when a clone made since that data was created is alive
    /// (see the field), another anchor of the version holds the slot (the
    /// version itself, when this is an anchor; a version pending on it; a
    /// marked op), or nothing is derived. The slot is then as if nothing
    /// had been.
    pub fn take_derived(&mut self, owner: u64) -> Option<Box<dyn Any + Send + Sync>> {
        let derived = Arc::get_mut(self.derived.get_mut()?)?;
        let mut chain = &mut derived.slots;
        while let Some(link) = chain.get_mut() {
            if link.key == owner {
                let slot = Arc::get_mut(&mut link.value)?;
                let taken = slot.made.take()?;
                *slot
                    .source
                    .get_mut()
                    .expect("only a panic under the lock poisons it") = Source::Scratch;
                return Some(taken);
            }
            chain = &mut link.next;
        }
        None
    }

    /// `pred`'s tuples with their columns in `order` (a permutation of
    /// `0..arity`; see [`Tuple::permuted`]), sorted: a pattern binding the
    /// columns `order[..k]` is a range probe of it
    /// ([`crate::relation::for_each_with_prefix`]) where the relation itself
    /// would be scanned. The first call for an order on a version that did
    /// not inherit it builds it, O(n log n); from then on it is part of this
    /// version, and `insert`/`delete` bring it along to the next with one
    /// `alter`. None of an undeclared relation.
    pub fn arrangement(&self, pred: Pred, order: &[usize]) -> Option<&OrdMap<Tuple, ()>> {
        let rel = self.rels.get(&pred)?;
        let derived = self.derived.get_or_init(Arc::default);
        let build = || {
            let mut members = Vec::with_capacity(rel.len());
            rel.for_each(|t| members.push(t.permuted(order)));
            members.sort_unstable();
            let tuples = OrdMap::from_sorted(members.into_iter().map(|t| (t, ())));
            ((pred, order.into()), tuples)
        };
        Some(entry(
            &derived.arranged,
            |k| k.0 == pred && *k.1 == *order,
            build,
        ))
    }

    /// The arrangements this version holds: predicate, column order, tuples.
    pub fn arrangements(&self) -> impl Iterator<Item = (Pred, &[usize], &OrdMap<Tuple, ()>)> {
        let derived = self.derived.get().into_iter();
        derived.flat_map(|d| links(&d.arranged).map(|l| (l.key.0, &*l.key.1, &l.value)))
    }

    /// [`Database::arrangement`] if this version holds it already.
    pub fn arranged(&self, pred: Pred, order: &[usize]) -> Option<&OrdMap<Tuple, ()>> {
        let mut held = self.arrangements();
        held.find_map(|(p, o, tuples)| (p == pred && o == order).then_some(tuples))
    }

    /// The version that differs from this one in that `pred`'s relation is
    /// `rel`: `old` with `t` a `member` or not. Every arrangement this
    /// version holds goes along, `pred`'s by one `alter`, and every slot
    /// that holds something becomes a [`Pending`] one: the one place a
    /// version is made by an update, so whoever makes it, what was derived
    /// from its predecessor is where its own derivation starts.
    fn successor(&self, pred: Pred, old: &Relation, rel: Relation, t: &Tuple) -> Database {
        let member = rel.len() > old.len();
        let digest = self.digest ^ contribution(pred, old) ^ contribution(pred, &rel);
        let next = Database::version(self.rels.alter(&pred, |_| Some(rel)), digest);
        // A version nothing was derived from pays this one branch.
        let Some(held) = self.derived.get() else {
            return next;
        };
        let derived = Derived::default();
        let mut chain = &derived.arranged;
        for Link { key, value, .. } in links(&held.arranged) {
            let value = match key.0 == pred {
                true => value.alter(&t.permuted(&key.1), |_| member.then_some(())),
                false => value.clone(),
            };
            chain = append(chain, key.clone(), value);
        }
        let op = || match member {
            true => DeltaOp::Ins(pred, t.clone()),
            false => DeltaOp::Del(pred, t.clone()),
        };
        let mut chain = &derived.slots;
        for Link { key, value, .. } in links(&held.slots) {
            if let Some(slot) = self.pending_after(*key, value, op) {
                chain = append(chain, *key, Arc::new(slot));
            }
        }
        if derived.arranged.get().is_some() || derived.slots.get().is_some() {
            let _ = next.derived.set(Arc::new(derived));
        }
        next
    }

    /// The relation for `pred`, if declared.
    pub fn relation(&self, pred: Pred) -> Option<&Relation> {
        self.rels.get(&pred)
    }

    /// Declared predicates, in sorted order.
    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.relations().into_iter().map(|(p, _)| p)
    }

    /// Every declared relation with its predicate, in predicate order.
    fn relations(&self) -> Vec<(Pred, Relation)> {
        let mut out = Vec::with_capacity(self.rels.len());
        self.rels.for_each(|p, r| out.push((*p, r.clone())));
        out
    }

    /// Does the database contain the tuple?
    pub fn contains(&self, pred: Pred, t: &Tuple) -> bool {
        self.rels.get(&pred).is_some_and(|r| r.contains(t))
    }

    /// Insert a tuple, returning the new database and whether it changed.
    /// Auto-declares unknown relations (the schema check happens upstream in
    /// program validation).
    pub fn insert(&self, pred: Pred, t: &Tuple) -> Result<(Database, bool), DbError> {
        let declared = self.rels.get(&pred);
        let rel = declared.map_or_else(|| Relation::new(pred.arity as usize), Relation::clone);
        if t.arity() != rel.arity() {
            return Err(DbError::ArityMismatch {
                pred,
                expected: rel.arity(),
                found: t.arity(),
            });
        }
        let (next, grew) = rel.insert(t);
        if !grew && declared.is_some() {
            return Ok((self.clone(), false));
        }
        Ok((self.successor(pred, &rel, next, t), grew))
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
        let (next, shrank) = rel.remove(t);
        if !shrank {
            return Ok((self.clone(), false));
        }
        Ok((self.successor(pred, rel, next, t), true))
    }

    /// Check whether a *ground* atom holds.
    pub fn holds(&self, atom: &Atom) -> bool {
        let value = |t: &Term| match *t {
            Term::Val(v) => v,
            Term::Var(_) => unreachable!("checked ground"),
        };
        atom.is_ground() && self.contains(atom.pred, &atom.args.iter().map(value).collect())
    }

    /// Total number of tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.relations().iter().map(|(_, r)| r.len()).sum()
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
        let mut digest = 0;
        for (p, r) in self.relations() {
            digest ^= contribution_of(p, r.digest_from_scratch(), r.len());
        }
        digest
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
        let nonempty = |db: &Database| {
            let mut rels = db.relations();
            rels.retain(|(_, r)| !r.is_empty());
            rels
        };
        nonempty(self) == nonempty(other)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for (p, r) in self.relations() {
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
    fn an_arrangement_is_built_once_and_follows_the_version() {
        let e = p("e", 2);
        let mut db = Database::new().declare(e);
        for (a, b) in [(1, 9), (2, 8), (3, 9)] {
            db = db.insert(e, &tuple!(a, b)).unwrap().0;
        }
        assert!(db.arranged(e, &[1, 0]).is_none(), "nobody asked yet");
        let by_second = |db: &Database| {
            let mut out = Vec::new();
            db.arranged(e, &[1, 0])
                .unwrap()
                .for_each(|t, ()| out.push(t.clone()));
            out
        };
        let built = db.arrangement(e, &[1, 0]).unwrap();
        assert_eq!(by_second(&db), [tuple!(8, 2), tuple!(9, 1), tuple!(9, 3)]);
        assert!(std::ptr::eq(built, db.arrangement(e, &[1, 0]).unwrap()));
        // The next version has it before anybody asks it; the old one keeps
        // its own; an op on another relation shares it as it is.
        let (more, _) = db.insert(e, &tuple!(0, 9)).unwrap();
        let (fewer, _) = more.delete(e, &tuple!(2, 8)).unwrap();
        let (aside, _) = fewer.insert(p("f", 1), &tuple!(7)).unwrap();
        assert_eq!(by_second(&more).len(), 4);
        assert_eq!(
            by_second(&fewer),
            [tuple!(9, 0), tuple!(9, 1), tuple!(9, 3)]
        );
        assert_eq!(by_second(&aside), by_second(&fewer));
        assert_eq!(by_second(&db).len(), 3);
        // Another order is another arrangement, of an undeclared relation
        // there is none, and a lineage nobody probed carries nothing.
        assert_eq!(aside.arrangement(e, &[0, 1]).unwrap().len(), 3);
        assert_eq!(aside.arrangements().count(), 2);
        assert!(aside.arrangement(p("nope", 2), &[1, 0]).is_none());
        let (plain, _) = Database::new().insert(e, &tuple!(1, 2)).unwrap();
        assert_eq!(plain.arrangements().count(), 0);
    }

    #[test]
    fn derived_slots_belong_to_one_version_and_one_owner() {
        let (db, _) = Database::new().insert(p("a", 1), &tuple!(1)).unwrap();
        let early = db.clone();
        let filled = |db: &Database, owner| db.derived(owner).get().is_some();
        db.derived(7);
        let late = db.clone();
        // A clone made once the slot exists fills it for every holder.
        late.derive(7, |pending| {
            assert!(pending.is_none(), "nothing to derive from");
            Box::new("views")
        });
        assert!(filled(&db, 7) && !filled(&early, 7) && !filled(&db, 8));
        let held = db.derive(7, |_| unreachable!("made once"));
        assert_eq!(held.downcast_ref::<&str>(), Some(&"views"));
        late.derive(8, |_| Box::new(8u64));
        assert!(filled(&db, 8));
        // No notion of content sees any of it.
        assert!(db == early && db.digest() == early.digest());
        assert_eq!(db.to_string(), early.to_string());
        // Only the last handle sharing the slots takes one out.
        let mut db = db;
        assert!(db.take_derived(7).is_none(), "`late` shares it");
        drop(late);
        let taken = db.take_derived(7).expect("the last handle");
        assert_eq!(taken.downcast_ref::<&str>(), Some(&"views"));
        assert!(!filled(&db, 7) && !db.derived(7).holds() && filled(&db, 8));
        assert!(db.take_derived(7).is_none() && db.take_derived(9).is_none());
    }

    /// The ops a pending slot names, oldest first, and the digest of the
    /// version they start from.
    fn pending_of(db: &Database, owner: u64) -> Option<(u128, Vec<String>)> {
        let Source::Pending(pending) = &*db.derived(owner).source() else {
            return None;
        };
        let (from, since) = pending.nearest();
        let ops = since.iter().rev().map(|op| op.to_string()).collect();
        Some((from.digest(), ops))
    }

    #[test]
    fn an_update_leaves_the_next_version_pending_on_the_nearest_derived_one() {
        let a = p("a", 1);
        let (root, _) = Database::new().insert(a, &tuple!(1)).unwrap();
        root.derived(8); // a slot with nothing in it: nothing to carry
        root.derive(7, |_| Box::new(0u64));
        let (one, _) = root.insert(a, &tuple!(2)).unwrap();
        let (two, _) = one.delete(a, &tuple!(1)).unwrap();
        assert!(one.derived(7).get().is_none() && one.derived(7).holds());
        let from_root = Some((root.digest(), vec!["ins.a(2)".into(), "del.a(1)".into()]));
        assert_eq!(pending_of(&two, 7), from_root);
        assert!(!two.derived(8).holds());
        // An update that changes nothing is the same version, slot and all.
        let (same, changed) = two.insert(a, &tuple!(2)).unwrap();
        assert!(!changed && pending_of(&same, 7) == from_root);
        // Deriving `one` marks its op: `two` starts there now.
        one.derive(7, |pending| {
            let (from, since) = pending.expect("pending").into_nearest();
            assert_eq!((from.digest(), since.len()), (root.digest(), 1));
            Box::new(1u64)
        });
        let from_one = Some((one.digest(), vec!["del.a(1)".into()]));
        assert_eq!(pending_of(&two, 7), from_one);
        // A lineage nothing was derived from carries nothing.
        let (plain, _) = Database::new().insert(a, &tuple!(1)).unwrap();
        let (plain, _) = plain.insert(a, &tuple!(2)).unwrap();
        assert!(plain.derived.get().is_none());
    }

    /// A value to derive, and a handle that tells whether it is still alive.
    fn sentinel() -> (Box<dyn Any + Send + Sync>, std::sync::Weak<()>) {
        let value = Arc::new(());
        let alive = Arc::downgrade(&value);
        (Box::new(value), alive)
    }

    /// Drop `db` on a stack far too small to recurse once per version.
    fn drop_on_a_small_stack(db: Database) {
        let dropped = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || drop(db))
            .unwrap();
        dropped.join().expect("drops without recursing");
    }

    /// What an owner derived from a version lives as long as the version,
    /// or a descendant pending on it, and no longer.
    #[test]
    fn a_derived_value_lives_exactly_as_long_as_its_version() {
        let a = p("a", 1);
        let (root, _) = Database::new().insert(a, &tuple!(0)).unwrap();
        let (value, at_root) = sentinel();
        root.derive(7, |_| value);
        let (next, _) = root.insert(a, &tuple!(1)).unwrap();
        drop(root);
        assert!(
            at_root.upgrade().is_some(),
            "the pending descendant holds it"
        );
        let (value, at_next) = sentinel();
        next.derive(7, |pending| {
            let (from, since) = pending.expect("pending").into_nearest();
            assert!(from.derived(7).get().is_some() && since.len() == 1);
            value
        });
        assert!(at_root.upgrade().is_none(), "gone with the pass it was for");
        // A descendant derived from: the version keeps its own, until it goes.
        let (further, _) = next.insert(a, &tuple!(2)).unwrap();
        further.derive(7, |_| sentinel().0);
        assert!(at_next.upgrade().is_some());
        drop(next);
        assert!(at_next.upgrade().is_none(), "freed with its version");
        assert!(further.derived(7).get().is_some());
    }

    /// Two owners deriving in turn, each from the newest version of one
    /// lineage: a pending slot holds its ancestor as its own owner needs it,
    /// not the other owner's slot there, which is pending on a version
    /// further back. So what lives is the newest version's value and the
    /// one the other owner's next derivation starts from — not one value
    /// per version — and the lineage drops on a small stack.
    #[test]
    fn owners_deriving_in_turn_keep_no_lineage_alive() {
        const VERSIONS: i64 = 100_000;
        let a = p("a", 1);
        let mut db = Database::new();
        let mut alive = Vec::new();
        for i in 0..VERSIONS {
            db = db.insert(a, &tuple!(i)).unwrap().0;
            let (value, watch) = sentinel();
            db.derive(i as u64 % 2, |_| value);
            alive.push(watch);
        }
        let live: Vec<usize> = (0..alive.len())
            .filter(|&i| alive[i].upgrade().is_some())
            .collect();
        let n = VERSIONS as usize;
        assert_eq!(live, [n - 2, n - 1]);
        drop_on_a_small_stack(db);
        assert!(alive.iter().all(|v| v.upgrade().is_none()));
    }

    /// After one derivation, a lineage of plain updates nobody derives from
    /// holds one ancestor, with its value, and one list of every op since —
    /// no marked link, so no version in between — and drops link by link.
    #[test]
    fn an_underived_lineage_holds_one_ancestor_and_one_op_list() {
        const OPS: i64 = 100_000;
        let a = p("a", 1);
        let (mut db, _) = Database::new().insert(a, &tuple!(-1)).unwrap();
        let (value, at_root) = sentinel();
        db.derive(7, |_| value);
        let root = db.digest();
        for i in 0..OPS {
            db = db.insert(a, &tuple!(i)).unwrap().0;
        }
        let (from, ops) = pending_of(&db, 7).expect("pending");
        assert_eq!((from, ops.len()), (root, OPS as usize));
        assert!(at_root.upgrade().is_some(), "the one ancestor's value");
        drop_on_a_small_stack(db);
        assert!(at_root.upgrade().is_none());
    }

    #[test]
    fn total_tuples_sums_relations() {
        let (db, _) = Database::new().insert(p("a", 1), &tuple!(1)).unwrap();
        let (db, _) = db.insert(p("b", 1), &tuple!(1)).unwrap();
        let (db, _) = db.insert(p("b", 1), &tuple!(2)).unwrap();
        assert_eq!(db.total_tuples(), 3);
    }
}
