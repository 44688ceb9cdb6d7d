//! Shared subtransaction answer cache — tabling for Transaction Datalog.
//!
//! Classical tabling memoizes a call together with its answer substitutions.
//! For a *state-changing* language that is not enough: a subtransaction's
//! meaning depends on the database it starts from, and its answers carry a
//! database transition, not just bindings. Following Fodor's tabling for
//! Transaction Logic, the [`SubgoalCache`] is keyed by
//! `(canonical subgoal, database digest)` — a [`StateKey`] — and stores the
//! subgoal's complete *answer set*: one `(ground bindings, state delta)`
//! pair per successful execution, in the engine's canonical (depth-first)
//! yield order. On a hit, the decider/machine/parallel backends **replay**
//! the cached deltas instead of re-exploring the subgoal.
//!
//! Only two shapes of subgoal are cached, both of which execute as a
//! contiguous block of the overall run (see `docs/CACHING.md` for the
//! soundness argument):
//!
//! * isolated blocks `iso { g }` — contiguous by the ⊙ semantics;
//! * ground derived-atom calls that are the *sole* frontier action —
//!   contiguous because nothing else is schedulable until they finish.
//!
//! The table is sharded (`CACHE_SHARDS` mutexes, the same discipline as
//! the explicit-state search's claim table), capacity-bounded with CLOCK
//! (second-chance) eviction, and shared across branches of the sequential
//! search and across workers of the parallel search.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use td_core::{Goal, Term, Var};
use td_db::Delta;

/// The answer cache's key: α-renamed subgoal + 128-bit database content
/// digest. The goal is kept in full because a miss enumerates its answers;
/// the drivers' configuration memos (failure memo, claim table) only need
/// identity and use `kernel::fingerprint` instead.
pub type StateKey = (Goal, u128);

/// Rename variables densely in first-occurrence order, making α-equivalent
/// goals structurally equal.
pub fn canonical_goal(goal: &Goal) -> Goal {
    canonicalize_with_map(goal, |t| t).0
}

/// [`canonical_goal`] of `goal` read through `resolve` (a leaf's offset, a
/// driver's bindings), plus the variables `resolve` leaves free in
/// first-occurrence order, so cached answers (indexed by canonical variable
/// id) can be translated back into the caller's variable space. No resolved
/// copy of `goal` is built.
pub(crate) fn canonicalize_with_map(
    goal: &Goal,
    resolve: impl Fn(Term) -> Term,
) -> (Goal, Vec<Var>) {
    let mut map: Vec<Var> = Vec::new();
    let canon = goal.map_terms(&mut |t| match resolve(t) {
        Term::Var(v) => {
            let id = match map.iter().position(|w| *w == v) {
                Some(i) => i as u32,
                None => {
                    map.push(v);
                    (map.len() - 1) as u32
                }
            };
            Term::var(id)
        }
        other => other,
    });
    (canon, map)
}

/// One answer of a cached subgoal: a ground value per canonical variable
/// plus the update log its execution committed, in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CachedAnswer {
    /// Ground value of canonical variable `i` at position `i`.
    pub values: Vec<td_core::Value>,
    /// The elementary updates this answer's execution applied.
    pub delta: Delta,
}

/// What the cache knows about a key.
#[derive(Clone, Debug)]
pub enum CacheEntry {
    /// The complete answer set, in canonical depth-first yield order
    /// (duplicates preserved — the lazy search yields them too).
    Answers {
        answers: Arc<Vec<CachedAnswer>>,
        /// The relations the enumeration read while producing (and
        /// exhausting) the answer set — over *all* branches, including
        /// failed ones. A replay charges this set to the replaying
        /// transaction's read set: the macro-step depends on exactly the
        /// relations the lazy execution would have consulted.
        reads: Arc<td_db::ReadSet>,
    },
    /// Enumeration was attempted and abandoned (non-ground answer, fault,
    /// or over the answer/step bound): callers must use the lazy path.
    /// Negative-cached so the attempt is not repeated.
    Unsuitable,
}

const CACHE_SHARDS: usize = 64;

#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    /// CLOCK reference bit: set on every lookup, cleared when the hand
    /// passes, evicted when found clear.
    referenced: bool,
}

#[derive(Default, Debug)]
struct Shard {
    map: HashMap<StateKey, Slot>,
    /// The CLOCK hand's queue; may contain stale keys (skipped on pop).
    clock: VecDeque<StateKey>,
}

/// Sharded, capacity-bounded answer table. Cheap to share: clone the
/// surrounding `Arc`. All counters are process-wide totals across every
/// search that used this table.
#[derive(Debug)]
pub struct SubgoalCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    unsuitable: AtomicU64,
    evictions: AtomicU64,
}

impl SubgoalCache {
    /// Table bounded to roughly `capacity` entries (divided evenly across
    /// shards, at least one per shard).
    pub fn new(capacity: usize) -> SubgoalCache {
        SubgoalCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            capacity_per_shard: (capacity / CACHE_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            unsuitable: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &StateKey) -> &Mutex<Shard> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS]
    }

    /// Look a key up. An [`CacheEntry::Answers`] result counts as a hit, an
    /// absent key as a miss; [`CacheEntry::Unsuitable`] counts as neither
    /// (the lazy fallback is the *intended* behaviour there, not a failure
    /// of the cache).
    pub fn lookup(&self, key: &StateKey) -> Option<CacheEntry> {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        match shard.map.get_mut(key) {
            Some(slot) => {
                slot.referenced = true;
                if matches!(slot.entry, CacheEntry::Answers { .. }) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.unsuitable.fetch_add(1, Ordering::Relaxed);
                }
                Some(slot.entry.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or overwrite) an entry, evicting with second-chance CLOCK
    /// while the shard is at capacity.
    pub fn insert(&self, key: StateKey, entry: CacheEntry) {
        let mut shard = self.shard_for(&key).lock().expect("cache shard poisoned");
        if let Some(slot) = shard.map.get_mut(&key) {
            slot.entry = entry;
            slot.referenced = true;
            return;
        }
        while shard.map.len() >= self.capacity_per_shard {
            let Some(victim) = shard.clock.pop_front() else {
                break;
            };
            match shard.map.get_mut(&victim) {
                // Stale queue entry for an already-evicted key.
                None => continue,
                Some(slot) if slot.referenced => {
                    slot.referenced = false;
                    shard.clock.push_back(victim);
                }
                Some(_) => {
                    shard.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        shard.clock.push_back(key.clone());
        shard.map.insert(
            key,
            Slot {
                entry,
                referenced: false,
            },
        );
    }

    /// Lookups that found a usable answer set.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that found a negative [`CacheEntry::Unsuitable`] entry (the
    /// lazy fallback was mandatory — neither a hit nor a miss).
    pub fn unsuitable(&self) -> u64 {
        self.unsuitable.load(Ordering::Relaxed)
    }

    /// Record a probe the cache deliberately skipped without a lookup — a
    /// call on a *materialized* predicate is answered by the incremental
    /// circuit, and storing it here too would double-store the same answer.
    pub fn note_unsuitable(&self) {
        self.unsuitable.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries discarded by the CLOCK policy.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently stored (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lifetime counters as named rows — the `cache` section of a run
    /// report, in its key order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("hits", self.hits()),
            ("misses", self.misses()),
            ("unsuitable", self.unsuitable()),
            ("evictions", self.evictions()),
            ("entries", self.len() as u64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::Value;

    fn key(i: i64) -> StateKey {
        (Goal::atom("p", vec![Term::int(i)]), i as u128)
    }

    fn answers(v: i64) -> CacheEntry {
        CacheEntry::Answers {
            answers: Arc::new(vec![CachedAnswer {
                values: vec![Value::Int(v)],
                delta: Delta::new(),
            }]),
            reads: Arc::new(td_db::ReadSet::new()),
        }
    }

    #[test]
    fn roundtrip_and_counters() {
        let c = SubgoalCache::new(1024);
        assert!(c.is_empty());
        assert!(c.lookup(&key(1)).is_none());
        assert_eq!(c.misses(), 1);
        c.insert(key(1), answers(7));
        let got = c.lookup(&key(1)).expect("present");
        match got {
            CacheEntry::Answers { answers: a, .. } => {
                assert_eq!(a[0].values, vec![Value::Int(7)]);
            }
            CacheEntry::Unsuitable => panic!("wrong entry kind"),
        }
        assert_eq!(c.hits(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unsuitable_counts_as_neither_hit_nor_miss() {
        let c = SubgoalCache::new(1024);
        c.insert(key(2), CacheEntry::Unsuitable);
        let got = c.lookup(&key(2));
        assert!(matches!(got, Some(CacheEntry::Unsuitable)));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.unsuitable(), 1);
    }

    #[test]
    fn clock_evicts_at_capacity_and_second_chances_referenced_entries() {
        // Capacity 64 → one slot per shard. Fill one shard's slot, touch it,
        // then insert more keys into the same shard: the touched entry
        // survives one pass (second chance) while unreferenced ones go.
        let c = SubgoalCache::new(CACHE_SHARDS);
        let mut keys = Vec::new();
        let mut i = 0i64;
        // Find three keys landing in the same shard.
        let shard_of = |c: &SubgoalCache, k: &StateKey| c.shard_for(k) as *const _ as usize;
        let target = shard_of(&c, &key(0));
        while keys.len() < 3 {
            if shard_of(&c, &key(i)) == target {
                keys.push(key(i));
            }
            i += 1;
        }
        c.insert(keys[0].clone(), answers(0));
        assert!(c.lookup(&keys[0]).is_some()); // sets the reference bit
        c.insert(keys[1].clone(), answers(1));
        // keys[0] was referenced → second chance; keys[1] unreferenced and
        // evicted on the next insert.
        c.insert(keys[2].clone(), answers(2));
        assert!(c.evictions() >= 1, "evictions: {}", c.evictions());
        // The shard never exceeds its capacity.
        let shard = c.shard_for(&keys[0]).lock().unwrap();
        assert!(shard.map.len() <= c.capacity_per_shard);
    }

    #[test]
    fn insert_overwrites_in_place() {
        let c = SubgoalCache::new(1024);
        c.insert(key(5), answers(1));
        c.insert(key(5), answers(2));
        assert_eq!(c.len(), 1);
        match c.lookup(&key(5)).unwrap() {
            CacheEntry::Answers { answers: a, .. } => {
                assert_eq!(a[0].values, vec![Value::Int(2)]);
            }
            CacheEntry::Unsuitable => panic!("wrong entry kind"),
        }
    }

    #[test]
    fn canonicalize_maps_vars_in_first_occurrence_order() {
        let g = Goal::atom("p", vec![Term::var(9), Term::var(4), Term::var(9)]);
        let (canon, vars) = canonicalize_with_map(&g, |t| t);
        assert_eq!(
            canon,
            Goal::atom("p", vec![Term::var(0), Term::var(1), Term::var(0)])
        );
        assert_eq!(vars, vec![Var(9), Var(4)]);
    }

    #[test]
    fn canonical_goal_identifies_alpha_equivalent() {
        let g1 = Goal::atom("p", vec![Term::var(3), Term::var(7), Term::var(3)]);
        let g2 = Goal::atom("p", vec![Term::var(9), Term::var(2), Term::var(9)]);
        assert_eq!(canonical_goal(&g1), canonical_goal(&g2));
        let g3 = Goal::atom("p", vec![Term::var(1), Term::var(2), Term::var(2)]);
        assert_ne!(canonical_goal(&g1), canonical_goal(&g3));
    }
}
