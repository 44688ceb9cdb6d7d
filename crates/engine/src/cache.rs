//! Shared subtransaction answer cache — tabling for Transaction Datalog.
//!
//! Classical tabling memoizes a call together with its answer substitutions.
//! For a *state-changing* language that is not enough: a subtransaction's
//! meaning depends on the database it starts from, and its answers carry a
//! database transition, not just bindings. Following Fodor's tabling for
//! Transaction Logic, which keys answer tables by call variant, the
//! [`SubgoalCache`] is keyed by the fingerprint of `(subgoal, database)` that
//! the drivers' memos use too, and stores the subgoal's complete *answer
//! set*: one `(ground bindings, state delta)` pair per successful execution,
//! in the engine's canonical (depth-first) yield order. On a hit, the
//! machine and the decider **replay** the cached deltas instead of
//! re-exploring the subgoal.
//!
//! Only two shapes of subgoal are cached, both of which execute as a
//! contiguous block of the overall run (see `docs/CACHING.md` for the
//! soundness argument):
//!
//! * isolated blocks `iso { g }` — contiguous by the ⊙ semantics;
//! * ground derived-atom calls that are the *sole* frontier action —
//!   contiguous because nothing else is schedulable until they finish.
//!
//! The table is sharded (`CACHE_SHARDS` mutexes, by the key's high lane),
//! capacity-bounded with CLOCK (second-chance) eviction, and shared across
//! branches of a search, across the searches of one engine and across the
//! connections of a `td serve` server, each solving on its own thread.

use crate::kernel::FpMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use td_db::Delta;

/// One answer of a cached subgoal: a ground value per variable the subgoal
/// leaves free, numbered by first occurrence, plus the update log its
/// execution committed, in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct CachedAnswer {
    /// Ground value of variable `i` at position `i`.
    pub(crate) values: Vec<td_core::Value>,
    /// The elementary updates this answer's execution applied.
    pub(crate) delta: Delta,
}

/// What the cache knows about a key.
#[derive(Clone, Debug)]
pub(crate) enum CacheEntry {
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
    map: FpMap<Slot>,
    /// The CLOCK hand's queue; may contain stale keys (skipped on pop).
    clock: VecDeque<u128>,
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

    /// The shard of `key`, picked by its high lane: the map hashes by the
    /// low one, so a shard's keys still spread over all of its buckets.
    fn shard_for(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key >> 64) as usize % CACHE_SHARDS]
    }

    /// Look a key up. An [`CacheEntry::Answers`] result counts as a hit, an
    /// absent key as a miss; [`CacheEntry::Unsuitable`] counts as neither
    /// (the lazy fallback is the *intended* behaviour there, not a failure
    /// of the cache).
    pub(crate) fn lookup(&self, key: u128) -> Option<CacheEntry> {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
        match shard.map.get_mut(&key) {
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
    pub(crate) fn insert(&self, key: u128, entry: CacheEntry) {
        let mut shard = self.shard_for(key).lock().expect("cache shard poisoned");
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
        shard.clock.push_back(key);
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

    /// Lookups that found a negative `CacheEntry::Unsuitable` entry (the
    /// lazy fallback was mandatory — neither a hit nor a miss).
    pub fn unsuitable(&self) -> u64 {
        self.unsuitable.load(Ordering::Relaxed)
    }

    /// Record a probe the cache deliberately skipped without a lookup — a
    /// call on a *materialized* predicate is answered by the incremental
    /// circuit, and storing it here too would double-store the same answer.
    pub(crate) fn note_unsuitable(&self) {
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

    /// A key in shard `i % CACHE_SHARDS`.
    fn key(i: i64) -> u128 {
        (i as u128) << 64 | i as u128
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
        assert!(c.lookup(key(1)).is_none());
        assert_eq!(c.misses(), 1);
        c.insert(key(1), answers(7));
        let got = c.lookup(key(1)).expect("present");
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
        let got = c.lookup(key(2));
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
        let keys = [0, 1, 2].map(|i| key(i * CACHE_SHARDS as i64));
        c.insert(keys[0], answers(0));
        assert!(c.lookup(keys[0]).is_some()); // sets the reference bit
        c.insert(keys[1], answers(1));
        // keys[0] was referenced → second chance; keys[1] unreferenced and
        // evicted on the next insert.
        c.insert(keys[2], answers(2));
        assert!(c.evictions() >= 1, "evictions: {}", c.evictions());
        // The shard never exceeds its capacity.
        let shard = c.shard_for(keys[0]).lock().unwrap();
        assert!(shard.map.len() <= c.capacity_per_shard);
    }

    #[test]
    fn insert_overwrites_in_place() {
        let c = SubgoalCache::new(1024);
        c.insert(key(5), answers(1));
        c.insert(key(5), answers(2));
        assert_eq!(c.len(), 1);
        match c.lookup(key(5)).unwrap() {
            CacheEntry::Answers { answers: a, .. } => {
                assert_eq!(a[0].values, vec![Value::Int(2)]);
            }
            CacheEntry::Unsuitable => panic!("wrong entry kind"),
        }
    }
}
