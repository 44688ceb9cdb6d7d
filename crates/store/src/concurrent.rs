//! Concurrent transactions over one durable store: optimistic concurrency
//! control + group commit.
//!
//! [`ConcurrentStore`] admits many top-level transactions at once from
//! independent threads — the `td serve` workload. Each transaction runs
//! against an immutable **snapshot** of the database (cheap: the database
//! is a persistent structure), produces a delta plus the [`ReadSet`] of
//! relations it consulted, and validates at commit **per relation**: the
//! transaction commits only if every relation in its read set still has
//! the per-relation digest it had in the snapshot ([`Database::
//! relation_digest`]). Writes to relations the transaction never read
//! cannot invalidate it — disjoint workloads commit without retries.
//! First committer wins; losers retry against a fresh snapshot with
//! bounded, jittered exponential backoff.
//!
//! This is sound because digest-equal relations are content-equal, and the
//! engine's read sets are *monotone over the whole search* (failed branches
//! included — see `td_db::read_set`): if every relation a transaction read
//! is unchanged at the head, re-running it there would explore the same
//! branches and produce the same delta, and `ins`/`del` are pure writes
//! whose delta is independent of the target relation's content. So
//! serializing the commit at the head equals re-executing it there: the
//! concurrent history is equivalent to running the committed transactions
//! sequentially in WAL-seq order (the property
//! `tests/occ_serializability.rs` checks differentially, under each
//! transaction's real read set and under the whole-database one).
//!
//! There is one validation rule. The whole-database rule — commit only if
//! the full 128-bit database digest is unchanged — is what it says for the
//! read set [`ReadSet::whole_db`] ([`TxDecision::commit_whole_db`]): correct
//! for any closure, and the oracle the differential tests compare against.
//!
//! ## Group commit
//!
//! The fsync on the WAL append (~0.2 ms, tdbench `store.commit_us`) would
//! serialize commits at the device; instead commits are batched with the
//! classic leader/follower scheme. A validated transaction appends its delta to a
//! pending batch under the state mutex and then either (a) finds the
//! [`Store`] token free, takes it, and **becomes the leader**: it drains
//! the whole pending batch and writes it as one fsync'd WAL group record
//! ([`Store::commit_group`]); or (b) finds the token taken (a leader is
//! mid-fsync) and waits. While a leader fsyncs, later transactions keep
//! validating and enqueueing, so the next leader writes them all in one
//! group — batch size adapts to the arrival rate with no timers and no
//! background thread. A transaction is acknowledged only after the group
//! holding it is durable.
//!
//! The in-memory head state runs ahead of the durable WAL by at most the
//! pending batch; this is invisible to clients because acknowledgement
//! waits for durability, and WAL order equals validation order, so a
//! transaction's group always lands *after* every group it read from —
//! crash recovery (a prefix of whole groups) can never keep an
//! acknowledged transaction while dropping state it read.

use crate::{Result, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;
use td_core::Pred;
use td_db::{Database, Delta, ReadSet};

/// What a transaction closure decided, after running against its snapshot.
#[derive(Clone, Debug)]
pub enum TxDecision<T> {
    /// Commit this delta (produced against the snapshot); acknowledge after
    /// it is durable. `reads` is every relation the closure consulted while
    /// producing the delta — the set commit validation checks. An
    /// under-reported read set is unsound (commits that should have
    /// conflicted); when in doubt use [`TxDecision::commit_whole_db`],
    /// which validates against everything.
    Commit {
        /// Elementary updates, produced against the snapshot.
        delta: Delta,
        /// Relations read while producing `delta` (failed branches
        /// included).
        reads: ReadSet,
        /// Closure result handed back in the [`Committed`] receipt.
        value: T,
    },
    /// Success with nothing to write — no WAL record, no validation needed
    /// (a read's serialization point is its snapshot).
    ReadOnly(T),
    /// Logical failure (e.g. the goal is not executable); nothing to write.
    Abort(T),
}

impl<T> TxDecision<T> {
    /// Commit `delta` validated against the given read set.
    pub fn commit(delta: Delta, reads: ReadSet, value: T) -> TxDecision<T> {
        TxDecision::Commit {
            delta,
            reads,
            value,
        }
    }

    /// Commit `delta` validated against the whole database: any commit
    /// since the snapshot conflicts. Correct for any closure.
    pub fn commit_whole_db(delta: Delta, value: T) -> TxDecision<T> {
        TxDecision::Commit {
            delta,
            reads: ReadSet::whole_db(),
            value,
        }
    }
}

/// Retry policy for [`ConcurrentStore::transaction`].
#[derive(Clone, Copy, Debug)]
pub struct TxOptions {
    /// Give up with [`TxError::Conflict`] after this many attempts.
    pub max_attempts: u32,
    /// Base backoff slept after the first conflict; doubles per further
    /// conflict, capped at 64x. Each sleep is jittered per thread into
    /// `[d/2, d]` so colliding clients desynchronize instead of retrying
    /// in lockstep.
    pub backoff: Duration,
}

impl Default for TxOptions {
    fn default() -> TxOptions {
        TxOptions {
            max_attempts: 16,
            backoff: Duration::from_micros(50),
        }
    }
}

/// Why a transaction did not complete.
#[derive(Debug)]
pub enum TxError<E> {
    /// The digest validation failed `max_attempts` times in a row.
    Conflict {
        /// Attempts made (== `TxOptions::max_attempts`).
        attempts: u32,
    },
    /// The store failed underneath (WAL append error, replay fault). Once a
    /// group append fails the store is poisoned: every later transaction
    /// fails fast with this error rather than diverging from disk.
    Store(StoreError),
    /// The transaction closure itself failed; nothing was written.
    App(E),
}

impl<E: std::fmt::Display> std::fmt::Display for TxError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::Conflict { attempts } => {
                write!(f, "transaction conflicted {attempts} times; giving up")
            }
            TxError::Store(e) => write!(f, "store: {e}"),
            TxError::App(e) => write!(f, "{e}"),
        }
    }
}

/// Receipt for a finished transaction.
#[derive(Clone, Copy, Debug)]
pub struct Committed<T> {
    /// The closure's result value.
    pub value: T,
    /// WAL seq of the committed record (`None` for read-only/aborted
    /// transactions, which leave no record).
    pub seq: Option<u64>,
    /// Snapshot attempts taken (1 = no conflict).
    pub attempts: u32,
}

/// Lifetime counters of a [`ConcurrentStore`] (all monotone).
#[derive(Clone, Copy, Default, Debug)]
pub struct ConcurrentStats {
    /// Transactions committed through the WAL.
    pub commits: u64,
    /// Transactions that finished read-only.
    pub read_only: u64,
    /// Transactions that aborted logically.
    pub aborts: u64,
    /// Digest validations that failed (each causes one retry).
    pub conflicts: u64,
    /// Transactions that exhausted their retry budget.
    pub conflict_failures: u64,
    /// WAL group frames written (== fsyncs on the commit path).
    pub groups: u64,
    /// Commit records written inside those groups.
    pub grouped_records: u64,
    /// Largest single group.
    pub max_group: u64,
}

impl ConcurrentStats {
    /// Mean commit records per fsync — the group-commit amortization
    /// factor (1.0 = no batching ever happened).
    pub fn mean_group(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.grouped_records as f64 / self.groups as f64
        }
    }
}

struct State {
    /// Latest validated state — the head of the commit order. May run
    /// ahead of the durable WAL by the pending batch.
    db: Database,
    /// Seq the next validated commit receives (== WAL records once the
    /// pending batch drains).
    next_seq: u64,
    /// Every seq `< durable_seq` is fsync-acknowledged.
    durable_seq: u64,
    /// Validated commits not yet written: `(delta, post_digest)` in seq
    /// order.
    pending: Vec<(Delta, u128)>,
    /// The store token. `Some` = no leader is writing; a committer that
    /// takes it becomes the leader for everything currently pending.
    store: Option<Store>,
    /// Sticky failure: a leader's append failed, the store is poisoned.
    failed: Option<String>,
    /// Set by [`ConcurrentStore::close`]; new transactions are refused.
    closing: bool,
    stats: ConcurrentStats,
    /// Per-relation conflict attribution: how many validation failures each
    /// relation caused (a single failed validation may charge several
    /// relations). Sums to ≥ `stats.conflicts` entries-wise only loosely —
    /// it is a *where*, not a second counter.
    conflict_preds: BTreeMap<Pred, u64>,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled whenever `durable_seq`/`failed`/`store` change.
    durable: Condvar,
}

/// A durable store shared by many concurrently-committing threads. Cheap
/// to clone (all clones share state); see the module docs for the
/// concurrency protocol.
#[derive(Clone)]
pub struct ConcurrentStore {
    inner: Arc<Inner>,
    opts: TxOptions,
}

impl ConcurrentStore {
    /// Wrap an open store for concurrent use.
    pub fn new(store: Store) -> ConcurrentStore {
        let next_seq = store.wal_records();
        ConcurrentStore {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    db: store.db().clone(),
                    next_seq,
                    durable_seq: next_seq,
                    pending: Vec::new(),
                    store: Some(store),
                    failed: None,
                    closing: false,
                    stats: ConcurrentStats::default(),
                    conflict_preds: BTreeMap::new(),
                }),
                durable: Condvar::new(),
            }),
            opts: TxOptions::default(),
        }
    }

    /// Open an existing store directory for concurrent use.
    pub fn open(dir: &std::path::Path) -> Result<ConcurrentStore> {
        Ok(ConcurrentStore::new(Store::open(dir)?))
    }

    /// Open or initialize, like [`Store::open_or_init`].
    pub fn open_or_init(dir: &std::path::Path, initial: &Database) -> Result<ConcurrentStore> {
        Ok(ConcurrentStore::new(Store::open_or_init(dir, initial)?))
    }

    /// Replace the default retry policy.
    pub fn with_options(mut self, opts: TxOptions) -> ConcurrentStore {
        self.opts = opts;
        self
    }

    /// A snapshot of the latest validated state. Reads against it are
    /// serialized at the moment it was taken.
    pub fn snapshot(&self) -> Database {
        self.lock().db.clone()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ConcurrentStats {
        self.lock().stats
    }

    /// Per-relation conflict attribution: for each relation, how many
    /// commit validations it caused to fail (a whole-database read set
    /// charges every relation that had changed).
    pub fn conflict_attribution(&self) -> BTreeMap<Pred, u64> {
        self.lock().conflict_preds.clone()
    }

    /// WAL records acknowledged as durable so far.
    pub fn durable_records(&self) -> u64 {
        self.lock().durable_seq
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .expect("concurrent store poisoned by panic")
    }

    /// Run one top-level transaction: take a snapshot, run `f` on it, and
    /// — if `f` decides to commit — validate the read set against the
    /// current head and append the delta through group commit. On
    /// validation conflict, `f` re-runs against a fresh snapshot (bounded
    /// by [`TxOptions`]). Returns after the commit is fsync-durable.
    ///
    /// `f` must be re-runnable: it may execute several times, and all but
    /// the last execution have no effect.
    pub fn transaction<T, E>(
        &self,
        mut f: impl FnMut(&Database) -> std::result::Result<TxDecision<T>, E>,
    ) -> std::result::Result<Committed<T>, TxError<E>> {
        for attempt in 1..=self.opts.max_attempts {
            let snapshot = {
                let st = self.lock();
                if let Some(msg) = &st.failed {
                    return Err(TxError::Store(StoreError::Corrupt(msg.clone())));
                }
                if st.closing {
                    return Err(TxError::Store(StoreError::Corrupt(
                        "store is shutting down".into(),
                    )));
                }
                st.db.clone()
            };
            let decision = f(&snapshot).map_err(TxError::App)?;
            let (delta, reads, value) = match decision {
                TxDecision::ReadOnly(value) => {
                    self.lock().stats.read_only += 1;
                    return Ok(Committed {
                        value,
                        seq: None,
                        attempts: attempt,
                    });
                }
                TxDecision::Abort(value) => {
                    self.lock().stats.aborts += 1;
                    return Ok(Committed {
                        value,
                        seq: None,
                        attempts: attempt,
                    });
                }
                TxDecision::Commit {
                    delta,
                    reads,
                    value,
                } => (delta, reads, value),
            };
            let mut st = self.lock();
            if let Some(msg) = &st.failed {
                return Err(TxError::Store(StoreError::Corrupt(msg.clone())));
            }
            let changed = changed_reads(&snapshot, &st.db, &reads);
            if let Some(changed) = changed {
                // First committer won; retry from a fresh snapshot.
                st.stats.conflicts += 1;
                for p in changed {
                    *st.conflict_preds.entry(p).or_insert(0) += 1;
                }
                drop(st);
                self.backoff(attempt);
                continue;
            }
            // Validated: serialize this commit at the head.
            let next_db = match delta.replay(&st.db) {
                Ok(db) => db,
                // The delta does not apply to the very state it was
                // produced against — an application bug, not a conflict.
                Err(e) => return Err(TxError::Store(StoreError::Db(e.to_string()))),
            };
            let seq = st.next_seq;
            st.next_seq += 1;
            st.pending.push((delta, next_db.digest()));
            st.db = next_db;
            self.await_durable(st, seq)?;
            self.lock().stats.commits += 1;
            return Ok(Committed {
                value,
                seq: Some(seq),
                attempts: attempt,
            });
        }
        let mut st = self.lock();
        st.stats.conflict_failures += 1;
        Err(TxError::Conflict {
            attempts: self.opts.max_attempts,
        })
    }

    /// Group-commit wait loop: either become the leader (store token free)
    /// and write everything pending as one fsync'd group, or wait for a
    /// leader to make `seq` durable.
    fn await_durable<'a, E>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        seq: u64,
    ) -> std::result::Result<(), TxError<E>> {
        loop {
            if st.durable_seq > seq {
                return Ok(());
            }
            if let Some(msg) = &st.failed {
                return Err(TxError::Store(StoreError::Corrupt(msg.clone())));
            }
            if st.store.is_some() && !st.pending.is_empty() {
                // Become the leader for the current batch.
                let mut store = st.store.take().expect("checked above");
                let batch = std::mem::take(&mut st.pending);
                drop(st);
                let deltas: Vec<Delta> = batch.iter().map(|(d, _)| d.clone()).collect();
                let result = store.commit_group(&deltas);
                // The store's recomputed head digest must agree with the
                // validator's — both replayed the same deltas in the same
                // order from the same base.
                debug_assert!(
                    result.is_err() || store.db().digest() == batch.last().expect("nonempty").1
                );
                st = self.lock();
                match result {
                    Ok(first_seq) => {
                        st.durable_seq = first_seq + batch.len() as u64;
                        st.stats.groups += 1;
                        st.stats.grouped_records += batch.len() as u64;
                        st.stats.max_group = st.stats.max_group.max(batch.len() as u64);
                    }
                    Err(e) => {
                        st.failed = Some(e.to_string());
                    }
                }
                st.store = Some(store);
                self.inner.durable.notify_all();
            } else {
                st = self
                    .inner
                    .durable
                    .wait(st)
                    .expect("concurrent store poisoned by panic");
            }
        }
    }

    /// Jittered exponential backoff after a conflict: the exponential
    /// envelope doubles per attempt (capped at 64x the base), and the
    /// actual sleep lands in `[envelope/2, envelope]` at a per-thread,
    /// per-attempt offset, so clients that conflicted on the same commit
    /// do not all retry at the same instant and re-collide indefinitely.
    fn backoff(&self, attempt: u32) {
        let factor = 1u32 << attempt.saturating_sub(1).min(6);
        std::thread::sleep(jittered(self.opts.backoff * factor, attempt));
    }

    /// Shut down: refuse new transactions, wait for the pending batch to
    /// drain, and hand the underlying [`Store`] back (e.g. to rotate a
    /// final snapshot or read recovery info). Fails if the store poisoned.
    pub fn close(self) -> Result<Store> {
        let mut st = self.lock();
        st.closing = true;
        loop {
            if let Some(msg) = &st.failed {
                // The store token is back (a leader always restores it);
                // surface the poisoning instead of the handle.
                return Err(StoreError::Corrupt(msg.clone()));
            }
            if st.pending.is_empty() {
                if let Some(store) = st.store.take() {
                    return Ok(store);
                }
            }
            st = self
                .inner
                .durable
                .wait(st)
                .expect("concurrent store poisoned by panic");
        }
    }
}

/// Commit-time validation: which relations the transaction depends on
/// changed between its snapshot and the head? `None` = valid. `Some(v)` =
/// conflict; `v` lists the changed relations for attribution (it can be
/// empty only in the astronomically-unlikely case of a whole-digest
/// mismatch with no per-relation witness).
///
/// Only the relations in `reads` are compared (by
/// [`Database::relation_digest`], so a writer that restored identical
/// content does not conflict). A [`ReadSet::whole_db`] read set is
/// full-digest equality, with attribution computed by diffing every
/// declared relation.
fn changed_reads(snapshot: &Database, head: &Database, reads: &ReadSet) -> Option<Vec<Pred>> {
    if reads.is_whole_db() {
        if head.digest() == snapshot.digest() {
            return None;
        }
        let mut preds: Vec<Pred> = snapshot.preds().chain(head.preds()).collect();
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|p| head.relation_digest(*p) != snapshot.relation_digest(*p));
        return Some(preds);
    }
    let changed: Vec<Pred> = reads
        .preds()
        .filter(|p| head.relation_digest(*p) != snapshot.relation_digest(*p))
        .collect();
    if changed.is_empty() {
        None
    } else {
        Some(changed)
    }
}

/// Deterministic per-thread jitter: map `d` into `[d/2, d]` at an offset
/// hashed from the calling thread's id and the attempt number. No RNG —
/// distinct threads (and successive attempts of one thread) land at
/// distinct points of the envelope, which is all desynchronization needs.
fn jittered(d: Duration, attempt: u32) -> Duration {
    use std::hash::{Hash, Hasher};
    let nanos = d.as_nanos() as u64;
    let half = nanos / 2;
    if half == 0 {
        return d;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    attempt.hash(&mut h);
    Duration::from_nanos(nanos - h.finish() % (half + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use td_core::Pred;
    use td_db::{tuple, DeltaOp};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("td-store-concurrent-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        dir
    }

    fn ins(i: i64) -> Delta {
        ins_into("n", i)
    }

    fn ins_into(pred: &str, i: i64) -> Delta {
        let mut d = Delta::new();
        d.push(DeltaOp::Ins(Pred::new(pred, 1), tuple!(i)));
        d
    }

    fn reading(pred: &str) -> ReadSet {
        let mut rs = ReadSet::new();
        rs.record(Pred::new(pred, 1));
        rs
    }

    #[test]
    fn sequential_transactions_commit_and_close_round_trips() {
        let dir = temp_dir("seq");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new()).unwrap();
        for i in 0..5i64 {
            let r = cs
                .transaction(|_db| {
                    Ok::<_, std::convert::Infallible>(TxDecision::commit(ins(i), ReadSet::new(), i))
                })
                .unwrap();
            assert_eq!(r.seq, Some(i as u64));
            assert_eq!(r.attempts, 1);
        }
        let stats = cs.stats();
        assert_eq!(stats.commits, 5);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(stats.grouped_records, 5);
        let store = cs.close().unwrap();
        assert_eq!(store.db().total_tuples(), 5);
        drop(store);
        let report = Store::verify(&dir).unwrap();
        assert_eq!(report.wal_records, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_and_abort_leave_no_record() {
        let dir = temp_dir("readonly");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new()).unwrap();
        let r = cs
            .transaction(|db| {
                Ok::<_, std::convert::Infallible>(TxDecision::ReadOnly(db.total_tuples()))
            })
            .unwrap();
        assert_eq!((r.value, r.seq), (0, None));
        let r = cs
            .transaction(|_db| Ok::<_, std::convert::Infallible>(TxDecision::Abort("no")))
            .unwrap();
        assert_eq!(r.seq, None);
        let stats = cs.stats();
        assert_eq!((stats.read_only, stats.aborts, stats.commits), (1, 1, 0));
        let store = cs.close().unwrap();
        assert_eq!(store.wal_records(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_counter_increments_all_serialize() {
        // N threads each increment a unique tuple id derived from what they
        // read — heavy conflicts, but every transaction eventually lands.
        let dir = temp_dir("race");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new()).unwrap();
        let threads = 8;
        let per = 5;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cs = cs.clone();
                std::thread::spawn(move || {
                    for _ in 0..per {
                        cs.transaction(|db| {
                            // Claim the next free integer — conflicts with
                            // every concurrent claimer by construction.
                            let next = db.total_tuples() as i64;
                            Ok::<_, std::convert::Infallible>(TxDecision::commit_whole_db(
                                ins(next),
                                (),
                            ))
                        })
                        .expect("transaction eventually commits");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cs.stats();
        assert_eq!(stats.commits, (threads * per) as u64);
        let store = cs.close().unwrap();
        assert_eq!(store.db().total_tuples(), threads * per);
        // All claimed integers are distinct and contiguous: serialized.
        for i in 0..(threads * per) as i64 {
            assert!(store.db().contains(Pred::new("n", 1), &tuple!(i)), "{i}");
        }
        drop(store);
        assert!(Store::verify(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn closing_store_refuses_new_transactions() {
        let dir = temp_dir("closing");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new()).unwrap();
        let cs2 = cs.clone();
        let store = cs.close().unwrap();
        let err = cs2
            .transaction(|_db| {
                Ok::<_, std::convert::Infallible>(TxDecision::commit_whole_db(ins(0), ()))
            })
            .unwrap_err();
        assert!(matches!(err, TxError::Store(_)));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn conflict_budget_exhaustion_reports_conflict() {
        let dir = temp_dir("budget");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new())
            .unwrap()
            .with_options(TxOptions {
                max_attempts: 3,
                backoff: Duration::from_micros(1),
            });
        // Sabotage every attempt by committing between snapshot and commit.
        let saboteur = cs.clone();
        let mut i = 100i64;
        let err = cs
            .transaction(|_db| {
                i += 1;
                saboteur
                    .transaction(|_d| {
                        Ok::<_, std::convert::Infallible>(TxDecision::commit_whole_db(ins(i), ()))
                    })
                    .unwrap();
                Ok::<_, std::convert::Infallible>(TxDecision::commit(ins(0), reading("n"), ()))
            })
            .unwrap_err();
        match err {
            TxError::Conflict { attempts } => assert_eq!(attempts, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cs.stats().conflicts, 3);
        assert_eq!(cs.stats().conflict_failures, 1);
        // Every failed validation was the saboteur changing `n`.
        let attr = cs.conflict_attribution();
        assert_eq!(attr.get(&Pred::new("n", 1)), Some(&3));
        drop(cs.close().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disjoint_read_set_ignores_unrelated_writes() {
        // A transaction that read only `n` is not invalidated by a commit
        // to `m` that lands between its snapshot and its validation.
        let dir = temp_dir("disjoint");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new()).unwrap();
        let saboteur = cs.clone();
        let mut i = 0i64;
        let r = cs
            .transaction(|_db| {
                i += 1;
                saboteur
                    .transaction(|_d| {
                        Ok::<_, std::convert::Infallible>(TxDecision::commit_whole_db(
                            ins_into("m", i),
                            (),
                        ))
                    })
                    .unwrap();
                Ok::<_, std::convert::Infallible>(TxDecision::commit(ins(0), reading("n"), ()))
            })
            .unwrap();
        assert_eq!(r.attempts, 1, "unrelated write must not force a retry");
        assert_eq!(cs.stats().conflicts, 0);
        assert!(cs.conflict_attribution().is_empty());
        drop(cs.close().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn whole_db_mode_conflicts_on_unrelated_writes() {
        // Same schedule as above, but the transaction declares the
        // whole-database read set: the unrelated write *does* invalidate
        // the first attempt.
        let dir = temp_dir("wholedb");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new())
            .unwrap()
            .with_options(TxOptions {
                backoff: Duration::from_micros(1),
                ..TxOptions::default()
            });
        let saboteur = cs.clone();
        let mut calls = 0i64;
        let r = cs
            .transaction(|_db| {
                calls += 1;
                if calls == 1 {
                    saboteur
                        .transaction(|_d| {
                            Ok::<_, std::convert::Infallible>(TxDecision::commit_whole_db(
                                ins_into("m", 7),
                                (),
                            ))
                        })
                        .unwrap();
                }
                Ok::<_, std::convert::Infallible>(TxDecision::commit_whole_db(ins(0), ()))
            })
            .unwrap();
        assert_eq!(r.attempts, 2, "whole-db validation sees every write");
        assert_eq!(cs.stats().conflicts, 1);
        let attr = cs.conflict_attribution();
        assert_eq!(attr.get(&Pred::new("m", 1)), Some(&1));
        assert_eq!(attr.get(&Pred::new("n", 1)), None);
        drop(cs.close().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aba_restore_of_read_relation_does_not_conflict() {
        // An intervening writer that puts the read relation back to exactly
        // its snapshot content is invisible: relation digests are content
        // digests, not version counters.
        let dir = temp_dir("aba");
        let cs = ConcurrentStore::open_or_init(&dir, &Database::new()).unwrap();
        let saboteur = cs.clone();
        let mut first = true;
        let r = cs
            .transaction(|_db| {
                if first {
                    first = false;
                    // Insert then delete n(42): net content unchanged.
                    let mut d = Delta::new();
                    d.push(DeltaOp::Ins(Pred::new("n", 1), tuple!(42)));
                    d.push(DeltaOp::Del(Pred::new("n", 1), tuple!(42)));
                    saboteur
                        .transaction(move |_d| {
                            Ok::<_, std::convert::Infallible>(TxDecision::commit_whole_db(
                                d.clone(),
                                (),
                            ))
                        })
                        .unwrap();
                }
                Ok::<_, std::convert::Infallible>(TxDecision::commit(ins(0), reading("n"), ()))
            })
            .unwrap();
        assert_eq!(r.attempts, 1);
        assert_eq!(cs.stats().conflicts, 0);
        drop(cs.close().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jitter_stays_inside_the_envelope() {
        for attempt in 1..=10 {
            let d = Duration::from_micros(800);
            let j = jittered(d, attempt);
            assert!(j <= d, "attempt {attempt}: {j:?} above envelope");
            assert!(j >= d / 2, "attempt {attempt}: {j:?} below half-envelope");
        }
        // Degenerate base: too small to jitter, passed through unchanged.
        assert_eq!(
            jittered(Duration::from_nanos(1), 3),
            Duration::from_nanos(1)
        );
    }
}
