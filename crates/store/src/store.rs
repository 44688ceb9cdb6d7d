//! The durable store: a directory pairing one snapshot with one WAL.
//!
//! ## Recovery invariant
//!
//! `Store::open` = load the snapshot (checksum + digest verified), replay
//! every WAL record whose checksum verifies, stop at the first torn or
//! truncated record, and verify after each record that the database digest
//! equals the digest the record promised. The recovered state is therefore
//! always the snapshot plus a **prefix of the committed transaction
//! sequence** — never a partial delta, never an unverified byte.
//!
//! ## Rotation ordering
//!
//! `Store::rotate_snapshot` writes the new snapshot *first* (temp + fsync +
//! rename), then resets the WAL. If a crash lands between the two, the
//! store holds a new snapshot plus the old WAL: its base digest no longer
//! matches, but every record in it is already *contained in* the snapshot
//! (the snapshot was taken at or after the last record). `open` detects the
//! mismatch and discards the stale WAL. The reverse ordering would lose
//! committed records; this ordering only ever drops redundant ones.

use crate::snapshot::{load_snapshot, write_snapshot, SNAPSHOT_FILE};
use crate::wal::{read_wal, Wal, WalContents, WalRecord, WalTail, WAL_FILE};
use crate::{io_err, Result, StoreError};
use std::fs;
use std::path::{Path, PathBuf};
use td_db::{Database, Delta, DeltaOp};

/// File name of the advisory lock inside a store directory.
pub const LOCK_FILE: &str = "lock";

/// Take the store's advisory lock (flock-style, via the std file-locking
/// API). A second `Store::open`/`init` on the same directory — from another
/// process or this one — fails with [`StoreError::Locked`] instead of
/// silently double-appending to `wal.tdl` and corrupting the commit
/// sequence. Released automatically when the returned handle (held inside
/// [`Store`]) drops — including on crash, since the OS releases it with the
/// process; a stale lockfile left on disk is harmless.
fn acquire_lock(dir: &Path) -> Result<fs::File> {
    let path = dir.join(LOCK_FILE);
    let file = fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| io_err(&path, e))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(fs::TryLockError::WouldBlock) => Err(StoreError::Locked(dir.display().to_string())),
        Err(fs::TryLockError::Error(e)) => Err(io_err(&path, e)),
    }
}

/// Replay checksum-verified WAL records onto `db`, checking after each that
/// the database digest is the one the record promised — the replay-and-check
/// that recovery ([`Store::open`]) and the cold integrity pass
/// ([`Store::verify`]) share.
fn replay_verified(mut db: Database, records: &[WalRecord]) -> Result<Database> {
    for rec in records {
        db = rec
            .delta
            .replay(&db)
            .map_err(|e| StoreError::Db(e.to_string()))?;
        if db.digest() != rec.post_digest {
            return Err(StoreError::DigestMismatch {
                context: format!("wal record {}", rec.seq),
                stored: rec.post_digest,
                computed: db.digest(),
            });
        }
    }
    Ok(db)
}

/// How `Store::open*` arrived at the recovered state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryOutcome {
    /// The store was created by this call (no prior state).
    Fresh,
    /// Snapshot + clean WAL replayed fully.
    Recovered,
    /// Snapshot + WAL replayed up to a torn tail, which was cut.
    RecoveredTorn,
    /// Snapshot recovered; a stale WAL from an interrupted rotation was
    /// discarded (its content is contained in the snapshot).
    RecoveredStaleWal,
}

impl RecoveryOutcome {
    /// Stable lowercase label (used in run reports and `td db` output).
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryOutcome::Fresh => "fresh",
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::RecoveredTorn => "recovered-torn-tail",
            RecoveryOutcome::RecoveredStaleWal => "recovered-stale-wal",
        }
    }
}

/// What recovery did, for reports and logs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryInfo {
    /// Path taken.
    pub outcome: RecoveryOutcome,
    /// WAL records replayed onto the snapshot.
    pub replayed: u64,
    /// Bytes dropped from a torn tail (0 on clean recovery).
    pub torn_bytes: u64,
    /// Tuples in the snapshot image itself.
    pub snapshot_tuples: u64,
    /// Age of the snapshot, measured in committed transactions since it was
    /// taken (== `replayed` at open time).
    pub snapshot_age: u64,
}

/// Result of a cold integrity pass (`Store::verify`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyReport {
    /// Digest of the snapshot image.
    pub snapshot_digest: u128,
    /// Tuples in the snapshot image.
    pub snapshot_tuples: u64,
    /// WAL records verified and replayed.
    pub wal_records: u64,
    /// Digest after replaying the full WAL.
    pub final_digest: u128,
    /// Tuples after replaying the full WAL.
    pub final_tuples: u64,
}

/// An open durable database: recovered in-memory state plus an append
/// handle on the WAL. All mutation goes through [`Store::write_group`],
/// which is atomic and durable per batch.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    db: Database,
    wal: Wal,
    recovery: RecoveryInfo,
    committed_this_session: u64,
    /// Advisory inter-process lock on the directory; held for the life of
    /// the handle, released by the OS on drop or crash.
    _lock: fs::File,
}

impl Store {
    /// Does `dir` hold an initialized store?
    pub fn is_initialized(dir: &Path) -> bool {
        dir.join(SNAPSHOT_FILE).is_file()
    }

    /// Create a store at `dir` holding `initial` (usually an empty database
    /// carrying the program schema). `dir` itself is created if missing;
    /// its parent must exist. Refuses a directory that already holds a
    /// store.
    pub fn init(dir: &Path, initial: &Database) -> Result<Store> {
        if Store::is_initialized(dir) {
            return Err(StoreError::AlreadyInitialized(dir.display().to_string()));
        }
        if !dir.exists() {
            fs::create_dir(dir).map_err(|e| io_err(dir, e))?;
        }
        let lock = acquire_lock(dir)?;
        write_snapshot(&dir.join(SNAPSHOT_FILE), initial)?;
        let wal = Wal::create(&dir.join(WAL_FILE), initial.digest())?;
        Ok(Store {
            dir: dir.to_owned(),
            db: initial.clone(),
            wal,
            recovery: RecoveryInfo {
                outcome: RecoveryOutcome::Fresh,
                replayed: 0,
                torn_bytes: 0,
                snapshot_tuples: initial.total_tuples() as u64,
                snapshot_age: 0,
            },
            committed_this_session: 0,
            _lock: lock,
        })
    }

    /// Open an existing store, running crash recovery (see the module docs
    /// for the invariant). Any torn WAL tail is cut so subsequent commits
    /// append after the last verified record.
    pub fn open(dir: &Path) -> Result<Store> {
        if !Store::is_initialized(dir) {
            return Err(StoreError::NotInitialized(dir.display().to_string()));
        }
        let lock = acquire_lock(dir)?;
        let (mut db, snap_digest) = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let snapshot_tuples = db.total_tuples() as u64;
        let wal_path = dir.join(WAL_FILE);
        let mut outcome = RecoveryOutcome::Recovered;
        let mut replayed = 0u64;
        let mut torn_bytes = 0u64;
        let wal = if wal_path.is_file() {
            let contents = read_wal(&wal_path)?;
            if contents.base_digest != snap_digest {
                // Interrupted rotation: the snapshot post-dates the WAL and
                // contains everything in it (rotation writes the snapshot
                // first). Discard the stale log.
                outcome = RecoveryOutcome::RecoveredStaleWal;
                Wal::create(&wal_path, snap_digest)?
            } else {
                db = replay_verified(db, &contents.records)?;
                replayed = contents.records.len() as u64;
                if let WalTail::Torn { dropped, .. } = contents.tail {
                    outcome = RecoveryOutcome::RecoveredTorn;
                    torn_bytes = dropped;
                }
                Wal::open_at(&wal_path, contents.valid_len, replayed)?
            }
        } else {
            // A store with a snapshot but no WAL (deleted out-of-band):
            // start a fresh log from the snapshot state.
            Wal::create(&wal_path, snap_digest)?
        };
        Ok(Store {
            dir: dir.to_owned(),
            db,
            wal,
            recovery: RecoveryInfo {
                outcome,
                replayed,
                torn_bytes,
                snapshot_tuples,
                snapshot_age: replayed,
            },
            committed_this_session: 0,
            _lock: lock,
        })
    }

    /// Open `dir` if it is a store, otherwise initialize it with `initial`.
    pub fn open_or_init(dir: &Path, initial: &Database) -> Result<Store> {
        if Store::is_initialized(dir) {
            Store::open(dir)
        } else {
            Store::init(dir, initial)
        }
    }

    /// Open `dir` if it is a store; otherwise initialize it *seeded*: a
    /// snapshot of `schema` (the program's relations, empty), then every
    /// tuple of `seeded` (the same schema plus the program's init facts)
    /// written as the genesis WAL record, with `seeded` itself as its
    /// post-state — so even a crash before the first transaction leaves a
    /// replayable, digest-verified state. An existing store keeps its
    /// accumulated state; `seeded` is not re-applied.
    pub fn open_or_seed(dir: &Path, schema: &Database, seeded: &Database) -> Result<Store> {
        if Store::is_initialized(dir) {
            return Store::open(dir);
        }
        let mut store = Store::init(dir, schema)?;
        let mut genesis = Delta::new();
        for p in seeded.preds() {
            for t in seeded.relation(p).map(|r| r.to_vec()).unwrap_or_default() {
                genesis.push(DeltaOp::Ins(p, t));
            }
        }
        if !genesis.is_empty() {
            store.write_group(&[(genesis, seeded.clone())])?;
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current (recovered + committed) database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// How recovery went at open time.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// Transactions committed through this handle since open.
    pub fn committed_this_session(&self) -> u64 {
        self.committed_this_session
    }

    /// WAL records since the snapshot (replayed + session commits) — the
    /// snapshot's current age in transactions.
    pub fn wal_records(&self) -> u64 {
        self.recovery.replayed + self.committed_this_session
    }

    /// The one writer: a batch of committed transactions as one WAL frame
    /// with **one** `fsync` ([`Wal::append_group`]), each delta with the
    /// version it made from the one before — the first from this store's
    /// state — in the order the OCC validator serialized them. A record
    /// carries its version's digest, which recovery recomputes from the
    /// delta; the last version becomes this store's state. Returns the seq
    /// of the first record; the batch occupies contiguous seqs.
    pub fn write_group(&mut self, batch: &[(Delta, Database)]) -> Result<u64> {
        let entries: Vec<(&Delta, u128)> = batch.iter().map(|(d, db)| (d, db.digest())).collect();
        let first_seq = self.wal.append_group(&entries)?;
        self.db = batch.last().expect("checked by append_group").1.clone();
        self.committed_this_session += batch.len() as u64;
        Ok(first_seq)
    }

    /// [`Store::commit_group`] of one delta.
    pub fn commit(&mut self, delta: &Delta) -> Result<u64> {
        self.commit_group(std::slice::from_ref(delta))
    }

    /// Replay each delta onto the state the one before left, the first onto
    /// this store's, and write them with those versions: for callers that
    /// hold no versions, tdbench's store probes.
    pub fn commit_group(&mut self, deltas: &[Delta]) -> Result<u64> {
        let mut batch: Vec<(Delta, Database)> = Vec::with_capacity(deltas.len());
        for delta in deltas {
            let before = batch.last().map_or(&self.db, |(_, db)| db);
            let after = delta
                .replay(before)
                .map_err(|e| StoreError::Db(e.to_string()))?;
            batch.push((delta.clone(), after));
        }
        self.write_group(&batch)
    }

    /// Rotate: write a fresh snapshot of the current state, then reset the
    /// WAL to empty on that base. See the module docs for why this order is
    /// crash-safe.
    pub fn rotate_snapshot(&mut self) -> Result<()> {
        write_snapshot(&self.dir.join(SNAPSHOT_FILE), &self.db)?;
        self.wal = Wal::create(&self.dir.join(WAL_FILE), self.db.digest())?;
        self.recovery.replayed = 0;
        self.recovery.snapshot_tuples = self.db.total_tuples() as u64;
        self.recovery.snapshot_age = 0;
        self.committed_this_session = 0;
        Ok(())
    }

    /// Cold integrity pass over a store directory, strict where recovery
    /// is lenient: a torn tail, a checksum failure, a digest mismatch or a
    /// stale WAL all *fail* verification. A store that just closed cleanly
    /// always passes.
    pub fn verify(dir: &Path) -> Result<VerifyReport> {
        if !Store::is_initialized(dir) {
            return Err(StoreError::NotInitialized(dir.display().to_string()));
        }
        let (db, snapshot_digest) = load_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let snapshot_tuples = db.total_tuples() as u64;
        let contents = read_wal(&dir.join(WAL_FILE))?;
        if contents.base_digest != snapshot_digest {
            return Err(StoreError::Corrupt(format!(
                "wal base digest 0x{:032x} does not match snapshot digest 0x{snapshot_digest:032x}",
                contents.base_digest
            )));
        }
        if let WalTail::Torn { at, dropped } = contents.tail {
            return Err(StoreError::Corrupt(format!(
                "wal has a torn tail at byte {at} ({dropped} bytes)"
            )));
        }
        let db = replay_verified(db, &contents.records)?;
        // Belt and braces: the incremental digest must agree with a full
        // recomputation of the final state.
        let computed = db.digest_from_scratch();
        if computed != db.digest() {
            return Err(StoreError::DigestMismatch {
                context: "final state".into(),
                stored: db.digest(),
                computed,
            });
        }
        Ok(VerifyReport {
            snapshot_digest,
            snapshot_tuples,
            wal_records: contents.records.len() as u64,
            final_digest: db.digest(),
            final_tuples: db.total_tuples() as u64,
        })
    }

    /// The WAL records currently on disk (for `td db log`). Lenient about a
    /// torn tail, like recovery; returns the records plus the tail state.
    pub fn log(dir: &Path) -> Result<(Vec<WalRecord>, WalTail)> {
        if !Store::is_initialized(dir) {
            return Err(StoreError::NotInitialized(dir.display().to_string()));
        }
        let contents: WalContents = read_wal(&dir.join(WAL_FILE))?;
        Ok((contents.records, contents.tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::Pred;
    use td_db::{tuple, DeltaOp};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("td-store-store-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        dir
    }

    fn ins(i: i64) -> Delta {
        let mut d = Delta::new();
        d.push(DeltaOp::Ins(Pred::new("n", 1), tuple!(i)));
        d
    }

    #[test]
    fn init_commit_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        let mut store = Store::init(&dir, &Database::new()).unwrap();
        assert_eq!(store.recovery().outcome, RecoveryOutcome::Fresh);
        for i in 0..10 {
            store.commit(&ins(i)).unwrap();
        }
        let digest = store.db().digest();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().outcome, RecoveryOutcome::Recovered);
        assert_eq!(store.recovery().replayed, 10);
        assert_eq!(store.db().digest(), digest);
        assert_eq!(store.db().total_tuples(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_compacts_and_survives_reopen() {
        let dir = temp_dir("rotate");
        let mut store = Store::init(&dir, &Database::new()).unwrap();
        for i in 0..5 {
            store.commit(&ins(i)).unwrap();
        }
        store.rotate_snapshot().unwrap();
        assert_eq!(store.wal_records(), 0);
        store.commit(&ins(100)).unwrap();
        let digest = store.db().digest();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().replayed, 1);
        assert_eq!(store.recovery().snapshot_tuples, 5);
        assert_eq!(store.db().digest(), digest);
        let report = Store::verify(&dir).unwrap();
        assert_eq!(report.wal_records, 1);
        assert_eq!(report.final_digest, digest);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_uninitialized_and_init_refuses_initialized() {
        let dir = temp_dir("guards");
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::NotInitialized(_))
        ));
        fs::create_dir(&dir).unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::NotInitialized(_))
        ));
        let store = Store::init(&dir, &Database::new()).unwrap();
        drop(store);
        assert!(matches!(
            Store::init(&dir, &Database::new()),
            Err(StoreError::AlreadyInitialized(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_after_interrupted_rotation_is_discarded() {
        let dir = temp_dir("stale-wal");
        let mut store = Store::init(&dir, &Database::new()).unwrap();
        for i in 0..3 {
            store.commit(&ins(i)).unwrap();
        }
        let digest = store.db().digest();
        // Simulate the crash window: snapshot rewritten, WAL not yet reset.
        write_snapshot(&dir.join(SNAPSHOT_FILE), store.db()).unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().outcome, RecoveryOutcome::RecoveredStaleWal);
        assert_eq!(store.db().digest(), digest);
        assert_eq!(store.db().total_tuples(), 3);
        drop(store);
        assert!(Store::verify(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_opener_is_rejected_while_lock_held() {
        let dir = temp_dir("locked");
        let store = Store::init(&dir, &Database::new()).unwrap();
        // Same directory, lock still held: both open and re-init refuse.
        assert!(matches!(Store::open(&dir), Err(StoreError::Locked(_))));
        drop(store);
        // Lock released with the handle: reopening succeeds.
        let store = Store::open(&dir).unwrap();
        assert!(matches!(Store::open(&dir), Err(StoreError::Locked(_))));
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_group_round_trips_and_recovers() {
        let dir = temp_dir("group-commit");
        let mut store = Store::init(&dir, &Database::new()).unwrap();
        store.commit(&ins(0)).unwrap();
        let first = store.commit_group(&[ins(1), ins(2), ins(3)]).unwrap();
        assert_eq!(first, 1);
        assert_eq!(store.committed_this_session(), 4);
        assert_eq!(store.wal_records(), 4);
        let digest = store.db().digest();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.recovery().replayed, 4);
        assert_eq!(store.db().digest(), digest);
        assert_eq!(store.db().total_tuples(), 4);
        drop(store);
        let report = Store::verify(&dir).unwrap();
        assert_eq!(report.wal_records, 4);
        assert_eq!(report.final_digest, digest);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_records_survive_without_rotation() {
        // fsync-on-commit: no snapshot was ever rotated, the WAL alone
        // carries all state.
        let dir = temp_dir("wal-only");
        let mut store = Store::init(&dir, &Database::new()).unwrap();
        let mut d = Delta::new();
        d.push(DeltaOp::Ins(Pred::new("a", 2), tuple!("x", 1)));
        d.push(DeltaOp::Ins(Pred::new("a", 2), tuple!("y", 2)));
        d.push(DeltaOp::Del(Pred::new("a", 2), tuple!("x", 1)));
        store.commit(&d).unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.db().total_tuples(), 1);
        assert!(store.db().contains(Pred::new("a", 2), &tuple!("y", 2)));
        fs::remove_dir_all(&dir).unwrap();
    }
}
