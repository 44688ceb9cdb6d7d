//! On-disk compatibility pin: a store directory written by the `td` binary
//! of commit c2c97ae (the last one whose relations were a HAMT plus a treap)
//! must open, replay and verify under the current `td-db`.
//!
//! `fixtures/parent_store/` was produced with that binary by
//!
//! ```sh
//! td --db=parent_store run fixtures/parent_store_a.td   # genesis + 3 commits
//! td db snapshot parent_store                           # fold the WAL
//! td --db=parent_store run fixtures/parent_store_b.td   # 2 more commits
//! ```
//!
//! Every WAL record carries the post-state digest the old code computed, so
//! a change to tuple hashing, relation digests or their composition fails
//! here as a `DigestMismatch` rather than in a user's data directory.

use std::fs;
use std::path::{Path, PathBuf};
use td_core::Pred;
use td_db::{tuple, Delta, DeltaOp};
use td_store::Store;

/// Snapshot and final digests as printed by the parent's `td db verify`.
const SNAPSHOT_DIGEST: u128 = 0x45d9879d8e2e2966ea161510dd3bf1a0;
const FINAL_DIGEST: u128 = 0xf6f458f67acc621c9156b7fdfe2ce108;

fn copy_fixture(name: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_store");
    let dir = std::env::temp_dir()
        .join("td-store-fixture-tests")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for entry in fs::read_dir(&src).expect("fixture directory present") {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

#[test]
fn parent_written_store_verifies_with_recorded_digests() {
    let dir = copy_fixture("verify");
    let report = Store::verify(&dir).expect("parent-written store verifies");
    assert_eq!(report.snapshot_digest, SNAPSHOT_DIGEST);
    assert_eq!(report.snapshot_tuples, 6);
    assert_eq!(report.wal_records, 2);
    assert_eq!(report.final_digest, FINAL_DIGEST);
    assert_eq!(report.final_tuples, 8);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parent_written_store_opens_and_extends() {
    let dir = copy_fixture("open");
    let mut store = Store::open(&dir).expect("parent-written store opens");
    assert_eq!(store.recovery().replayed, 2);
    assert_eq!(store.db().digest(), FINAL_DIGEST);
    assert_eq!(
        store.db().to_string(),
        "{audit(acct1, acct2, 30), audit(acct1, acct3, 2), audit(acct2, acct1, 1), \
         audit(acct2, acct3, 5), balance(acct1, 69), balance(acct2, 74), balance(acct3, 0), open}"
    );
    // A commit made by the current code lands on the old log and the whole
    // directory still verifies.
    let mut delta = Delta::new();
    delta.push(DeltaOp::Del(Pred::new("balance", 2), tuple!("acct3", 0)));
    store.commit(&delta).unwrap();
    drop(store);
    let report = Store::verify(&dir).expect("extended store verifies");
    assert_eq!(report.wal_records, 3);
    assert_eq!(report.final_tuples, 7);
    fs::remove_dir_all(&dir).unwrap();
}
