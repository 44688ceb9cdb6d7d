//! Crash-recovery fault injection: the recovery invariant, exhaustively.
//!
//! A multi-transaction corpus scenario (the iterated laboratory protocol)
//! is committed through a store. Then, for **every byte-length prefix** of
//! the WAL — every point a crash could have cut a write — the store is
//! recovered and the result must be a digest-verified *prefix* of the
//! committed transaction sequence. A partial transaction delta never
//! becomes visible; a committed (fsync-acknowledged) transaction before
//! the cut is never lost.
//!
//! A second pass flips individual bytes instead of truncating: corruption
//! inside a record must surface either as a cut tail (checksum catches it)
//! or as a hard error — never as a silently different database.

use std::fs;
use std::path::{Path, PathBuf};
use td_db::Database;
use td_engine::{load_init, Engine, EngineConfig, Outcome};
use td_parser::{parse_goal, parse_program};
use td_store::wal::WAL_FILE;
use td_store::{faultfs, RecoveryOutcome, Store, StoreError};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-store-crash-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a store from the iterated-protocol corpus file and commit a
/// sequence of transactions: the init facts (genesis), the file's own goal,
/// then two reset-and-rerun transactions so the WAL holds several real
/// deltas. Returns the store dir and the expected digest after each prefix
/// of the commit sequence (index 0 = empty store).
fn committed_corpus_store(dir: &Path) -> Vec<u128> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/iterated_protocol.td");
    let src = fs::read_to_string(&root).expect("corpus file readable");
    let parsed = parse_program(&src).expect("corpus parses");
    let schema = Database::with_schema_of(&parsed.program);

    let mut store = Store::init(dir, &schema).expect("store init");
    let mut digests = vec![store.db().digest()];

    // Genesis transaction: the init facts as one committed delta.
    let with_init = load_init(&schema, &parsed.init).expect("init loads");
    let mut genesis = td_db::Delta::new();
    for p in with_init.preds() {
        if let Some(rel) = with_init.relation(p) {
            for t in rel.to_vec() {
                genesis.push(td_db::DeltaOp::Ins(p, t));
            }
        }
    }
    store.commit(&genesis).expect("genesis commit");
    digests.push(store.db().digest());

    // The file's goal, then two reset-and-rerun protocols — each a
    // transaction with a real ins/del delta.
    let engine = Engine::with_config(parsed.program.clone(), EngineConfig::default());
    let goals = [
        parsed.goals[0].goal.clone(),
        parse_goal(
            "del.mapped(s1) * del.quality(s1, 3) * ins.quality(s1, 0) * protocol(s1).",
            &parsed.program,
        )
        .expect("reset goal parses")
        .goal,
        parse_goal(
            "del.mapped(s2) * del.quality(s2, 3) * ins.quality(s2, 1) * protocol(s2).",
            &parsed.program,
        )
        .expect("reset goal parses")
        .goal,
    ];
    for goal in &goals {
        match engine
            .solve(goal, store.db())
            .expect("corpus run cannot fault")
        {
            Outcome::Success(sol) => {
                assert!(
                    !sol.delta.is_empty(),
                    "scenario transactions have real deltas"
                );
                store.commit(&sol.delta).expect("commit");
                assert_eq!(
                    store.db().digest(),
                    sol.db.digest(),
                    "store replay == engine state"
                );
                digests.push(store.db().digest());
            }
            Outcome::Failure { .. } => panic!("corpus scenario must be executable"),
        }
    }
    digests
}

#[test]
fn every_wal_prefix_recovers_to_a_committed_prefix() {
    let base = temp_dir("prefix-base");
    let digests = committed_corpus_store(&base);
    assert!(digests.len() >= 5, "multi-transaction scenario");

    let wal_bytes = fs::read(base.join(WAL_FILE)).unwrap();
    // Record boundaries: re-scan the finished WAL; a prefix cut exactly at
    // a boundary is a clean log, anywhere else is a torn tail.
    let (records, _) = Store::log(&base).unwrap();
    assert_eq!(records.len() + 1, digests.len());
    let mut boundaries = Vec::new();
    {
        // Reconstruct each record's end offset by re-framing: walk frames.
        use td_store::codec::{read_frame, FrameOutcome};
        let mut at = {
            // skip file header + base page
            match read_frame(&wal_bytes, td_store::codec::FORMAT_TAG.len() + 4) {
                FrameOutcome::Ok { next, .. } => next,
                other => panic!("unexpected {other:?}"),
            }
        };
        boundaries.push(at);
        loop {
            match read_frame(&wal_bytes, at) {
                FrameOutcome::Ok { next, .. } => {
                    boundaries.push(next);
                    at = next;
                }
                FrameOutcome::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    assert_eq!(boundaries.len(), digests.len());

    let work = temp_dir("prefix-work");
    fs::copy(base.join("snapshot.tds"), work.join("snapshot.tds")).unwrap();
    // Every byte-length prefix from the freshly-created WAL (header + base
    // page — `Wal::create` is atomic, so shorter prefixes cannot occur
    // from a crash; they are covered by the hard-error test below).
    for cut in boundaries[0]..=*boundaries.last().unwrap() {
        fs::write(work.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
        let store = Store::open(&work).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let k = boundaries.iter().filter(|b| **b <= cut).count() - 1;
        assert_eq!(
            store.db().digest(),
            digests[k],
            "cut {cut}: recovered state must be the digest of commit prefix {k}"
        );
        assert_eq!(store.recovery().replayed, k as u64, "cut {cut}");
        if boundaries.contains(&cut) {
            assert_eq!(
                store.recovery().outcome,
                RecoveryOutcome::Recovered,
                "cut {cut}"
            );
        } else {
            assert_eq!(
                store.recovery().outcome,
                RecoveryOutcome::RecoveredTorn,
                "cut {cut}"
            );
            assert!(store.recovery().torn_bytes > 0, "cut {cut}");
        }
        drop(store);
        // Recovery repaired the file: it must now verify clean with
        // exactly the prefix's records.
        let report = Store::verify(&work).unwrap_or_else(|e| panic!("cut {cut}: verify: {e}"));
        assert_eq!(report.wal_records, k as u64, "cut {cut}");
        assert_eq!(report.final_digest, digests[k], "cut {cut}");
    }

    fs::remove_dir_all(&base).unwrap();
    fs::remove_dir_all(&work).unwrap();
}

#[test]
fn truncation_inside_the_wal_base_page_is_a_hard_error_not_silent_state() {
    let base = temp_dir("basepage-base");
    let _ = committed_corpus_store(&base);
    let wal_bytes = fs::read(base.join(WAL_FILE)).unwrap();
    let work = temp_dir("basepage-work");
    fs::copy(base.join("snapshot.tds"), work.join("snapshot.tds")).unwrap();
    let prefix_len = td_store::wal::wal_prefix(0).len();
    for cut in 0..prefix_len {
        fs::write(work.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
        match Store::open(&work) {
            Err(StoreError::Corrupt(_)) | Err(StoreError::Codec(_)) => {}
            other => panic!("cut {cut}: expected hard error, got {other:?}"),
        }
    }
    fs::remove_dir_all(&base).unwrap();
    fs::remove_dir_all(&work).unwrap();
}

#[test]
fn flipping_any_wal_record_byte_never_yields_a_non_prefix_state() {
    let base = temp_dir("flip-base");
    let digests = committed_corpus_store(&base);
    let wal_bytes = fs::read(base.join(WAL_FILE)).unwrap();
    let work = temp_dir("flip-work");
    fs::copy(base.join("snapshot.tds"), work.join("snapshot.tds")).unwrap();
    let record_region = td_store::wal::wal_prefix(0).len();
    // Step through the record region (every 7th byte keeps the test quick
    // while hitting every frame field across records).
    for offset in (record_region..wal_bytes.len()).step_by(7) {
        fs::write(work.join(WAL_FILE), &wal_bytes).unwrap();
        faultfs::flip_byte(&work.join(WAL_FILE), offset as u64, 0x20).unwrap();
        match Store::open(&work) {
            Ok(store) => {
                // Checksum cut the tail at the damaged record: state must
                // be a commit-prefix digest, reached in order.
                let k = store.recovery().replayed as usize;
                assert!(k < digests.len(), "offset {offset}");
                assert_eq!(
                    store.db().digest(),
                    digests[k],
                    "offset {offset}: corruption leaked a non-prefix state"
                );
            }
            // A flip that garbles frame *lengths* into overlapping-but-
            // checksummed nonsense surfaces as corruption — also safe.
            Err(StoreError::Corrupt(_)) | Err(StoreError::Codec(_)) => {}
            Err(e) => panic!("offset {offset}: unexpected error {e}"),
        }
    }
    fs::remove_dir_all(&base).unwrap();
    fs::remove_dir_all(&work).unwrap();
}
