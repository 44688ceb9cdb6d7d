//! OCC serializability differential: N concurrent conflicting clients
//! against one [`ConcurrentStore`] must produce a final state reachable by
//! *some* sequential order of the committed transactions — whether each
//! transaction validates against the relations it really read or against
//! the whole-database read set ([`ReadSet::whole_db`], the oracle: any
//! commit since the snapshot conflicts).
//!
//! The differential is direct: every commit's WAL seq is its claimed
//! serialization position, so we replay the committed operations in seq
//! order through a sequential model (a plain map of balances, no store, no
//! threads) and require (1) every committed transfer was valid *at its
//! position in that order* — the funds it withdrew were really there —
//! and (2) the model's final state equals the store's, digest included,
//! after a cold recovery. Under OCC churn (every client hits the same few
//! accounts) any lost update, write skew, or torn validation shows up as
//! either an overdraft in the replay or a diverging final state.
//!
//! Two further suites pin what the read-set refactor changed:
//! clients over **disjoint** relations commit with zero conflict retries
//! (the point of per-relation validation), and a commuting workload runs
//! to the **same final digest** under either read set.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, ReadSet, Tuple};
use td_store::{ConcurrentStore, Store, TxDecision, TxOptions};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-store-occ").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const BALANCE: &str = "balance";
const OPENING: i64 = 100;

fn pred() -> Pred {
    Pred::new(BALANCE, 2)
}

fn acct(i: usize) -> Value {
    Value::sym(&format!("acct{i}"))
}

fn row(i: usize, bal: i64) -> Tuple {
    Tuple::new(vec![acct(i), Value::Int(bal)])
}

fn genesis(accounts: usize) -> Database {
    let mut db = Database::new().declare(pred());
    for i in 0..accounts {
        db = db.insert(pred(), &row(i, OPENING)).unwrap().0;
    }
    db
}

/// Read one balance out of a snapshot.
fn balance_of(db: &Database, i: usize) -> i64 {
    let rel = db.relation(pred()).expect("declared");
    let name = acct(i);
    rel.to_vec()
        .iter()
        .find_map(|t| {
            let v = t.values();
            if v[0] == name {
                match v[1] {
                    Value::Int(b) => Some(b),
                    _ => None,
                }
            } else {
                None
            }
        })
        .expect("every account has exactly one balance row")
}

/// The transfer delta a banking client produces against its snapshot.
fn transfer_delta(db: &Database, from: usize, to: usize, amt: i64) -> Option<Delta> {
    let bf = balance_of(db, from);
    if bf < amt {
        return None;
    }
    let bt = balance_of(db, to);
    let mut d = Delta::new();
    d.push(DeltaOp::Del(pred(), row(from, bf)));
    d.push(DeltaOp::Ins(pred(), row(from, bf - amt)));
    d.push(DeltaOp::Del(pred(), row(to, bt)));
    d.push(DeltaOp::Ins(pred(), row(to, bt + amt)));
    Some(d)
}

/// The read set of [`transfer_delta`]: it consults only the balance
/// relation (both the overdraft test and the two current-balance reads).
fn transfer_reads() -> ReadSet {
    let mut rs = ReadSet::new();
    rs.record(pred());
    rs
}

/// One client's scripted operation.
#[derive(Clone, Copy, Debug)]
struct Op {
    from: usize,
    to: usize,
    amt: i64,
}

fn arb_ops(accounts: usize) -> impl Strategy<Value = Vec<Vec<Op>>> {
    // 2–4 clients × 1–6 ops over few accounts: heavy deliberate conflict.
    proptest::collection::vec(
        proptest::collection::vec(
            (0..accounts, 0..accounts, 1i64..60).prop_map(|(from, to, amt)| Op { from, to, amt }),
            1..7,
        ),
        2..5,
    )
}

/// What a transfer declares it read, by name.
type ReadRule = (&'static str, fn() -> ReadSet);

/// The relation a transfer did read, and the whole-database read set the
/// differential holds it against.
const READ_SETS: [ReadRule; 2] = [
    ("read-set", transfer_reads),
    ("whole-db", ReadSet::whole_db),
];

/// Run the scripted clients concurrently, every transfer validated against
/// `reads()`, then check the WAL-order serializability differential
/// end-to-end (dense seqs, no overdraft in replay, conservation,
/// cold-recovery digest equality). Panics on any violation; returns the
/// recovered final digest.
fn run_and_check_banking(
    ops: &[Vec<Op>],
    dir: &std::path::Path,
    (validation, reads): ReadRule,
) -> u128 {
    let accounts = 3;
    let cs = ConcurrentStore::open_or_init(dir, &genesis(accounts))
        .unwrap()
        .with_options(TxOptions {
            max_attempts: 200,
            backoff: std::time::Duration::from_micros(10),
        });
    // Run every client concurrently; collect (seq, op) for commits.
    let workers: Vec<_> = ops
        .iter()
        .cloned()
        .map(|script| {
            let cs = cs.clone();
            std::thread::spawn(move || {
                let mut committed = Vec::new();
                for op in script {
                    let r = cs
                        .transaction(|db| {
                            if op.from == op.to {
                                return Ok::<_, String>(TxDecision::Abort(()));
                            }
                            match transfer_delta(db, op.from, op.to, op.amt) {
                                Some(d) => Ok(TxDecision::commit(d, reads(), ())),
                                None => Ok(TxDecision::Abort(())),
                            }
                        })
                        .expect("transaction never errors under a 200-retry budget");
                    if let Some(seq) = r.seq {
                        committed.push((seq, op));
                    }
                }
                committed
            })
        })
        .collect();
    let mut committed: Vec<(u64, Op)> = Vec::new();
    for w in workers {
        committed.extend(w.join().unwrap());
    }
    committed.sort_by_key(|(seq, _)| *seq);
    // Seqs are the claimed serial order: dense and unique from 0 (the
    // opening balances live in the snapshot, not the WAL).
    for (i, (seq, _)) in committed.iter().enumerate() {
        assert_eq!(*seq, i as u64, "commit seqs must be dense");
    }
    // Differential replay: the committed ops, in WAL order, through a
    // sequential model. Every op must be valid at its position.
    let mut model: BTreeMap<usize, i64> = (0..accounts).map(|i| (i, OPENING)).collect();
    for (seq, op) in &committed {
        let bf = model[&op.from];
        assert!(
            bf >= op.amt,
            "seq {seq}: committed transfer of {} from acct{} holding {bf} — \
             not serializable in WAL order [{validation}]",
            op.amt,
            op.from
        );
        *model.get_mut(&op.from).unwrap() -= op.amt;
        *model.get_mut(&op.to).unwrap() += op.amt;
    }
    // Conservation, then exact state equality against a cold recovery.
    assert_eq!(model.values().sum::<i64>(), accounts as i64 * OPENING);
    let head_digest = cs.snapshot().digest();
    let store = cs.close().unwrap();
    drop(store);
    let recovered = Store::open(dir).unwrap();
    assert_eq!(recovered.db().digest(), head_digest);
    let mut expected = Database::new().declare(pred());
    for (i, bal) in &model {
        expected = expected.insert(pred(), &row(*i, *bal)).unwrap().0;
    }
    assert_eq!(
        recovered.db().digest(),
        expected.digest(),
        "recovered state diverges from the sequential replay [{validation}]"
    );
    drop(recovered);
    head_digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full differential, under both read sets: the contended banking
    /// history serializes to its WAL order whether validation is
    /// per-relation (every client reads `balance`, so this exercises real
    /// read-set conflicts) or whole-database.
    #[test]
    fn concurrent_clients_serialize_to_their_wal_order(
        ops in arb_ops(3),
        case in 0u64..1_000_000,
    ) {
        for rule in READ_SETS {
            let dir = temp_dir(&format!(
                "case_{case}_{}_{}",
                rule.0,
                std::process::id()
            ));
            run_and_check_banking(&ops, &dir, rule);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Clients over **disjoint** relations: with per-relation validation their
/// commits cannot invalidate each other, so every transaction lands on its
/// first attempt — zero conflicts, zero retries. (Under the whole-db
/// read set this same workload conflicts constantly; `commit_gates.rs`
/// gates that gap, this test pins the zero.)
#[test]
fn disjoint_relation_clients_commit_without_retries() {
    let clients = 4;
    let per = 25;
    let dir = temp_dir(&format!("disjoint_{}", std::process::id()));
    let mut db = Database::new();
    for c in 0..clients {
        db = db.declare(Pred::new(&format!("rel{c}"), 1));
    }
    let cs = ConcurrentStore::open_or_init(&dir, &db).unwrap();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let cs = cs.clone();
            std::thread::spawn(move || {
                let p = Pred::new(&format!("rel{c}"), 1);
                for i in 0..per {
                    let r = cs
                        .transaction(|snap| {
                            // Read-modify-write confined to this client's
                            // own relation.
                            let n = snap.relation(p).map_or(0, |r| r.len()) as i64;
                            let mut d = Delta::new();
                            d.push(DeltaOp::Ins(p, Tuple::new(vec![Value::Int(n)])));
                            let mut reads = ReadSet::new();
                            reads.record(p);
                            Ok::<_, String>(TxDecision::commit(d, reads, ()))
                        })
                        .expect("no retry budget needed");
                    assert_eq!(r.attempts, 1, "client {c} op {i} was forced to retry");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = cs.stats();
    assert_eq!(stats.conflicts, 0, "disjoint relations cannot conflict");
    assert_eq!(stats.commits, (clients * per) as u64);
    assert!(cs.conflict_attribution().is_empty());
    let store = cs.close().unwrap();
    assert_eq!(store.db().total_tuples(), clients * per);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Differential between the two read sets on a commuting workload:
/// transfers small enough that no interleaving can overdraw always commit,
/// and their effects commute (each is a ±amt on two accounts' running
/// balances), so the final database is schedule-independent — read-set and
/// whole-db validation must reach the identical digest.
#[test]
fn read_set_and_whole_db_validation_agree_on_commuting_history() {
    // 3 clients × 10 ops, amt 1, opening 100: max drain per account is 30.
    let ops: Vec<Vec<Op>> = (0..3)
        .map(|c| {
            (0..10)
                .map(|i| Op {
                    from: (c + i) % 3,
                    to: (c + i + 1) % 3,
                    amt: 1,
                })
                .collect()
        })
        .collect();
    let mut digests = Vec::new();
    for rule in READ_SETS {
        let dir = temp_dir(&format!("differential_{}_{}", rule.0, std::process::id()));
        digests.push(run_and_check_banking(&ops, &dir, rule));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(
        digests[0], digests[1],
        "the two read sets disagree on a schedule-independent history"
    );
}
