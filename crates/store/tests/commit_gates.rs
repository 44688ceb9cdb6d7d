//! Release-build load gates on the concurrent commit path (EXPERIMENTS.md
//! E19 and E21): eight closed-loop clients, commits per second of one
//! configuration against another on the identical workload.
//!
//! Both margins are structural. With eight clients enqueueing while the
//! leader fsyncs, the group path retires several commits per fsync, and
//! the fsync is what the commit path is bound by. With per-relation
//! validation, clients over disjoint relations never retry, while under
//! whole-database validation every commit moves the one digest everyone
//! compares against. A failure therefore means batching or validation
//! regressed — leadership hand-off serializing on the state lock, groups
//! of one, acks running ahead of durability, read sets widened to the
//! whole database — not noise. (That disjoint read sets retry exactly
//! zero times is pinned, in any build, by `occ_serializability.rs`.)
//!
//! Ignored in debug builds, where CPU time swamps the fsync being
//! amortized and the backoff being avoided: `cargo test --release`.
//!
//! Each gate measures a throughput ratio on the one log device, so the two
//! hold [`GATE`] and run one after the other whatever libtest's thread count.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, ReadSet, Tuple};
use td_store::{ConcurrentStats, ConcurrentStore, Store, TxDecision, TxOptions};

const CLIENTS: usize = 8;

/// Held by each gate for its whole run: two eight-client fsync-bound loads
/// side by side measure each other, not the commit path.
static GATE: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    // A gate that failed poisons the lock; the other still gets its run.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("td-store-commit-gates")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `op(client)` `ops` times on each of [`CLIENTS`] threads started
/// together; commits per second over the whole run.
fn commits_per_s(ops: usize, op: impl Fn(usize) + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let op = &op;
            scope.spawn(move || (0..ops).for_each(|_| op(client)));
        }
    });
    (CLIENTS * ops) as f64 / start.elapsed().as_secs_f64()
}

/// Drive `op` through a fresh [`ConcurrentStore`] on `genesis`; commits per
/// second and the store's counters, every commit accounted for and durable.
fn through_concurrent_store(
    name: &str,
    genesis: &Database,
    opts: TxOptions,
    ops: usize,
    op: impl Fn(&ConcurrentStore, usize) + Sync,
) -> (f64, ConcurrentStats) {
    let cs = ConcurrentStore::open_or_init(&temp_dir(name), genesis)
        .unwrap()
        .with_options(opts);
    let rate = commits_per_s(ops, |client| op(&cs, client));
    let stats = cs.stats();
    assert_eq!(stats.commits, (CLIENTS * ops) as u64);
    assert_eq!(cs.durable_records(), stats.commits);
    drop(cs.close().unwrap());
    (rate, stats)
}

/// Back-to-back pairs of runs per gate.
const ROUNDS: usize = 15;

/// Median, and the sorted whole, of [`ROUNDS`] ratios from `pair`, which
/// runs the two arms of a gate back to back and divides their rates.
///
/// Fsync latency on a shared runner drifts severalfold from one second to
/// the next, and two arms cannot run in the same second. Many short pairs
/// and their median keep the drift out of the verdict: a pair that
/// straddles a latency step lands in a tail.
fn median_ratio(mut pair: impl FnMut() -> f64) -> (f64, Vec<f64>) {
    let mut ratios: Vec<f64> = (0..ROUNDS).map(|_| pair()).collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[ROUNDS / 2], ratios)
}

// --- E19: group commit against one fsync per commit ----------------------

const ACCOUNTS: usize = 64;
/// Per client, per arm, in each round.
const TRANSFERS: usize = 40;

fn balance() -> Pred {
    Pred::new("balance", 2)
}

fn account(i: usize, bal: i64) -> Tuple {
    Tuple::new(vec![Value::sym(&format!("acct{i}")), Value::Int(bal)])
}

fn bank() -> Database {
    let mut db = Database::new().declare(balance());
    for i in 0..ACCOUNTS {
        db = db.insert(balance(), &account(i, 1_000_000)).unwrap().0;
    }
    db
}

fn balance_of(db: &Database, i: usize) -> i64 {
    let name = Value::sym(&format!("acct{i}"));
    let rows = db.relation(balance()).unwrap().select(&[Some(name), None]);
    rows[0].values()[1].as_int().unwrap()
}

/// Move 1 between the client's own pair of accounts: low contention.
fn transfer(db: &Database, client: usize) -> Delta {
    let (from, to) = (client * 2, client * 2 + 1);
    let (bf, bt) = (balance_of(db, from), balance_of(db, to));
    let mut d = Delta::new();
    d.push(DeltaOp::Del(balance(), account(from, bf)));
    d.push(DeltaOp::Ins(balance(), account(from, bf - 1)));
    d.push(DeltaOp::Del(balance(), account(to, bt)));
    d.push(DeltaOp::Ins(balance(), account(to, bt + 1)));
    d
}

#[test]
#[cfg_attr(debug_assertions, ignore = "load gate: run with --release")]
fn group_commit_doubles_per_commit_fsync_throughput() {
    let _alone = alone();
    let opts = TxOptions {
        max_attempts: 1_000,
        backoff: Duration::from_micros(10),
    };
    let (median, ratios) = median_ratio(|| {
        let (grouped, stats) =
            through_concurrent_store("group", &bank(), opts, TRANSFERS, |cs, client| {
                cs.transaction(|db| {
                    Ok::<_, String>(TxDecision::commit_whole_db(transfer(db, client), ()))
                })
                .unwrap();
            });
        assert!(
            stats.mean_group() > 1.0,
            "group commit must batch under {CLIENTS}-client load: {} records over {} fsyncs",
            stats.grouped_records,
            stats.groups
        );

        // The identical workload, mutex-serialized, one fsync per commit.
        let store = Mutex::new(Store::open_or_init(&temp_dir("single"), &bank()).unwrap());
        let single = commits_per_s(TRANSFERS, |client| {
            let mut s = store.lock().unwrap();
            let delta = transfer(s.db(), client);
            s.commit(&delta).unwrap();
        });
        grouped / single
    });
    assert!(
        median >= 2.0,
        "group commit must sustain >= 2x per-commit-fsync throughput at {CLIENTS} \
         low-contention clients: median of {ROUNDS} paired ratios {median:.2} of {ratios:.2?}"
    );
}

// --- E21: per-relation validation against whole-database validation ------

/// Per client, per arm, in each round.
const INSERTS: usize = 40;
/// Tuples pre-seeded per relation, and scans of them per transaction. The
/// read phase must be a meaningful fraction of the commit cycle or the
/// snapshot is never stale at validation and whole-db validation looks
/// free; real serve transactions evaluate a rule body here.
const SEED_ROWS: i64 = 512;
const SCANS: usize = 8;

/// The relation client `c` reads and writes: its own, or the one all share.
fn relation_of(client: usize, disjoint: bool) -> Pred {
    if disjoint {
        Pred::new(&format!("shard{client}"), 2)
    } else {
        Pred::new("hot", 2)
    }
}

fn seeded(disjoint: bool) -> Database {
    let relations = if disjoint { CLIENTS } else { 1 };
    let mut db = Database::new();
    for client in 0..relations {
        let p = relation_of(client, disjoint);
        db = db.declare(p);
        // Seed rows live below zero so they never collide with the
        // (client, n >= 0) rows the workload inserts.
        for n in 0..SEED_ROWS {
            let row = Tuple::new(vec![Value::Int(-1), Value::Int(-n - 1)]);
            db = db.insert(p, &row).unwrap().0;
        }
    }
    db
}

/// Closed-loop scan-then-insert on each client's relation, validated against
/// the relation it scanned or (`whole_db`) against the whole database;
/// commits per second and conflicts seen.
fn scan_and_insert(name: &str, disjoint: bool, whole_db: bool) -> (f64, u64) {
    let opts = TxOptions {
        max_attempts: 10_000,
        backoff: Duration::from_micros(100),
    };
    let (rate, stats) =
        through_concurrent_store(name, &seeded(disjoint), opts, INSERTS, |cs, client| {
            let p = relation_of(client, disjoint);
            cs.transaction(|snap| {
                // `black_box` keeps the scans from being folded into one;
                // the yield lets concurrent commits land under the open
                // snapshot — on a single-CPU runner the compute phases
                // would otherwise run back to back and no snapshot could
                // be stale at validation, under either read set.
                let mut n = 0;
                for _ in 0..SCANS {
                    n = std::hint::black_box(snap.relation(p).map_or(0, |r| r.to_vec().len()));
                    std::thread::yield_now();
                }
                let row = Tuple::new(vec![Value::Int(client as i64), Value::Int(n as i64)]);
                let mut d = Delta::new();
                d.push(DeltaOp::Ins(p, row));
                let mut reads = ReadSet::new();
                reads.record(p);
                if whole_db {
                    reads = ReadSet::whole_db();
                }
                Ok::<_, String>(TxDecision::commit(d, reads, ()))
            })
            .unwrap();
        });
    (rate, stats.conflicts)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "load gate: run with --release")]
fn read_set_validation_outruns_whole_db_on_disjoint_relations() {
    let _alone = alone();
    let (median, ratios) = median_ratio(|| {
        let (read_set, _) = scan_and_insert("disjoint-read-set", true, false);
        let (whole_db, _) = scan_and_insert("disjoint-whole-db", true, true);
        read_set / whole_db
    });
    assert!(
        median >= 1.5,
        "read-set validation must sustain >= 1.5x whole-db throughput on disjoint \
         relations: median of {ROUNDS} paired ratios {median:.2} of {ratios:.2?}"
    );

    // Where everyone really does touch the same relation, read-set
    // validation is not weaker than whole-db: both still conflict.
    for whole_db in [false, true] {
        let (_, conflicts) = scan_and_insert("overlapping", false, whole_db);
        assert!(
            conflicts > 0,
            "overlapping clients must conflict (whole-db read set: {whole_db})"
        );
    }
}
