//! CI smoke + performance gate for the serve commit path (experiment E19).
//!
//! The PR-8 acceptance gate: at 8 concurrent low-contention clients, OCC +
//! group commit ([`ConcurrentStore`]) must sustain at least 2x the
//! commits/sec of the pre-serve baseline — the same workload pushed through
//! a mutex-serialized [`Store`] with one fsync per commit. The margin is
//! structural, not noise: with 8 clients enqueueing while the leader
//! fsyncs, the group path retires several commits per fsync, and the fsync
//! is what the commit path is bound by (E16). A failure here means the
//! batching regressed — leadership hand-off serializing on the state lock,
//! groups of one, or acks running ahead of durability.
//!
//! The measured cells are also written to `BENCH_PR8.json` at the repo
//! root (workspace target dir's parent) for the CI artifact upload.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, Tuple};
use td_store::{ConcurrentStore, Store, TxDecision, TxOptions};

const CLIENTS: usize = 8;
const ACCOUNTS: usize = 64; // low contention: disjoint hot pairs per client
const OPS_PER_CLIENT: usize = 150;

fn pred() -> Pred {
    Pred::new("balance", 2)
}

fn row(i: usize, bal: i64) -> Tuple {
    Tuple::new(vec![Value::sym(&format!("acct{i}")), Value::Int(bal)])
}

fn genesis() -> Database {
    let mut db = Database::new().declare(pred());
    for i in 0..ACCOUNTS {
        db = db.insert(pred(), &row(i, 1_000_000)).unwrap().0;
    }
    db
}

fn balance_of(db: &Database, i: usize) -> i64 {
    let name = Value::sym(&format!("acct{i}"));
    db.relation(pred())
        .unwrap()
        .to_vec()
        .iter()
        .find_map(|t| match t.values() {
            [n, Value::Int(b)] if *n == name => Some(*b),
            _ => None,
        })
        .unwrap()
}

fn transfer_delta(db: &Database, from: usize, to: usize) -> Delta {
    let (bf, bt) = (balance_of(db, from), balance_of(db, to));
    let mut d = Delta::new();
    d.push(DeltaOp::Del(pred(), row(from, bf)));
    d.push(DeltaOp::Ins(pred(), row(from, bf - 1)));
    d.push(DeltaOp::Del(pred(), row(to, bt)));
    d.push(DeltaOp::Ins(pred(), row(to, bt + 1)));
    d
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-bench-e19-smoke").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Client `c`'s disjoint low-contention account pair.
fn pair(c: usize) -> (usize, usize) {
    ((c * 2) % ACCOUNTS, (c * 2 + 1) % ACCOUNTS)
}

struct Measured {
    commits_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    fsyncs: u64,
    mean_group: f64,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn measured(wall: Duration, mut lat_us: Vec<u64>, fsyncs: u64, records: u64) -> Measured {
    lat_us.sort_unstable();
    Measured {
        commits_per_s: records as f64 / wall.as_secs_f64(),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        fsyncs,
        mean_group: records as f64 / fsyncs.max(1) as f64,
    }
}

/// 8 clients through the OCC + group-commit path.
fn run_group_commit(dir: &std::path::Path) -> Measured {
    let cs = ConcurrentStore::open_or_init(dir, &genesis())
        .unwrap()
        .with_options(TxOptions {
            max_attempts: 1_000,
            backoff: Duration::from_micros(10),
            ..TxOptions::default()
        });
    let start = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let cs = cs.clone();
            std::thread::spawn(move || {
                let (from, to) = pair(c);
                let mut lat = Vec::with_capacity(OPS_PER_CLIENT);
                for _ in 0..OPS_PER_CLIENT {
                    let t0 = Instant::now();
                    cs.transaction(|db| {
                        Ok::<_, String>(TxDecision::commit_whole_db(
                            transfer_delta(db, from, to),
                            (),
                        ))
                    })
                    .unwrap();
                    lat.push(t0.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for w in workers {
        lat.extend(w.join().unwrap());
    }
    let wall = start.elapsed();
    let stats = cs.stats();
    assert_eq!(stats.commits, (CLIENTS * OPS_PER_CLIENT) as u64);
    assert!(
        stats.groups < stats.commits,
        "group commit must actually batch under 8-client load: \
         {} commits took {} fsyncs (mean group {:.2})",
        stats.commits,
        stats.groups,
        stats.mean_group()
    );
    drop(cs.close().unwrap());
    measured(wall, lat, stats.groups, stats.commits)
}

/// The identical workload, serialized, one fsync per commit.
fn run_per_commit_fsync(dir: &std::path::Path) -> Measured {
    let store = Mutex::new(Store::open_or_init(dir, &genesis()).unwrap());
    let start = Instant::now();
    let lat = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let store = &store;
                scope.spawn(move || {
                    let (from, to) = pair(c);
                    let mut lat = Vec::with_capacity(OPS_PER_CLIENT);
                    for _ in 0..OPS_PER_CLIENT {
                        let t0 = Instant::now();
                        let mut s = store.lock().unwrap();
                        let delta = transfer_delta(s.db(), from, to);
                        s.commit(&delta).unwrap();
                        drop(s);
                        lat.push(t0.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        let mut lat = Vec::new();
        for w in workers {
            lat.extend(w.join().unwrap());
        }
        lat
    });
    let wall = start.elapsed();
    let commits = (CLIENTS * OPS_PER_CLIENT) as u64;
    measured(wall, lat, commits, commits)
}

fn cell_json(m: &Measured) -> String {
    format!(
        "{{\"commits_per_s\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
         \"fsyncs\": {}, \"mean_group\": {:.2}}}",
        m.commits_per_s, m.p50_us, m.p99_us, m.fsyncs, m.mean_group
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: debug-build CPU swamps the fsync being amortized; \
              run with --release (CI serve_smoke job)"
)]
fn group_commit_doubles_per_commit_fsync_throughput() {
    let group = run_group_commit(&temp_dir("group"));
    let single = run_per_commit_fsync(&temp_dir("single"));
    let speedup = group.commits_per_s / single.commits_per_s;

    // BENCH_PR8.json: the numbers behind the gate, uploaded by CI.
    let report = format!(
        "{{\n  \"experiment\": \"e19_serve\",\n  \"clients\": {CLIENTS},\n  \
         \"contention\": \"low\",\n  \"ops_per_client\": {OPS_PER_CLIENT},\n  \
         \"group_commit\": {},\n  \"per_commit_fsync\": {},\n  \
         \"speedup\": {speedup:.2}\n}}\n",
        cell_json(&group),
        cell_json(&single)
    );
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR8.json");
    std::fs::write(&out, &report).unwrap();
    eprintln!("{report}");

    assert!(
        group.commits_per_s >= 2.0 * single.commits_per_s,
        "group commit must sustain >= 2x per-commit-fsync throughput at \
         {CLIENTS} low-contention clients: grouped {:.0} commits/s \
         (mean group {:.2}) vs per-commit {:.0} commits/s",
        group.commits_per_s,
        group.mean_group,
        single.commits_per_s
    );
}
