//! E19 — serve commit throughput: OCC + group commit vs per-commit fsync.
//!
//! Not a paper experiment: this quantifies PR 8 (docs/SERVE.md). A
//! closed-loop load generator drives concurrent banking transfers through
//! the *library* surface the server sits on ([`ConcurrentStore`]), so the
//! numbers measure the commit path (snapshot, OCC validation, group
//! commit, fsync) without socket noise:
//!
//! * `clients × contention → commits/sec, p50/p99 latency` — the
//!   group-commit path, at 1/4/8 clients against a low-contention (64
//!   accounts) and a high-contention (2 accounts) ledger;
//! * the same workload through a mutex-serialized [`Store`] with one
//!   fsync per commit — the pre-serve baseline the PR-8 acceptance gate
//!   compares against (`tests/e19_smoke.rs`: group commit must sustain
//!   >= 2x at 8 low-contention clients);
//! * the achieved group-commit batching factor (records per fsync).
//!
//! Latencies are whole-transaction: snapshot to durable acknowledgement,
//! retries included.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use td_bench::report_row;
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, Tuple};
use td_store::{ConcurrentStore, Store, TxDecision, TxOptions};

const OPS_PER_CLIENT: usize = 150;

fn pred() -> Pred {
    Pred::new("balance", 2)
}

fn row(i: usize, bal: i64) -> Tuple {
    Tuple::new(vec![Value::sym(&format!("acct{i}")), Value::Int(bal)])
}

fn genesis(accounts: usize) -> Database {
    let mut db = Database::new().declare(pred());
    for i in 0..accounts {
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
        .find_map(|t| {
            (t.values()[0] == name).then(|| match t.values()[1] {
                Value::Int(b) => b,
                _ => unreachable!(),
            })
        })
        .unwrap()
}

/// A transfer delta against a snapshot. Balances are huge, so transfers
/// never bounce: every transaction commits and the measured rate is a
/// commit rate.
fn transfer_delta(db: &Database, from: usize, to: usize) -> Delta {
    let (bf, bt) = (balance_of(db, from), balance_of(db, to));
    let mut d = Delta::new();
    d.push(DeltaOp::Del(pred(), row(from, bf)));
    d.push(DeltaOp::Ins(pred(), row(from, bf - 1)));
    d.push(DeltaOp::Del(pred(), row(to, bt)));
    d.push(DeltaOp::Ins(pred(), row(to, bt + 1)));
    d
}

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-bench-e19").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic per-client account pair for op `k`: disjoint pairs under
/// low contention, everyone on the same pair under high contention.
fn pair(accounts: usize, client: usize, k: usize) -> (usize, usize) {
    if accounts <= 2 {
        (0, 1)
    } else {
        let from = (client * 2) % accounts;
        let to = (from + 1 + (k % (accounts - 2))) % accounts;
        if to == from {
            (from, (from + 1) % accounts)
        } else {
            (from, to)
        }
    }
}

struct LoadResult {
    wall: Duration,
    latencies_us: Vec<u64>,
    commits: u64,
    groups: u64,
    grouped_records: u64,
}

/// Closed loop through the group-commit path.
fn drive_concurrent(dir: &std::path::Path, clients: usize, accounts: usize) -> LoadResult {
    let cs = ConcurrentStore::open_or_init(dir, &genesis(accounts))
        .unwrap()
        .with_options(TxOptions {
            max_attempts: 1_000,
            backoff: Duration::from_micros(10),
            ..TxOptions::default()
        });
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let cs = cs.clone();
            std::thread::spawn(move || {
                let mut lat = Vec::with_capacity(OPS_PER_CLIENT);
                for k in 0..OPS_PER_CLIENT {
                    let (from, to) = pair(accounts, c, k);
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
    let mut latencies_us = Vec::new();
    for w in workers {
        latencies_us.extend(w.join().unwrap());
    }
    let wall = start.elapsed();
    let stats = cs.stats();
    drop(cs.close().unwrap());
    LoadResult {
        wall,
        latencies_us,
        commits: stats.commits,
        groups: stats.groups,
        grouped_records: stats.grouped_records,
    }
}

/// The same workload through a mutex-serialized store: one fsync per
/// commit, no batching — the pre-serve baseline.
fn drive_per_commit_fsync(dir: &std::path::Path, clients: usize, accounts: usize) -> LoadResult {
    let store = Mutex::new(Store::open_or_init(dir, &genesis(accounts)).unwrap());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let store = &store;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(OPS_PER_CLIENT);
                    for k in 0..OPS_PER_CLIENT {
                        let (from, to) = pair(accounts, c, k);
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
        let mut latencies_us = Vec::new();
        for w in workers {
            latencies_us.extend(w.join().unwrap());
        }
        let wall = start.elapsed();
        let commits = (clients * OPS_PER_CLIENT) as u64;
        LoadResult {
            wall,
            latencies_us,
            commits,
            groups: commits, // one fsync'd frame per commit, by construction
            grouped_records: commits,
        }
    })
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn emit(cell: &str, series: &str, r: &LoadResult) {
    let mut lat = r.latencies_us.clone();
    lat.sort_unstable();
    let cps = r.commits as f64 / r.wall.as_secs_f64();
    report_row(
        "E19",
        cell,
        &format!("{series}_commits_per_s"),
        cps,
        "commits/s",
    );
    report_row(
        "E19",
        cell,
        &format!("{series}_p50"),
        percentile(&lat, 0.50) as f64,
        "us",
    );
    report_row(
        "E19",
        cell,
        &format!("{series}_p99"),
        percentile(&lat, 0.99) as f64,
        "us",
    );
    report_row(
        "E19",
        cell,
        &format!("{series}_records_per_fsync"),
        r.grouped_records as f64 / r.groups.max(1) as f64,
        "records",
    );
}

fn bench_serve_load(c: &mut Criterion) {
    // The load matrix runs once per cell (each cell is already 150 × N
    // fsync-bound transactions); criterion benches one representative op.
    for (contention, accounts) in [("low", 64usize), ("high", 2usize)] {
        for clients in [1usize, 4, 8] {
            let cell = format!("clients={clients} contention={contention}");
            let dir = bench_dir(&format!("group-{clients}-{contention}"));
            let r = drive_concurrent(&dir, clients, accounts);
            emit(&cell, "group_commit", &r);
            let dir = bench_dir(&format!("single-{clients}-{contention}"));
            let r = drive_per_commit_fsync(&dir, clients, accounts);
            emit(&cell, "per_commit_fsync", &r);
        }
    }

    // One criterion-timed op so the harness has a stable unit sample: a
    // single committed transaction on an otherwise idle store.
    let dir = bench_dir("unit");
    let cs = ConcurrentStore::open_or_init(&dir, &genesis(4)).unwrap();
    let mut group = c.benchmark_group("e19/commit");
    group.bench_function("single_client_durable_commit", |b| {
        b.iter(|| {
            cs.transaction(|db| {
                Ok::<_, String>(TxDecision::commit_whole_db(transfer_delta(db, 0, 1), ()))
            })
            .unwrap()
        });
    });
    group.finish();
    drop(cs.close().unwrap());
}

criterion_group!(benches, bench_serve_load);
criterion_main!(benches);
