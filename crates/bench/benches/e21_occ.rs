//! E21 — OCC contention: per-relation (read-set) vs whole-database
//! validation.
//!
//! Not a paper experiment: this quantifies PR 10 (docs/SERVE.md). The
//! PR-8 serve bench (E19) measured the group-commit path with validation
//! fixed; here validation is the variable. A closed-loop load generator
//! drives read-modify-write transactions through [`ConcurrentStore`]
//! under both [`Validation`] modes and two sharing shapes:
//!
//! * **disjoint** — client `c` reads and writes only its own `shard{c}`
//!   relation. Per-relation validation proves these commutative commits
//!   never conflict; whole-db validation makes every commit invalidate
//!   every in-flight snapshot.
//! * **overlapping** — every client read-modify-writes the single `hot`
//!   relation, so the conflicts are real and both modes must detect them.
//!
//! Each cell reports commits/sec, the retry count (extra attempts beyond
//! one per commit), and p50/p99 whole-transaction latency. The matching
//! CI gate is `tests/e21_smoke.rs`: zero retries and >= 1.5x throughput
//! for 8 disjoint clients under read-set validation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use td_bench::report_row;
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, ReadSet, Tuple};
use td_store::{ConcurrentStore, TxDecision, TxOptions, Validation};

const OPS_PER_CLIENT: usize = 80;
/// Pre-seeded tuples per relation: the per-transaction scans over these
/// are the read phase that keeps the snapshot-to-validation window open.
const SEED_ROWS: i64 = 512;
/// Scans per transaction — the stand-in for rule-body evaluation.
const SCANS: usize = 8;

fn shard(c: usize) -> Pred {
    Pred::new(&format!("shard{c}"), 2)
}

fn hot() -> Pred {
    Pred::new("hot", 2)
}

fn row(client: usize, n: i64) -> Tuple {
    Tuple::new(vec![Value::Int(client as i64), Value::Int(n)])
}

fn genesis(disjoint: bool, clients: usize) -> Database {
    let mut db = Database::new();
    let preds: Vec<Pred> = if disjoint {
        (0..clients).map(shard).collect()
    } else {
        vec![hot()]
    };
    for p in preds {
        db = db.declare(p);
        for n in 0..SEED_ROWS {
            db = db
                .insert(p, &Tuple::new(vec![Value::Int(-1), Value::Int(-n - 1)]))
                .unwrap()
                .0;
        }
    }
    db
}

/// The transaction's read phase: [`SCANS`] passes over the relation,
/// returning its current length. The yield between scans lets concurrent
/// clients' commits land under the open snapshot — on a single-CPU
/// runner the compute phases would otherwise serialize back-to-back and
/// no snapshot could ever be stale at validation, in either mode.
fn read_phase(snap: &Database, p: Pred) -> usize {
    let mut n = 0;
    for _ in 0..SCANS {
        n = std::hint::black_box(snap.relation(p).map_or(0, |r| r.to_vec().len()));
        std::thread::yield_now();
    }
    n
}

fn bench_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-bench-e21").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct LoadResult {
    wall: Duration,
    latencies_us: Vec<u64>,
    commits: u64,
    retries: u64,
}

/// Closed loop: `clients` threads of read-modify-write transactions.
fn drive(
    dir: &std::path::Path,
    clients: usize,
    disjoint: bool,
    validation: Validation,
) -> LoadResult {
    let cs = ConcurrentStore::open_or_init(dir, &genesis(disjoint, clients))
        .unwrap()
        .with_options(TxOptions {
            max_attempts: 10_000,
            backoff: Duration::from_micros(100),
            validation,
        });
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let cs = cs.clone();
            std::thread::spawn(move || {
                let p = if disjoint { shard(c) } else { hot() };
                let mut lat = Vec::with_capacity(OPS_PER_CLIENT);
                let mut attempts = 0u64;
                for _ in 0..OPS_PER_CLIENT {
                    let t0 = Instant::now();
                    let r = cs
                        .transaction(|snap| {
                            let n = read_phase(snap, p);
                            let mut d = Delta::new();
                            d.push(DeltaOp::Ins(p, row(c, n as i64)));
                            let mut reads = ReadSet::new();
                            reads.record(p);
                            Ok::<_, String>(TxDecision::commit(d, reads, ()))
                        })
                        .unwrap();
                    attempts += u64::from(r.attempts);
                    lat.push(t0.elapsed().as_micros() as u64);
                }
                (lat, attempts)
            })
        })
        .collect();
    let mut latencies_us = Vec::new();
    let mut attempts = 0u64;
    for w in workers {
        let (l, a) = w.join().unwrap();
        latencies_us.extend(l);
        attempts += a;
    }
    let wall = start.elapsed();
    let stats = cs.stats();
    drop(cs.close().unwrap());
    LoadResult {
        wall,
        latencies_us,
        commits: stats.commits,
        retries: attempts - stats.commits,
    }
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
        "E21",
        cell,
        &format!("{series}_commits_per_s"),
        cps,
        "commits/s",
    );
    report_row(
        "E21",
        cell,
        &format!("{series}_retries"),
        r.retries as f64,
        "retries",
    );
    report_row(
        "E21",
        cell,
        &format!("{series}_p50"),
        percentile(&lat, 0.50) as f64,
        "us",
    );
    report_row(
        "E21",
        cell,
        &format!("{series}_p99"),
        percentile(&lat, 0.99) as f64,
        "us",
    );
}

fn bench_occ_contention(c: &mut Criterion) {
    // The load matrix runs once per cell (each cell is already 80 × N
    // fsync-bound transactions); criterion benches one representative op.
    for (sharing, disjoint) in [("disjoint", true), ("overlapping", false)] {
        for clients in [2usize, 4, 8] {
            let cell = format!("clients={clients} sharing={sharing}");
            for (series, validation) in [
                ("read_set", Validation::ReadSet),
                ("whole_db", Validation::WholeDb),
            ] {
                let dir = bench_dir(&format!("{series}-{clients}-{sharing}"));
                let r = drive(&dir, clients, disjoint, validation);
                emit(&cell, series, &r);
            }
        }
    }

    // One criterion-timed op so the harness has a stable unit sample: a
    // single uncontended read-modify-write commit under each validation
    // mode (the delta between the two curves is the validation cost
    // itself, here dominated by the shared fsync).
    let mut group = c.benchmark_group("e21/commit");
    for (series, validation) in [
        ("read_set", Validation::ReadSet),
        ("whole_db", Validation::WholeDb),
    ] {
        let dir = bench_dir(&format!("unit-{series}"));
        let cs = ConcurrentStore::open_or_init(&dir, &genesis(true, 1))
            .unwrap()
            .with_options(TxOptions {
                validation,
                ..TxOptions::default()
            });
        group.bench_function(&format!("single_client_{series}"), |b| {
            b.iter(|| {
                cs.transaction(|snap| {
                    let p = shard(0);
                    let n = read_phase(snap, p);
                    let mut d = Delta::new();
                    d.push(DeltaOp::Ins(p, row(0, n as i64)));
                    let mut reads = ReadSet::new();
                    reads.record(p);
                    Ok::<_, String>(TxDecision::commit(d, reads, ()))
                })
                .unwrap()
            });
        });
        drop(cs.close().unwrap());
    }
    group.finish();
}

criterion_group!(benches, bench_occ_contention);
criterion_main!(benches);
