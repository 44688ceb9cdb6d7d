//! CI smoke + performance gate for per-relation OCC validation (E21).
//!
//! The PR-10 acceptance gate: 8 concurrent clients whose transactions
//! read and write **disjoint relations** must, under the default
//! per-relation (read-set) validation, commit with **zero** conflict
//! retries — their read sets never intersect another client's write set,
//! so no commit can invalidate another — and must sustain at least 1.5x
//! the commits/sec of the same workload under the whole-database
//! validation fallback, where every commit bumps the one digest everyone
//! compares against and the clients burn their time in retry loops and
//! backoff sleeps.
//!
//! Each transaction deliberately carries a real read phase (a scan of a
//! few hundred tuples) so the snapshot-to-validation window is wide
//! enough that whole-db validation visibly conflicts even when the OS
//! serializes the threads onto few cores.
//!
//! The measured cells are written to `BENCH_PR10.json` at the repo root
//! for the CI artifact upload.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, ReadSet, Tuple};
use td_store::{ConcurrentStore, TxDecision, TxOptions, Validation};

const CLIENTS: usize = 8;
const OPS_PER_CLIENT: usize = 80;
/// Tuples pre-seeded per relation: the per-transaction scans over these
/// are the read phase that opens the conflict window.
const SEED_ROWS: i64 = 512;
/// Scans per transaction. The read phase must be a meaningful fraction
/// of the commit cycle or the snapshot is never stale at validation and
/// whole-db validation looks free; real serve transactions evaluate a
/// rule body here.
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

/// Disjoint cell: every client owns `shard{c}`. Overlapping cell: all
/// clients read-modify-write the single `hot` relation.
fn genesis(disjoint: bool) -> Database {
    let mut db = Database::new();
    let preds: Vec<Pred> = if disjoint {
        (0..CLIENTS).map(shard).collect()
    } else {
        vec![hot()]
    };
    for p in preds {
        db = db.declare(p);
        // Seed rows live below zero so they never collide with the
        // (client, n >= 0) rows the workload inserts.
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
/// returning its current length. `black_box` keeps the scans from being
/// folded into one; the yield between scans lets concurrent clients'
/// commits land under the open snapshot — on a single-CPU runner the
/// compute phases would otherwise serialize back-to-back and no snapshot
/// could ever be stale at validation, in either mode.
fn read_phase(snap: &Database, p: Pred) -> usize {
    let mut n = 0;
    for _ in 0..SCANS {
        n = std::hint::black_box(snap.relation(p).map_or(0, |r| r.to_vec().len()));
        std::thread::yield_now();
    }
    n
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-bench-e21-smoke").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Measured {
    commits_per_s: f64,
    conflicts: u64,
    retries: u64,
    p50_us: u64,
    p99_us: u64,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Drive the closed-loop read-modify-write workload and measure it.
fn drive(dir: &std::path::Path, disjoint: bool, validation: Validation) -> Measured {
    let cs = ConcurrentStore::open_or_init(dir, &genesis(disjoint))
        .unwrap()
        .with_options(TxOptions {
            max_attempts: 10_000,
            backoff: Duration::from_micros(100),
            validation,
        });
    let start = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
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
                            // Read phase: repeated scans of the relation,
                            // so the snapshot stays live long enough for
                            // concurrent commits to land under it.
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
    let mut lat = Vec::new();
    let mut attempts = 0u64;
    for w in workers {
        let (l, a) = w.join().unwrap();
        lat.extend(l);
        attempts += a;
    }
    let wall = start.elapsed();
    let stats = cs.stats();
    assert_eq!(stats.commits, (CLIENTS * OPS_PER_CLIENT) as u64);
    drop(cs.close().unwrap());
    lat.sort_unstable();
    Measured {
        commits_per_s: stats.commits as f64 / wall.as_secs_f64(),
        conflicts: stats.conflicts,
        retries: attempts - stats.commits,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

fn cell_json(m: &Measured) -> String {
    format!(
        "{{\"commits_per_s\": {:.1}, \"conflicts\": {}, \"retries\": {}, \
         \"p50_us\": {}, \"p99_us\": {}}}",
        m.commits_per_s, m.conflicts, m.retries, m.p50_us, m.p99_us
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing gate: debug-build CPU noise swamps the retry/backoff cost \
              being measured; run with --release (CI serve_smoke job)"
)]
fn read_set_validation_removes_disjoint_relation_conflicts() {
    let dj_rs = drive(&temp_dir("disjoint-read-set"), true, Validation::ReadSet);
    let dj_db = drive(&temp_dir("disjoint-whole-db"), true, Validation::WholeDb);
    let ov_rs = drive(&temp_dir("overlap-read-set"), false, Validation::ReadSet);
    let ov_db = drive(&temp_dir("overlap-whole-db"), false, Validation::WholeDb);
    let speedup = dj_rs.commits_per_s / dj_db.commits_per_s;

    // BENCH_PR10.json: the numbers behind the gate, uploaded by CI.
    let report = format!(
        "{{\n  \"experiment\": \"e21_occ\",\n  \"clients\": {CLIENTS},\n  \
         \"ops_per_client\": {OPS_PER_CLIENT},\n  \"seed_rows\": {SEED_ROWS},\n  \
         \"disjoint\": {{\n    \"read_set\": {},\n    \"whole_db\": {}\n  }},\n  \
         \"overlapping\": {{\n    \"read_set\": {},\n    \"whole_db\": {}\n  }},\n  \
         \"disjoint_speedup\": {speedup:.2}\n}}\n",
        cell_json(&dj_rs),
        cell_json(&dj_db),
        cell_json(&ov_rs),
        cell_json(&ov_db)
    );
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR10.json");
    std::fs::write(&out, &report).unwrap();
    eprintln!("{report}");

    // Gate 1: disjoint read sets cannot conflict — exactly zero retries.
    // This is a structural property of per-relation validation, not a
    // timing margin.
    assert_eq!(
        dj_rs.conflicts, 0,
        "disjoint-relation clients conflicted under read-set validation"
    );
    assert_eq!(dj_rs.retries, 0, "every transaction must land first try");

    // Gate 2: removing those conflicts must be worth >= 1.5x throughput
    // against the whole-db fallback on the identical workload.
    assert!(
        speedup >= 1.5,
        "read-set validation must sustain >= 1.5x whole-db throughput on \
         disjoint relations: {:.0} vs {:.0} commits/s ({speedup:.2}x); \
         whole-db saw {} conflicts, read-set {}",
        dj_rs.commits_per_s,
        dj_db.commits_per_s,
        dj_db.conflicts,
        dj_rs.conflicts
    );

    // Sanity on the contended cell: when everyone really does touch the
    // same relation, read-set validation still detects the conflicts
    // (it is not weaker than whole-db where it matters).
    assert!(
        ov_rs.conflicts > 0,
        "overlapping clients must still conflict under read-set validation"
    );
    assert!(ov_db.conflicts > 0);
}
