//! Layer probes: each layer's public functions timed on fixed inputs, the
//! same in every traced run, so a layer's own cost can be read without a
//! workload around it. Every figure is the median of several batches.

use crate::catalogue::{bank, events as lab, SEARCH_MEMBERS};
use crate::server::Server;
use crate::stats::median;
use crate::{alloc, proc, Ctx, Report};
use std::hint::black_box;
use std::time::Instant;
use td_core::{Pred, Symbol, Value};
use td_db::{Database, Delta, DeltaOp, Relation, Tuple};
use td_engine::{load_init, Engine, EngineConfig};
use td_store::{codec, ConcurrentStore, Store};

const BATCHES: usize = 7;
/// Tuples in the probed relation and store.
const TUPLES: i64 = 10_000;

/// Median over `BATCHES` batches of the mean time of one `f()`, in
/// nanoseconds. `f` gets the iteration number.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for i in 0..iters {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

fn pair(k: i64, v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(v)])
}

fn parser(report: &mut Report) -> Result<(), String> {
    let labflow = SEARCH_MEMBERS[0].source;
    let n = 200;
    let ns = ns_per_call(n, |_| {
        black_box(td_parser::parse_program(black_box(labflow)).expect("frozen program parses"));
    });
    report.set("parser.parse_program_us", ns / 1e3, n * BATCHES as u64);
    let bank = td_parser::parse_program(bank::DISJOINT_SOURCE).map_err(|e| e.to_string())?;
    let n = 2_000;
    let ns = ns_per_call(n, |_| {
        black_box(
            td_parser::parse_goal(black_box("transfer0(17, 4242, 55)"), &bank.program)
                .expect("goal parses"),
        );
    });
    report.set("parser.parse_goal_us", ns / 1e3, n * BATCHES as u64);
    let ns = ns_per_call(n, |_| {
        black_box(td_parser::parse_event(black_box("result(1234, 1)")).expect("event parses"));
    });
    report.set("parser.parse_event_us", ns / 1e3, n * BATCHES as u64);
    Ok(())
}

fn db(report: &mut Report) -> Database {
    let mut rel = Relation::new(2);
    for k in 0..TUPLES {
        rel = rel.insert(&pair(k, k * 7)).0;
    }
    let n = 1_000u64;
    let samples = n * BATCHES as u64;
    let fresh: Vec<Tuple> = (0..n as i64).map(|i| pair(TUPLES + i, i)).collect();
    let present: Vec<Tuple> = (0..n as i64).map(|i| pair(i * 9, i * 63)).collect();
    let before = alloc::allocated_bytes();
    for t in &fresh {
        black_box(rel.insert(t));
    }
    report.set(
        "db.alloc_bytes_per_insert",
        (alloc::allocated_bytes() - before) as f64 / n as f64,
        n,
    );
    let ns = ns_per_call(n, |i| {
        black_box(rel.insert(&fresh[i as usize]));
    });
    report.set("db.insert_ns", ns, samples);
    let ns = ns_per_call(n, |i| {
        black_box(rel.remove(&present[i as usize]));
    });
    report.set("db.delete_ns", ns, samples);
    let ns = ns_per_call(n, |i| {
        black_box(rel.contains(&present[i as usize]));
    });
    report.set("db.contains_ns", ns, samples);
    let ns = ns_per_call(n, |i| {
        let t = present[i as usize].values();
        black_box(rel.select(&[Some(t[0]), Some(t[1])]));
    });
    report.set("db.select_point_ns", ns, samples);
    let ns = ns_per_call(n, |i| {
        black_box(rel.select(&[Some(present[i as usize].values()[0]), None]));
    });
    report.set("db.select_prefix_ns", ns, samples);
    let scans = 20;
    let ns = ns_per_call(scans, |_| {
        black_box(rel.select(&[None, None]));
    });
    report.set(
        "db.scan_ns_per_tuple",
        ns / TUPLES as f64,
        scans * BATCHES as u64,
    );

    let pred = Pred::new("acct", 2);
    let mut database = Database::new().declare(pred);
    for k in 0..TUPLES {
        database = database.insert(pred, &pair(k, k * 7)).expect("arity 2").0;
    }
    let n = 100_000;
    let ns = ns_per_call(n, |_| {
        black_box(black_box(&database).digest());
    });
    report.set("db.digest_ns", ns, n * BATCHES as u64);
    let ns = ns_per_call(n, |_| {
        black_box(black_box(&database).clone());
    });
    report.set("db.clone_ns", ns, n * BATCHES as u64);
    database
}

/// A transfer-shaped delta on account `k`: two balances rewritten.
fn transfer_delta(pred: Pred, db: &Database, k: i64) -> Delta {
    let balance = |key: i64| {
        let found = db
            .relation(pred)
            .map(|r| r.select(&[Some(Value::Int(key)), None]))
            .unwrap_or_default();
        match found.first().map(|t| t.values()[1]) {
            Some(Value::Int(v)) => v,
            _ => unreachable!("probe store holds every key"),
        }
    };
    let (a, b) = (k, k + 1);
    let (va, vb) = (balance(a), balance(b));
    let mut delta = Delta::new();
    delta.push(DeltaOp::Del(pred, pair(a, va)));
    delta.push(DeltaOp::Ins(pred, pair(a, va - 1)));
    delta.push(DeltaOp::Del(pred, pair(b, vb)));
    delta.push(DeltaOp::Ins(pred, pair(b, vb + 1)));
    delta
}

fn store(ctx: &Ctx, report: &mut Report, database: &Database) -> Result<(), String> {
    let dir = ctx.run_dir("probe-store")?;
    let err = |e: td_store::StoreError| e.to_string();
    let pred = Pred::new("acct", 2);
    let mut store = Store::open_or_init(&dir, database).map_err(err)?;

    let commits = 40u64;
    let mut k = 0;
    let mut failed = None;
    let ns = ns_per_call(commits, |_| {
        let delta = transfer_delta(pred, store.db(), k);
        k += 2;
        if let Err(e) = store.commit(&delta) {
            failed = Some(e.to_string());
        }
    });
    report.set("store.commit_us", ns / 1e3, commits * BATCHES as u64);
    let groups = 10u64;
    let ns = ns_per_call(groups, |_| {
        // Eight members on disjoint keys, so each applies to the state the
        // previous one left.
        let deltas: Vec<Delta> = (0..8)
            .map(|j| transfer_delta(pred, store.db(), k + 2 * j))
            .collect();
        k += 16;
        if let Err(e) = store.commit_group(&deltas) {
            failed = Some(e.to_string());
        }
    });
    report.set("store.commit_group8_us", ns / 1e3, groups * BATCHES as u64);
    if let Some(e) = failed {
        return Err(format!("probe commit failed: {e}"));
    }

    let delta = transfer_delta(pred, store.db(), 0);
    let n = 20_000;
    let ns = ns_per_call(n, |_| {
        let mut enc = codec::Enc::new();
        codec::put_delta(&mut enc, black_box(&delta));
        black_box(codec::frame(&enc.into_bytes()));
    });
    report.set("store.encode_ns_per_commit", ns, n * BATCHES as u64);

    // Reopen replays the WAL written above onto the 10 000-tuple snapshot.
    drop(store);
    let reopen: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let opened = Store::open(&dir);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            opened.map(|_| ms).map_err(err)
        })
        .collect::<Result<_, _>>()?;
    report.set("store.reopen_ms", median(&reopen), BATCHES as u64);
    let verify: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let verified = Store::verify(&dir);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            verified.map(|_| ms).map_err(err)
        })
        .collect::<Result<_, _>>()?;
    report.set("store.verify_ms", median(&verify), BATCHES as u64);

    let mut store = Store::open(&dir).map_err(err)?;
    let rotate: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let rotated = store.rotate_snapshot();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            rotated.map(|()| ms).map_err(err)
        })
        .collect::<Result<_, _>>()?;
    report.set("store.snapshot_write_ms", median(&rotate), BATCHES as u64);
    let tuples = store.db().total_tuples();
    report.set(
        "store.dir_bytes_per_tuple",
        proc::dir_bytes(&dir)? as f64 / tuples as f64,
        tuples as u64,
    );

    let shared = ConcurrentStore::new(store);
    let n = 100_000;
    let ns = ns_per_call(n, |_| {
        black_box(shared.snapshot());
    });
    report.set("store.snapshot_ns", ns, n * BATCHES as u64);
    shared.close().map_err(err)?;
    Ok(())
}

fn events(report: &mut Report) -> Result<(), String> {
    let parsed = td_parser::parse_program(lab::SOURCE).map_err(|e| e.to_string())?;
    let mut reactor = td_events::Reactor::new(&parsed.program, &parsed.triggers);
    let (sample, result) = (Symbol::intern("sample"), Symbol::intern("result"));
    // A pair every 2.5 ms of event time, as on the paced schedule: the
    // window keeps a steady 100 partial matches.
    let mut s = 0i64;
    let pairs = 2_000;
    let ns = ns_per_call(pairs, |_| {
        s += 1;
        let ts = (s * 5 / 2) as u64;
        black_box(reactor.ingest(sample, &[Value::Int(s)], ts));
        black_box(reactor.ingest(result, &[Value::Int(s), Value::Int(1)], ts + 1));
    });
    report.set("events.ingest_ns", ns / 2.0, 2 * pairs * BATCHES as u64);
    let st = reactor.stats();
    report.set(
        "events.matches_per_event",
        st.matched as f64 / st.ingested as f64,
        st.ingested,
    );
    Ok(())
}

fn generators(report: &mut Report) {
    let n = 200;
    let ns = ns_per_call(n, |_| {
        black_box(td_workflow::LabFlowConfig::new(8, 6).compile());
    });
    report.set("workflow.compile_us", ns / 1e3, n * BATCHES as u64);
    let ns = ns_per_call(n, |_| {
        let machine =
            td_machines::MinskyMachine::doubling().with_input(td_machines::Counter::C0, 2);
        black_box(machine.to_td());
    });
    report.set("machines.to_td_us", ns / 1e3, n * BATCHES as u64);
}

/// The refutation member on the parallel backend with two workers.
fn parallel(report: &mut Report) -> Result<(), String> {
    let m = SEARCH_MEMBERS
        .iter()
        .find(|m| m.name == "refute")
        .expect("catalogue has the refutation member");
    let parsed = td_parser::parse_program(m.source).map_err(|e| e.to_string())?;
    let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .map_err(|e| e.to_string())?;
    let engine = Engine::with_config(
        parsed.program.clone(),
        EngineConfig::default().with_threads(2),
    );
    let goal = &parsed.goals[0].goal;
    let n = 10;
    let mut wrong = false;
    let ns = ns_per_call(n, |_| {
        wrong |= engine.solve(goal, &db).map_or(true, |o| o.is_success());
    });
    report.check(!wrong, || {
        "parallel backend found the refutation goal executable".into()
    });
    report.set("engine.par2_solve_us.refute", ns / 1e3, n * BATCHES as u64);
    Ok(())
}

/// The released binary from the outside: a cold `td run`, and `td serve`
/// from spawn to first pong, then its round-trip time.
fn cli(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    ctx.require_td()?;
    let dir = ctx.run_dir("probe-cli")?;
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text)
            .map(|()| path.clone())
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let program = write("labflow.td", SEARCH_MEMBERS[0].source)?;
    let cold: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let out = std::process::Command::new(&ctx.td)
                .arg("run")
                .arg(&program)
                .output()
                .map_err(|e| format!("cannot run `{}`: {e}", ctx.td.display()))?;
            if !out.status.success() {
                return Err(format!(
                    "td run failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            Ok(started.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, String>>()?;
    report.set("cli.run_cold_ms", median(&cold), BATCHES as u64);

    let lab = write("lab.td", lab::SOURCE)?;
    let mut ready = Vec::new();
    for i in 0..3 {
        let store = dir.join(format!("store{i}"));
        std::fs::create_dir_all(&store).map_err(|e| e.to_string())?;
        let (server, took) = Server::spawn(&ctx.td, &lab, &store)?;
        ready.push(took.as_secs_f64() * 1e3);
        if i == 2 {
            let mut conn = server.connect()?;
            let n = 300;
            let mut lost = false;
            let ns = ns_per_call(n, |_| {
                lost |= conn.request("ping").map_or(true, |r| r != "ok pong");
            });
            report.check(!lost, || "a ping went unanswered".into());
            report.set("serve.ping_us", ns / 1e3, n * BATCHES as u64);
        }
        server.stop()?;
    }
    report.set("cli.serve_ready_ms", median(&ready), ready.len() as u64);
    Ok(())
}

/// Run every probe and add its metrics to `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    parser(report)?;
    let database = db(report);
    store(ctx, report, &database)?;
    events(report)?;
    generators(report);
    parallel(report)?;
    cli(ctx, report)
}
