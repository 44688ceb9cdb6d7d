//! `serve_disjoint` and `serve_hot`: banking requests against a live
//! `td serve`, two closed-loop connections.
//!
//! * `serve_disjoint` — client *c* touches only relation `acct<c>`; four
//!   requests in five are transfers, one is a balance read. No conflicts,
//!   so snapshot, validate, WAL encode, fsync and reply are nearly all of a
//!   request, and reads sit beside writes.
//! * `serve_hot` — both clients run four-hop chained transfers over one
//!   64-row relation: validation failures, retries and backoff dominate.
//!
//! Every reply is checked against the harness's own ledger, and the store
//! is checked after the run: balances, commit count, `td db verify`, and
//! the digest across a restart.

use crate::catalogue::{bank, CLIENTS, SERVE_HOT};
use crate::server::{self, field, reply_field, Aftermath, Server, Stats, Watch};
use crate::stats::{self, Rng, Sample};
use crate::trace::{ratio, Span, Tracer};
use crate::{probes, proc, record_trace, Ctx, Report};
use std::path::Path;
use std::time::{Duration, Instant};
use td_core::{Pred, Value};
use td_db::Database;
use td_engine::{load_init, Engine, EngineConfig, Outcome};
use td_parser::ParsedProgram;
use td_store::{ConcurrentStore, TxDecision, TxError};

/// One generated request, with what the ledger needs to follow it.
struct Request {
    /// The goal text; the server gets it behind `run `.
    goal: String,
    /// `(row, change)` the request applies if it commits.
    moves: Vec<(u64, i64)>,
    /// For a balance read: the row whose balance the reply must carry.
    reads: Option<u64>,
}

fn rows(hot: bool) -> u64 {
    if hot {
        bank::HOT_ROWS
    } else {
        bank::DISJOINT_ACCOUNTS
    }
}

fn next_request(hot: bool, client: usize, rng: &mut Rng) -> Request {
    let amount = 1 + rng.below(bank::MAX_AMOUNT) as i64;
    if hot {
        let mut stops: Vec<u64> = Vec::with_capacity(5);
        while stops.len() < 5 {
            let row = rng.below(bank::HOT_ROWS);
            if !stops.contains(&row) {
                stops.push(row);
            }
        }
        let args: Vec<String> = stops.iter().map(u64::to_string).collect();
        return Request {
            goal: format!("chain({}, {amount})", args.join(", ")),
            // Money leaves the first stop and arrives at the last; the
            // three in between pass it on.
            moves: vec![(stops[0], -amount), (stops[4], amount)],
            reads: None,
        };
    }
    if rng.below(bank::READ_ONE_IN) == 0 {
        let row = rng.below(bank::DISJOINT_ACCOUNTS);
        return Request {
            goal: format!("balance{client}({row}, B)"),
            moves: Vec::new(),
            reads: Some(row),
        };
    }
    let from = rng.below(bank::DISJOINT_ACCOUNTS);
    let mut to = rng.below(bank::DISJOINT_ACCOUNTS - 1);
    if to >= from {
        to += 1;
    }
    Request {
        goal: format!("transfer{client}({from}, {to}, {amount})"),
        moves: vec![(from, -amount), (to, amount)],
        reads: None,
    }
}

/// The program the server loads: the frozen rules plus the init facts.
fn program_text(hot: bool) -> String {
    let mut src = String::from(if hot {
        bank::HOT_SOURCE
    } else {
        bank::DISJOINT_SOURCE
    });
    let relations: Vec<String> = if hot {
        vec!["hot".into()]
    } else {
        (0..CLIENTS).map(|c| format!("acct{c}")).collect()
    };
    for rel in relations {
        for row in 0..rows(hot) {
            src.push_str(&format!("init {rel}({row}, {}).\n", bank::INITIAL_BALANCE));
        }
    }
    src
}

/// What one client saw. `net[row]` is the change its committed requests
/// made to each row of the relation it writes.
struct ClientLog {
    samples: Vec<(Duration, Sample, bool)>,
    net: Vec<i64>,
    committed: u64,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Requests sent again after `err conflict`.
    resent: u64,
}

/// Resends one client makes in a run before `err conflict` counts as a
/// failure; a handful happen per million requests.
const RESEND_LIMIT: u64 = 100;

impl ClientLog {
    fn new(hot: bool) -> ClientLog {
        ClientLog {
            samples: Vec::new(),
            net: vec![0; rows(hot) as usize],
            committed: 0,
            attempted: 0,
            failed: 0,
            first_failure: None,
            resent: 0,
        }
    }

    /// Book one finished request. `ok` says it succeeded; `balance` is the
    /// value a read returned.
    fn book(&mut self, hot: bool, req: &Request, ok: bool, balance: Option<i64>, what: &str) {
        self.attempted += 1;
        let mut right = ok;
        if let (true, Some(row)) = (ok, req.reads) {
            // Only this client writes the relation it reads, and it waits
            // for each reply, so the balance is known exactly.
            debug_assert!(!hot);
            right = balance == Some(bank::INITIAL_BALANCE + self.net[row as usize]);
        }
        if right {
            for &(row, change) in &req.moves {
                self.net[row as usize] += change;
            }
            self.committed += u64::from(!req.moves.is_empty());
        } else {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("{} -> {what}", req.goal));
        }
    }
}

/// Closed loop against the server until `until`; times are offsets from
/// `epoch`.
fn client_loop(
    hot: bool,
    client: usize,
    seed: u64,
    srv: &Server,
    epoch: Instant,
    until: Duration,
) -> Result<ClientLog, String> {
    let mut conn = srv.connect()?;
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64));
    let mut log = ClientLog::new(hot);
    while epoch.elapsed() < until {
        let req = next_request(hot, client, &mut rng);
        let line = format!("run {}", req.goal);
        let sent = epoch.elapsed();
        let mut reply = conn.request(&line);
        // `err conflict` says the server used up its retry budget and wrote
        // nothing; a client sends the request again. The op's latency
        // covers every send.
        while reply.as_ref().is_ok_and(|r| r.starts_with("err conflict"))
            && log.resent < RESEND_LIMIT
        {
            log.resent += 1;
            reply = conn.request(&line);
        }
        let done = epoch.elapsed();
        let (ok, balance, what) = match &reply {
            Ok(line) => (
                line.starts_with("ok "),
                reply_field(line, "B").and_then(|b| b.parse().ok()),
                line.as_str(),
            ),
            Err(_) => (false, None, "no reply within 10 s"),
        };
        log.book(hot, &req, ok, balance, what);
        log.samples.push((
            sent,
            Sample {
                done,
                latency_us: (done - sent).as_secs_f64() * 1e6,
                cpu_us: 0.0,
                position: 0,
            },
            req.reads.is_some(),
        ));
        if reply.is_err() {
            // The connection is out of step with its replies; stop here.
            break;
        }
    }
    Ok(log)
}

/// The measured part of a load run.
struct Load {
    logs: Vec<ClientLog>,
    /// Samples sent after the warm-up, `done` rebased to the window start.
    window: Vec<Sample>,
    reads: Vec<Sample>,
    window_len: Duration,
    watch: Watch,
}

fn drive_server(
    ctx: &Ctx,
    hot: bool,
    srv: &Server,
    warmup: Duration,
    window: Duration,
) -> Result<Load, String> {
    let epoch = Instant::now();
    let until = warmup + window;
    let (logs, watch) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stop = until + proc::LINGER;
                scope.spawn(move || client_loop(hot, c, ctx.seed, srv, epoch, stop))
            })
            .collect();
        let watch = server::watch(srv, epoch, warmup, window);
        let logs: Result<Vec<ClientLog>, String> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect();
        Ok::<_, String>((logs?, watch?))
    })?;
    let mut win = Vec::new();
    let mut reads = Vec::new();
    for log in &logs {
        for &(sent, sample, is_read) in &log.samples {
            if sent >= warmup && sample.done <= until {
                let s = Sample {
                    done: sample.done - warmup,
                    ..sample
                };
                win.push(s);
                if is_read {
                    reads.push(s);
                }
            }
        }
    }
    Ok(Load {
        logs,
        window: win,
        reads,
        window_len: window,
        watch,
    })
}

/// Total and per-row balances of `relation` in a stopped store.
fn balances(db: &Database, relation: &str, hot: bool) -> Vec<i64> {
    let mut out = vec![i64::MIN; rows(hot) as usize];
    if let Some(rel) = db.relation(Pred::new(relation, 2)) {
        rel.for_each(|t| {
            if let [Value::Int(row), Value::Int(balance)] = *t.values() {
                if let Some(slot) = out.get_mut(row as usize) {
                    *slot = balance;
                }
            }
        });
    }
    out
}

/// Everything checked once the clients are done: counters, the stopped
/// store against the ledgers, `td db verify`, and a restart.
fn check_and_stop(
    ctx: &Ctx,
    hot: bool,
    srv: Server,
    dir: &Path,
    bytes_before: u64,
    load: &Load,
    report: &mut Report,
) -> Result<(Stats, Aftermath), String> {
    let stats = srv.stats()?;
    let committed: u64 = load.logs.iter().map(|l| l.committed).sum();
    report.check(field(&stats, "commits") == committed as f64, || {
        format!(
            "server counts {} commits, clients saw {committed} committed replies",
            stats["commits"]
        )
    });
    if !hot {
        report.check(field(&stats, "conflicts") == 0.0, || {
            format!(
                "{} conflicts between clients on disjoint relations",
                stats["conflicts"]
            )
        });
    }
    let inspect = |db: &Database, report: &mut Report| {
        let relations = if hot { 1 } else { CLIENTS };
        for (c, log) in load.logs.iter().enumerate().take(relations) {
            let relation = if hot {
                "hot".to_owned()
            } else {
                format!("acct{c}")
            };
            // On the hot relation the clients' changes add up; transfers
            // commute, so the sum is exact whatever order they committed in.
            let expect: Vec<i64> = (0..rows(hot) as usize)
                .map(|row| {
                    let net: i64 = if hot {
                        load.logs.iter().map(|l| l.net[row]).sum()
                    } else {
                        log.net[row]
                    };
                    bank::INITIAL_BALANCE + net
                })
                .collect();
            let got = balances(db, &relation, hot);
            report.check(got == expect, || {
                format!("{relation}: balances differ from the ledger")
            });
            report.check(
                got.iter().sum::<i64>() == bank::INITIAL_BALANCE * rows(hot) as i64,
                || format!("{relation}: total balance not conserved"),
            );
        }
    };
    let after = server::stop_verify_restart(
        &ctx.td,
        srv,
        &dir.join("program.td"),
        &dir.join("store"),
        bytes_before,
        report,
        inspect,
    )?;
    Ok((stats, after))
}

fn book_failures(load: &Load, report: &mut Report) {
    report.attempted += load.logs.iter().map(|l| l.attempted).sum::<u64>();
    report.failed += load.logs.iter().map(|l| l.failed).sum::<u64>();
    if let Some(f) = load.logs.iter().find_map(|l| l.first_failure.clone()) {
        report.notes.push(format!("first failed request: {f}"));
    }
    let resent: u64 = load.logs.iter().map(|l| l.resent).sum();
    if resent > 0 {
        report
            .notes
            .push(format!("{resent} requests sent again after `err conflict`"));
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    ctx.require_td()?;
    let hot = ctx.workload.name == SERVE_HOT;
    let mut report = Report::default();
    let (srv, dir, setups) = server::set_up(ctx, &program_text(hot))?;
    let bytes_before = proc::dir_bytes(&dir.join("store"))?;
    if ctx.trace {
        return traced(ctx, hot, report, srv, &dir, bytes_before);
    }
    let load = drive_server(ctx, hot, &srv, ctx.warmup(), ctx.window())?;
    let rss = proc::rss_mib(srv.pid())?;
    book_failures(&load, &mut report);
    let (stats, _) = check_and_stop(ctx, hot, srv, &dir, bytes_before, &load, &mut report)?;
    report.notes.push(server::commit_note(&stats));
    report.notes.push(server::latency_note(&load.window));
    let timings = server::window_timings(&load.window, load.window_len, &load.watch);
    report.set_end_to_end(&setups, &timings, load.window.len() as u64, rss);
    Ok(report)
}

// ---------------------------------------------------------------------
// Traced run: the request chain `td serve` composes, in process
// ---------------------------------------------------------------------

#[derive(Default)]
struct ChainPhase {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    failed: u64,
    attempted: u64,
    /// Requests that used up their retry budget. In process, with no socket
    /// between retries, the two clients collide harder than through the
    /// server; such a request is counted here, not as a failed op.
    gave_up: u64,
}

impl ChainPhase {
    fn absorb(&mut self, other: ChainPhase) {
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
        self.failed += other.failed;
        self.attempted += other.attempted;
        self.gave_up += other.gave_up;
    }

    fn mean_us(&self) -> f64 {
        ratio(
            self.samples.iter().map(|s| s.latency_us).sum::<f64>(),
            self.samples.len() as f64,
        )
    }
}

/// What `td_serve` does for one `run` request — `parse_goal`, then
/// `ConcurrentStore::transaction` around `Engine::solve` — with a span
/// around each call into a layer. `Some(ok)` when the request finished,
/// `None` when it used up its retry budget (the server would answer
/// `err conflict`).
fn chain_request(
    parsed: &ParsedProgram,
    engine: &Engine,
    cs: &ConcurrentStore,
    goal: &str,
    id: u64,
    tr: &mut Tracer,
) -> Option<bool> {
    let root = tr.request(id, "run");
    let s = tr.enter("parser", "parse_goal");
    let goal = td_parser::parse_goal(goal, &parsed.program);
    tr.exit(s);
    let Ok(goal) = goal else {
        tr.exit(root);
        return Some(false);
    };
    let tx = tr.enter("store", "transaction");
    let result = cs.transaction(|db| {
        let s = tr.enter("engine", "solve");
        let outcome = engine.solve(&goal.goal, db);
        tr.exit(s);
        match outcome {
            Ok(Outcome::Success(sol)) if sol.delta.is_empty() => Ok(TxDecision::ReadOnly(true)),
            Ok(Outcome::Success(sol)) => Ok(TxDecision::commit(
                sol.delta.clone(),
                sol.reads.clone(),
                true,
            )),
            Ok(Outcome::Failure { .. }) => Ok(TxDecision::Abort(false)),
            Err(e) => Err(e.to_string()),
        }
    });
    tr.exit(tx);
    tr.exit(root);
    match result {
        Ok(receipt) => Some(receipt.value),
        Err(TxError::Conflict { .. }) => None,
        Err(_) => Some(false),
    }
}

/// One stretch of the in-process chain: two client threads, one engine
/// each, as in the server. `round` keeps request streams and span ids of
/// successive stretches apart.
fn drive_chain(
    ctx: &Ctx,
    hot: bool,
    parsed: &ParsedProgram,
    cs: &ConcurrentStore,
    duration: Duration,
    traced: bool,
    round: u64,
) -> Result<ChainPhase, String> {
    let epoch = Instant::now();
    let per_client: Vec<ChainPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let engine =
                        Engine::with_config(parsed.program.clone(), EngineConfig::default());
                    let mut tr = Tracer::new(traced, (round as usize * CLIENTS + c) as u32, epoch);
                    let mut rng =
                        Rng::new((ctx.seed + round).wrapping_mul(31).wrapping_add(c as u64));
                    let mut phase = ChainPhase::default();
                    let mut id = (c as u64) << 32;
                    while epoch.elapsed() < duration {
                        let req = next_request(hot, c, &mut rng);
                        let sent = epoch.elapsed();
                        let finished = chain_request(parsed, &engine, cs, &req.goal, id, &mut tr);
                        id += 1;
                        let done = epoch.elapsed();
                        phase.attempted += 1;
                        match finished {
                            Some(ok) => phase.failed += u64::from(!ok),
                            None => phase.gave_up += 1,
                        }
                        phase.samples.push(Sample {
                            done,
                            latency_us: (done - sent).as_secs_f64() * 1e6,
                            cpu_us: 0.0,
                            position: 0,
                        });
                    }
                    phase.spans = tr.into_spans();
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "chain thread panicked".to_owned()))
            .collect::<Result<_, _>>()
    })?;
    let mut phase = ChainPhase::default();
    for p in per_client {
        phase.absorb(p);
    }
    Ok(phase)
}

fn traced(
    ctx: &Ctx,
    hot: bool,
    mut report: Report,
    srv: Server,
    dir: &Path,
    bytes_before: u64,
) -> Result<Report, String> {
    let share = Duration::from_secs_f64(ctx.seconds * 0.3);
    // (a) The live server, briefly: its own counters and the socket's cost.
    let load = drive_server(ctx, hot, &srv, ctx.warmup(), share)?;
    book_failures(&load, &mut report);
    let (s, after) = check_and_stop(ctx, hot, srv, dir, bytes_before, &load, &mut report)?;
    let served_p50 = server::report_live_run(&mut report, &s, &after, &load.watch, &load.window);
    report.set(
        "serve.read_p50_us",
        stats::latency_percentile(&load.reads, 0.50),
        load.reads.len() as u64,
    );

    // (b) The same requests through the same chain, in process.
    let parsed = td_parser::parse_program(&program_text(hot)).map_err(|e| e.to_string())?;
    let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .map_err(|e| e.to_string())?;
    let chain_dir = ctx.run_dir("chain")?;
    let cs = ConcurrentStore::open_or_init(&chain_dir, &db).map_err(|e| e.to_string())?;
    let stretch =
        |duration, traced, round| drive_chain(ctx, hot, &parsed, &cs, duration, traced, round);
    stretch(ctx.warmup(), false, 0)?;
    let (mut on, mut off) = (ChainPhase::default(), ChainPhase::default());
    for i in 0..crate::ALTERNATIONS as u64 {
        on.absorb(stretch(ctx.stretch(), true, 1 + 2 * i)?);
        off.absorb(stretch(ctx.stretch(), false, 2 + 2 * i)?);
    }
    cs.close().map_err(|e| e.to_string())?;
    report.attempted += on.attempted + off.attempted;
    report.failed += on.failed + off.failed;
    if on.gave_up + off.gave_up > 0 {
        report.notes.push(format!(
            "in-process chain: {} requests used up their retry budget",
            on.gave_up + off.gave_up
        ));
    }
    let sum = record_trace(
        ctx,
        &mut report,
        &on.spans,
        ratio(on.mean_us(), off.mean_us()),
    )?;
    report.set(
        "store.tx_us",
        sum.mean_us("transaction"),
        sum.count("transaction"),
    );
    report.set(
        "store.tx_self_us",
        sum.layer_self_us_per_request("store"),
        sum.requests,
    );
    report.set(
        "engine.serve_solve_us",
        sum.mean_us("solve"),
        sum.count("solve"),
    );
    report.set(
        "serve.protocol_gap_us",
        served_p50 - stats::latency_percentile(&off.samples, 0.50),
        off.samples.len() as u64,
    );
    probes::run(ctx, &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_a_function_of_seed_and_client() {
        let goals = |seed, client| {
            let mut rng = Rng::new(seed);
            (0..20)
                .map(|_| next_request(false, client, &mut rng).goal)
                .collect::<Vec<_>>()
        };
        assert_eq!(goals(5, 0), goals(5, 0));
        assert_ne!(goals(5, 0), goals(6, 0));
        assert!(goals(5, 1).iter().all(|g| g.contains("1(")));
    }

    #[test]
    fn chained_transfers_visit_five_distinct_rows_and_conserve_money() {
        let mut rng = Rng::new(1);
        for _ in 0..200 {
            let req = next_request(true, 0, &mut rng);
            assert!(req.goal.starts_with("chain("));
            assert_eq!(req.moves.iter().map(|m| m.1).sum::<i64>(), 0);
            assert_ne!(req.moves[0].0, req.moves[1].0);
        }
    }

    #[test]
    fn ledger_checks_reads_against_committed_transfers() {
        let mut log = ClientLog::new(false);
        let transfer = Request {
            goal: "transfer0(1, 2, 10)".into(),
            moves: vec![(1, -10), (2, 10)],
            reads: None,
        };
        let read = Request {
            goal: "balance0(2, B)".into(),
            moves: Vec::new(),
            reads: Some(2),
        };
        log.book(false, &transfer, true, None, "ok");
        log.book(false, &read, true, Some(bank::INITIAL_BALANCE + 10), "ok");
        assert_eq!((log.failed, log.committed), (0, 1));
        // A stale balance, an aborted goal and a timeout are all failures.
        log.book(
            false,
            &read,
            true,
            Some(bank::INITIAL_BALANCE),
            "ok B=1000000",
        );
        log.book(false, &transfer, false, None, "no attempts=1");
        assert_eq!((log.failed, log.committed, log.attempted), (2, 1, 4));
        assert_eq!(log.net[2], 10);
    }

    #[test]
    fn the_generated_program_parses_and_seeds_every_row() {
        for hot in [false, true] {
            let parsed = td_parser::parse_program(&program_text(hot)).unwrap();
            let expect = if hot {
                bank::HOT_ROWS
            } else {
                bank::DISJOINT_ACCOUNTS * CLIENTS as u64
            };
            assert_eq!(parsed.init.len() as u64, expect);
        }
    }
}
