//! `events_paced` and `events_burst`: `sample(S)` / `result(S, Q)` pairs
//! into a live `td serve` running the E20 lab program, whose trigger
//! records every completed pair through a transaction.
//!
//! * `events_paced` — open loop. One sender emits pairs on a fixed schedule
//!   well below saturation; one observer polls `handled(k, 1)` for the
//!   oldest outstanding pair. An op is a pair, timed from when its `result`
//!   was *due* to when its trigger's effect is visible to a client: the
//!   pipeline's own cost (ingest commit, reactor, scheduler, trigger
//!   commit), not backlog.
//! * `events_burst` — closed loop. Two connections stream disjoint pairs as
//!   fast as acks return; an op is one pair *fired*, and the clock stops
//!   only when the trigger scheduler has caught up (`triggers_fired ==
//!   pairs`). Group commit, the reactor mutex and the single scheduler
//!   thread set the rate.

use crate::catalogue::{events as lab, CLIENTS, EVENTS_PACED};
use crate::server::{self, field, Aftermath, Conn, Server, Stats, Watch};
use crate::stats::{due_latency_us, Sample};
use crate::trace::{ratio, Span, Tracer};
use crate::{probes, proc, record_trace, Ctx, Report};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use td_core::{Pred, Symbol, Value};
use td_db::{Database, Delta, DeltaOp, ReadSet, Tuple};
use td_engine::{load_init, Engine, EngineConfig, Outcome};
use td_events::Reactor;
use td_parser::ParsedProgram;
use td_store::{ConcurrentStore, TxDecision};

/// How long the observer waits for one pair, and the drain for all.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);

fn sample_due(pair: u64) -> Duration {
    Duration::from_micros(pair * lab::PAIR_EVERY_US)
}

fn result_due(pair: u64) -> Duration {
    sample_due(pair) + Duration::from_micros(lab::RESULT_AFTER_US)
}

/// What a load run produced, whatever its shape.
#[derive(Default)]
struct Load {
    /// Ops sent after the warm-up, `done` rebased to the window start.
    window: Vec<Sample>,
    window_len: Duration,
    /// Pairs sent, and their ids: sender `c` of `n` used `c, c + n, …`.
    pairs: u64,
    pairs_by_sender: Vec<u64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Paced sends, and how many left more than `LATE_US` behind schedule.
    sends: u64,
    late: u64,
    /// Last ack to every trigger fired.
    drain_ms: f64,
    /// Server peak RSS at a fixed amount of work (`events_burst`).
    rss_at_mark: Option<f64>,
}

impl Load {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }
}

/// The two events of pair `id`, stamped a millisecond apart from the
/// harness's clock now. With the server's own stamps, a pause of the machine
/// between the two requests could push the pair out of the trigger's window.
fn pair_events(id: u64) -> [String; 2] {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    [
        format!("sample({id}) at {ts}"),
        format!("result({id}, 1) at {}", ts + 1),
    ]
}

/// Send one event and say whether it was acknowledged durable.
fn send(conn: &mut Conn, event: &str) -> Result<(), String> {
    match conn.request(&format!("event {event}")) {
        Ok(reply) if reply.starts_with("ok ") => Ok(()),
        Ok(reply) => Err(format!("{event} -> {reply}")),
        Err(_) => Err(format!("{event} -> no reply within 10 s")),
    }
}

/// Sleep until `due` after `epoch`; returns the offset actually reached.
fn wait_until(epoch: Instant, due: Duration) -> Duration {
    std::thread::sleep(due.saturating_sub(epoch.elapsed()));
    epoch.elapsed()
}

/// The paced generator and its observer.
fn drive_paced(
    srv: &Server,
    epoch: Instant,
    warmup: Duration,
    until: Duration,
) -> Result<Load, String> {
    // Pairs whose `result` request has been started; the observer never
    // waits for a pair that was not sent.
    let started = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let mut load = Load::default();
    let (sent_log, seen_log) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut conn = srv.connect()?;
            let mut sends: Vec<(Duration, Duration, Result<(), String>)> = Vec::new();
            let mut pair = 0;
            while result_due(pair) < until {
                let at = wait_until(epoch, sample_due(pair));
                let [sample, result] = pair_events(pair);
                sends.push((sample_due(pair), at, send(&mut conn, &sample)));
                let at = wait_until(epoch, result_due(pair));
                // Release: the observer may poll for this pair from now on.
                started.store(pair + 1, Ordering::Release);
                sends.push((result_due(pair), at, send(&mut conn, &result)));
                pair += 1;
            }
            sender_done.store(true, Ordering::Release);
            // Keep the connection open past the last CPU reading.
            wait_until(epoch, until + proc::LINGER);
            Ok::<_, String>(sends)
        });
        let observer = scope.spawn(|| {
            let mut conn = srv.connect()?;
            let mut seen: Vec<Option<Duration>> = Vec::new();
            let pause = Duration::from_micros(lab::POLL_PAUSE_US);
            loop {
                let next = seen.len() as u64;
                // Acquire pairs with the sender's Release stores.
                if next >= started.load(Ordering::Acquire) {
                    if sender_done.load(Ordering::Acquire)
                        && next >= started.load(Ordering::Acquire)
                    {
                        break;
                    }
                    std::thread::sleep(pause);
                    continue;
                }
                let reply = conn
                    .request(&format!("run handled({next}, 1)"))
                    .map_err(|e| format!("observer: {e}"))?;
                if reply.starts_with("ok ") {
                    seen.push(Some(epoch.elapsed()));
                } else if epoch.elapsed() > result_due(next) + VISIBLE_TIMEOUT {
                    seen.push(None);
                } else {
                    std::thread::sleep(pause);
                }
            }
            wait_until(epoch, until + proc::LINGER);
            Ok::<_, String>(seen)
        });
        let panicked = |_| "events thread panicked".to_owned();
        let sent = sender.join().map_err(panicked)??;
        let seen = observer.join().map_err(panicked)??;
        Ok::<_, String>((sent, seen))
    })?;
    for (due, at, outcome) in sent_log {
        load.attempted += 1;
        load.sends += 1;
        let (_, lateness) = due_latency_us(due, at, at);
        load.late += u64::from(lateness > lab::LATE_US);
        if let Err(what) = outcome {
            load.fail(what);
        }
    }
    load.pairs = seen_log.len() as u64;
    load.pairs_by_sender = vec![load.pairs];
    for (pair, seen) in seen_log.iter().enumerate() {
        let due = result_due(pair as u64);
        match seen {
            Some(done) if due >= warmup => load.window.push(Sample {
                done: done.saturating_sub(warmup),
                latency_us: due_latency_us(due, due, *done).0,
                cpu_us: 0.0,
                position: 0,
            }),
            Some(_) => {}
            None => load.fail(format!("handled({pair}, 1) not visible within 10 s")),
        }
    }
    Ok(load)
}

/// Poll the server until it has fired `pairs` triggers; returns how long
/// that took, in milliseconds.
fn drain(srv: &Server, pairs: u64) -> Result<f64, String> {
    let acked = Instant::now();
    while field(&srv.stats()?, "triggers_fired") < pairs as f64 && acked.elapsed() < VISIBLE_TIMEOUT
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(acked.elapsed().as_secs_f64() * 1e3)
}

/// Two closed-loop streams of disjoint pairs until `warmup + window`, then
/// the wait for the trigger scheduler to catch up. The watch spans both:
/// from the end of the warm-up to every trigger fired.
fn drive_burst(srv: &Server, warmup: Duration, window: Duration) -> Result<(Load, Watch), String> {
    let epoch = Instant::now();
    let until = warmup + window;
    // Senders still streaming, the pairs sent by those that are done, and
    // whether the watch has taken its last reading.
    let streaming = AtomicU64::new(CLIENTS as u64);
    let sent = AtomicU64::new(0);
    let watched = AtomicBool::new(false);
    let mut load = Load::default();
    let (logs, watch) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let (streaming, sent, watched) = (&streaming, &sent, &watched);
                scope.spawn(move || {
                    let mut log: Vec<(Duration, Duration, Result<(), String>)> = Vec::new();
                    let mut pairs = 0u64;
                    let mut rss = None;
                    let mut conn = srv.connect();
                    if let Ok(conn) = &mut conn {
                        while epoch.elapsed() < until {
                            if c == 0 && pairs == lab::BURST_RSS_AT_PAIRS {
                                rss = proc::rss_mib(srv.pid()).ok();
                            }
                            let id = pairs * CLIENTS as u64 + c;
                            let sent = epoch.elapsed();
                            let outcome = pair_events(id).iter().try_for_each(|e| send(conn, e));
                            log.push((sent, epoch.elapsed(), outcome));
                            pairs += 1;
                        }
                    }
                    // Release: the watch reads `sent` once `streaming` is 0.
                    sent.fetch_add(pairs, Ordering::Release);
                    streaming.fetch_sub(1, Ordering::Release);
                    // A server thread ends with its connection and takes its
                    // CPU time with it; stay connected to the last reading.
                    while !watched.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    conn.map(|_| (pairs, log, rss))
                })
            })
            .collect();
        let watch = (|| {
            // From the end of the warm-up until the senders have stopped
            // and every trigger has fired.
            let mut watch = Watch::new(srv);
            std::thread::sleep(warmup.saturating_sub(epoch.elapsed()));
            watch.mark(srv, epoch.elapsed().saturating_sub(warmup))?;
            // A sender overruns by at most its pair in flight: two requests.
            let give_up = until + 3 * server::REQUEST_TIMEOUT;
            while streaming.load(Ordering::Acquire) > 0 && epoch.elapsed() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            load.drain_ms = drain(srv, sent.load(Ordering::Acquire))?;
            watch.mark(srv, epoch.elapsed().saturating_sub(warmup))?;
            Ok::<_, String>(watch)
        })();
        watched.store(true, Ordering::Release);
        let logs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "events thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()?;
        Ok::<_, String>((logs, watch?))
    })?;
    for (pairs, log, rss) in logs {
        load.rss_at_mark = load.rss_at_mark.or(rss);
        load.pairs += pairs;
        load.pairs_by_sender.push(pairs);
        for (sent, done, outcome) in log {
            load.attempted += 1;
            if let Err(what) = outcome {
                load.fail(what);
            } else if sent >= warmup {
                load.window.push(Sample {
                    done: done - warmup,
                    latency_us: (done - sent).as_secs_f64() * 1e6,
                    cpu_us: 0.0,
                    position: 0,
                });
            }
        }
    }
    load.window_len = window;
    Ok((load, watch))
}

/// The paced generator with the watch beside it, then the wait for the
/// last triggers.
fn drive_paced_watched(
    srv: &Server,
    warmup: Duration,
    window: Duration,
) -> Result<(Load, Watch), String> {
    let epoch = Instant::now();
    let (mut load, watch) = std::thread::scope(|scope| {
        let driver = scope.spawn(|| drive_paced(srv, epoch, warmup, warmup + window));
        let watch = server::watch(srv, epoch, warmup, window);
        let load = driver
            .join()
            .map_err(|_| "events driver panicked".to_owned())??;
        Ok::<_, String>((load, watch?))
    })?;
    load.drain_ms = drain(srv, load.pairs)?;
    load.window_len = window;
    Ok((load, watch))
}

fn drive_server(
    paced: bool,
    srv: &Server,
    warmup: Duration,
    window: Duration,
) -> Result<(Load, Watch), String> {
    if paced {
        drive_paced_watched(srv, warmup, window)
    } else {
        drive_burst(srv, warmup, window)
    }
}

/// The oracles: `matched == fired == pairs`, every event ingested, every
/// `handled(k, 1)` in the stopped store, then verify and restart.
fn check_and_stop(
    ctx: &Ctx,
    srv: Server,
    dir: &Path,
    bytes_before: u64,
    load: &Load,
    report: &mut Report,
) -> Result<(Stats, Aftermath), String> {
    let stats = srv.stats()?;
    let pairs = load.pairs;
    for (key, expect) in [
        ("triggers_matched", pairs),
        ("triggers_fired", pairs),
        ("events_ingested", 2 * pairs),
    ] {
        report.check(field(&stats, key) == expect as f64, || {
            format!("{key}={} but {pairs} pairs were sent", stats[key])
        });
    }
    let inspect = |db: &Database, report: &mut Report| {
        let handled = db.relation(Pred::new("handled", 2)).map_or(0, |r| r.len());
        report.check(handled as u64 == pairs, || {
            format!("{handled} handled tuples for {pairs} pairs")
        });
        let senders = load.pairs_by_sender.len() as u64;
        let ids = load
            .pairs_by_sender
            .iter()
            .zip(0..)
            .flat_map(|(&n, c)| (0..n).map(move |j| j * senders + c));
        let missing = ids.into_iter().find(|&k| {
            let t = Tuple::new(vec![Value::Int(k as i64), Value::Int(1)]);
            !db.contains(Pred::new("handled", 2), &t)
        });
        report.check(missing.is_none(), || {
            format!("handled({}, 1) is missing", missing.unwrap_or(0))
        });
        let counter = Tuple::new(vec![Value::Int(pairs as i64)]);
        report.check(db.contains(Pred::new("fired", 1), &counter), || {
            format!("fired counter is not {pairs}")
        });
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
    report.attempted += load.attempted;
    report.failed += load.failed;
    if let Some(f) = &load.first_failure {
        report.notes.push(format!("first failed op: {f}"));
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    ctx.require_td()?;
    let paced = ctx.workload.name == EVENTS_PACED;
    let mut report = Report::default();
    let (srv, dir, setups) = server::set_up(ctx, lab::SOURCE)?;
    let bytes_before = proc::dir_bytes(&dir.join("store"))?;
    if ctx.trace {
        return traced(ctx, paced, report, srv, &dir, bytes_before);
    }
    let (load, watch) = drive_server(paced, &srv, ctx.warmup(), ctx.window())?;
    let rss = match load.rss_at_mark {
        Some(rss) => rss,
        None => proc::rss_mib(srv.pid())?,
    };
    book_failures(&load, &mut report);
    let (stats, _) = check_and_stop(ctx, srv, &dir, bytes_before, &load, &mut report)?;
    report.notes.push(server::commit_note(&stats));
    report.notes.push(server::latency_note(&load.window));
    let mut timings = server::window_timings(&load.window, load.window_len, &watch);
    if paced {
        // Open loop: the schedule offers one pair per period, so the rate
        // is the pairs made visible inside the window; it falls when the
        // system cannot keep up.
        let visible = load.window.iter().filter(|s| s.done <= load.window_len);
        timings.ops_per_s = ratio(visible.count() as f64, load.window_len.as_secs_f64());
        // How often the observer polls follows the latency it observes, so
        // CPU per pair would mostly count polls. Per request served (events
        // and polls alike) that cancels.
        timings.cpu_us_per_op = ratio(watch.cpu_us(), watch.grown("requests"));
        report.notes.push(format!(
            "generator lateness: {} of {} sends more than 1 ms behind schedule",
            load.late, load.sends
        ));
    } else {
        // An op is a pair fired, and the watch ran on until the scheduler
        // had caught up, so a trigger backlog lowers the rate even when acks
        // come back as fast as before. The latency in the notes is what the
        // sender sees: `sample` sent to `result` acknowledged.
        let fired = watch.grown("triggers_fired");
        timings.ops_per_s = ratio(fired, watch.wall().as_secs_f64());
        timings.cpu_us_per_op = ratio(watch.cpu_us(), fired);
        report.notes.push(format!(
            "{fired} pairs fired in {:.3} s, of which {:.1} ms after the last ack",
            watch.wall().as_secs_f64(),
            load.drain_ms
        ));
    }
    report.set_end_to_end(&setups, &timings, load.window.len() as u64, rss);
    Ok(report)
}

// ---------------------------------------------------------------------
// Traced run: the event chain `td serve` composes, in process
// ---------------------------------------------------------------------

/// A completed match on its way to the trigger thread.
struct Job {
    pair: u64,
    goal: td_core::Goal,
    queued_ns: u64,
}

struct Chain<'a> {
    parsed: &'a ParsedProgram,
    cs: &'a ConcurrentStore,
    reactor: Mutex<Reactor>,
    partials_peak: AtomicU64,
}

impl Chain<'_> {
    /// What `td_serve` does for one `event` request: `parse_event`, append
    /// the stamped fact through a transaction, feed the reactor under its
    /// mutex, queue every completed match.
    fn ingest(
        &self,
        text: &str,
        pair: u64,
        tr: &mut Tracer,
        jobs: &mpsc::Sender<Job>,
    ) -> Result<(), String> {
        let root = tr.request(pair, "event");
        let s = tr.enter("parser", "parse_event");
        let parts = td_parser::parse_event(text);
        tr.exit(s);
        let (name, args, ts) = parts.map_err(|e| e.to_string())?;
        let ts = ts.ok_or_else(|| format!("{text}: the harness stamps every event"))?;
        let name = Symbol::intern(&name);
        let stored = self
            .parsed
            .program
            .event_by_name(name)
            .ok_or_else(|| format!("{text}: not a declared event"))?;
        let mut values = args.clone();
        values.push(Value::Int(ts as i64));
        let tuple = Tuple::new(values);
        let s = tr.enter("store", "append");
        let appended = self.cs.transaction(|db| {
            if db.contains(stored, &tuple) {
                return Ok::<_, std::convert::Infallible>(TxDecision::ReadOnly(()));
            }
            let mut delta = Delta::new();
            delta.push(DeltaOp::Ins(stored, tuple.clone()));
            let mut reads = ReadSet::new();
            reads.record(stored);
            Ok(TxDecision::commit(delta, reads, ()))
        });
        tr.exit(s);
        appended.map_err(|e| format!("{text}: {e}"))?;
        let s = tr.enter("events", "ingest");
        let fires = {
            let mut reactor = self.reactor.lock().expect("reactor poisoned by panic");
            let fires = reactor.ingest(name, &args, ts);
            self.partials_peak
                .fetch_max(reactor.partials() as u64, Ordering::Relaxed);
            fires
        };
        tr.exit(s);
        for fired in fires {
            let job = Job {
                pair,
                goal: fired.goal,
                queued_ns: tr.now_ns(),
            };
            jobs.send(job)
                .map_err(|_| "trigger thread is gone".to_owned())?;
        }
        tr.exit(root);
        Ok(())
    }

    /// The scheduler thread: each match runs as one transaction.
    fn run_triggers(&self, jobs: mpsc::Receiver<Job>, tr: &mut Tracer) -> u64 {
        let engine = Engine::with_config(self.parsed.program.clone(), EngineConfig::default());
        let mut fired = 0;
        for job in jobs {
            // The trigger's time starts when its match was queued.
            let root = tr.request(job.pair, "trigger");
            tr.started_at(root, job.queued_ns);
            let dwell = tr.enter("queue", "dwell");
            tr.started_at(dwell, job.queued_ns);
            tr.exit(dwell);
            let tx = tr.enter("store", "trigger_tx");
            let result = self.cs.transaction(|db| {
                let s = tr.enter("engine", "solve");
                let outcome = engine.solve(&job.goal, db);
                tr.exit(s);
                match outcome {
                    Ok(Outcome::Success(sol)) if sol.delta.is_empty() => {
                        Ok(TxDecision::ReadOnly(true))
                    }
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
            fired += u64::from(result.is_ok_and(|r| r.value));
        }
        fired
    }
}

#[derive(Default)]
struct ChainPhase {
    spans: Vec<Span>,
    events: u64,
    pairs: u64,
    fired: u64,
    busy: Duration,
    partials_peak: u64,
}

impl ChainPhase {
    fn absorb(&mut self, other: ChainPhase) {
        self.spans.extend(other.spans);
        self.events += other.events;
        self.pairs += other.pairs;
        self.fired += other.fired;
        self.busy += other.busy;
        self.partials_peak = self.partials_peak.max(other.partials_peak);
    }

    fn per_event_s(&self) -> f64 {
        ratio(self.busy.as_secs_f64(), self.events as f64)
    }
}

/// Drive the in-process chain with the workload's own load shape for one
/// stretch. `stretch` keeps pair ids and span ids of successive stretches
/// apart.
fn drive_chain(
    paced: bool,
    parsed: &ParsedProgram,
    cs: &ConcurrentStore,
    duration: Duration,
    traced: bool,
    stretch: u64,
) -> Result<ChainPhase, String> {
    let base = stretch << 32;
    let lane = |i: u64| (stretch * (CLIENTS as u64 + 1) + i) as u32;
    let epoch = Instant::now();
    let chain = Chain {
        parsed,
        cs,
        reactor: Mutex::new(Reactor::new(&parsed.program, &parsed.triggers)),
        partials_peak: AtomicU64::new(0),
    };
    let senders = if paced { 1 } else { CLIENTS as u64 };
    let (jobs, job_rx) = mpsc::channel::<Job>();
    let (spans, pairs, busy, fired) = std::thread::scope(|scope| {
        let chain = &chain;
        let scheduler = scope.spawn(move || {
            let mut tr = Tracer::new(traced, lane(senders), epoch);
            let fired = chain.run_triggers(job_rx, &mut tr);
            (fired, tr.into_spans())
        });
        let handles: Vec<_> = (0..senders)
            .map(|c| {
                let jobs = jobs.clone();
                scope.spawn(move || {
                    let mut tr = Tracer::new(traced, lane(c), epoch);
                    let mut pairs = 0u64;
                    let mut busy = Duration::ZERO;
                    loop {
                        if paced && result_due(pairs) >= duration
                            || !paced && epoch.elapsed() >= duration
                        {
                            break;
                        }
                        let id = base + pairs * senders + c;
                        for (i, text) in pair_events(id).iter().enumerate() {
                            if paced {
                                wait_until(
                                    epoch,
                                    if i == 0 {
                                        sample_due(pairs)
                                    } else {
                                        result_due(pairs)
                                    },
                                );
                            }
                            let sent = Instant::now();
                            chain.ingest(text, id, &mut tr, &jobs)?;
                            busy += sent.elapsed();
                        }
                        pairs += 1;
                    }
                    Ok::<_, String>((pairs, busy, tr.into_spans()))
                })
            })
            .collect();
        drop(jobs);
        let mut spans = Vec::new();
        let mut pairs = 0;
        let mut busy = Duration::ZERO;
        for h in handles {
            let (p, b, s) = h.join().map_err(|_| "chain thread panicked".to_owned())??;
            pairs += p;
            busy += b;
            spans.extend(s);
        }
        // Every sender has dropped its channel end; the scheduler drains
        // the queue and returns.
        let (fired, s) = scheduler
            .join()
            .map_err(|_| "trigger thread panicked".to_owned())?;
        spans.extend(s);
        Ok::<_, String>((spans, pairs, busy, fired))
    })?;
    Ok(ChainPhase {
        spans,
        events: 2 * pairs,
        pairs,
        fired,
        busy,
        partials_peak: chain.partials_peak.load(Ordering::Relaxed),
    })
}

fn traced(
    ctx: &Ctx,
    paced: bool,
    mut report: Report,
    srv: Server,
    dir: &Path,
    bytes_before: u64,
) -> Result<Report, String> {
    let share = Duration::from_secs_f64(ctx.seconds * 0.3);
    // (a) The live server, briefly: its own counters and the socket's cost.
    let (load, watch) = drive_server(paced, &srv, ctx.warmup(), share)?;
    book_failures(&load, &mut report);
    let (s, after) = check_and_stop(ctx, srv, dir, bytes_before, &load, &mut report)?;
    let served_p50 = server::report_live_run(&mut report, &s, &after, &watch, &load.window);
    report.set(
        "serve.trigger_hist_p50_us",
        field(&s, "trigger_p50_us"),
        load.pairs,
    );
    report.set("events.drain_ms", load.drain_ms, 1);
    report.set(
        "events.late_ratio",
        ratio(load.late as f64, load.sends as f64),
        load.sends,
    );

    // (b) The same events through the same chain, in process.
    let parsed = td_parser::parse_program(lab::SOURCE).map_err(|e| e.to_string())?;
    let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .map_err(|e| e.to_string())?;
    let cs =
        ConcurrentStore::open_or_init(&ctx.run_dir("chain")?, &db).map_err(|e| e.to_string())?;
    let stretch = |duration, traced, n| drive_chain(paced, &parsed, &cs, duration, traced, n);
    let warm = stretch(ctx.warmup(), false, 0)?;
    let (mut on, mut off) = (ChainPhase::default(), ChainPhase::default());
    for i in 0..crate::ALTERNATIONS as u64 {
        on.absorb(stretch(ctx.stretch(), true, 1 + 2 * i)?);
        off.absorb(stretch(ctx.stretch(), false, 2 + 2 * i)?);
    }
    cs.close().map_err(|e| e.to_string())?;
    for phase in [&warm, &on, &off] {
        report.attempted += phase.events;
        report.check(phase.fired == phase.pairs, || {
            format!(
                "in-process chain fired {} triggers for {} pairs",
                phase.fired, phase.pairs
            )
        });
    }
    let overhead = ratio(on.per_event_s(), off.per_event_s());
    let sum = record_trace(ctx, &mut report, &on.spans, overhead)?;
    report.set("events.dwell_us", sum.mean_us("dwell"), sum.count("dwell"));
    report.set(
        "events.trigger_tx_us",
        sum.mean_us("trigger_tx"),
        sum.count("trigger_tx"),
    );
    report.set("events.partials_peak", on.partials_peak as f64, on.events);
    report.set("store.tx_us", sum.mean_us("append"), sum.count("append"));
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
    if !paced {
        // A pair's two event requests through the socket against the same
        // two in process.
        report.set(
            "serve.protocol_gap_us",
            served_p50 - 2.0 * off.per_event_s() * 1e6,
            off.events,
        );
    }
    probes::run(ctx, &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_puts_each_result_one_millisecond_after_its_sample() {
        assert_eq!(sample_due(0), Duration::ZERO);
        assert_eq!(result_due(0), Duration::from_micros(1_000));
        assert_eq!(sample_due(4), Duration::from_micros(10_000));
        assert_eq!(result_due(400), Duration::from_micros(1_001_000));
    }

    #[test]
    fn the_chain_fires_one_trigger_per_pair() {
        let parsed = td_parser::parse_program(lab::SOURCE).unwrap();
        let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init).unwrap();
        let dir = std::env::temp_dir().join(format!("tdbench-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cs = ConcurrentStore::open_or_init(&dir, &db).unwrap();
        let phase = drive_chain(false, &parsed, &cs, Duration::from_millis(50), true, 0).unwrap();
        assert!(phase.pairs > 0);
        assert_eq!(phase.fired, phase.pairs);
        let sum = crate::trace::summarize(&phase.spans);
        assert_eq!(sum.count("trigger_tx"), phase.pairs);
        assert_eq!(sum.count("event"), phase.events);
        let store = cs.close().unwrap();
        assert_eq!(
            store.db().relation(Pred::new("handled", 2)).unwrap().len() as u64,
            phase.pairs
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
