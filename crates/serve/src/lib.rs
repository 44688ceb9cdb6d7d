//! # td-serve — the multi-client transaction server
//!
//! Bonner's Transaction Datalog is a model of *many interacting
//! transactions*, but `td run` is one-shot: open the store, run the goals,
//! exit. This crate is the long-running counterpart: [`Server`] opens the
//! durable store once (holding its advisory lock) and admits concurrent
//! top-level transactions from independent client processes over a Unix
//! domain socket. Each request runs the existing kernel unchanged against
//! a snapshot of the database; commits go through
//! [`td_store::ConcurrentStore`] — optimistic concurrency control on the
//! O(1) content digests, group commit to amortize the fsync. See
//! `docs/SERVE.md` for the protocol, the OCC rule, and the recovery
//! argument.
//!
//! One transaction path: a client's `run` goal and a trigger's goal both go
//! through one `transact` — solve on the server's one [`Engine`] against a
//! snapshot, validate the read set at the head, group-commit, answer once
//! durable — and an `event` append commits through the same store before it
//! is fed to the [`td_events::Reactor`]. The wire protocol (`run`, `event`,
//! `stats`, `ping`, `stop` and their replies) is specified in
//! `docs/SERVE.md`, events and triggers in `docs/EVENTS.md`, every
//! published number in `docs/OBSERVABILITY.md`.

pub mod client;

pub use client::{Client, Reply};

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;
use td_core::{Goal, Symbol, Term, Value};
use td_db::{Database, Delta, DeltaOp, Tuple};
use td_engine::obs::{json_array, json_object};
use td_engine::{Engine, EngineConfig, JsonObject, MetricsRegistry, MetricsSnapshot, Outcome};
use td_events::Reactor;
use td_parser::ParsedProgram;
use td_store::{
    Committed, ConcurrentStats, ConcurrentStore, Store, TxDecision, TxError, TxOptions,
};

/// The published counters, one row each: the key the `stats` reply gives a
/// number, and the registry name it has everywhere else — in [`read`], in
/// the report's `serve` and `metrics` sections and in
/// docs/OBSERVABILITY.md. The `stats` reply lists them in this order.
const PUBLISHED: [(&str, &str); 18] = [
    ("commits", "serve.commits"),
    ("read_only", "serve.read_only"),
    ("aborts", "serve.aborts"),
    ("conflicts", "serve.conflicts"),
    ("conflict_failures", "serve.conflict_failures"),
    ("retries_exhausted", "serve.retries_exhausted"),
    ("groups", "serve.groups"),
    ("grouped_records", "serve.grouped_records"),
    ("connections", "serve.connections"),
    ("requests", "serve.requests"),
    ("errors", "serve.errors"),
    ("interned_syms", "serve.interned_symbols"),
    ("interned_bytes", "serve.interned_bytes"),
    ("events_ingested", "events.ingested"),
    ("triggers_matched", "triggers.matched"),
    ("triggers_fired", "triggers.fired"),
    ("triggers_conflicted", "triggers.conflicted"),
    ("events_dropped", "events.dropped"),
];

/// The longest request line a connection reads, newline excluded. A client
/// that sends more without one is answered `err request too long` and
/// disconnected, so no connection makes the server buffer without bound.
const MAX_REQUEST: usize = 64 * 1024;

/// Registry name of the trigger-latency histogram: microseconds from the
/// arrival of the event request that completed a match to the end of its
/// trigger's execution, one sample per execution (fired or not).
const TRIGGER_LATENCY: &str = "triggers.latency_us";

/// Registry name of the gauge of partial matches the reactor holds open.
const PARTIALS: &str = "events.partials";

/// The [`PARTIALS`] gauge of a reading (0 in one not taken by [`read`]).
fn partials(metrics: &MetricsSnapshot) -> u64 {
    metrics.gauges.get(PARTIALS).copied().unwrap_or(0)
}

/// One reading of everything the server publishes: the registry's snapshot
/// with the store's commit-path counters, the interner's footprint (the
/// documented leak of a long-running server, made observable)
/// and the reactor's partial-match gauge and drop count folded in under the
/// names the report's `metrics` section carries, beside the store's own
/// stats. The `stats` reply, the shutdown summary and both report sections
/// all render from one such reading.
fn read(ctx: &ConnCtx) -> (MetricsSnapshot, ConcurrentStats) {
    let stats = ctx.cs.stats();
    let mut snapshot = ctx.metrics.snapshot();
    // Every published counter is in every reading, counted yet or not.
    for (_, name) in PUBLISHED {
        snapshot.counters.entry(name.to_owned()).or_insert(0);
    }
    // The reactor's bounded resource: partial matches held open now, and
    // those it ever dropped at its cap (`td_events::MAX_PARTIALS`).
    let (open, dropped) = {
        let reactor = ctx.reactor.lock().expect("reactor poisoned by panic");
        (reactor.partials() as u64, reactor.stats().dropped)
    };
    snapshot.gauges.insert(PARTIALS.to_owned(), open);
    for (name, v) in [
        ("events.dropped", dropped),
        ("serve.commits", stats.commits),
        ("serve.read_only", stats.read_only),
        ("serve.aborts", stats.aborts),
        ("serve.conflicts", stats.conflicts),
        // Transactions that exhausted their OCC retry budget — the
        // starvation signal the jittered backoff exists to keep at zero.
        // Every transaction of a server goes through its one store, so the
        // store's count is the server's, under both names it is published.
        ("serve.conflict_failures", stats.conflict_failures),
        ("serve.retries_exhausted", stats.conflict_failures),
        ("serve.groups", stats.groups),
        ("serve.grouped_records", stats.grouped_records),
        ("serve.interned_symbols", Symbol::interned_count()),
        ("serve.interned_bytes", Symbol::interned_bytes()),
    ] {
        snapshot.counters.insert(name.to_owned(), v);
    }
    (snapshot, stats)
}

/// What [`Server::serve`] hands back after a clean shutdown.
pub struct ServeSummary {
    /// The final reading of the server's registry (see docs/OBSERVABILITY.md
    /// for the names): `serve.*`, `events.*` and `triggers.*` counters and
    /// the `triggers.latency_us` histogram. This is the report's `metrics`
    /// section.
    pub metrics: MetricsSnapshot,
    /// Store-level OCC/group-commit counters.
    pub stats: ConcurrentStats,
    /// Per-relation conflict attribution, sorted by predicate: which
    /// relations caused validation failures, and how often.
    pub conflict_relations: Vec<(String, u64)>,
    /// The server's one engine — its subgoal cache, when it has one, is the
    /// report's `cache` section.
    pub engine: Engine,
    /// The underlying store, drained and durable (e.g. for a final
    /// `rotate` or a closing report).
    pub store: Store,
}

impl ServeSummary {
    /// The shutdown summary, one `serve: …` line each: traffic and commit
    /// totals, then conflict attribution and event/trigger totals when
    /// there is anything to say.
    pub fn lines(&self) -> Vec<String> {
        let c = |name: &str| self.metrics.counter(name);
        let mut lines = vec![format!(
            "serve: {} connections, {} requests; {} commits in {} groups \
             (mean group {:.2}, max {}), {} conflicts, {} read-only, {} aborts",
            c("serve.connections"),
            c("serve.requests"),
            c("serve.commits"),
            c("serve.groups"),
            self.stats.mean_group(),
            self.stats.max_group,
            c("serve.conflicts"),
            c("serve.read_only"),
            c("serve.aborts"),
        )];
        if !self.conflict_relations.is_empty() || c("serve.retries_exhausted") > 0 {
            lines.push(format!(
                "serve: conflicts by relation: {} ({} transactions exhausted \
                 their retry budget)",
                attribution(self.conflict_relations.iter().map(|(p, n)| (p, n)), ", "),
                c("serve.retries_exhausted"),
            ));
        }
        if c("events.ingested") > 0 || c("triggers.matched") > 0 {
            let latency = self.metrics.histogram(TRIGGER_LATENCY);
            lines.push(format!(
                "serve: {} events ingested, {} matches, {} triggers fired \
                 ({} conflicts retried, latency p50 {}us p99 {}us)",
                c("events.ingested"),
                c("triggers.matched"),
                c("triggers.fired"),
                c("triggers.conflicted"),
                latency.percentile(0.50),
                latency.percentile(0.99),
            ));
        }
        lines
    }

    /// The `serve` section of a run report, for a server that listened on
    /// `socket`: every published counter under its registry name, then
    /// what is not a counter — the largest group, the per-relation conflict
    /// map, the open-partials gauge and the trigger-latency histogram.
    pub fn report_section(&self, socket: &str) -> String {
        let latency = self.metrics.histogram(TRIGGER_LATENCY);
        let latency = JsonObject::new()
            .field("p50_us", latency.percentile(0.50))
            .field("p99_us", latency.percentile(0.99))
            .field("buckets", json_array(latency.buckets()));
        let conflicts = self.conflict_relations.iter().map(|(p, n)| (p, n));
        PUBLISHED
            .iter()
            .fold(
                JsonObject::new().string("socket", socket),
                |section, (_, name)| section.field(name, self.metrics.counter(name)),
            )
            .field("max_group", self.stats.max_group)
            .field("conflict_relations", json_object(conflicts))
            .field(PARTIALS, partials(&self.metrics))
            .field(TRIGGER_LATENCY, latency.finish())
            .finish()
    }
}

/// Everything a connection handler or the trigger scheduler needs, shared
/// once behind an `Arc`.
struct ConnCtx {
    /// The server's one engine: every connection and the trigger scheduler
    /// solve through it, so what one request's search leaves in the subgoal
    /// cache the next request finds, whichever socket it arrives on.
    engine: Engine,
    cs: ConcurrentStore,
    /// The server's one registry: the counters the server itself increments
    /// and the [`TRIGGER_LATENCY`] histogram live here and nowhere else (the
    /// commit-path counters are the store's and join them in [`read`]).
    metrics: MetricsRegistry,
    shutdown: AtomicBool,
    socket: PathBuf,
    reactor: Mutex<Reactor>,
}

/// A completed match handed to the trigger scheduler; `started` is taken
/// when the *event* request arrived, so the recorded latency is true
/// end-to-end (ingest to trigger durable).
struct TriggerJob {
    fired: td_events::Fired,
    started: Instant,
}

/// A Unix-socket transaction server over one durable store.
pub struct Server {
    program: ParsedProgram,
    config: EngineConfig,
    store: ConcurrentStore,
}

impl Server {
    /// Build a server from a parsed program (rules define the available
    /// transactions; its `?-` goals and `init` facts are ignored — state
    /// comes from the store) and an open concurrent store.
    pub fn new(program: ParsedProgram, config: EngineConfig, store: ConcurrentStore) -> Server {
        Server {
            program,
            config,
            store,
        }
    }

    /// Convenience: open the store directory — or initialize it with the
    /// same seeding rule as `td run --db`: the program's schema, then its
    /// `init` facts as WAL record 0 — and build the server.
    pub fn open(
        program: ParsedProgram,
        config: EngineConfig,
        dir: &Path,
        tx: TxOptions,
    ) -> td_store::Result<Server> {
        let schema = Database::with_schema_of(&program.program);
        let seeded = td_engine::load_init(&schema, &program.init)
            .map_err(|e| td_store::StoreError::Db(e.to_string()))?;
        let store = Store::open_or_seed(dir, &schema, &seeded)?;
        Ok(Server::new(
            program,
            config,
            ConcurrentStore::new(store).with_options(tx),
        ))
    }

    /// Bind `socket` and serve until a client sends `stop`. Blocks the
    /// calling thread; connection handlers run one thread each, and — if
    /// the program declares triggers — a dedicated scheduler thread
    /// executes trigger transactions in match order. Returns the drained
    /// summary after the last in-flight request and trigger finish.
    pub fn serve(self, socket: &Path) -> std::io::Result<ServeSummary> {
        let listener = bind_socket(socket)?;
        let reactor = Reactor::new(&self.program.program, &self.program.triggers);
        let ctx = Arc::new(ConnCtx {
            engine: Engine::with_config(self.program.program, self.config),
            cs: self.store.clone(),
            metrics: MetricsRegistry::new(),
            shutdown: AtomicBool::new(false),
            socket: socket.to_path_buf(),
            reactor: Mutex::new(reactor),
        });
        let (jobs, job_rx) = mpsc::channel::<TriggerJob>();
        let scheduler = {
            let ctx = ctx.clone();
            std::thread::spawn(move || trigger_scheduler(job_rx, &ctx))
        };
        let mut handlers = Vec::new();
        for stream in listener.incoming() {
            if ctx.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            ctx.metrics.add_counter("serve.connections", 1);
            let ctx = ctx.clone();
            let jobs = jobs.clone();
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &ctx, &jobs);
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
        // All connections are done: close the job channel and let the
        // scheduler drain queued triggers before the store shuts down.
        drop(jobs);
        let _ = scheduler.join();
        let _ = std::fs::remove_file(socket);
        let (metrics, stats) = read(&ctx);
        let conflict_relations = self
            .store
            .conflict_attribution()
            .into_iter()
            .map(|(p, n)| (p.to_string(), n))
            .collect();
        let store = self
            .store
            .close()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(ServeSummary {
            metrics,
            stats,
            conflict_relations,
            engine: ctx.engine.clone(),
            store,
        })
    }
}

/// Bind the listener, clearing a stale socket file left by a crashed
/// server (stale = nothing accepts connections on it; a *live* server also
/// holds the store lock, so two live servers on one DIR cannot happen).
fn bind_socket(socket: &Path) -> std::io::Result<UnixListener> {
    match UnixListener::bind(socket) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("`{}`: another server is accepting here", socket.display()),
                ));
            }
            std::fs::remove_file(socket)?;
            UnixListener::bind(socket)
        }
        Err(e) => Err(e),
    }
}

fn handle_connection(stream: UnixStream, ctx: &ConnCtx, jobs: &mpsc::Sender<TriggerJob>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the bound tells an over-long line from one that
        // just fits.
        let mut bounded = (&mut reader).take(MAX_REQUEST as u64 + 1);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let too_long = line.len() > MAX_REQUEST && !line.ends_with(b"\n");
        let request = match std::str::from_utf8(&line).map(str::trim) {
            _ if too_long => Err("err request too long"),
            Ok("") => continue,
            Ok(text) => Ok(text),
            // The whole line is consumed: the next request starts clean.
            Err(_) => Err("err request is not UTF-8"),
        };
        ctx.metrics.add_counter("serve.requests", 1);
        let (reply, stop) = match request {
            Ok(request) => dispatch(request, ctx, jobs),
            Err(refusal) => (refusal.to_owned(), false),
        };
        if reply.starts_with("err ") {
            ctx.metrics.add_counter("serve.errors", 1);
        }
        // The rest of an over-long line cannot be told from a next request.
        if writeln!(writer, "{}", sanitize(&reply)).is_err() || too_long {
            break;
        }
        if stop {
            ctx.shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so it observes the flag.
            let _ = UnixStream::connect(&ctx.socket);
            break;
        }
    }
}

fn dispatch(request: &str, ctx: &ConnCtx, jobs: &mpsc::Sender<TriggerJob>) -> (String, bool) {
    let (verb, rest) = match request.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (request, ""),
    };
    match verb {
        "ping" => ("ok pong".to_owned(), false),
        "stop" => ("ok stopping".to_owned(), true),
        "stats" => (stats_line(ctx), false),
        "run" if !rest.is_empty() => (run_goal(ctx, rest), false),
        "run" => ("err run: missing goal".to_owned(), false),
        "event" if !rest.is_empty() => (ingest_event(rest, ctx, jobs), false),
        "event" => ("err event: missing event atom".to_owned(), false),
        other => (
            format!("err unknown command `{other}` (try: run/event/stats/ping/stop)"),
            false,
        ),
    }
}

/// Handle one `event` request: parse, append the timestamped fact durably
/// through OCC + group commit, then feed the reactor and enqueue every
/// completed match for the trigger scheduler.
///
/// The stored relation has set semantics, so a duplicate `(args, ts)`
/// tuple changes nothing in the database (the append reports `seq=-`), but
/// each ingestion is still a distinct *occurrence* for pattern matching.
fn ingest_event(src: &str, ctx: &ConnCtx, jobs: &mpsc::Sender<TriggerJob>) -> String {
    let started = Instant::now();
    let (name, args, explicit_ts) = match td_parser::parse_event(src) {
        Ok(parts) => parts,
        Err(e) => return format!("err parse: {}", first_line(&e.to_string())),
    };
    let Some(stored) = ctx.engine.program().event_by_name(Symbol::intern(&name)) else {
        return format!("err event: `{name}` is not a declared event relation");
    };
    if stored.arity as usize != args.len() + 1 {
        return format!(
            "err event: `{name}` is declared with arity {}, got {} arguments",
            stored.arity - 1,
            args.len()
        );
    }
    let ts = explicit_ts.unwrap_or_else(now_ms);
    let Ok(ts_int) = i64::try_from(ts) else {
        return "err event: timestamp too large".to_owned();
    };
    let mut values = args.clone();
    values.push(Value::Int(ts_int));
    let tuple = Tuple::new(values);
    let result = ctx.cs.transaction(|db| {
        if db.contains(stored, &tuple) {
            Ok::<_, String>(TxDecision::ReadOnly(()))
        } else {
            let mut delta = Delta::new();
            delta.push(DeltaOp::Ins(stored, tuple.clone()));
            // The duplicate check above read the event relation; nothing
            // else was consulted.
            let mut reads = td_db::ReadSet::new();
            reads.record(stored);
            Ok(TxDecision::commit(delta, reads, ()))
        }
    });
    match result {
        Ok(receipt) => {
            ctx.metrics.add_counter("events.ingested", 1);
            let fires = {
                let mut reactor = ctx.reactor.lock().expect("reactor poisoned by panic");
                reactor.ingest(stored.name, &args, ts)
            };
            let matched = fires.len();
            ctx.metrics.add_counter("triggers.matched", matched as u64);
            for fired in fires {
                // Send can only fail after shutdown joined the scheduler,
                // which cannot happen while this connection is live.
                let _ = jobs.send(TriggerJob { fired, started });
            }
            ok_line(&receipt, &format!("ts={ts} matched={matched}"))
        }
        Err(e) => err_line(&e),
    }
}

/// The trigger scheduler: one thread draining completed matches in order,
/// executing each trigger goal as an ordinary OCC transaction. A single
/// thread gives exactly-once execution per match and a deterministic
/// trigger order (match order); OCC retries handle conflicts with
/// concurrent client transactions.
fn trigger_scheduler(rx: mpsc::Receiver<TriggerJob>, ctx: &ConnCtx) {
    for job in rx {
        run_trigger(ctx, &job);
    }
}

/// What a goal came to on the snapshot its transaction ended on.
struct Solved {
    /// The resolved term of each goal variable; `None` = not executable.
    answer: Option<Vec<Term>>,
    /// Search steps of that last attempt.
    steps: u64,
}

/// One top-level transaction, end to end — a client's goal and a trigger's
/// alike: solve against a snapshot, validate the solution's read set at the
/// head, group-commit, return once durable. A goal that succeeds commits its
/// delta (nothing to write: read-only, no record); one that fails aborts
/// and leaves the database as it was.
fn transact(ctx: &ConnCtx, goal: &Goal) -> Result<Committed<Solved>, TxError<String>> {
    ctx.cs.transaction(|db| match ctx.engine.solve(goal, db) {
        Ok(Outcome::Success(sol)) => {
            let solved = Solved {
                answer: Some(sol.answer),
                steps: sol.stats.steps,
            };
            Ok(if sol.delta.is_empty() {
                TxDecision::ReadOnly(solved)
            } else {
                TxDecision::commit(sol.delta, sol.reads, solved)
            })
        }
        Ok(Outcome::Failure { stats }) => Ok(TxDecision::Abort(Solved {
            answer: None,
            steps: stats.steps,
        })),
        Err(e) => Err(e.to_string()),
    })
}

/// A completed match: its trigger's transaction, counted and timed.
fn run_trigger(ctx: &ConnCtx, job: &TriggerJob) {
    match transact(ctx, &job.fired.goal) {
        Ok(receipt) => {
            if receipt.attempts > 1 {
                let retried = u64::from(receipt.attempts - 1);
                ctx.metrics.add_counter("triggers.conflicted", retried);
            }
            if receipt.value.answer.is_some() {
                ctx.metrics.add_counter("triggers.fired", 1);
            }
        }
        Err(TxError::Conflict { attempts }) => {
            ctx.metrics
                .add_counter("triggers.conflicted", u64::from(attempts));
        }
        Err(_) => {}
    }
    let us = u64::try_from(job.started.elapsed().as_micros()).unwrap_or(u64::MAX);
    ctx.metrics.record(TRIGGER_LATENCY, us);
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// One `run` request: parse the goal, [`transact`] it, render the receipt.
fn run_goal(ctx: &ConnCtx, src: &str) -> String {
    let parsed = match td_parser::parse_goal(src, ctx.engine.program()) {
        Ok(g) => g,
        Err(e) => return format!("err parse: {}", first_line(&e.to_string())),
    };
    match transact(ctx, &parsed.goal) {
        Ok(receipt) => {
            let Solved { answer, steps } = &receipt.value;
            let Some(answer) = answer else {
                return format!("no attempts={} steps={steps}", receipt.attempts);
            };
            let mut body = format!("steps={steps}");
            for (name, term) in parsed.var_names.iter().zip(answer) {
                body.push_str(&format!(" {name}={term}"));
            }
            ok_line(&receipt, &body)
        }
        Err(e) => err_line(&e),
    }
}

/// The reply to a transaction that went through: `ok seq=7 attempts=1 …`,
/// `seq=-` when it left no WAL record.
fn ok_line<T>(receipt: &Committed<T>, body: &str) -> String {
    let seq = receipt
        .seq
        .map_or_else(|| "-".to_owned(), |s| s.to_string());
    format!("ok seq={seq} attempts={} {body}", receipt.attempts)
}

/// The reply to a transaction that did not.
fn err_line(e: &TxError<String>) -> String {
    match e {
        TxError::Conflict { attempts } => {
            format!("err conflict: gave up after {attempts} attempts")
        }
        TxError::Store(e) => format!("err store: {}", first_line(&e.to_string())),
        TxError::App(e) => format!("err engine: {}", first_line(e)),
    }
}

/// The `stats` reply: the [`PUBLISHED`] counters in table order, with the
/// fields that are not counters where the published order has them.
fn stats_line(ctx: &ConnCtx) -> String {
    let (m, s) = read(ctx);
    let latency = m.histogram(TRIGGER_LATENCY);
    let mut line = "ok".to_owned();
    for (key, name) in PUBLISHED {
        line.push_str(&format!(" {key}={}", m.counter(name)));
        match key {
            "retries_exhausted" => {
                let preds = attribution(&ctx.cs.conflict_attribution(), ",");
                line.push_str(&format!(" conflict_preds={preds}"));
            }
            "grouped_records" => line.push_str(&format!(
                " max_group={} mean_group={:.2} durable={}",
                s.max_group,
                s.mean_group(),
                ctx.cs.durable_records(),
            )),
            "triggers_conflicted" => line.push_str(&format!(
                " trigger_p50_us={} trigger_p99_us={} event_partials={}",
                latency.percentile(0.50),
                latency.percentile(0.99),
                partials(&m),
            )),
            _ => {}
        }
    }
    line
}

/// Conflict attribution in one line: `rel/2:5,other/1:1` in the rows' order
/// (sorted by predicate), or `-` when no validation has ever failed.
fn attribution<'a, P: std::fmt::Display + 'a>(
    rows: impl IntoIterator<Item = (&'a P, &'a u64)>,
    separator: &str,
) -> String {
    let rows: Vec<String> = rows.into_iter().map(|(p, n)| format!("{p}:{n}")).collect();
    if rows.is_empty() {
        "-".to_owned()
    } else {
        rows.join(separator)
    }
}

/// Keep the one-line framing: anything that could smuggle a newline into a
/// response (engine error text, odd constants) is flattened.
fn sanitize(reply: &str) -> String {
    if reply.bytes().any(|b| b.is_ascii_control()) {
        reply
            .chars()
            .map(|c| if c.is_control() { ' ' } else { c })
            .collect()
    } else {
        reply.to_owned()
    }
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}
