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
//! ## Protocol
//!
//! Line-oriented UTF-8 text, one request per line, one response line per
//! request (newline-terminated; control characters in answers are
//! replaced with spaces to preserve framing):
//!
//! ```text
//! -> run <goal>          e.g.  run transfer(a, b, 10)
//! <- ok seq=7 attempts=1 steps=42 X=3        committed at WAL seq 7
//! <- ok seq=- attempts=1 steps=9 X=3         succeeded read-only
//! <- no attempts=1 steps=17                  goal not executable
//! <- err <reason>                            parse/engine/store error
//!
//! -> event <e>(<args>) [at <ts>]   append one event occurrence
//! <- ok seq=9 attempts=1 ts=1712 matched=1   durable; 1 pattern match
//!
//! -> stats               one `ok` line of counters (see [`Server`] docs)
//! -> ping                `ok pong` liveness probe
//! -> stop                `ok stopping`; server drains and exits
//! ```
//!
//! A `run` response is sent only after the commit (if any) is
//! fsync-durable; `seq=-` marks read-only or failed goals, which leave no
//! WAL record.
//!
//! ## Events and triggers
//!
//! The `event` verb appends a timestamped ground fact to a declared event
//! relation through the same OCC + group-commit path as `run` — a burst of
//! events from many connections batches into few fsyncs. Once the append
//! is durable the event is fed to the [`td_events::Reactor`], and every
//! completed complex-event match enqueues its trigger goal to a dedicated
//! scheduler thread, which executes it as an ordinary OCC transaction.
//! Matches fire exactly once per match while the server lives; queued
//! trigger executions are *not* crash-durable (see `docs/EVENTS.md`).

pub mod client;

pub use client::{Client, Reply};

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;
use td_core::{Symbol, Value};
use td_db::{Database, Delta, DeltaOp, Tuple};
use td_engine::obs::{json_array, json_object};
use td_engine::{Engine, EngineConfig, JsonObject, MetricsRegistry, MetricsSnapshot, Outcome};
use td_events::Reactor;
use td_parser::ParsedProgram;
use td_store::{ConcurrentStats, ConcurrentStore, Store, TxDecision, TxError, TxOptions};

/// The counters the server itself increments, by registry name. They are
/// registered at zero when the server starts, so every one is published
/// from the first `stats` reply on; the commit-path counters are the
/// store's ([`ConcurrentStats`]) and join them in [`read`].
const COUNTERS: [&str; 8] = [
    "serve.connections",
    "serve.requests",
    "serve.errors",
    // Requests and trigger executions that exhausted their OCC retry budget
    // — the starvation signal the jittered backoff exists to keep at zero.
    "serve.retries_exhausted",
    "events.ingested",
    "triggers.matched",
    "triggers.fired",
    "triggers.conflicted",
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
        ("serve.conflict_failures", stats.conflict_failures),
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
    /// The commit-validation rule the store ran under.
    pub occ: td_store::Validation,
    /// Per-relation conflict attribution, sorted by predicate: which
    /// relations caused validation failures, and how often.
    pub conflict_relations: Vec<(String, u64)>,
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
             (mean group {:.2}, max {}), {} conflicts, {} read-only, {} aborts \
             [occ={}]",
            c("serve.connections"),
            c("serve.requests"),
            c("serve.commits"),
            c("serve.groups"),
            self.stats.mean_group(),
            self.stats.max_group,
            c("serve.conflicts"),
            c("serve.read_only"),
            c("serve.aborts"),
            self.occ,
        )];
        if !self.conflict_relations.is_empty() || c("serve.retries_exhausted") > 0 {
            let attribution: Vec<String> = self
                .conflict_relations
                .iter()
                .map(|(p, n)| format!("{p}:{n}"))
                .collect();
            lines.push(format!(
                "serve: conflicts by relation: {} ({} transactions exhausted \
                 their retry budget)",
                if attribution.is_empty() {
                    "-".to_owned()
                } else {
                    attribution.join(", ")
                },
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
    /// `socket`.
    pub fn report_section(&self, socket: &str) -> String {
        let c = |name: &str| self.metrics.counter(name);
        let latency = self.metrics.histogram(TRIGGER_LATENCY);
        let events = JsonObject::new()
            .field("ingested", c("events.ingested"))
            .field("matched", c("triggers.matched"))
            .field("fired", c("triggers.fired"))
            .field("conflicted", c("triggers.conflicted"))
            .field("p50_us", latency.percentile(0.50))
            .field("p99_us", latency.percentile(0.99))
            .field("latency_buckets", json_array(latency.buckets()))
            .field("partials", partials(&self.metrics))
            .field("dropped", c("events.dropped"));
        let conflicts = self.conflict_relations.iter().map(|(p, n)| (p, n));
        JsonObject::new()
            .string("socket", socket)
            .field("connections", c("serve.connections"))
            .field("requests", c("serve.requests"))
            .field("errors", c("serve.errors"))
            .field("commits", c("serve.commits"))
            .field("read_only", c("serve.read_only"))
            .field("aborts", c("serve.aborts"))
            .field("conflicts", c("serve.conflicts"))
            .string("occ", self.occ)
            .field("retries_exhausted", c("serve.retries_exhausted"))
            .field("conflict_relations", json_object(conflicts))
            .field("groups", c("serve.groups"))
            .field("grouped_records", c("serve.grouped_records"))
            .field("max_group", self.stats.max_group)
            .field("interned_symbols", c("serve.interned_symbols"))
            .field("interned_bytes", c("serve.interned_bytes"))
            .field("events", events.finish())
            .finish()
    }
}

/// Everything a connection handler or the trigger scheduler needs, shared
/// once behind an `Arc`.
struct ConnCtx {
    program: ParsedProgram,
    config: EngineConfig,
    cs: ConcurrentStore,
    /// The server's one registry: every counter in [`COUNTERS`] and the
    /// [`TRIGGER_LATENCY`] histogram live here and nowhere else.
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
        let metrics = MetricsRegistry::new();
        for name in COUNTERS {
            metrics.add_counter(name, 0);
        }
        let ctx = Arc::new(ConnCtx {
            program: self.program,
            config: self.config,
            cs: self.store.clone(),
            metrics,
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
        let occ = self.store.options().validation;
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
            occ,
            conflict_relations,
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
    // One engine per connection: `Engine` is not shared across threads, and
    // per-connection caches warm up across a client's requests.
    let engine = Engine::with_config(ctx.program.program.clone(), ctx.config.clone());
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
            Ok(request) => dispatch(request, &engine, ctx, jobs),
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

fn dispatch(
    request: &str,
    engine: &Engine,
    ctx: &ConnCtx,
    jobs: &mpsc::Sender<TriggerJob>,
) -> (String, bool) {
    let (verb, rest) = match request.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (request, ""),
    };
    match verb {
        "ping" => ("ok pong".to_owned(), false),
        "stop" => ("ok stopping".to_owned(), true),
        "stats" => (stats_line(ctx), false),
        "run" if !rest.is_empty() => (run_goal(engine, ctx, rest), false),
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
    let Some(stored) = ctx.program.program.event_by_name(Symbol::intern(&name)) else {
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
            Ok::<_, std::convert::Infallible>(TxDecision::ReadOnly(()))
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
            let seq = receipt
                .seq
                .map_or_else(|| "-".to_owned(), |s| s.to_string());
            format!(
                "ok seq={seq} attempts={} ts={ts} matched={matched}",
                receipt.attempts
            )
        }
        Err(TxError::Conflict { attempts }) => {
            ctx.metrics.add_counter("serve.retries_exhausted", 1);
            format!("err conflict: gave up after {attempts} attempts")
        }
        Err(TxError::Store(e)) => format!("err store: {}", first_line(&e.to_string())),
        Err(TxError::App(e)) => match e {},
    }
}

/// The trigger scheduler: one thread draining completed matches in order,
/// executing each trigger goal as an ordinary OCC transaction. A single
/// thread gives exactly-once execution per match and a deterministic
/// trigger order (match order); OCC retries handle conflicts with
/// concurrent client transactions.
fn trigger_scheduler(rx: mpsc::Receiver<TriggerJob>, ctx: &ConnCtx) {
    let engine = Engine::with_config(ctx.program.program.clone(), ctx.config.clone());
    for job in rx {
        run_trigger(&engine, ctx, &job);
    }
}

fn run_trigger(engine: &Engine, ctx: &ConnCtx, job: &TriggerJob) {
    let result = ctx
        .cs
        .transaction(|db| match engine.solve(&job.fired.goal, db) {
            Ok(Outcome::Success(sol)) => {
                if sol.delta.is_empty() {
                    Ok(TxDecision::ReadOnly(true))
                } else {
                    Ok(TxDecision::commit(
                        sol.delta.clone(),
                        sol.reads.clone(),
                        true,
                    ))
                }
            }
            Ok(Outcome::Failure { .. }) => Ok(TxDecision::Abort(false)),
            Err(e) => Err(e.to_string()),
        });
    match result {
        Ok(receipt) => {
            if receipt.attempts > 1 {
                let retried = u64::from(receipt.attempts - 1);
                ctx.metrics.add_counter("triggers.conflicted", retried);
            }
            if receipt.value {
                ctx.metrics.add_counter("triggers.fired", 1);
            }
        }
        Err(TxError::Conflict { attempts }) => {
            ctx.metrics
                .add_counter("triggers.conflicted", u64::from(attempts));
            ctx.metrics.add_counter("serve.retries_exhausted", 1);
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

/// One request = one top-level transaction, end to end: parse, solve
/// against a snapshot, validate the solution's read set at the head,
/// group-commit, acknowledge durable.
fn run_goal(engine: &Engine, ctx: &ConnCtx, src: &str) -> String {
    let parsed = match td_parser::parse_goal(src, &ctx.program.program) {
        Ok(g) => g,
        Err(e) => return format!("err parse: {}", first_line(&e.to_string())),
    };
    let result = ctx
        .cs
        .transaction(|db| match engine.solve(&parsed.goal, db) {
            Ok(Outcome::Success(sol)) => {
                let mut bindings = String::new();
                for (i, name) in parsed.var_names.iter().enumerate() {
                    bindings.push_str(&format!(" {name}={}", sol.answer[i]));
                }
                let body = format!("steps={}{}", sol.stats.steps, bindings);
                if sol.delta.is_empty() {
                    Ok(TxDecision::ReadOnly((true, body)))
                } else {
                    Ok(TxDecision::commit(
                        sol.delta.clone(),
                        sol.reads.clone(),
                        (true, body),
                    ))
                }
            }
            Ok(Outcome::Failure { stats }) => {
                Ok(TxDecision::Abort((false, format!("steps={}", stats.steps))))
            }
            Err(e) => Err(e.to_string()),
        });
    match result {
        Ok(receipt) => {
            let (yes, body) = receipt.value;
            if yes {
                let seq = receipt
                    .seq
                    .map_or_else(|| "-".to_owned(), |s| s.to_string());
                format!("ok seq={seq} attempts={} {body}", receipt.attempts)
            } else {
                format!("no attempts={} {body}", receipt.attempts)
            }
        }
        Err(TxError::Conflict { attempts }) => {
            ctx.metrics.add_counter("serve.retries_exhausted", 1);
            format!("err conflict: gave up after {attempts} attempts")
        }
        Err(TxError::Store(e)) => format!("err store: {}", first_line(&e.to_string())),
        Err(TxError::App(e)) => format!("err engine: {}", first_line(&e)),
    }
}

fn stats_line(ctx: &ConnCtx) -> String {
    let (m, s) = read(ctx);
    let c = |name: &str| m.counter(name);
    let latency = m.histogram(TRIGGER_LATENCY);
    format!(
        "ok occ={} commits={} read_only={} aborts={} conflicts={} conflict_failures={} \
         retries_exhausted={} conflict_preds={} \
         groups={} grouped_records={} max_group={} mean_group={:.2} durable={} \
         connections={} requests={} errors={} interned_syms={} interned_bytes={} \
         events_ingested={} triggers_matched={} triggers_fired={} \
         triggers_conflicted={} trigger_p50_us={} trigger_p99_us={} \
         event_partials={} events_dropped={}",
        ctx.cs.options().validation,
        c("serve.commits"),
        c("serve.read_only"),
        c("serve.aborts"),
        c("serve.conflicts"),
        c("serve.conflict_failures"),
        c("serve.retries_exhausted"),
        conflict_preds_field(&ctx.cs),
        c("serve.groups"),
        c("serve.grouped_records"),
        s.max_group,
        s.mean_group(),
        ctx.cs.durable_records(),
        c("serve.connections"),
        c("serve.requests"),
        c("serve.errors"),
        c("serve.interned_symbols"),
        c("serve.interned_bytes"),
        c("events.ingested"),
        c("triggers.matched"),
        c("triggers.fired"),
        c("triggers.conflicted"),
        latency.percentile(0.50),
        latency.percentile(0.99),
        partials(&m),
        c("events.dropped"),
    )
}

/// Conflict attribution as one protocol field: `rel/2:5,other/1:1` sorted
/// by predicate, or `-` when no validation has ever failed.
fn conflict_preds_field(cs: &ConcurrentStore) -> String {
    let attr = cs.conflict_attribution();
    if attr.is_empty() {
        return "-".to_owned();
    }
    attr.into_iter()
        .map(|(p, n)| format!("{p}:{n}"))
        .collect::<Vec<_>>()
        .join(",")
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
