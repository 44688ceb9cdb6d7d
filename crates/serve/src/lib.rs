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

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;
use td_core::{Symbol, Value};
use td_db::{Delta, DeltaOp, Tuple};
use td_engine::{Engine, EngineConfig, Outcome};
use td_events::Reactor;
use td_parser::ParsedProgram;
use td_store::{ConcurrentStats, ConcurrentStore, Store, TxDecision, TxError, TxOptions};

/// Number of log2 latency buckets: bucket `i` counts trigger executions
/// whose ingest-to-durable latency was in `[2^(i-1), 2^i)` microseconds
/// (bucket 0: zero). 2^31 µs ≈ 36 minutes, ample headroom.
pub const LATENCY_BUCKETS: usize = 32;

/// A log2-bucketed latency histogram, safely shared across threads.
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one latency observation, in microseconds.
    pub fn record(&self, us: u64) {
        let b = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
        };
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
    }

    /// Current bucket counts.
    pub fn snapshot(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The upper bound (µs) of the bucket holding the `p`-th percentile
/// observation — a conservative log2-resolution percentile. Returns 0 for
/// an empty histogram.
pub fn latency_percentile(buckets: &[u64], p: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * p).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= target {
            return if i == 0 { 0 } else { 1u64 << i };
        }
    }
    1u64 << (buckets.len() - 1)
}

/// Counters the server accumulates on top of the store's
/// [`ConcurrentStats`]; everything lands in the `stats` protocol reply and
/// the run report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests served (all verbs).
    pub requests: u64,
    /// Requests answered with `err`.
    pub errors: u64,
    /// Requests (and trigger executions) that exhausted their OCC retry
    /// budget and were answered `err conflict` — the starvation signal the
    /// jittered backoff exists to keep at zero.
    pub retries_exhausted: u64,
}

/// Event/trigger counters and latency as observed at shutdown.
#[derive(Clone, Debug, Default)]
pub struct EventsSummary {
    /// Events ingested durably (the `events.ingested` counter).
    pub ingested: u64,
    /// Completed complex-event matches (`triggers.matched`).
    pub matched: u64,
    /// Trigger transactions executed successfully (`triggers.fired`).
    pub fired: u64,
    /// OCC conflicts hit while executing triggers (`triggers.conflicted`).
    pub conflicted: u64,
    /// Ingest-to-trigger-done latency, p50/p99 upper bounds in µs.
    pub p50_us: u64,
    pub p99_us: u64,
    /// The raw log2 histogram buckets (see [`LATENCY_BUCKETS`]).
    pub latency_buckets: Vec<u64>,
}

/// What [`Server::serve`] hands back after a clean shutdown.
pub struct ServeSummary {
    /// Server-level counters.
    pub counters: ServeCounters,
    /// Store-level OCC/group-commit counters.
    pub stats: ConcurrentStats,
    /// The commit-validation rule the store ran under.
    pub occ: td_store::Validation,
    /// Per-relation conflict attribution, sorted by predicate: which
    /// relations caused validation failures, and how often.
    pub conflict_relations: Vec<(String, u64)>,
    /// Event-ingestion and trigger-execution counters.
    pub events: EventsSummary,
    /// Interner footprint at shutdown ([`Symbol::interned_count`],
    /// [`Symbol::interned_bytes`]) — the documented leak, made observable.
    pub interned_symbols: u64,
    pub interned_bytes: u64,
    /// The underlying store, drained and durable (e.g. for a final
    /// `rotate` or a closing report).
    pub store: Store,
}

struct Shared {
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    retries_exhausted: AtomicU64,
    events_ingested: AtomicU64,
    triggers_matched: AtomicU64,
    triggers_fired: AtomicU64,
    triggers_conflicted: AtomicU64,
    latency: LatencyHistogram,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            events_ingested: AtomicU64::new(0),
            triggers_matched: AtomicU64::new(0),
            triggers_fired: AtomicU64::new(0),
            triggers_conflicted: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    fn events_summary(&self) -> EventsSummary {
        let buckets = self.latency.snapshot();
        EventsSummary {
            ingested: self.events_ingested.load(Ordering::Relaxed),
            matched: self.triggers_matched.load(Ordering::Relaxed),
            fired: self.triggers_fired.load(Ordering::Relaxed),
            conflicted: self.triggers_conflicted.load(Ordering::Relaxed),
            p50_us: latency_percentile(&buckets, 0.50),
            p99_us: latency_percentile(&buckets, 0.99),
            latency_buckets: buckets,
        }
    }
}

/// Everything a connection handler or the trigger scheduler needs, shared
/// once behind an `Arc`.
struct ConnCtx {
    program: ParsedProgram,
    config: EngineConfig,
    cs: ConcurrentStore,
    shared: Shared,
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

    /// Convenience: open (or initialize, seeding `init` facts) the store
    /// directory and build the server.
    pub fn open(
        program: ParsedProgram,
        config: EngineConfig,
        dir: &Path,
        tx: TxOptions,
    ) -> td_store::Result<Server> {
        let store = open_or_init_store(dir, &program)?;
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
            program: self.program,
            config: self.config,
            cs: self.store.clone(),
            shared: Shared::new(),
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
            if ctx.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            ctx.shared.connections.fetch_add(1, Ordering::Relaxed);
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
        let counters = ServeCounters {
            connections: ctx.shared.connections.load(Ordering::Relaxed),
            requests: ctx.shared.requests.load(Ordering::Relaxed),
            errors: ctx.shared.errors.load(Ordering::Relaxed),
            retries_exhausted: ctx.shared.retries_exhausted.load(Ordering::Relaxed),
        };
        let events = ctx.shared.events_summary();
        let stats = self.store.stats();
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
            counters,
            stats,
            occ,
            conflict_relations,
            events,
            interned_symbols: Symbol::interned_count(),
            interned_bytes: Symbol::interned_bytes(),
            store,
        })
    }
}

/// Open-or-init with the same seeding rule as `td run --db`: a fresh store
/// starts from the program's schema and commits the `init` facts as WAL
/// record 0.
pub fn open_or_init_store(dir: &Path, parsed: &ParsedProgram) -> td_store::Result<Store> {
    if Store::is_initialized(dir) {
        return Store::open(dir);
    }
    let schema = td_db::Database::with_schema_of(&parsed.program);
    let mut store = Store::init(dir, &schema)?;
    let with_init = td_engine::load_init(&schema, &parsed.init)
        .map_err(|e| td_store::StoreError::Db(e.to_string()))?;
    let mut genesis = td_db::Delta::new();
    for p in with_init.preds() {
        if let Some(rel) = with_init.relation(p) {
            for t in rel.to_vec() {
                genesis.push(td_db::DeltaOp::Ins(p, t));
            }
        }
    }
    if !genesis.is_empty() {
        store.commit(&genesis)?;
    }
    Ok(store)
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
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let request = line.trim();
        if request.is_empty() {
            continue;
        }
        ctx.shared.requests.fetch_add(1, Ordering::Relaxed);
        let (reply, stop) = dispatch(request, &engine, ctx, jobs);
        if reply.starts_with("err ") {
            ctx.shared.errors.fetch_add(1, Ordering::Relaxed);
        }
        if writeln!(writer, "{}", sanitize(&reply)).is_err() {
            break;
        }
        if stop {
            ctx.shared.shutdown.store(true, Ordering::SeqCst);
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
            ctx.shared.events_ingested.fetch_add(1, Ordering::Relaxed);
            let fires = {
                let mut reactor = ctx.reactor.lock().expect("reactor poisoned by panic");
                reactor.ingest(stored.name, &args, ts)
            };
            let matched = fires.len();
            ctx.shared
                .triggers_matched
                .fetch_add(matched as u64, Ordering::Relaxed);
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
            ctx.shared.retries_exhausted.fetch_add(1, Ordering::Relaxed);
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
    let shared = &ctx.shared;
    match result {
        Ok(receipt) => {
            if receipt.attempts > 1 {
                shared
                    .triggers_conflicted
                    .fetch_add(u64::from(receipt.attempts - 1), Ordering::Relaxed);
            }
            if receipt.value {
                shared.triggers_fired.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(TxError::Conflict { attempts }) => {
            shared
                .triggers_conflicted
                .fetch_add(u64::from(attempts), Ordering::Relaxed);
            shared.retries_exhausted.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {}
    }
    let us = u64::try_from(job.started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.latency.record(us);
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
            ctx.shared.retries_exhausted.fetch_add(1, Ordering::Relaxed);
            format!("err conflict: gave up after {attempts} attempts")
        }
        Err(TxError::Store(e)) => format!("err store: {}", first_line(&e.to_string())),
        Err(TxError::App(e)) => format!("err engine: {}", first_line(&e)),
    }
}

fn stats_line(ctx: &ConnCtx) -> String {
    let s = ctx.cs.stats();
    let shared = &ctx.shared;
    let ev = shared.events_summary();
    format!(
        "ok occ={} commits={} read_only={} aborts={} conflicts={} conflict_failures={} \
         retries_exhausted={} conflict_preds={} \
         groups={} grouped_records={} max_group={} mean_group={:.2} durable={} \
         connections={} requests={} errors={} interned_syms={} interned_bytes={} \
         events_ingested={} triggers_matched={} triggers_fired={} \
         triggers_conflicted={} trigger_p50_us={} trigger_p99_us={}",
        ctx.cs.options().validation,
        s.commits,
        s.read_only,
        s.aborts,
        s.conflicts,
        s.conflict_failures,
        shared.retries_exhausted.load(Ordering::Relaxed),
        conflict_preds_field(&ctx.cs),
        s.groups,
        s.grouped_records,
        s.max_group,
        s.mean_group(),
        ctx.cs.durable_records(),
        shared.connections.load(Ordering::Relaxed),
        shared.requests.load(Ordering::Relaxed),
        shared.errors.load(Ordering::Relaxed),
        Symbol::interned_count(),
        Symbol::interned_bytes(),
        ev.ingested,
        ev.matched,
        ev.fired,
        ev.conflicted,
        ev.p50_us,
        ev.p99_us,
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
