//! `td` — command-line runner for Transaction Datalog programs.
//!
//! ```text
//! td run <file.td>        execute each ?- goal in the file, print outcomes
//! td trace <file.td>      like run, but print the committed execution trace
//! td fragment <file.td>   classify the program into the paper's sublanguages
//! td decide <file.td>     decide executability with the memoizing decider
//! td repl <file.td>       load the file, read goals interactively
//!
//! td serve <file.td> --db=DIR [--socket=PATH]
//!                         long-running multi-client transaction server:
//!                         the file's rules define the transactions, state
//!                         lives in the store, clients connect over a Unix
//!                         socket; the engine options below configure the
//!                         server's one engine, which every connection
//!                         solves through (see docs/SERVE.md)
//! td client <request...> --socket=PATH
//!                         send one protocol request (`run <goal>`, `stats`,
//!                         `ping`, `stop`) to a running server
//!
//! td db init <DIR> [file.td]   create a durable store (schema + init facts
//!                              from the program file, when given)
//! td db snapshot <DIR>         compact: fold the WAL into a fresh snapshot
//! td db verify <DIR>           cold integrity pass (checksums + digests)
//! td db log <DIR>              list the committed WAL records
//!
//! options (before the file):
//!   --strategy=exhaustive|random|round-robin|leftmost
//!   --seed=N               seed for --strategy=random (rejected otherwise)
//!   --max-steps=N          step budget (default 10000000); under `decide`
//!                          it also bounds the configuration count
//!   --subgoal-cache        memoize isolated blocks and sole-frontier ground
//!                          calls as replayable answer sets (exhaustive
//!                          strategy, tracing off; see docs/CACHING.md).
//!                          Incompatible with `td trace` (rejected).
//!   --cache-capacity=N     subgoal-cache entry bound (default 65536;
//!                          requires --subgoal-cache)
//!   --materialize          maintain the program's Datalog-evaluable derived
//!                          predicates as materialized views updated
//!                          incrementally from committed deltas; ground
//!                          sole-frontier calls on them become indexed
//!                          probes (see docs/INCREMENTAL.md); under `serve`
//!                          every connection reads the views of the version
//!                          it started on. Incompatible with `td trace`
//!                          (rejected), and rejected when the program has
//!                          no materializable predicate
//!   --report=PATH          write a JSON run report (outcome, wall time,
//!                          metrics registry snapshot, requested+effective
//!                          config, final-state digest) — run/trace/decide
//!   --log-json=PATH        write the structured event stream as JSON Lines
//!                          (span enter/exit, cache probes) —
//!                          run/trace/decide
//!   --db=DIR               back the run with a durable store: open (crash-
//!                          recovering) or create DIR, run goals from the
//!                          recovered state, commit each successful goal
//!                          through the WAL with fsync — run/repl; `decide`
//!                          reads the store without committing. Incompatible
//!                          with `td trace` (rejected: the committed-path
//!                          trace replays from a fixed initial state).
//!
//! See docs/OBSERVABILITY.md for the report schema and event vocabulary,
//! docs/PERSISTENCE.md for the on-disk store format and recovery rules.
//! ```

use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use td_core::{FragmentReport, Goal, Program};
use td_db::{Database, Delta};
use td_engine::{
    decider::DeciderConfig, load_init, Engine, EngineConfig, GoalReport, JsonObject, Materializer,
    Observer, Outcome, RunReport, Solution, Strategy,
};
use td_parser::{parse_goal, parse_program, ParsedGoal, ParsedProgram};
use td_store::{Store, WalTail};

/// Everything the command line resolved to: the engine configuration plus
/// the CLI-level output options.
#[derive(Debug)]
struct CliOptions {
    config: EngineConfig,
    /// `--log-json=PATH`: structured event stream destination.
    log_json: Option<String>,
    /// `--report=PATH`: JSON run report destination.
    report: Option<String>,
    /// `--db=DIR`: durable store backing the run.
    db: Option<String>,
    /// `--socket=PATH`: Unix socket for `serve`/`client`.
    socket: Option<String>,
    /// Names of the options present on the command line, for per-command
    /// incompatibility checks (`serve`/`client` reject most engine flags
    /// loudly instead of ignoring them — the PR-3/PR-5 fail-fast rule).
    seen: Vec<&'static str>,
}

fn parse_options(args: &[String]) -> Result<(CliOptions, Vec<&String>), String> {
    let mut config = EngineConfig::default();
    let mut seed: Option<u64> = None;
    let mut strategy: Option<&str> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut log_json = None;
    let mut report = None;
    let mut db = None;
    let mut socket = None;
    let mut seen = Vec::new();
    let mut rest = Vec::new();
    for a in args {
        if let Some(v) = a.strip_prefix("--strategy=") {
            seen.push("--strategy");
            strategy = Some(match v {
                "exhaustive" | "random" | "round-robin" | "leftmost" => v,
                other => return Err(format!("unknown strategy `{other}`")),
            });
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seen.push("--seed");
            seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
        } else if let Some(v) = a.strip_prefix("--max-steps=") {
            seen.push("--max-steps");
            config.max_steps = v.parse().map_err(|_| format!("bad step budget `{v}`"))?;
        } else if a == "--subgoal-cache" {
            seen.push("--subgoal-cache");
            config.subgoal_cache = true;
        } else if a == "--materialize" {
            seen.push("--materialize");
            config.materialize = true;
        } else if let Some(v) = a.strip_prefix("--cache-capacity=") {
            seen.push("--cache-capacity");
            cache_capacity = Some(
                v.parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| format!("bad cache capacity `{v}`"))?,
            );
        } else if let Some(v) = a.strip_prefix("--log-json=") {
            seen.push("--log-json");
            log_json = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--report=") {
            seen.push("--report");
            report = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--db=") {
            seen.push("--db");
            db = Some(validate_db_path(v)?);
        } else if let Some(v) = a.strip_prefix("--socket=") {
            seen.push("--socket");
            if v.is_empty() {
                return Err("--socket needs a path".into());
            }
            socket = Some(v.to_owned());
        } else if a.starts_with("--") {
            return Err(format!("unknown option `{a}`"));
        } else {
            rest.push(a);
        }
    }
    config.strategy = match strategy {
        None | Some("exhaustive") => Strategy::Exhaustive,
        Some("random") => Strategy::ExhaustiveRandom(seed.unwrap_or(0)),
        Some("round-robin") => Strategy::RoundRobin,
        Some("leftmost") => Strategy::Leftmost,
        Some(_) => unreachable!("validated above"),
    };
    // A seed without the random strategy used to be read and then silently
    // ignored; reject it so the run the user asked for is the run they get.
    if seed.is_some() && !matches!(config.strategy, Strategy::ExhaustiveRandom(_)) {
        return Err("--seed only applies with --strategy=random".into());
    }
    // Same for a capacity bound without the cache it would bound.
    match cache_capacity {
        Some(n) if config.subgoal_cache => config.cache_capacity = n,
        Some(_) => return Err("--cache-capacity requires --subgoal-cache".into()),
        None => {}
    }
    Ok((
        CliOptions {
            config,
            log_json,
            report,
            db,
            socket,
            seen,
        },
        rest,
    ))
}

/// Fail-fast validation of a `--db=DIR` / `td db … DIR` store path: a typo'd
/// path should exit 2 before any search runs, not strand a WAL nowhere. The
/// directory itself may not exist yet (first run creates it), but its parent
/// must, and an existing path must be a directory.
fn validate_db_path(v: &str) -> Result<String, String> {
    if v.is_empty() {
        return Err("--db needs a directory path".into());
    }
    let p = Path::new(v);
    if p.exists() {
        if !p.is_dir() {
            return Err(format!("store path `{v}` exists and is not a directory"));
        }
    } else {
        let parent = match p.parent() {
            Some(q) if !q.as_os_str().is_empty() => q,
            _ => Path::new("."),
        };
        if !parent.is_dir() {
            return Err(format!(
                "store path `{v}`: parent directory `{}` does not exist",
                parent.display()
            ));
        }
    }
    Ok(v.to_owned())
}

/// The commands that take a program file, checked before the file is read.
const COMMANDS: &[&str] = &["run", "trace", "fragment", "decide", "repl", "serve"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, positional) = match parse_options(&args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("td: {msg}");
            return ExitCode::from(2);
        }
    };
    if positional.first().map(|s| s.as_str()) == Some("db") {
        // The store commands take no options; one given here would be
        // accepted and dropped.
        if let Some(flag) = opts.seen.first() {
            eprintln!(
                "td: {flag} does not apply to `db`: the store commands take no \
                 options (see docs/PERSISTENCE.md); drop the flag"
            );
            return ExitCode::from(2);
        }
        return db_command(&positional[1..]);
    }
    if positional.first().map(|s| s.as_str()) == Some("client") {
        return client_command(&positional[1..], &opts);
    }
    // Events only exist inside a running server: there is no store-side
    // event queue a standalone command could append to. Point at the one
    // verb that works instead of inventing a second, subtly different path.
    if positional.first().map(|s| s.as_str()) == Some("event") {
        eprintln!(
            "td: `event` is a server request, not a top-level command; \
             ingest with `td client event '<atom>' --socket=PATH` against a \
             running `td serve` (see docs/EVENTS.md)"
        );
        return ExitCode::from(2);
    }
    let (cmd, file) = match positional.as_slice() {
        [cmd, file] => (cmd.as_str(), file.as_str()),
        _ => {
            eprintln!(
                "usage: td [--strategy=S] [--seed=N] [--max-steps=N] \
       [--subgoal-cache] [--cache-capacity=N] [--materialize] \
       [--report=PATH] [--log-json=PATH] [--db=DIR] \
       <run|trace|fragment|decide|repl> <file.td>\n\
       td serve <file.td> --db=DIR [--socket=PATH] [--report=PATH]\n\
       td client <request...> --socket=PATH\n\
       td db <init|snapshot|verify|log> <DIR> [file.td]"
            );
            return ExitCode::from(2);
        }
    };
    if !COMMANDS.contains(&cmd) {
        eprintln!("td: unknown command `{cmd}`");
        return ExitCode::from(2);
    }
    // `serve` admits concurrent clients over one store; most per-run flags
    // are meaningless or misleading there, and the PR-3/PR-5 precedent is
    // to refuse loudly rather than silently ignore. The full matrix:
    //   --db        required (the server exists to share the durable store)
    //   --socket    optional (defaults to <db-dir>/td.sock)
    //   --report    allowed (written at shutdown, `serve` section filled)
    //   --strategy=random / --seed   rejected: retries under OCC re-run a
    //               goal at unpredictable times; a seed cannot make the
    //               server reproducible, so accepting one would lie
    //   --log-json  rejected: the event stream is a per-run artifact with
    //               one timeline; concurrent connections interleave
    // (everything engine-local — --max-steps, --subgoal-cache,
    // --cache-capacity, --materialize —
    // configures the server's one engine, which every connection solves
    // through, and stays accepted.)
    if cmd == "serve" {
        if opts.db.is_none() {
            eprintln!("td: serve requires --db=DIR (the store the server shares)");
            return ExitCode::from(2);
        }
        if matches!(opts.config.strategy, Strategy::ExhaustiveRandom(_)) {
            eprintln!(
                "td: --strategy=random cannot be combined with `serve`: OCC \
                 retries re-run goals at unpredictable times, so a seed \
                 cannot make the server reproducible; drop the flag"
            );
            return ExitCode::from(2);
        }
        if opts.log_json.is_some() {
            eprintln!(
                "td: --log-json cannot be combined with `serve`: the event \
                 stream is a single-run timeline and concurrent connections \
                 interleave; use --report for aggregate counters"
            );
            return ExitCode::from(2);
        }
    } else if opts.socket.is_some() {
        eprintln!("td: --socket only applies to `serve` and `client`");
        return ExitCode::from(2);
    }
    // Tracing and the subgoal cache are semantically incompatible (a
    // replayed answer set is one macro-step with no elementary events to
    // record). The engine used to gate the cache off silently; refuse the
    // combination instead of quietly changing what runs.
    if cmd == "trace" && opts.config.subgoal_cache {
        eprintln!(
            "td: --subgoal-cache cannot be combined with `trace`: tracing \
             disables the cache (see docs/CACHING.md); drop one of the two"
        );
        return ExitCode::from(2);
    }
    // Same incompatibility for materialized probes: a probe is one
    // macro-step with no elementary events for the trace to record, so
    // tracing turns the flag into a silent no-op. Refuse the combination.
    if cmd == "trace" && opts.config.materialize {
        eprintln!(
            "td: --materialize cannot be combined with `trace`: tracing \
             disables materialized probes (see docs/INCREMENTAL.md); drop \
             one of the two"
        );
        return ExitCode::from(2);
    }
    if (opts.report.is_some() || opts.log_json.is_some())
        && !matches!(cmd, "run" | "trace" | "decide" | "serve")
    {
        eprintln!("td: --report/--log-json only apply to `run`, `trace`, `decide` and `serve`");
        return ExitCode::from(2);
    }
    // The committed-path trace replays a goal's elementary operations from a
    // fixed initial state; a store that was recovered mid-history has no
    // such state to anchor the rendering. Refuse rather than mislead.
    if cmd == "trace" && opts.db.is_some() {
        eprintln!(
            "td: --db cannot be combined with `trace`: trace replays from the \
             program's init state, not a recovered store; use `td run --db` \
             or `td db log`"
        );
        return ExitCode::from(2);
    }
    if opts.db.is_some() && !matches!(cmd, "run" | "decide" | "repl" | "serve") {
        eprintln!("td: --db only applies to `run`, `decide`, `repl` and `serve`");
        return ExitCode::from(2);
    }
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("td: cannot read `{file}`: {e}");
            return ExitCode::from(2);
        }
    };
    let parsed = match parse_program(&src) {
        Ok(p) => p,
        Err(errs) => {
            eprintln!("{}", errs.render(&src));
            return ExitCode::FAILURE;
        }
    };
    // Triggers only fire on ingested events, and events only arrive through
    // a running server. Under run/trace/decide/repl the `on … do …` rules
    // would parse and then never do anything — a silent no-op that reads as
    // a working program. Refuse instead. (`fragment` stays accepted: it
    // classifies the rule set, it does not execute it.)
    if !parsed.triggers.is_empty() && !matches!(cmd, "serve" | "fragment") {
        eprintln!(
            "td: `{file}` declares triggers (`on … do …`), which only fire \
             on events ingested into a running server; use `td serve` (see \
             docs/EVENTS.md) or remove the trigger rules"
        );
        return ExitCode::from(2);
    }
    // `--materialize` on a program with nothing to materialize used to be
    // conceivable as a silent no-op; reject it instead, naming the reason,
    // so the run the user asked for is the run they get.
    if opts.config.materialize {
        if let Err(e) = Materializer::of(&parsed.program) {
            eprintln!(
                "td: --materialize does not apply to `{file}`: {e} \
                 (see docs/INCREMENTAL.md)"
            );
            return ExitCode::from(2);
        }
    }
    // `serve` opens the store itself (the server holds the advisory lock
    // for its whole lifetime), so it dispatches before the generic open.
    if cmd == "serve" {
        return serve_command(parsed, &opts, file);
    }
    // With `--db` the store is the source of truth: a fresh store is seeded
    // with the program's schema and init facts (committed as the genesis WAL
    // record); a recovered store keeps its accumulated state and the
    // program's init facts are *not* re-applied.
    let mut store = match &opts.db {
        Some(dir) => match open_store(Path::new(dir), &parsed) {
            Ok(s) => {
                let r = s.recovery();
                println!(
                    "store: {} ({} records replayed, {} tuples{})",
                    r.outcome.as_str(),
                    r.replayed,
                    s.db().total_tuples(),
                    if r.torn_bytes > 0 {
                        format!(", {} torn bytes cut", r.torn_bytes)
                    } else {
                        String::new()
                    }
                );
                Some(s)
            }
            Err(e) => {
                eprintln!("td: opening store `{dir}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let db = match &store {
        Some(s) => s.db().clone(),
        None => {
            let db = Database::with_schema_of(&parsed.program);
            match load_init(&db, &parsed.init) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("td: loading init facts: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    match cmd {
        "run" => run(&parsed, db, &opts, file, store.as_mut()),
        "trace" => trace(&parsed, db, &opts, file),
        "fragment" => fragment(&parsed),
        "decide" => decide(&parsed, db, &opts, file, store.as_ref()),
        "repl" => repl(&parsed, db, opts.config, store.as_mut()),
        other => unreachable!("`{other}` is in COMMANDS and `serve` dispatched above"),
    }
}

/// `td serve <file.td> --db=DIR [--socket=PATH] [--report=PATH]` — run the
/// multi-client transaction server until a client sends `stop`. The file's
/// rules define the available transactions; state lives in the store (a
/// fresh store is seeded with the file's `init` facts, like `td run --db`).
fn serve_command(parsed: ParsedProgram, opts: &CliOptions, file: &str) -> ExitCode {
    let dir = opts.db.as_deref().expect("checked by the caller");
    let socket = opts
        .socket
        .clone()
        .unwrap_or_else(|| format!("{}/td.sock", dir.trim_end_matches('/')));
    let started = Instant::now();
    let tx = td_store::TxOptions::default();
    let server = match td_serve::Server::open(parsed, opts.config.clone(), Path::new(dir), tx) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("td: opening store `{dir}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serve: store `{dir}`, socket `{socket}` \
         (stop with `td client stop --socket={socket}`)"
    );
    let summary = match server.serve(Path::new(&socket)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("td: serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in summary.lines() {
        println!("{line}");
    }
    let mut ok = true;
    if let Some(path) = &opts.report {
        let db = summary.store.db();
        let mut sections = summary.engine.report_sections();
        sections.push(("store", Some(store_section(&summary.store))));
        sections.push(("serve", Some(summary.report_section(&socket))));
        ok = write_report(
            path,
            &RunReport {
                command: "serve".to_owned(),
                file: file.to_owned(),
                config: opts.config.clone(),
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
                goals: Vec::new(),
                final_state: Some((db.digest(), db.total_tuples() as u64)),
                sections,
                metrics: summary.metrics,
            },
        );
    }
    exit_code(ok)
}

/// `td client <request...> --socket=PATH` — send one protocol request to a
/// running server and print its response line. Exits 0 on an `ok` reply, 1
/// on `no`/`err` (like a failing goal under `td run`).
fn client_command(args: &[&String], opts: &CliOptions) -> ExitCode {
    // Requests execute under the *server's* engine configuration; any flag
    // but the socket's would be silently ignored, so refuse them all.
    if let Some(flag) = opts.seen.iter().find(|f| **f != "--socket") {
        eprintln!(
            "td: {flag} does not apply to `client`: requests run under the \
             server's configuration (see docs/SERVE.md); drop the flag"
        );
        return ExitCode::from(2);
    }
    let Some(socket) = &opts.socket else {
        eprintln!("td: client requires --socket=PATH (the server's socket)");
        return ExitCode::from(2);
    };
    if args.is_empty() {
        eprintln!("usage: td client <run <goal> | stats | ping | stop> --socket=PATH");
        return ExitCode::from(2);
    }
    let request = args
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    let mut client = match td_serve::Client::connect(Path::new(socket)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("td: connecting `{socket}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.request(&request) {
        Ok(reply) => {
            println!("{reply}");
            if reply.starts_with("ok") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("td: request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Open `dir` with crash recovery, or initialize it seeded with the
/// program's schema and init facts (see [`Store::open_or_seed`]).
fn open_store(dir: &Path, parsed: &ParsedProgram) -> td_store::Result<Store> {
    let schema = Database::with_schema_of(&parsed.program);
    let seeded =
        load_init(&schema, &parsed.init).map_err(|e| td_store::StoreError::Db(e.to_string()))?;
    Store::open_or_seed(dir, &schema, &seeded)
}

/// Write a goal's delta with the version the engine made, which the store
/// then holds; a debug build checks it against the delta's replay.
fn commit(store: &mut Store, delta: Delta, post: &Database) -> td_store::Result<u64> {
    debug_assert_eq!(
        delta.replay(store.db()).ok().map(|db| db.digest()),
        Some(post.digest())
    );
    store.write_group(&[(delta, post.clone())])
}

/// `td db <init|snapshot|verify|log> <DIR> [file.td]` — store maintenance
/// commands. Usage and validation errors exit 2, integrity failures exit 1.
fn db_command(args: &[&String]) -> ExitCode {
    let usage = || {
        eprintln!("usage: td db <init|snapshot|verify|log> <DIR> [file.td]");
        ExitCode::from(2)
    };
    let (&sub, &dir, rest) = match args {
        [sub, dir, rest @ ..] => (sub, dir, rest),
        _ => return usage(),
    };
    let dir_path = match validate_db_path(dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("td: {e}");
            return ExitCode::from(2);
        }
    };
    let dir_path = Path::new(&dir_path);
    // The maintenance commands work on a store that exists.
    if matches!(sub.as_str(), "snapshot" | "verify" | "log") && !Store::is_initialized(dir_path) {
        eprintln!("td: `{dir}` is not an initialized store (run `td db init`)");
        return ExitCode::from(2);
    }
    match (sub.as_str(), rest) {
        ("init", rest) if rest.len() <= 1 => {
            if Store::is_initialized(dir_path) {
                eprintln!("td: `{dir}` already holds a store");
                return ExitCode::from(2);
            }
            let result = match rest.first() {
                Some(file) => {
                    let src = match std::fs::read_to_string(file.as_str()) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("td: cannot read `{file}`: {e}");
                            return ExitCode::from(2);
                        }
                    };
                    match parse_program(&src) {
                        Ok(parsed) => open_store(dir_path, &parsed),
                        Err(errs) => {
                            eprintln!("{}", errs.render(&src));
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => Store::init(dir_path, &Database::new()),
            };
            match result {
                Ok(store) => {
                    println!(
                        "initialized `{dir}`: {} tuples, digest 0x{:032x}",
                        store.db().total_tuples(),
                        store.db().digest()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("td: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        ("snapshot", []) => match Store::open(dir_path) {
            Ok(mut store) => {
                let folded = store.recovery().replayed;
                match store.rotate_snapshot() {
                    Ok(()) => {
                        println!(
                            "snapshot rotated: {folded} wal records folded in, \
                                 {} tuples, digest 0x{:032x}",
                            store.db().total_tuples(),
                            store.db().digest()
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("td: rotating `{dir}`: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("td: opening store `{dir}`: {e}");
                ExitCode::FAILURE
            }
        },
        ("verify", []) => match Store::verify(dir_path) {
            Ok(r) => {
                println!(
                    "ok: snapshot {} tuples (digest 0x{:032x}), {} wal records, \
                         final {} tuples (digest 0x{:032x})",
                    r.snapshot_tuples,
                    r.snapshot_digest,
                    r.wal_records,
                    r.final_tuples,
                    r.final_digest
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("td: verify `{dir}`: {e}");
                ExitCode::FAILURE
            }
        },
        ("log", []) => match Store::log(dir_path) {
            Ok((records, tail)) => {
                for rec in &records {
                    println!(
                        "#{:<6} {:>5} ops  post-digest 0x{:032x}",
                        rec.seq,
                        rec.delta.len(),
                        rec.post_digest
                    );
                }
                match tail {
                    WalTail::Clean => println!("{} records, tail clean", records.len()),
                    WalTail::Torn { at, dropped } => println!(
                        "{} records, torn tail at byte {at} ({dropped} bytes \
                             pending repair on next open)",
                        records.len()
                    ),
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("td: reading log `{dir}`: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write a `--report` document; false (and a diagnostic) if it cannot be.
fn write_report(path: &str, report: &RunReport) -> bool {
    std::fs::write(path, report.to_json())
        .map_err(|e| eprintln!("td: cannot write report `{path}`: {e}"))
        .is_ok()
}

/// The `store` section of a run report — the CLI opened the store, so it
/// renders what opening and committing did: the recovery outcome label
/// (`fresh`, `recovered`, `recovered-torn-tail`, `recovered-stale-wal`),
/// what recovery replayed and cut, the transactions this run committed, and
/// the snapshot's age in WAL records at the end of the run.
fn store_section(store: &Store) -> String {
    let recovery = store.recovery();
    JsonObject::new()
        .string("path", store.dir().display())
        .string("recovery", recovery.outcome.as_str())
        .field("replayed", recovery.replayed)
        .field("torn_bytes", recovery.torn_bytes)
        .field("committed", store.committed_this_session())
        .field("snapshot_age", store.wal_records())
        .finish()
}

/// `name: k=v k=v …` — a layer's lifetime counters as one stdout line.
fn counter_line(name: &str, rows: &[(&'static str, u64)]) -> String {
    let rows: Vec<String> = rows.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}: {}", rows.join(" "))
}

/// One `run`/`trace`/`decide` invocation: the engine (carrying the observer
/// the output flags call for), the per-goal report rows, and the status
/// that becomes the exit code.
struct Session<'a> {
    opts: &'a CliOptions,
    command: &'static str,
    file: &'a str,
    started: Instant,
    engine: Engine,
    goals: Vec<GoalReport>,
    ok: bool,
}

impl<'a> Session<'a> {
    /// An engine over the file's program under `config`, observed only as
    /// far as the output flags need: an event log when `--log-json` wants
    /// one, a bare registry for `--report`, nothing at all otherwise.
    fn start(
        parsed: &ParsedProgram,
        opts: &'a CliOptions,
        command: &'static str,
        file: &'a str,
        config: EngineConfig,
    ) -> Result<Session<'a>, ExitCode> {
        if parsed.goals.is_empty() {
            eprintln!("td: no ?- goals in file");
            return Err(ExitCode::FAILURE);
        }
        let mut engine = Engine::with_config(parsed.program.clone(), config);
        if opts.log_json.is_some() {
            engine = engine.with_observer(Arc::new(Observer::with_event_log()));
        } else if opts.report.is_some() {
            engine = engine.with_observer(Arc::new(Observer::new()));
        }
        Ok(Session {
            opts,
            command,
            file,
            started: Instant::now(),
            engine,
            goals: Vec::new(),
            ok: true,
        })
    }

    /// Record one goal's report row; a goal that did not succeed, or that
    /// faulted, fails the command.
    fn record(
        &mut self,
        goal: String,
        ok: bool,
        counters: Vec<(&'static str, u64)>,
        error: Option<String>,
    ) {
        self.ok &= ok && error.is_none();
        self.goals.push(GoalReport {
            goal,
            ok,
            error,
            counters,
        });
    }

    /// Announce and solve one `?-` goal. A failure or a fault is printed and
    /// recorded here; a success is handed back for the command to print,
    /// commit and record its own way.
    fn solve(&mut self, g: &ParsedGoal, db: &Database) -> Option<(String, Box<Solution>)> {
        let goal = td_core::rule::render_goal_with_names(&g.goal, &g.var_names);
        println!("?- {goal}");
        match self.engine.solve(&g.goal, db) {
            Ok(Outcome::Success(sol)) => return Some((goal, sol)),
            Ok(Outcome::Failure { stats }) => {
                println!("  no   ({stats})");
                self.record(goal, false, GoalReport::stats_rows(&stats), None);
            }
            Err(e) => {
                println!("  error: {e}");
                self.record(goal, false, Vec::new(), Some(e.to_string()));
            }
        }
        None
    }

    /// Write the `--log-json` and `--report` artifacts (whichever were
    /// asked for) and turn the accumulated status into the exit code.
    fn finish(mut self, final_db: Option<&Database>, store: Option<&Store>) -> ExitCode {
        let obs = self.engine.observer();
        if let (Some(path), Some(log)) = (&self.opts.log_json, obs.and_then(|o| o.event_log())) {
            if let Err(e) = std::fs::write(path, log.to_json_lines()) {
                eprintln!("td: cannot write event log `{path}`: {e}");
                self.ok = false;
            }
        }
        if let Some(path) = &self.opts.report {
            let mut sections = self.engine.report_sections();
            sections.push(("store", store.map(store_section)));
            sections.push(("serve", None));
            let report = RunReport {
                command: self.command.to_owned(),
                file: self.file.to_owned(),
                config: self.engine.config().clone(),
                wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
                goals: self.goals,
                final_state: final_db.map(|d| (d.digest(), d.total_tuples() as u64)),
                sections,
                metrics: obs.map(|o| o.registry.snapshot()).unwrap_or_default(),
            };
            self.ok &= write_report(path, &report);
        }
        exit_code(self.ok)
    }
}

fn trace(parsed: &ParsedProgram, mut db: Database, opts: &CliOptions, file: &str) -> ExitCode {
    let config = opts.config.clone().with_trace();
    let mut session = match Session::start(parsed, opts, "trace", file, config) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for g in &parsed.goals {
        let Some((goal, sol)) = session.solve(g, &db) else {
            continue;
        };
        print!("{}", sol.trace);
        println!("  yes  ({})", sol.stats);
        session.record(goal, true, GoalReport::stats_rows(&sol.stats), None);
        db = sol.db;
    }
    session.finish(Some(&db), None)
}

fn run(
    parsed: &ParsedProgram,
    mut db: Database,
    opts: &CliOptions,
    file: &str,
    mut store: Option<&mut Store>,
) -> ExitCode {
    let mut session = match Session::start(parsed, opts, "run", file, opts.config.clone()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for g in &parsed.goals {
        let Some((goal, sol)) = session.solve(g, &db) else {
            continue;
        };
        for (i, name) in g.var_names.iter().enumerate() {
            println!("  {name} = {}", sol.answer[i]);
        }
        println!("  yes  ({})", sol.stats);
        println!("  db = {}", sol.db);
        let mut counters = GoalReport::stats_rows(&sol.stats);
        counters.push(("committed_updates", sol.delta.len() as u64));
        // Durable commit: one fsync'd WAL record per successful goal with a
        // state change (read-only goals leave no record — there is nothing
        // to recover).
        let mut failure = None;
        if let Some(s) = store.as_deref_mut().filter(|_| !sol.delta.is_empty()) {
            match commit(s, sol.delta, &sol.db) {
                Ok(seq) => println!("  committed wal record #{seq}"),
                Err(e) => {
                    eprintln!("td: wal commit failed: {e}");
                    failure = Some(format!("wal commit failed: {e}"));
                }
            }
        }
        let diverged = failure.is_some();
        session.record(goal, true, counters, failure);
        db = sol.db; // goals run in sequence, like the prototype
        if diverged {
            // The in-memory run and the store have diverged; committing
            // further goals would persist a state recovery can't verify.
            break;
        }
    }
    if let Some(m) = session.engine.materializer() {
        // `maintain_us` is a timing: it stays out of stdout, which is
        // otherwise a pure function of the program.
        let mut rows = m.counters();
        rows.retain(|(k, _)| *k != "maintain_us");
        println!("{}", counter_line("materializer", &rows));
    }
    if let Some(s) = store.as_deref() {
        println!(
            "store: {} transactions committed ({} wal records since snapshot)",
            s.committed_this_session(),
            s.wal_records()
        );
    }
    session.finish(Some(&db), store.as_deref())
}

fn fragment(parsed: &ParsedProgram) -> ExitCode {
    let goal = parsed
        .goals
        .first()
        .map(|g| g.goal.clone())
        .unwrap_or(Goal::True);
    let report = FragmentReport::classify(&parsed.program, &goal);
    println!("{report}");
    for l in td_core::validate::unsafe_rules(&parsed.program) {
        println!("lint: {l}");
    }
    ExitCode::SUCCESS
}

fn decide(
    parsed: &ParsedProgram,
    db: Database,
    opts: &CliOptions,
    file: &str,
    store: Option<&Store>,
) -> ExitCode {
    // One engine — so one cache and one materializer — across all the
    // file's goals: repeated subprotocols warm them.
    let mut session = match Session::start(parsed, opts, "decide", file, opts.config.clone()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for g in &parsed.goals {
        let goal = td_core::rule::render_goal_with_names(&g.goal, &g.var_names);
        match session
            .engine
            .decide(&g.goal, &db, DeciderConfig::default())
        {
            Ok(d) => {
                // An exhausted budget refutes nothing: without a success
                // the verdict is unknown, and the row carries an error.
                let (verdict, error) = match (d.executable, d.truncated) {
                    (false, true) => {
                        let n = d.configs;
                        let e = format!("configuration budget exhausted after {n} configurations");
                        ("unknown (truncated)", Some(e))
                    }
                    (true, true) => ("true (truncated)", None),
                    (true, false) => ("true", None),
                    (false, false) => ("false", None),
                };
                println!("executable: {verdict}  (configurations: {})", d.configs);
                let counters = vec![
                    ("configs", d.configs as u64),
                    ("truncated", u64::from(d.truncated)),
                ];
                session.record(goal, d.executable, counters, error);
            }
            Err(e) => {
                println!("error: {e}");
                session.record(goal, false, Vec::new(), Some(e.to_string()));
            }
        }
    }
    if let Some(c) = session.engine.subgoal_cache() {
        println!("{}", counter_line("subgoal cache", &c.counters()));
    }
    session.finish(None, store)
}

fn repl(
    parsed: &ParsedProgram,
    mut db: Database,
    config: EngineConfig,
    mut store: Option<&mut Store>,
) -> ExitCode {
    let program: Program = parsed.program.clone();
    let engine = Engine::with_config(program.clone(), config);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!("Transaction Datalog repl — enter goals, `:db` to show state, ^D to exit");
    loop {
        print!("td> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => return ExitCode::SUCCESS,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":db" {
            println!("{db}");
            continue;
        }
        if line == ":quit" || line == ":q" {
            return ExitCode::SUCCESS;
        }
        match parse_goal(line, &program) {
            Err(e) => println!("{}", e.render(line)),
            Ok(g) => match engine.solve(&g.goal, &db) {
                Ok(Outcome::Success(sol)) => {
                    for (i, name) in g.var_names.iter().enumerate() {
                        println!("  {name} = {}", sol.answer[i]);
                    }
                    if let Some(s) = store.as_deref_mut().filter(|_| !sol.delta.is_empty()) {
                        if let Err(e) = commit(s, sol.delta, &sol.db) {
                            println!("  error: wal commit failed: {e}");
                            continue;
                        }
                    }
                    println!("  yes");
                    db = sol.db;
                }
                Ok(Outcome::Failure { .. }) => println!("  no"),
                Err(e) => println!("  error: {e}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_options(&owned).map(|(o, _)| o)
    }

    #[test]
    fn seed_with_random_strategy_is_accepted() {
        let o = parse(&["--strategy=random", "--seed=7"]).unwrap();
        assert_eq!(o.config.strategy, Strategy::ExhaustiveRandom(7));
    }

    #[test]
    fn seed_without_random_strategy_is_rejected() {
        for args in [
            &["--seed=7"][..],
            &["--seed=7", "--strategy=exhaustive"][..],
            &["--seed=7", "--strategy=round-robin"][..],
            &["--seed=7", "--strategy=leftmost"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--seed"), "{err}");
            assert!(err.contains("--strategy=random"), "{err}");
        }
    }

    #[test]
    fn cache_capacity_with_cache_is_accepted() {
        let o = parse(&["--subgoal-cache", "--cache-capacity=128"]).unwrap();
        assert!(o.config.subgoal_cache);
        assert_eq!(o.config.cache_capacity, 128);
    }

    #[test]
    fn cache_capacity_without_cache_is_rejected() {
        let err = parse(&["--cache-capacity=128"]).unwrap_err();
        assert!(err.contains("--subgoal-cache"), "{err}");
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&["--strategy=bogus"]).is_err());
        assert!(parse(&["--seed=x", "--strategy=random"]).is_err());
        assert!(parse(&["--max-steps=x"]).is_err());
        assert!(parse(&["--subgoal-cache", "--cache-capacity=0"]).is_err());
        assert!(parse(&["--no-such-flag"]).is_err());
    }

    #[test]
    fn materialize_flag_is_captured() {
        let o = parse(&["--materialize"]).unwrap();
        assert!(o.config.materialize);
        assert!(!parse(&[]).unwrap().config.materialize);
    }

    #[test]
    fn materialize_composes_with_cache() {
        let o = parse(&["--materialize", "--subgoal-cache"]).unwrap();
        assert!(o.config.materialize);
        assert!(o.config.subgoal_cache);
    }

    #[test]
    fn report_and_log_json_paths_are_captured() {
        let o = parse(&["--report=r.json", "--log-json=e.jsonl"]).unwrap();
        assert_eq!(o.report.as_deref(), Some("r.json"));
        assert_eq!(o.log_json.as_deref(), Some("e.jsonl"));
    }

    #[test]
    fn db_with_existing_dir_or_creatable_child_is_accepted() {
        let dir = std::env::temp_dir().join("td-cli-db-opts");
        std::fs::create_dir_all(&dir).unwrap();
        let arg = format!("--db={}", dir.display());
        let o = parse(&[&arg]).unwrap();
        assert_eq!(o.db.as_deref(), dir.to_str());
        // A store that does not exist yet, inside an existing parent: the
        // first run is allowed to create it.
        let child = dir.join("new-store");
        let _ = std::fs::remove_dir_all(&child);
        let arg = format!("--db={}", child.display());
        assert!(parse(&[&arg]).is_ok());
    }

    #[test]
    fn db_with_missing_parent_dir_is_rejected() {
        let bogus = std::env::temp_dir()
            .join("td-cli-no-such-parent")
            .join("store");
        let _ = std::fs::remove_dir_all(bogus.parent().unwrap());
        let arg = format!("--db={}", bogus.display());
        let err = parse(&[&arg]).unwrap_err();
        assert!(err.contains("parent directory"), "{err}");
        assert!(err.contains("does not exist"), "{err}");
    }

    #[test]
    fn db_pointing_at_a_file_is_rejected() {
        let f = std::env::temp_dir().join("td-cli-db-not-a-dir.bin");
        std::fs::write(&f, b"x").unwrap();
        let arg = format!("--db={}", f.display());
        let err = parse(&[&arg]).unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        let _ = std::fs::remove_file(&f);
    }

    #[test]
    fn empty_db_path_is_rejected() {
        assert!(parse(&["--db="]).is_err());
    }
}
