//! End-to-end reactive tests: event ingestion over the wire, complex-event
//! patterns matching across events, and trigger transactions executing
//! through the same OCC + group-commit path as client goals.
//!
//! The scenario is a small lab workflow: `sample(S)` announces a specimen,
//! `result(S, Q)` delivers its measurement, and a `seq`+`within` trigger
//! records the pair and bumps a `fired/1` counter — the counter is the
//! exactly-once witness under concurrent ingestion.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use td_engine::EngineConfig;
use td_serve::{Client, Reply, ServeSummary, Server};
use td_store::TxOptions;

const LAB: &str = r#"
base handled/2.
base fired/1.
init fired(0).
event sample/1.
event result/2.
handle(S, Q) <- fired(N) * del.fired(N) * M is N + 1 * ins.fired(M)
              * ins.handled(S, Q).
on within(seq(sample(S), result(S, Q)), 60000) do handle(S, Q).
"#;

/// Same program without the trigger: events still ingest, but nothing
/// reacts — the differential test drives `handle` by hand on this one.
const LAB_NO_TRIGGER: &str = r#"
base handled/2.
base fired/1.
init fired(0).
event sample/1.
event result/2.
handle(S, Q) <- fired(N) * del.fired(N) * M is N + 1 * ins.fired(M)
              * ins.handled(S, Q).
"#;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-serve-event-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

type Serving = (
    PathBuf,
    std::thread::JoinHandle<std::io::Result<ServeSummary>>,
);

fn start_server(dir: &std::path::Path, source: &str) -> Serving {
    start_server_with(dir, source, EngineConfig::default())
}

fn start_server_with(dir: &std::path::Path, source: &str, config: EngineConfig) -> Serving {
    let socket = dir.join("td.sock");
    let parsed = td_parser::parse_program(source).unwrap();
    let server = Server::open(
        parsed,
        config,
        &dir.join("db"),
        // Every trigger bumps the one `fired/1` row: under the burst gate
        // that is 150 transactions contending for it, so the retry budget
        // is sized for a slow runner, not for the common case.
        TxOptions {
            max_attempts: 1_000,
            backoff: Duration::from_micros(20),
        },
    )
    .unwrap();
    let sock = socket.clone();
    let handle = std::thread::spawn(move || server.serve(&sock));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut c) = Client::connect(&socket) {
            if c.ping().is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "server did not come up");
        std::thread::sleep(Duration::from_millis(10));
    }
    (socket, handle)
}

fn counter(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no {name} in {stats}"))
        .parse()
        .unwrap()
}

/// Triggers run on a background scheduler; poll the stats line until the
/// fired counter catches up (or fail after a generous deadline).
fn wait_for_fired(c: &mut Client, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = c.stats().unwrap();
        if counter(&stats, "triggers_fired") >= want {
            return;
        }
        assert!(Instant::now() < deadline, "triggers did not fire: {stats}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn event_round_trip_fires_trigger_and_counts() {
    let dir = temp_dir("round_trip");
    let (socket, handle) = start_server(&dir, LAB);
    let mut c = Client::connect(&socket).unwrap();

    // First half of the pattern: durable append, no match yet.
    match c.event("sample(7)").unwrap() {
        Reply::Committed { bindings, .. } => {
            assert!(bindings.iter().any(|(n, v)| n == "matched" && v == "0"));
        }
        other => panic!("unexpected {other:?}"),
    }
    // Second half: the seq+within pattern completes, one match.
    let r = c.event("result(7, 2)").unwrap();
    assert!(matches!(r, Reply::Committed { .. }), "got {r:?}");
    assert_eq!(r.binding("matched"), Some("1"));

    wait_for_fired(&mut c, 1);
    // The trigger transaction is visible to ordinary queries.
    let r = c.run("handled(S, Q)").unwrap();
    assert_eq!(r.binding("S"), Some("7"));
    assert_eq!(r.binding("Q"), Some("2"));
    let r = c.run("fired(N)").unwrap();
    assert_eq!(r.binding("N"), Some("1"));

    // An explicit timestamp is echoed back.
    let r = c.event("sample(8) at 123").unwrap();
    assert_eq!(r.binding("ts"), Some("123"));

    // Error surface: unknown relation, wrong arity, parse error, missing
    // atom — all answer `err`, connection stays usable.
    assert!(matches!(c.event("nope(1)").unwrap(), Reply::Err(_)));
    assert!(matches!(c.event("sample(1, 2)").unwrap(), Reply::Err(_)));
    assert!(matches!(c.event("sample(").unwrap(), Reply::Err(_)));
    assert!(c.request("event").unwrap().starts_with("err "));
    // Event relations are append-only even over the `run` verb.
    assert!(matches!(c.run("ins.sample(9, 1)").unwrap(), Reply::Err(_)));

    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "events_ingested"), 3);
    assert_eq!(counter(&stats, "triggers_matched"), 1);
    assert_eq!(counter(&stats, "triggers_fired"), 1);
    assert!(counter(&stats, "trigger_p50_us") > 0);
    c.stop().unwrap();

    let summary = handle.join().unwrap().unwrap();
    let m = &summary.metrics;
    assert_eq!(m.counter("events.ingested"), 3);
    assert_eq!(m.counter("triggers.matched"), 1);
    assert_eq!(m.counter("triggers.fired"), 1);
    let latency = m.histogram("triggers.latency_us");
    assert!(latency.percentile(0.50) > 0);
    assert!(latency.percentile(0.99) >= latency.percentile(0.50));
    assert_eq!(
        latency.buckets().iter().sum::<u64>(),
        1,
        "one trigger, one latency sample"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Differential check: a trigger fired via the event path must leave the
/// database in exactly the state of running the same goal by hand.
#[test]
fn triggered_and_direct_execution_agree() {
    let dir = temp_dir("differential");
    std::fs::create_dir_all(dir.join("a")).unwrap();
    std::fs::create_dir_all(dir.join("b")).unwrap();

    // Reactive server: the trigger runs `handle(1, 9)` for us.
    let (socket, handle) = start_server(&dir.join("a"), LAB);
    let mut c = Client::connect(&socket).unwrap();
    assert!(c.event("sample(1) at 10").unwrap().is_ok());
    let r = c.event("result(1, 9) at 20").unwrap();
    assert_eq!(r.binding("matched"), Some("1"));
    c.stop().unwrap();
    // serve() drains the trigger scheduler before returning, so the
    // summary's store already contains the trigger's effects.
    let reactive = handle.join().unwrap().unwrap();
    assert_eq!(reactive.metrics.counter("triggers.fired"), 1);
    let reactive_digest = reactive.store.db().digest();
    drop(reactive);

    // Plain server: same events, then the equivalent goal by hand.
    let (socket, handle) = start_server(&dir.join("b"), LAB_NO_TRIGGER);
    let mut c = Client::connect(&socket).unwrap();
    assert!(c.event("sample(1) at 10").unwrap().is_ok());
    let r = c.event("result(1, 9) at 20").unwrap();
    assert_eq!(r.binding("matched"), Some("0"), "no trigger declared");
    assert!(matches!(
        c.run("handle(1, 9)").unwrap(),
        Reply::Committed { .. }
    ));
    c.stop().unwrap();
    let direct = handle.join().unwrap().unwrap();
    assert_eq!(direct.metrics.counter("triggers.fired"), 0);

    assert_eq!(
        reactive_digest,
        direct.store.db().digest(),
        "trigger path and direct path must agree on the final database"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lab whose trigger reads a view: a result is handled only when its
/// quality level is reachable from level 1 over `edge`.
const LAB_VIEW: &str = r#"
base handled/2.
base fired/1.
base edge/2.
init fired(0).
init edge(1, 2).
init edge(2, 3).
event sample/1.
event result/2.
path(X, Y) <- edge(X, Y).
path(X, Z) <- edge(X, Y) * path(Y, Z).
handle(S, Q) <- path(1, Q) * fired(N) * del.fired(N) * M is N + 1 * ins.fired(M)
              * ins.handled(S, Q).
on within(seq(sample(S), result(S, Q)), 60000) do handle(S, Q).
"#;

/// Triggers that read a view fire alike with and without `--materialize`,
/// while client commits move what the view holds; the materialized server
/// builds its views once and answers every trigger's probe from the state
/// its head carries.
#[test]
fn triggers_reading_a_view_fire_alike_with_and_without_materialize() {
    let session = |name: &str, materialize: bool| {
        let dir = temp_dir(name);
        let config = EngineConfig {
            materialize,
            ..EngineConfig::default()
        };
        let (socket, handle) = start_server_with(&dir, LAB_VIEW, config);
        let mut c = Client::connect(&socket).unwrap();
        // Each match is waited for before the next commit, so every trigger
        // reads the version the script means it to.
        assert!(c.event("sample(1) at 10").unwrap().is_ok());
        assert_eq!(
            c.event("result(1, 3) at 20").unwrap().binding("matched"),
            Some("1")
        );
        wait_for_fired(&mut c, 1);
        assert!(c.run("ins.edge(3, 4)").unwrap().is_ok());
        assert!(c.event("sample(2) at 30").unwrap().is_ok());
        assert_eq!(
            c.event("result(2, 4) at 40").unwrap().binding("matched"),
            Some("1")
        );
        wait_for_fired(&mut c, 2);
        assert!(c.run("del.edge(2, 3)").unwrap().is_ok());
        // Level 4 is cut off now: this match runs and does not fire.
        assert!(c.event("sample(3) at 50").unwrap().is_ok());
        assert_eq!(
            c.event("result(3, 4) at 60").unwrap().binding("matched"),
            Some("1")
        );
        c.stop().unwrap();
        let summary = handle.join().unwrap().unwrap();
        let counts = ["triggers.matched", "triggers.fired"].map(|n| summary.metrics.counter(n));
        let digest = summary.store.db().digest();
        let mat = summary.engine.materializer().map(|m| {
            assert_eq!(m.state_hits(), m.probes());
            (m.rebuilds(), m.probes())
        });
        std::fs::remove_dir_all(&dir).unwrap();
        (counts, digest, mat)
    };
    let (plain_counts, plain_digest, none) = session("view_trigger_plain", false);
    let (counts, digest, mat) = session("view_trigger_mat", true);
    assert_eq!(plain_counts, [3, 2]);
    assert_eq!(counts, plain_counts);
    assert_eq!(digest, plain_digest);
    assert!(none.is_none());
    let (rebuilds, probes) = mat.expect("a materialized engine");
    assert_eq!(rebuilds, 1);
    assert!(probes >= 3, "{probes}");
}

/// The reactor's bounded resource is visible while the server runs: an
/// open `seq` is one partial match in `stats`, it stays one after its first
/// completion (a later `result` for the same sample would match again), and
/// it is gone once the watermark leaves its `within` window behind.
#[test]
fn open_partial_matches_are_published() {
    let dir = temp_dir("partials");
    let (socket, handle) = start_server(&dir, LAB);
    let mut c = Client::connect(&socket).unwrap();
    let partials = |c: &mut Client| counter(&c.stats().unwrap(), "event_partials");
    assert_eq!(partials(&mut c), 0);
    assert!(c.event("sample(1) at 10").unwrap().is_ok());
    assert_eq!(partials(&mut c), 1, "sample(1) waits for a result");
    assert!(c.event("sample(2) at 11").unwrap().is_ok());
    assert_eq!(partials(&mut c), 2);
    let r = c.event("result(1, 9) at 20").unwrap();
    assert_eq!(r.binding("matched"), Some("1"));
    assert_eq!(partials(&mut c), 2, "a matched sample stays open");
    // 60 000 past both samples: a result that arrives now matches neither,
    // and on its own opens nothing.
    let r = c.event("result(2, 9) at 70000").unwrap();
    assert_eq!(r.binding("matched"), Some("0"));
    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "event_partials"), 0, "{stats}");
    assert_eq!(counter(&stats, "events_dropped"), 0, "expired, not dropped");
    wait_for_fired(&mut c, 1);
    c.stop().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.metrics.gauges.get("events.partials"), Some(&0));
    assert_eq!(summary.metrics.counter("events.dropped"), 0);
    let report = summary.report_section("td.sock");
    assert!(report.contains("\"events.dropped\": 0, "), "{report}");
    assert!(report.contains("\"events.partials\": 0, "), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `clients` concurrent connections each stream `per` disjoint
/// sample/result pairs. Every pair must fire its trigger exactly once: the
/// `fired/1` counter is read-modify-write, so any double or lost execution
/// skews it, and it must equal the number of matches.
fn ingest_pairs_exactly_once(name: &str, clients: usize, per: usize) -> ServeSummary {
    let dir = temp_dir(name);
    let (socket, handle) = start_server(&dir, LAB);
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket).unwrap();
                for j in 0..per {
                    let s = i * 100 + j;
                    assert!(c.event(&format!("sample({s})")).unwrap().is_ok());
                    let r = c.event(&format!("result({s}, 1)")).unwrap();
                    // The pair is ordered within this connection, so the
                    // seq pattern always completes here.
                    assert_eq!(r.binding("matched"), Some("1"), "pair {s}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let total = (clients * per) as u64;
    let mut c = Client::connect(&socket).unwrap();
    wait_for_fired(&mut c, total);
    let r = c.run("fired(N)").unwrap();
    assert_eq!(r.binding("N"), Some(total.to_string().as_str()));
    c.stop().unwrap();

    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.metrics.counter("events.ingested"), 2 * total);
    assert_eq!(summary.metrics.counter("triggers.matched"), total);
    assert_eq!(summary.metrics.counter("triggers.fired"), total);
    // Every handled pair landed, none twice (set semantics would hide a
    // duplicate ins, but the fired counter above already rules that out).
    let handled = summary
        .store
        .db()
        .relation(td_core::Pred::new("handled", 2))
        .unwrap()
        .to_vec()
        .len();
    assert_eq!(handled as u64, total);
    std::fs::remove_dir_all(&dir).unwrap();
    summary
}

#[test]
fn concurrent_ingestion_fires_each_match_exactly_once() {
    ingest_pairs_exactly_once("exactly_once", 4, 5);
}

/// EXPERIMENTS.md E20: event appends ride the same group-commit path as
/// client transactions, so sustained concurrent ingestion must retire more
/// than one WAL record per fsync — that amortization is the point of
/// acknowledging events only after durability. The ratio is structural,
/// not a wall-clock threshold; it still needs a release build, because
/// debug-build CPU keeps clients from ever queueing behind the leader's
/// fsync, which is the regime being asserted.
#[test]
#[cfg_attr(debug_assertions, ignore = "load gate: run with --release")]
fn burst_ingestion_batches_fsyncs() {
    let summary = ingest_pairs_exactly_once("burst", 6, 25);
    let stats = summary.stats;
    assert!(
        stats.grouped_records > stats.groups,
        "burst ingestion must batch: {} records over {} fsyncs",
        stats.grouped_records,
        stats.groups
    );
    // One trigger-latency sample per firing, and a sane histogram of them.
    let latency = summary.metrics.histogram("triggers.latency_us");
    assert_eq!(
        latency.buckets().iter().sum::<u64>(),
        summary.metrics.counter("triggers.fired")
    );
    assert!(latency.percentile(0.50) > 0 && latency.percentile(0.99) >= latency.percentile(0.50));
}
