//! End-to-end serve tests: a real server on a real Unix socket, driven by
//! real client connections — the concurrent-banking scenario of Example
//! 2.2 (transfers between two accounts must conserve total balance no
//! matter how clients interleave).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use td_engine::EngineConfig;
use td_serve::{Client, Reply, Server};
use td_store::{Store, TxOptions};

const BANKING: &str = r#"
base balance/2.
init balance(acct1, 100).
init balance(acct2, 50).
withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt
                       * del.balance(Acct, Bal)
                       * NB is Bal - Amt * ins.balance(Acct, NB).
deposit(Amt, Acct)  <- balance(Acct, Bal) * del.balance(Acct, Bal)
                       * NB is Bal + Amt * ins.balance(Acct, NB).
transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).
solvent(Acct) <- balance(Acct, Bal) * Bal >= 0.
"#;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-serve-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn a server over a fresh store in `dir`; returns the socket path and
/// the thread handle (joins to the summary).
fn start_server(
    dir: &std::path::Path,
) -> (
    PathBuf,
    std::thread::JoinHandle<std::io::Result<td_serve::ServeSummary>>,
) {
    start_server_with(dir, EngineConfig::default())
}

fn start_server_with(
    dir: &std::path::Path,
    config: EngineConfig,
) -> (
    PathBuf,
    std::thread::JoinHandle<std::io::Result<td_serve::ServeSummary>>,
) {
    let socket = dir.join("td.sock");
    let parsed = td_parser::parse_program(BANKING).unwrap();
    let server = Server::open(
        parsed,
        config,
        &dir.join("db"),
        TxOptions {
            max_attempts: 64,
            backoff: Duration::from_micros(20),
        },
    )
    .unwrap();
    let sock = socket.clone();
    let handle = std::thread::spawn(move || server.serve(&sock));
    wait_for_socket(&socket);
    (socket, handle)
}

fn wait_for_socket(socket: &std::path::Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut c) = Client::connect(socket) {
            if c.ping().is_ok() {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server did not come up");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn counter(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|f| f.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no {name} in {stats}"))
        .parse()
        .unwrap()
}

#[test]
fn ping_run_stats_stop_round_trip() {
    let dir = temp_dir("round_trip");
    let (socket, handle) = start_server(&dir);
    let mut c = Client::connect(&socket).unwrap();
    assert!(c.ping().unwrap());
    // A committing transaction.
    match c.run("transfer(30, acct1, acct2)").unwrap() {
        Reply::Committed { seq, attempts, .. } => {
            assert_eq!(seq, 1); // seq 0 is the init-facts commit
            assert_eq!(attempts, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    // A read-only query with a binding.
    let r = c.run("balance(acct1, B)").unwrap();
    assert_eq!(r.binding("B"), Some("70"));
    assert!(matches!(r, Reply::ReadOnly { .. }));
    // A logically failing goal (insufficient funds) leaves no record.
    assert!(matches!(
        c.run("transfer(1000, acct1, acct2)").unwrap(),
        Reply::No { .. }
    ));
    // A parse error and an unknown verb answer `err`, connection stays up.
    assert!(matches!(c.run("transfer(").unwrap(), Reply::Err(_)));
    assert!(c.request("frobnicate now").unwrap().starts_with("err "));
    let stats = c.stats().unwrap();
    // The reply's key sequence is a published format (tdbench and operators
    // read fields off it by name and position): pinned exactly.
    let keys: Vec<&str> = stats
        .strip_prefix("ok ")
        .expect("stats answers ok")
        .split_whitespace()
        .map(|f| f.split_once('=').expect("key=value").0)
        .collect();
    assert_eq!(
        keys.join(" "),
        "commits read_only aborts conflicts conflict_failures retries_exhausted \
         conflict_preds groups grouped_records max_group mean_group durable connections \
         requests errors interned_syms interned_bytes events_ingested triggers_matched \
         triggers_fired triggers_conflicted trigger_p50_us trigger_p99_us \
         event_partials events_dropped"
    );
    assert_eq!(counter(&stats, "commits"), 1);
    assert_eq!(counter(&stats, "read_only"), 1);
    assert_eq!(counter(&stats, "aborts"), 1);
    assert!(counter(&stats, "errors") >= 2);
    assert!(counter(&stats, "interned_syms") > 0);
    c.stop().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.stats.commits, 1);
    assert_eq!(summary.metrics.counter("serve.errors"), 2);
    // The store came back durable: recover it and check the balances.
    let db = summary.store.db().clone();
    drop(summary);
    let reopened = Store::open(&dir.join("db")).unwrap();
    assert_eq!(reopened.db().digest(), db.digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The server has one engine, so one subgoal cache: what connection A's
/// search memoized, connection B's first request replays. (With an engine
/// per connection, B's probes were misses in a cache of its own. A reply
/// cannot show the difference — a miss enumerates its answers in a nested
/// machine and replays them on the spot, so `steps=` is the same cold and
/// warm — the cache's own counters do.)
#[test]
fn a_second_connection_replays_what_the_first_one_cached() {
    let dir = temp_dir("shared_cache");
    let config = EngineConfig {
        subgoal_cache: true,
        ..EngineConfig::default()
    };
    let (socket, handle) = start_server_with(&dir, config);
    // Read-only, so all three runs are on one database state.
    let goal = "run solvent(acct1) * balance(acct2, B)";
    let mut a = Client::connect(&socket).unwrap();
    let cold = a.request(goal).unwrap();
    assert!(
        cold.starts_with("ok seq=- ") && cold.ends_with(" B=50"),
        "{cold}"
    );
    assert_eq!(a.request(goal).unwrap(), cold);
    let mut b = Client::connect(&socket).unwrap();
    assert_eq!(b.request(goal).unwrap(), cold);
    b.stop().unwrap();
    drop(a);
    let summary = handle.join().unwrap().unwrap();
    let cache = summary.engine.subgoal_cache().expect("configured above");
    assert_eq!(cache.misses(), 1, "A's first run is the only cold probe");
    assert_eq!(cache.hits(), 2, "A's second run and B's first replay it");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A raw connection — requests as bytes, replies as lines — whose reads give
/// up after five seconds instead of hanging the suite.
fn raw(socket: &std::path::Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(socket).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    (stream.try_clone().unwrap(), BufReader::new(stream))
}

fn reply(reader: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply, not a timeout");
    line.trim_end().to_owned()
}

/// The server reads a request into a buffer of bounded size: 64 KiB without
/// a newline is refused and the connection closed, where an unbounded
/// `lines()` would go on buffering for as long as the client goes on
/// sending. A line of exactly the bound is a request like any other.
#[test]
fn an_over_long_request_is_refused_and_the_connection_closed() {
    let dir = temp_dir("too_long");
    let (socket, handle) = start_server(&dir);
    let (mut w, mut r) = raw(&socket);
    w.write_all(&vec![b'a'; 64 * 1024 + 1]).unwrap();
    assert_eq!(reply(&mut r), "err request too long");
    assert_eq!(reply(&mut r), "", "then the server hangs up");

    let (mut w, mut r) = raw(&socket);
    let mut fits = vec![b'a'; 64 * 1024];
    fits.push(b'\n');
    w.write_all(&fits).unwrap();
    assert!(reply(&mut r).starts_with("err unknown command"));
    w.write_all(b"ping\n").unwrap();
    assert_eq!(reply(&mut r), "ok pong");
    // The server drains its connections before it stops.
    drop((w, r));

    let mut c = Client::connect(&socket).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "errors"), 2, "{stats}");
    c.stop().unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bytes that are not UTF-8 are one bad request, not a dead connection.
#[test]
fn a_request_that_is_not_utf8_is_refused_and_the_connection_stays_up() {
    let dir = temp_dir("not_utf8");
    let (socket, handle) = start_server(&dir);
    let (mut w, mut r) = raw(&socket);
    w.write_all(b"run balance(acct1, \xff\xfe)\n").unwrap();
    assert_eq!(reply(&mut r), "err request is not UTF-8");
    w.write_all(b"run balance(acct1, B)\n").unwrap();
    assert!(reply(&mut r).contains("B=100"));
    w.write_all(b"stats\n").unwrap();
    let stats = reply(&mut r);
    assert_eq!(counter(&stats, "errors"), 1, "{stats}");
    w.write_all(b"stop\n").unwrap();
    assert_eq!(reply(&mut r), "ok stopping");
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A client that sends a committing `run` and hangs up at once, without
/// reading the reply: the server reads the request after the client is
/// gone, and validates and commits it for nobody. Only the reply's write
/// fails. The commit lands exactly once, the leader that wrote it leaves
/// no follower waiting (the server drains and stops), and the log holds
/// it once.
#[test]
fn a_client_gone_before_its_commit_is_durable_still_commits_once() {
    let dir = temp_dir("gone");
    let (socket, handle) = start_server(&dir);
    let (mut w, r) = raw(&socket);
    w.write_all(b"run transfer(30, acct1, acct2)\n").unwrap();
    drop((w, r));
    let mut c = Client::connect(&socket).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = c.stats().unwrap();
        if counter(&stats, "commits") > 0 || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(counter(&stats, "commits"), 1, "{stats}");
    // The genesis record and the transfer, both acknowledged as durable.
    assert_eq!(counter(&stats, "durable"), 2, "{stats}");
    let r = c.run("balance(acct1, B)").unwrap();
    assert_eq!(r.binding("B"), Some("70"));
    c.stop().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.stats.commits, 1);
    drop(summary);
    let (records, tail) = Store::log(&dir.join("db")).unwrap();
    let seqs: Vec<u64> = records.iter().map(|rec| rec.seq).collect();
    assert_eq!(seqs, [0, 1], "the genesis record and the transfer, once");
    assert_eq!(records[1].delta.len(), 4, "two balances rewritten");
    assert!(matches!(tail, td_store::WalTail::Clean), "{tail:?}");
    let report = Store::verify(&dir.join("db")).unwrap();
    assert_eq!(report.wal_records, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A half-closed connection: the client sends `ping` and shuts down its
/// write half. The reply still comes, then the server sees the end of the
/// requests, closes the connection, and goes on serving others.
#[test]
fn a_half_closed_connection_gets_its_reply_and_is_closed() {
    let dir = temp_dir("half_closed");
    let (socket, handle) = start_server(&dir);
    let (mut w, mut r) = raw(&socket);
    w.write_all(b"ping\n").unwrap();
    w.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(reply(&mut r), "ok pong");
    assert_eq!(reply(&mut r), "", "then the server hangs up");
    let mut c = Client::connect(&socket).unwrap();
    assert!(c.ping().unwrap());
    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "errors"), 0, "{stats}");
    c.stop().unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Thread-per-connection under many idle clients: 128 connections that
/// never send a byte hold a handler thread each, and a fresh client is
/// still served — `ok pong`, a committed `run`, and `stats` counting it.
/// Once the idle ones hang up, the server stops cleanly and the store
/// verifies. (A hundred and some, never thousands: each is a thread.)
#[test]
fn many_idle_connections_leave_a_fresh_client_served() {
    const IDLE: u64 = 128;
    let dir = temp_dir("idle");
    let (socket, handle) = start_server(&dir);
    let idle: Vec<UnixStream> = (0..IDLE)
        .map(|_| UnixStream::connect(&socket).unwrap())
        .collect();
    let mut c = Client::connect(&socket).unwrap();
    assert!(c.ping().unwrap());
    let committed = c.run("transfer(30, acct1, acct2)").unwrap();
    assert!(
        matches!(committed, Reply::Committed { .. }),
        "{committed:?}"
    );
    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "commits"), 1, "{stats}");
    // The start-up probe, the idle ones and this client.
    assert!(counter(&stats, "connections") >= IDLE + 2, "{stats}");
    drop(idle);
    c.stop().unwrap();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.stats.commits, 1);
    drop(summary);
    let report = Store::verify(&dir.join("db")).unwrap();
    assert_eq!(report.wal_records, 2, "the genesis record and the transfer");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_conflicting_transfers_conserve_balance() {
    let dir = temp_dir("conserve");
    let (socket, handle) = start_server(&dir);
    // 4 clients hammer the same two accounts with opposing transfers —
    // every transaction conflicts with every concurrent one.
    let clients = 4;
    let per = 6;
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket).unwrap();
                let mut committed = 0u64;
                for _ in 0..per {
                    let goal = if i % 2 == 0 {
                        "transfer(1, acct1, acct2)"
                    } else {
                        "transfer(1, acct2, acct1)"
                    };
                    match c.run(goal).unwrap() {
                        Reply::Committed { .. } => committed += 1,
                        Reply::No { .. } => {}
                        other => panic!("unexpected {other:?}"),
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(
        committed,
        (clients * per) as u64,
        "low amounts never bounce"
    );
    let mut c = Client::connect(&socket).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "commits"), committed);
    c.stop().unwrap();
    let summary = handle.join().unwrap().unwrap();
    // Conservation: money moved, total unchanged.
    let db = summary.store.db();
    let balances: Vec<i64> = ["acct1", "acct2"]
        .iter()
        .map(|acct| {
            let rel = db.relation(td_core::Pred::new("balance", 2)).unwrap();
            rel.to_vec()
                .iter()
                .find(|t| t.values()[0].to_string() == *acct)
                .map(|t| t.values()[1].to_string().parse().unwrap())
                .unwrap()
        })
        .collect();
    assert_eq!(balances.iter().sum::<i64>(), 150, "balance not conserved");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_server_on_same_store_is_rejected_by_the_lock() {
    let dir = temp_dir("lock");
    let (socket, handle) = start_server(&dir);
    let parsed = td_parser::parse_program(BANKING).unwrap();
    let err = Server::open(
        parsed,
        EngineConfig::default(),
        &dir.join("db"),
        TxOptions::default(),
    )
    .err()
    .expect("second server must not open the same store");
    assert!(
        matches!(err, td_store::StoreError::Locked(_)),
        "unexpected {err:?}"
    );
    let mut c = Client::connect(&socket).unwrap();
    c.stop().unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_socket_file_is_cleared_on_bind() {
    let dir = temp_dir("stale");
    let socket = dir.join("td.sock");
    // A leftover socket file nobody listens on (as after a crash).
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists());
    let (sock2, handle) = {
        let parsed = td_parser::parse_program(BANKING).unwrap();
        let server = Server::open(
            parsed,
            EngineConfig::default(),
            &dir.join("db"),
            TxOptions::default(),
        )
        .unwrap();
        let s = socket.clone();
        (socket.clone(), std::thread::spawn(move || server.serve(&s)))
    };
    wait_for_socket(&sock2);
    let mut c = Client::connect(&sock2).unwrap();
    assert!(c.ping().unwrap());
    c.stop().unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
