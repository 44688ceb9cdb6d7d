//! A change to the server's commit path that claims "same behaviour" is
//! checked against the binary it replaces: the same `td run --db` followed
//! by the same two-connection `td serve` session — commits, a read, a
//! failing goal, bad requests, events with explicit timestamps, a trigger —
//! must leave a byte-identical `wal.tdl`, the same `td db log` / `td db
//! verify` output, the same reply to every request, the same `stats` line
//! and the same shutdown summary from both builds, timings aside.
//!
//! Ignored unless a second binary is named:
//!
//! ```sh
//! TD_PARENT_BIN=/path/to/parent/target/release/td \
//!   cargo test --release -p td-cli --test serve_identity -- --ignored
//! ```
//!
//! CI's `serve_smoke` job builds the parent commit and runs it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SCHEMA: &str = "base balance/2.\n\
    base handled/2.\n\
    base fired/1.\n\
    init balance(acct1, 100).\n\
    init balance(acct2, 50).\n\
    init fired(0).\n\
    event sample/1.\n\
    event result/2.\n\
    withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt * del.balance(Acct, Bal)\n\
        * NB is Bal - Amt * ins.balance(Acct, NB).\n\
    deposit(Amt, Acct) <- balance(Acct, Bal) * del.balance(Acct, Bal)\n\
        * NB is Bal + Amt * ins.balance(Acct, NB).\n\
    transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).\n\
    solvent(Acct) <- balance(Acct, Bal) * Bal >= 0.\n\
    handle(S, Q) <- fired(N) * del.fired(N) * M is N + 1 * ins.fired(M)\n\
        * ins.handled(S, Q).\n";

/// What `td run --db` executes before the server starts.
const RUN_GOALS: &str = "?- transfer(5, acct1, acct2).\n?- balance(acct1, B).\n";

/// What only a server accepts.
const TRIGGER: &str = "on within(seq(sample(S), result(S, Q)), 60000) do handle(S, Q).\n";

/// The session: which connection sends what, in order. The server answers
/// each request before the next is sent, so the commit order is the script's.
const SESSION: &[(usize, &str)] = &[
    (0, "ping"),
    (0, "run transfer(30, acct1, acct2)"),
    // Names the program already interns: whether a build interns a query's
    // variable names (older ones did), or the name of an event it refuses
    // (older ones did), then leaves `stats`' interner counts the same.
    (1, "run balance(acct1, Bal) * balance(acct2, NB)"),
    (1, "run solvent(acct1) * solvent(acct2)"),
    (0, "run solvent(acct1) * solvent(acct2)"),
    (0, "run transfer(9999, acct1, acct2)"),
    (1, "run transfer("),
    (1, "frobnicate now"),
    (0, "event sample(7) at 10"),
    (1, "event sample(8) at 11"),
    (1, "event balance(1) at 12"),
    (1, "event result(7, 2) at 20"),
];

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A spawned server, killed if the session panics before it is stopped (a
/// survivor would go on holding the store's lock).
struct Served(Option<Child>);

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn open(socket: &Path) -> Conn {
        let stream = UnixStream::connect(socket).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Conn {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("a reply");
        reply.trim_end().to_owned()
    }
}

/// Zero the digits that follow each of `keys` in `text` (the timings).
fn mask(text: &str, keys: &[&str]) -> String {
    let mut out = text.to_owned();
    for key in keys {
        let mut masked = String::new();
        let mut rest = out.as_str();
        while let Some(at) = rest.find(key) {
            let (head, tail) = rest.split_at(at + key.len());
            masked.push_str(head);
            masked.push('0');
            rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        }
        masked.push_str(rest);
        out = masked;
    }
    out
}

/// Everything one build leaves behind, as one comparable transcript, plus
/// the bytes of its log.
fn drive(td: &Path, name: &str) -> (String, Vec<u8>) {
    let dir = std::env::temp_dir().join("td-serve-identity").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run_file = dir.join("run.td");
    let serve_file = dir.join("serve.td");
    std::fs::write(&run_file, format!("{SCHEMA}{RUN_GOALS}")).unwrap();
    std::fs::write(&serve_file, format!("{SCHEMA}{TRIGGER}")).unwrap();
    let db = dir.join("db");
    let db_flag = format!("--db={}", db.display());
    let socket = dir.join("td.sock");
    let mut transcript = String::new();
    // Paths differ between the two sides; the transcript names none.
    let mut record = |label: &str, text: &str| {
        let text = text.replace(dir.to_str().unwrap(), "DIR");
        transcript.push_str(&format!("== {label}\n{text}\n"));
    };

    let out = Command::new(td)
        .args([&db_flag, "run"])
        .arg(&run_file)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    record("td run --db", &String::from_utf8(out.stdout).unwrap());

    let server = Command::new(td)
        .arg(&db_flag)
        .arg(format!("--socket={}", socket.display()))
        .args(["--subgoal-cache", "serve"])
        .arg(&serve_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut server = Served(Some(server));
    wait_until("the socket", || UnixStream::connect(&socket).is_ok());
    let mut conns = [Conn::open(&socket), Conn::open(&socket)];
    // The last event of the script completes a match, and its trigger
    // commits on the scheduler's thread: let that record land behind the
    // event's own before anything else is committed, so its seq is the
    // script's too — watching the log, not the server, so the request count
    // stays the script's as well.
    let records = || {
        let out = Command::new(td).args(["db", "log"]).arg(&db).output();
        let out = String::from_utf8(out.unwrap().stdout).unwrap();
        out.lines().count() - 1
    };
    let mut before_last = 0;
    for (i, (conn, request)) in SESSION.iter().enumerate() {
        if i + 1 == SESSION.len() {
            before_last = records();
        }
        let reply = conns[*conn].request(request);
        record(&format!("{conn}> {request}"), &reply);
    }
    wait_until("the trigger", || records() == before_last + 2);
    for (conn, request) in [
        (1, "run handled(S, Q) * fired(N)"),
        // A stored fact a second time: nothing to write, `seq=-`.
        (0, "event sample(7) at 10"),
        (0, "run transfer(1, acct2, acct1)"),
    ] {
        let reply = conns[conn].request(request);
        record(&format!("{conn}> {request}"), &reply);
    }
    // `occ=…` left the reply together with the option it echoed.
    let stats = conns[1].request("stats").replace(" occ=read-set", "");
    record(
        "stats",
        &mask(&stats, &["trigger_p50_us=", "trigger_p99_us="]),
    );
    record("1> stop", &conns[1].request("stop"));
    drop(conns);
    let out = server.0.take().unwrap().wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let summary = String::from_utf8(out.stdout)
        .unwrap()
        .replace(" [occ=read-set]", "");
    record(
        "serve stdout",
        &mask(&summary, &["latency p50 ", "us p99 "]),
    );
    for sub in ["log", "verify"] {
        let out = Command::new(td)
            .args(["db", sub])
            .arg(&db)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        record(
            &format!("td db {sub}"),
            &String::from_utf8(out.stdout).unwrap(),
        );
    }
    let wal = std::fs::read(db.join("wal.tdl")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (transcript, wal)
}

#[test]
#[ignore = "needs TD_PARENT_BIN=<the td binary of the commit to compare against>"]
fn a_served_session_is_byte_identical_to_the_parent_binary() {
    let parent = PathBuf::from(std::env::var("TD_PARENT_BIN").expect("TD_PARENT_BIN is set"));
    let (old_transcript, old_wal) = drive(&parent, "parent");
    let (new_transcript, new_wal) = drive(Path::new(env!("CARGO_BIN_EXE_td")), "change");
    assert!(old_transcript.contains("matched=1"), "{old_transcript}");
    assert!(old_transcript.contains("S=7 Q=2 N=1"), "{old_transcript}");
    assert_eq!(old_transcript, new_transcript);
    assert_eq!(old_wal, new_wal, "wal.tdl differs");
}
