//! The system under test for the server workloads: a `td serve` child
//! process of the released binary, spoken to over its Unix-socket line
//! protocol — nothing here links against `td-serve`. Once the server has
//! stopped, its store directory is read back through `td-store`.

use crate::stats::{self, Sample};
use crate::trace::ratio;
use crate::{proc, set_up_repeatedly, Ctx, Report, Timings};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A request with no reply after this long counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `td serve`. Dropping it kills the child, so a panic or an
/// early return never leaves a server behind.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Spawn `td serve <program> --db=<dir>` and wait for its first
    /// `ok pong`. Returns the server and how long that took.
    pub fn spawn(td: &Path, program: &Path, dir: &Path) -> Result<(Server, Duration), String> {
        let socket = dir.join("td.sock");
        // A socket file left by a killed server would make the readiness
        // probe below wait on a dead address.
        let _ = std::fs::remove_file(&socket);
        let started = Instant::now();
        let child = Command::new(td)
            .arg("serve")
            .arg(program)
            .arg(format!("--db={}", dir.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot run `{}`: {e}", td.display()))?;
        let mut server = Server { child, socket };
        loop {
            if let Ok(mut conn) = Conn::connect(&server.socket) {
                if conn.request("ping").is_ok_and(|r| r == "ok pong") {
                    return Ok((server, started.elapsed()));
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("td serve exited before it was ready: {status}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err("td serve did not answer ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.socket).map_err(|e| format!("{}: {e}", self.socket.display()))
    }

    /// The live `stats` line as a key/value map.
    pub fn stats(&self) -> Result<Stats, String> {
        let line = self
            .connect()?
            .request("stats")
            .map_err(|e| e.to_string())?;
        parse_stats(&line).ok_or_else(|| format!("unexpected stats reply: {line}"))
    }

    /// Ask the server to stop and wait until the process has ended; it
    /// drains in-flight requests and queued triggers first.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = self.connect()?.request("stop").map_err(|e| e.to_string())?;
        if reply != "ok stopping" {
            return Err(format!("unexpected stop reply: {reply}"));
        }
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("td serve exited with {status}")),
                Ok(None) if Instant::now() > deadline => {
                    return Err("td serve did not exit within 30 s of `stop`".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped after a clean `stop`; otherwise kill and reap.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection: a request line out, a reply line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// Split an `ok key=value key=value …` line into its fields.
pub fn parse_stats(line: &str) -> Option<Stats> {
    let rest = line.strip_prefix("ok ")?;
    let fields: Stats = rest
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    (!fields.is_empty()).then_some(fields)
}

/// A numeric field of a reply or stats line (`0` when absent or `-`).
pub fn field(fields: &Stats, key: &str) -> f64 {
    fields.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// How the server's commits went, for a run's notes: group commit can
/// settle into different rhythms, and the rate follows.
pub fn commit_note(stats: &Stats) -> String {
    let get = |k: &str| stats.get(k).map_or("?", String::as_str);
    format!(
        "server: commits={} conflicts={} groups={} mean_group={} max_group={}",
        get("commits"),
        get("conflicts"),
        get("groups"),
        get("mean_group"),
        get("max_group"),
    )
}

/// The value of `key=` in a reply line such as `ok seq=7 attempts=1 B=30`.
pub fn reply_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Run `td db verify <dir>`, the cold integrity pass.
pub fn db_verify(td: &Path, dir: &Path) -> Result<(), String> {
    let out = Command::new(td)
        .args(["db", "verify"])
        .arg(dir)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run `{}`: {e}", td.display()))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "td db verify failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

pub type Stats = BTreeMap<String, String>;

/// One set-up is: write the program, make an empty store directory, start
/// a server on it, first `ok pong`. Repeated as `set_up_repeatedly` says;
/// the last server keeps running. Returns it, its run directory and the
/// set-up times.
pub fn set_up(ctx: &Ctx, program_text: &str) -> Result<(Server, PathBuf, Vec<f64>), String> {
    let set_up = || {
        let dir = ctx.run_dir("main")?;
        let program = dir.join("program.td");
        std::fs::write(&program, program_text)
            .map_err(|e| format!("{}: {e}", program.display()))?;
        let store = dir.join("store");
        std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        let (srv, _) = Server::spawn(&ctx.td, &program, &store)?;
        Ok((srv, dir))
    };
    let ((srv, dir), times) = set_up_repeatedly(set_up, |(srv, _)| srv.stop())?;
    Ok((srv, dir, times))
}

/// What the thread that is not a client saw of the server: its CPU time
/// and its `stats` when the measured window began and when it ended.
pub struct Watch {
    pid: u32,
    marks: Vec<(Duration, Stats, u64)>,
}

impl Watch {
    pub fn new(srv: &Server) -> Watch {
        Watch {
            pid: srv.pid(),
            marks: Vec::new(),
        }
    }

    /// Read the server `at` this offset into the window. Every client
    /// connection must still be open: see `proc::LINGER`.
    pub fn mark(&mut self, srv: &Server, at: Duration) -> Result<(), String> {
        self.marks.push((at, srv.stats()?, proc::cpu_us(self.pid)?));
        Ok(())
    }

    /// How much the server's counter `key` grew over the watch.
    pub fn grown(&self, key: &str) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some((_, first, _)), Some((_, last, _))) => field(last, key) - field(first, key),
            _ => 0.0,
        }
    }

    /// How long the watch lasted.
    pub fn wall(&self) -> Duration {
        match (self.marks.first(), self.marks.last()) {
            (Some((from, _, _)), Some((to, _, _))) => to.saturating_sub(*from),
            _ => Duration::ZERO,
        }
    }

    /// CPU microseconds the server used over the watch.
    pub fn cpu_us(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some((_, _, first)), Some((_, _, last))) => last.saturating_sub(*first) as f64,
            _ => 0.0,
        }
    }
}

/// Sleep through a load run that started at `epoch`, reading the server at
/// both ends of its measured window.
pub fn watch(
    srv: &Server,
    epoch: Instant,
    warmup: Duration,
    window: Duration,
) -> Result<Watch, String> {
    let mut watch = Watch::new(srv);
    for edge in [warmup, warmup + window] {
        std::thread::sleep(edge.saturating_sub(epoch.elapsed()));
        watch.mark(srv, epoch.elapsed().saturating_sub(warmup))?;
    }
    Ok(watch)
}

/// The end-to-end timings of a closed-loop server run, both over the whole
/// window: ops completed per second of it, and the server's CPU time per op.
pub fn window_timings(window: &[Sample], window_len: Duration, watch: &Watch) -> Timings {
    let ops = window.len() as f64;
    Timings {
        ops_per_s: ratio(ops, window_len.as_secs_f64()),
        cpu_us_per_op: ratio(watch.cpu_us(), ops),
    }
}

/// The median latency of a run's measured ops, for its notes.
pub fn latency_note(window: &[Sample]) -> String {
    format!(
        "median op latency {:.1} us",
        stats::latency_percentile(window, 0.50)
    )
}

/// What the store looked like after the run.
pub struct Aftermath {
    /// Restart on the same directory: spawn to first `ok pong`, WAL replay
    /// included.
    pub recover_ms: f64,
    /// Bytes the store directory grew by since `bytes_before`.
    pub wal_bytes: u64,
}

/// Stop the server, then check what every server workload checks: the
/// stopped store (through `inspect`), `td db verify`, and that a restart
/// recovers the same digest. Violations land in `report`.
pub fn stop_verify_restart(
    td: &Path,
    srv: Server,
    program: &Path,
    store_dir: &Path,
    bytes_before: u64,
    report: &mut Report,
    inspect: impl FnOnce(&td_db::Database, &mut Report),
) -> Result<Aftermath, String> {
    srv.stop()?;
    let wal_bytes = proc::dir_bytes(store_dir)?.saturating_sub(bytes_before);
    let digest_of = |dir: &Path, look: &mut dyn FnMut(&td_db::Database)| {
        // The handle holds the store's lock; it is released before the
        // next process opens the directory.
        let store = td_store::Store::open(dir).map_err(|e| e.to_string())?;
        look(store.db());
        Ok::<u128, String>(store.db().digest())
    };
    let mut inspect = Some(inspect);
    let at_stop = digest_of(store_dir, &mut |db| {
        if let Some(f) = inspect.take() {
            f(db, report);
        }
    })?;
    if let Err(e) = db_verify(td, store_dir) {
        report.violations.push(e);
    }
    let (srv, took) = Server::spawn(td, program, store_dir)?;
    srv.stop()?;
    let after_restart = digest_of(store_dir, &mut |_| {})?;
    report.check(after_restart == at_stop, || {
        "digest after restart differs from digest at stop".to_owned()
    });
    Ok(Aftermath {
        recover_ms: took.as_secs_f64() * 1e3,
        wal_bytes,
    })
}

/// The per-layer metrics every server workload reads off the live server:
/// its `stats` at the end of the run, the store directory, the restart.
/// `window` holds the run's measured ops. Returns their median latency.
pub fn report_live_run(
    report: &mut Report,
    stats: &Stats,
    after: &Aftermath,
    watch: &Watch,
    window: &[Sample],
) -> f64 {
    let commits = field(stats, "commits");
    let groups = field(stats, "groups");
    let n = commits as u64;
    report.set(
        "store.wal_bytes_per_commit",
        ratio(after.wal_bytes as f64, commits),
        n,
    );
    report.set("store.fsyncs_per_commit", ratio(groups, commits), n);
    report.set(
        "store.mean_group",
        field(stats, "mean_group"),
        groups as u64,
    );
    report.set(
        "store.retry_ratio",
        ratio(field(stats, "conflicts"), commits),
        n,
    );
    report.set(
        "store.conflict_failures",
        field(stats, "conflict_failures"),
        n,
    );
    report.set(
        "store.retries_exhausted",
        field(stats, "retries_exhausted"),
        n,
    );
    report.set("serve.requests", field(stats, "requests"), 1);
    report.set("serve.errors", field(stats, "errors"), 1);
    report.set("serve.conflicts", field(stats, "conflicts"), 1);
    report.set(
        "serve.records_per_fsync",
        ratio(field(stats, "grouped_records"), groups),
        groups as u64,
    );
    report.set("serve.recover_ms", after.recover_ms, 1);
    report.set(
        "core.interned_syms_per_kop",
        ratio(watch.grown("interned_syms") * 1e3, watch.grown("requests")),
        watch.grown("requests") as u64,
    );
    let n = window.len() as u64;
    let p50 = stats::latency_percentile(window, 0.50);
    report.set("trace.op_p50_us", p50, n);
    report.set(
        "trace.op_p90_us",
        stats::latency_percentile(window, 0.90),
        n,
    );
    report.set(
        "trace.op_p99_us",
        stats::latency_percentile(window, 0.99),
        n,
    );
    p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_stats_line() {
        let line = "ok occ=read-set commits=120 read_only=30 aborts=0 conflicts=7 \
                    conflict_failures=0 retries_exhausted=0 conflict_preds=hot/2:7 \
                    groups=80 grouped_records=120 max_group=2 mean_group=1.50 durable=121 \
                    connections=3 requests=151 errors=0 interned_syms=90 interned_bytes=700 \
                    events_ingested=0 triggers_matched=0 triggers_fired=0 \
                    triggers_conflicted=0 trigger_p50_us=0 trigger_p99_us=0";
        let s = parse_stats(line).unwrap();
        assert_eq!(field(&s, "commits"), 120.0);
        assert_eq!(field(&s, "mean_group"), 1.5);
        assert_eq!(s["occ"], "read-set");
        assert_eq!(s["conflict_preds"], "hot/2:7");
        assert_eq!(field(&s, "conflict_preds"), 0.0);
        assert_eq!(field(&s, "missing"), 0.0);
    }

    #[test]
    fn rejects_lines_that_are_not_stats() {
        assert!(parse_stats("err unknown command").is_none());
        assert!(parse_stats("ok pong").is_none());
    }

    #[test]
    fn reads_fields_of_run_replies() {
        let reply = "ok seq=- attempts=1 steps=2 B=1000000";
        assert_eq!(reply_field(reply, "B"), Some("1000000"));
        assert_eq!(reply_field(reply, "seq"), Some("-"));
        assert_eq!(reply_field(reply, "attempts"), Some("1"));
        assert_eq!(reply_field("no attempts=1 steps=3", "seq"), None);
    }
}
