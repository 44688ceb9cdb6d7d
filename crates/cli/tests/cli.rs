//! Integration tests for the `td` binary.

// Only the parser and `Value` are used here; `report_smoke.rs` uses the rest.
#[allow(dead_code)]
#[path = "support/json.rs"]
mod json;

#[path = "support/serve.rs"]
mod serve;

use json::Value;
use serve::{interned, serve_dir, spawn_serve, stop_serve, Serve};
use std::io::Write as _;
use std::process::{Command, Stdio};

fn td() -> Command {
    Command::new(env!("CARGO_BIN_EXE_td"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("td-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn run_executes_goals_and_prints_answers() {
    let f = write_temp(
        "run_ok.td",
        "base item/1. init item(w1).\n?- item(X) * del.item(X).\n",
    );
    let out = td().args(["run"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("X = w1"), "{stdout}");
    assert!(stdout.contains("yes"), "{stdout}");
    assert!(stdout.contains("db = {}"), "{stdout}");
}

#[test]
fn run_reports_failure_with_nonzero_exit() {
    let f = write_temp("run_fail.td", "base t/0.\n?- t.\n");
    let out = td().args(["run"]).arg(&f).output().unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no"), "{stdout}");
}

#[test]
fn goals_run_in_sequence_sharing_state() {
    let f = write_temp(
        "run_seq.td",
        "base t/1.\n?- ins.t(1).\n?- t(1) * ins.t(2).\n",
    );
    let out = td().args(["run"]).arg(&f).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("db = {t(1), t(2)}"), "{stdout}");
}

#[test]
fn parse_errors_are_rendered_with_location() {
    let f = write_temp("bad.td", "base t/0.\nr <- ins.\n");
    let out = td().args(["run"]).arg(&f).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("expected"), "{stderr}");
    assert!(stderr.contains('^'), "{stderr}");
}

#[test]
fn fragment_classifies_programs() {
    let f = write_temp(
        "frag.td",
        "base t/0.\nsim <- step | sim.\nstep <- ins.t.\n?- sim.\n",
    );
    let out = td().args(["fragment"]).arg(&f).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("full TD"), "{stdout}");
    assert!(stdout.contains("RE-complete"), "{stdout}");
}

#[test]
fn decide_reports_configuration_counts() {
    let f = write_temp(
        "decide.td",
        "base t/0.\nloop <- { ins.t or loop }.\n?- loop.\n",
    );
    let out = td().args(["decide"]).arg(&f).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("executable: true"), "{stdout}");
    assert!(stdout.contains("configurations:"), "{stdout}");
}

#[test]
fn repl_answers_interactive_goals() {
    let f = write_temp("repl.td", "base t/1. init t(7).\n");
    let mut child = td()
        .args(["repl"])
        .arg(&f)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"t(X)\n:db\n:quit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("X = 7"), "{stdout}");
    assert!(stdout.contains("{t(7)}"), "{stdout}");
}

#[test]
fn missing_file_and_bad_usage_exit_2() {
    let out = td().args(["run", "/nonexistent/x.td"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = td().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // The usage text names every option the parser accepts (each one
    // registers itself with `seen.push("--name")`).
    let usage = String::from_utf8(out.stderr).unwrap();
    let options: Vec<&str> = include_str!("../src/main.rs")
        .split("seen.push(\"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap())
        .collect();
    assert!(options.contains(&"--materialize"), "{options:?}");
    for option in options {
        assert!(usage.contains(option), "usage lacks {option}: {usage}");
    }
    // An unknown command is named before its file is read, let alone run.
    let f = write_temp("ok.td", "base t/0.");
    for file in [f.to_str().unwrap(), "/nonexistent/x.td"] {
        let out = td().args(["bogus", file]).output().unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("unknown command `bogus`"), "{stderr}");
    }
}

#[test]
fn incompatible_flag_combinations_exit_2() {
    let f = write_temp("flags.td", "base t/0.\n?- ins.t.\n");
    // Tracing gates the subgoal cache off; the combination is refused
    // rather than silently changing what runs.
    let out = td()
        .args(["--subgoal-cache", "trace"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--subgoal-cache"), "{stderr}");
}

/// An unbounded counter: the configuration space is infinite, so every
/// `decide` on it ends at a budget.
const UP: &str =
    "base c/1. init c(0).\nup <- c(N) * M is N + 1 * del.c(N) * ins.c(M) * up.\n?- up.\n";

/// An exhausted budget is "unknown", not "no" — and `--max-steps` is a
/// budget `decide` obeys: one claimed configuration is one step.
#[test]
fn decide_reports_an_exhausted_budget_as_unknown_and_honours_max_steps() {
    let f = write_temp("up.td", UP);
    let out = td()
        .args(["--max-steps=50", "decide"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap().trim_end(),
        "executable: unknown (truncated)  (configurations: 50)"
    );
}

/// Fresh temp directory for one store test.
fn store_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("td-cli-store-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    dir
}

#[test]
fn db_backed_runs_accumulate_state_and_verify() {
    let f = write_temp("durable.td", "base t/1. init t(1).\n?- ins.t(2).\n");
    let dir = store_dir("accumulate");
    let db_flag = format!("--db={}", dir.display());

    // First run: fresh store, init facts + goal committed.
    let out = td().args([&db_flag, "run"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("store: fresh"), "{stdout}");
    assert!(stdout.contains("committed wal record"), "{stdout}");

    // Second run with a goal that *requires* the first run's state; its
    // own init facts must not be re-applied.
    let g = write_temp("durable2.td", "base t/1. init t(9).\n?- t(2) * ins.t(3).\n");
    let out = td().args([&db_flag, "run"]).arg(&g).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("store: recovered"), "{stdout}");
    assert!(stdout.contains("db = {t(1), t(2), t(3)}"), "{stdout}");

    // The store passes a cold integrity check and lists its records.
    let out = td().args(["db", "verify"]).arg(&dir).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = td().args(["db", "log"]).arg(&dir).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("tail clean"), "{stdout}");

    // Rotation folds the WAL into the snapshot; still verifies.
    let out = td().args(["db", "snapshot"]).arg(&dir).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = td().args(["db", "verify"]).arg(&dir).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each run recovers every record the earlier runs committed, a later run's
/// `init` facts never reach a store that exists, and a read-only run
/// recovers everything and commits nothing.
#[test]
fn db_backed_runs_recover_every_commit_and_never_reapply_init() {
    let dir = store_dir("recover-every-commit");
    let db_flag = format!("--db={}", dir.display());
    let run = |name: &str, src: &str| {
        let f = write_temp(name, src);
        let out = td().args([&db_flag, "run"]).arg(&f).output().unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };

    // Run 1: a fresh store seeded with t(1); the goal inserts t(2).
    let stdout = run("recover1.td", "base t/1. init t(1).\n?- ins.t(2).\n");
    assert!(
        stdout.contains("store: fresh (0 records replayed"),
        "{stdout}"
    );
    assert!(
        stdout.contains("(2 wal records since snapshot)"),
        "{stdout}"
    );

    // Run 2: its init t(9) is ignored, and the goal needs run 1's t(2).
    let stdout = run("recover2.td", "base t/1. init t(9).\n?- t(2) * ins.t(3).\n");
    assert!(
        stdout.contains("store: recovered (2 records replayed, 2 tuples)"),
        "{stdout}"
    );
    assert!(stdout.contains("db = {t(1), t(2), t(3)}"), "{stdout}");
    assert!(stdout.contains("committed wal record #2"), "{stdout}");

    // Run 3, read-only: recovers all three records and commits none.
    let stdout = run("recover3.td", "base t/1.\n?- t(1) * t(2) * t(3).\n");
    assert!(
        stdout.contains("store: recovered (3 records replayed, 3 tuples)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("store: 0 transactions committed (3 wal records"),
        "{stdout}"
    );

    let out = td().args(["db", "verify"]).arg(&dir).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("3 wal records, final 3 tuples"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn db_backed_runs_that_change_nothing_append_nothing() {
    let f = write_temp("append_seed.td", "base t/1. init t(1).\n?- ins.t(2).\n");
    let dir = store_dir("append-nothing");
    let db_flag = format!("--db={}", dir.display());
    let out = td().args([&db_flag, "run"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let wal = || std::fs::read(dir.join("wal.tdl")).unwrap();
    let before = wal();

    // A failing goal commits nothing.
    let failing = write_temp("append_fail.td", "base t/1.\n?- t(777) * ins.t(4).\n");
    let out = td().args([&db_flag, "run"]).arg(&failing).output().unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert_eq!(wal(), before, "a failed goal must not append WAL records");

    // A goal that succeeds with an empty delta commits nothing either.
    let read_only = write_temp("append_ro.td", "base t/1.\n?- t(1) * t(2).\n");
    let out = td()
        .args([&db_flag, "run"])
        .arg(&read_only)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("committed wal record"), "{stdout}");
    assert_eq!(wal(), before, "an empty delta must not append WAL records");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn db_init_seeds_schema_and_init_facts() {
    let f = write_temp("init_seed.td", "base t/1. init t(5).\n?- t(5).\n");
    let dir = store_dir("init-seed");
    let out = td()
        .args(["db", "init"])
        .arg(&dir)
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("initialized"), "{stdout}");
    // Re-init is refused.
    let out = td().args(["db", "init"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // A run against the initialized store finds the seeded fact.
    let db_flag = format!("--db={}", dir.display());
    let out = td().args([&db_flag, "run"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("store: recovered"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decide_with_db_is_read_only() {
    let f = write_temp("decide_db.td", "base t/1. init t(1).\n?- { ins.t(2) }.\n");
    let dir = store_dir("decide-ro");
    let db_flag = format!("--db={}", dir.display());
    let out = td().args([&db_flag, "run"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let before = std::fs::metadata(dir.join("wal.tdl")).unwrap().len();
    let out = td().args([&db_flag, "decide"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let after = std::fs::metadata(dir.join("wal.tdl")).unwrap().len();
    assert_eq!(before, after, "decide must not append WAL records");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_misuse_exits_2() {
    let f = write_temp("misuse.td", "base t/1.\n?- ins.t(1).\n");
    // trace cannot be db-backed.
    let dir = store_dir("misuse");
    std::fs::create_dir_all(&dir).unwrap();
    let db_flag = format!("--db={}", dir.display());
    let out = td().args([&db_flag, "trace"]).arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Maintenance on an uninitialized store fails fast.
    let out = td().args(["db", "snapshot"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = td().args(["db", "verify"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // A store path under a nonexistent parent fails fast.
    let bogus = dir.join("no").join("such").join("store");
    let out = td()
        .arg(format!("--db={}", bogus.display()))
        .args(["run"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Unknown db subcommand / missing dir.
    let out = td().args(["db", "frobnicate"]).arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = td().args(["db"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The store commands take no option: each is refused by name instead of
    // being accepted and dropped.
    for (flag, sub) in [
        ("--report=r.json", "verify"),
        ("--subgoal-cache", "log"),
        ("--max-steps=5", "verify"),
        ("--materialize", "snapshot"),
        ("--socket=/x", "verify"),
    ] {
        let out = td().args([flag, "db", sub]).arg(&dir).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let name = flag.split('=').next().unwrap();
        assert!(stderr.contains(name) && stderr.contains("`db`"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Outside `td serve` nothing can append an event, so an event relation is
/// an (empty) base relation like any other and a view over it is maintained
/// like any other: the verdicts are the ones the plain run prints.
#[test]
fn materialize_over_an_event_relation_prints_the_plain_verdicts() {
    let f = write_temp(
        "mat_event.td",
        "base edge/2. init edge(a, b). init edge(b, c).\n\
         event hop/2.\n\
         step(X, Y) <- edge(X, Y).\n\
         step(X, Y) <- hop(X, Y, T).\n\
         reach(X, Y) <- step(X, Y).\n\
         reach(X, Z) <- step(X, Y) * reach(Y, Z).\n\
         ?- reach(a, c).\n?- reach(c, a).\n?- hop(a, c, T).\n\
         ?- ins.edge(c, d) * reach(a, d).\n?- del.edge(a, b) * reach(a, d).\n",
    );
    let verdicts = |flags: &[&str]| {
        let out = td().args(flags).arg("run").arg(&f).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "two goals fail: {out:?}");
        String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
            .filter(|w| w == "yes" || w == "no" || w == "error:")
            .collect::<Vec<_>>()
    };
    let plain = verdicts(&[]);
    assert_eq!(plain, ["yes", "no", "no", "yes", "no"]);
    assert_eq!(verdicts(&["--materialize"]), plain);
}

#[test]
fn materialize_answers_derived_queries_and_reports_counters() {
    let f = write_temp(
        "mat_run.td",
        "base edge/2. init edge(1,2). init edge(2,3).\n\
         path(X,Y) <- edge(X,Y).\npath(X,Z) <- edge(X,Y) * path(Y,Z).\n\
         ?- path(1,3).\n?- ins.edge(3,4) * path(1,4).\n",
    );
    let report = std::env::temp_dir().join("td-cli-tests").join("mat.json");
    let out = td()
        .args([
            "--materialize",
            &format!("--report={}", report.display()),
            "run",
        ])
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The first goal's probe builds the views, the second goal's `ins`
    // maintains them (one new edge, three new paths) and its probe finds
    // them on the version the `ins` made. There is no store of versions to
    // count: a state is on its `Database` value.
    let summary = "materializer: probes=2 state_hits=1 rebuilds=1 maintained_ops=1 delta_tuples=3";
    assert_eq!(stdout.lines().last(), Some(summary), "{stdout}");
    let json = std::fs::read_to_string(&report).unwrap();
    let doc = json::parse(&json).expect("the report is JSON");
    assert_eq!(
        key_set(&doc, "materializer"),
        "delta_tuples maintain_us maintained_ops probes rebuilds state_hits"
    );
    let _ = std::fs::remove_file(&report);
}

#[test]
fn materialize_with_trace_exits_2() {
    let f = write_temp(
        "mat_trace.td",
        "base edge/2.\npath(X,Y) <- edge(X,Y).\n?- path(1,2).\n",
    );
    let out = td()
        .args(["--materialize", "trace"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--materialize"), "{stderr}");
    assert!(stderr.contains("trace"), "{stderr}");
}

#[test]
fn materialize_without_datalog_fragment_exits_2() {
    // Every derived predicate here performs updates, so nothing is
    // materializable: the flag must be refused, not silently ignored.
    let f = write_temp("mat_none.td", "base t/1.\nw(X) <- ins.t(X).\n?- w(1).\n");
    let out = td()
        .args(["--materialize", "run"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--materialize"), "{stderr}");
}

#[test]
fn trace_prints_the_committed_story() {
    let f = write_temp(
        "trace.td",
        "base t/1.\nput <- ins.t(1) * t(X) * del.t(X).\n?- put.\n",
    );
    let out = td().args(["trace"]).arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("unfold put"), "{stdout}");
    assert!(stdout.contains("ins.t(1)"), "{stdout}");
    assert!(stdout.contains("del.t(1)"), "{stdout}");
}

#[test]
fn strategy_and_budget_flags() {
    let f = write_temp(
        "flags.td",
        "base done/1.\nw(X) <- ins.done(X).\n?- w(a) | w(b).\n",
    );
    let out = td()
        .args(["--strategy=round-robin", "run"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // A tiny budget turns divergence into a clean error.
    let g = write_temp("diverge.td", "loop <- loop.\n?- loop.\n");
    let out = td()
        .args(["--max-steps=100", "run"])
        .arg(&g)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("step budget exhausted"), "{stdout}");

    // Unknown options are rejected.
    let out = td().args(["--bogus", "run"]).arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

// --- td serve / td client ---------------------------------------------

const SERVE_BANKING: &str = "base balance/2.\n\
    init balance(acct1, 100).\n\
    init balance(acct2, 50).\n\
    withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt\n\
        * del.balance(Acct, Bal)\n\
        * NB is Bal - Amt * ins.balance(Acct, NB).\n\
    deposit(Amt, Acct) <- balance(Acct, Bal) * del.balance(Acct, Bal)\n\
        * NB is Bal + Amt * ins.balance(Acct, NB).\n\
    transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).\n";

/// The key set of the JSON object at `path` (sorted — objects parse into a
/// `BTreeMap`), space-joined.
fn key_set(doc: &Value, path: &str) -> String {
    keys(doc.path(path))
}

/// The key set of one object.
fn keys(object: Option<&Value>) -> String {
    match object {
        Some(Value::Obj(m)) => m.keys().map(String::as_str).collect::<Vec<_>>().join(" "),
        other => panic!("not an object: {other:?}"),
    }
}

/// A counter of the report's registry snapshot (names contain dots, so
/// `Value::path` cannot address them).
fn metric(doc: &Value, name: &str) -> f64 {
    doc.path("metrics.counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no counter `{name}`"))
}

/// A member of the report's `serve` section, by registry name (names contain
/// dots, so `Value::path` cannot address them).
fn serve<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("serve").and_then(|s| s.get(name))
}

/// Parse a `td serve --report` document and pin its published shape: the
/// key sets of `serve`, its `triggers.latency_us` and `metrics.counters`,
/// and the 32-bucket trigger-latency histogram. Returns the document and the
/// number of latency samples.
fn read_serve_report(path: &std::path::Path) -> (Value, f64) {
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).expect("report parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("td-run-report/v2")
    );
    assert_eq!(doc.get("command").and_then(Value::as_str), Some("serve"));
    // A published counter has one name wherever the report shows it: the
    // `serve` section renders the registry rows `metrics.counters` holds,
    // then what is not a counter.
    assert_eq!(
        key_set(&doc, "metrics.counters"),
        "events.dropped events.ingested serve.aborts serve.commits serve.conflict_failures \
         serve.conflicts serve.connections serve.errors serve.grouped_records serve.groups \
         serve.interned_bytes serve.interned_symbols serve.read_only serve.requests \
         serve.retries_exhausted triggers.conflicted triggers.fired triggers.matched"
    );
    assert_eq!(
        key_set(&doc, "serve"),
        "conflict_relations events.dropped events.ingested events.partials max_group \
         serve.aborts serve.commits serve.conflict_failures serve.conflicts \
         serve.connections serve.errors serve.grouped_records serve.groups \
         serve.interned_bytes serve.interned_symbols serve.read_only serve.requests \
         serve.retries_exhausted socket triggers.conflicted triggers.fired \
         triggers.latency_us triggers.matched"
    );
    assert_eq!(
        keys(serve(&doc, "triggers.latency_us")),
        "buckets p50_us p99_us"
    );
    let buckets = serve(&doc, "triggers.latency_us")
        .and_then(|h| h.get("buckets"))
        .and_then(Value::as_arr)
        .expect("the latency histogram has a bucket array");
    assert_eq!(buckets.len(), 32);
    let samples = buckets.iter().map(|b| b.as_f64().unwrap()).sum();
    (doc, samples)
}

/// The serve flag fail-fast matrix: every incompatible combination exits 2
/// with a diagnostic naming the flag, before any socket is bound.
#[test]
fn serve_flag_matrix_rejections_exit_2() {
    let f = write_temp("serve_flags.td", SERVE_BANKING);
    let dir = serve_dir("flags_db");
    let db = format!("--db={}", dir.display());
    // serve without --db.
    let out = td().args(["serve"]).arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("requires --db"), "{err}");
    // serve with a nondeterministic strategy (seed would be a lie).
    let out = td()
        .args(["--strategy=random", "--seed=7", &db, "serve"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--strategy=random"), "{err}");
    // serve with a per-run event stream.
    let out = td()
        .args(["--log-json=/tmp/x.jsonl", &db, "serve"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--log-json"), "{err}");
    // serve with views over a program that has none.
    let out = td()
        .args(["--materialize", &db, "serve"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--materialize does not apply"), "{err}");
    // --socket outside serve/client.
    let out = td()
        .args(["--socket=/tmp/x.sock", "run"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--socket"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The client flag matrix: per-run flags are refused (requests execute
/// under the server's configuration), and --socket is mandatory.
#[test]
fn client_flag_matrix_rejections_exit_2() {
    for flags in [
        vec!["--db=/tmp", "client", "ping"],
        vec!["--max-steps=5", "client", "ping"],
        vec!["--subgoal-cache", "client", "ping"],
        vec!["--report=/tmp/r.json", "client", "ping"],
    ] {
        let out = td().args(&flags).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("does not apply to `client`"), "{err}");
    }
    // No socket.
    let out = td().args(["client", "ping"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("requires --socket"), "{err}");
}

/// End-to-end over the real binary: start `td serve`, drive it with
/// `td client` transfers, check conservation and a serve run report.
#[test]
fn serve_and_client_round_trip_over_the_binary() {
    let f = write_temp("serve_e2e.td", SERVE_BANKING);
    let dir = serve_dir("e2e");
    let db_dir = dir.join("db");
    let socket = dir.join("td.sock");
    let report = dir.join("serve_report.json");
    let sock_flag = format!("--socket={}", socket.display());
    let server = td()
        .arg(format!("--db={}", db_dir.display()))
        .arg(&sock_flag)
        .arg(format!("--report={}", report.display()))
        .args(["serve"])
        .arg(&f)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let server = Serve::guard(server);
    // Wait for the socket to accept.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let out = td().args(["client", "ping", &sock_flag]).output().unwrap();
        if out.status.success() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server did not come up: {:?}",
            server.output()
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    // One committed transfer, one read-only query, one refused overdraft.
    let out = td()
        .args(["client", "run", "transfer(30, acct1, acct2)", &sock_flag])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let line = String::from_utf8(out.stdout).unwrap();
    assert!(line.starts_with("ok seq=1 "), "{line}");
    let out = td()
        .args(["client", "run", "balance(acct2, B)", &sock_flag])
        .output()
        .unwrap();
    let line = String::from_utf8(out.stdout).unwrap();
    assert!(line.contains("seq=-") && line.contains("B=80"), "{line}");
    let out = td()
        .args(["client", "run", "transfer(999, acct1, acct2)", &sock_flag])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8(out.stdout).unwrap().starts_with("no "));
    // Counters visible over the wire, including the starvation counter.
    let out = td().args(["client", "stats", &sock_flag]).output().unwrap();
    let line = String::from_utf8(out.stdout).unwrap();
    assert!(line.contains("commits=1"), "{line}");
    assert!(line.contains("aborts=1"), "{line}");
    assert!(line.contains("retries_exhausted=0"), "{line}");
    assert!(line.contains("conflict_preds=-"), "{line}");
    // Stop and check the shutdown summary + report.
    let out = td().args(["client", "stop", &sock_flag]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = server.output();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 commits"), "{stdout}");
    let (doc, latency_samples) = read_serve_report(&report);
    assert_eq!(serve(&doc, "serve.commits"), Some(&Value::Num(1.0)));
    assert_eq!(metric(&doc, "serve.commits"), 1.0);
    assert_eq!(
        serve(&doc, "serve.retries_exhausted"),
        Some(&Value::Num(0.0))
    );
    assert_eq!(key_set(&doc, "serve.conflict_relations"), "");
    assert_eq!(latency_samples, 0.0, "no trigger ever ran");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Refused requests do not grow a live server: 1 000 `run nosuchN(zzN)`
/// requests, each naming a predicate nothing declares, are refused without
/// interning their names, so `stats`' `interned_syms` and `interned_bytes`
/// read the same before and after. The server is a process of its own: no
/// test running beside this one interns into its table.
#[test]
fn refused_requests_leave_the_servers_interner_as_it_was() {
    use td_serve::client::Reply;
    let f = write_temp("serve_refusals.td", SERVE_BANKING);
    let dir = serve_dir("refusals");
    let (server, mut client) = spawn_serve(&[], &f, &dir);
    let before = interned(&mut client);
    for i in 0..1_000 {
        let reply = client.run(&format!("nosuch{i}(zz{i})")).unwrap();
        assert!(matches!(reply, Reply::Err(_)), "request {i}: {reply:?}");
    }
    assert_eq!(interned(&mut client), before);
    stop_serve(server, client);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A refused `event` request interns nothing either: 1 000 events naming
/// a relation nothing declares, and events of a declared one with the
/// wrong number of arguments, each with constants never seen before, leave
/// `interned_syms` and `interned_bytes` as they were.
#[test]
fn refused_events_leave_the_servers_interner_as_it_was() {
    let f = write_temp("serve_event_refusals.td", "event sample/1.\n");
    let dir = serve_dir("event_refusals");
    let (server, mut client) = spawn_serve(&[], &f, &dir);
    let before = interned(&mut client);
    for i in 0..1_000 {
        let reply = client.request(&format!("event nosuch{i}(zz{i})")).unwrap();
        assert!(
            reply.starts_with("err event: `nosuch"),
            "request {i}: {reply}"
        );
    }
    for i in 0..100 {
        for args in [
            String::new(),
            format!("(qq{i}, qr{i})"),
            format!("(qs{i}, 1, qt{i})"),
        ] {
            let reply = client.request(&format!("event sample{args}")).unwrap();
            assert!(reply.contains("declared with arity 1"), "{args}: {reply}");
        }
    }
    assert_eq!(interned(&mut client), before);
    stop_serve(server, client);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An accepted query interns none of its variable names: `balance(X, Bq)`
/// answers with both bound, and the server's table reads as before.
#[test]
fn accepted_queries_leave_the_servers_interner_as_it_was() {
    let f = write_temp("serve_queries.td", SERVE_BANKING);
    let dir = serve_dir("queries");
    let (server, mut client) = spawn_serve(&[], &f, &dir);
    let before = interned(&mut client);
    let reply = client.run("balance(X, Bq)").unwrap();
    assert!(reply.binding("X").is_some() && reply.binding("Bq").is_some());
    assert_eq!(interned(&mut client), before);
    stop_serve(server, client);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `td --materialize serve` answers what a plain server answers, from views
/// built once on the server's head and maintained from then on: K commits
/// that toggle an edge the views depend on, each followed by a query that
/// reads a view (some of them commit), give the same replies but for
/// `steps=`, the same WAL and the same final state with and without the
/// flag; and the report shows one from-scratch build, every probe a hit on
/// a state the version carried, and maintenance passes in between.
#[test]
fn a_materialized_server_answers_like_a_plain_one_from_views_built_once() {
    const K: usize = 12;
    let file = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../corpus/reachability_maintenance.td"
    ));
    let mut script = Vec::new();
    for i in 0..K {
        let (n, m) = (4 + i, 5 + i);
        // The edge 2 → 3 comes and goes, so a view answers both ways.
        let toggle = ["del", "ins"][i % 2];
        script.push(format!("{toggle}.edge(2, 3) * ins.edge({n}, {m})"));
        script.push(match i % 3 {
            0 => format!("path(1, {m})"),
            1 => format!("open(1, {m})"),
            _ => format!("path(1, {m}) * ins.blocked({m})"),
        });
    }
    let session = |name: &str, flag: Option<&str>| {
        let dir = serve_dir(name);
        let report = dir.join("report.json");
        let mut flags = vec![format!("--report={}", report.display())];
        flags.extend(flag.map(str::to_owned));
        let (server, mut client) = spawn_serve(&flags, file, &dir);
        let replies: Vec<String> = (script.iter())
            .map(|goal| {
                let reply = client.request(&format!("run {goal}")).unwrap();
                let words = reply.split(' ').filter(|w| !w.starts_with("steps="));
                words.collect::<Vec<_>>().join(" ")
            })
            .collect();
        stop_serve(server, client);
        let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let log = td()
            .args(["db", "log"])
            .arg(dir.join("db"))
            .output()
            .unwrap();
        assert!(log.status.success(), "{log:?}");
        std::fs::remove_dir_all(&dir).unwrap();
        (replies, doc, log.stdout)
    };
    let (plain, plain_doc, plain_log) = session("views_plain", None);
    let (mat, doc, log) = session("views_mat", Some("--materialize"));
    assert!(plain.iter().any(|r| r.starts_with("no ")), "{plain:?}");
    assert!(plain.iter().any(|r| r.starts_with("ok seq=-")), "{plain:?}");
    assert_eq!(mat, plain);
    assert_eq!(log, plain_log);
    assert_eq!(doc.get("final_state"), plain_doc.get("final_state"));
    assert_eq!(plain_doc.get("materializer"), Some(&Value::Null));
    let counter = |name: &str| {
        let section = doc.get("materializer").expect("a materializer section");
        section.get(name).and_then(Value::as_f64).unwrap()
    };
    assert_eq!(counter("rebuilds"), 1.0);
    assert!(counter("probes") >= K as f64, "{}", counter("probes"));
    assert_eq!(counter("state_hits"), counter("probes"));
    assert!(counter("maintained_ops") > 0.0);
}

// --- events and triggers ----------------------------------------------

const SERVE_LAB: &str = "base handled/2.\n\
    base fired/1.\n\
    init fired(0).\n\
    event sample/1.\n\
    event result/2.\n\
    handle(S, Q) <- fired(N) * del.fired(N) * M is N + 1 * ins.fired(M)\n\
        * ins.handled(S, Q).\n\
    on within(seq(sample(S), result(S, Q)), 60000) do handle(S, Q).\n";

/// The event fail-fast matrix: events and triggers only live in a server,
/// and every combination that would silently do nothing exits 2 instead.
#[test]
fn event_misuse_exits_2() {
    // Top-level `td event` is not a command; the diagnostic points at the
    // client verb that works.
    let out = td().args(["event", "sample(1)"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("td client event"), "{err}");
    // Trigger rules never fire outside a server: refused under every
    // one-shot command rather than parsing and silently doing nothing.
    let f = write_temp("event_matrix.td", SERVE_LAB);
    for cmd in ["run", "trace", "decide", "repl"] {
        let out = td().args([cmd]).arg(&f).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("triggers"), "{cmd}: {err}");
        assert!(err.contains("td serve"), "{cmd}: {err}");
    }
    let out = td().args(["fragment"]).arg(&f).output().unwrap();
    assert!(
        out.status.success(),
        "fragment classifies, never fires: {out:?}"
    );
}

/// End-to-end reactive flow over the real binary: ingest events with
/// `td client event`, watch the trigger land, and check the report's
/// events section.
#[test]
fn reactive_serve_over_the_binary() {
    let f = write_temp("reactive_e2e.td", SERVE_LAB);
    let dir = serve_dir("reactive");
    let db_dir = dir.join("db");
    let socket = dir.join("td.sock");
    let report = dir.join("reactive_report.json");
    let sock_flag = format!("--socket={}", socket.display());
    let server = td()
        .arg(format!("--db={}", db_dir.display()))
        .arg(&sock_flag)
        .arg(format!("--report={}", report.display()))
        .args(["serve"])
        .arg(&f)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let server = Serve::guard(server);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let out = td().args(["client", "ping", &sock_flag]).output().unwrap();
        if out.status.success() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server did not come up: {:?}",
            server.output()
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    // Ingest the pattern's two halves.
    let out = td()
        .args(["client", "event", "sample(7)", &sock_flag])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let line = String::from_utf8(out.stdout).unwrap();
    assert!(line.contains("matched=0"), "{line}");
    let out = td()
        .args(["client", "event", "result(7, 2)", &sock_flag])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let line = String::from_utf8(out.stdout).unwrap();
    assert!(line.contains("matched=1"), "{line}");
    // The trigger runs on a background scheduler; poll until it lands.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let out = td().args(["client", "stats", &sock_flag]).output().unwrap();
        let line = String::from_utf8(out.stdout).unwrap();
        if line.contains("triggers_fired=1") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "trigger did not fire: {line}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let out = td()
        .args(["client", "run", "handled(S, Q)", &sock_flag])
        .output()
        .unwrap();
    let line = String::from_utf8(out.stdout).unwrap();
    assert!(line.contains("S=7") && line.contains("Q=2"), "{line}");
    // A malformed event answers err (exit 1) without killing the server.
    let out = td()
        .args(["client", "event", "nope(1)", &sock_flag])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // Stop; the summary and report carry the event counters.
    let out = td().args(["client", "stop", &sock_flag]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = server.output();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 events ingested"), "{stdout}");
    assert!(stdout.contains("1 triggers fired"), "{stdout}");
    let (doc, latency_samples) = read_serve_report(&report);
    assert_eq!(serve(&doc, "events.ingested"), Some(&Value::Num(2.0)));
    assert_eq!(serve(&doc, "triggers.fired"), Some(&Value::Num(1.0)));
    assert_eq!(metric(&doc, "events.ingested"), 2.0);
    assert_eq!(metric(&doc, "triggers.fired"), 1.0);
    // `run_trigger` records one sample per job, fired or not.
    assert_eq!(latency_samples, 1.0, "one trigger execution");
    std::fs::remove_dir_all(&dir).unwrap();
}
