//! End-to-end smoke test for `td --report` / `--log-json`: runs the binary
//! on a corpus program, validates the emitted JSON against the
//! `td-run-report/v2` schema, and checks that a cached run carries the
//! cache's section, that a second durable run reports its recovery, and
//! that a materialized run reports the materializer's counters.

#[path = "support/json.rs"]
mod json;

use std::path::PathBuf;
use std::process::Command;

use json::{validate_run_report, Value};

fn corpus(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(name)
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-report-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn td() -> Command {
    Command::new(env!("CARGO_BIN_EXE_td"))
}

fn run_with_report(args: &[&str], report: &PathBuf) -> Value {
    run_file_with_report("iterated_protocol.td", args, report)
}

fn run_file_with_report(file: &str, args: &[&str], report: &PathBuf) -> Value {
    let out = td()
        .args(args)
        .arg(format!("--report={}", report.display()))
        .arg("run")
        .arg(corpus(file))
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(report).unwrap();
    validate_run_report(&text).expect("report must satisfy td-run-report/v2")
}

#[test]
fn sequential_report_is_schema_valid() {
    let path = temp("seq.json");
    let doc = run_with_report(&[], &path);
    assert_eq!(doc.path("outcome.ok").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("command").and_then(Value::as_str), Some("run"));
    assert_eq!(
        doc.path("config.effective.strategy")
            .and_then(Value::as_str),
        Some("exhaustive")
    );
    // The search ran and committed updates.
    assert!(
        doc.path("metrics.counters.steps")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    assert!(
        doc.path("metrics.counters.committed_updates")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    // Final state is present with a digest string.
    assert!(doc
        .path("final_state.digest")
        .and_then(Value::as_str)
        .is_some());
}

#[test]
fn cached_report_carries_the_cache_section() {
    let plain = run_with_report(&[], &temp("plain.json"));
    assert_eq!(plain.get("cache"), Some(&Value::Null), "{plain:?}");
    let cached = run_with_report(&["--subgoal-cache"], &temp("cached.json"));
    assert!(
        matches!(cached.get("cache"), Some(Value::Obj(_))),
        "{cached:?}"
    );
    // The cache changes the work, not the witness: same final database.
    assert_eq!(
        plain.path("final_state.digest").and_then(Value::as_str),
        cached.path("final_state.digest").and_then(Value::as_str),
    );
}

#[test]
fn second_durable_run_reports_recovery() {
    let db = temp("durable.tdb");
    let _ = std::fs::remove_dir_all(&db);
    let flag = format!("--db={}", db.display());
    let first = run_with_report(&[&flag], &temp("durable1.json"));
    assert_eq!(
        first.path("store.recovery").and_then(Value::as_str),
        Some("fresh")
    );
    let second = run_with_report(&[&flag], &temp("durable2.json"));
    assert_eq!(
        second.path("store.recovery").and_then(Value::as_str),
        Some("recovered")
    );
    // The second run replayed what the first committed.
    assert_eq!(
        second.path("store.replayed").and_then(Value::as_f64),
        first.path("store.committed").and_then(Value::as_f64)
    );
}

#[test]
fn materialized_run_reports_materializer_counters() {
    // The per-run `mat_probes` counter must equal the materializer's own
    // tally.
    let doc = run_file_with_report(
        "reachability_maintenance.td",
        &["--materialize"],
        &temp("materialized.json"),
    );
    assert_eq!(
        doc.path("config.effective.materialize")
            .and_then(Value::as_bool),
        Some(true)
    );
    // Six counters; `states` went with the store it counted.
    let Some(Value::Obj(section)) = doc.get("materializer") else {
        panic!("no materializer section");
    };
    let keys: Vec<&str> = section.keys().map(String::as_str).collect();
    let expected = "delta_tuples maintain_us maintained_ops probes rebuilds state_hits";
    assert_eq!(keys.join(" "), expected);
    for counter in ["probes", "state_hits", "maintained_ops"] {
        let n = doc
            .path(&format!("materializer.{counter}"))
            .and_then(Value::as_f64);
        assert!(n > Some(0.0), "materializer.{counter} = {n:?}");
    }
    assert_eq!(
        doc.path("materializer.probes").and_then(Value::as_f64),
        doc.path("metrics.counters.mat_probes")
            .and_then(Value::as_f64),
    );
}

/// A `decide` that ran out of budget is not a refutation: its row carries
/// an error, so `ok: false` there cannot be read as "not executable".
#[test]
fn truncated_decide_row_carries_an_error() {
    let program = temp("up.td");
    std::fs::write(
        &program,
        "base c/1. init c(0).\nup <- c(N) * M is N + 1 * del.c(N) * ins.c(M) * up.\n?- up.\n",
    )
    .unwrap();
    let report = temp("truncated.json");
    let log = temp("truncated.jsonl");
    let out = td()
        .arg("--max-steps=50")
        .arg(format!("--report={}", report.display()))
        .arg(format!("--log-json={}", log.display()))
        .arg("decide")
        .arg(&program)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // (`validate_run_report` wants machine steps, which `decide` has none of.)
    let doc = json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("td-run-report/v2")
    );
    let row = &doc.get("goals").and_then(Value::as_arr).expect("goal rows")[0];
    assert_eq!(row.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        row.get("error").and_then(Value::as_str),
        Some("configuration budget exhausted after 50 configurations")
    );
    assert_eq!(
        row.path("counters.truncated").and_then(Value::as_f64),
        Some(1.0)
    );
    // The span that closes the search says the same: not "false".
    let spans = std::fs::read_to_string(&log).unwrap();
    assert!(
        spans.contains("decide executable=unknown configs=50"),
        "{spans}"
    );
}

#[test]
fn log_json_emits_span_events() {
    let log = temp("events.jsonl");
    let out = td()
        .arg(format!("--log-json={}", log.display()))
        .arg("run")
        .arg(corpus("iterated_protocol.td"))
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    // Every line is a self-contained JSON object with a seq and an event.
    for line in &lines {
        let ev = json::parse(line).expect("JSONL line must parse");
        assert!(ev.get("seq").is_some(), "{line}");
        assert!(ev.get("event").and_then(Value::as_str).is_some(), "{line}");
    }
    // The run is bracketed by a solve span.
    assert!(lines[0].contains("span_enter"), "{}", lines[0]);
    assert!(text.contains("\"phase\": \"solve\""), "{text}");
}

#[test]
fn misconfigured_flag_combinations_fail_fast() {
    let file = corpus("iterated_protocol.td");
    // --seed without --strategy=random.
    let out = td().args(["--seed=7", "run"]).arg(&file).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--strategy=random"));
    // --cache-capacity without --subgoal-cache.
    let out = td()
        .args(["--cache-capacity=64", "run"])
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--subgoal-cache"));
    // trace with --subgoal-cache (tracing disables the cache).
    let out = td()
        .args(["--subgoal-cache", "trace"])
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("disables the cache"));
    // --report on a command that never writes one.
    let out = td()
        .args(["--report=/tmp/nope.json", "fragment"])
        .arg(&file)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
