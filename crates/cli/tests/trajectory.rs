//! The performance trajectory, `TRAJECTORY.jsonl` at the workspace root,
//! keeps its schema.
//!
//! Every row is one JSON object on one line. `scripts/pairs.sh` appends a
//! row per invocation (`"source":"pairs.sh"`); rows backfilled from the
//! prose of CHANGES.md say `"source":"CHANGES.md"` and may leave out what
//! that prose did not state (`null`; a relative change it stated alone is
//! `change_pct`). This test reads the file line by line
//! with the workspace's own JSON reader and checks every row, so that a
//! regression is a diff of this file rather than a search through prose.

#[allow(dead_code)]
#[path = "support/json.rs"]
mod json;

use json::Value;

const METRICS: [&str; 4] = ["setup_s", "ops_per_s", "cpu_us_per_op", "rss_mb"];
const VERDICTS: [&str; 3] = ["gain", "loss", "unresolved"];
fn number_or_null(v: Option<&Value>) -> bool {
    matches!(v, Some(Value::Num(_)) | Some(Value::Null))
}

/// Everything wrong with one row, as readable lines.
fn row_faults(row: &Value) -> Vec<String> {
    let mut faults = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            faults.push(what.to_owned());
        }
    };
    need(
        row.get("schema").and_then(Value::as_str) == Some("td-trajectory/v1"),
        "schema",
    );
    let source = row.get("source").and_then(Value::as_str);
    need(matches!(source, Some("pairs.sh" | "CHANGES.md")), "source");
    let live = source == Some("pairs.sh");
    for key in ["parent", "change", "workload"] {
        let text = row.get(key).and_then(Value::as_str);
        need(text.is_some_and(|t| !t.is_empty()), key);
    }
    for key in ["pairs", "seconds", "nproc"] {
        let n = row.get(key).and_then(Value::as_f64);
        need(
            n.is_some_and(|n| n >= 1.0) || (!live && number_or_null(row.get(key))),
            key,
        );
    }
    let Some(Value::Obj(metrics)) = row.get("metrics") else {
        need(false, "metrics");
        return faults;
    };
    need(!metrics.is_empty(), "metrics: none");
    if live {
        need(
            METRICS.iter().all(|m| metrics.contains_key(*m)),
            "metrics: all four",
        );
    }
    for (name, m) in metrics {
        need(
            METRICS.contains(&name.as_str()),
            &format!("metrics: unknown `{name}`"),
        );
        // A backfilled row whose prose gave only a relative change has
        // `change_pct` in place of the medians.
        let relative = !live && m.get("change_pct").and_then(Value::as_f64).is_some();
        for key in ["parent_median", "change_median", "wins"] {
            let n = m.get(key);
            let ok = n.and_then(Value::as_f64).is_some_and(|n| n >= 0.0);
            need(
                ok || (relative && key != "wins" && number_or_null(n)),
                &format!("{name}.{key}"),
            );
        }
        for key in ["ties", "parent_quartile_distance"] {
            let n = m.get(key);
            let ok = n.and_then(Value::as_f64).is_some_and(|n| n >= 0.0);
            need(ok || (!live && number_or_null(n)), &format!("{name}.{key}"));
        }
        let verdict = m.get("verdict").and_then(Value::as_str).unwrap_or("");
        need(VERDICTS.contains(&verdict), &format!("{name}.verdict"));
        let (wins, pairs) = (
            m.get("wins").and_then(Value::as_f64),
            row.get("pairs").and_then(Value::as_f64),
        );
        if let (Some(wins), Some(pairs)) = (wins, pairs) {
            need(wins <= pairs, &format!("{name}.wins above pairs"));
            // The house rule: a gain is nine wins in ten.
            need(
                verdict != "gain" || 10.0 * wins >= 9.0 * pairs,
                &format!("{name}: gain on {wins} wins"),
            );
        }
    }
    match row.get("structure") {
        Some(Value::Obj(sides)) => {
            for side in ["parent", "change"] {
                let Some(Value::Obj(counts)) = sides.get(side) else {
                    need(false, &format!("structure.{side}"));
                    continue;
                };
                // Which counts a row carries is `pairs.sh`'s choice at the
                // time; each is a number, or null where a workload has none.
                need(!counts.is_empty(), &format!("structure.{side}: none"));
                for (name, n) in counts {
                    need(number_or_null(Some(n)), &format!("structure.{side}.{name}"));
                }
            }
        }
        Some(Value::Null) if !live => {}
        _ => need(false, "structure"),
    }
    faults
}

#[test]
fn every_row_of_the_trajectory_keeps_the_schema() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../TRAJECTORY.jsonl");
    let text = std::fs::read_to_string(path).expect("TRAJECTORY.jsonl at the workspace root");
    let mut rows = 0;
    for (i, line) in text.lines().enumerate() {
        let row = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        let faults = row_faults(&row);
        assert!(faults.is_empty(), "line {}: {faults:?}\n{line}", i + 1);
        rows += 1;
    }
    assert!(rows > 0, "an empty trajectory");
}

#[test]
fn a_row_missing_what_it_must_state_is_refused() {
    let good = r#"{"schema":"td-trajectory/v1","source":"pairs.sh","parent":"a","change":"b","workload":"w","pairs":10,"seconds":30,"nproc":2,"metrics":{"setup_s":{"parent_median":1,"change_median":1,"wins":5,"ties":0,"parent_quartile_distance":0.1,"verdict":"unresolved"},"ops_per_s":{"parent_median":1,"change_median":2,"wins":9,"ties":0,"parent_quartile_distance":0.1,"verdict":"gain"},"cpu_us_per_op":{"parent_median":1,"change_median":1,"wins":5,"ties":0,"parent_quartile_distance":0.1,"verdict":"unresolved"},"rss_mb":{"parent_median":1,"change_median":1,"wins":5,"ties":0,"parent_quartile_distance":0.1,"verdict":"unresolved"}},"structure":{"parent":{"engine.steps_per_solve":1,"engine.backtracks_per_solve":1,"engine.db_ops_per_solve":1,"core.interned_syms_per_kop":0,"trace.spans":1},"change":{"engine.steps_per_solve":1,"engine.backtracks_per_solve":1,"engine.db_ops_per_solve":1,"core.interned_syms_per_kop":0,"trace.spans":null}}}"#;
    assert_eq!(
        row_faults(&json::parse(good).unwrap()),
        Vec::<String>::new()
    );
    for (from, to) in [
        (r#""wins":9"#, r#""wins":8"#),
        (r#""source":"pairs.sh""#, r#""source":"memory""#),
        (
            r#","rss_mb":{"parent_median":1,"change_median":1,"wins":5,"ties":0,"parent_quartile_distance":0.1,"verdict":"unresolved"}"#,
            "",
        ),
        (r#""structure":{"#, r#""structure":null,"x":{"#),
        (r#""nproc":2"#, r#""nproc":null"#),
    ] {
        let bad = good.replacen(from, to, 1);
        assert_ne!(bad, good);
        assert!(
            !row_faults(&json::parse(&bad).unwrap()).is_empty(),
            "accepted: {to}"
        );
    }
}
