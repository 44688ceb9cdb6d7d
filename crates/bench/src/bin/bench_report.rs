//! Summarize `cargo bench` output as markdown (stdout) and, with
//! `--json PATH`, as a machine-readable JSON file.
//!
//! ```sh
//! cargo bench --workspace 2>&1 | tee bench_output.txt
//! cargo run -p td-bench --bin bench_report -- --json bench.json \
//!     < bench_output.txt > BENCH_SUMMARY.md
//! ```
//!
//! This summarizes the criterion-style `e01`–`e21` benches only. The
//! benchmark that gates changes is `tdbench` (`BENCHMARK.json` at the root,
//! sources in `src/bin/tdbench/`), which writes its own JSON.
//!
//! With `--run-report PATH` it instead reads a `td --report` JSON document,
//! validates it against the `td-run-report/v1` schema, and prints a markdown
//! summary of the run (exit code 1 on schema violations).

use std::io::Read;
use std::process::ExitCode;

use td_bench::json::{validate_run_report, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut run_report: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("bench_report: --json requires a path");
                    return ExitCode::from(2);
                };
                json_path = Some(p.clone());
                i += 2;
            }
            "--run-report" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("bench_report: --run-report requires a path");
                    return ExitCode::from(2);
                };
                run_report = Some(p.clone());
                i += 2;
            }
            other => {
                eprintln!("bench_report: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = run_report {
        return summarize_run_report(&path);
    }
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .expect("read stdin");
    let (benches, metrics) = td_bench::parse_bench_output(&text);
    print!("{}", td_bench::render_markdown(&benches, &metrics));
    if let Some(path) = json_path {
        let json = td_bench::render_json(&benches, &metrics);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("bench_report: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    eprintln!(
        "parsed {} benchmarks, {} metric rows",
        benches.len(),
        metrics.len()
    );
    ExitCode::SUCCESS
}

/// Validate one `td --report` document and print a markdown summary.
fn summarize_run_report(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_report: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match validate_run_report(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_report: `{path}` is not a valid run report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let s = |p: &str| {
        doc.path(p)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let n = |p: &str| doc.path(p).and_then(Value::as_f64).unwrap_or(0.0);
    println!("## Run report: {} `{}`", s("command"), s("file"));
    println!();
    println!(
        "outcome: **{}** ({} goals, {} failed), wall {:.3} ms",
        if doc.path("outcome.ok").and_then(Value::as_bool) == Some(true) {
            "ok"
        } else {
            "FAILED"
        },
        n("outcome.goals"),
        n("outcome.failed"),
        n("wall_ms"),
    );
    if let Some(Value::Obj(counters)) = doc.path("metrics.counters") {
        println!();
        println!("| counter | value |");
        println!("|---|---|");
        for (k, v) in counters {
            println!("| {k} | {} |", v.as_f64().unwrap_or(0.0));
        }
    }
    if let Some(digest) = doc.path("final_state.digest").and_then(Value::as_str) {
        println!();
        println!("final state digest: `{digest}`");
    }
    eprintln!("`{path}` is a valid td-run-report/v1 document");
    ExitCode::SUCCESS
}
