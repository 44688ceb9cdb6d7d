//! tdbench — the repository's one benchmark: six workloads, end to end and
//! layer by layer. See `README.md` in the package directory for the method, the
//! metric glossary and the public API the benchmark pins.
//!
//! ```text
//! tdbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! tdbench repeat [--workload NAME] [--seed N] [--seconds S]
//! ```
//!
//! Each run prints a detail line (method, sample counts, oracle notes) and
//! then one result line `{"correct", "attempted", "failed", "metrics"}`.
//! Without `--workload` every workload runs (`repeat`: every workload that
//! `BENCHMARK.json` lists); without `--trace` each runs untraced (end-to-end
//! metrics) and then traced (per-layer metrics).

mod alloc;
mod catalogue;
mod datalog_views;
mod events;
mod inproc;
mod probes;
mod proc;
mod search_mix;
mod serve_bank;
mod server;
mod stats;
mod trace;

use catalogue::{Metric, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::ratio;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Share of `--seconds` run before the measured window and discarded.
pub const WARMUP_SHARE: f64 = 0.1;
/// `setup_s` is the fastest of a run's set-ups: at least `MIN_SETUPS`, and
/// then as many more, up to `MAX_SETUPS`, as `SETUP_BUDGET` pays for — a
/// set-up of a few milliseconds needs many repeats to find a quiet moment.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 51;
pub const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// A traced run alternates this many traced and untraced stretches, each a
/// tenth of `--seconds`, so that interference from outside falls on both
/// sides of the overhead ratio alike.
pub const ALTERNATIONS: u32 = 4;

/// What one run is asked to do.
pub struct Ctx {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The released `td` binary, beside this executable.
    pub td: PathBuf,
    /// `<target>/tdbench`: span files and run directories live here.
    pub out: PathBuf,
}

impl Ctx {
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * WARMUP_SHARE)
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// One traced or untraced stretch of a traced run.
    pub fn stretch(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 10.0)
    }

    /// A fresh, empty directory for this run's stores and generated
    /// programs; anything a previous run left there is removed.
    pub fn run_dir(&self, sub: &str) -> Result<PathBuf, String> {
        let dir = self.out.join("run").join(self.workload.name).join(sub);
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("{}: {e}", dir.display()));
            }
            _ => {}
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn require_td(&self) -> Result<(), String> {
        if self.td.is_file() {
            Ok(())
        } else {
            Err(format!(
                "`{}` not found; build it with `cargo build --release -p td-cli`",
                self.td.display()
            ))
        }
    }
}

/// Set up repeatedly (see [`MIN_SETUPS`]); `dispose` takes each product but
/// the last, outside the timing. Returns the last product and every time.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
    mut dispose: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let started = Instant::now();
        let made = set_up()?;
        spent += started.elapsed();
        times.push(started.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS && spent >= SETUP_BUDGET;
        if enough || times.len() == MAX_SETUPS {
            return Ok((made, times));
        }
        dispose(made)?;
    }
}

/// What one run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations that are not a single failed op (a broken
    /// invariant, a counter mismatch). Any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Metric name -> (value, samples behind it).
    pub values: BTreeMap<&'static str, (f64, u64)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, samples));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The end-to-end metrics of an untraced run over `ops` measured ops.
    pub fn set_end_to_end(&mut self, setups: &[f64], timings: &Timings, ops: u64, rss_mib: f64) {
        // Every set-up of a run does the same work, so like an op's floor.
        let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
        self.set("setup_s", fastest, setups.len() as u64);
        self.notes.push(format!(
            "set-ups: {} made, fastest {fastest:.6} s, median {:.6} s",
            setups.len(),
            stats::median(setups)
        ));
        self.set("ops_per_s", timings.ops_per_s, ops);
        self.set("cpu_us_per_op", timings.cpu_us_per_op, ops);
        self.set("rss_mb", rss_mib, 1);
    }
}

/// The end-to-end timings of a run; how they are taken differs between
/// in-process and server workloads (see `stats`).
pub struct Timings {
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
}

fn run_workload(ctx: &Ctx) -> Result<Report, String> {
    match ctx.workload.name {
        catalogue::SEARCH_MIX => search_mix::run(ctx),
        catalogue::DATALOG_VIEWS => datalog_views::run(ctx),
        catalogue::SERVE_DISJOINT | catalogue::SERVE_HOT => serve_bank::run(ctx),
        catalogue::EVENTS_PACED | catalogue::EVENTS_BURST => events::run(ctx),
        other => unreachable!("catalogue names a workload without a runner: {other}"),
    }
}

/// Fold a traced run's spans into the `trace.*` metrics and write them to
/// `<out>/<workload>.spans.jsonl`. `overhead` is the traced run's time per
/// unit of work over the untraced run's.
pub fn record_trace(
    ctx: &Ctx,
    report: &mut Report,
    spans: &[trace::Span],
    overhead: f64,
) -> Result<trace::Summary, String> {
    let path = ctx.out.join(format!("{}.spans.jsonl", ctx.workload.name));
    trace::write_jsonl(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    let sum = trace::summarize(spans);
    let n = sum.requests;
    report.set("trace.coverage", sum.coverage(), n);
    report.set("trace.overhead_ratio", overhead, n);
    report.set("trace.spans", sum.spans as f64, n);
    report.set("trace.requests", n as f64, n);
    report.set("trace.share.parser", sum.layer_share("parser"), n);
    report.set("trace.share.db", sum.layer_share("db"), n);
    report.set("trace.share.engine", sum.layer_share("engine"), n);
    report.set("trace.share.store", sum.layer_share("store"), n);
    report.set("trace.share.events", sum.layer_share("events"), n);
    report.set("trace.share.queue", sum.layer_share("queue"), n);
    let store_calls = spans.iter().filter(|s| s.layer == "store").count();
    report.set("trace.store_calls", store_calls as f64, n);
    Ok(sum)
}

/// A JSON number with all the digits measured. Non-finite values cannot
/// come out of a correct run; print 0 rather than break the line's framing.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The names a run prints: every metric of its list, in catalogue order.
fn printed_metrics<'a>(
    report: &'a Report,
    list: &'static [Metric],
) -> impl Iterator<Item = (&'static Metric, f64, u64)> + 'a {
    list.iter().map(|m| {
        let (v, n) = report.values.get(m.name).copied().unwrap_or((0.0, 0));
        (m, v, n)
    })
}

fn detail_line(ctx: &Ctx, report: &Report) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let samples: Vec<String> = printed_metrics(report, catalogue::metrics(ctx.trace))
        .map(|(m, _, n)| format!("{}:{n}", json_str(m.name)))
        .collect();
    let list = |items: &[String]| {
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\
         \"clients\":{},\"method\":{},\"statistic\":{},\"flush\":{},\
         \"samples\":{{{}}},\"violations\":[{}],\"notes\":[{}]}}",
        json_str(ctx.workload.name),
        u8::from(ctx.trace),
        ctx.seed,
        json_num(ctx.seconds),
        catalogue::CLIENTS,
        json_str(ctx.workload.method),
        json_str(
            "warm-up of a tenth of --seconds discarded. In-process workloads repeat one fixed \
             round of ops: ops_per_s and cpu_us_per_op are the round's floor, each position's \
             fastest repeat summed, and the notes give the whole-window figures, interference \
             included. Server workloads: ops completed inside the window over its length, and \
             the server's CPU time over the window per op. Latency percentiles are over all \
             measured ops; counts are exact; setup_s is the fastest of the set-ups made"
        ),
        json_str("shipped default: one fsync per commit group, default TxOptions"),
        samples.join(","),
        list(&report.violations),
        list(&report.notes),
    )
}

fn result_line(ctx: &Ctx, report: &Report) -> String {
    let metrics: Vec<String> = printed_metrics(report, catalogue::metrics(ctx.trace))
        .map(|(m, v, _)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(v),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

struct Args {
    repeat: bool,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

const USAGE: &str =
    "usage: tdbench [repeat] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        repeat: false,
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: None,
    };
    let mut it = argv.iter().peekable();
    if it.peek().is_some_and(|a| *a == "repeat") {
        args.repeat = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(catalogue::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// `path` relative to the working directory when it lies below it: a Unix
/// socket address holds at most 108 bytes, and a checkout can sit deep.
fn relative_to_cwd(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| path.to_path_buf())
}

fn locate() -> Result<(PathBuf, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let target = bin_dir
        .parent()
        .ok_or("executable is not inside a target directory")?;
    Ok((
        relative_to_cwd(&bin_dir.join("td")),
        relative_to_cwd(&target.join("tdbench")),
    ))
}

fn run_one(args: &Args, workload: &'static Workload, trace: bool) -> Result<Report, String> {
    let (td, out) = locate()?;
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace,
        td,
        out,
    };
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let report = run_workload(&ctx).map_err(|e| format!("{}: {e}", workload.name))?;
    println!("{}", detail_line(&ctx, &report));
    println!("{}", result_line(&ctx, &report));
    Ok(report)
}

/// The workload named, or all of them; `gated_only` leaves out those
/// whose figures are not expected to repeat (see `Workload::gated`).
fn selected(args: &Args, gated_only: bool) -> Vec<&'static Workload> {
    match args.workload {
        Some(w) => vec![w],
        None => catalogue::WORKLOADS
            .iter()
            .filter(|w| w.gated || !gated_only)
            .collect(),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let traces = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    for workload in selected(args, false) {
        for &trace in &traces {
            run_one(args, workload, trace)?;
        }
    }
    Ok(())
}

/// Run the gated set twice with the same seed and compare every end-to-end
/// metric of every workload against its bound: two runs of one program must
/// agree at least as closely as a later change is required to.
fn repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut table = Vec::new();
    for workload in selected(args, true) {
        let first = run_one(args, workload, false)?;
        let second = run_one(args, workload, false)?;
        ok &= first.correct() && second.correct();
        for m in &catalogue::END_TO_END {
            let a = first.values.get(m.name).map_or(0.0, |v| v.0);
            let b = second.values.get(m.name).map_or(0.0, |v| v.0);
            let diff = ratio((b - a).abs(), a.abs());
            let breach = diff > m.bound;
            ok &= !breach;
            table.push(format!(
                "{:<15} {:<14} {:<7} {:>14.4} {:>14.4} {:>7.3} {:>6.2} {}",
                workload.name,
                m.name,
                m.better.as_str(),
                a,
                b,
                diff,
                m.bound,
                if breach { "BREACH" } else { "ok" }
            ));
        }
    }
    eprintln!(
        "{:<15} {:<14} {:<7} {:>14} {:>14} {:>7} {:>6}",
        "workload", "metric", "better", "first", "second", "diff", "bound"
    );
    for row in table {
        eprintln!("{row}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // A run that finds wrong outputs still exits 0: its result line says
    // `"correct":false`. Only `repeat` turns its verdict into an exit code.
    let outcome = parse_args(&argv).and_then(|args| {
        if args.repeat {
            repeat(&args)
        } else {
            run(&args).map(|()| true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tdbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: bool) -> Ctx {
        Ctx {
            workload: &catalogue::WORKLOADS[0],
            seed: 1,
            seconds: 10.0,
            trace,
            td: PathBuf::from("td"),
            out: PathBuf::from("out"),
        }
    }

    /// The names between `"metrics":{` and the end of a result line.
    fn printed_names(line: &str) -> Vec<String> {
        let body = &line[line.find("\"metrics\":{").unwrap() + 11..];
        body.split("\":{\"value\"")
            .filter_map(|chunk| chunk.rsplit('"').next())
            .filter(|s| !s.is_empty() && !s.contains('}'))
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn result_line_prints_exactly_the_catalogue_metrics() {
        for trace in [false, true] {
            let mut report = Report {
                attempted: 10,
                ..Report::default()
            };
            report.set("ops_per_s", 1234.5678, 10);
            let line = result_line(&ctx(trace), &report);
            let expect: Vec<String> = catalogue::metrics(trace)
                .iter()
                .map(|m| m.name.to_owned())
                .collect();
            assert_eq!(printed_names(&line), expect);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{")
            );
            assert!(!line.contains('\n'));
        }
        let line = result_line(&ctx(false), &{
            let mut r = Report::default();
            r.set("ops_per_s", 1234.5678, 10);
            r
        });
        assert!(line.contains("\"ops_per_s\":{\"value\":1234.5678,\"unit\":\"1/s\"}"));
    }

    #[test]
    fn a_failed_op_or_a_violation_makes_the_run_incorrect() {
        let mut r = Report::default();
        assert!(r.correct());
        r.check(false, || "balance not conserved".into());
        assert!(!r.correct());
        let r = Report {
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload serve_hot --seed 7 --seconds 12 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.unwrap().name, "serve_hot");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, Some(true)));
        assert!(!a.repeat);
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["repeat".into()]).unwrap().repeat);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c d\"");
    }
}
