//! What the two in-process workloads share: a closed loop of whole rounds
//! on this thread, and the shape of an untraced and a traced run around it.

use crate::catalogue::RSS_AT_OPS;
use crate::proc;
use crate::stats::{self, Floor, Sample};
use crate::trace::{ratio, Span, Summary, Tracer};
use crate::{record_trace, Ctx, Report, Timings, ALTERNATIONS};
use std::time::{Duration, Instant};

/// One stretch of the loop: what it did after its warm-up.
pub struct Phase {
    /// Every measured op.
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    pub rounds: u64,
    pub failed: u64,
    /// This process's peak RSS when the loop, warm-up included, had done
    /// [`RSS_AT_OPS`] ops; `None` if it never got that far.
    pub rss_at_mark: Option<f64>,
    pub spans: Vec<Span>,
}

/// What one call of [`drive`] is asked to do: loop for `warmup` without
/// recording, then for `duration`, with spans on or off. `lane` keeps the
/// span ids of successive traced stretches apart.
pub struct Stretch {
    pub warmup: Duration,
    pub duration: Duration,
    pub traced: bool,
    pub lane: u32,
}

/// Run whole rounds of `round_len` ops until the stretch is over.
/// `op(i, tracer, req)` runs the round's `i`-th op as request `req` and says
/// whether its output was right. The `i`-th op must do the same work in
/// every round: the end-to-end figures are each position's floor.
pub fn drive(
    stretch: &Stretch,
    round_len: usize,
    mut op: impl FnMut(usize, &mut Tracer, u64) -> Result<bool, String>,
) -> Result<Phase, String> {
    let &Stretch {
        warmup, duration, ..
    } = stretch;
    let pid = std::process::id();
    let started = Instant::now();
    let mut tr = Tracer::new(stretch.traced, stretch.lane, started);
    let mut phase = Phase {
        samples: Vec::new(),
        elapsed: Duration::ZERO,
        rounds: 0,
        failed: 0,
        rss_at_mark: None,
        spans: Vec::new(),
    };
    // When the measured part began.
    let mut measured_from = warmup.is_zero().then_some(Duration::ZERO);
    let mut req = 0;
    while started.elapsed() < warmup + duration {
        for i in 0..round_len {
            let cpu_before = proc::thread_cpu_us();
            let op_started = Instant::now();
            let right = op(i, &mut tr, req)?;
            let latency_us = op_started.elapsed().as_secs_f64() * 1e6;
            let cpu_us = proc::thread_cpu_us() - cpu_before;
            req += 1;
            let done = started.elapsed();
            if req == RSS_AT_OPS {
                phase.rss_at_mark = Some(proc::rss_mib(pid)?);
            }
            match measured_from {
                Some(from) => {
                    phase.samples.push(Sample {
                        done: done - from,
                        latency_us,
                        cpu_us,
                        position: i as u32,
                    });
                    phase.failed += u64::from(!right);
                }
                None if done >= warmup => measured_from = Some(done),
                None => {}
            }
        }
        phase.rounds += 1;
    }
    if let Some(from) = measured_from {
        phase.elapsed = started.elapsed() - from;
    }
    phase.spans = tr.into_spans();
    Ok(phase)
}

/// The untraced run: warm up, measure for `--seconds`, report end to end.
/// `run` drives the workload's loop for one stretch; `round` names the
/// kind of op at each position of its round, for the notes.
pub fn untraced(
    ctx: &Ctx,
    report: &mut Report,
    setups: &[f64],
    round: &[&'static str],
    mut run: impl FnMut(&Stretch) -> Result<Phase, String>,
) -> Result<(), String> {
    let phase = run(&Stretch {
        warmup: ctx.warmup(),
        duration: ctx.window(),
        traced: false,
        lane: 0,
    })?;
    let ops = phase.samples.len() as u64;
    report.attempted = ops;
    report.failed = phase.failed;
    // The sample log grows with every op, so memory is read at a fixed op
    // count: the same work on a fast and a slow system.
    let rss = match phase.rss_at_mark {
        Some(rss) => rss,
        None => proc::rss_mib(std::process::id())?,
    };
    let round_len = round.len();
    let floor = Floor::of(&phase.samples, round_len);
    let timings = Timings {
        ops_per_s: floor.ops_per_s(),
        cpu_us_per_op: floor.cpu_us_per_op(),
    };
    report.set_end_to_end(setups, &timings, ops, rss);
    report.notes.push(format!(
        "whole window, interference included: {ops} ops ({} rounds of {round_len}) in {:.3} s = {:.1}/s, median op {:.1} us",
        ops / round_len as u64,
        phase.elapsed.as_secs_f64(),
        ratio(ops as f64, phase.elapsed.as_secs_f64()),
        stats::latency_percentile(&phase.samples, 0.5),
    ));
    // Where the round's floor goes, kind by kind.
    let mut kinds = round.to_vec();
    kinds.sort_unstable();
    kinds.dedup();
    let shares: Vec<String> = kinds
        .iter()
        .map(|kind| {
            let of_kind = || (0..round_len).filter(|&i| round[i] == *kind);
            let us: f64 = of_kind().map(|i| floor.wall_us[i]).sum();
            format!(
                "{kind} {} x {:.1} us",
                of_kind().count(),
                us / of_kind().count() as f64
            )
        })
        .collect();
    report
        .notes
        .push(format!("floor of one round: {}", shares.join(", ")));
    Ok(())
}

/// Stretches of one kind, added up.
#[derive(Default)]
struct Side {
    elapsed: Duration,
    rounds: u64,
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

impl Side {
    fn absorb(&mut self, p: Phase, report: &mut Report) {
        report.attempted += p.samples.len() as u64;
        report.failed += p.failed;
        self.elapsed += p.elapsed;
        self.rounds += p.rounds;
        self.samples.extend(p.samples);
        self.spans.extend(p.spans);
    }

    fn per_round(&self) -> f64 {
        ratio(self.elapsed.as_secs_f64(), self.rounds as f64)
    }
}

/// The traced run: after a warm-up, the same loop with spans on and,
/// alternating, with spans off for the overhead ratio. Sets the `trace.*`
/// metrics and returns the spans' summary.
pub fn traced(
    ctx: &Ctx,
    report: &mut Report,
    mut run: impl FnMut(&Stretch) -> Result<Phase, String>,
) -> Result<Summary, String> {
    let mut stretch = |duration, traced, lane| {
        run(&Stretch {
            warmup: Duration::ZERO,
            duration,
            traced,
            lane,
        })
    };
    stretch(ctx.warmup(), false, 0)?;
    let (mut on, mut off) = (Side::default(), Side::default());
    for lane in 0..ALTERNATIONS {
        on.absorb(stretch(ctx.stretch(), true, lane)?, report);
        off.absorb(stretch(ctx.stretch(), false, 0)?, report);
    }
    let overhead = ratio(on.per_round(), off.per_round());
    let sum = record_trace(ctx, report, &on.spans, overhead)?;
    let n = off.samples.len() as u64;
    report.set(
        "trace.op_p50_us",
        stats::latency_percentile(&off.samples, 0.50),
        n,
    );
    report.set(
        "trace.op_p90_us",
        stats::latency_percentile(&off.samples, 0.90),
        n,
    );
    report.set(
        "trace.op_p99_us",
        stats::latency_percentile(&off.samples, 0.99),
        n,
    );
    Ok(sum)
}
