//! Unified observability: metrics registry, structured event stream, run
//! reports.
//!
//! The paper's §3 workflow story is explicitly about "monitoring, tracking
//! and querying the status of workflow activities". This module is the
//! machinery side of that story, shared by the sequential machine, by the
//! explicit-state search behind the decider, and by the layers above the
//! engine:
//!
//! * [`MetricsRegistry`] — the one home of every published number: named
//!   counters, max-folded gauges and [`Log2Hist`] histograms behind one
//!   mutex. The search hot path touches no lock at all: each run
//!   accumulates into a private `LocalMetrics` and the whole batch is
//!   absorbed under one short lock when the run ends. On top
//!   of the flat [`crate::Stats`] counters it keeps per-rule expansion
//!   counts, a log₂-bucketed backtrack-depth distribution, and per-subgoal
//!   cache hit/miss/unsuitable tallies (the accounting Fodor's tabling
//!   work calls for when tuning a subgoal cache). A server counts its
//!   requests, events and trigger latency into a registry of its own.
//! * [`EventLog`] — a thread-safe structured event stream built from
//!   [`TraceEvent`], including the span-like phase events
//!   ([`TraceEvent::SpanEnter`]/[`TraceEvent::SpanExit`]) that work even
//!   where the committed-path trace is unavailable (cached runs and the
//!   decider emit span events). Serialized as JSON Lines.
//! * [`RunReport`] — a single machine-readable JSON document per CLI run:
//!   outcome, wall time, registry snapshot, requested *and* effective
//!   config echo, and a digest of the final state. The report owns its
//!   frame only: every layer's section (subgoal cache, materializer, and
//!   whatever the store, CLI and server layers add) is rendered by the
//!   layer that owns the numbers and handed over as JSON text.
//!
//! No external JSON dependency: everything is written through
//! [`JsonObject`].

use crate::config::{EngineConfig, Fold, Stats, Strategy};
use crate::trace::{ProbeOutcome, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Mutex;
use td_core::{Goal, Program, RuleId};

/// The one histogram: log₂ buckets over non-negative integers. Bucket 0
/// counts zeros, bucket *k* ≥ 1 counts values in `[2^(k-1), 2^k)`, and the
/// last bucket absorbs everything above (2³¹ µs ≈ 36 minutes when the unit
/// is a microsecond latency).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Log2Hist {
    buckets: [u64; Log2Hist::BUCKETS],
}

impl Log2Hist {
    /// Number of buckets.
    pub const BUCKETS: usize = 32;

    fn bucket(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(Self::BUCKETS - 1)
    }

    /// Count one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
    }

    /// Fold another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Log2Hist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets) {
            *mine += theirs;
        }
    }

    /// Observations per bucket.
    pub fn buckets(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }

    /// The exclusive upper bound of the bucket holding the `p`-th
    /// percentile observation (0 for the zero bucket) — a conservative
    /// log₂-resolution percentile. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * p).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        let holder = self.buckets.iter().position(|c| {
            cum += c;
            cum >= target
        });
        match holder.unwrap_or(Self::BUCKETS - 1) {
            0 => 0,
            i => 1u64 << i,
        }
    }
}

/// Hit/miss/unsuitable tallies for one subgoal shape.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheTally {
    /// Probes that replayed a stored answer set.
    pub hits: u64,
    /// Probes that found nothing and enumerated an answer set.
    pub misses: u64,
    /// Probes that hit (or created) a negative `Unsuitable` entry.
    pub unsuitable: u64,
}

impl CacheTally {
    fn merge(&mut self, other: &CacheTally) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.unsuitable += other.unsuitable;
    }
}

/// Lock-free per-run metric accumulator. Constructed
/// enabled only when an [`Observer`] is attached, so the observers-off
/// hot path pays a single branch per observation.
#[derive(Clone, Debug)]
pub(crate) struct LocalMetrics {
    enabled: bool,
    rule_unfolds: BTreeMap<RuleId, u64>,
    backtrack_depths: Log2Hist,
    cache_subgoals: BTreeMap<String, CacheTally>,
}

impl LocalMetrics {
    /// An accumulator; pass `enabled = false` to make every observation a
    /// no-op (the unobserved configuration).
    pub fn new(enabled: bool) -> LocalMetrics {
        LocalMetrics {
            enabled,
            rule_unfolds: BTreeMap::new(),
            backtrack_depths: Log2Hist::default(),
            cache_subgoals: BTreeMap::new(),
        }
    }

    /// Is this accumulator recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Count one unfolding of `rule`.
    pub fn observe_unfold(&mut self, rule: RuleId) {
        if self.enabled {
            *self.rule_unfolds.entry(rule).or_default() += 1;
        }
    }

    /// Count one backtrack at choicepoint-stack depth `depth`.
    pub fn observe_backtrack(&mut self, depth: usize) {
        if self.enabled {
            self.backtrack_depths.record(depth as u64);
        }
    }

    /// Count one subgoal-cache probe for the subgoal shape `label`.
    pub fn observe_cache(&mut self, label: &str, outcome: ProbeOutcome) {
        if self.enabled {
            let t = self.cache_subgoals.entry(label.to_owned()).or_default();
            match outcome {
                ProbeOutcome::Hit => t.hits += 1,
                ProbeOutcome::Miss => t.misses += 1,
                ProbeOutcome::Unsuitable => t.unsuitable += 1,
            }
        }
    }
}

/// The subgoal-shape label used for per-subgoal cache tallies: predicate
/// name/arity for calls, `iso` for isolated blocks.
pub(crate) fn subgoal_label(goal: &Goal) -> String {
    match goal {
        Goal::Atom(a) => format!("{}/{}", a.pred.name, a.pred.arity),
        Goal::Iso(_) => "iso".to_owned(),
        _ => "goal".to_owned(),
    }
}

/// Registry name of the backtrack-depth histogram.
const BACKTRACK_DEPTHS: &str = "backtrack_depths";

/// Everything a [`MetricsRegistry`] holds, and what its
/// [`snapshot`](MetricsRegistry::snapshot) hands out: a point-in-time copy.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Runs (or searches) absorbed.
    pub runs: u64,
    /// Monotone sums (`steps`, `backtracks`, `cache_hits`, …).
    pub counters: BTreeMap<String, u64>,
    /// Maxima (`max_stack`, `peak_processes`).
    pub gauges: BTreeMap<String, u64>,
    /// Expansions per rule, keyed by `head/arity#id`.
    pub rule_unfolds: BTreeMap<String, u64>,
    /// Named histograms: `backtrack_depths` (backtracks per log₂
    /// choicepoint-stack depth) from the searches, plus whatever a
    /// layer records with [`MetricsRegistry::record`].
    pub histograms: BTreeMap<String, Log2Hist>,
    /// Per-subgoal cache tallies.
    pub cache_subgoals: BTreeMap<String, CacheTally>,
}

/// The entry `name` of `map`, created at its default if missing (the key
/// is allocated only then — a live counter is bumped without allocating).
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), V::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

/// The shared metrics registry: aggregates [`Stats`] and `LocalMetrics`
/// batches across runs (locked only at batch boundaries, never per search
/// step), and takes the named counters and
/// histogram samples of coarser-grained layers one short lock at a time.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Absorb one run's statistics and local metrics.
    /// Sum-like [`Stats`] fields accumulate into counters, maxima into
    /// gauges; rule ids are resolved to `head/arity#id` labels against
    /// `program`.
    pub(crate) fn absorb(&self, program: &Program, stats: &Stats, local: &LocalMetrics) {
        let mut g = self.lock();
        g.runs += 1;
        for (name, v, fold) in stats.rows() {
            match fold {
                Fold::Sum => *slot(&mut g.counters, name) += v,
                Fold::Max => {
                    let high = slot(&mut g.gauges, name);
                    *high = (*high).max(v);
                }
            }
        }
        for (rid, n) in &local.rule_unfolds {
            let rule = program.rule(*rid);
            let label = format!("{}/{}#{}", rule.head.pred.name, rule.head.pred.arity, rid.0);
            *g.rule_unfolds.entry(label).or_default() += n;
        }
        slot(&mut g.histograms, BACKTRACK_DEPTHS).merge(&local.backtrack_depths);
        for (l, t) in &local.cache_subgoals {
            g.cache_subgoals.entry(l.clone()).or_default().merge(t);
        }
    }

    /// Add `v` to the named counter (for counters outside [`Stats`], e.g.
    /// the decider's configuration count or a server's request count).
    /// Adding 0 registers the name, so it is published before its first
    /// increment.
    pub fn add_counter(&self, name: &str, v: u64) {
        *slot(&mut self.lock().counters, name) += v;
    }

    /// Count one observation in the named histogram.
    pub fn record(&self, name: &str, v: u64) {
        slot(&mut self.lock().histograms, name).record(v);
    }

    /// A consistent copy of everything absorbed so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }
}

impl MetricsSnapshot {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named histogram (empty when never touched).
    pub fn histogram(&self, name: &str) -> Log2Hist {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// Render as the `metrics` object of a run report. Of the histograms
    /// only `backtrack_depths` is part of that published shape; a layer
    /// that records others renders them in its own section.
    pub fn to_json(&self) -> String {
        let depths = self.histogram(BACKTRACK_DEPTHS);
        let depth_rows = depths.buckets().iter().enumerate().filter(|(_, n)| **n > 0);
        let depth_rows = depth_rows.map(|(i, n)| {
            let (lo, hi) = match i {
                0 => (0u64, 0u64),
                _ => (1u64 << (i - 1), (1u64 << i) - 1),
            };
            JsonObject::new()
                .field("depth_lo", lo)
                .field("depth_hi", hi)
                .field("count", n)
                .finish()
        });
        let tallies = self.cache_subgoals.iter().map(|(l, t)| {
            let tally = JsonObject::new()
                .field("hits", t.hits)
                .field("misses", t.misses)
                .field("unsuitable", t.unsuitable);
            (l, tally.finish())
        });
        JsonObject::new()
            .field("runs", self.runs)
            .field("counters", json_object(&self.counters))
            .field("gauges", json_object(&self.gauges))
            .field("rule_unfolds", json_object(&self.rule_unfolds))
            .field("backtrack_depths", json_array(depth_rows))
            .field("cache_subgoals", json_object(tallies))
            .finish()
    }
}

/// Thread-safe structured event stream. Unlike the committed-path trace
/// (which is truncated on backtracking and disabled under the cache and
/// the decider), the event log is append-only and records phase spans
/// from every search.
#[derive(Default, Debug)]
pub struct EventLog {
    events: Mutex<Vec<TraceEvent>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Append an event.
    pub fn emit(&self, ev: TraceEvent) {
        self.events.lock().expect("event log poisoned").push(ev);
    }

    /// Events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("event log poisoned").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().expect("event log poisoned").len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize as JSON Lines: one event object per line, in emission
    /// order, each carrying its sequence number.
    pub fn to_json_lines(&self) -> String {
        let events = self.events.lock().expect("event log poisoned");
        let mut out = String::new();
        for (seq, ev) in events.iter().enumerate() {
            out.push_str(&event_json(seq, ev));
            out.push('\n');
        }
        out
    }
}

/// One event as a JSON object (no trailing newline).
fn event_json(seq: usize, ev: &TraceEvent) -> String {
    let o = JsonObject::new().field("seq", seq);
    let update = |o: JsonObject, kind, pred: &td_core::Pred, tuple, changed| {
        o.string("event", kind)
            .string("pred", pred.name)
            .string("tuple", tuple)
            .field("changed", changed)
    };
    let span = |o: JsonObject, kind, phase: &crate::trace::SpanPhase, detail| {
        o.string("event", kind)
            .string("phase", phase.as_str())
            .string("detail", detail)
    };
    match ev {
        TraceEvent::Unfold { call, rule } => o
            .string("event", "unfold")
            .string("call", call)
            .field("rule", rule.0),
        TraceEvent::Match { query, tuple } => o
            .string("event", "match")
            .string("query", query)
            .string("tuple", tuple),
        TraceEvent::Absent { query } => o.string("event", "absent").string("query", query),
        TraceEvent::Ins {
            pred,
            tuple,
            changed,
        } => update(o, "ins", pred, tuple, changed),
        TraceEvent::Del {
            pred,
            tuple,
            changed,
        } => update(o, "del", pred, tuple, changed),
        TraceEvent::Builtin { rendered } => o.string("event", "builtin").string("check", rendered),
        TraceEvent::Choice { index } => o.string("event", "choice").field("index", index),
        TraceEvent::IsoEnter => o.string("event", "iso_enter"),
        TraceEvent::IsoExit => o.string("event", "iso_exit"),
        TraceEvent::SpanEnter { phase, detail } => span(o, "span_enter", phase, detail),
        TraceEvent::SpanExit { phase, detail } => span(o, "span_exit", phase, detail),
        TraceEvent::CacheProbe { subgoal, outcome } => o
            .string("event", "cache_probe")
            .string("subgoal", subgoal)
            .string("outcome", outcome.as_str()),
    }
    .finish()
}

/// The observability handle the engine carries: always a registry,
/// optionally an event log. Cheap to share behind an `Arc`.
#[derive(Default, Debug)]
pub struct Observer {
    /// The metrics registry every search absorbs into.
    pub registry: MetricsRegistry,
    log: Option<EventLog>,
}

impl Observer {
    /// Metrics only (no event stream).
    pub fn new() -> Observer {
        Observer::default()
    }

    /// Metrics plus a structured event log.
    pub fn with_event_log() -> Observer {
        Observer {
            registry: MetricsRegistry::new(),
            log: Some(EventLog::new()),
        }
    }

    /// The event log, when enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.log.as_ref()
    }

    /// Append an event (no-op without an event log; the closure is only
    /// evaluated when a log is attached).
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(log) = &self.log {
            log.emit(f());
        }
    }
}

/// Per-goal row of a [`RunReport`].
#[derive(Clone, Debug)]
pub struct GoalReport {
    /// The goal as written (with source variable names where known).
    pub goal: String,
    /// Did the goal commit?
    pub ok: bool,
    /// Fatal error rendering, if the goal faulted.
    pub error: Option<String>,
    /// Flat counters for this goal (search stats, decider configs, …).
    pub counters: Vec<(&'static str, u64)>,
}

impl GoalReport {
    /// A search's [`Stats`] as per-goal counter rows.
    pub fn stats_rows(stats: &Stats) -> Vec<(&'static str, u64)> {
        stats.rows().map(|(name, v, _)| (name, v)).collect()
    }
}

/// The single JSON document `td run/decide/serve --report=PATH` writes.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// CLI command (`run`, `trace`, `decide`, `serve`).
    pub command: String,
    /// Program file executed.
    pub file: String,
    /// Configuration as requested on the command line; the report echoes
    /// it beside the one that actually ran (gating rules applied — see
    /// [`EngineConfig::effective`]).
    pub config: EngineConfig,
    /// Wall-clock time of the whole command, milliseconds.
    pub wall_ms: f64,
    /// One row per `?-` goal, in file order.
    pub goals: Vec<GoalReport>,
    /// Content digest and tuple count of the database after the last goal
    /// (`None` when no goal committed a state, e.g. `decide`).
    pub final_state: Option<(u128, u64)>,
    /// The sections between `final_state` and `metrics`, in document
    /// order: `(key, JSON)`, each rendered by the layer that owns the
    /// numbers — [`crate::Engine::report_sections`] for the engine's own,
    /// then whatever the layers above it publish; `None` renders `null`.
    pub sections: Vec<(&'static str, Option<String>)>,
    /// Registry snapshot at the end of the run.
    pub metrics: MetricsSnapshot,
}

/// Schema tag written into every report; bump on breaking changes.
const RUN_REPORT_SCHEMA: &str = "td-run-report/v2";

impl RunReport {
    /// Render the full report as one JSON document, one top-level member
    /// per line.
    pub fn to_json(&self) -> String {
        let failed = self.goals.iter().filter(|g| !g.ok).count();
        let goals: String = self
            .goals
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let row = JsonObject::new()
                    .string("goal", &g.goal)
                    .field("ok", g.ok)
                    .field("error", json_opt(g.error.as_deref().map(json_string)))
                    .field("counters", json_object(g.counters.iter().copied()));
                let sep = if i + 1 < self.goals.len() { "," } else { "" };
                format!("    {}{sep}\n", row.finish())
            })
            .collect();
        let mut members = vec![
            ("schema", json_string(RUN_REPORT_SCHEMA)),
            ("command", json_string(&self.command)),
            ("file", json_string(&self.file)),
            ("wall_ms", format!("{:.3}", self.wall_ms)),
            (
                "config",
                JsonObject::new()
                    .field("requested", config_json(&self.config))
                    .field("effective", config_json(&self.config.effective()))
                    .finish(),
            ),
            (
                "outcome",
                JsonObject::new()
                    .field("ok", failed == 0)
                    .field("goals", self.goals.len())
                    .field("failed", failed)
                    .finish(),
            ),
            ("goals", format!("[\n{goals}  ]")),
            (
                "final_state",
                json_opt(self.final_state.map(|(digest, tuples)| {
                    JsonObject::new()
                        .string("digest", format_args!("0x{digest:032x}"))
                        .field("tuples", tuples)
                        .finish()
                })),
            ),
        ];
        for (key, section) in &self.sections {
            members.push((key, json_opt(section.as_deref())));
        }
        members.push(("metrics", self.metrics.to_json()));
        let lines: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

/// An [`EngineConfig`] as a JSON object (used for both the requested and
/// the effective echo in [`RunReport`]).
fn config_json(c: &EngineConfig) -> String {
    let (strategy, seed) = match c.strategy {
        Strategy::Exhaustive => ("exhaustive", None),
        Strategy::ExhaustiveRandom(s) => ("random", Some(s)),
        Strategy::RoundRobin => ("round-robin", None),
        Strategy::Leftmost => ("leftmost", None),
    };
    JsonObject::new()
        .string("strategy", strategy)
        .field("seed", json_opt(seed))
        .field("max_steps", c.max_steps)
        .field("max_stack", c.max_stack)
        .field("trace", c.trace)
        .field("memo_failures", c.memo_failures)
        .field("subgoal_cache", c.subgoal_cache)
        .field("cache_capacity", c.cache_capacity)
        .field("materialize", c.materialize)
        .finish()
}

/// The one JSON writer: an object rendered member by member, in call
/// order, as `{"k": v, "s": "text"}`. Every report section — the engine's
/// own and the ones the layers above render for [`RunReport::sections`] —
/// and every event-stream line goes through it.
#[derive(Default, Debug)]
pub struct JsonObject {
    members: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// A member whose value is already JSON: a number, a boolean, `null`,
    /// or a rendered object or array.
    pub fn field(mut self, key: &str, value: impl Display) -> JsonObject {
        if !self.members.is_empty() {
            self.members.push_str(", ");
        }
        self.members
            .push_str(&format!("\"{}\": {value}", json_escape(key)));
        self
    }

    /// A string member (the rendering of `value`, escaped and quoted).
    pub fn string(self, key: &str, value: impl Display) -> JsonObject {
        self.field(key, json_string(&value.to_string()))
    }

    /// The rendered object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.members)
    }
}

/// A JSON object of `(key, already-rendered value)` rows, in their order.
pub fn json_object<K: AsRef<str>>(rows: impl IntoIterator<Item = (K, impl Display)>) -> String {
    let object = JsonObject::new();
    rows.into_iter()
        .fold(object, |o, (k, v)| o.field(k.as_ref(), v))
        .finish()
}

/// A JSON array of already-rendered values.
pub fn json_array(items: impl IntoIterator<Item = impl Display>) -> String {
    let items: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// `null` for `None`, the rendered value otherwise.
fn json_opt(value: Option<impl Display>) -> String {
    value.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// A quoted, escaped JSON string.
fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Minimal JSON string escaping.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanPhase;

    #[test]
    fn log2_hist_bucket_edges() {
        let edges = [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (u64::MAX, 31)];
        let mut h = Log2Hist::default();
        for (v, bucket) in edges {
            assert_eq!(Log2Hist::bucket(v), bucket, "value {v}");
            h.record(v);
        }
        assert_eq!(h.buckets()[2], 2, "2 and 3 share [2, 4)");
        assert_eq!(h.buckets().iter().sum::<u64>(), edges.len() as u64);
        let mut sum = h;
        sum.merge(&h);
        assert_eq!(sum.buckets()[2], 4);
        assert_eq!(sum.buckets()[31], 2);
    }

    #[test]
    fn log2_hist_percentiles_are_bucket_upper_bounds() {
        let mut h = Log2Hist::default();
        assert_eq!((h.percentile(0.50), h.percentile(0.99)), (0, 0), "empty");
        h.record(0);
        assert_eq!(h.percentile(0.99), 0, "the zero bucket's bound is 0");
        let mut h = Log2Hist::default();
        h.record(5);
        assert_eq!((h.percentile(0.50), h.percentile(0.99)), (8, 8), "one");
        // 98 fast observations and 2 slow ones: p50 sits with the fast,
        // p99 (the 99th of 100) with the slow.
        for _ in 0..97 {
            h.record(5);
        }
        h.record(1000);
        h.record(1000);
        assert_eq!((h.percentile(0.50), h.percentile(0.99)), (8, 1024));
        assert_eq!(h.percentile(0.0), 8, "p0 is the first observation");
    }

    #[test]
    fn disabled_local_metrics_record_nothing() {
        let mut m = LocalMetrics::new(false);
        m.observe_unfold(RuleId(0));
        m.observe_backtrack(5);
        m.observe_cache("p/1", ProbeOutcome::Hit);
        assert!(m.rule_unfolds.is_empty());
        assert!(m.cache_subgoals.is_empty());
        assert_eq!(m.backtrack_depths, Log2Hist::default());
    }

    #[test]
    fn registry_absorbs_and_merges_batches() {
        let program = Program::builder()
            .base_pred("t", 1)
            .rule(td_core::Rule::new(
                td_core::Atom::new("p", vec![]),
                Goal::ins("t", vec![td_core::Term::int(1)]),
            ))
            .build()
            .unwrap();
        let reg = MetricsRegistry::new();
        let mut a = LocalMetrics::new(true);
        a.observe_unfold(RuleId(0));
        a.observe_backtrack(3);
        a.observe_cache("iso", ProbeOutcome::Miss);
        let mut b = LocalMetrics::new(true);
        b.observe_unfold(RuleId(0));
        b.observe_cache("iso", ProbeOutcome::Hit);
        let stats = Stats {
            steps: 10,
            backtracks: 1,
            max_stack: 4,
            ..Stats::default()
        };
        reg.absorb(&program, &stats, &a);
        reg.absorb(&program, &stats, &b);
        reg.add_counter("solutions", 1);
        reg.add_counter("registered", 0);
        reg.record("latency_us", 700);
        let snap = reg.snapshot();
        assert_eq!(snap.runs, 2);
        assert_eq!(snap.counter("steps"), 20);
        assert_eq!(snap.counter("solutions"), 1);
        assert_eq!(snap.counters.get("registered"), Some(&0));
        assert_eq!(snap.gauges.get("max_stack"), Some(&4));
        assert_eq!(snap.rule_unfolds.get("p/0#0"), Some(&2));
        assert_eq!(snap.histogram("latency_us").percentile(0.5), 1024);
        assert_eq!(snap.histogram("never"), Log2Hist::default());
        let iso = snap.cache_subgoals.get("iso").unwrap();
        assert_eq!((iso.hits, iso.misses, iso.unsuitable), (1, 1, 0));
        let json = snap.to_json();
        assert!(json.contains("\"steps\": 20"), "{json}");
        assert!(
            json.contains("[{\"depth_lo\": 2, \"depth_hi\": 3, \"count\": 1}]"),
            "{json}"
        );
        assert!(!json.contains("latency_us"), "{json}");
    }

    #[test]
    fn event_log_serializes_json_lines() {
        let log = EventLog::new();
        log.emit(TraceEvent::SpanEnter {
            phase: SpanPhase::Solve,
            detail: "?- p".into(),
        });
        log.emit(TraceEvent::CacheProbe {
            subgoal: "iso".into(),
            outcome: ProbeOutcome::Hit,
        });
        let lines = log.to_json_lines();
        let mut it = lines.lines();
        assert_eq!(
            it.next(),
            Some(
                "{\"seq\": 0, \"event\": \"span_enter\", \"phase\": \"solve\", \
                 \"detail\": \"?- p\"}"
            )
        );
        assert_eq!(
            it.next(),
            Some("{\"seq\": 1, \"event\": \"cache_probe\", \"subgoal\": \"iso\", \"outcome\": \"hit\"}")
        );
        assert_eq!(it.next(), None);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn observer_emit_is_noop_without_log() {
        let obs = Observer::new();
        obs.emit(|| unreachable!("closure must not run without a log"));
        assert!(obs.event_log().is_none());
        let obs = Observer::with_event_log();
        obs.emit(|| TraceEvent::IsoEnter);
        assert_eq!(obs.event_log().unwrap().len(), 1);
    }

    #[test]
    fn run_report_renders_schema_and_sections() {
        let report = RunReport {
            command: "run".into(),
            file: "x.td".into(),
            config: EngineConfig::default().with_subgoal_cache(),
            wall_ms: 1.25,
            goals: vec![GoalReport {
                goal: "p(X)".into(),
                ok: true,
                error: None,
                counters: vec![("steps", 7)],
            }],
            final_state: Some((0xabcd, 3)),
            sections: vec![
                (
                    "above",
                    Some(JsonObject::new().string("path", "a\"b").finish()),
                ),
                ("absent", None),
            ],
            metrics: MetricsSnapshot::default(),
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"td-run-report/v2\",\n"));
        assert!(json.contains("\n  \"above\": {\"path\": \"a\\\"b\"},\n  \"absent\": null,\n"));
        assert!(json.contains("\"effective\""), "{json}");
        assert!(json.contains(
            "  \"goals\": [\n    {\"goal\": \"p(X)\", \"ok\": true, \"error\": null, \
             \"counters\": {\"steps\": 7}}\n  ],\n"
        ));
        assert!(
            json.contains("{\"digest\": \"0x0000000000000000000000000000abcd\", \"tuples\": 3}"),
            "{json}"
        );
        assert!(json.ends_with("\"cache_subgoals\": {}}\n}\n"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
