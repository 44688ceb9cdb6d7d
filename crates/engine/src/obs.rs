//! Unified observability: metrics registry, structured event stream, run
//! reports.
//!
//! The paper's §3 workflow story is explicitly about "monitoring, tracking
//! and querying the status of workflow activities". This module is the
//! machinery side of that story for the *search* itself, shared by all
//! three backends (sequential machine, work-stealing parallel search,
//! explicit-state decider):
//!
//! * [`MetricsRegistry`] — a lock-cheap counter/gauge/histogram registry.
//!   The hot path touches no locks at all: each run (and each parallel
//!   worker) accumulates into a private [`LocalMetrics`] and the whole
//!   batch is absorbed under one short lock when the run ends. On top of
//!   the flat [`crate::Stats`] counters it keeps per-rule expansion
//!   counts, a log₂-bucketed backtrack-depth distribution, and per-subgoal
//!   cache hit/miss/unsuitable tallies (the accounting Fodor's tabling
//!   work calls for when tuning a subgoal cache).
//! * [`EventLog`] — a thread-safe structured event stream built from
//!   [`TraceEvent`], including the span-like phase events
//!   ([`TraceEvent::SpanEnter`]/[`TraceEvent::SpanExit`]) that work even
//!   where the committed-path trace is unavailable (parallel and cached
//!   runs emit aggregate span events). Serialized as JSON Lines.
//! * [`RunReport`] — a single machine-readable JSON document per CLI run:
//!   outcome, wall time, registry snapshot, requested *and* effective
//!   config echo, and a digest of the final state. Tools read this
//!   instead of re-parsing stdout; `td-cli`'s `report_smoke` test validates
//!   its schema on live runs.
//!
//! No external JSON dependency: the writers here are hand-rolled.

use crate::config::{EngineConfig, SearchBackend, Stats, Strategy};
use crate::trace::{ProbeOutcome, TraceEvent};
use std::collections::BTreeMap;
use std::sync::Mutex;
use td_core::{Goal, Program, RuleId};

/// Number of log₂ buckets in the backtrack-depth histogram (bucket 0 is
/// depth 0, bucket *k* covers depths `[2^(k-1), 2^k)`).
pub const DEPTH_BUCKETS: usize = 32;

fn depth_bucket(depth: usize) -> usize {
    if depth == 0 {
        0
    } else {
        (usize::BITS - depth.leading_zeros()) as usize
    }
    .min(DEPTH_BUCKETS - 1)
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

/// Lock-free per-run (or per-worker) metric accumulator. Constructed
/// enabled only when an [`Observer`] is attached, so the observers-off
/// hot path pays a single branch per observation.
#[derive(Clone, Debug)]
pub struct LocalMetrics {
    enabled: bool,
    rule_unfolds: BTreeMap<RuleId, u64>,
    backtrack_depths: [u64; DEPTH_BUCKETS],
    cache_subgoals: BTreeMap<String, CacheTally>,
}

impl LocalMetrics {
    /// An accumulator; pass `enabled = false` to make every observation a
    /// no-op (the unobserved configuration).
    pub fn new(enabled: bool) -> LocalMetrics {
        LocalMetrics {
            enabled,
            rule_unfolds: BTreeMap::new(),
            backtrack_depths: [0; DEPTH_BUCKETS],
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
            self.backtrack_depths[depth_bucket(depth)] += 1;
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

    /// Fold another accumulator into this one (parallel workers merge into
    /// one batch before the registry absorbs it).
    pub fn merge(&mut self, other: &LocalMetrics) {
        for (r, n) in &other.rule_unfolds {
            *self.rule_unfolds.entry(*r).or_default() += n;
        }
        for (i, n) in other.backtrack_depths.iter().enumerate() {
            self.backtrack_depths[i] += n;
        }
        for (l, t) in &other.cache_subgoals {
            self.cache_subgoals.entry(l.clone()).or_default().merge(t);
        }
    }
}

/// The subgoal-shape label used for per-subgoal cache tallies: predicate
/// name/arity for calls, `iso` for isolated blocks.
pub fn subgoal_label(goal: &Goal) -> String {
    match goal {
        Goal::Atom(a) => format!("{}/{}", a.pred.name, a.pred.arity),
        Goal::Iso(_) => "iso".to_owned(),
        _ => "goal".to_owned(),
    }
}

#[derive(Default, Debug)]
struct RegistryInner {
    /// Runs (or searches) absorbed.
    runs: u64,
    /// Monotone sums (`steps`, `backtracks`, `cache_hits`, …).
    counters: BTreeMap<String, u64>,
    /// Maxima (`max_stack`, `peak_processes`).
    gauges: BTreeMap<String, u64>,
    /// Expansions per rule, keyed by `head/arity#id`.
    rule_unfolds: BTreeMap<String, u64>,
    backtrack_depths: [u64; DEPTH_BUCKETS],
    cache_subgoals: BTreeMap<String, CacheTally>,
}

/// The shared metrics registry. Aggregates [`Stats`] and [`LocalMetrics`]
/// batches across runs and across parallel workers; locked only at batch
/// boundaries, never per-event.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Absorb one run's (or one worker's) statistics and local metrics.
    /// Sum-like [`Stats`] fields accumulate into counters, maxima into
    /// gauges; rule ids are resolved to `head/arity#id` labels against
    /// `program`.
    pub fn absorb(&self, program: &Program, stats: &Stats, local: &LocalMetrics) {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        g.runs += 1;
        for (name, v) in [
            ("steps", stats.steps),
            ("backtracks", stats.backtracks),
            ("choicepoints", stats.choicepoints),
            ("unfolds", stats.unfolds),
            ("db_ops", stats.db_ops),
            ("iso_enters", stats.iso_enters),
            ("memo_hits", stats.memo_hits),
            ("cache_hits", stats.cache_hits),
            ("cache_misses", stats.cache_misses),
            ("mat_probes", stats.mat_probes),
        ] {
            *g.counters.entry(name.to_owned()).or_default() += v;
        }
        for (name, v) in [
            ("max_stack", stats.max_stack as u64),
            ("peak_processes", stats.peak_processes as u64),
        ] {
            let e = g.gauges.entry(name.to_owned()).or_default();
            *e = (*e).max(v);
        }
        for (rid, n) in &local.rule_unfolds {
            let rule = program.rule(*rid);
            let label = format!("{}/{}#{}", rule.head.pred.name, rule.head.pred.arity, rid.0);
            *g.rule_unfolds.entry(label).or_default() += n;
        }
        for (i, n) in local.backtrack_depths.iter().enumerate() {
            g.backtrack_depths[i] += n;
        }
        for (l, t) in &local.cache_subgoals {
            g.cache_subgoals.entry(l.clone()).or_default().merge(t);
        }
    }

    /// Add `v` to the named counter (for counters outside [`Stats`], e.g.
    /// the decider's configuration count or committed-path totals).
    pub fn add_counter(&self, name: &str, v: u64) {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        *g.counters.entry(name.to_owned()).or_default() += v;
    }

    /// Raise the named gauge to at least `v`.
    pub fn set_gauge_max(&self, name: &str, v: u64) {
        let mut g = self.inner.lock().expect("metrics registry poisoned");
        let e = g.gauges.entry(name.to_owned()).or_default();
        *e = (*e).max(v);
    }

    /// A consistent copy of everything absorbed so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            runs: g.runs,
            counters: g.counters.clone(),
            gauges: g.gauges.clone(),
            rule_unfolds: g.rule_unfolds.clone(),
            backtrack_depths: g.backtrack_depths,
            cache_subgoals: g.cache_subgoals.clone(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Runs absorbed.
    pub runs: u64,
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Maxima gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Expansion counts per rule (`head/arity#id`).
    pub rule_unfolds: BTreeMap<String, u64>,
    /// Backtrack counts per log₂ depth bucket.
    pub backtrack_depths: [u64; DEPTH_BUCKETS],
    /// Per-subgoal cache tallies.
    pub cache_subgoals: BTreeMap<String, CacheTally>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"runs\": {}", self.runs));
        for (section, map) in [
            ("counters", &self.counters),
            ("gauges", &self.gauges),
            ("rule_unfolds", &self.rule_unfolds),
        ] {
            out.push_str(&format!(", \"{section}\": {{"));
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", json_escape(k), v));
            }
            out.push('}');
        }
        out.push_str(", \"backtrack_depths\": [");
        let mut first = true;
        for (i, n) in self.backtrack_depths.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let (lo, hi) = if i == 0 {
                (0u64, 0u64)
            } else {
                (1u64 << (i - 1), (1u64 << i) - 1)
            };
            out.push_str(&format!(
                "{{\"depth_lo\": {lo}, \"depth_hi\": {hi}, \"count\": {n}}}"
            ));
        }
        out.push_str("], \"cache_subgoals\": {");
        for (i, (l, t)) in self.cache_subgoals.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"hits\": {}, \"misses\": {}, \"unsuitable\": {}}}",
                json_escape(l),
                t.hits,
                t.misses,
                t.unsuitable
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Thread-safe structured event stream. Unlike the committed-path trace
/// (which is truncated on backtracking and disabled under the parallel
/// backend and the cache), the event log is append-only and records phase
/// spans from every backend.
#[derive(Default, Debug)]
pub struct EventLog {
    events: Mutex<Vec<(Option<u32>, TraceEvent)>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Append an event, optionally attributed to a parallel worker.
    pub fn emit(&self, worker: Option<u32>, ev: TraceEvent) {
        self.events
            .lock()
            .expect("event log poisoned")
            .push((worker, ev));
    }

    /// Events recorded so far.
    pub fn events(&self) -> Vec<(Option<u32>, TraceEvent)> {
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
    /// order, each carrying its sequence number and worker (if any).
    pub fn to_json_lines(&self) -> String {
        let events = self.events.lock().expect("event log poisoned");
        let mut out = String::new();
        for (seq, (worker, ev)) in events.iter().enumerate() {
            out.push_str(&event_json(seq, *worker, ev));
            out.push('\n');
        }
        out
    }
}

/// One event as a JSON object (no trailing newline).
pub fn event_json(seq: usize, worker: Option<u32>, ev: &TraceEvent) -> String {
    let mut out = format!("{{\"seq\": {seq}");
    if let Some(w) = worker {
        out.push_str(&format!(", \"worker\": {w}"));
    }
    let body = match ev {
        TraceEvent::Unfold { call, rule } => {
            format!(
                "\"event\": \"unfold\", \"call\": \"{}\", \"rule\": {}",
                json_escape(&call.to_string()),
                rule.0
            )
        }
        TraceEvent::Match { query, tuple } => format!(
            "\"event\": \"match\", \"query\": \"{}\", \"tuple\": \"{}\"",
            json_escape(&query.to_string()),
            json_escape(&tuple.to_string())
        ),
        TraceEvent::Absent { query } => format!(
            "\"event\": \"absent\", \"query\": \"{}\"",
            json_escape(&query.to_string())
        ),
        TraceEvent::Ins {
            pred,
            tuple,
            changed,
        } => format!(
            "\"event\": \"ins\", \"pred\": \"{}\", \"tuple\": \"{}\", \"changed\": {changed}",
            json_escape(&pred.name.to_string()),
            json_escape(&tuple.to_string())
        ),
        TraceEvent::Del {
            pred,
            tuple,
            changed,
        } => format!(
            "\"event\": \"del\", \"pred\": \"{}\", \"tuple\": \"{}\", \"changed\": {changed}",
            json_escape(&pred.name.to_string()),
            json_escape(&tuple.to_string())
        ),
        TraceEvent::Builtin { rendered } => format!(
            "\"event\": \"builtin\", \"check\": \"{}\"",
            json_escape(rendered)
        ),
        TraceEvent::Choice { index } => format!("\"event\": \"choice\", \"index\": {index}"),
        TraceEvent::IsoEnter => "\"event\": \"iso_enter\"".to_owned(),
        TraceEvent::IsoExit => "\"event\": \"iso_exit\"".to_owned(),
        TraceEvent::SpanEnter { phase, detail } => format!(
            "\"event\": \"span_enter\", \"phase\": \"{}\", \"detail\": \"{}\"",
            phase.as_str(),
            json_escape(detail)
        ),
        TraceEvent::SpanExit { phase, detail } => format!(
            "\"event\": \"span_exit\", \"phase\": \"{}\", \"detail\": \"{}\"",
            phase.as_str(),
            json_escape(detail)
        ),
        TraceEvent::CacheProbe { subgoal, outcome } => format!(
            "\"event\": \"cache_probe\", \"subgoal\": \"{}\", \"outcome\": \"{}\"",
            json_escape(subgoal),
            outcome.as_str()
        ),
        TraceEvent::WorkerSteal { thief, victim } => {
            format!("\"event\": \"worker_steal\", \"thief\": {thief}, \"victim\": {victim}")
        }
    };
    out.push_str(", ");
    out.push_str(&body);
    out.push('}');
    out
}

/// The observability handle the engine carries: always a registry,
/// optionally an event log. Cheap to share behind an `Arc`.
#[derive(Default, Debug)]
pub struct Observer {
    /// The metrics registry every backend absorbs into.
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
    pub fn emit(&self, worker: Option<u32>, f: impl FnOnce() -> TraceEvent) {
        if let Some(log) = &self.log {
            log.emit(worker, f());
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
    pub counters: Vec<(String, u64)>,
}

/// Lifetime counters of a subgoal cache, echoed into the report.
#[derive(Clone, Copy, Debug)]
pub struct CacheReport {
    /// Lookups that replayed a stored answer set.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found a negative `Unsuitable` entry.
    pub unsuitable: u64,
    /// Entries discarded by the CLOCK policy.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: u64,
}

/// Lifetime counters of an incremental materializer, echoed into the
/// report: the `probes`-vs-`unfolds` ratio shows how many derived calls the
/// circuit absorbed, `maintain_us`/`maintained_ops` how much time the O(|Δ|)
/// maintenance cost, and `delta_tuples` the circuit's total delta volume.
#[derive(Clone, Copy, Debug)]
pub struct MatReport {
    /// Ground derived-predicate calls answered from a materialized relation.
    pub probes: u64,
    /// Probes (or maintenance passes) that found the version's state
    /// resident.
    pub state_hits: u64,
    /// Full from-scratch builds (first probe of a version, or after
    /// eviction).
    pub rebuilds: u64,
    /// Delta ops fed through incremental maintenance.
    pub maintained_ops: u64,
    /// Derived membership events produced by maintenance.
    pub delta_tuples: u64,
    /// Microseconds spent in incremental maintenance.
    pub maintain_us: u64,
    /// Database versions currently holding a materialized state.
    pub states: u64,
}

/// Durable-store section of a [`RunReport`] (present when the run was
/// backed by `--db=PATH`). Plain data — the engine does not depend on the
/// store crate; the CLI fills this in from the store's recovery info.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// Store directory backing the run.
    pub path: String,
    /// How opening went: `fresh`, `recovered`, `recovered-torn-tail` or
    /// `recovered-stale-wal`.
    pub recovery: String,
    /// WAL records replayed during recovery at open time.
    pub replayed: u64,
    /// Bytes cut from a torn WAL tail (0 on clean recovery).
    pub torn_bytes: u64,
    /// Transactions committed through the WAL by this run.
    pub committed: u64,
    /// Snapshot age in committed transactions (WAL records on disk at the
    /// end of the run).
    pub snapshot_age: u64,
}

/// Server section of a [`RunReport`] (present for `td serve` runs). Plain
/// data, like [`StoreReport`]: the serve layer fills it in at shutdown.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Socket path the server listened on.
    pub socket: String,
    /// Client connections accepted.
    pub connections: u64,
    /// Requests served (all verbs).
    pub requests: u64,
    /// Requests answered with `err`.
    pub errors: u64,
    /// Transactions committed through the WAL.
    pub commits: u64,
    /// Transactions that finished read-only.
    pub read_only: u64,
    /// Transactions that aborted logically (goal not executable).
    pub aborts: u64,
    /// OCC validation conflicts (each caused one retry).
    pub conflicts: u64,
    /// The commit-validation rule the store ran under (`read-set` or
    /// `whole-db`).
    pub occ: String,
    /// Transactions (or trigger executions) that exhausted their retry
    /// budget.
    pub retries_exhausted: u64,
    /// Per-relation conflict attribution: `(pred, failures)` sorted by
    /// predicate.
    pub conflict_relations: Vec<(String, u64)>,
    /// Group frames fsync'd on the commit path.
    pub groups: u64,
    /// Commit records inside those groups (`/ groups` = the group-commit
    /// amortization factor).
    pub grouped_records: u64,
    /// Largest single commit group.
    pub max_group: u64,
    /// Symbol-interner footprint at shutdown — the documented leak of the
    /// long-running server, surfaced rather than hidden.
    pub interned_symbols: u64,
    pub interned_bytes: u64,
    /// Event occurrences ingested over the `event` verb.
    pub events_ingested: u64,
    /// Complex-event pattern matches completed.
    pub triggers_matched: u64,
    /// Trigger transactions executed to success (commit or read-only).
    pub triggers_fired: u64,
    /// OCC conflicts hit while executing trigger transactions.
    pub triggers_conflicted: u64,
    /// End-to-end trigger latency (event request start to trigger
    /// completion), log2-bucketed: `trigger_latency[i]` counts latencies in
    /// `[2^(i-1), 2^i)` microseconds.
    pub trigger_latency: Vec<u64>,
    /// Percentile upper bounds read off the histogram, microseconds.
    pub trigger_p50_us: u64,
    pub trigger_p99_us: u64,
}

/// The single JSON document `td run/decide --report=PATH` writes.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// CLI command (`run`, `trace`, `decide`).
    pub command: String,
    /// Program file executed.
    pub file: String,
    /// Configuration as requested on the command line.
    pub requested: EngineConfig,
    /// Configuration that actually ran (gating rules applied — see
    /// [`EngineConfig::effective`]).
    pub effective: EngineConfig,
    /// Wall-clock time of the whole command, milliseconds.
    pub wall_ms: f64,
    /// One row per `?-` goal, in file order.
    pub goals: Vec<GoalReport>,
    /// Content digest of the database after the last goal (`None` when no
    /// goal committed a state, e.g. `decide`).
    pub final_digest: Option<u128>,
    /// Tuples in the final database.
    pub final_tuples: Option<u64>,
    /// Subgoal-cache lifetime counters (when a cache was attached).
    pub cache: Option<CacheReport>,
    /// Incremental-materialization lifetime counters (when `--materialize`
    /// compiled a circuit).
    pub mat: Option<MatReport>,
    /// Durable-store recovery and commit summary (when `--db` was given).
    pub store: Option<StoreReport>,
    /// Server counters (when the command was `serve`).
    pub serve: Option<ServeReport>,
    /// Registry snapshot at the end of the run.
    pub metrics: MetricsSnapshot,
}

/// Schema tag written into every report; bump on breaking changes.
pub const RUN_REPORT_SCHEMA: &str = "td-run-report/v1";

impl RunReport {
    /// Render the full report as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{RUN_REPORT_SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"command\": \"{}\",\n",
            json_escape(&self.command)
        ));
        out.push_str(&format!("  \"file\": \"{}\",\n", json_escape(&self.file)));
        out.push_str(&format!("  \"wall_ms\": {:.3},\n", self.wall_ms));
        out.push_str(&format!(
            "  \"config\": {{\"requested\": {}, \"effective\": {}}},\n",
            config_json(&self.requested),
            config_json(&self.effective)
        ));
        let failed = self.goals.iter().filter(|g| !g.ok).count();
        out.push_str(&format!(
            "  \"outcome\": {{\"ok\": {}, \"goals\": {}, \"failed\": {}}},\n",
            failed == 0,
            self.goals.len(),
            failed
        ));
        out.push_str("  \"goals\": [\n");
        for (i, g) in self.goals.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"goal\": \"{}\", \"ok\": {}, \"error\": {}, \"counters\": {{",
                json_escape(&g.goal),
                g.ok,
                match &g.error {
                    Some(e) => format!("\"{}\"", json_escape(e)),
                    None => "null".to_owned(),
                }
            ));
            for (j, (k, v)) in g.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", json_escape(k), v));
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.goals.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        match (self.final_digest, self.final_tuples) {
            (Some(d), Some(t)) => out.push_str(&format!(
                "  \"final_state\": {{\"digest\": \"0x{d:032x}\", \"tuples\": {t}}},\n"
            )),
            _ => out.push_str("  \"final_state\": null,\n"),
        }
        match &self.cache {
            Some(c) => out.push_str(&format!(
                "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"unsuitable\": {}, \
                 \"evictions\": {}, \"entries\": {}}},\n",
                c.hits, c.misses, c.unsuitable, c.evictions, c.entries
            )),
            None => out.push_str("  \"cache\": null,\n"),
        }
        match &self.mat {
            Some(m) => out.push_str(&format!(
                "  \"materializer\": {{\"probes\": {}, \"state_hits\": {}, \"rebuilds\": {}, \
                 \"maintained_ops\": {}, \"delta_tuples\": {}, \"maintain_us\": {}, \
                 \"states\": {}}},\n",
                m.probes,
                m.state_hits,
                m.rebuilds,
                m.maintained_ops,
                m.delta_tuples,
                m.maintain_us,
                m.states
            )),
            None => out.push_str("  \"materializer\": null,\n"),
        }
        match &self.store {
            Some(s) => out.push_str(&format!(
                "  \"store\": {{\"path\": \"{}\", \"recovery\": \"{}\", \"replayed\": {}, \
                 \"torn_bytes\": {}, \"committed\": {}, \"snapshot_age\": {}}},\n",
                json_escape(&s.path),
                json_escape(&s.recovery),
                s.replayed,
                s.torn_bytes,
                s.committed,
                s.snapshot_age
            )),
            None => out.push_str("  \"store\": null,\n"),
        }
        match &self.serve {
            Some(s) => out.push_str(&format!(
                "  \"serve\": {{\"socket\": \"{}\", \"connections\": {}, \"requests\": {}, \
                 \"errors\": {}, \"commits\": {}, \"read_only\": {}, \"aborts\": {}, \
                 \"conflicts\": {}, \"occ\": \"{}\", \"retries_exhausted\": {}, \
                 \"conflict_relations\": {{{}}}, \
                 \"groups\": {}, \"grouped_records\": {}, \
                 \"max_group\": {}, \"interned_symbols\": {}, \"interned_bytes\": {}, \
                 \"events\": {{\"ingested\": {}, \"matched\": {}, \"fired\": {}, \
                 \"conflicted\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"latency_buckets\": [{}]}}}},\n",
                json_escape(&s.socket),
                s.connections,
                s.requests,
                s.errors,
                s.commits,
                s.read_only,
                s.aborts,
                s.conflicts,
                json_escape(&s.occ),
                s.retries_exhausted,
                s.conflict_relations
                    .iter()
                    .map(|(p, n)| format!("\"{}\": {n}", json_escape(p)))
                    .collect::<Vec<_>>()
                    .join(", "),
                s.groups,
                s.grouped_records,
                s.max_group,
                s.interned_symbols,
                s.interned_bytes,
                s.events_ingested,
                s.triggers_matched,
                s.triggers_fired,
                s.triggers_conflicted,
                s.trigger_p50_us,
                s.trigger_p99_us,
                s.trigger_latency
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
            None => out.push_str("  \"serve\": null,\n"),
        }
        out.push_str(&format!("  \"metrics\": {}\n", self.metrics.to_json()));
        out.push_str("}\n");
        out
    }
}

/// Flat counter rows for one [`Stats`] (the per-goal report shape).
pub fn stats_counters(stats: &Stats) -> Vec<(String, u64)> {
    vec![
        ("steps".to_owned(), stats.steps),
        ("backtracks".to_owned(), stats.backtracks),
        ("choicepoints".to_owned(), stats.choicepoints),
        ("unfolds".to_owned(), stats.unfolds),
        ("db_ops".to_owned(), stats.db_ops),
        ("max_stack".to_owned(), stats.max_stack as u64),
        ("iso_enters".to_owned(), stats.iso_enters),
        ("memo_hits".to_owned(), stats.memo_hits),
        ("peak_processes".to_owned(), stats.peak_processes as u64),
        ("cache_hits".to_owned(), stats.cache_hits),
        ("cache_misses".to_owned(), stats.cache_misses),
        ("mat_probes".to_owned(), stats.mat_probes),
    ]
}

/// An [`EngineConfig`] as a JSON object (used for both the requested and
/// the effective echo in [`RunReport`]).
pub fn config_json(c: &EngineConfig) -> String {
    let (strategy, seed) = match c.strategy {
        Strategy::Exhaustive => ("exhaustive", None),
        Strategy::ExhaustiveRandom(s) => ("random", Some(s)),
        Strategy::RoundRobin => ("round-robin", None),
        Strategy::Leftmost => ("leftmost", None),
    };
    let backend = match c.backend {
        SearchBackend::Sequential => "{\"kind\": \"sequential\"}".to_owned(),
        SearchBackend::Parallel {
            threads,
            deterministic,
        } => format!(
            "{{\"kind\": \"parallel\", \"threads\": {threads}, \"deterministic\": {deterministic}}}"
        ),
    };
    format!(
        "{{\"strategy\": \"{strategy}\", \"seed\": {}, \"max_steps\": {}, \"max_stack\": {}, \
         \"trace\": {}, \"memo_failures\": {}, \"backend\": {backend}, \
         \"subgoal_cache\": {}, \"cache_capacity\": {}, \"materialize\": {}}}",
        seed.map(|s| s.to_string()).unwrap_or_else(|| "null".into()),
        c.max_steps,
        c.max_stack,
        c.trace,
        c.memo_failures,
        c.subgoal_cache,
        c.cache_capacity,
        c.materialize
    )
}

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
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
    fn depth_buckets_are_log2() {
        assert_eq!(depth_bucket(0), 0);
        assert_eq!(depth_bucket(1), 1);
        assert_eq!(depth_bucket(2), 2);
        assert_eq!(depth_bucket(3), 2);
        assert_eq!(depth_bucket(4), 3);
        assert_eq!(depth_bucket(usize::MAX), DEPTH_BUCKETS - 1);
    }

    #[test]
    fn disabled_local_metrics_record_nothing() {
        let mut m = LocalMetrics::new(false);
        m.observe_unfold(RuleId(0));
        m.observe_backtrack(5);
        m.observe_cache("p/1", ProbeOutcome::Hit);
        assert!(m.rule_unfolds.is_empty());
        assert!(m.cache_subgoals.is_empty());
        assert_eq!(m.backtrack_depths.iter().sum::<u64>(), 0);
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
        a.merge(&b);
        let stats = Stats {
            steps: 10,
            backtracks: 1,
            max_stack: 4,
            ..Stats::default()
        };
        reg.absorb(&program, &stats, &a);
        reg.absorb(&program, &stats, &LocalMetrics::new(true));
        reg.add_counter("solutions", 1);
        let snap = reg.snapshot();
        assert_eq!(snap.runs, 2);
        assert_eq!(snap.counter("steps"), 20);
        assert_eq!(snap.counter("solutions"), 1);
        assert_eq!(snap.gauges.get("max_stack"), Some(&4));
        assert_eq!(snap.rule_unfolds.get("p/0#0"), Some(&2));
        let iso = snap.cache_subgoals.get("iso").unwrap();
        assert_eq!((iso.hits, iso.misses, iso.unsuitable), (1, 1, 0));
        let json = snap.to_json();
        assert!(json.contains("\"steps\": 20"), "{json}");
        assert!(json.contains("\"depth_lo\": 2"), "{json}");
    }

    #[test]
    fn event_log_serializes_json_lines() {
        let log = EventLog::new();
        log.emit(
            None,
            TraceEvent::SpanEnter {
                phase: SpanPhase::Solve,
                detail: "?- p".into(),
            },
        );
        log.emit(
            Some(2),
            TraceEvent::WorkerSteal {
                thief: 2,
                victim: 0,
            },
        );
        let lines = log.to_json_lines();
        let mut it = lines.lines();
        let first = it.next().unwrap();
        assert!(first.contains("\"event\": \"span_enter\""), "{first}");
        assert!(first.contains("\"phase\": \"solve\""), "{first}");
        let second = it.next().unwrap();
        assert!(second.contains("\"worker\": 2"), "{second}");
        assert!(second.contains("\"victim\": 0"), "{second}");
        assert_eq!(it.next(), None);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn observer_emit_is_noop_without_log() {
        let obs = Observer::new();
        obs.emit(None, || unreachable!("closure must not run without a log"));
        assert!(obs.event_log().is_none());
        let obs = Observer::with_event_log();
        obs.emit(None, || TraceEvent::IsoEnter);
        assert_eq!(obs.event_log().unwrap().len(), 1);
    }

    #[test]
    fn run_report_renders_schema_and_sections() {
        let report = RunReport {
            command: "run".into(),
            file: "x.td".into(),
            requested: EngineConfig::default().with_subgoal_cache(),
            effective: EngineConfig::default().with_subgoal_cache(),
            wall_ms: 1.25,
            goals: vec![GoalReport {
                goal: "p(X)".into(),
                ok: true,
                error: None,
                counters: vec![("steps".into(), 7)],
            }],
            final_digest: Some(0xabcd),
            final_tuples: Some(3),
            cache: Some(CacheReport {
                hits: 1,
                misses: 2,
                unsuitable: 0,
                evictions: 0,
                entries: 2,
            }),
            mat: Some(MatReport {
                probes: 5,
                state_hits: 4,
                rebuilds: 1,
                maintained_ops: 3,
                delta_tuples: 2,
                maintain_us: 10,
                states: 2,
            }),
            store: Some(StoreReport {
                path: "state.tdb".into(),
                recovery: "recovered".into(),
                replayed: 4,
                torn_bytes: 0,
                committed: 2,
                snapshot_age: 6,
            }),
            serve: Some(ServeReport {
                socket: "td.sock".into(),
                connections: 3,
                requests: 9,
                commits: 4,
                groups: 2,
                grouped_records: 4,
                max_group: 3,
                ..ServeReport::default()
            }),
            metrics: MetricsRegistry::new().snapshot(),
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"td-run-report/v1\""), "{json}");
        assert!(json.contains("\"recovery\": \"recovered\""), "{json}");
        assert!(json.contains("\"snapshot_age\": 6"), "{json}");
        assert!(json.contains("\"socket\": \"td.sock\""), "{json}");
        assert!(json.contains("\"grouped_records\": 4"), "{json}");
        assert!(json.contains("\"effective\""), "{json}");
        assert!(json.contains("\"steps\": 7"), "{json}");
        assert!(
            json.contains("0x000000000000000000000000000000000000abcd")
                || json.contains("0x0000000000000000000000000000abcd"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
