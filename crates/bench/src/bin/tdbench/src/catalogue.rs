//! The benchmark's catalogue: every workload with its parameters and the
//! reason it exists, and every metric with its unit and bound. The numbers
//! here are frozen — changing one changes what every later run is compared
//! against — and `BENCHMARK.json` must list exactly the gated workloads and
//! the metrics named here (tested below).

/// One workload: its name on the command line and why it was chosen.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Load shape, for the report header.
    pub method: &'static str,
    /// Whether `BENCHMARK.json` lists it, so that later changes are accepted
    /// or rejected on it. The four server workloads are not: a request
    /// blocks on another process and on an fsync, and on the shared box the
    /// bounds were set on both get 30 to 45 % slower for minutes at a time,
    /// every percentile of every request alike, so no statistic of a run
    /// repeats within a bound the contract allows. They run by hand, and
    /// compare commits only in alternating pairs.
    pub gated: bool,
}

pub const SEARCH_MIX: &str = "search_mix";
pub const DATALOG_VIEWS: &str = "datalog_views";
pub const SERVE_DISJOINT: &str = "serve_disjoint";
pub const SERVE_HOT: &str = "serve_hot";
pub const EVENTS_PACED: &str = "events_paced";
pub const EVENTS_BURST: &str = "events_burst";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: SEARCH_MIX,
        why: "eight paper programs through the td run path; kernel and db do all the work, store and serve none",
        method: "in-process, 1 thread, closed loop; op = one program run (parse, load_init, solve each goal)",
        gated: true,
    },
    Workload {
        name: DATALOG_VIEWS,
        why: "update-and-ask over recursive views; fixpoints and delta maintenance, not interleaving search",
        method: "in-process, 1 thread, closed loop; op = one edge update plus its queries, through one of three evaluators",
        gated: true,
    },
    Workload {
        name: SERVE_DISJOINT,
        why: "two clients on disjoint relations; no conflicts, so the commit path is nearly all of a request",
        method: "td serve, 2 closed-loop connections; op = one run request (80% transfers, 20% balance reads)",
        gated: false,
    },
    Workload {
        name: SERVE_HOT,
        why: "two clients on one 64-row relation; validation failures, retries and backoff dominate",
        method: "td serve, 2 closed-loop connections; op = one four-hop chained transfer request",
        gated: false,
    },
    Workload {
        name: EVENTS_PACED,
        why: "event pairs on a fixed schedule below saturation; trigger latency is the pipeline's own cost",
        method: "td serve, open loop: 1 sender on a schedule, 1 observer polling; op = one pair, timed from its due time to its trigger's effect being visible",
        gated: false,
    },
    Workload {
        name: EVENTS_BURST,
        why: "event pairs as fast as acks return; group commit, reactor mutex and the one scheduler thread set the rate",
        method: "td serve, 2 closed-loop connections; op = one pair fired, the clock running on until every trigger has",
        gated: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------
// Workload parameters
// ---------------------------------------------------------------------

/// Connections (and client threads) of the server workloads: min(2, nproc)
/// on the two-core box the bounds were set on.
pub const CLIENTS: usize = 2;

/// The harness's sample log grows with every op, so an in-process
/// workload's memory is read when its loop has done this many ops — the
/// same amount of work on a fast and a slow system.
pub const RSS_AT_OPS: u64 = 4_000;

/// A `search_mix` member: a frozen `.td` program, how often it runs per
/// round (chosen so every member takes about an eighth of the wall time at
/// the commit that added the benchmark), and the recorded outcome of each
/// of its goals — the oracle.
pub struct SearchMember {
    pub name: &'static str,
    pub source: &'static str,
    pub subgoal_cache: bool,
    pub weight: u32,
    pub steps: u64,
    pub executable: bool,
}

macro_rules! member {
    ($name:literal, $cache:expr, $weight:expr, $steps:expr, $exec:expr) => {
        SearchMember {
            name: $name,
            source: include_str!(concat!("../workloads/search_", $name, ".td")),
            subgoal_cache: $cache,
            weight: $weight,
            steps: $steps,
            executable: $exec,
        }
    };
}

pub const SEARCH_MEMBERS: [SearchMember; 8] = [
    member!("labflow", false, 11, 248, true),
    member!("agents", false, 16, 210, true),
    member!("network", false, 8, 354, true),
    member!("transfers", false, 128, 52, true),
    member!("minsky", false, 6, 339, true),
    member!("qbf", false, 5, 880, true),
    member!("refute", false, 1, 2255, false),
    member!("protocol", true, 8, 329, true),
];

/// `datalog_views`: a complete binary tree over nodes `1..=NODES` (edges
/// parent -> child), so the closure size does not depend on the seed. Each
/// op removes one tree edge and restores the one its evaluator's previous
/// op removed, then asks `QUERIES` seeded questions.
pub mod views {
    pub const SOURCE: &str = include_str!("../workloads/datalog_views.td");
    pub const NODES: u64 = 256;
    pub const BLOCKED: usize = 32;
    /// Ground `path`/`open` questions per engine op.
    pub const QUERIES: usize = 4;
    /// A round puts every tree edge through the materialized engine and
    /// through the plain top-down engine once each, and this many leaf edges
    /// through the bottom-up evaluators: about a third of the wall time each.
    pub const BOTTOMUP_OPS: usize = 6;
}

/// `serve_disjoint` and `serve_hot`. Balances are large and amounts small,
/// so no transfer ever fails for lack of funds.
pub mod bank {
    pub const DISJOINT_SOURCE: &str = include_str!("../workloads/serve_disjoint.td");
    pub const HOT_SOURCE: &str = include_str!("../workloads/serve_hot.td");
    pub const DISJOINT_ACCOUNTS: u64 = 10_000;
    pub const HOT_ROWS: u64 = 64;
    pub const INITIAL_BALANCE: i64 = 1_000_000;
    pub const MAX_AMOUNT: u64 = 100;
    /// One request in five on `serve_disjoint` is a balance read.
    pub const READ_ONE_IN: u64 = 5;
}

/// `events_paced` and `events_burst`.
pub mod events {
    pub const SOURCE: &str = include_str!("../workloads/events_lab.td");
    /// Paced schedule: a pair every 2.5 ms, its `result` due 1 ms after its
    /// `sample`.
    pub const PAIR_EVERY_US: u64 = 2_500;
    pub const RESULT_AFTER_US: u64 = 1_000;
    /// The observer's pause between polls for the oldest outstanding pair.
    pub const POLL_PAUSE_US: u64 = 100;
    /// A paced send this far behind its due time counts as late.
    pub const LATE_US: f64 = 1_000.0;
    /// `events_burst` stores every event, so its server grows with the work
    /// done. Its memory is read when the first connection has sent this
    /// many pairs — the same amount of work on a fast and a slow system.
    pub const BURST_RSS_AT_PAIRS: u64 = 4_000;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen, which is also the run-to-run agreement
    /// `tdbench repeat` demands.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by every workload from the
/// untraced run.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("rss_mb", "MiB", Lower, 0.10),
];

/// Single layers, from the traced run; layer = crate. A metric a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [Metric; 84] = [
    layer("parser.parse_program_us", "us", Lower),
    layer("parser.parse_goal_us", "us", Lower),
    layer("parser.parse_event_us", "us", Lower),
    layer("core.interned_syms_per_kop", "count", Lower),
    layer("db.insert_ns", "ns", Lower),
    layer("db.delete_ns", "ns", Lower),
    layer("db.contains_ns", "ns", Lower),
    layer("db.select_point_ns", "ns", Lower),
    layer("db.select_prefix_ns", "ns", Lower),
    layer("db.scan_ns_per_tuple", "ns", Lower),
    layer("db.digest_ns", "ns", Lower),
    layer("db.clone_ns", "ns", Lower),
    layer("db.alloc_bytes_per_insert", "B", Lower),
    layer("engine.solve_us.labflow", "us", Lower),
    layer("engine.solve_us.agents", "us", Lower),
    layer("engine.solve_us.network", "us", Lower),
    layer("engine.solve_us.transfers", "us", Lower),
    layer("engine.solve_us.minsky", "us", Lower),
    layer("engine.solve_us.qbf", "us", Lower),
    layer("engine.solve_us.refute", "us", Lower),
    layer("engine.solve_us.protocol", "us", Lower),
    layer("engine.steps_per_solve", "count", Lower),
    layer("engine.steps_per_s", "1/s", Higher),
    layer("engine.backtracks_per_solve", "count", Lower),
    layer("engine.db_ops_per_solve", "count", Lower),
    layer("engine.cache_hit_ratio", "ratio", Higher),
    layer("engine.par2_solve_us.refute", "us", Lower),
    layer("engine.topdown_query_us", "us", Lower),
    layer("engine.datalog_eval_us", "us", Lower),
    layer("engine.magic_query_us", "us", Lower),
    layer("engine.mat_requery_us", "us", Lower),
    layer("engine.mat_apply_us_per_delta", "us", Lower),
    layer("engine.mat_probe_ratio", "ratio", Higher),
    layer("engine.serve_solve_us", "us", Lower),
    layer("store.tx_us", "us", Lower),
    layer("store.tx_self_us", "us", Lower),
    layer("store.snapshot_ns", "ns", Lower),
    layer("store.commit_us", "us", Lower),
    layer("store.commit_group8_us", "us", Lower),
    layer("store.encode_ns_per_commit", "ns", Lower),
    layer("store.wal_bytes_per_commit", "B", Lower),
    layer("store.fsyncs_per_commit", "ratio", Lower),
    layer("store.mean_group", "count", Higher),
    layer("store.retry_ratio", "ratio", Lower),
    layer("store.conflict_failures", "count", Lower),
    layer("store.retries_exhausted", "count", Lower),
    layer("store.reopen_ms", "ms", Lower),
    layer("store.verify_ms", "ms", Lower),
    layer("store.snapshot_write_ms", "ms", Lower),
    layer("store.dir_bytes_per_tuple", "B", Lower),
    layer("events.ingest_ns", "ns", Lower),
    layer("events.matches_per_event", "ratio", Higher),
    layer("events.partials_peak", "count", Lower),
    layer("events.dwell_us", "us", Lower),
    layer("events.trigger_tx_us", "us", Lower),
    layer("events.drain_ms", "ms", Lower),
    layer("events.late_ratio", "ratio", Lower),
    layer("serve.ping_us", "us", Lower),
    layer("serve.protocol_gap_us", "us", Lower),
    layer("serve.read_p50_us", "us", Lower),
    layer("serve.recover_ms", "ms", Lower),
    layer("serve.requests", "count", Higher),
    layer("serve.errors", "count", Lower),
    layer("serve.conflicts", "count", Lower),
    layer("serve.records_per_fsync", "count", Higher),
    layer("serve.trigger_hist_p50_us", "us", Lower),
    layer("cli.run_cold_ms", "ms", Lower),
    layer("cli.serve_ready_ms", "ms", Lower),
    layer("workflow.compile_us", "us", Lower),
    layer("machines.to_td_us", "us", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.share.parser", "ratio", Lower),
    layer("trace.share.db", "ratio", Lower),
    layer("trace.share.engine", "ratio", Lower),
    layer("trace.share.store", "ratio", Lower),
    layer("trace.share.events", "ratio", Lower),
    layer("trace.share.queue", "ratio", Lower),
    layer("trace.store_calls", "count", Lower),
    layer("trace.requests", "count", Higher),
    layer("trace.op_p50_us", "us", Lower),
    layer("trace.op_p90_us", "us", Lower),
    layer("trace.op_p99_us", "us", Lower),
];

pub fn metrics(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    /// Every `"name": "…"` in the text between `"<section>": [` and the
    /// closing `]`, in order. `BENCHMARK.json` is flat enough that this is
    /// all the parsing the test needs.
    fn names_in(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_owned())
            .collect()
    }

    fn field_of(section: &str, name: &str, key: &str) -> String {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\": ["))
            .expect("section");
        let body = &BENCHMARK_JSON[start..];
        let at = body.find(&format!("\"name\": \"{name}\"")).expect("entry");
        let entry = &body[at..at + body[at..].find('}').expect("entry closes")];
        let v = &entry[entry.find(&format!("\"{key}\": ")).expect("key") + key.len() + 4..];
        match v.strip_prefix('"') {
            Some(text) => text[..text.find('"').expect("string closes")].to_owned(),
            None => v[..v.find(',').unwrap_or(v.len())].trim().to_owned(),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let names = |ms: &[Metric]| ms.iter().map(|m| m.name.to_owned()).collect::<Vec<_>>();
        assert_eq!(
            names_in("workloads"),
            WORKLOADS
                .iter()
                .filter(|w| w.gated)
                .map(|w| w.name.to_owned())
                .collect::<Vec<_>>()
        );
        assert_eq!(names_in("end_to_end"), names(&END_TO_END));
        assert_eq!(names_in("per_layer"), names(&PER_LAYER));
        for w in WORKLOADS.iter().filter(|w| w.gated) {
            assert_eq!(field_of("workloads", w.name, "why"), w.why);
        }
        for m in &END_TO_END {
            assert_eq!(field_of("end_to_end", m.name, "unit"), m.unit);
            assert_eq!(field_of("end_to_end", m.name, "better"), m.better.as_str());
            let bound: f64 = field_of("end_to_end", m.name, "bound").parse().unwrap();
            assert_eq!(bound, m.bound, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert_eq!(field_of("per_layer", m.name, "unit"), m.unit);
            assert_eq!(field_of("per_layer", m.name, "better"), m.better.as_str());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_search_member_has_a_solve_metric() {
        for m in &SEARCH_MEMBERS {
            let name = format!("engine.solve_us.{}", m.name);
            assert!(PER_LAYER.iter().any(|l| l.name == name), "{name}");
        }
    }
}
