//! Differential tests for the observability subsystem (`td_engine::obs`):
//! attaching an observer must not change any result, and the logical
//! counters it reports must agree between the sequential and the
//! deterministic-parallel backends.
//!
//! Two invariants, on every corpus program:
//!
//! 1. **Transparency** — an observed run commits exactly the same witness
//!    (answer, delta, final database digest) as an unobserved one, and the
//!    registry echoes the run's own `Stats` faithfully (`steps` counter ==
//!    `stats.steps`, per backend).
//! 2. **Backend invariance** — raw step counts legitimately differ between
//!    backends (the parallel search counts configuration expansions), but
//!    the outcome-level counters the engine absorbs (`solutions`,
//!    `committed_updates`, `failures`) are properties of the witness, and
//!    the deterministic-parallel backend promises the sequential witness —
//!    so those totals must be identical.

mod common;

use common::{corpus_programs, run_observed};
use std::sync::Arc;
use td_engine::{load_init, Observer};
use transaction_datalog::prelude::*;

#[test]
fn registry_reports_each_backends_own_stats_faithfully() {
    for (name, source) in corpus_programs() {
        let parsed = parse_program(&source).expect("corpus parses");
        let config = EngineConfig::default().with_max_steps(2_000_000);
        let obs = Arc::new(Observer::new());
        let engine = Engine::with_config(parsed.program.clone(), config).with_observer(obs.clone());
        let mut db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
            .expect("corpus init loads");
        let mut total_steps = 0u64;
        let mut total_unfolds = 0u64;
        for g in &parsed.goals {
            let outcome = engine.solve(&g.goal, &db).expect("corpus run cannot fault");
            let stats = outcome.stats();
            total_steps += stats.steps;
            total_unfolds += stats.unfolds;
            if let Some(sol) = outcome.solution() {
                db = sol.db.clone();
            }
        }
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("steps"), total_steps, "{name}");
        assert_eq!(snap.counter("unfolds"), total_unfolds, "{name}");
        // Per-rule expansion counts partition the unfold total.
        let per_rule: u64 = snap.rule_unfolds.values().sum();
        assert_eq!(per_rule, total_unfolds, "{name}");
    }
}

#[test]
fn logical_counters_agree_between_sequential_and_deterministic_parallel() {
    for (name, source) in corpus_programs() {
        let (seq_oks, seq_digest, seq_obs) = run_observed(&source, SearchBackend::Sequential);
        let (par_oks, par_digest, par_obs) = run_observed(
            &source,
            SearchBackend::Parallel {
                threads: 4,
                deterministic: true,
            },
        );
        assert_eq!(seq_oks, par_oks, "{name}: per-goal outcomes diverged");
        assert_eq!(seq_digest, par_digest, "{name}: final databases diverged");
        let seq = seq_obs.registry.snapshot();
        let par = par_obs.registry.snapshot();
        for counter in ["solutions", "committed_updates", "failures"] {
            assert_eq!(
                seq.counter(counter),
                par.counter(counter),
                "{name}: logical counter `{counter}` diverged"
            );
        }
        assert_eq!(seq.runs, par.runs, "{name}: run counts diverged");
    }
}

/// Run every goal of a corpus file against a fresh durable store at `dir`,
/// committing each successful transaction through the WAL the way
/// `td --db run` does. Returns the store's final persisted digest, read
/// back by a cold `Store::verify` pass (checksums + per-record digests).
fn run_durably(source: &str, dir: &std::path::Path, backend: SearchBackend) -> u128 {
    use transaction_datalog::db::{Delta, DeltaOp};
    let parsed = parse_program(source).expect("corpus parses");
    let config = EngineConfig::default()
        .with_max_steps(2_000_000)
        .with_backend(backend);
    let engine = Engine::with_config(parsed.program.clone(), config);
    let schema = Database::with_schema_of(&parsed.program);
    let mut store = Store::init(dir, &schema).expect("store init");
    let with_init = load_init(&schema, &parsed.init).expect("corpus init loads");
    let mut genesis = Delta::new();
    for p in with_init.preds() {
        if let Some(rel) = with_init.relation(p) {
            for t in rel.to_vec() {
                genesis.push(DeltaOp::Ins(p, t));
            }
        }
    }
    if !genesis.is_empty() {
        store.commit(&genesis).expect("genesis commit");
    }
    for g in &parsed.goals {
        let outcome = engine
            .solve(&g.goal, store.db())
            .expect("corpus run cannot fault");
        if let Some(sol) = outcome.solution() {
            if !sol.delta.is_empty() {
                store.commit(&sol.delta).expect("commit");
            }
            assert_eq!(store.db().digest(), sol.db.digest());
        }
    }
    drop(store);
    let report = Store::verify(dir).expect("closed store verifies");
    report.final_digest
}

#[test]
fn sequential_and_deterministic_parallel_persist_identical_digests() {
    // The durability layer must not leak backend choice into the persisted
    // state: running a corpus file durably under the sequential engine and
    // under the deterministic-parallel one must leave byte-equivalent
    // content — equal digests after a cold, checksum-verified re-read.
    let root = std::env::temp_dir().join("td-obs-store-equivalence");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    for (name, source) in corpus_programs() {
        let seq_dir = root.join(format!("{name}.seq"));
        let par_dir = root.join(format!("{name}.par"));
        let seq_digest = run_durably(&source, &seq_dir, SearchBackend::Sequential);
        let par_digest = run_durably(
            &source,
            &par_dir,
            SearchBackend::Parallel {
                threads: 4,
                deterministic: true,
            },
        );
        assert_eq!(
            seq_digest, par_digest,
            "{name}: persisted digests diverged between backends"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn observed_runs_commit_the_same_witness_as_unobserved_runs() {
    for (name, source) in corpus_programs() {
        let parsed = parse_program(&source).expect("corpus parses");
        let config = EngineConfig::default().with_max_steps(2_000_000);
        let plain = Engine::with_config(parsed.program.clone(), config.clone());
        let observed = Engine::with_config(parsed.program.clone(), config)
            .with_observer(Arc::new(Observer::new()));
        let init = load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
            .expect("corpus init loads");
        let mut db_a = init.clone();
        let mut db_b = init;
        for g in &parsed.goals {
            let a = plain
                .solve(&g.goal, &db_a)
                .expect("corpus run cannot fault");
            let b = observed
                .solve(&g.goal, &db_b)
                .expect("corpus run cannot fault");
            assert_eq!(a.is_success(), b.is_success(), "{name}");
            if let (Some(sa), Some(sb)) = (a.solution(), b.solution()) {
                assert_eq!(sa.answer, sb.answer, "{name}");
                assert_eq!(sa.db.digest(), sb.db.digest(), "{name}");
                assert_eq!(sa.delta.len(), sb.delta.len(), "{name}");
                db_a = sa.db.clone();
                db_b = sb.db.clone();
            }
        }
    }
}
