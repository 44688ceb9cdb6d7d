//! Differential tests for the observability subsystem (`td_engine::obs`):
//! attaching an observer must not change any result, and the registry
//! must echo what the run itself reports.
//!
//! On every corpus program, an observed run commits exactly the same
//! witness (answer, delta, final database digest) as an unobserved one,
//! and the registry echoes the run's own `Stats` faithfully (`steps`
//! counter == `stats.steps`).

mod common;

use common::corpus_programs;
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
