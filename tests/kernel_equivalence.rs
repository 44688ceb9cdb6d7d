//! Differential tests for the kernel seam: the sequential machine and the
//! explicit-state search — entered as the decider and as the work-stealing
//! parallel backend — are *schedulers* over one shared transition relation,
//! so on any input they must agree on everything the semantics determines.
//! The machine shares no search code with the other two, which makes it
//! the independent reference they are checked against here:
//!
//! 1. **Executability** — the same success/failure verdict from the
//!    sequential engine, the parallel backend at several thread counts,
//!    and the decider's reachability search.
//! 2. **Final-state sets** — the databases committed by exhaustive
//!    sequential enumeration are exactly the decider's reachable final
//!    states (both inclusions, by content).
//! 3. **Backend-invariant obs counters** — on every corpus program, the
//!    outcome-level counters (`solutions`, `committed_updates`,
//!    `failures`) agree between the sequential and deterministic-parallel
//!    drivers, and the decider (run alongside) returns the same per-goal
//!    verdict — extending the PR 3 seq/parallel check to all three
//!    drivers.
//!
//! `parallel_equivalence.rs` and `cache_equivalence.rs` pin *witness
//! identity* for their subsystems; this suite pins the semantic agreement
//! that makes the kernel extraction safe.

mod common;

use common::{
    arb_goal, corpus_programs, engine_with, flag_program, parallel, parallel_det, run_observed,
};
use proptest::prelude::*;
use td_engine::decider::{decide, final_states, DeciderConfig};
use transaction_datalog::prelude::parse_program;
use transaction_datalog::prelude::{Database, SearchBackend};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One verdict per goal, whichever driver schedules the kernel.
    #[test]
    fn all_three_drivers_agree_on_executability(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let seq = engine_with(&p, SearchBackend::Sequential)
            .executable(&g, &db)
            .expect("ground goals cannot fault within budget");
        for backend in [parallel(2), parallel(4), parallel_det(4)] {
            let par = engine_with(&p, backend)
                .executable(&g, &db)
                .expect("parallel search cannot fault on ground goals");
            prop_assert_eq!(seq, par, "backend {:?}", backend);
        }
        let d = decide(&p, &g, &db, DeciderConfig::default()).unwrap();
        prop_assert!(!d.truncated, "flag goal space exceeded decider budget");
        prop_assert_eq!(seq, d.executable, "decider verdict diverged");
    }

    /// Exhaustive sequential enumeration and the decider's explicit-state
    /// search compute the same set of reachable final databases.
    #[test]
    fn sequential_enumeration_matches_decider_final_states(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        // Distinct-by-path enumeration: every successful interleaving, so
        // the limit must exceed the path count for the completeness
        // direction to be meaningful.
        const LIMIT: usize = 20_000;
        let engine = engine_with(&p, SearchBackend::Sequential);
        let sols = match engine.solutions(&g, &db, LIMIT) {
            Ok(s) => Some(s.solutions),
            // A pathological interleaving count can exhaust the step
            // budget; soundness/completeness is then vacuous here and
            // covered by smaller cases.
            Err(td_engine::EngineError::StepBudget { .. }) => None,
            Err(e) => panic!("unexpected fault: {e}"),
        };
        if let Some(sols) = sols {
            let finals = final_states(&p, &g, &db, DeciderConfig::default()).unwrap();
            for (i, sol) in sols.iter().enumerate() {
                prop_assert!(
                    finals.iter().any(|d| d.same_content(&sol.db)),
                    "solution {i}: committed database not among the decider's final states"
                );
            }
            if sols.len() < LIMIT {
                // Enumeration was exhaustive, so it must also be complete:
                // every decider final state is some solution's database.
                for (i, d) in finals.iter().enumerate() {
                    prop_assert!(
                        sols.iter().any(|s| s.db.same_content(d)),
                        "final state {i} unreachable by sequential enumeration"
                    );
                }
            }
        }
    }
}

/// Every corpus goal, all three drivers: the decider's verdict matches the
/// sequential engine's, and the outcome-level obs counters agree between
/// the sequential and deterministic-parallel runs. Goals run in file
/// sequence against the sequential engine's committed state, like
/// `td run`; the decider is consulted per goal on the same database.
#[test]
fn corpus_verdicts_and_logical_counters_agree_across_drivers() {
    let decider_cfg = DeciderConfig {
        max_configs: 200_000,
        ..DeciderConfig::default()
    };
    for (name, source) in corpus_programs() {
        let (seq_oks, seq_digest, seq_obs) = run_observed(&source, SearchBackend::Sequential);
        let (par_oks, par_digest, par_obs) = run_observed(&source, parallel_det(4));
        assert_eq!(seq_oks, par_oks, "{name}: per-goal verdicts diverged");
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

        // Third driver: the decider, on the same per-goal databases.
        let parsed = parse_program(&source).expect("corpus parses");
        let mut db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
            .expect("corpus init loads");
        let engine = engine_with(&parsed.program, SearchBackend::Sequential);
        for (i, g) in parsed.goals.iter().enumerate() {
            let outcome = engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{name} goal {i}: {e}"));
            // The decider explores *all* schedules; skip goals whose full
            // configuration graph exceeds the budget or reaches a faulting
            // schedule the strategy-ordered engine never visits.
            if let Ok(d) = decide(&parsed.program, &g.goal, &db, decider_cfg) {
                if !d.truncated {
                    assert_eq!(
                        outcome.is_success(),
                        d.executable,
                        "{name} goal {i}: decider verdict diverged"
                    );
                }
            }
            if let Some(sol) = outcome.solution() {
                db = sol.db.clone();
            }
        }
    }
}

/// A builtin's fail/fault split is written once (`kernel::elem`), so a
/// faulting builtin is the same `EngineError` — kind and wording — from the
/// sequential machine, the parallel backend and the decider.
#[test]
fn builtin_faults_are_the_same_error_from_every_driver() {
    for (what, source) in [
        (
            "type fault",
            "base p/1. init p(a). r <- p(X) * X > 1. ?- r.",
        ),
        (
            "instantiation fault",
            "base p/1. init p(1). r <- p(X) * Y < X. ?- r.",
        ),
        (
            "overflow",
            "base p/1. init p(9223372036854775807). r <- p(X) * Y is X + 1. ?- r.",
        ),
    ] {
        let parsed = parse_program(source).expect("parses");
        let db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
            .expect("init loads");
        let goal = &parsed.goals[0].goal;
        let seq = engine_with(&parsed.program, SearchBackend::Sequential)
            .solve(goal, &db)
            .expect_err(what);
        let par = engine_with(&parsed.program, parallel(2))
            .solve(goal, &db)
            .expect_err(what);
        let dec = decide(&parsed.program, goal, &db, DeciderConfig::default()).expect_err(what);
        assert_eq!(seq, par, "{what}: --threads=2 diverged");
        assert_eq!(seq, dec, "{what}: decide diverged");
    }
}
