//! Differential tests for the kernel seam: the sequential machine and the
//! explicit-state search — entered as the free `decider` functions and as
//! the engine-configured `Engine::decide` — are *schedulers* over one
//! shared transition relation, so on any input they must agree on
//! everything the semantics determines. The machine shares no search code
//! with the explicit-state search, which makes it the independent
//! reference the search is checked against here:
//!
//! 1. **Executability** — the same success/failure verdict from the
//!    machine (`Engine::solve`), `decider::decide` and `Engine::decide`.
//! 2. **Final-state sets** — the databases committed by exhaustive
//!    sequential enumeration are exactly the decider's reachable final
//!    states (both inclusions, by content).
//! 3. **Corpus verdicts and outcome counters** — on every corpus program
//!    the decider returns the machine's per-goal verdict, and the observed
//!    machine's outcome-level counters (`solutions`, `committed_updates`,
//!    `failures`) tally those verdicts.
//! 4. **Closed forms and edges** — whole-space counts the search must hit
//!    exactly (`3ⁿ − 1` toggles, E13's 900), an interleaving only one
//!    schedule finds, and a budget that runs out: `StepBudget` from the
//!    machine, `truncated` from `decide`.
//!
//! `cache_equivalence.rs` and `incremental_equivalence.rs` pin *witness
//! identity* for their subsystems; this suite pins the semantic agreement
//! that makes the kernel extraction safe.

mod common;

use common::{arb_goal, budgeted_engine, corpus_programs, flag_program, E13_REFUTATION};
use proptest::prelude::*;
use std::sync::Arc;
use td_engine::decider::{decide, final_states, DeciderConfig};
use td_engine::{EngineError, Observer};
use transaction_datalog::prelude::parse_program;
use transaction_datalog::prelude::{Database, Engine, EngineConfig, Goal, Term, Value};

/// A program source, parsed, with its `init` facts loaded.
fn load(source: &str) -> (transaction_datalog::prelude::Program, Database, Vec<Goal>) {
    let parsed = parse_program(source).expect("parses");
    let db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .expect("init loads");
    let goals = parsed.goals.iter().map(|g| g.goal.clone()).collect();
    (parsed.program, db, goals)
}

const WHOLE: DeciderConfig = DeciderConfig {
    max_configs: 1_000_000,
    exhaustive: true,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One verdict per goal, whichever driver schedules the kernel.
    #[test]
    fn all_three_drivers_agree_on_executability(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let engine = budgeted_engine(&p);
        let machine = engine
            .executable(&g, &db)
            .expect("ground goals cannot fault within budget");
        let d = decide(&p, &g, &db, DeciderConfig::default()).unwrap();
        prop_assert!(!d.truncated, "flag goal space exceeded decider budget");
        prop_assert_eq!(machine, d.executable, "decider verdict diverged");
        let e = engine.decide(&g, &db, DeciderConfig::default()).unwrap();
        prop_assert_eq!(e, d, "Engine::decide diverged from decider::decide");
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
        let engine = budgeted_engine(&p);
        let sols = match engine.solutions(&g, &db, LIMIT) {
            Ok(s) => Some(s.solutions),
            // A pathological interleaving count can exhaust the step
            // budget; soundness/completeness is then vacuous here and
            // covered by smaller cases.
            Err(EngineError::StepBudget { .. }) => None,
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

/// Every corpus goal: the decider's verdict matches the machine's, and the
/// observed machine's outcome counters tally its verdicts and committed
/// updates. Goals run in file sequence against the machine's committed
/// state, like `td run`; the decider is consulted per goal on the same
/// database.
#[test]
fn corpus_verdicts_and_logical_counters_agree_across_drivers() {
    let decider_cfg = DeciderConfig {
        max_configs: 200_000,
        ..DeciderConfig::default()
    };
    for (name, source) in corpus_programs() {
        let parsed = parse_program(&source).expect("corpus parses");
        let mut db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
            .expect("corpus init loads");
        let obs = Arc::new(Observer::new());
        let engine = budgeted_engine(&parsed.program).with_observer(obs.clone());
        let (mut solutions, mut failures, mut updates) = (0, 0, 0);
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
            match outcome.solution() {
                Some(sol) => {
                    solutions += 1;
                    updates += sol.delta.len() as u64;
                    db = sol.db.clone();
                }
                None => failures += 1,
            }
        }
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("solutions"), solutions, "{name}");
        assert_eq!(snap.counter("failures"), failures, "{name}");
        assert_eq!(snap.counter("committed_updates"), updates, "{name}");
    }
}

/// A builtin's fail/fault split is written once (`kernel::elem`), so a
/// faulting builtin is the same `EngineError` — kind and wording — from the
/// machine, `decider::decide` and `Engine::decide`.
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
        let (program, db, goals) = load(source);
        let engine = budgeted_engine(&program);
        let machine = engine.solve(&goals[0], &db).expect_err(what);
        let dec = decide(&program, &goals[0], &db, DeciderConfig::default()).expect_err(what);
        let configured = engine
            .decide(&goals[0], &db, DeciderConfig::default())
            .expect_err(what);
        assert_eq!(machine, dec, "{what}: decide diverged");
        assert_eq!(machine, configured, "{what}: Engine::decide diverged");
    }
}

/// Two closed forms: E13's refutation visits all of its 900 configurations
/// whatever the order (so its first-success count in `memo_golden` *is* the
/// whole space), and n independent insert/delete toggles span `3ⁿ − 1`
/// configurations with one final state, the one the machine commits.
#[test]
fn known_whole_space_counts_hold_and_the_machine_agrees() {
    let (program, db, goals) = load(E13_REFUTATION);
    let engine = budgeted_engine(&program);
    let d = decide(&program, &goals[0], &db, WHOLE).unwrap();
    assert_eq!((d.configs, d.executable, d.truncated), (900, false, false));
    assert_eq!(engine.decide(&goals[0], &db, WHOLE).unwrap(), d);
    assert!(!engine.executable(&goals[0], &db).unwrap(), "e13 refutes");

    for n in 1..=5usize {
        let decls: String = (0..n).map(|i| format!("base f{i}/0.\n")).collect();
        let branches: Vec<String> = (0..n).map(|i| format!("(ins.f{i} * del.f{i})")).collect();
        let (program, db, goals) = load(&format!("{decls}?- {}.", branches.join(" | ")));
        let engine = budgeted_engine(&program);
        let d = engine.decide(&goals[0], &db, WHOLE).unwrap();
        assert_eq!(d.configs, 3usize.pow(n as u32) - 1, "n={n}");
        assert!(d.executable && !d.truncated, "n={n}");
        let finals = engine.final_states(&goals[0], &db, WHOLE).unwrap();
        let out = engine.solve(&goals[0], &db).unwrap();
        assert_eq!(finals.len(), 1, "n={n}");
        assert!(
            finals[0].same_content(&out.solution().expect("toggles commit").db),
            "n={n}"
        );
    }
}

/// The search is not the semantics: a goal whose success depends on finding
/// one specific interleaving succeeds on the machine and is executable to
/// the decider (completeness), and an unsatisfiable goal fails on both
/// (soundness).
#[test]
fn needle_found_and_impossible_goal_refuted_by_machine_and_decider() {
    let (program, db, goals) = load(
        "base tok/1.
         grab(X) <- tok(X) * del.tok(X).
         put(X) <- ins.tok(X).
         init tok(a).
         % Succeeds only on schedules where the producer's put runs before
         % the consumer's grab.
         ?- (grab(a) * put(b)) | grab(b).",
    );
    let engine = budgeted_engine(&program);
    let needle = goals[0].clone();
    assert!(
        engine.executable(&needle, &db).unwrap(),
        "machine missed it"
    );
    let d = decide(&program, &needle, &db, DeciderConfig::default()).unwrap();
    assert!(d.executable, "decider missed the needle schedule");

    // After the needle goal both tokens are consumed; requiring tok(b)
    // after it must fail everywhere.
    let impossible = Goal::seq(vec![
        needle,
        Goal::atom("tok", vec![Term::Val(Value::sym("b"))]),
    ]);
    assert!(!engine.executable(&impossible, &db).unwrap(), "machine");
    let d = decide(&program, &impossible, &db, DeciderConfig::default()).unwrap();
    assert!(!d.executable && !d.truncated, "decider: {d:?}");
}

/// A budget that runs out is never misreported as a refutation: the
/// machine returns `EngineError::StepBudget`, and `decide` says
/// `truncated`, whether the budget is its own `max_configs` or the
/// engine's `max_steps`.
#[test]
fn exhausted_budget_is_step_budget_or_truncated_never_a_refutation() {
    let (program, db, _) = load(
        "base n/1.
         init n(0).
         spin <- n(X) * del.n(X) * Y is X + 1 * ins.n(Y) * spin.",
    );
    let goal = Goal::prop("spin");
    let engine = Engine::with_config(program.clone(), EngineConfig::default().with_max_steps(500));
    let got = engine.solve(&goal, &db);
    assert!(
        matches!(got, Err(EngineError::StepBudget { .. })),
        "machine returned {got:?}"
    );
    let small = DeciderConfig {
        max_configs: 500,
        ..DeciderConfig::default()
    };
    let d = decide(&program, &goal, &db, small).unwrap();
    assert!(d.truncated && !d.executable, "{d:?}");
    let d = engine.decide(&goal, &db, DeciderConfig::default()).unwrap();
    assert!(d.truncated && !d.executable, "{d:?}");
}

/// `peak_processes` is the peak number of concurrently schedulable
/// actions: a leaf waiting behind a `Seq` head is not one. Here two
/// three-update sequences run side by side, so two can run at any time.
#[test]
fn peak_processes_counts_runnable_leaves() {
    let (program, db, goals) = load(
        "base p/1.
         w(X) <- ins.p(X) * ins.p(X) * ins.p(X).
         ?- w(1) | w(2).",
    );
    let out = budgeted_engine(&program).solve(&goals[0], &db).unwrap();
    assert!(out.is_success());
    assert_eq!(out.stats().peak_processes, 2);
}
