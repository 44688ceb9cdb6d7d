//! Differential tests: the parallel work-stealing backend must agree with
//! the sequential engine.
//!
//! Three layers of agreement, in increasing strictness:
//!
//! 1. **Executability** — on any goal, parallel and sequential report the
//!    same success/failure (the decision problem has one answer; which
//!    machinery searches the interleaving space must not matter).
//! 2. **Final-state membership** — a parallel success must commit a final
//!    database the trail machine's exhaustive enumeration also commits (any
//!    witness is a *valid* witness). The reference is `Engine::solutions`,
//!    not the decider: `decide` and the parallel backend are one search.
//! 3. **Deterministic witness** — with `deterministic: true`, the parallel
//!    backend reports exactly the sequential engine's first witness:
//!    same answer substitution, same delta, same final database.
//! 4. **Schedule independence** — the *whole-space* configuration count
//!    (`DeciderConfig::exhaustive`) and the set of final states are the
//!    same under 1, 2 and 4 workers: every distinct configuration is
//!    claimed exactly once, by whoever gets there first. (First-success
//!    counts are order-dependent; `experiments.rs` and `memo_golden.rs`
//!    pin those on one worker.)
//!
//! Plus the step-budget contract: an exhausted budget is reported as
//! `EngineError::StepBudget`, never misreported as plain failure.

mod common;

use common::{
    arb_goal, corpus_files, engine_with, flag_program, parallel, parallel_det, E13_REFUTATION,
};
use proptest::prelude::*;
use td_engine::decider::DeciderConfig;
use transaction_datalog::prelude::parse_program;
use transaction_datalog::prelude::{
    Database, Engine, EngineConfig, Goal, Program, SearchBackend, Term, Value,
};

/// The whole-space configuration count and the sorted final-state digests
/// of `goal` on `backend`'s worker count, bounded by `engine_with`'s 200 000
/// steps. `None` when the space exceeds that budget or holds a faulting
/// schedule — the skip rule of `kernel_equivalence`'s corpus test.
fn whole_space(
    p: &Program,
    goal: &Goal,
    db: &Database,
    backend: SearchBackend,
) -> Option<(usize, Vec<u128>)> {
    let cfg = DeciderConfig {
        exhaustive: true,
        ..DeciderConfig::default()
    };
    let engine = engine_with(p, backend);
    let d = engine.decide(goal, db, cfg).ok().filter(|d| !d.truncated)?;
    let finals = engine.final_states(goal, db, cfg).ok()?;
    let mut finals: Vec<u128> = finals.iter().map(Database::digest).collect();
    finals.sort_unstable();
    Some((d.configs, finals))
}

/// 2 and 4 workers find what one worker finds; returns the count.
fn assert_schedule_independent(
    p: &Program,
    goal: &Goal,
    db: &Database,
    context: &str,
) -> Option<usize> {
    let one = whole_space(p, goal, db, SearchBackend::Sequential);
    for threads in [2usize, 4] {
        let many = whole_space(p, goal, db, parallel(threads));
        assert_eq!(many, one, "{context}: {threads} workers");
    }
    one.map(|(configs, _)| configs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn parallel_agrees_with_sequential_on_executability(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let seq = engine_with(&p, SearchBackend::Sequential)
            .executable(&g, &db)
            .expect("ground goals cannot fault within budget");
        for threads in [2usize, 4] {
            let par = engine_with(&p, parallel(threads))
                .executable(&g, &db)
                .expect("parallel search cannot fault on ground goals");
            prop_assert_eq!(seq, par, "threads={}", threads);
        }
    }

    #[test]
    fn parallel_success_commits_a_reachable_final_state(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let out = engine_with(&p, parallel(4)).solve(&g, &db).unwrap();
        if let Some(sol) = out.solution() {
            // Distinct-by-path enumeration; a goal with more successful
            // interleavings than the limit (or the step budget) proves
            // nothing here and is covered by smaller cases.
            const LIMIT: usize = 20_000;
            let all = engine_with(&p, SearchBackend::Sequential).solutions(&g, &db, LIMIT);
            if let Some(all) = all.ok().filter(|a| a.solutions.len() < LIMIT) {
                prop_assert!(
                    all.solutions.iter().any(|s| s.db.same_content(&sol.db)),
                    "parallel witness database not among the machine's committed states"
                );
            }
        }
    }

    #[test]
    fn whole_space_is_schedule_independent(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let configs = assert_schedule_independent(&p, &g, &db, "flag goal");
        prop_assert!(configs.is_some(), "flag goal space exceeded the budget");
    }

    #[test]
    fn deterministic_parallel_reports_the_sequential_witness(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let seq = engine_with(&p, SearchBackend::Sequential).solve(&g, &db).unwrap();
        let par = engine_with(&p, parallel_det(4)).solve(&g, &db).unwrap();
        prop_assert_eq!(seq.is_success(), par.is_success());
        if let (Some(s), Some(q)) = (seq.solution(), par.solution()) {
            prop_assert_eq!(&s.answer, &q.answer);
            prop_assert_eq!(s.delta.ops(), q.delta.ops());
            prop_assert!(s.db.same_content(&q.db));
        }
    }
}

/// Every corpus goal: parallel (2 and 4 threads) agrees with sequential on
/// success, and the deterministic mode reproduces the sequential witness
/// exactly. Goals run in file sequence against the sequential engine's
/// committed state, like `td run`.
#[test]
fn corpus_parallel_matches_sequential() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_program(&src)
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
        let db = Database::with_schema_of(&parsed.program);
        let mut db = td_engine::load_init(&db, &parsed.init).unwrap();
        let seq_engine = engine_with(&parsed.program, SearchBackend::Sequential);
        let det_engine = engine_with(&parsed.program, parallel_det(4));
        for (i, g) in parsed.goals.iter().enumerate() {
            let seq = seq_engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{} goal {i}: {e}", path.display()));
            for threads in [2usize, 4] {
                let par = engine_with(&parsed.program, parallel(threads))
                    .solve(&g.goal, &db)
                    .unwrap_or_else(|e| panic!("{} goal {i} ({threads}t): {e}", path.display()));
                assert_eq!(
                    seq.is_success(),
                    par.is_success(),
                    "{} goal {i}: backend disagreement at {threads} threads",
                    path.display()
                );
            }
            let det = det_engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{} goal {i} (det): {e}", path.display()));
            assert_eq!(
                seq.is_success(),
                det.is_success(),
                "{} goal {i}",
                path.display()
            );
            if let (Some(s), Some(d)) = (seq.solution(), det.solution()) {
                assert_eq!(
                    s.answer,
                    d.answer,
                    "{} goal {i}: answers differ",
                    path.display()
                );
                assert_eq!(
                    s.delta.ops(),
                    d.delta.ops(),
                    "{} goal {i}: deltas differ",
                    path.display()
                );
                assert!(
                    s.db.same_content(&d.db),
                    "{} goal {i}: final databases differ",
                    path.display()
                );
            }
            if let Some(sol) = seq.solution() {
                db = sol.db.clone();
            }
        }
    }
}

/// Every corpus goal's whole space, in file sequence against the sequential
/// engine's committed state, like `td run`.
#[test]
fn corpus_whole_space_is_schedule_independent() {
    let mut compared = 0;
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_program(&src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let mut db = td_engine::load_init(&db, &parsed.init).unwrap();
        let seq_engine = engine_with(&parsed.program, SearchBackend::Sequential);
        for (i, g) in parsed.goals.iter().enumerate() {
            let context = format!("{} goal {i}", path.display());
            if assert_schedule_independent(&parsed.program, &g.goal, &db, &context).is_some() {
                compared += 1;
            }
            if let Some(sol) = seq_engine.solve(&g.goal, &db).unwrap().solution() {
                db = sol.db.clone();
            }
        }
    }
    assert!(compared >= 8, "only {compared} corpus goals fit the budget");
}

/// Two closed forms: E13's refutation visits all of its 900 configurations
/// whatever the order (so its first-success count in `memo_golden` *is* the
/// whole space), and n independent insert/delete toggles span `3ⁿ − 1`.
#[test]
fn known_whole_space_counts_hold_at_every_worker_count() {
    let parsed = parse_program(E13_REFUTATION).unwrap();
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    let configs = assert_schedule_independent(&parsed.program, &parsed.goals[0].goal, &db, "e13");
    assert_eq!(configs, Some(900));

    for n in 1..=5usize {
        let decls: String = (0..n).map(|i| format!("base f{i}/0.\n")).collect();
        let branches: Vec<String> = (0..n).map(|i| format!("(ins.f{i} * del.f{i})")).collect();
        let parsed = parse_program(&format!("{decls}?- {}.", branches.join(" | "))).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let configs =
            assert_schedule_independent(&parsed.program, &parsed.goals[0].goal, &db, "toggles");
        assert_eq!(configs, Some(3usize.pow(n as u32) - 1), "n={n}");
    }
}

/// `peak_processes` is the peak number of concurrently schedulable actions
/// on every driver: a leaf waiting behind a `Seq` head is not one. Here two
/// three-update sequences run side by side, so two can run at any time.
#[test]
fn peak_processes_counts_runnable_leaves_on_every_backend() {
    let parsed = parse_program(
        "base p/1.
         w(X) <- ins.p(X) * ins.p(X) * ins.p(X).
         ?- w(1) | w(2).",
    )
    .unwrap();
    let db = Database::with_schema_of(&parsed.program);
    for backend in [SearchBackend::Sequential, parallel(2), parallel_det(2)] {
        let out = engine_with(&parsed.program, backend)
            .solve(&parsed.goals[0].goal, &db)
            .unwrap();
        assert!(out.is_success(), "{backend:?}");
        assert_eq!(out.stats().peak_processes, 2, "{backend:?}");
    }
}

/// Budget exhaustion must surface as `StepBudget`, not as a (wrong)
/// failure verdict, on both backends.
#[test]
fn step_budget_exhaustion_is_an_error_on_both_backends() {
    let parsed = parse_program(
        "base n/1.
         init n(0).
         spin <- n(X) * del.n(X) * Y is X + 1 * ins.n(Y) * spin.",
    )
    .unwrap();
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    let goal = Goal::prop("spin");
    for backend in [SearchBackend::Sequential, parallel(4), parallel_det(4)] {
        let engine = Engine::with_config(
            parsed.program.clone(),
            EngineConfig::default()
                .with_max_steps(500)
                .with_backend(backend),
        );
        let got = engine.solve(&goal, &db);
        assert!(
            matches!(got, Err(td_engine::EngineError::StepBudget { .. })),
            "backend {backend:?} returned {got:?}"
        );
    }
}

/// The backend is search machinery, not semantics: a goal whose success
/// depends on finding one specific interleaving still succeeds under the
/// parallel backend (completeness), and an unsatisfiable goal still fails
/// (soundness), at every thread count.
#[test]
fn needle_interleaving_found_at_every_thread_count() {
    let parsed = parse_program(
        "base tok/1.
         grab(X) <- tok(X) * del.tok(X).
         put(X) <- ins.tok(X).
         init tok(a).
         % Succeeds only on schedules where the producer's put runs before
         % the consumer's grab.
         ?- (grab(a) * put(b)) | grab(b).",
    )
    .unwrap();
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    let goal = parsed.goals[0].goal.clone();
    for threads in [1usize, 2, 3, 4, 8] {
        let out = engine_with(&parsed.program, parallel(threads))
            .solve(&goal, &db)
            .unwrap();
        assert!(
            out.is_success(),
            "needle schedule missed at {threads} threads"
        );
    }
    let impossible = Goal::seq(vec![
        goal.clone(),
        Goal::atom("tok", vec![Term::Val(Value::sym("b"))]),
    ]);
    // After the needle goal both tokens are consumed; requiring tok(b) after
    // it must fail everywhere.
    for threads in [1usize, 4] {
        let out = engine_with(&parsed.program, parallel(threads))
            .solve(&impossible, &db)
            .unwrap();
        assert!(!out.is_success(), "unsound success at {threads} threads");
    }
}
