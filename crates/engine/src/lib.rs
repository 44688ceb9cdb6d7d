//! # td-engine — the Transaction Datalog interpreter
//!
//! This crate executes TD programs. It provides:
//!
//! * [`Engine`] — the top-down, backtracking interpreter with interleaving
//!   search over concurrent branches, nested isolation, all-or-nothing
//!   rollback and per-execution statistics. This is the Rust counterpart of
//!   the Prolog prototype the paper's examples were validated on (\[55, 72\]).
//! * [`decider`] — an explicit-state, memoizing search over *ground
//!   configurations* `(process tree, database)`. For the decidable fragments
//!   of §4–§5 (sequential, nonrecursive, fully bounded TD) the configuration
//!   space is finite and this procedure decides executability outright,
//!   reporting the number of configurations explored — the quantity whose
//!   growth the complexity theorems describe.
//! * [`datalog`] — classical bottom-up Datalog evaluation, used as the
//!   paper's "plain Datalog" baseline (§6 remarks that insert-free TD
//!   queries are ordinary Datalog, where tabling/magic-set techniques
//!   apply). It has no evaluator of its own: a one-shot fixpoint is the
//!   [`incremental`] circuit run once from an empty derived state.
//! * [`magic`] — the magic-sets query rewriting the paper's §6 mentions, a
//!   pure program rewrite in front of [`datalog::evaluate`];
//! * [`incremental`] — the engine's one Datalog evaluator: rules compiled
//!   into a circuit of strongly-connected components with one body join
//!   and one semi-naive loop, run from scratch for one-shot questions and
//!   maintained across committed deltas (counting / delete-rederive) by
//!   [`Materializer`]. §6's other named technique, tabling, is the
//!   [`SubgoalCache`] — the crate's one memo mechanism;
//! * [`entail`] — an executional-entailment checker: does
//!   `P, D₀ … Dₙ ⊨ φ` hold for an explicit state sequence? Used by the
//!   test suite to pin the semantics of `⊗`, `|`, and `⊙` independently of
//!   the interpreter's search order.

pub mod cache;
mod compiled;
pub mod config;
pub mod datalog;
pub mod decider;
pub mod engine;
pub mod entail;
pub mod incremental;
mod kernel;
mod machine;
pub mod magic;
pub mod obs;
mod parallel;
mod search;
pub mod trace;
pub mod tree;

pub use cache::{CacheEntry, CachedAnswer, StateKey, SubgoalCache};
pub use config::{EngineConfig, EngineError, SearchBackend, Stats, Strategy};
pub use engine::{goal_num_vars, load_init, Engine, Outcome, Solution, Solutions};
pub use incremental::{Materializer, NotMaterializable};
pub use obs::{
    CacheTally, EventLog, GoalReport, JsonObject, LocalMetrics, Log2Hist, MetricsRegistry,
    MetricsSnapshot, Observer, RunReport,
};
pub use trace::{ProbeOutcome, SpanPhase, Trace, TraceEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::{Goal, Pred, Term};
    use td_db::{tuple, Database};
    use td_parser::parse_program;

    /// Parse, load init facts, and return (engine, db, goals).
    fn setup(src: &str) -> (Engine, Database, Vec<Goal>) {
        setup_cfg(src, EngineConfig::default())
    }

    fn setup_cfg(src: &str, cfg: EngineConfig) -> (Engine, Database, Vec<Goal>) {
        let parsed = parse_program(src).expect("test program parses");
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).expect("init loads");
        let goals = parsed.goals.iter().map(|g| g.goal.clone()).collect();
        (Engine::with_config(parsed.program, cfg), db, goals)
    }

    #[test]
    fn empty_goal_succeeds_without_change() {
        let (engine, db, _) = setup("base t/0.");
        let out = engine.solve(&Goal::True, &db).unwrap();
        assert!(out.is_success());
        let sol = out.solution().unwrap();
        assert!(sol.db.same_content(&db));
        assert!(sol.delta.is_empty());
    }

    #[test]
    fn fail_goal_fails() {
        let (engine, db, _) = setup("base t/0.");
        let out = engine.solve(&Goal::Fail, &db).unwrap();
        assert!(!out.is_success());
    }

    #[test]
    fn elementary_insert_and_query() {
        let (engine, db, goals) = setup("base t/1. ?- ins.t(5) * t(X).");
        let out = engine.solve(&goals[0], &db).unwrap();
        let sol = out.solution().expect("success");
        assert!(sol.db.contains(Pred::new("t", 1), &tuple!(5)));
        assert_eq!(sol.answer, vec![Term::int(5)]);
        assert_eq!(sol.delta.len(), 1);
    }

    #[test]
    fn query_on_empty_relation_fails() {
        let (engine, db, goals) = setup("base t/1. ?- t(X).");
        assert!(!engine.solve(&goals[0], &db).unwrap().is_success());
    }

    #[test]
    fn delete_then_query_fails() {
        let (engine, db, goals) = setup("base t/1. init t(1). ?- del.t(1) * t(1).");
        assert!(!engine.solve(&goals[0], &db).unwrap().is_success());
    }

    #[test]
    fn serial_order_matters() {
        // t(1) * ins.t(1) fails; ins.t(1) * t(1) succeeds.
        let (engine, db, goals) = setup("base t/1. ?- t(1) * ins.t(1). ?- ins.t(1) * t(1).");
        assert!(!engine.solve(&goals[0], &db).unwrap().is_success());
        assert!(engine.solve(&goals[1], &db).unwrap().is_success());
    }

    #[test]
    fn rule_unfolding_and_backtracking_over_rules() {
        let src = "
            base t/1.
            pick <- ins.t(1) * fail.
            pick <- ins.t(2).
            ?- pick.
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        let s = sol.solution().expect("second rule succeeds");
        assert!(!s.db.contains(Pred::new("t", 1), &tuple!(1)));
        assert!(s.db.contains(Pred::new("t", 1), &tuple!(2)));
        // the failed first rule's insert must not appear in the delta
        assert_eq!(s.delta.len(), 1);
    }

    #[test]
    fn tuple_backtracking_finds_the_right_binding() {
        let src = "
            base num/1. base want/1.
            init num(1). init num(2). init num(3).
            init want(2).
            ?- num(X) * want(X).
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert_eq!(sol.solution().unwrap().answer, vec![Term::int(2)]);
    }

    #[test]
    fn repeated_variable_in_query() {
        let src = "
            base e/2.
            init e(a, b). init e(c, c).
            ?- e(X, X).
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert_eq!(sol.solution().unwrap().answer, vec![Term::sym("c")]);
    }

    #[test]
    fn all_solutions_enumerated() {
        let src = "base num/1. init num(1). init num(2). init num(3). ?- num(X).";
        let (engine, db, goals) = setup(src);
        let sols = engine.solutions(&goals[0], &db, 10).unwrap();
        let mut answers: Vec<i64> = sols
            .solutions
            .iter()
            .map(|s| s.answer[0].as_value().unwrap().as_int().unwrap())
            .collect();
        answers.sort_unstable();
        assert_eq!(answers, vec![1, 2, 3]);
    }

    #[test]
    fn solutions_respect_limit() {
        let src = "base num/1. init num(1). init num(2). init num(3). ?- num(X).";
        let (engine, db, goals) = setup(src);
        let sols = engine.solutions(&goals[0], &db, 2).unwrap();
        assert_eq!(sols.solutions.len(), 2);
    }

    #[test]
    fn builtins_compare_and_compute() {
        let src = "
            base bal/2.
            init bal(acct1, 30).
            withdraw(A, Amt) <- bal(A, B) * B >= Amt * del.bal(A, B)
                                * C is B - Amt * ins.bal(A, C).
            ?- withdraw(acct1, 10).
            ?- withdraw(acct1, 50).
        ";
        let (engine, db, goals) = setup(src);
        let ok = engine.solve(&goals[0], &db).unwrap();
        assert!(ok
            .solution()
            .unwrap()
            .db
            .contains(Pred::new("bal", 2), &tuple!("acct1", 20)));
        let too_much = engine.solve(&goals[1], &db).unwrap();
        assert!(!too_much.is_success());
    }

    #[test]
    fn concurrent_composition_interleaves_for_communication() {
        // The left process needs a tuple only the right process inserts:
        // executable only because | interleaves (communication through the
        // database — the paper's central workflow mechanism).
        let src = "
            base msg/0. base done/0.
            consumer <- msg * ins.done.
            producer <- ins.msg.
            ?- consumer | producer.
        ";
        let (engine, db, goals) = setup(src);
        let out = engine.solve(&goals[0], &db).unwrap();
        assert!(out.is_success(), "scheduler must find producer-first order");
        assert!(out
            .solution()
            .unwrap()
            .db
            .contains(Pred::new("done", 0), &td_db::Tuple::unit()));
    }

    #[test]
    fn sequential_composition_does_not_communicate_backward() {
        // Same processes composed serially in the wrong order fail.
        let src = "
            base msg/0. base done/0.
            consumer <- msg * ins.done.
            producer <- ins.msg.
            ?- consumer * producer.
        ";
        let (engine, db, goals) = setup(src);
        assert!(!engine.solve(&goals[0], &db).unwrap().is_success());
    }

    #[test]
    fn three_way_rendezvous() {
        let src = "
            base a/0. base b/0. base c/0.
            p1 <- ins.a * b * c.
            p2 <- a * ins.b * c.
            p3 <- a * b * ins.c.
            ?- p1 | p2 | p3.
        ";
        let (engine, db, goals) = setup(src);
        assert!(engine.solve(&goals[0], &db).unwrap().is_success());
    }

    #[test]
    fn isolation_blocks_interleaving() {
        // Without iso, the goal can interleave: the right branch observes
        // the flag mid-flight. With iso around the left, the intermediate
        // state is invisible, so the goal fails.
        let src = "
            base flag/0. base saw/0.
            right <- flag * ins.saw.
            ?- (ins.flag * del.flag) | right.
            ?- iso { ins.flag * del.flag } | right.
        ";
        let (engine, db, goals) = setup(src);
        assert!(
            engine.solve(&goals[0], &db).unwrap().is_success(),
            "unisolated: right can observe the flag mid-flight"
        );
        assert!(
            !engine.solve(&goals[1], &db).unwrap().is_success(),
            "isolated: the intermediate state is invisible"
        );
    }

    #[test]
    fn isolation_is_transparent_when_alone() {
        let src = "base t/1. ?- iso { ins.t(1) * t(X) * del.t(X) * ins.t(2) }.";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        let s = sol.solution().unwrap();
        assert!(s.db.contains(Pred::new("t", 1), &tuple!(2)));
        assert!(!s.db.contains(Pred::new("t", 1), &tuple!(1)));
    }

    #[test]
    fn isolation_backtracks_into_the_block() {
        // The first solution of the iso block conflicts with the
        // continuation; the engine must pull the next solution out of the
        // isolated sub-execution.
        let src = "
            base num/1. base out/1.
            init num(1). init num(2).
            pickit <- num(X) * ins.out(X).
            ?- iso { pickit } * out(2).
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert!(sol.is_success(), "must retry iso with X=2");
        assert!(sol
            .solution()
            .unwrap()
            .db
            .contains(Pred::new("out", 1), &tuple!(2)));
    }

    #[test]
    fn nested_isolation() {
        let src = "base t/1. ?- iso { ins.t(1) * iso { ins.t(2) } * ins.t(3) }.";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert_eq!(sol.solution().unwrap().db.total_tuples(), 3);
    }

    #[test]
    fn choice_goal_tries_branches_in_order() {
        let src = "base t/1. ?- { fail or ins.t(7) }.";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert!(sol
            .solution()
            .unwrap()
            .db
            .contains(Pred::new("t", 1), &tuple!(7)));
    }

    #[test]
    fn negation_as_absence() {
        let src = "
            base busy/1.
            init busy(a1).
            grab(A) <- not busy(A) * ins.busy(A).
            ?- grab(a1).
            ?- grab(a2).
        ";
        let (engine, db, goals) = setup(src);
        assert!(!engine.solve(&goals[0], &db).unwrap().is_success());
        assert!(engine.solve(&goals[1], &db).unwrap().is_success());
    }

    #[test]
    fn recursion_terminates_on_condition() {
        // Tail-recursive countdown: iteration via recursion (the paper's
        // repeated-protocol idiom).
        let src = "
            base n/1.
            init n(5).
            down <- n(0).
            down <- n(X) * X > 0 * del.n(X) * Y is X - 1 * ins.n(Y) * down.
            ?- down.
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        let s = sol.solution().unwrap();
        assert!(s.db.contains(Pred::new("n", 1), &tuple!(0)));
        assert_eq!(s.db.relation(Pred::new("n", 1)).unwrap().len(), 1);
    }

    #[test]
    fn step_budget_stops_divergence() {
        // loop <- loop: diverges; the budget must stop it with an error,
        // not hang (full TD is RE-complete, so a budget is the only
        // guarantee of termination).
        let src = "loop <- loop. ?- loop.";
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let engine =
            Engine::with_config(parsed.program, EngineConfig::default().with_max_steps(1000));
        let err = engine.solve(&parsed.goals[0].goal, &db).unwrap_err();
        assert!(matches!(err, EngineError::StepBudget { .. }));
    }

    #[test]
    fn instantiation_fault_on_unbound_update() {
        let src = "base t/1. base p/1. init p(1). bad(X) <- p(X) * ins.t(Y). ?- bad(1).";
        let (engine, db, goals) = setup(src);
        let err = engine.solve(&goals[0], &db);
        assert!(
            matches!(err, Err(EngineError::Instantiation { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn type_fault_on_symbol_comparison() {
        let (engine, db, goals) = setup("base t/0. ?- abc < 3.");
        let err = engine.solve(&goals[0], &db).unwrap_err();
        assert!(matches!(err, EngineError::Type { .. }));
    }

    #[test]
    fn overflow_is_detected() {
        let src = format!("base t/1. ?- X is {} + 1 * ins.t(X).", i64::MAX);
        let parsed = parse_program(&src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let engine = Engine::new(parsed.program.clone());
        let err = engine.solve(&parsed.goals[0].goal, &db).unwrap_err();
        assert!(matches!(err, EngineError::Overflow { .. }));
    }

    #[test]
    fn variables_shared_across_concurrent_branches() {
        // r(X) <- (p(X) | q(X)): one X, bound by whichever branch queries
        // first, constraining the other.
        let src = "
            base p/1. base q/1. base out/1.
            init p(1). init p(2). init q(2).
            r(X) <- (p(X) | q(X)) * ins.out(X).
            ?- r(X).
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert_eq!(sol.solution().unwrap().answer, vec![Term::int(2)]);
    }

    #[test]
    fn deleted_tuple_not_visible_later_in_seq() {
        let src = "
            base t/1. init t(1).
            ?- del.t(1) * ins.t(2) * t(X).
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert_eq!(sol.solution().unwrap().answer, vec![Term::int(2)]);
    }

    #[test]
    fn round_robin_runs_confluent_workflows() {
        let src = "
            base done/1.
            w(W) <- ins.done(W).
            ?- w(a) | w(b) | w(c).
        ";
        let (engine, db, goals) = setup_cfg(
            src,
            EngineConfig::default().with_strategy(Strategy::RoundRobin),
        );
        let sol = engine.solve(&goals[0], &db).unwrap();
        assert_eq!(sol.solution().unwrap().db.total_tuples(), 3);
    }

    #[test]
    fn exhaustive_random_is_complete() {
        // The rendezvous needs a specific schedule; the randomized strategy
        // must still find it (it backtracks over schedules).
        let src = "
            base msg/0. base done/0.
            consumer <- msg * ins.done.
            producer <- ins.msg.
            ?- consumer | producer.
        ";
        for seed in 0..5 {
            let (engine, db, goals) = setup_cfg(
                src,
                EngineConfig::default().with_strategy(Strategy::ExhaustiveRandom(seed)),
            );
            assert!(
                engine.solve(&goals[0], &db).unwrap().is_success(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn leftmost_strategy_misses_right_first_schedules() {
        // Leftmost serializes |: consumer runs first and fails; without
        // schedule backtracking the goal fails. Documents the incompleteness
        // trade-off.
        let src = "
            base msg/0. base done/0.
            consumer <- msg * ins.done.
            producer <- ins.msg.
            ?- consumer | producer.
        ";
        let (engine, db, goals) = setup_cfg(
            src,
            EngineConfig::default().with_strategy(Strategy::Leftmost),
        );
        assert!(!engine.solve(&goals[0], &db).unwrap().is_success());
    }

    #[test]
    fn delta_records_successful_path_only() {
        let src = "
            base t/1.
            go <- ins.t(1) * fail.
            go <- ins.t(2) * ins.t(3).
            ?- go.
        ";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        let delta = &sol.solution().unwrap().delta;
        assert_eq!(delta.len(), 2);
        let rendered = delta.to_string();
        assert!(rendered.contains("ins.t(2)"));
        assert!(rendered.contains("ins.t(3)"));
        assert!(!rendered.contains("ins.t(1)"));
    }

    #[test]
    fn stats_are_populated() {
        let src = "base t/1. ?- ins.t(1) * t(X) * del.t(X).";
        let (engine, db, goals) = setup(src);
        let sol = engine.solve(&goals[0], &db).unwrap();
        let stats = sol.stats();
        assert!(stats.steps >= 3);
        assert_eq!(stats.db_ops, 2);
    }

    #[test]
    fn goal_num_vars_counts_dense_ids() {
        let g = Goal::atom("p", vec![Term::var(0), Term::var(2)]);
        assert_eq!(goal_num_vars(&g), 3);
        assert_eq!(goal_num_vars(&Goal::True), 0);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use td_db::Database;
    use td_parser::parse_program;

    #[test]
    fn memo_hits_are_counted() {
        // Two concurrent iterating instances whose not-yet-conclusive guard
        // keeps failing: the refuted configurations recur across
        // interleavings (the iterated-protocol shape of [26]).
        let src = "
            base quality/2. base result/2. base mapped/1.
            init quality(a, 0). init quality(b, 0).
            protocol(W) <- quality(W, Q) * Q >= 3 * ins.mapped(W).
            protocol(W) <- quality(W, Q) * Q < 3 * del.quality(W, Q)
                           * Q2 is Q + 1 * ins.quality(W, Q2)
                           * ins.result(W, Q2) * protocol(W).
            ?- protocol(a) | protocol(b).
        ";
        let parsed = parse_program(src).unwrap();
        let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init).unwrap();
        let engine = Engine::new(parsed.program.clone());
        let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        assert!(out.is_success());
        assert!(out.stats().memo_hits > 0, "{}", out.stats());
    }

    #[test]
    fn peak_processes_reflects_runtime_spawning() {
        // Example 3.2's spawner: each delivered item adds a live process.
        let src = "
            base item/1. base done/1.
            wf(W) <- ins.done(W).
            sim <- item(W) * del.item(W) * (wf(W) | sim).
            sim <- ().
            env <- ins.item(w1) * ins.item(w2) * ins.item(w3) * ins.item(w4).
            ?- env * sim.
        ";
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let engine = Engine::new(parsed.program.clone());
        let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        assert!(out.is_success());
        // At some point several spawned workflows plus the spawner are
        // simultaneously live.
        assert!(out.stats().peak_processes >= 2, "{}", out.stats());
    }

    #[test]
    fn subgoal_cache_hits_on_iterated_protocol() {
        // Two concurrent instances of the same iterating protocol: the
        // sole-frontier ground calls and the identical iso-free recursion
        // recur at identical (goal, digest) states across interleavings, so
        // a warm second run answers from the cache.
        let src = "
            base quality/2. base result/2. base mapped/1.
            init quality(a, 0). init quality(b, 0).
            protocol(W) <- quality(W, Q) * Q >= 3 * ins.mapped(W).
            protocol(W) <- quality(W, Q) * Q < 3 * del.quality(W, Q)
                           * Q2 is Q + 1 * ins.quality(W, Q2)
                           * ins.result(W, Q2) * protocol(W).
            ?- iso { protocol(a) } * iso { protocol(b) }.
        ";
        let parsed = parse_program(src).unwrap();
        let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init).unwrap();
        let cfg = EngineConfig::default().with_subgoal_cache();
        let engine = Engine::with_config(parsed.program.clone(), cfg);
        let cold = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        assert!(cold.is_success());
        let warm = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        assert!(warm.is_success());
        assert!(
            warm.stats().cache_hits > 0,
            "warm run must replay cached answers: {}",
            warm.stats()
        );
        let cache = engine.subgoal_cache().expect("cache enabled");
        assert!(cache.hits() > 0);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cached_and_uncached_agree_on_witness() {
        let src = "
            base item/1. base log/1.
            init item(1). init item(2). init item(3).
            take(X) <- item(X) * del.item(X) * ins.log(X).
            ?- iso { take(X) } * iso { take(Y) }.
        ";
        let parsed = parse_program(src).unwrap();
        let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init).unwrap();
        let plain = Engine::new(parsed.program.clone());
        let cached = Engine::with_config(
            parsed.program.clone(),
            EngineConfig::default().with_subgoal_cache(),
        );
        let a = plain.solve(&parsed.goals[0].goal, &db).unwrap();
        let b = cached.solve(&parsed.goals[0].goal, &db).unwrap();
        let (sa, sb) = (a.solution().unwrap(), b.solution().unwrap());
        assert_eq!(sa.answer, sb.answer);
        assert_eq!(sa.delta.ops(), sb.delta.ops());
        assert!(sa.db.same_content(&sb.db));
    }

    #[test]
    fn subgoal_cache_is_inert_under_tracing() {
        // Tracing disables the cache (a replayed macro-step has no
        // elementary trace events), so the counters must stay zero.
        let src = "base t/1. ?- iso { ins.t(1) }.";
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let cfg = EngineConfig::default().with_subgoal_cache().with_trace();
        let engine = Engine::with_config(parsed.program.clone(), cfg);
        let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        assert!(out.is_success());
        assert_eq!(out.stats().cache_hits + out.stats().cache_misses, 0);
        assert!(!out.solution().unwrap().trace.is_empty());
    }

    #[test]
    fn memo_can_be_disabled() {
        let src = "base t/0. ?- ins.t * t.";
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let cfg = EngineConfig {
            memo_failures: false,
            ..EngineConfig::default()
        };
        let engine = Engine::with_config(parsed.program.clone(), cfg);
        let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        assert!(out.is_success());
        assert_eq!(out.stats().memo_hits, 0);
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use td_core::{Atom, Goal, Term};
    use td_db::Database;

    #[test]
    fn load_init_rejects_non_ground_atoms() {
        let err = load_init(&Database::new(), &[Atom::new("p", vec![Term::var(0)])]).unwrap_err();
        assert!(matches!(err, EngineError::Instantiation { .. }));
    }

    #[test]
    fn arity_mismatch_reaches_the_db_layer_as_a_fatal_error() {
        // The engine does not re-validate API-constructed goals; a tuple of
        // the wrong width must surface as a fatal Db error, not a failure.
        let program = td_core::Program::builder()
            .base_pred("p", 2)
            .build()
            .unwrap();
        let db = Database::with_schema_of(&program);
        let engine = Engine::new(program);
        // ins.p(1) against p/2: the atom's pred is p/1 — auto-declared as a
        // separate relation, so this succeeds (predicates are name+arity)...
        let ok = engine
            .solve(&Goal::ins("p", vec![Term::int(1)]), &db)
            .unwrap();
        assert!(ok.is_success(), "p/1 and p/2 are distinct predicates");
        // ...whereas a hand-built atom lying about its own arity hits the
        // storage check.
        let lying = Goal::Ins(Atom {
            pred: td_core::Pred::new("p", 2),
            args: vec![Term::int(1)],
        });
        let err = engine.solve(&lying, &db).unwrap_err();
        assert!(matches!(err, EngineError::Db(_)), "{err:?}");
    }

    #[test]
    fn stack_budget_is_enforced() {
        // Deep choicepoint accumulation hits the stack budget before the
        // step budget when configured tightly.
        let parsed = td_parser::parse_program(
            "base t/1.
             gen <- { ins.t(1) or ins.t(2) } * gen.
             ?- gen.",
        )
        .unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let cfg = EngineConfig {
            max_stack: 50,
            max_steps: 1_000_000,
            memo_failures: false, // keep the search growing
            ..EngineConfig::default()
        };
        let engine = Engine::with_config(parsed.program.clone(), cfg);
        let err = engine.solve(&parsed.goals[0].goal, &db).unwrap_err();
        assert!(matches!(err, EngineError::StackBudget { .. }), "{err:?}");
    }
}
