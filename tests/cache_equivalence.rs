//! Differential tests: the subgoal answer cache must be invisible in every
//! result — only the work changes, never the answer.
//!
//! Three layers of agreement, mirroring `parallel_equivalence.rs`:
//!
//! 1. **Executability** — on any goal, the cached engine (sequential and
//!    deterministic-parallel) reports the same success/failure as the
//!    uncached sequential engine.
//! 2. **Final-state sets** — the explicit-state decider computes the same
//!    set of reachable final databases with and without the cache (both
//!    directions, by content).
//! 3. **Witness identity** — the cached engines report exactly the uncached
//!    sequential engine's first witness: same answer substitution, same
//!    delta, same final database. Replayed macro-steps occupy the same
//!    position in the search order as the lazy expansions they substitute
//!    for (docs/CACHING.md), so even the committed path is unchanged.
//!
//! Layer 3 is exercised twice per goal: with an ample cache and with a
//! pathologically small one (one slot per shard), so CLOCK eviction churn
//! is also shown to be invisible.

mod common;

use common::{arb_goal, assert_same_witness, corpus_files, flag_program};
use proptest::prelude::*;
use transaction_datalog::prelude::parse_program;
use transaction_datalog::prelude::{
    Database, Engine, EngineConfig, Goal, Program, SearchBackend, Term,
};

fn uncached(program: &Program) -> Engine {
    Engine::with_config(
        program.clone(),
        EngineConfig::default().with_max_steps(200_000),
    )
}

fn cached(program: &Program, capacity: usize) -> Engine {
    Engine::with_config(
        program.clone(),
        EngineConfig::default()
            .with_max_steps(200_000)
            .with_subgoal_cache()
            .with_cache_capacity(capacity),
    )
}

fn cached_parallel(program: &Program, threads: usize) -> Engine {
    Engine::with_config(
        program.clone(),
        EngineConfig::default()
            .with_max_steps(200_000)
            .with_subgoal_cache()
            .with_backend(SearchBackend::Parallel {
                threads,
                deterministic: true,
            }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cached_sequential_reports_the_uncached_witness(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let plain = uncached(&p).solve(&g, &db).unwrap();
        // Ample cache, and a one-slot-per-shard cache that evicts
        // constantly: both must be invisible.
        for capacity in [65_536usize, 1] {
            let engine = cached(&p, capacity);
            // Twice on one engine: the second run answers from a warm
            // cache, the strongest replay test.
            for run in 0..2 {
                let got = engine.solve(&g, &db).unwrap();
                assert_same_witness(&plain, &got, &format!("capacity={capacity} run={run}"));
            }
        }
    }

    #[test]
    fn cached_deterministic_parallel_reports_the_uncached_witness(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let plain = uncached(&p).solve(&g, &db).unwrap();
        let par = cached_parallel(&p, 4).solve(&g, &db).unwrap();
        assert_same_witness(&plain, &par, "cached 4-thread deterministic");
    }

    #[test]
    fn decider_final_state_sets_agree_with_and_without_cache(g in arb_goal(3)) {
        let p = flag_program();
        let db = Database::with_schema_of(&p);
        let cfg = td_engine::decider::DeciderConfig::default();
        let plain = td_engine::decider::final_states(&p, &g, &db, cfg).unwrap();
        let engine = cached(&p, 1024);
        let tabled = engine.final_states(&g, &db, cfg).unwrap();
        for d in &plain {
            prop_assert!(
                tabled.iter().any(|t| t.same_content(d)),
                "final state lost under caching"
            );
        }
        for d in &tabled {
            prop_assert!(
                plain.iter().any(|t| t.same_content(d)),
                "caching invented a final state"
            );
        }
        // Executability must agree too (decide uses the same machinery but
        // stops early).
        let pd = td_engine::decider::decide(&p, &g, &db, cfg).unwrap();
        let cd = engine.decide(&g, &db, cfg).unwrap();
        prop_assert_eq!(pd.executable, cd.executable);
    }
}

/// With the cache and the materializer both on, a probe on a materialized
/// predicate is answered by the views and *skipped* by the cache (counted
/// `unsuitable`): the answer would otherwise be stored twice, and the
/// cached copy would go stale-by-digest for no benefit. The cache must see
/// no hit, no miss, and no entry for such a probe.
#[test]
fn cache_skips_probes_on_materialized_predicates() {
    let parsed = parse_program(
        "base edge/2. init edge(1, 2). init edge(2, 3).
         path(X, Y) <- edge(X, Y).
         path(X, Z) <- edge(X, Y) * path(Y, Z).",
    )
    .unwrap();
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    let engine = Engine::with_config(
        parsed.program.clone(),
        EngineConfig::default()
            .with_subgoal_cache()
            .with_materialize(),
    );
    let mat = engine.materializer().expect("program must materialize");
    let goal = Goal::atom("path", vec![Term::int(1), Term::int(3)]);
    let out = engine.solve(&goal, &db).unwrap();
    assert!(out.is_success());
    assert!(mat.probes() > 0, "the query must be answered by a probe");
    let cache = engine.subgoal_cache().expect("cache is on");
    assert_eq!(
        cache.hits() + cache.misses(),
        0,
        "the cache must never see a materialized-predicate probe"
    );
    assert!(cache.unsuitable() > 0, "skips are tallied as unsuitable");
    assert_eq!(cache.len(), 0, "nothing may be double-stored");
}

/// Every corpus goal: the cached sequential engine and the cached
/// deterministic-parallel engine reproduce the uncached sequential witness
/// exactly. Goals run in file sequence against the committed state, like
/// `td run`; each file keeps one warm cache across its goals, and the warm
/// solve of the iterated protocol must actually hit it (EXPERIMENTS.md E15).
#[test]
fn corpus_cached_matches_uncached() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_program(&src)
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
        let db = Database::with_schema_of(&parsed.program);
        let mut db = td_engine::load_init(&db, &parsed.init).unwrap();
        let plain_engine = uncached(&parsed.program);
        let cached_engine = cached(&parsed.program, 65_536);
        let par_engine = cached_parallel(&parsed.program, 4);
        for (i, g) in parsed.goals.iter().enumerate() {
            let plain = plain_engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{} goal {i}: {e}", path.display()));
            // The cold run populates the cache; the warm run replays from it.
            for run in ["cold", "warm"] {
                let seq = cached_engine
                    .solve(&g.goal, &db)
                    .unwrap_or_else(|e| panic!("{} goal {i} (cached): {e}", path.display()));
                assert_same_witness(
                    &plain,
                    &seq,
                    &format!("{} goal {i} (cached seq, {run})", path.display()),
                );
            }
            let par = par_engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{} goal {i} (cached par): {e}", path.display()));
            assert_same_witness(
                &plain,
                &par,
                &format!("{} goal {i} (cached 4t det)", path.display()),
            );
            if let Some(sol) = plain.solution() {
                db = sol.db.clone();
            }
        }
        // The regression guard for the tabling machinery: wrong keys,
        // over-strict gating or broken digests leave every witness intact
        // and silently stop producing hits.
        if path.ends_with("iterated_protocol.td") {
            let cache = cached_engine.subgoal_cache().expect("cache is on");
            assert!(
                cache.hits() > 0,
                "zero cache hits on a warm iterated_protocol.td (misses={}, entries={})",
                cache.misses(),
                cache.len()
            );
        }
    }
}
