//! Shared fixtures for the differential test suites.
//!
//! Every equivalence suite (`parallel_equivalence`, `cache_equivalence`,
//! `obs_equivalence`, `kernel_equivalence`) compares backends over the same
//! two inputs: the generated flag-program goal space and the `corpus/`
//! programs. The generators, corpus loaders, engine constructors and
//! witness assertions live here so the suites differ only in *what* they
//! compare, never in what they run.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use transaction_datalog::prelude::{
    parse_program, Atom, Database, Engine, EngineConfig, Goal, Outcome, Program, SearchBackend,
};

/// Generated goal space for the differential suites: every TD connective
/// (sequence, parallel, choice, isolation) over ground flag updates, tests
/// and absence tests on the four `flag_program` predicates.
pub fn arb_goal(depth: u32) -> impl Strategy<Value = Goal> {
    let leaf = prop_oneof![
        (0u8..4).prop_map(|i| Goal::ins(&format!("f{i}"), vec![])),
        (0u8..4).prop_map(|i| Goal::del(&format!("f{i}"), vec![])),
        (0u8..4).prop_map(|i| Goal::prop(&format!("f{i}"))),
        (0u8..4).prop_map(|i| Goal::NotAtom(Atom::prop(&format!("f{i}")))),
        Just(Goal::True),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Goal::seq),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::par),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::choice),
            inner.prop_map(Goal::iso),
        ]
    })
}

/// Four nullary base flags and no rules — the smallest schema on which
/// every `arb_goal` connective is exercisable.
pub fn flag_program() -> Program {
    Program::builder()
        .base_preds(&[("f0", 0), ("f1", 0), ("f2", 0), ("f3", 0)])
        .build()
        .unwrap()
}

/// An engine on `backend` with the differential suites' standard step
/// budget (ample for every generated goal and corpus program).
pub fn engine_with(program: &Program, backend: SearchBackend) -> Engine {
    Engine::with_config(
        program.clone(),
        EngineConfig::default()
            .with_max_steps(200_000)
            .with_backend(backend),
    )
}

pub fn parallel(threads: usize) -> SearchBackend {
    SearchBackend::Parallel {
        threads,
        deterministic: false,
    }
}

pub fn parallel_det(threads: usize) -> SearchBackend {
    SearchBackend::Parallel {
        threads,
        deterministic: true,
    }
}

/// Transitive closure `path/2` over the chain `n0 → … → n(nodes-1)` plus
/// `shortcuts` random forward edges (fixed seed). Acyclic, so the untabled
/// top-down engine terminates on it.
pub fn chain_closure(nodes: usize, shortcuts: usize) -> (Program, Database) {
    let mut src = String::from("base e/2.\n");
    for i in 0..nodes - 1 {
        src.push_str(&format!("init e(n{i}, n{}).\n", i + 1));
    }
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..shortcuts {
        let a = rng.random_range(0..nodes - 1);
        let b = rng.random_range(a + 1..nodes);
        src.push_str(&format!("init e(n{a}, n{b}).\n"));
    }
    src.push_str("path(X, Y) <- e(X, Y).\npath(X, Z) <- e(X, Y) * path(Y, Z).\n");
    let parsed = parse_program(&src).expect("chain program parses");
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).expect("chain edges load");
    (parsed.program, db)
}

/// EXPERIMENTS.md E13's refutation at n = 2: two transfers that commute and
/// a third that can never withdraw, so every interleaving of the first two
/// is refuted — 900 configurations, all of them visited by any search.
pub const E13_REFUTATION: &str = "
    base balance/2.
    init balance(acct1, 30). init balance(acct2, 30). init balance(acct3, 30).
    withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt * del.balance(Acct, Bal)
        * NB is Bal - Amt * ins.balance(Acct, NB).
    deposit(Amt, Acct) <- balance(Acct, Bal) * del.balance(Acct, Bal)
        * NB is Bal + Amt * ins.balance(Acct, NB).
    transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).
    ?- transfer(5, acct1, acct2) | transfer(5, acct2, acct1) | transfer(1000, acct3, acct1).
";

/// The sorted `.td` files under `corpus/`.
pub fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "td"))
        .collect();
    files.sort();
    files
}

/// `(file name, source)` for every corpus program, in sorted file order.
pub fn corpus_programs() -> Vec<(String, String)> {
    corpus_files()
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect()
}

/// Assert two outcomes carry the identical witness (or identical failure):
/// same verdict, and on success the same answer substitution, same delta,
/// same final database content.
pub fn assert_same_witness(a: &Outcome, b: &Outcome, context: &str) {
    assert_eq!(a.is_success(), b.is_success(), "{context}: verdicts differ");
    if let (Some(s), Some(c)) = (a.solution(), b.solution()) {
        assert_eq!(s.answer, c.answer, "{context}: answers differ");
        assert_eq!(s.delta.ops(), c.delta.ops(), "{context}: deltas differ");
        assert!(
            s.db.same_content(&c.db),
            "{context}: final databases differ"
        );
    }
}

/// Run every `?-` goal of a corpus source under one engine config with an
/// observer attached, threading the database between goals as `td run`
/// does. Returns the per-goal verdicts, the final database digest, and the
/// observer for counter inspection.
pub fn run_observed(
    source: &str,
    backend: SearchBackend,
) -> (Vec<bool>, u128, Arc<td_engine::Observer>) {
    let parsed = parse_program(source).expect("corpus parses");
    let config = EngineConfig::default()
        .with_max_steps(2_000_000)
        .with_backend(backend);
    let obs = Arc::new(td_engine::Observer::new());
    let engine = Engine::with_config(parsed.program.clone(), config).with_observer(obs.clone());
    let mut db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .expect("corpus init loads");
    let mut oks = Vec::new();
    for g in &parsed.goals {
        let outcome = engine.solve(&g.goal, &db).expect("corpus run cannot fault");
        if let Some(sol) = outcome.solution() {
            db = sol.db.clone();
            oks.push(true);
        } else {
            oks.push(false);
        }
    }
    (oks, db.digest(), obs)
}
