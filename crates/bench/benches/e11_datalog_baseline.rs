//! E11 — §6: insert-free TD is classical Datalog.
//!
//! The same transitive-closure workload five ways: the TD interpreter
//! answering a reachability goal top-down, the same goal as a
//! materialized-view probe, the bottom-up circuit computing the whole
//! fixpoint, the bottom-up circuit answering the single query, and the
//! magic-sets rewriting in front of it. Shape expectation: bottom-up wins
//! as the data grows for all-pairs work, top-down stays competitive for
//! single ground queries, and magic sets beats naive bottom-up on selective
//! queries.
//!
//! The graph is an acyclic chain: the untabled top-down engine diverges on
//! cyclic data (like Prolog) — which is precisely why §6 points at
//! tabling/magic sets for the Datalog core. Termination on cycles is
//! carried by the bottom-up circuit (with or without the magic rewrite).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use td_bench::report_row;
use td_core::{Atom, Goal, Term};
use td_engine::{datalog, Engine};
use td_parser::parse_program;

fn chain_program(
    nodes: usize,
    extra_edges: usize,
    seed: u64,
) -> (td_core::Program, td_db::Database) {
    // A connected chain plus random extra *forward* edges (acyclic, so the
    // untabled top-down engine terminates).
    let mut src = String::from("base e/2.\n");
    for i in 0..nodes - 1 {
        src.push_str(&format!("init e(n{i}, n{}).\n", i + 1));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..extra_edges {
        let a = rng.random_range(0..nodes - 1);
        let b = rng.random_range(a + 1..nodes);
        src.push_str(&format!("init e(n{a}, n{b}).\n"));
    }
    src.push_str("path(X, Y) <- e(X, Y).\n");
    src.push_str("path(X, Z) <- e(X, Y) * path(Y, Z).\n");
    let parsed = parse_program(&src).unwrap();
    let db = td_db::Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    (parsed.program, db)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11/topdown_single_query");
    for nodes in [8usize, 16, 32] {
        let (program, db) = chain_program(nodes, nodes / 2, 9);
        let engine = Engine::new(program.clone());
        // Ground query: is the chain end reachable from the start?
        let goal = Goal::atom(
            "path",
            vec![Term::sym("n0"), Term::sym(&format!("n{}", nodes - 1))],
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(nodes),
            &(engine, db.clone(), goal),
            |b, (engine, db, goal)| {
                b.iter(|| assert!(engine.executable(goal, db).unwrap()));
            },
        );
    }
    group.finish();

    // Third interpreter column (PR 6): the same ground query answered by a
    // materialized-view probe. The engine compiles the program's Datalog
    // fragment into maintained views; after the first (seeding) query the
    // probe is an index lookup, independent of chain length.
    let mut group = c.benchmark_group("e11/materialized_single_query");
    for nodes in [8usize, 16, 32] {
        let (program, db) = chain_program(nodes, nodes / 2, 9);
        let engine = Engine::with_config(
            program.clone(),
            td_engine::EngineConfig::default().with_materialize(),
        );
        let goal = Goal::atom(
            "path",
            vec![Term::sym("n0"), Term::sym(&format!("n{}", nodes - 1))],
        );
        // Seed the views so the measured runs are warm probes.
        assert!(engine.executable(&goal, &db).unwrap());
        group.bench_with_input(
            BenchmarkId::from_parameter(nodes),
            &(engine, db.clone(), goal),
            |b, (engine, db, goal)| {
                b.iter(|| assert!(engine.executable(goal, db).unwrap()));
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("e11/bottomup_fixpoint");
    for nodes in [8usize, 16, 32] {
        let (program, db) = chain_program(nodes, nodes / 2, 9);
        group.bench_with_input(
            BenchmarkId::from_parameter(nodes),
            &(program, db),
            |b, (program, db)| {
                b.iter(|| {
                    let fix = datalog::evaluate(program, db).unwrap();
                    assert!(!fix.is_empty());
                });
            },
        );
        let (program, db) = chain_program(nodes, nodes / 2, 9);
        let fix = datalog::evaluate(&program, &db).unwrap();
        report_row(
            "E11",
            &format!("nodes={nodes}"),
            "fixpoint facts",
            fix.len() as f64,
            "facts",
        );
        report_row(
            "E11",
            &format!("nodes={nodes}"),
            "semi-naive iterations",
            fix.iterations as f64,
            "rounds",
        );
    }
    group.finish();

    let mut group = c.benchmark_group("e11/bottomup_single_query");
    for nodes in [8usize, 16, 32] {
        let (program, db) = chain_program(nodes, nodes / 2, 9);
        let atom = Atom::new(
            "path",
            vec![Term::sym("n0"), Term::sym(&format!("n{}", nodes - 1))],
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(nodes),
            &(program, db, atom),
            |b, (program, db, atom)| {
                b.iter(|| {
                    let ans = datalog::query(program, db, atom).unwrap();
                    assert_eq!(ans.len(), 1);
                });
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("e11/magic_single_query");
    for nodes in [8usize, 16, 32] {
        let (program, db) = chain_program(nodes, nodes / 2, 9);
        let atom = Atom::new(
            "path",
            vec![Term::sym("n0"), Term::sym(&format!("n{}", nodes - 1))],
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(nodes),
            &(program, db, atom),
            |b, (program, db, atom)| {
                b.iter(|| {
                    let (ans, _) = td_engine::magic::answer(program, db, atom).unwrap();
                    assert_eq!(ans.len(), 1);
                });
            },
        );
        let (program, db) = chain_program(nodes, nodes / 2, 9);
        let atom = Atom::new(
            "path",
            vec![Term::sym("n0"), Term::sym(&format!("n{}", nodes - 1))],
        );
        let (_, stats) = td_engine::magic::answer(&program, &db, &atom).unwrap();
        report_row(
            "E11",
            &format!("nodes={nodes}"),
            "magic derivations",
            stats.derivations as f64,
            "facts",
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(400)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench
}
criterion_main!(benches);
