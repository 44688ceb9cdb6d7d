//! The paper's claims as tests: one test per experiment of EXPERIMENTS.md
//! E1–E13, pinning the exact step / decider-configuration / fact / anomaly
//! counts of each witness family and the growth law the counts obey.
//!
//! The paper evaluates by worked examples that "perform exactly as
//! described" (§3) and by a complexity classification of TD fragments
//! (§4–§5). Classes are asymptotic, so what an implementation can pin is
//! the witness family's exact count per size and its law per fragment —
//! linear for isolated transactions and fully bounded TD, more than
//! doubling for the alternation of sequential TD, constant in the database
//! for nonrecursive TD. Every count here is deterministic; a change of one
//! fails the test. Timings of the same paths are tdbench's
//! (`BENCHMARK.json`), and the corpus rows and the 2255-step refutation are
//! `memo_golden.rs`'s.

mod common;

use common::{chain_closure, parallel_det};
use td_engine::decider::{decide, DeciderConfig};
use td_engine::{datalog, magic};
use td_machines::qbf::Lit;
use td_machines::{
    nonrec, palindrome_tm, Cnf, Counter, MinskyMachine, Qbf, Quant, RunResult, TmRun,
};
use td_workflow::{
    double_claims, serializable_transfers, transfer_goal, AgentScenarioConfig, Bank, LabFlowConfig,
    Node, Pipeline, RepeatProtocol, Scenario, SimulationConfig, SyncPair, WorkflowSpec,
};
use transaction_datalog::db::DeltaOp;
use transaction_datalog::prelude::{
    Atom, Engine, EngineConfig, Goal, Outcome, Pred, Strategy, Term,
};

/// Run to the first witness, which must exist.
fn run_with(scenario: &Scenario, config: EngineConfig) -> Outcome {
    let out = scenario.run_with(config).expect("scenario must not fault");
    assert!(out.is_success(), "not executable:\n{}", scenario.source);
    out
}

fn run(scenario: &Scenario) -> Outcome {
    run_with(scenario, EngineConfig::default())
}

fn steps_with(scenario: &Scenario, config: EngineConfig) -> u64 {
    run_with(scenario, config).stats().steps
}

fn steps(scenario: &Scenario) -> u64 {
    steps_with(scenario, EngineConfig::default())
}

fn decider_configs(scenario: &Scenario) -> usize {
    let d = decide(
        &scenario.program,
        &scenario.goal,
        &scenario.db,
        DeciderConfig::default(),
    )
    .expect("decider must not fault");
    assert!(d.executable && !d.truncated);
    d.configs
}

/// `n` transfers of 5 alternating between the two accounts.
fn alternating_transfers(n: usize) -> Goal {
    let transfers: Vec<(i64, &str, &str)> = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                (5, "acct1", "acct2")
            } else {
                (5, "acct2", "acct1")
            }
        })
        .collect();
    serializable_transfers(&transfers)
}

/// E1 — Examples 2.1–2.2. `⊙t₁ | … | ⊙tₙ` costs exactly 13 steps a
/// transfer: isolation removes all cross-transaction interleaving search.
/// A deposit into a missing account un-commits its sibling withdraw.
#[test]
fn e01_isolated_transfers_are_13_steps_each_and_a_doomed_deposit_rolls_back() {
    let scenario = Bank::new(&[("acct1", 1_000_000), ("acct2", 1_000_000)]).scenario();
    let engine = Engine::new(scenario.program.clone());
    for (n, want) in [(1, 13), (2, 26), (4, 52), (8, 104)] {
        let out = engine
            .solve(&alternating_transfers(n), &scenario.db)
            .unwrap();
        assert!(out.is_success());
        assert_eq!(out.stats().steps, want, "transfers={n}");
        assert_eq!(want, 13 * n as u64);
    }

    let doomed = transfer_goal(10, "acct1", "ghost");
    assert!(!engine.solve(&doomed, &scenario.db).unwrap().is_success());
    // The withdraw ran before the deposit failed; the alternative commits
    // on the database the withdraw never touched.
    let out = engine
        .solve(&Goal::choice(vec![doomed, Goal::True]), &scenario.db)
        .unwrap();
    let sol = out.solution().expect("the empty alternative commits");
    assert!(sol.delta.is_empty());
    assert!(sol.db.same_content(&scenario.db));
}

/// E2 — Example 3.1. A workflow of `n` tasks takes 3·n + 1 steps whether
/// its tasks are composed serially or concurrently: concurrency buys
/// interleaving freedom, not fewer actions.
#[test]
fn e02_workflow_steps_are_3_tasks_plus_1_serial_or_concurrent() {
    let tasks = |n: usize| (1..=n).map(|i| Node::task(&format!("t{i}"))).collect();
    for (n, want) in [(4, 13), (8, 25), (16, 49), (32, 97)] {
        for body in [Node::Seq(tasks(n)), Node::Par(tasks(n))] {
            let scenario = WorkflowSpec::new("wf", body).compile(&["w1".to_owned()]);
            assert_eq!(steps(&scenario), want, "tasks={n}");
        }
        assert_eq!(want, 3 * n as u64 + 1);
    }
}

/// E3 — Example 3.2. One workflow instance is spawned per delivered item
/// at runtime; 11·items + 3 steps, every item processed exactly once.
#[test]
fn e03_simulation_is_11_items_plus_3_and_processes_each_item_once() {
    let done = Pred::new("done", 2);
    for (items, want) in [(2, 25), (4, 47), (8, 91), (16, 179)] {
        let out = run(&SimulationConfig::new(items, 3).compile());
        assert_eq!(out.stats().steps, want, "items={items}");
        assert_eq!(want, 11 * items as u64 + 3);
        let sol = out.solution().unwrap();
        // `done` is a set: 3·items insertions leaving 3·items tuples means
        // no (item, task) pair was performed twice and none was skipped.
        let inserted = sol
            .delta
            .ops()
            .iter()
            .filter(|op| matches!(op, DeltaOp::Ins(p, _) if *p == done))
            .count();
        assert_eq!(inserted, 3 * items);
        assert_eq!(sol.db.relation(done).unwrap().len(), 3 * items);
        assert!(sol.db.relation(Pred::new("item", 1)).unwrap().is_empty());
    }
}

/// E4 — Example 3.3. Four instances complete in the same 68 steps with no
/// backtracking whether 1, 2 or 4 agents serve them: the scheduler finds
/// the serialized interleaving directly.
#[test]
fn e04_agent_pool_size_changes_neither_steps_nor_backtracks() {
    let spec = WorkflowSpec::new(
        "wf",
        Node::Seq(vec![Node::task("prep"), Node::task("process")]),
    );
    let items: Vec<String> = (1..=4).map(|i| format!("w{i}")).collect();
    for agents in [1, 2, 4] {
        let scenario =
            AgentScenarioConfig::universal_pool(spec.clone(), items.clone(), agents).compile();
        let s = run(&scenario).stats();
        assert_eq!((s.steps, s.backtracks), (68, 0), "agents={agents}");
    }
}

/// E5 — Example 3.4. Rendezvous is 4·k + 2 steps for k synchronization
/// points; the producer/consumer pipeline is superlinear, each doubling
/// of the item count costing a larger factor than the last.
#[test]
fn e05_rendezvous_is_linear_and_the_pipeline_superlinear() {
    for (k, want) in [(1, 6), (2, 10), (4, 18), (8, 34)] {
        assert_eq!(steps(&SyncPair::new(k).compile()), want, "sync points={k}");
        assert_eq!(want, 4 * k as u64 + 2);
    }
    let pipeline: Vec<u64> = [2, 4, 8]
        .iter()
        .map(|&n| steps(&Pipeline::new(n).compile()))
        .collect();
    assert_eq!(pipeline, [43, 169, 3661]);
    assert!(pipeline[1] * pipeline[1] < pipeline[0] * pipeline[2]);
}

/// E6 — Corollary 4.6. Three concurrent processes over a constant-size
/// database run a 2-counter machine: 155·n + 29 steps to double n, one
/// tuple left at every n. The chain Turing machine → 2 stacks → TD accepts
/// what the direct simulators accept.
#[test]
fn e06_machines_run_in_linear_steps_over_a_constant_database() {
    let budget = EngineConfig::default().with_max_steps(50_000_000);
    for (n, want) in [(1, 184), (2, 339), (4, 649), (8, 1269)] {
        let machine = MinskyMachine::doubling().with_input(Counter::C0, n);
        let out = run_with(&machine.to_td(), budget.clone());
        assert_eq!(out.stats().steps, want, "double n={n}");
        assert_eq!(want, 155 * n + 29);
        assert_eq!(out.solution().unwrap().db.total_tuples(), 1, "double n={n}");
        assert!(matches!(
            machine.run(0, 0, 1_000_000),
            RunResult::Halted { c0: 0, c1, .. } if c1 == 2 * n
        ));
    }
    for (word, want) in [("0", 438), ("11", 1057), ("010", 1681)] {
        let input: Vec<u8> = word.bytes().map(|b| b - b'0' + 1).collect();
        let tm = palindrome_tm();
        let stacks = tm.to_stack_machine(&input);
        assert!(matches!(tm.run(&input, 100_000), TmRun::Accepted { .. }));
        assert_eq!(stacks.accepts(1_000_000), Some(true));
        let td_steps = steps_with(&stacks.to_td(), budget.clone());
        assert_eq!(td_steps, want, "palindrome {word:?}");
    }
}

/// `∀x₀ ∃x₁ ∀x₂ … (xᵢ ∨ ¬xᵢ)`: true by construction, so TD explores the
/// whole ∀ tree and succeeds.
fn tautology(vars: usize) -> Qbf {
    Qbf {
        quants: (0..vars)
            .map(|i| {
                if i % 2 == 0 {
                    Quant::Forall
                } else {
                    Quant::Exists
                }
            })
            .collect(),
        clauses: (0..vars)
            .map(|var| [true, false].map(|positive| Lit { var, positive }).to_vec())
            .collect(),
    }
}

/// E7 — Theorem 4.5. Sequential composition re-executes subgoals under
/// different states: each two more quantified variables (one more ∀)
/// multiply interpreter steps and decider configurations by more than 2,
/// for the per-instance program and for the fixed evaluator over an
/// instance stored in the database alike.
#[test]
fn e07_each_forall_more_than_doubles_steps_and_configs() {
    let budget = EngineConfig::default().with_max_steps(50_000_000);
    let more_than_doubles = |counts: &[u64]| counts.windows(2).all(|w| w[1] > 2 * w[0]);

    let instances: Vec<Scenario> = [2, 4, 6, 8]
        .iter()
        .map(|&vars| {
            let qbf = tautology(vars);
            assert!(qbf.eval());
            qbf.to_td()
        })
        .collect();
    let td_steps: Vec<u64> = instances
        .iter()
        .map(|s| steps_with(s, budget.clone()))
        .collect();
    assert_eq!(td_steps, [26, 89, 241, 597]);
    assert!(more_than_doubles(&td_steps));
    let configs: Vec<u64> = instances
        .iter()
        .map(|s| decider_configs(s) as u64)
        .collect();
    assert_eq!(configs, [22, 77, 213, 537]);
    assert!(more_than_doubles(&configs));

    let fixed_program: Vec<u64> = [2, 4, 6]
        .iter()
        .map(|&vars| steps_with(&tautology(vars).to_td_data(), budget.clone()))
        .collect();
    assert_eq!(fixed_program, [66, 216, 576]);
    assert!(more_than_doubles(&fixed_program));

    // Both encodings agree with the recursive evaluator on instances that
    // are not true by construction.
    for seed in 0..6 {
        let qbf = Qbf::random(4, 6, seed);
        for scenario in [qbf.to_td(), qbf.to_td_data()] {
            let out = scenario.run_with(budget.clone()).unwrap();
            assert_eq!(out.is_success(), qbf.eval(), "seed={seed}");
        }
    }
}

/// E8 — Theorem 4.7. Without recursion the search does not grow with the
/// database: a 3-hop query is 7 steps at every |V|, and an update
/// transaction is 5 steps per unit of program width.
#[test]
fn e08_nonrecursive_steps_are_constant_in_the_database() {
    for nodes in [10, 20, 40, 80] {
        assert_eq!(
            steps(&nonrec::khop(nodes, nodes * 4, 3, 42)),
            7,
            "|V|={nodes}"
        );
    }
    for (width, want) in [(4, 20), (8, 40), (16, 80)] {
        assert_eq!(
            steps(&nonrec::promote_pipeline(width, 3)),
            want,
            "width={width}"
        );
        assert_eq!(want, 5 * width as u64);
    }
}

/// E9 — §5. For the iterated protocol (tail recursion, no recursion
/// through `|`) the decider's configuration space is 32·attempts + 24 —
/// linear in the data, against E7's exponential. The fragment is still
/// NP-hard: guess-and-check 3SAT agrees with DPLL.
#[test]
fn e09_fully_bounded_configs_are_linear_in_the_data() {
    for (attempts, want_steps, want_configs) in
        [(2, 188, 88), (4, 584, 152), (8, 2024, 280), (16, 7496, 536)]
    {
        let scenario = RepeatProtocol::new(2, attempts).compile();
        assert_eq!(steps(&scenario), want_steps, "attempts={attempts}");
        assert_eq!(
            decider_configs(&scenario),
            want_configs,
            "attempts={attempts}"
        );
        assert_eq!(want_configs as i64, 32 * attempts + 24);
    }
    for vars in [3, 5, 7] {
        let cnf = Cnf::random_3sat(vars, vars, 5);
        let out = cnf
            .to_td()
            .run_with(EngineConfig::default().with_max_steps(10_000_000))
            .unwrap();
        assert_eq!(out.is_success(), cnf.dpll(), "vars={vars}");
    }
}

/// E10 — the LabFlow-style pipeline. 21 steps a sample through 4 stages;
/// the history grows by 5 tuples a sample and nothing is ever deleted
/// from it.
#[test]
fn e10_labflow_is_21_steps_a_sample_with_an_append_only_history() {
    let result = Pred::new("result", 2);
    for (samples, want) in [(2, 42), (4, 84), (8, 168), (16, 336)] {
        let out = run(&LabFlowConfig::new(samples, 4).compile());
        assert_eq!(out.stats().steps, want, "samples={samples}");
        assert_eq!(want, 21 * samples as u64);
        let sol = out.solution().unwrap();
        assert_eq!(sol.db.total_tuples(), 5 * samples);
        assert!(!sol
            .delta
            .ops()
            .iter()
            .any(|op| matches!(op, DeltaOp::Del(p, _) if *p == result)));
    }
}

/// E11 — §6. Insert-free TD is Datalog: the bottom-up fixpoint derives all
/// n(n−1)/2 reachable pairs, the magic-sets rewriting answers one ground
/// query from fewer facts, and the saving widens with the data.
#[test]
fn e11_magic_sets_derive_fewer_facts_than_the_fixpoint() {
    let mut saved = Vec::new();
    for (nodes, facts, rounds, magic_facts) in [(8, 28, 6, 19), (16, 120, 9, 43), (32, 496, 16, 87)]
    {
        let (program, db) = chain_closure(nodes, nodes / 2);
        let fix = datalog::evaluate(&program, &db).unwrap();
        assert_eq!(
            (fix.len(), fix.iterations),
            (facts, rounds),
            "nodes={nodes}"
        );
        assert_eq!(facts, nodes * (nodes - 1) / 2);

        let last = Term::sym(&format!("n{}", nodes - 1));
        let query = Atom::new("path", vec![Term::sym("n0"), last]);
        let (answers, stats) = magic::answer(&program, &db, &query).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(stats.derivations, magic_facts, "nodes={nodes}");
        saved.push(facts as u64 - stats.derivations);
    }
    assert!(saved.windows(2).all(|w| w[0] < w[1]), "{saved:?}");
}

/// E12 — §2. Over 25 randomized complete schedules, no committed run of
/// the isolated claim protocol assigns one agent to two tasks at once;
/// the same rules without `iso` commit 33 such double-claims.
#[test]
fn e12_isolation_removes_every_double_claim() {
    let spec = WorkflowSpec::new("wf", Node::Seq(vec![Node::task("t1"), Node::task("t2")]));
    let items: Vec<String> = (1..=3).map(|i| format!("w{i}")).collect();
    let anomalies = |atomic_claim: bool| -> usize {
        let mut cfg = AgentScenarioConfig::universal_pool(spec.clone(), items.clone(), 2);
        cfg.atomic_claim = atomic_claim;
        let scenario = cfg.compile();
        (0..25)
            .map(|seed| {
                let random =
                    EngineConfig::default().with_strategy(Strategy::ExhaustiveRandom(seed));
                double_claims(&run_with(&scenario, random).solution().unwrap().delta)
            })
            .sum()
    };
    assert_eq!(anomalies(true), 0);
    assert_eq!(anomalies(false), 33);
}

/// E13 — the engine's own ablations. Without the refuted-configuration
/// memo each failing guard is re-refuted under every interleaving of the
/// sibling instance; one deterministic parallel worker walks the
/// sequential engine's 52 steps on four isolated transfers. (More workers
/// take a schedule-dependent number of steps, which nothing pins.)
#[test]
fn e13_failure_memo_keeps_the_iterated_protocol_from_blowing_up() {
    let memo_off = EngineConfig {
        memo_failures: false,
        ..EngineConfig::default().with_max_steps(50_000_000)
    };
    for (attempts, on, off) in [(2, 188, 584), (3, 359, 1523), (4, 584, 3148)] {
        let scenario = RepeatProtocol::new(2, attempts).compile();
        assert_eq!(steps(&scenario), on, "attempts={attempts}");
        assert_eq!(
            steps_with(&scenario, memo_off.clone()),
            off,
            "attempts={attempts}"
        );
    }

    let mut transfers = Bank::new(&[("acct1", 1_000), ("acct2", 1_000)]).scenario();
    transfers.goal = alternating_transfers(4);
    let one_worker = EngineConfig::default().with_backend(parallel_det(1));
    assert_eq!(steps_with(&transfers, one_worker), 52);
}
