//! Golden search counts for every corpus goal, pinned to what the exact
//! `(canonical goal, digest)` memo key produced before the drivers switched
//! to 128-bit configuration fingerprints (PR 15).
//!
//! The three drivers memoize configurations: the machine's failure memo,
//! the decider's visited set, the parallel claim table. Which
//! configurations count as "the same" decides every number below — a key
//! that merges more configurations than α-equivalence × database digest
//! loses steps (and may lose solutions), one that merges fewer gains them.
//! The differential suites compare verdicts and witnesses, which survive a
//! key that is merely too fine; these counts do not.
//!
//! Goals run in file order against the sequential engine's committed
//! database, like `td run`. The corpus goals all succeed, so one refuted
//! goal rides along: E13's failure-heavy refutation, whose whole search is
//! memo hits and memo inserts.

mod common;

use common::corpus_programs;
use td_engine::decider::{decide, DeciderConfig};
use transaction_datalog::prelude::{parse_program, Database, Engine, EngineConfig, SearchBackend};

/// One line per goal: sequential `(executable, steps, backtracks,
/// choicepoints, memo_hits)` under `EngineConfig::default()`; the decider's
/// visited-configuration count (`+` = stopped at the 20 000 budget);
/// steps and memo hits of the parallel backend with one worker in
/// deterministic mode.
const GOLDEN: &str = "\
example_2_2_banking.td#0 seq true 12 0 0 0 | decide 12 | par1 12 0
example_3_1_workflow.td#0 seq true 15 0 2 0 | decide 15 | par1 15 0
example_3_2_simulation.td#0 seq true 30 1 21 0 | decide 5 | par1 30 0
example_3_3_agents.td#0 seq true 32 0 18 0 | decide 34 | par1 32 0
example_3_4_cooperation.td#0 seq true 10 0 5 0 | decide 10 | par1 10 0
iterated_protocol.td#0 seq true 359 450 255 99 | decide 120 | par1 260 99
loan_applications.td#0 seq true 228 167 115 56 | decide 978 | par1 181 45
reachability_maintenance.td#0 seq true 61 15 20 0 | decide 71 | par1 61 0
section_2_overview.td#0 seq true 4 0 2 0 | decide 4 | par1 4 0
two_counter_machine.td#0 seq true 339 719 364 68 | decide 181 | par1 271 68
e13_refutation#0 seq false 2255 2472 888 1328 | decide 900 | par1 900 1328
";

/// EXPERIMENTS.md E13's refutation at n = 2: two transfers that commute and
/// a third that can never withdraw, so every interleaving of the first two
/// is refuted.
const REFUTATION: &str = "
    base balance/2.
    init balance(acct1, 30). init balance(acct2, 30). init balance(acct3, 30).
    withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt * del.balance(Acct, Bal)
        * NB is Bal - Amt * ins.balance(Acct, NB).
    deposit(Amt, Acct) <- balance(Acct, Bal) * del.balance(Acct, Bal)
        * NB is Bal + Amt * ins.balance(Acct, NB).
    transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).
    ?- transfer(5, acct1, acct2) | transfer(5, acct2, acct1) | transfer(1000, acct3, acct1).
";

fn render() -> String {
    let mut out = String::new();
    let mut programs = corpus_programs();
    programs.push(("e13_refutation".to_owned(), REFUTATION.to_owned()));
    for (name, source) in programs {
        let parsed = parse_program(&source).expect("corpus parses");
        let mut db = td_engine::load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
            .expect("corpus init loads");
        let seq = Engine::with_config(parsed.program.clone(), EngineConfig::default());
        let par = Engine::with_config(
            parsed.program.clone(),
            EngineConfig::default().with_backend(SearchBackend::Parallel {
                threads: 1,
                deterministic: true,
            }),
        );
        for (i, g) in parsed.goals.iter().enumerate() {
            let outcome = seq.solve(&g.goal, &db).expect("corpus run cannot fault");
            let s = outcome.stats();
            out.push_str(&format!(
                "{name}#{i} seq {} {} {} {} {}",
                outcome.is_success(),
                s.steps,
                s.backtracks,
                s.choicepoints,
                s.memo_hits
            ));
            let budget = DeciderConfig {
                max_configs: 20_000,
                ..DeciderConfig::default()
            };
            // The decider explores every schedule, so it can reach a fault
            // the strategy-ordered engine never meets.
            match decide(&parsed.program, &g.goal, &db, budget) {
                Ok(d) => out.push_str(&format!(
                    " | decide {}{}",
                    d.configs,
                    if d.truncated { "+" } else { "" }
                )),
                Err(_) => out.push_str(" | decide fault"),
            }
            let p = par.solve(&g.goal, &db).expect("corpus run cannot fault");
            assert_eq!(p.is_success(), outcome.is_success(), "{name}#{i}");
            out.push_str(&format!(
                " | par1 {} {}\n",
                p.stats().steps,
                p.stats().memo_hits
            ));
            if let Some(sol) = outcome.solution() {
                db = sol.db.clone();
            }
        }
    }
    out
}

#[test]
fn corpus_search_counts_equal_the_exact_key_goldens() {
    let actual = render();
    assert!(
        actual == GOLDEN,
        "search counts moved: a memo key now merges more or fewer configurations.\n\
         actual:\n{actual}\nexpected:\n{GOLDEN}"
    );
}
