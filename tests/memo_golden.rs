//! Golden search counts for every corpus goal, pinned to what the exact
//! `(canonical goal, digest)` memo key produced before the drivers switched
//! to 128-bit configuration fingerprints (PR 15).
//!
//! Both drivers memoize configurations: the machine's failure memo and
//! the explicit-state search's claim table (the `decide` and `par1`
//! columns are its two depth-first orders). Which
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

use common::{corpus_programs, E13_REFUTATION};
use td_engine::decider::{decide, DeciderConfig};
use transaction_datalog::prelude::{
    parse_program, Database, Engine, EngineConfig, SearchBackend, Strategy,
};

/// One line per goal: sequential `(executable, steps, backtracks,
/// choicepoints, memo_hits)` under `EngineConfig::default()`; the decider's
/// visited-configuration count (`+` = stopped at the 20 000 budget);
/// steps and memo hits of the parallel backend with one worker in
/// deterministic mode; the sequential five again under `Strategy::Leftmost`,
/// `RoundRobin`, `ExhaustiveRandom(7)` and with the subgoal cache on (one
/// engine per file, so later goals replay earlier ones' entries; a fault
/// renders as `fault`); `Engine::solutions(goal, db, 16)`'s solution count
/// and whole-search steps, backtracks and memo hits — the only column that
/// re-enters a search after a success, through every kind of choicepoint;
/// and the committed trace's length, updates and unfolds under
/// `with_trace()`.
const GOLDEN: &str = "\
example_2_2_banking.td#0 seq true 12 0 0 0 | decide 12 | par1 12 0 | left true 12 0 0 0 | rr true 12 0 0 0 | rand7 true 12 0 0 0 | cache true 1 0 0 0 | all16 1 12 0 0 | trace 12 4 3
example_3_1_workflow.td#0 seq true 15 0 2 0 | decide 15 | par1 15 0 | left true 15 0 0 0 | rr true 15 0 0 0 | rand7 true 15 0 6 0 | cache true 1 0 1 0 | all16 16 121 27 0 | trace 15 5 7
example_3_2_simulation.td#0 seq true 30 1 21 0 | decide 5 | par1 30 0 | left true 30 1 6 0 | rr true 32 1 6 0 | rand7 true 57 45 42 10 | cache true 18 0 15 0 | all16 16 99 66 14 | trace 29 12 14
example_3_3_agents.td#0 seq true 32 0 18 0 | decide 34 | par1 32 0 | left true 32 0 8 0 | rr false 15 3 2 0 | rand7 true 32 0 25 0 | cache true 11 0 12 0 | all16 16 182 67 7 | trace 36 12 6
example_3_4_cooperation.td#0 seq true 10 0 5 0 | decide 10 | par1 10 0 | left true 10 0 0 0 | rr false 4 0 0 0 | rand7 true 10 3 8 0 | cache true 6 0 5 0 | all16 16 73 41 0 | trace 10 6 2
iterated_protocol.td#0 seq true 359 450 255 99 | decide 120 | par1 260 99 | left true 62 6 8 0 | rr true 86 12 11 0 | rand7 true 440 566 330 126 | cache true 329 447 251 99 | all16 16 716 555 140 | trace 50 20 8
loan_applications.td#0 seq true 228 167 115 56 | decide 978 | par1 181 45 | left true 51 2 9 0 | rr true 84 8 13 0 | rand7 true 2032 1990 858 829 | cache true 145 162 106 43 | all16 16 339 201 57 | trace 47 12 11
parameter_only_heads.td#0 seq true 19 2 4 0 | decide 25 | par1 19 0 | left true 19 2 4 0 | rr true 19 2 4 0 | rand7 true 19 2 4 0 | cache true 7 0 0 0 | all16 1 27 12 0 | trace 17 2 7
parameter_only_heads.td#1 seq true 27 4 7 0 | decide 35 | par1 27 0 | left true 27 4 7 0 | rr true 27 4 7 0 | rand7 true 27 4 7 0 | cache true 8 0 0 0 | all16 1 39 20 0 | trace 23 4 10
reachability_maintenance.td#0 seq true 61 15 20 0 | decide 71 | par1 61 0 | left true 61 15 20 0 | rr true 61 15 20 0 | rand7 true 61 15 20 0 | cache true 14 1 1 0 | all16 1 87 55 0 | trace 46 6 18
section_2_overview.td#0 seq true 4 0 2 0 | decide 4 | par1 4 0 | left true 4 0 0 0 | rr true 4 0 0 0 | rand7 true 4 0 3 0 | cache true 4 0 2 0 | all16 6 13 10 0 | trace 4 4 0
two_counter_machine.td#0 seq true 339 719 364 68 | decide 181 | par1 271 68 | left false 3 0 0 0 | rr false 12 6 3 0 | rand7 true 499 1122 509 114 | cache true 334 719 359 68 | all16 16 500 884 107 | trace 114 45 38
e13_refutation#0 seq false 2255 2472 888 1328 | decide 900 | par1 900 1328 | left false 28 0 0 0 | rr false 12 0 0 0 | rand7 false 2255 2472 888 1328 | cache false 2225 2472 888 1322 | all16 0 2255 2472 1328 | trace 0 0 0
";

fn render() -> String {
    let mut out = String::new();
    let mut programs = corpus_programs();
    programs.push(("e13_refutation".to_owned(), E13_REFUTATION.to_owned()));
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
        let with = |config: EngineConfig| Engine::with_config(parsed.program.clone(), config);
        let variants = [
            (
                "left",
                with(EngineConfig::default().with_strategy(Strategy::Leftmost)),
            ),
            (
                "rr",
                with(EngineConfig::default().with_strategy(Strategy::RoundRobin)),
            ),
            (
                "rand7",
                with(EngineConfig::default().with_strategy(Strategy::ExhaustiveRandom(7))),
            ),
            ("cache", with(EngineConfig::default().with_subgoal_cache())),
        ];
        let traced = with(EngineConfig::default().with_trace());
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
                " | par1 {} {}",
                p.stats().steps,
                p.stats().memo_hits
            ));
            for (label, engine) in &variants {
                match engine.solve(&g.goal, &db) {
                    Ok(o) => {
                        let s = o.stats();
                        out.push_str(&format!(
                            " | {label} {} {} {} {} {}",
                            o.is_success(),
                            s.steps,
                            s.backtracks,
                            s.choicepoints,
                            s.memo_hits
                        ));
                    }
                    Err(_) => out.push_str(&format!(" | {label} fault")),
                }
            }
            let all = seq.solutions(&g.goal, &db, 16).expect("cannot fault");
            out.push_str(&format!(
                " | all16 {} {} {} {}",
                all.solutions.len(),
                all.stats.steps,
                all.stats.backtracks,
                all.stats.memo_hits
            ));
            let traced = traced.solve(&g.goal, &db).expect("cannot fault");
            assert_eq!(traced.is_success(), outcome.is_success(), "{name}#{i}");
            let trace = traced
                .solution()
                .map(|s| s.trace.clone())
                .unwrap_or_default();
            out.push_str(&format!(
                " | trace {} {} {}\n",
                trace.len(),
                trace.count_updates(),
                trace.count_unfolds()
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
