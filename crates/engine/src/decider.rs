//! Explicit-state decision procedure for executability.
//!
//! The paper's complexity results (§4–§5) concern the *decision problem*
//! "is goal φ executable on database D?". For the decidable fragments —
//! sequential TD (Thm 4.5), nonrecursive TD (Thm 4.7) and fully bounded TD
//! (§5) — the space of reachable configurations `(process state, database)`
//! is finite, so executability is decidable by memoized graph search. This
//! module is that procedure's entry points: parameter choices for the one
//! explicit-state search (`search.rs`, docs/ARCHITECTURE.md) plus result
//! shaping.
//!
//! Unlike the backtracking [`crate::Engine`] (which re-explores shared
//! subspaces and may diverge on RE-hard programs), the search visits each
//! distinct configuration once. The number of distinct configurations it
//! explores is exactly the quantity whose asymptotic growth the theorems
//! bound, and `tests/experiments.rs` pins it for each fragment
//! (EXPERIMENTS.md, E7–E9).
//!
//! Configurations are identified up to variable renaming by a 128-bit
//! fingerprint (`kernel::fingerprint`): one pass over the process tree
//! that numbers free variables densely in first-occurrence order, so
//! α-equivalent process states memoize together, finished with the
//! database's content digest (128-bit, maintained incrementally — see
//! `td_db::Database::digest`). Collisions are possible in principle but
//! have probability ~2⁻¹²⁸ per pair.
//!
//! Through [`crate::Engine::decide`] / [`crate::Engine::final_states`] the
//! search runs with the engine's [`crate::SubgoalCache`],
//! [`crate::Materializer`], [`crate::Observer`] and worker count: isolated
//! blocks and sole-frontier ground calls become *macro-steps* — their cached
//! `(bindings, delta)` answer sets are replayed as direct successors instead
//! of being re-explored, which collapses the configuration chains inside
//! contiguous subtransactions — and ground calls on materialized predicates
//! become indexed probes. The free functions here are the plain
//! elementary-step search on one worker.

use crate::config::{EngineError, Stats};
use crate::search::{Found, Order, Search, Stop};
use crate::trace::{SpanPhase, TraceEvent};
use td_core::{Goal, Program};
use td_db::Database;

/// Limits for a decision run.
#[derive(Clone, Copy, Debug)]
pub struct DeciderConfig {
    /// Stop after this many distinct configurations.
    pub max_configs: usize,
    /// Explore the whole reachable space even after finding success
    /// (needed when the *size* of the space is the measurement).
    pub exhaustive: bool,
}

impl Default for DeciderConfig {
    fn default() -> DeciderConfig {
        DeciderConfig {
            max_configs: 1_000_000,
            exhaustive: false,
        }
    }
}

/// The result of a decision run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Some successful execution exists (within the explored space).
    pub executable: bool,
    /// Distinct configurations visited.
    pub configs: usize,
    /// The budget was hit: `executable == false` then means "not found",
    /// not "impossible".
    pub truncated: bool,
}

/// Decide whether `goal` is executable on `db` under `program`.
///
/// ```
/// use td_engine::decider::{decide, DeciderConfig};
/// use td_parser::parse_program;
/// use td_db::Database;
///
/// // `loop <- loop` diverges in the interpreter, but the decider sees one
/// // repeated configuration and refutes it.
/// let parsed = parse_program("loop <- loop. ?- loop.").unwrap();
/// let db = Database::with_schema_of(&parsed.program);
/// let d = decide(&parsed.program, &parsed.goals[0].goal, &db, DeciderConfig::default()).unwrap();
/// assert!(!d.executable);
/// assert!(!d.truncated);
/// ```
pub fn decide(
    program: &Program,
    goal: &Goal,
    db: &Database,
    config: DeciderConfig,
) -> Result<Decision, EngineError> {
    decide_in(Search::new(program), goal, db, config)
}

/// All final databases reachable by complete executions of `goal` on `db`
/// (deduplicated by content). Used for isolation blocks and by tests that
/// compare against the interpreter.
pub fn final_states(
    program: &Program,
    goal: &Goal,
    db: &Database,
    config: DeciderConfig,
) -> Result<Vec<Database>, EngineError> {
    final_states_in(Search::new(program), goal, db, config)
}

/// The minimum number of elementary steps in any successful execution of
/// `goal` on `db`, found by breadth-first search over configurations —
/// `None` if the goal is unexecutable (within `config.max_configs`). A
/// useful workflow metric: the critical-path length of the shortest
/// schedule.
pub fn shortest_execution(
    program: &Program,
    goal: &Goal,
    db: &Database,
    config: DeciderConfig,
) -> Result<Option<usize>, EngineError> {
    // Uncached and unmaterialized on purpose: a cached answer replay or a
    // materialized probe is a macro-step, which would corrupt the
    // elementary-step count this function measures. One worker, so taking
    // the oldest node first is level order and the first success is at
    // minimum depth.
    let mut search = Search::new(program);
    search.order = Order::ByLevel;
    let found = run_bounded(&mut search, goal, db, config)?;
    Ok(found.successes.first().map(|w| w.depth))
}

/// Run `search` under `config`'s budget, with the observer as the kernel's
/// per-probe event sink. A fault anywhere in the
/// explored space is the result; otherwise the run's per-rule and
/// per-subgoal tallies and its configuration count go to the observer (the
/// flat per-step counters stay the `run` path's: a configuration is not a
/// step of the machine).
fn run_bounded(
    search: &mut Search<'_>,
    goal: &Goal,
    db: &Database,
    config: DeciderConfig,
) -> Result<Found, EngineError> {
    // `max_configs` counts claims and the claim that reaches it is not
    // expanded, so it allows one expansion fewer.
    let max_configs = config.max_configs as u64;
    search.budget = search.budget.min(max_configs).saturating_sub(1);
    search.probe_events = true;
    let found = search.run(goal, db);
    if let Some(e) = found.fault {
        return Err(e);
    }
    if let Some(o) = &search.obs {
        o.registry
            .absorb(search.kernel.program, &Stats::default(), &found.work.local);
        o.registry.add_counter("decider_configs", found.work.claims);
    }
    Ok(found)
}

/// [`decide`] on `search`'s kernel, observer, worker count and step budget
/// (what [`crate::Engine::decide`] runs). With an observer that carries an
/// event log, the run is bracketed by `solve` span events.
pub(crate) fn decide_in(
    mut search: Search<'_>,
    goal: &Goal,
    db: &Database,
    config: DeciderConfig,
) -> Result<Decision, EngineError> {
    // Branch-and-bound keeps the order that makes its first success
    // near-minimal; every other rule takes the order the counts are pinned in.
    (search.stop, search.order) = match search.stop {
        _ if config.exhaustive => (Stop::Whole, Order::LastFirst),
        Stop::Minimal => (Stop::Minimal, Order::FirstFirst),
        _ => (Stop::First, Order::LastFirst),
    };
    if let Some(o) = &search.obs {
        o.emit(None, || TraceEvent::SpanEnter {
            phase: SpanPhase::Solve,
            detail: format!("decide {goal}"),
        });
    }
    let found = run_bounded(&mut search, goal, db, config)?;
    let decision = Decision {
        executable: !found.successes.is_empty(),
        configs: found.work.claims as usize,
        truncated: found.exhausted,
    };
    if let Some(o) = &search.obs {
        // A budget that ran out before a success refutes nothing.
        let verdict = match (decision.executable, decision.truncated) {
            (true, _) => "true",
            (false, true) => "unknown",
            (false, false) => "false",
        };
        o.emit(None, || TraceEvent::SpanExit {
            phase: SpanPhase::Solve,
            detail: format!("decide executable={verdict} configs={}", decision.configs),
        });
    }
    Ok(decision)
}

/// [`final_states`] on `search`'s kernel, observer, worker count and step
/// budget. Caching and materialization leave the set unchanged — only the
/// number of intermediate configurations explored (materialized probes are
/// pure-query macro-steps).
pub(crate) fn final_states_in(
    mut search: Search<'_>,
    goal: &Goal,
    db: &Database,
    config: DeciderConfig,
) -> Result<Vec<Database>, EngineError> {
    (search.stop, search.order) = (Stop::Finals, Order::LastFirst);
    let found = run_bounded(&mut search, goal, db, config)?;
    Ok(found.successes.into_iter().map(|w| w.cfg.db).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::load_init;
    use td_parser::parse_program;

    fn setup(src: &str) -> (td_core::Program, Database, Vec<Goal>) {
        let parsed = parse_program(src).expect("parses");
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).expect("init");
        let goals = parsed.goals.iter().map(|g| g.goal.clone()).collect();
        (parsed.program, db, goals)
    }

    fn run(src: &str) -> Decision {
        let (p, db, goals) = setup(src);
        decide(&p, &goals[0], &db, DeciderConfig::default()).expect("decides")
    }

    #[test]
    fn trivial_success_and_failure() {
        assert!(run("base t/0. ?- ins.t.").executable);
        assert!(!run("base t/0. ?- t.").executable);
        assert!(!run("base t/0. ?- fail.").executable);
    }

    #[test]
    fn serial_order_is_respected() {
        assert!(!run("base t/0. ?- t * ins.t.").executable);
        assert!(run("base t/0. ?- ins.t * t.").executable);
    }

    #[test]
    fn concurrent_communication_found() {
        let d = run("base m/0. base d/0. c <- m * ins.d. p <- ins.m. ?- c | p.");
        assert!(d.executable);
    }

    #[test]
    fn isolation_semantics_match_engine() {
        let src = "
            base flag/0. base saw/0.
            right <- flag * ins.saw.
            ?- iso { ins.flag * del.flag } | right.
        ";
        assert!(!run(src).executable);
        let src2 = "
            base flag/0. base saw/0.
            right <- flag * ins.saw.
            ?- (ins.flag * del.flag) | right.
        ";
        assert!(run(src2).executable);
    }

    #[test]
    fn nonterminating_recursion_is_decided_by_memoization() {
        // loop <- loop diverges in the interpreter, but the decider sees a
        // single repeated configuration and terminates with "not executable".
        let d = run("loop <- loop. ?- loop.");
        assert!(!d.executable);
        assert!(!d.truncated);
        assert!(
            d.configs <= 3,
            "tiny configuration space, got {}",
            d.configs
        );
    }

    #[test]
    fn tail_recursive_loop_with_exit_is_executable() {
        let d = run("base t/0.
             loop <- { ins.t or loop }.
             ?- loop.");
        assert!(d.executable);
        assert!(!d.truncated);
    }

    #[test]
    fn countdown_explores_linear_space() {
        let src = |n: i64| {
            format!(
                "base n/1. init n({n}).
                 down <- n(0).
                 down <- n(X) * X > 0 * del.n(X) * Y is X - 1 * ins.n(Y) * down.
                 ?- down."
            )
        };
        let d5 = run(&src(5));
        let d10 = run(&src(10));
        assert!(d5.executable && d10.executable);
        assert!(d10.configs > d5.configs);
        // Linear-ish growth: doubling n should not square the space.
        assert!(d10.configs < d5.configs * 4);
    }

    #[test]
    fn exhaustive_mode_counts_the_whole_space() {
        let (p, db, goals) = setup("base a/0. base b/0. ?- ins.a | ins.b.");
        let d = decide(
            &p,
            &goals[0],
            &db,
            DeciderConfig {
                exhaustive: true,
                ..DeciderConfig::default()
            },
        )
        .unwrap();
        assert!(d.executable);
        assert!(d.configs >= 3, "got {}", d.configs);
    }

    #[test]
    fn budget_truncates() {
        let (p, db, goals) = setup(
            "base n/1. init n(100).
             down <- n(0).
             down <- n(X) * X > 0 * del.n(X) * Y is X - 1 * ins.n(Y) * down.
             ?- down.",
        );
        let d = decide(
            &p,
            &goals[0],
            &db,
            DeciderConfig {
                max_configs: 10,
                exhaustive: false,
            },
        )
        .unwrap();
        assert!(d.truncated);
        assert!(!d.executable);
    }

    #[test]
    fn final_states_enumerates_outcomes() {
        let (p, db, goals) = setup(
            "base t/1.
             pick <- { ins.t(1) or ins.t(2) }.
             ?- pick.",
        );
        let finals = final_states(&p, &goals[0], &db, DeciderConfig::default()).unwrap();
        assert_eq!(finals.len(), 2);
    }

    #[test]
    fn agreement_with_interpreter_on_small_programs() {
        let cases = [
            "base t/0. ?- ins.t * del.t * not t.",
            "base a/0. base b/0. ?- (a | ins.a) * b.",
            "base a/0. base b/0. ?- (a | ins.a) * ins.b * b.",
            "base a/0. p <- a. p <- ins.a. ?- p * a.",
            "base a/0. base b/0. ?- iso { ins.a * del.a } * a.",
            "base m/0. base d/0. c <- m * ins.d. ?- c | ins.m.",
        ];
        for src in cases {
            let (p, db, goals) = setup(src);
            let engine = crate::Engine::new(p.clone());
            let eng = engine.executable(&goals[0], &db).unwrap();
            let dec = decide(&p, &goals[0], &db, DeciderConfig::default())
                .unwrap()
                .executable;
            assert_eq!(eng, dec, "mismatch on: {src}");
        }
    }
}

#[cfg(test)]
mod shortest_tests {
    use super::*;
    use crate::engine::load_init;
    use td_parser::parse_program;

    fn shortest(src: &str) -> Option<usize> {
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).unwrap();
        shortest_execution(
            &parsed.program,
            &parsed.goals[0].goal,
            &db,
            DeciderConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn counts_elementary_steps() {
        assert_eq!(shortest("base t/0. ?- ins.t."), Some(1));
        assert_eq!(shortest("base t/0. ?- ins.t * t * del.t."), Some(3));
        assert_eq!(shortest("base t/0. ?- t."), None);
    }

    #[test]
    fn choice_takes_the_shorter_branch() {
        // One branch needs 1 step, the other 3: BFS reports 2 (choice
        // resolution is itself a step).
        let n = shortest(
            "base t/1.
             ?- { ins.t(1) or (ins.t(1) * ins.t(2) * ins.t(3)) }.",
        );
        assert_eq!(n, Some(2));
    }

    #[test]
    fn concurrent_steps_still_count_individually() {
        // Interleaving does not shorten total work: 2 inserts = 2 steps.
        assert_eq!(shortest("base a/0. base b/0. ?- ins.a | ins.b."), Some(2));
    }

    #[test]
    fn unfolds_count_as_steps() {
        // call -> unfold (1) -> ins (1)
        assert_eq!(shortest("base t/0. p <- ins.t. ?- p."), Some(2));
    }

    #[test]
    fn workflow_critical_path() {
        // Example 3.1-shaped: unfoldings + queries + 5 inserts; the exact
        // number is stable and small.
        let n = shortest(
            "base item/1. base done/2.
             init item(w1).
             wf(W) <- t1(W) * (t2(W) | t3(W)).
             t1(W) <- item(W) * ins.done(W, a).
             t2(W) <- ins.done(W, b).
             t3(W) <- ins.done(W, c).
             ?- wf(w1).",
        );
        // wf unfold + t1 unfold + item query + ins + t2/t3 unfolds + 2 ins = 8
        assert_eq!(n, Some(8));
    }
}

#[cfg(test)]
mod state_space_tests {
    use super::*;
    use crate::engine::load_init;
    use td_parser::parse_program;

    fn explore(src: &str) -> Decision {
        let parsed = parse_program(src).unwrap();
        let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init).unwrap();
        decide(
            &parsed.program,
            &parsed.goals[0].goal,
            &db,
            DeciderConfig {
                exhaustive: true,
                ..DeciderConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn configuration_space_is_exactly_3n_minus_1_for_toggle_products() {
        // n independent insert/delete toggles: each branch contributes 3
        // live configurations (about to insert / about to delete / done),
        // and the product minus the all-done terminal gives 3^n - 1 — the
        // state explosion the paper's complexity results quantify, here in
        // closed form.
        let cfg = |n: usize| {
            let branches: Vec<String> = (0..n).map(|i| format!("(ins.f{i} * del.f{i})")).collect();
            let decls: Vec<String> = (0..n).map(|i| format!("base f{i}/0.")).collect();
            format!("{}\n?- {}.", decls.join("\n"), branches.join(" | "))
        };
        for n in 1..=5usize {
            let d = explore(&cfg(n));
            assert_eq!(d.configs, 3usize.pow(n as u32) - 1, "n={n}");
            assert!(d.executable);
        }
    }
}
