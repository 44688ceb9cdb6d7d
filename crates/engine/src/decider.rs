//! Explicit-state decision procedure for executability.
//!
//! The paper's complexity results (§4–§5) concern the *decision problem*
//! "is goal φ executable on database D?". For the decidable fragments —
//! sequential TD (Thm 4.5), nonrecursive TD (Thm 4.7) and fully bounded TD
//! (§5) — the space of reachable configurations `(process state, database)`
//! is finite, so executability is decidable by memoized graph search. This
//! module is that procedure.
//!
//! Unlike the backtracking [`crate::Engine`] (which re-explores shared
//! subspaces and may diverge on RE-hard programs), the decider visits each
//! distinct configuration once. The number of distinct configurations it
//! explores is exactly the quantity whose asymptotic growth the theorems
//! bound, and the benchmark harness reports it for each fragment
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
//! search runs with the engine's [`SubgoalCache`], [`Materializer`] and
//! [`Observer`]: isolated blocks and sole-frontier ground calls become
//! *macro-steps* — their cached `(bindings, delta)` answer sets are replayed
//! as direct successors instead of being re-explored, which collapses the
//! configuration chains inside contiguous subtransactions — and ground calls
//! on materialized predicates become indexed probes. The free functions
//! here are the plain elementary-step search.

use crate::cache::SubgoalCache;
use crate::config::{EngineError, Stats};
use crate::incremental::Materializer;
use crate::kernel::{fingerprint, Config as StepConfig, FpSet, Hooks, Kernel};
use crate::obs::{LocalMetrics, Observer};
use crate::trace::{SpanPhase, TraceEvent};
use crate::tree::{make_node, PTree};
use std::sync::Arc;
use td_core::{Goal, Program, Var};
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
    Search::new(program, config, None, None, None).decide(goal, db)
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
    Search::new(program, config, None, None, None).final_states(goal, db)
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
    // materialized probe is a macro-step, which would corrupt the BFS
    // elementary-step count this function measures.
    let mut search = Search::new(program, config, None, None, None);
    let mut frontier: Vec<(Option<Arc<PTree>>, Database)> = vec![(make_node(goal), db.clone())];
    let mut depth = 0usize;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for (tree, db) in frontier {
            let Some(tree) = tree else {
                return Ok(Some(depth));
            };
            if !search.mark_visited(&tree, &db) {
                continue;
            }
            if search.visited.len() >= search.config.max_configs {
                return Ok(None);
            }
            next.extend(search.successors(&tree, &db)?);
        }
        frontier = next;
        depth += 1;
    }
    Ok(None)
}

pub(crate) struct Search<'p> {
    /// The shared transition kernel (program + optional subgoal cache and
    /// materializer); the decider only schedules which configuration to
    /// expand next.
    kernel: Kernel<'p>,
    config: DeciderConfig,
    /// Visited configurations, by [`fingerprint`].
    visited: FpSet,
    /// Variable-numbering scratch of [`Search::mark_visited`].
    key_vars: Vec<Var>,
    truncated: bool,
    /// Per-run metric batch (rule expansions, cache tallies), absorbed
    /// into the observer's registry when the run ends.
    local: LocalMetrics,
    /// Relations the exploration read, charged uniformly through the
    /// kernel hooks like every other driver. The decision problem has no
    /// commit path, so nothing consumes this today — it exists so the
    /// kernel's read-recording contract holds for all three drivers.
    reads: td_db::ReadSet,
    obs: Option<Arc<Observer>>,
}

/// A configuration: live process tree (None = complete) + database.
type Config = (Option<Arc<PTree>>, Database);

impl<'p> Search<'p> {
    /// A search over `program`, plain (`None`s) or with an engine's cache,
    /// materializer and observability sink attached.
    pub(crate) fn new(
        program: &'p Program,
        config: DeciderConfig,
        cache: Option<Arc<SubgoalCache>>,
        mat: Option<Arc<Materializer>>,
        obs: Option<Arc<Observer>>,
    ) -> Search<'p> {
        Search {
            kernel: Kernel {
                program,
                cache,
                mat,
            },
            config,
            visited: FpSet::default(),
            key_vars: Vec::new(),
            truncated: false,
            local: LocalMetrics::new(obs.is_some()),
            reads: td_db::ReadSet::new(),
            obs,
        }
    }

    /// Decide executability. With an observer, per-rule expansion counts
    /// and per-subgoal cache tallies land in its registry (the
    /// visited-configuration count under `decider_configs`), and — when it
    /// carries an event log — the run is bracketed by `solve` span events.
    pub(crate) fn decide(mut self, goal: &Goal, db: &Database) -> Result<Decision, EngineError> {
        if let Some(o) = &self.obs {
            o.emit(None, || TraceEvent::SpanEnter {
                phase: SpanPhase::Solve,
                detail: format!("decide {goal}"),
            });
        }
        let executable = self.explore(make_node(goal), db.clone())?;
        let decision = Decision {
            executable,
            configs: self.visited.len(),
            truncated: self.truncated,
        };
        self.absorb();
        if let Some(o) = &self.obs {
            o.emit(None, || TraceEvent::SpanExit {
                phase: SpanPhase::Solve,
                detail: format!(
                    "decide executable={} configs={}",
                    decision.executable, decision.configs
                ),
            });
        }
        Ok(decision)
    }

    /// Every distinct final database. Caching and materialization leave
    /// the set unchanged — only the number of intermediate configurations
    /// explored (materialized probes are pure-query macro-steps).
    pub(crate) fn final_states(
        mut self,
        goal: &Goal,
        db: &Database,
    ) -> Result<Vec<Database>, EngineError> {
        let mut finals = Vec::new();
        self.collect_finals(make_node(goal), db.clone(), &mut finals)?;
        self.absorb();
        Ok(finals)
    }

    /// Hand the run's metric batch and configuration count to the observer.
    fn absorb(&self) {
        if let Some(o) = &self.obs {
            o.registry
                .absorb(self.kernel.program, &Stats::default(), &self.local);
            o.registry
                .add_counter("decider_configs", self.visited.len() as u64);
        }
    }

    /// DFS for any complete execution. Returns true as soon as one is found
    /// (unless `exhaustive`).
    fn explore(&mut self, tree: Option<Arc<PTree>>, db: Database) -> Result<bool, EngineError> {
        let mut stack: Vec<Config> = vec![(tree, db)];
        let mut found = false;
        while let Some((tree, db)) = stack.pop() {
            let Some(tree) = tree else {
                found = true;
                if self.config.exhaustive {
                    continue;
                }
                return Ok(true);
            };
            if !self.mark_visited(&tree, &db) {
                continue;
            }
            if self.visited.len() >= self.config.max_configs {
                self.truncated = true;
                return Ok(found);
            }
            let succs = self.successors(&tree, &db)?;
            stack.extend(succs);
        }
        Ok(found)
    }

    /// DFS collecting every distinct final database.
    fn collect_finals(
        &mut self,
        tree: Option<Arc<PTree>>,
        db: Database,
        finals: &mut Vec<Database>,
    ) -> Result<(), EngineError> {
        let mut stack: Vec<Config> = vec![(tree, db)];
        while let Some((tree, db)) = stack.pop() {
            let Some(tree) = tree else {
                if !finals.iter().any(|d| d.same_content(&db)) {
                    finals.push(db);
                }
                continue;
            };
            if !self.mark_visited(&tree, &db) {
                continue;
            }
            if self.visited.len() >= self.config.max_configs {
                self.truncated = true;
                return Ok(());
            }
            let succs = self.successors(&tree, &db)?;
            stack.extend(succs);
        }
        Ok(())
    }

    fn mark_visited(&mut self, tree: &Arc<PTree>, db: &Database) -> bool {
        // Ground driver: substitutions are already applied to the tree.
        self.visited
            .insert(fingerprint(tree, |t| t, db, &mut self.key_vars))
    }

    /// Every configuration reachable in one elementary (or cache macro-)
    /// step, across all schedules and all nondeterministic choices —
    /// enumerated by the shared transition kernel; the decider contributes
    /// no semantics of its own.
    fn successors(&mut self, tree: &Arc<PTree>, db: &Database) -> Result<Vec<Config>, EngineError> {
        // The kernel charges flat semantic counters (unfolds, db ops, …)
        // through its hooks; the decider's result reports configuration
        // counts only, so those go to a scratch pad. Per-rule and
        // per-subgoal tallies still accumulate in `local` for the observer.
        let mut scratch = Stats::default();
        let (actions, err) = self.kernel.actions(
            &StepConfig::ground(tree.clone(), db.clone()),
            &mut Hooks {
                stats: &mut scratch,
                local: &mut self.local,
                events: self.obs.as_deref(),
                reads: &mut self.reads,
            },
        );
        if let Some(e) = err {
            return Err(e);
        }
        Ok(actions
            .into_iter()
            .map(|a| {
                let (cfg, _ops) = self.kernel.apply(a);
                (cfg.tree, cfg.db)
            })
            .collect())
    }
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
