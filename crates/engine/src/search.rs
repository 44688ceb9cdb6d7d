//! The explicit-state search over ground configurations
//! `(process tree, database)` — the one search behind
//! [`crate::decider`]'s `decide`/`final_states`/`shortest_execution`,
//! which differ only in [`Order`], [`Stop`] and how they shape the result.
//! docs/ARCHITECTURE.md ("The explicit-state search") describes the node,
//! the claim table, the budget, which test pins which order, and why the
//! search runs on one thread.

use crate::config::{EngineError, Stats};
use crate::engine::goal_num_vars;
use crate::kernel::{fingerprint, Config, FpSet, Hooks, Kernel};
use crate::obs::{LocalMetrics, Observer};
use crate::tree::make_node;
use std::collections::VecDeque;
use std::sync::Arc;
use td_core::{Bindings, Goal, Program, Var};
use td_db::{Database, ReadSet};

/// Frontier discipline: which pending node the search takes next.
/// Successors are pushed in the kernel's canonical order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Order {
    /// Take the newest: depth-first, *last* successor first — the order
    /// every pinned `decide` count was taken in.
    LastFirst,
    /// Take the oldest: breadth-first by level, so the first success is a
    /// shortest one.
    ByLevel,
}

/// Stopping rule: what a complete execution means for the rest of the
/// search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Stop {
    /// The first success found is the result and ends the search.
    First,
    /// One success per distinct final database; the whole space is explored.
    Finals,
    /// The first success is kept and the whole space is explored (its size
    /// is the measurement).
    Whole,
}

/// The search's parameters and attachments; [`Search::run`] does the work.
pub(crate) struct Search<'p> {
    /// The shared transition kernel (program + optional subgoal cache and
    /// materializer); the search only schedules which node to expand next.
    pub kernel: Kernel<'p>,
    /// Metrics sink, and the kernel's per-probe event sink.
    pub obs: Option<Arc<Observer>>,
    pub order: Order,
    pub stop: Stop,
    /// Expansions allowed. Every claim counts; the one after the `budget`-th
    /// is not expanded and ends the search as [`Found::exhausted`].
    pub budget: u64,
}

/// One node of the search; a complete execution when `cfg.tree` is `None`.
pub(crate) struct Task {
    pub cfg: Config,
    /// Transitions from the root.
    pub depth: usize,
}

/// The result of a run.
pub(crate) struct Found {
    /// The complete executions the stopping rule kept: at most one, or one
    /// per distinct final database under [`Stop::Finals`].
    pub successes: Vec<Task>,
    /// The fault that ended the run.
    pub fault: Option<EngineError>,
    /// The budget ran out before the stopping rule was satisfied.
    pub exhausted: bool,
    /// Configurations claimed: the budget's unit, and the `configs` of a
    /// [`crate::decider::Decision`].
    pub claims: u64,
    /// Per-rule and per-subgoal tallies, for the observer.
    pub local: LocalMetrics,
}

impl<'p> Search<'p> {
    /// The plain elementary-step search: no cache, no materializer, no
    /// observer, no budget.
    pub(crate) fn new(program: &'p Program) -> Search<'p> {
        Search {
            kernel: Kernel {
                program,
                cache: None,
                mat: None,
            },
            obs: None,
            order: Order::LastFirst,
            stop: Stop::First,
            budget: u64::MAX,
        }
    }

    /// Explore from `(goal, db)` until the stopping rule, the budget or a
    /// fault ends it: pop a node, claim its fingerprint, expand it once.
    pub(crate) fn run(&self, goal: &Goal, db: &Database) -> Found {
        let nvars = goal_num_vars(goal);
        if let Some(mat) = &self.kernel.mat {
            mat.slot(db); // made before the clone, which then shares it
        }
        let root = Task {
            cfg: Config {
                tree: make_node(goal, self.kernel.program),
                db: db.clone(),
                nvars,
            },
            depth: 0,
        };
        let mut local = LocalMetrics::new(self.obs.is_some());
        // Variable-numbering scratch of the fingerprint calls, the
        // unification scratch of the kernel calls, and the flat counters
        // and read set the kernel charges (no search result carries them:
        // a configuration is not a step of the machine).
        let mut key_vars: Vec<Var> = Vec::new();
        let mut scratch = Bindings::new();
        let mut stats = Stats::default();
        let mut reads = ReadSet::new();
        let mut claims = 0;
        let mut frontier = VecDeque::from([root]);
        let mut claimed = FpSet::default();
        let mut successes: Vec<Task> = Vec::new();
        let mut fault = None;
        let mut exhausted = false;
        loop {
            let next = match self.order {
                Order::LastFirst => frontier.pop_back(),
                Order::ByLevel => frontier.pop_front(),
            };
            let Some(task) = next else { break };
            let Some(tree) = &task.cfg.tree else {
                let keep = match self.stop {
                    Stop::First | Stop::Whole => successes.is_empty(),
                    Stop::Finals => !successes
                        .iter()
                        .any(|s| s.cfg.db.same_content(&task.cfg.db)),
                };
                if keep {
                    successes.push(task);
                }
                if self.stop == Stop::First {
                    break;
                }
                continue;
            };
            // Ground configurations: substitutions are already applied to the tree.
            if !claimed.insert(fingerprint(tree, |t| t, &task.cfg.db, &mut key_vars)) {
                continue;
            }
            claims += 1;
            if claims > self.budget {
                exhausted = true;
                break;
            }
            let mut hooks = Hooks {
                stats: &mut stats,
                local: &mut local,
                events: self.obs.as_deref(),
                reads: &mut reads,
            };
            let succs = match self.kernel.actions(&task.cfg, &mut hooks, &mut scratch) {
                Ok(succs) => succs,
                Err(e) => {
                    fault = Some(e);
                    break;
                }
            };
            let depth = task.depth + 1;
            frontier.extend(succs.into_iter().map(|cfg| Task { cfg, depth }));
        }
        Found {
            successes,
            fault,
            exhausted,
            claims,
            local,
        }
    }
}
