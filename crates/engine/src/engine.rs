//! Public execution API.

use crate::cache::SubgoalCache;
use crate::config::{EngineConfig, EngineError, Stats};
use crate::decider::{self, DeciderConfig, Decision};
use crate::incremental::Materializer;
use crate::kernel::Kernel;
use crate::machine::{Ctx, Solver};
use crate::obs::{json_object, Observer};
use crate::search::{Order, Search, Stop};
use crate::trace::{SpanPhase, TraceEvent};
use crate::tree::Template;
use std::sync::Arc;
use td_core::{Goal, Program, Term, Var};
use td_db::{Database, Delta};

/// A successful execution: the final database, answer bindings for the
/// goal's variables, the applied update log, and search statistics.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Database at commit.
    pub db: Database,
    /// Resolved term for each goal variable `0..n` (a `Term::Var` entry
    /// means the execution left that variable unconstrained).
    pub answer: Vec<Term>,
    /// The elementary updates the successful execution applied, in order.
    pub delta: Delta,
    /// Every relation the search read while finding this solution —
    /// including on failed branches (see [`td_db::ReadSet`]). This is the
    /// read set a store-level OCC commit validates against.
    pub reads: td_db::ReadSet,
    /// Search statistics up to (and including) this solution.
    pub stats: Stats,
    /// Committed-path trace (empty unless `EngineConfig::trace`).
    pub trace: crate::trace::Trace,
}

/// The result of asking for one execution.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A successful execution was found; the transaction commits.
    Success(Box<Solution>),
    /// The whole search space was explored without success; the transaction
    /// aborts and the database is unchanged.
    Failure { stats: Stats },
}

impl Outcome {
    /// True if the execution committed.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success(_))
    }

    /// The solution, if successful.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            Outcome::Success(s) => Some(s),
            Outcome::Failure { .. } => None,
        }
    }

    /// Statistics either way.
    pub fn stats(&self) -> Stats {
        match self {
            Outcome::Success(s) => s.stats,
            Outcome::Failure { stats } => *stats,
        }
    }
}

/// The Transaction Datalog interpreter.
///
/// ```
/// use td_engine::Engine;
/// use td_parser::parse_program;
/// use td_db::Database;
///
/// let parsed = parse_program(
///     "base money/1. init money(5).
///      spend <- money(X) * X >= 1 * del.money(X) * Y is X - 1 * ins.money(Y).",
/// ).unwrap();
/// let mut db = Database::with_schema_of(&parsed.program);
/// for atom in &parsed.init {
///     let t = td_db::Tuple::new(atom.ground_args().unwrap());
///     db = db.insert(atom.pred, &t).unwrap().0;
/// }
/// let engine = Engine::new(parsed.program.clone());
/// let goal = td_core::Goal::prop("spend");
/// let outcome = engine.solve(&goal, &db).unwrap();
/// assert!(outcome.is_success());
/// let sol = outcome.solution().unwrap();
/// assert!(sol.db.contains(td_core::Pred::new("money", 1), &td_db::tuple!(4)));
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    program: Program,
    config: EngineConfig,
    /// Subgoal answer cache, allocated once per engine when
    /// `EngineConfig::subgoal_cache` is set. Shared (via `Arc`) across
    /// every `solve`/`solutions` call on this engine and its clones, so a
    /// warm engine replays answers across queries too.
    cache: Option<Arc<SubgoalCache>>,
    /// Observability sink (metrics registry + optional event stream),
    /// attached with [`Engine::with_observer`]. `None` = zero overhead.
    obs: Option<Arc<Observer>>,
}

impl Engine {
    /// Engine with default configuration.
    pub fn new(program: Program) -> Engine {
        Engine::with_config(program, EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(program: Program, config: EngineConfig) -> Engine {
        let cache = config
            .subgoal_cache
            .then(|| Arc::new(SubgoalCache::new(config.cache_capacity)));
        Engine {
            program,
            config,
            cache,
            obs: None,
        }
    }

    /// Attach an observability sink: every subsequent `solve`/`solutions`
    /// call absorbs its statistics (flat counters, per-rule expansion
    /// counts, backtrack-depth distribution, per-subgoal cache tallies)
    /// into `obs.registry`, and — when the observer carries an event log —
    /// emits structured span events.
    pub fn with_observer(mut self, obs: Arc<Observer>) -> Engine {
        self.obs = Some(obs);
        self
    }

    /// The attached observability sink, if any.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.obs.as_ref()
    }

    /// The program this engine executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's subgoal answer cache (None unless
    /// `EngineConfig::subgoal_cache` is set). Exposes lifetime hit/miss/
    /// eviction counters for reporting.
    pub fn subgoal_cache(&self) -> Option<&Arc<SubgoalCache>> {
        self.cache.as_ref()
    }

    /// The program's view circuit ([`Materializer::of`]) when
    /// `EngineConfig::materialize` is set and the program has a
    /// Datalog-evaluable fragment (`None` otherwise — the engine then runs
    /// exactly as without the flag). One per program, not per engine: the
    /// circuit `datalog::query` reads too, its lifetime probe/rebuild/
    /// maintenance counters totals over all of them. The states it maintains
    /// are on the `Database` values, so a caller that keeps a value between
    /// queries keeps its views warm.
    pub fn materializer(&self) -> Option<&Arc<Materializer>> {
        if !self.config.materialize {
            return None;
        }
        Materializer::of(&self.program).ok()
    }

    /// The engine's own sections of a [`crate::RunReport`] — the lifetime
    /// counters of its subgoal cache and its materializer, `None` (rendered
    /// `null`) for whichever is not attached.
    pub fn report_sections(&self) -> Vec<(&'static str, Option<String>)> {
        let cache = self.cache.as_ref().map(|c| json_object(c.counters()));
        let mat = self.materializer().map(|m| json_object(m.counters()));
        vec![("cache", cache), ("materializer", mat)]
    }

    /// Decide executability of `goal` on `db` with the explicit-state
    /// [`crate::decider`], using this engine's subgoal cache, materializer
    /// and observer (the strategy does not apply: the search visits every
    /// schedule). The search is bounded by `config.max_configs` and by
    /// [`EngineConfig::max_steps`], whichever is smaller: both count one
    /// claimed configuration.
    pub fn decide(
        &self,
        goal: &Goal,
        db: &Database,
        config: DeciderConfig,
    ) -> Result<Decision, EngineError> {
        decider::decide_in(self.search(), goal, db, config)
    }

    /// [`crate::decider::final_states`] with this engine's subgoal cache,
    /// materializer, observer and step budget.
    pub fn final_states(
        &self,
        goal: &Goal,
        db: &Database,
        config: DeciderConfig,
    ) -> Result<Vec<Database>, EngineError> {
        decider::final_states_in(self.search(), goal, db, config)
    }

    /// The explicit-state search as this engine configures it: its kernel
    /// attachments and observer, `max_steps` as the budget.
    fn search(&self) -> Search<'_> {
        Search {
            kernel: Kernel {
                program: &self.program,
                cache: self.cache.clone(),
                mat: self.materializer().cloned(),
            },
            obs: self.obs.clone(),
            order: Order::LastFirst,
            stop: Stop::First,
            budget: self.config.max_steps,
        }
    }

    /// Execute `goal` against `db`, returning the first successful
    /// execution (the committed transaction) or failure, from the
    /// backtracking machine on the calling thread.
    pub fn solve(&self, goal: &Goal, db: &Database) -> Result<Outcome, EngineError> {
        let mut found = self.solutions(goal, db, 1)?;
        let outcome = match found.solutions.pop() {
            Some(s) => Outcome::Success(Box::new(s)),
            None => Outcome::Failure { stats: found.stats },
        };
        if let Some(obs) = &self.obs {
            match &outcome {
                Outcome::Success(s) => {
                    obs.registry.add_counter("solutions", 1);
                    obs.registry
                        .add_counter("committed_updates", s.delta.len() as u64);
                }
                Outcome::Failure { .. } => obs.registry.add_counter("failures", 1),
            }
        }
        Ok(outcome)
    }

    /// Is `goal` executable on `db`? (The paper's decision problem.)
    pub fn executable(&self, goal: &Goal, db: &Database) -> Result<bool, EngineError> {
        Ok(self.solve(goal, db)?.is_success())
    }

    /// Up to `limit` distinct successful executions, in search order.
    ///
    /// Distinctness is by search path, not final state: two different
    /// interleavings reaching the same database count twice.
    pub fn solutions(
        &self,
        goal: &Goal,
        db: &Database,
        limit: usize,
    ) -> Result<Solutions, EngineError> {
        let nvars = goal_num_vars(goal);
        if let Some(obs) = &self.obs {
            obs.emit(|| TraceEvent::SpanEnter {
                phase: SpanPhase::Solve,
                detail: goal.to_string(),
            });
        }
        let tree = Template::new(goal, &self.program);
        let mut ctx = Ctx::new(
            &self.program,
            &self.config,
            self.cache.clone(),
            self.obs.clone(),
        );
        ctx.bindings.alloc(nvars);
        if let Some(mat) = self.materializer() {
            mat.slot(db); // made before the clone, which then shares it
        }
        let mut solver = Solver::new(tree.as_ref().map(|t| (t, 0)), db.clone());
        let mut out = Vec::new();
        while out.len() < limit && solver.next_solution(&mut ctx)? {
            let answer = (0..nvars)
                .map(|i| ctx.bindings.resolve(Term::var(i)))
                .collect();
            out.push(Solution {
                db: solver.db.clone(),
                answer,
                delta: ctx.delta.iter().map(|(op, _)| op.clone()).collect(),
                reads: ctx.reads.clone(),
                stats: ctx.stats,
                trace: crate::trace::Trace {
                    events: ctx.trace.clone(),
                },
            });
        }
        if let Some(obs) = &self.obs {
            obs.registry.absorb(&self.program, &ctx.stats, &ctx.local);
            let found = out.len();
            obs.emit(|| TraceEvent::SpanExit {
                phase: SpanPhase::Solve,
                detail: format!("solutions={found}"),
            });
        }
        Ok(Solutions {
            solutions: out,
            stats: ctx.stats,
        })
    }
}

/// `td serve` solves every connection's goals and every trigger through one
/// engine behind an `Arc`, so `Engine` must be `Send + Sync`. Compile-time
/// proof; interior mutability slipping into `Program`, the cache, the
/// materializer or the observer fails the build here.
#[allow(dead_code)]
fn _assert_engine_is_send_sync() {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<Engine>();
}

/// The collected solutions of a bounded search.
#[derive(Clone, Debug)]
pub struct Solutions {
    /// Solutions in search order (up to the requested limit).
    pub solutions: Vec<Solution>,
    /// Statistics for the whole search.
    pub stats: Stats,
}

/// Number of variables a goal mentions (max id + 1 — goals produced by the
/// parser use dense ids starting at 0).
pub(crate) fn goal_num_vars(goal: &Goal) -> u32 {
    goal.vars()
        .into_iter()
        .map(|Var(i)| i + 1)
        .max()
        .unwrap_or(0)
}

/// Load `init` facts (ground atoms) into a database that already has the
/// program's schema: one copy of it, edited in place.
pub fn load_init(db: &Database, init: &[td_core::Atom]) -> Result<Database, EngineError> {
    let mut cur = db.clone();
    for atom in init {
        let Some(values) = atom.ground_args() else {
            return Err(EngineError::Instantiation {
                context: format!("init {atom}"),
            });
        };
        cur.insert_mut(atom.pred, &td_db::Tuple::new(values))
            .map_err(|e| EngineError::Db(e.to_string()))?;
    }
    Ok(cur)
}
