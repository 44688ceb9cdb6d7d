//! The backtracking interpreter.
//!
//! A [`Solver`] searches for a *successful execution* of a process tree: a
//! sequence of elementary steps (one per schedulable frontier action) ending
//! with the tree fully reduced. Nondeterminism — which concurrent branch
//! steps next, which rule a call unfolds to, which tuple a query matches,
//! which `or`-branch runs — is explored depth-first through a choicepoint
//! stack. Failure restores the database (snapshots), the variable bindings
//! (trail) and the update log (truncation): TD transactions are
//! all-or-nothing, so a failed execution leaves no residue.
//!
//! Isolation `iso { g }` runs `g` as a *nested* solver from the current
//! database: its steps occupy a contiguous block of the overall execution,
//! which is exactly the paper's ⊙ semantics. The nested solver stays alive
//! inside the choicepoint, so backtracking can pull further solutions out of
//! the isolated block.
//!
//! The transition semantics itself — elementary operations, rule
//! unfolding, subgoal-cache probe and replay — lives in [`crate::kernel`];
//! this module composes those primitives under its trail/choicepoint
//! discipline and owns only the search (strategies, backtracking, budgets,
//! failure memoization).

use crate::cache::{CachedAnswer, SubgoalCache};
use crate::config::{EngineConfig, EngineError, Stats, Strategy};
use crate::incremental::Materializer;
use crate::kernel::{self, FpSet, Hooks, Probe};
use crate::obs::{subgoal_label, LocalMetrics, Observer};
use crate::trace::{SpanPhase, TraceEvent};
use crate::tree::{frontier, leaf_at, make_node, rewrite, PTree, Path};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use td_core::subst::TrailMark;
use td_core::{Atom, Bindings, Goal, Program, RuleId, Var};
use td_db::{Database, DeltaOp, Tuple};

/// Shared execution context: program, config, bindings, statistics, logs.
/// One `Ctx` serves the top-level solver and every nested (isolation)
/// solver, so budgets and the trail are global to the execution.
pub(crate) struct Ctx<'p> {
    pub program: &'p Program,
    pub config: &'p EngineConfig,
    pub bindings: Bindings,
    pub stats: Stats,
    pub delta: Vec<DeltaOp>,
    /// Relations this execution has read, across *all* explored branches.
    /// Monotone: backtracking truncates `delta`/`trace` but never this —
    /// a failed branch's reads are commit-relevant (see
    /// [`td_db::ReadSet`]'s module docs for the soundness argument).
    pub reads: td_db::ReadSet,
    /// Committed-path trace events (only populated when `config.trace`).
    pub trace: Vec<TraceEvent>,
    /// Refuted configurations, by [`kernel::fingerprint`] under the current
    /// bindings. Only populated/consulted under complete strategies (see
    /// `EngineConfig::memo_failures`).
    failed: FpSet,
    /// Variable-numbering scratch of [`Ctx::config_key`].
    key_vars: Vec<Var>,
    /// Shared subtransaction answer cache; `None` when disabled or the
    /// configuration is incompatible (see [`Ctx::new`]'s gate).
    cache: Option<Arc<SubgoalCache>>,
    /// Shared incremental materializer; gated exactly like the cache.
    mat: Option<Arc<Materializer>>,
    /// Observability sink: metrics registry + optional event stream.
    pub(crate) obs: Option<Arc<Observer>>,
    /// Per-run metric accumulator, absorbed into the observer's registry
    /// when the run ends (no locks on the hot path).
    pub(crate) local: LocalMetrics,
    rng: Option<StdRng>,
    rr_counter: u64,
}

impl<'p> Ctx<'p> {
    pub fn new(
        program: &'p Program,
        config: &'p EngineConfig,
        cache: Option<Arc<SubgoalCache>>,
        mat: Option<Arc<Materializer>>,
        obs: Option<Arc<Observer>>,
    ) -> Ctx<'p> {
        let rng = match config.strategy {
            Strategy::ExhaustiveRandom(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        // The cache replays a subgoal's answers in the canonical exhaustive
        // depth-first order; under any other strategy the lazy path would
        // yield a different order, and a trace cannot be reconstructed from
        // a replay — gate it off rather than produce wrong witnesses. The
        // materializer answers with macro-steps that leave no elementary
        // trace either, so it shares the gate.
        let (cache, mat) = if config.trace || config.strategy != Strategy::Exhaustive {
            (None, None)
        } else {
            (cache, mat)
        };
        let local = LocalMetrics::new(obs.is_some());
        Ctx {
            program,
            config,
            bindings: Bindings::new(),
            stats: Stats::default(),
            delta: Vec::new(),
            reads: td_db::ReadSet::new(),
            trace: Vec::new(),
            failed: FpSet::default(),
            key_vars: Vec::new(),
            cache,
            mat,
            obs,
            local,
            rng,
            rr_counter: 0,
        }
    }

    /// Record a trace event (no-op unless tracing is enabled).
    fn record(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.config.trace {
            let ev = f();
            self.trace.push(ev);
        }
    }

    /// Append to the structured event stream (no-op without an observer
    /// event log; independent of the committed-path trace).
    fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(obs) = &self.obs {
            obs.emit(None, f);
        }
    }

    /// Is failure memoization active? Requires a complete strategy: under
    /// an incomplete scheduler a failure does not refute the configuration.
    fn memo_active(&self) -> bool {
        self.config.memo_failures && self.config.strategy.backtracks_schedule()
    }

    /// Fingerprint of a configuration under the current bindings.
    fn config_key(&mut self, tree: &Arc<PTree>, db: &Database) -> u128 {
        let bindings = &self.bindings;
        kernel::fingerprint(tree, |t| bindings.resolve(t), db, &mut self.key_vars)
    }

    /// Unfold `rule_id` for `atom` on the shared trail (a kernel
    /// primitive), recording the committed-path trace event on success.
    fn unfold(&mut self, atom: &Atom, rule_id: RuleId) -> Option<Goal> {
        let body = kernel::unfold_trail(
            self.program,
            &mut self.bindings,
            atom,
            rule_id,
            &mut Hooks {
                stats: &mut self.stats,
                local: &mut self.local,
                events: None,
                reads: &mut self.reads,
            },
        )?;
        self.record(|| TraceEvent::Unfold {
            call: atom.clone(),
            rule: rule_id,
        });
        Some(body)
    }

    fn order_paths(&mut self, paths: &mut [Path]) {
        match self.config.strategy {
            Strategy::Exhaustive | Strategy::Leftmost => {}
            Strategy::ExhaustiveRandom(_) => {
                if let Some(rng) = &mut self.rng {
                    paths.shuffle(rng);
                }
            }
            Strategy::RoundRobin => {
                let n = paths.len();
                if n > 1 {
                    let k = (self.rr_counter as usize) % n;
                    paths.rotate_left(k);
                }
                self.rr_counter += 1;
            }
        }
    }
}

/// Why a step did not complete normally.
enum StepErr {
    /// Normal failure: backtrack.
    Fail,
    /// Fatal: abort the whole execution.
    Fatal(EngineError),
}

type StepResult = Result<(), StepErr>;

fn fatal(e: EngineError) -> StepErr {
    StepErr::Fatal(e)
}

/// Alternatives remaining at a choicepoint.
enum Alts {
    /// Scheduling: other frontier actions to try for this step.
    Sched { paths: Vec<Path>, next: usize },
    /// Other tuples a base-predicate query may match.
    Tuples {
        path: Path,
        atom: Atom,
        tuples: Vec<Tuple>,
        next: usize,
    },
    /// Other rules a call may unfold to.
    Rules {
        path: Path,
        atom: Atom,
        rules: Vec<RuleId>,
        next: usize,
    },
    /// Other `or`-branches.
    Branches {
        path: Path,
        branches: Vec<Goal>,
        next: usize,
    },
    /// A live isolated sub-execution that may yield further solutions.
    Iso {
        path: Path,
        solver: Box<Solver>,
        yield_mark: TrailMark,
        yield_delta: usize,
        yield_trace: usize,
    },
    /// Remaining answers of a cached subgoal (replayed, not re-explored).
    Cached {
        path: Path,
        /// Original variables, positionally matching each answer's values.
        vars: Vec<Var>,
        answers: Arc<Vec<CachedAnswer>>,
        next: usize,
    },
}

struct Choicepoint {
    /// When set, this is the *first* choicepoint pushed for its step: once
    /// it is exhausted, the whole subtree under the pre-step configuration
    /// has been refuted and the key is recorded in `Ctx::failed` — unless a
    /// success was yielded through this subtree in the meantime (see
    /// `successes_at_push`), in which case exhaustion only means "no more
    /// solutions".
    step_key: Option<u128>,
    /// `Solver::successes` at push time; compared at pop to decide whether
    /// the subtree was success-free (refuted) or merely drained.
    successes_at_push: u64,
    /// Process tree before the step this choicepoint belongs to.
    tree: Arc<PTree>,
    /// Database before the step.
    db: Database,
    /// Trail position before the step.
    mark: TrailMark,
    /// Update-log length before the step.
    delta_len: usize,
    /// Trace length before the step.
    trace_len: usize,
    alts: Alts,
}

/// A depth-first search for successful executions of one process tree.
pub(crate) struct Solver {
    /// `None` = fully reduced (a solution state).
    state: Option<Arc<PTree>>,
    /// Current database.
    pub db: Database,
    stack: Vec<Choicepoint>,
    /// Key of the configuration the in-flight step started from; consumed
    /// by the first choicepoint that step pushes.
    pending_key: Option<u128>,
    /// Number of solutions this solver has yielded. Used to distinguish
    /// refuted choicepoint subtrees from drained ones.
    successes: u64,
}

impl Solver {
    pub fn new(tree: Option<Arc<PTree>>, db: Database) -> Solver {
        Solver {
            state: tree,
            db,
            stack: Vec::new(),
            pending_key: None,
            successes: 0,
        }
    }

    /// Search until the next solution. `Ok(true)`: the solver's `db` is a
    /// solution state. `Ok(false)`: search space exhausted.
    pub fn run(&mut self, ctx: &mut Ctx) -> Result<bool, EngineError> {
        loop {
            let Some(tree) = self.state.clone() else {
                self.successes += 1;
                return Ok(true);
            };
            ctx.stats.steps += 1;
            if ctx.stats.steps > ctx.config.max_steps {
                return Err(EngineError::StepBudget {
                    steps: ctx.stats.steps,
                });
            }
            match self.step(ctx, tree) {
                Ok(()) => {}
                Err(StepErr::Fail) => {
                    if !self.backtrack(ctx)? {
                        return Ok(false);
                    }
                }
                Err(StepErr::Fatal(e)) => return Err(e),
            }
        }
    }

    /// After a success, search for the next distinct solution.
    pub fn resume(&mut self, ctx: &mut Ctx) -> Result<bool, EngineError> {
        if !self.backtrack(ctx)? {
            return Ok(false);
        }
        self.run(ctx)
    }

    fn push_cp(&mut self, ctx: &mut Ctx, mut cp: Choicepoint) -> Result<(), StepErr> {
        if self.stack.len() >= ctx.config.max_stack {
            return Err(fatal(EngineError::StackBudget {
                depth: self.stack.len(),
            }));
        }
        cp.step_key = self.pending_key.take();
        cp.successes_at_push = self.successes;
        self.stack.push(cp);
        ctx.stats.choicepoints += 1;
        ctx.stats.max_stack = ctx.stats.max_stack.max(self.stack.len());
        Ok(())
    }

    /// One elementary step: pick a frontier action per strategy, execute it.
    fn step(&mut self, ctx: &mut Ctx, tree: Arc<PTree>) -> StepResult {
        if ctx.memo_active() {
            let key = ctx.config_key(&tree, &self.db);
            if ctx.failed.contains(&key) {
                ctx.stats.memo_hits += 1;
                return Err(StepErr::Fail);
            }
            self.pending_key = Some(key);
        }
        let stack_before = self.stack.len();
        let mut paths = frontier(&tree);
        debug_assert!(!paths.is_empty(), "non-None state must have a frontier");
        ctx.stats.peak_processes = ctx.stats.peak_processes.max(paths.len());
        ctx.order_paths(&mut paths);
        if paths.len() > 1 && ctx.config.strategy.backtracks_schedule() {
            self.push_cp(
                ctx,
                Choicepoint {
                    step_key: None,
                    successes_at_push: 0,
                    tree: tree.clone(),
                    db: self.db.clone(),
                    mark: ctx.bindings.mark(),
                    delta_len: ctx.delta.len(),
                    trace_len: ctx.trace.len(),
                    alts: Alts::Sched {
                        paths: paths.clone(),
                        next: 1,
                    },
                },
            )?;
        }
        let sole = paths.len() == 1;
        let path = paths.swap_remove(0);
        let result = self.execute(ctx, &tree, path, sole);
        if matches!(result, Err(StepErr::Fail)) && self.stack.len() == stack_before {
            // The step failed with no alternatives: the configuration is
            // refuted outright.
            if let Some(key) = self.pending_key.take() {
                ctx.failed.insert(key);
            }
        }
        self.pending_key = None;
        result
    }

    /// Execute the action leaf at `path` in `tree`; `sole` says it is the
    /// only frontier action.
    fn execute(&mut self, ctx: &mut Ctx, tree: &Arc<PTree>, path: Path, sole: bool) -> StepResult {
        match leaf_at(tree, &path) {
            Goal::Fail => Err(StepErr::Fail),
            Goal::Atom(atom) => {
                let resolved = kernel::resolve_atom(&ctx.bindings, atom);
                if ctx.program.is_base(resolved.pred) {
                    self.exec_query(ctx, tree, path, resolved)
                } else {
                    self.exec_call(ctx, tree, path, resolved, sole)
                }
            }
            Goal::NotAtom(atom) => {
                let resolved = kernel::resolve_atom(&ctx.bindings, atom);
                ctx.reads.record(resolved.pred);
                match kernel::check_absent(&self.db, &resolved) {
                    Err(e) => Err(fatal(e)),
                    Ok(false) => Err(StepErr::Fail),
                    Ok(true) => {
                        ctx.record(|| TraceEvent::Absent { query: resolved });
                        self.state = rewrite(tree, &path, None);
                        Ok(())
                    }
                }
            }
            Goal::Ins(atom) => self.exec_update(ctx, tree, path, atom, true),
            Goal::Del(atom) => self.exec_update(ctx, tree, path, atom, false),
            Goal::Builtin(op, terms) => match kernel::eval_builtin(&mut ctx.bindings, *op, terms) {
                Ok(true) => {
                    ctx.record(|| TraceEvent::Builtin {
                        rendered: Goal::Builtin(*op, terms.clone()).to_string(),
                    });
                    self.state = rewrite(tree, &path, None);
                    Ok(())
                }
                Ok(false) => Err(StepErr::Fail),
                Err(e) => Err(fatal(e)),
            },
            Goal::Choice(branches) => {
                if branches.is_empty() {
                    return Err(StepErr::Fail);
                }
                if branches.len() > 1 {
                    self.push_cp(
                        ctx,
                        Choicepoint {
                            step_key: None,
                            successes_at_push: 0,
                            tree: tree.clone(),
                            db: self.db.clone(),
                            mark: ctx.bindings.mark(),
                            delta_len: ctx.delta.len(),
                            trace_len: ctx.trace.len(),
                            alts: Alts::Branches {
                                path: path.clone(),
                                branches: branches.clone(),
                                next: 1,
                            },
                        },
                    )?;
                }
                ctx.record(|| TraceEvent::Choice { index: 0 });
                self.state = rewrite(tree, &path, make_node(&branches[0]));
                Ok(())
            }
            Goal::Iso(inner) => {
                // An isolated block runs as a contiguous sub-execution from
                // the current database — exactly the shape the subgoal cache
                // stores. Try a replay before paying for a nested search.
                if ctx.cache.is_some() {
                    let resolved = inner.map_terms(&mut |t| ctx.bindings.resolve(t));
                    if let Some(result) = self.try_cached_subgoal(ctx, tree, &path, &resolved) {
                        return result;
                    }
                }
                ctx.stats.iso_enters += 1;
                let pre_mark = ctx.bindings.mark();
                let pre_delta = ctx.delta.len();
                let pre_trace = ctx.trace.len();
                let pre_db = self.db.clone();
                ctx.record(|| TraceEvent::IsoEnter);
                ctx.emit(|| TraceEvent::SpanEnter {
                    phase: SpanPhase::Isolation,
                    detail: String::new(),
                });
                let mut solver = Box::new(Solver::new(make_node(inner), self.db.clone()));
                match solver.run(ctx) {
                    Ok(true) => {
                        ctx.record(|| TraceEvent::IsoExit);
                        ctx.emit(|| TraceEvent::SpanExit {
                            phase: SpanPhase::Isolation,
                            detail: "commit".to_owned(),
                        });
                        let yield_mark = ctx.bindings.mark();
                        let yield_delta = ctx.delta.len();
                        let yield_trace = ctx.trace.len();
                        self.db = solver.db.clone();
                        self.state = rewrite(tree, &path, None);
                        self.push_cp(
                            ctx,
                            Choicepoint {
                                step_key: None,
                                successes_at_push: 0,
                                tree: tree.clone(),
                                db: pre_db,
                                mark: pre_mark,
                                delta_len: pre_delta,
                                trace_len: pre_trace,
                                alts: Alts::Iso {
                                    path,
                                    solver,
                                    yield_mark,
                                    yield_delta,
                                    yield_trace,
                                },
                            },
                        )?;
                        Ok(())
                    }
                    Ok(false) => {
                        // Clean up whatever the failed sub-search left.
                        ctx.bindings.undo_to(pre_mark);
                        ctx.delta.truncate(pre_delta);
                        ctx.trace.truncate(pre_trace);
                        ctx.emit(|| TraceEvent::SpanExit {
                            phase: SpanPhase::Isolation,
                            detail: "fail".to_owned(),
                        });
                        Err(StepErr::Fail)
                    }
                    Err(e) => Err(fatal(e)),
                }
            }
            Goal::True | Goal::Seq(_) | Goal::Par(_) => {
                unreachable!("structural goals are expanded by make_node")
            }
        }
    }

    fn exec_query(
        &mut self,
        ctx: &mut Ctx,
        tree: &Arc<PTree>,
        path: Path,
        atom: Atom,
    ) -> StepResult {
        ctx.reads.record(atom.pred);
        let tuples = kernel::matching_tuples(&self.db, &atom);
        if tuples.is_empty() {
            return Err(StepErr::Fail);
        }
        if tuples.len() > 1 {
            self.push_cp(
                ctx,
                Choicepoint {
                    step_key: None,
                    successes_at_push: 0,
                    tree: tree.clone(),
                    db: self.db.clone(),
                    mark: ctx.bindings.mark(),
                    delta_len: ctx.delta.len(),
                    trace_len: ctx.trace.len(),
                    alts: Alts::Tuples {
                        path: path.clone(),
                        atom: atom.clone(),
                        tuples: tuples.clone(),
                        next: 1,
                    },
                },
            )?;
        }
        if !kernel::bind_tuple(&mut ctx.bindings, &atom, &tuples[0]) {
            return Err(StepErr::Fail);
        }
        ctx.record(|| TraceEvent::Match {
            query: atom.clone(),
            tuple: tuples[0].clone(),
        });
        self.state = rewrite(tree, &path, None);
        Ok(())
    }

    fn exec_call(
        &mut self,
        ctx: &mut Ctx,
        tree: &Arc<PTree>,
        path: Path,
        atom: Atom,
        sole: bool,
    ) -> StepResult {
        // A ground call that is the *sole* frontier action executes as a
        // contiguous block (nothing else is schedulable until it finishes),
        // so its answer set is cacheable exactly like an isolated block.
        // The same condition is applied in the decider and the parallel
        // backend, so all three make identical caching decisions.
        if ctx.mat.is_some() && sole && atom.is_ground() {
            // A materialized probe is a pure-query macro-step: it beats both
            // the cache and rule unfolding, succeeding (leaf erased, no
            // bindings, no delta) or failing outright.
            let mat = ctx.mat.clone().expect("checked");
            if let Some(holds) = mat.holds(&self.db, &atom) {
                ctx.stats.mat_probes += 1;
                // A view probe reads every base relation feeding the
                // materialized fragment.
                for p in mat.base_support() {
                    ctx.reads.record(p);
                }
                if let Some(cache) = &ctx.cache {
                    // Materialization supersedes the cache for this
                    // predicate; never double-store.
                    cache.note_unsuitable();
                }
                return if holds {
                    self.state = rewrite(tree, &path, None);
                    Ok(())
                } else {
                    Err(StepErr::Fail)
                };
            }
        }
        if ctx.cache.is_some() && sole && atom.is_ground() {
            let subgoal = Goal::Atom(atom.clone());
            if let Some(result) = self.try_cached_subgoal(ctx, tree, &path, &subgoal) {
                return result;
            }
        }
        let rules: Vec<RuleId> = ctx.program.rules_for(atom.pred).to_vec();
        if rules.is_empty() {
            return Err(StepErr::Fail);
        }
        if rules.len() > 1 {
            self.push_cp(
                ctx,
                Choicepoint {
                    step_key: None,
                    successes_at_push: 0,
                    tree: tree.clone(),
                    db: self.db.clone(),
                    mark: ctx.bindings.mark(),
                    delta_len: ctx.delta.len(),
                    trace_len: ctx.trace.len(),
                    alts: Alts::Rules {
                        path: path.clone(),
                        atom: atom.clone(),
                        rules: rules.clone(),
                        next: 1,
                    },
                },
            )?;
        }
        match ctx.unfold(&atom, rules[0]) {
            Some(body) => {
                self.state = rewrite(tree, &path, make_node(&body));
                Ok(())
            }
            None => Err(StepErr::Fail),
        }
    }

    fn exec_update(
        &mut self,
        ctx: &mut Ctx,
        tree: &Arc<PTree>,
        path: Path,
        atom: &Atom,
        is_ins: bool,
    ) -> StepResult {
        let resolved = kernel::resolve_atom(&ctx.bindings, atom);
        match kernel::apply_update(&self.db, &resolved, is_ins) {
            Err(e) => Err(fatal(e)),
            Ok((db, changed, op)) => {
                if let Some(mat) = &ctx.mat {
                    mat.apply_ops(&self.db, std::slice::from_ref(&op), &db);
                }
                self.db = db;
                ctx.stats.db_ops += 1;
                ctx.record(|| match &op {
                    DeltaOp::Ins(pred, t) => TraceEvent::Ins {
                        pred: *pred,
                        tuple: t.clone(),
                        changed,
                    },
                    DeltaOp::Del(pred, t) => TraceEvent::Del {
                        pred: *pred,
                        tuple: t.clone(),
                        changed,
                    },
                });
                ctx.delta.push(op);
                self.state = rewrite(tree, &path, None);
                Ok(())
            }
        }
    }

    /// Try to resolve a contiguous subgoal (isolated block or sole-frontier
    /// ground call) from the answer cache. `None` = no cache, or the entry
    /// is unsuitable: the caller must run the lazy path. `Some(r)` = the
    /// subgoal was handled by replay (including `r = Err(Fail)` when the
    /// cached answer set is empty, which correctly feeds the failure memo).
    fn try_cached_subgoal(
        &mut self,
        ctx: &mut Ctx,
        tree: &Arc<PTree>,
        path: &Path,
        resolved: &Goal,
    ) -> Option<StepResult> {
        let cache = ctx.cache.clone()?;
        let probe = kernel::probe_subgoal(
            ctx.program,
            &cache,
            &self.db,
            resolved,
            &mut Hooks {
                stats: &mut ctx.stats,
                local: &mut ctx.local,
                events: ctx.obs.as_deref(),
                reads: &mut ctx.reads,
            },
        );
        match probe {
            Probe::Lazy => None,
            Probe::Replay { answers, vars } => {
                ctx.emit(|| TraceEvent::SpanEnter {
                    phase: SpanPhase::CacheReplay,
                    detail: subgoal_label(resolved),
                });
                let result = self.apply_cached_entry(ctx, tree, path, vars, answers);
                ctx.emit(|| TraceEvent::SpanExit {
                    phase: SpanPhase::CacheReplay,
                    detail: subgoal_label(resolved),
                });
                Some(result)
            }
        }
    }

    /// Commit the first cached answer; push a choicepoint over the rest.
    fn apply_cached_entry(
        &mut self,
        ctx: &mut Ctx,
        tree: &Arc<PTree>,
        path: &Path,
        vars: Vec<Var>,
        answers: Arc<Vec<CachedAnswer>>,
    ) -> StepResult {
        if answers.is_empty() {
            return Err(StepErr::Fail);
        }
        if answers.len() > 1 {
            self.push_cp(
                ctx,
                Choicepoint {
                    step_key: None,
                    successes_at_push: 0,
                    tree: tree.clone(),
                    db: self.db.clone(),
                    mark: ctx.bindings.mark(),
                    delta_len: ctx.delta.len(),
                    trace_len: ctx.trace.len(),
                    alts: Alts::Cached {
                        path: path.clone(),
                        vars: vars.clone(),
                        answers: answers.clone(),
                        next: 1,
                    },
                },
            )?;
        }
        self.apply_answer(ctx, tree, path, &vars, &answers[0])
    }

    /// Replay one cached answer: bind the subgoal's variables to the
    /// answer's ground values and re-apply its state delta.
    fn apply_answer(
        &mut self,
        ctx: &mut Ctx,
        tree: &Arc<PTree>,
        path: &Path,
        vars: &[Var],
        ans: &CachedAnswer,
    ) -> StepResult {
        if !kernel::bind_answer(&mut ctx.bindings, vars, ans) {
            return Err(StepErr::Fail);
        }
        let mut ops = Vec::new();
        let db = kernel::replay_answer(&self.db, ans, |op| {
            ctx.stats.db_ops += 1;
            ctx.delta.push(op.clone());
            ops.push(op.clone());
        })
        .map_err(fatal)?;
        if let Some(mat) = &ctx.mat {
            mat.apply_ops(&self.db, &ops, &db);
        }
        self.db = db;
        self.state = rewrite(tree, path, None);
        Ok(())
    }

    /// Pop/advance choicepoints until an alternative applies. `Ok(false)` =
    /// stack exhausted (overall failure).
    fn backtrack(&mut self, ctx: &mut Ctx) -> Result<bool, EngineError> {
        loop {
            if self.stack.is_empty() {
                return Ok(false);
            }
            ctx.stats.backtracks += 1;
            ctx.local.observe_backtrack(self.stack.len());
            let idx = self.stack.len() - 1;

            // Phase 1: under a mutable borrow of the CP, restore shared
            // state and pick the next alternative (as data).
            enum Decision {
                Exhausted,
                Retry {
                    tree: Arc<PTree>,
                    path: Path,
                    action: Retry,
                },
            }
            enum Retry {
                Sched,
                Tuple(Atom, Tuple),
                Rule(Atom, RuleId),
                Branch(usize, Goal),
                IsoYield(Database),
                IsoDead,
                Cached(Vec<Var>, CachedAnswer),
            }

            let decision = {
                let cp = &mut self.stack[idx];
                match &mut cp.alts {
                    Alts::Sched { paths, next } => {
                        if *next < paths.len() {
                            ctx.bindings.undo_to(cp.mark);
                            ctx.delta.truncate(cp.delta_len);
                            ctx.trace.truncate(cp.trace_len);
                            self.db = cp.db.clone();
                            let p = paths[*next].clone();
                            *next += 1;
                            Decision::Retry {
                                tree: cp.tree.clone(),
                                path: p,
                                action: Retry::Sched,
                            }
                        } else {
                            Decision::Exhausted
                        }
                    }
                    Alts::Tuples {
                        path,
                        atom,
                        tuples,
                        next,
                    } => {
                        if *next < tuples.len() {
                            ctx.bindings.undo_to(cp.mark);
                            ctx.delta.truncate(cp.delta_len);
                            ctx.trace.truncate(cp.trace_len);
                            self.db = cp.db.clone();
                            let t = tuples[*next].clone();
                            *next += 1;
                            Decision::Retry {
                                tree: cp.tree.clone(),
                                path: path.clone(),
                                action: Retry::Tuple(atom.clone(), t),
                            }
                        } else {
                            Decision::Exhausted
                        }
                    }
                    Alts::Rules {
                        path,
                        atom,
                        rules,
                        next,
                    } => {
                        if *next < rules.len() {
                            ctx.bindings.undo_to(cp.mark);
                            ctx.delta.truncate(cp.delta_len);
                            ctx.trace.truncate(cp.trace_len);
                            self.db = cp.db.clone();
                            let r = rules[*next];
                            *next += 1;
                            Decision::Retry {
                                tree: cp.tree.clone(),
                                path: path.clone(),
                                action: Retry::Rule(atom.clone(), r),
                            }
                        } else {
                            Decision::Exhausted
                        }
                    }
                    Alts::Branches {
                        path,
                        branches,
                        next,
                    } => {
                        if *next < branches.len() {
                            ctx.bindings.undo_to(cp.mark);
                            ctx.delta.truncate(cp.delta_len);
                            ctx.trace.truncate(cp.trace_len);
                            self.db = cp.db.clone();
                            let b = branches[*next].clone();
                            let idx = *next;
                            *next += 1;
                            Decision::Retry {
                                tree: cp.tree.clone(),
                                path: path.clone(),
                                action: Retry::Branch(idx, b),
                            }
                        } else {
                            Decision::Exhausted
                        }
                    }
                    Alts::Iso {
                        path,
                        solver,
                        yield_mark,
                        yield_delta,
                        yield_trace,
                    } => {
                        // Drop bindings/updates the outer execution made
                        // after the last yield, then ask the nested solver
                        // for another solution.
                        ctx.bindings.undo_to(*yield_mark);
                        ctx.delta.truncate(*yield_delta);
                        ctx.trace.truncate(*yield_trace);
                        match solver.resume(ctx)? {
                            true => {
                                ctx.record(|| TraceEvent::IsoExit);
                                *yield_mark = ctx.bindings.mark();
                                *yield_delta = ctx.delta.len();
                                *yield_trace = ctx.trace.len();
                                Decision::Retry {
                                    tree: cp.tree.clone(),
                                    path: path.clone(),
                                    action: Retry::IsoYield(solver.db.clone()),
                                }
                            }
                            false => {
                                ctx.bindings.undo_to(cp.mark);
                                ctx.delta.truncate(cp.delta_len);
                                ctx.trace.truncate(cp.trace_len);
                                self.db = cp.db.clone();
                                Decision::Retry {
                                    tree: cp.tree.clone(),
                                    path: path.clone(),
                                    action: Retry::IsoDead,
                                }
                            }
                        }
                    }
                    Alts::Cached {
                        path,
                        vars,
                        answers,
                        next,
                    } => {
                        if *next < answers.len() {
                            ctx.bindings.undo_to(cp.mark);
                            ctx.delta.truncate(cp.delta_len);
                            ctx.trace.truncate(cp.trace_len);
                            self.db = cp.db.clone();
                            let ans = answers[*next].clone();
                            *next += 1;
                            Decision::Retry {
                                tree: cp.tree.clone(),
                                path: path.clone(),
                                action: Retry::Cached(vars.clone(), ans),
                            }
                        } else {
                            Decision::Exhausted
                        }
                    }
                }
            };

            // Phase 2: apply the decision without holding the CP borrow.
            match decision {
                Decision::Exhausted => {
                    if let Some(cp) = self.stack.pop() {
                        if let Some(key) = cp.step_key {
                            if cp.successes_at_push == self.successes {
                                ctx.failed.insert(key);
                            }
                        }
                    }
                    continue;
                }
                Decision::Retry { tree, path, action } => match action {
                    // A scheduling choicepoint exists only over a frontier
                    // of several actions.
                    Retry::Sched => match self.execute(ctx, &tree, path, false) {
                        Ok(()) => return Ok(true),
                        Err(StepErr::Fail) => continue,
                        Err(StepErr::Fatal(e)) => return Err(e),
                    },
                    Retry::Tuple(atom, tuple) => {
                        if kernel::bind_tuple(&mut ctx.bindings, &atom, &tuple) {
                            ctx.record(|| TraceEvent::Match { query: atom, tuple });
                            self.state = rewrite(&tree, &path, None);
                            return Ok(true);
                        }
                        continue;
                    }
                    Retry::Rule(atom, rule) => match ctx.unfold(&atom, rule) {
                        Some(body) => {
                            self.state = rewrite(&tree, &path, make_node(&body));
                            return Ok(true);
                        }
                        None => continue,
                    },
                    Retry::Branch(index, branch) => {
                        ctx.record(|| TraceEvent::Choice { index });
                        self.state = rewrite(&tree, &path, make_node(&branch));
                        return Ok(true);
                    }
                    Retry::IsoYield(db) => {
                        self.db = db;
                        self.state = rewrite(&tree, &path, None);
                        return Ok(true);
                    }
                    Retry::IsoDead => {
                        if let Some(cp) = self.stack.pop() {
                            if let Some(key) = cp.step_key {
                                if cp.successes_at_push == self.successes {
                                    ctx.failed.insert(key);
                                }
                            }
                        }
                        continue;
                    }
                    Retry::Cached(vars, ans) => {
                        match self.apply_answer(ctx, &tree, &path, &vars, &ans) {
                            Ok(()) => return Ok(true),
                            Err(StepErr::Fail) => continue,
                            Err(StepErr::Fatal(e)) => return Err(e),
                        }
                    }
                },
            }
        }
    }
}
