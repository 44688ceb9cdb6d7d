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
//! unfolding, and what a derived call, an update or a cached answer does
//! ([`kernel::call_step`], [`kernel::update`], [`kernel::replay_answer`])
//! — lives in [`crate::kernel`]. This module owns only the search, and
//! writes each kind of choice once: a step's alternatives are an [`Alts`],
//! `Solver::choose` commits to the first and leaves a choicepoint over the
//! rest, `Solver::take` carries one [`Alt`] out — on the first try and on
//! every retry alike — and `Solver::backtrack` asks the newest choicepoint
//! for its next one. Strategies, budgets and failure memoization sit
//! around that loop.
//!
//! A step allocates only what it creates. The tree and the database are
//! persistent, so a choicepoint's snapshot of either is a refcount; a leaf
//! is addressed by its index in the frontier, so scheduling builds no list
//! of paths; alternatives share the leaf they come from; an elementary
//! operation reads its atom through the leaf's offset and the trail rather
//! than from a renamed or resolved copy (see [`kernel`]); and a call's
//! rules, an `or`'s branches and an `iso`'s block are trees its leaf
//! already holds — a rule body is its template read at the unfolding's
//! offset (see [`crate::tree`]).

use crate::cache::{CachedAnswer, SubgoalCache};
use crate::compiled::Compiled;
use crate::config::{EngineConfig, EngineError, Stats, Strategy};
use crate::incremental::Materializer;
use crate::kernel::{self, CallStep, FpSet, Hooks, Probe};
use crate::obs::{subgoal_label, LocalMetrics, Observer};
use crate::trace::{SpanPhase, TraceEvent};
use crate::tree::{frontier_len, leaf_at, rewrite, Action, PTree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use td_core::subst::TrailMark;
use td_core::{Atom, Bindings, Goal, Program, RuleId, Term, Var};
use td_db::{Database, DeltaOp, Tuple};

/// The kernel's accounting sinks over a [`Ctx`], borrowed field by field so
/// that its trail, cache and materializer stay borrowable next to them.
macro_rules! hooks {
    ($ctx:expr) => {
        &mut Hooks {
            stats: &mut $ctx.stats,
            local: &mut $ctx.local,
            events: $ctx.obs.as_deref(),
            reads: &mut $ctx.reads,
        }
    };
}

/// Shared execution context: program, config, bindings, statistics, logs.
/// One `Ctx` serves the top-level solver and every nested (isolation)
/// solver, so budgets and the trail are global to the execution.
pub(crate) struct Ctx<'p> {
    pub program: &'p Program,
    /// The program's rule templates.
    compiled: &'p Compiled,
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
    /// Shared subtransaction answer cache; `None` when disabled or gated
    /// off (see [`EngineConfig::effective`]).
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
        let live = config.effective();
        let local = LocalMetrics::new(obs.is_some());
        Ctx {
            program,
            compiled: Compiled::of(program),
            config,
            bindings: Bindings::new(),
            stats: Stats::default(),
            delta: Vec::new(),
            reads: td_db::ReadSet::new(),
            trace: Vec::new(),
            failed: FpSet::default(),
            key_vars: Vec::new(),
            cache: cache.filter(|_| live.subgoal_cache),
            mat: mat.filter(|_| live.materialize),
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

    /// `atom`, read at offset `off`, as the bindings stand now, when
    /// tracing: what a trace event shows of the atom a step reads through
    /// the trail.
    fn traced(&self, (atom, off): (&Atom, u32)) -> Option<Atom> {
        let bindings = &self.bindings;
        self.config
            .trace
            .then(|| kernel::resolve_atom(atom, |t| bindings.resolve(t.offset(off))))
    }

    /// The label of `subgoal`, read at offset `off`, as the bindings stand
    /// now, when there is an event stream to show it in.
    fn traced_label(&self, subgoal: impl FnOnce() -> Goal, off: u32) -> Option<String> {
        self.obs.as_ref().and_then(|obs| obs.event_log())?;
        let bindings = &self.bindings;
        let resolved = subgoal().map_terms(&mut |t| bindings.resolve(t.offset(off)));
        Some(subgoal_label(&resolved))
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
    fn config_key(&mut self, tree: &PTree, db: &Database) -> u128 {
        let bindings = &self.bindings;
        kernel::fingerprint(tree, |t| bindings.resolve(t), db, &mut self.key_vars)
    }

    /// Unfold `rule_id` for `atom` (read at offset `off`) on the shared
    /// trail (a kernel primitive), recording the committed-path trace event
    /// on success. The body is the rule's template at the fresh offset.
    fn unfold(&mut self, call: (&Atom, u32), rule_id: RuleId) -> Option<Option<PTree>> {
        let traced = self.traced(call);
        let body = kernel::unfold_trail(
            self.program,
            self.compiled,
            &mut self.bindings,
            call,
            rule_id,
            hooks!(self),
        )?;
        self.record(|| TraceEvent::Unfold {
            call: traced.expect("tracing"),
            rule: rule_id,
        });
        Some(body)
    }

    /// The order the strategy takes a frontier of `n` leaves in.
    fn schedule(&mut self, n: usize) -> Schedule {
        let mut schedule = Schedule {
            first: 0,
            shuffled: Vec::new(),
            len: n,
            sole: n == 1,
        };
        match self.config.strategy {
            // Shuffling one leaf draws nothing from the generator.
            Strategy::ExhaustiveRandom(_) if n > 1 => {
                let rng = self.rng.as_mut().expect("seeded for this strategy");
                schedule.shuffled = (0..n).collect();
                schedule.shuffled.shuffle(rng);
            }
            Strategy::Exhaustive | Strategy::Leftmost | Strategy::ExhaustiveRandom(_) => {}
            Strategy::RoundRobin => {
                if n > 1 {
                    schedule.first = (self.rr_counter as usize) % n;
                }
                self.rr_counter += 1;
            }
        }
        if !self.config.strategy.backtracks_schedule() {
            // An incomplete scheduler commits to its first pick.
            schedule.len = 1;
        }
        schedule
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

/// A position in the three logs backtracking rewinds: the trail, the update
/// log and the committed-path trace.
#[derive(Clone, Copy)]
struct Marks {
    trail: TrailMark,
    delta: usize,
    trace: usize,
}

impl Marks {
    fn here(ctx: &Ctx) -> Marks {
        Marks {
            trail: ctx.bindings.mark(),
            delta: ctx.delta.len(),
            trace: ctx.trace.len(),
        }
    }

    /// Undo every binding, logged update and trace event made since.
    fn rewind(self, ctx: &mut Ctx) {
        ctx.bindings.undo_to(self.trail);
        ctx.delta.truncate(self.delta);
        ctx.trace.truncate(self.trace);
    }
}

/// Which frontier leaves a scheduling step may execute, by their index in
/// the frontier: `len` of them, from `first` on in left-to-right order, or
/// in `shuffled` order when the strategy shuffles.
struct Schedule {
    first: usize,
    shuffled: Vec<usize>,
    len: usize,
    /// The frontier holds just one leaf.
    sole: bool,
}

/// A frontier leaf's action and the offset its variables read at.
type Leaf = (Arc<Action>, u32);

/// The alternatives of one step, in canonical order. Those of a leaf hold
/// the leaf, once, and each alternative refers to it.
enum Alts {
    /// Scheduling: the frontier leaves the step may execute.
    Sched(Schedule),
    /// The tuples a base-predicate query leaf may match.
    Tuples(Leaf, Vec<Tuple>),
    /// A call leaf, which may unfold to the rules it holds: its
    /// predicate's, in program order.
    Rules(Leaf),
    /// The branches of an `or` leaf.
    Branches(Leaf),
    /// The answers of a cached subgoal (replayed, not re-explored), and
    /// the variables each answer's values bind, positionally.
    Cached(Vec<Var>, Arc<Vec<CachedAnswer>>),
    /// A live isolated sub-execution that may yield further solutions, and
    /// where the logs stood when it last yielded. Not a list: its
    /// alternatives come out of the nested solver.
    Iso(Box<Solver>, Marks),
}

/// One alternative, taken out of an [`Alts`] by index.
enum Alt {
    /// A frontier leaf's index, and whether it is the only one.
    Sched(usize, bool),
    /// A query leaf and a tuple it matches.
    Tuple(Leaf, Tuple),
    /// A call leaf and the index of a rule among its predicate's.
    Rule(Leaf, usize),
    /// The branch's index and its process tree.
    Branch(usize, Option<PTree>),
    Cached(Vec<Var>, Arc<Vec<CachedAnswer>>, usize),
    /// An isolated block ran to a solution.
    Yield,
}

impl Alts {
    fn len(&self) -> usize {
        match self {
            Alts::Sched(schedule) => schedule.len,
            Alts::Tuples(_, tuples) => tuples.len(),
            Alts::Rules((call, _)) => call.rules().len(),
            Alts::Branches((choice, _)) => branches(choice).len(),
            Alts::Cached(_, answers) => answers.len(),
            Alts::Iso(..) => 0,
        }
    }

    /// Take out the `i`-th alternative: an index and a refcount or two.
    fn get(&mut self, i: usize) -> Option<Alt> {
        if i >= self.len() {
            return None;
        }
        Some(match self {
            Alts::Sched(s) => Alt::Sched(s.shuffled.get(i).copied().unwrap_or(s.first + i), s.sole),
            Alts::Tuples(query, tuples) => Alt::Tuple(query.clone(), tuples[i].clone()),
            Alts::Rules(call) => Alt::Rule(call.clone(), i),
            Alts::Branches((choice, off)) => Alt::Branch(i, choice.tree(i, *off)),
            Alts::Cached(vars, answers) => Alt::Cached(vars.clone(), answers.clone(), i),
            Alts::Iso(..) => unreachable!("an isolated block has no listed alternatives"),
        })
    }
}

/// The atom of a query or call leaf, and the offset it reads at.
fn atom_of((leaf, off): &Leaf) -> (&Atom, u32) {
    match leaf.goal() {
        Goal::Atom(atom) => (atom, *off),
        _ => unreachable!("a query or call leaf"),
    }
}

/// The branches of an `or` leaf.
fn branches(leaf: &Action) -> &[Goal] {
    match leaf.goal() {
        Goal::Choice(branches) => branches,
        _ => unreachable!("an `or` leaf"),
    }
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
    tree: PTree,
    /// The frontier index of the leaf the alternatives replace (unused by
    /// `Alts::Sched`, whose alternatives are the leaves).
    leaf: usize,
    /// Database before the step.
    db: Database,
    /// Log positions before the step.
    at: Marks,
    alts: Alts,
    /// Index of the next untried alternative.
    next: usize,
}

impl Choicepoint {
    /// Take out the next alternative and the database it applies to, with
    /// the logs rewound to match. `None` = exhausted, with no residue left
    /// in the logs.
    fn next_alt(&mut self, ctx: &mut Ctx) -> Result<Option<(Alt, Database)>, EngineError> {
        if let Alts::Iso(solver, yielded) = &mut self.alts {
            // Drop what the outer execution did after the last yield, then
            // ask the nested solver for another solution.
            yielded.rewind(ctx);
            if solver.next_solution(ctx)? {
                ctx.record(|| TraceEvent::IsoExit);
                *yielded = Marks::here(ctx);
                return Ok(Some((Alt::Yield, solver.db.clone())));
            }
        }
        self.at.rewind(ctx);
        let alt = self.alts.get(self.next);
        self.next += 1;
        Ok(alt.map(|alt| (alt, self.db.clone())))
    }
}

/// A depth-first search for successful executions of one process tree.
pub(crate) struct Solver {
    /// `None` = fully reduced (a solution state).
    state: Option<PTree>,
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
    pub fn new(tree: Option<PTree>, db: Database) -> Solver {
        Solver {
            state: tree,
            db,
            stack: Vec::new(),
            pending_key: None,
            successes: 0,
        }
    }

    /// Search until the next solution — the first on a fresh solver, the
    /// next distinct one (behind the newest choicepoint) on a solver that
    /// has yielded. `Ok(true)`: the solver's `db` is a solution state.
    /// `Ok(false)`: search space exhausted.
    pub fn next_solution(&mut self, ctx: &mut Ctx) -> Result<bool, EngineError> {
        if self.successes > 0 && !self.backtrack(ctx)? {
            return Ok(false);
        }
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

    /// A choicepoint over `alts` for the `leaf`-th frontier leaf, the step
    /// having begun at `at`. The one place a choicepoint is built; `push_cp`
    /// fills in the memo fields.
    fn checkpoint(&self, at: Marks, tree: &PTree, leaf: usize, alts: Alts) -> Choicepoint {
        Choicepoint {
            step_key: None,
            successes_at_push: 0,
            tree: tree.clone(),
            leaf,
            db: self.db.clone(),
            at,
            alts,
            next: 1,
        }
    }

    fn push_cp(&mut self, ctx: &mut Ctx, mut cp: Choicepoint) -> StepResult {
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
    fn step(&mut self, ctx: &mut Ctx, tree: PTree) -> StepResult {
        if ctx.memo_active() {
            let key = ctx.config_key(&tree, &self.db);
            if ctx.failed.contains(&key) {
                ctx.stats.memo_hits += 1;
                return Err(StepErr::Fail);
            }
            self.pending_key = Some(key);
        }
        let stack_before = self.stack.len();
        let n = frontier_len(&tree);
        ctx.stats.peak_processes = ctx.stats.peak_processes.max(n);
        let schedule = ctx.schedule(n);
        let result = self.choose(ctx, &tree, 0, Alts::Sched(schedule));
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

    /// Commit to the first of `alts` for the `leaf`-th frontier leaf: fail
    /// when there is none, and leave a choicepoint over the rest when there
    /// is a rest.
    fn choose(&mut self, ctx: &mut Ctx, tree: &PTree, leaf: usize, mut alts: Alts) -> StepResult {
        let Some(first) = alts.get(0) else {
            return Err(StepErr::Fail);
        };
        if alts.len() > 1 {
            let cp = self.checkpoint(Marks::here(ctx), tree, leaf, alts);
            self.push_cp(ctx, cp)?;
        }
        self.take(ctx, tree, leaf, first)
    }

    /// Carry out one alternative for the `leaf`-th frontier leaf of `tree`:
    /// the only place a scheduled leaf is executed, a tuple bound, a rule
    /// unfolded, a branch entered or a cached answer replayed.
    fn take(&mut self, ctx: &mut Ctx, tree: &PTree, leaf: usize, alt: Alt) -> StepResult {
        let node = match alt {
            Alt::Sched(leaf, sole) => return self.execute(ctx, tree, leaf, sole),
            Alt::Tuple(query, tuple) => {
                let atom = atom_of(&query);
                let query = ctx.traced(atom);
                if !kernel::bind_tuple(&mut ctx.bindings, atom, &tuple) {
                    return Err(StepErr::Fail);
                }
                ctx.record(|| TraceEvent::Match {
                    query: query.expect("tracing"),
                    tuple,
                });
                None
            }
            Alt::Rule(call, i) => {
                let rule = call.0.rules()[i];
                ctx.unfold(atom_of(&call), rule).ok_or(StepErr::Fail)?
            }
            Alt::Branch(index, node) => {
                ctx.record(|| TraceEvent::Choice { index });
                node
            }
            Alt::Cached(vars, answers, i) => {
                let ans = &answers[i];
                if !kernel::bind_answer(&mut ctx.bindings, &vars, ans) {
                    return Err(StepErr::Fail);
                }
                self.db = kernel::replay_answer(&self.db, ans, hooks!(ctx)).map_err(fatal)?;
                ctx.delta.extend_from_slice(ans.delta.ops());
                None
            }
            Alt::Yield => None,
        };
        self.state = rewrite(tree, leaf, node);
        Ok(())
    }

    /// Execute the `leaf`-th frontier leaf of `tree`; `sole` says it is the
    /// only one.
    fn execute(&mut self, ctx: &mut Ctx, tree: &PTree, leaf: usize, sole: bool) -> StepResult {
        let (action, off) = leaf_at(tree, leaf);
        let here = || (action.clone(), off);
        let bindings = &ctx.bindings;
        let resolve = |t: Term| bindings.resolve(t.offset(off));
        match action.goal() {
            Goal::Fail => return Err(StepErr::Fail),
            Goal::Atom(atom) => {
                if ctx.program.is_base(atom.pred) {
                    ctx.reads.record(atom.pred);
                    let tuples = kernel::matching_tuples(&self.db, atom, resolve);
                    return self.choose(ctx, tree, leaf, Alts::Tuples(here(), tuples));
                }
                let (cache, mat) = (ctx.cache.as_deref(), ctx.mat.as_deref());
                let program = ctx.program;
                let (db, call) = (&self.db, || kernel::resolve_atom(atom, resolve));
                match kernel::call_step(program, cache, mat, db, call, sole, hooks!(ctx)) {
                    CallStep::Holds(true) => {}
                    CallStep::Holds(false) => return Err(StepErr::Fail),
                    CallStep::Replay { answers, vars } => {
                        let label = ctx.traced_label(|| Goal::Atom(atom.clone()), off);
                        return self.replay(ctx, tree, leaf, label, vars, answers);
                    }
                    CallStep::Unfold => {
                        return self.choose(ctx, tree, leaf, Alts::Rules(here()));
                    }
                }
            }
            Goal::NotAtom(atom) => {
                ctx.reads.record(atom.pred);
                if !kernel::check_absent(&self.db, atom, resolve).map_err(fatal)? {
                    return Err(StepErr::Fail);
                }
                let query = ctx.traced((atom, off));
                ctx.record(|| TraceEvent::Absent {
                    query: query.expect("tracing"),
                });
            }
            update @ (Goal::Ins(atom) | Goal::Del(atom)) => {
                let is_ins = matches!(update, Goal::Ins(_));
                let (db, changed, op) =
                    kernel::update(&self.db, atom, resolve, is_ins, hooks!(ctx)).map_err(fatal)?;
                self.db = db;
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
            }
            Goal::Builtin(op, terms) => {
                if !kernel::eval_builtin(&mut ctx.bindings, *op, (terms, off)).map_err(fatal)? {
                    return Err(StepErr::Fail);
                }
                ctx.record(|| TraceEvent::Builtin {
                    rendered: action.goal_at(off).to_string(),
                });
            }
            Goal::Choice(_) => {
                return self.choose(ctx, tree, leaf, Alts::Branches(here()));
            }
            Goal::Iso(inner) => {
                // An isolated block runs as a contiguous sub-execution from
                // the current database — exactly the shape the subgoal cache
                // stores. Try a replay before paying for a nested search.
                if let Some(cache) = ctx.cache.as_deref() {
                    let label = ctx.traced_label(|| (**inner).clone(), off);
                    let bindings = &ctx.bindings;
                    let resolve = |t: Term| bindings.resolve(t.offset(off));
                    let (program, db) = (ctx.program, &self.db);
                    let probe =
                        kernel::probe_subgoal(program, cache, db, inner, resolve, hooks!(ctx));
                    if let Probe::Replay { answers, vars } = probe {
                        return self.replay(ctx, tree, leaf, label, vars, answers);
                    }
                }
                ctx.stats.iso_enters += 1;
                let at = Marks::here(ctx);
                ctx.record(|| TraceEvent::IsoEnter);
                ctx.emit(|| TraceEvent::SpanEnter {
                    phase: SpanPhase::Isolation,
                    detail: String::new(),
                });
                let solver = Box::new(Solver::new(action.tree(0, off), self.db.clone()));
                let mut cp = self.checkpoint(at, tree, leaf, Alts::Iso(solver, Marks::here(ctx)));
                let yielded = cp.next_alt(ctx).map_err(fatal)?;
                ctx.emit(|| TraceEvent::SpanExit {
                    phase: SpanPhase::Isolation,
                    detail: if yielded.is_some() { "commit" } else { "fail" }.to_owned(),
                });
                let Some((alt, db)) = yielded else {
                    return Err(StepErr::Fail);
                };
                self.db = db;
                self.take(ctx, tree, leaf, alt)?;
                // Pushed only now, behind the block's first solution: a
                // block that never yields is a plain failed step — no
                // choicepoint counted, and its step's memo key left for
                // `step` to record as refuted outright.
                return self.push_cp(ctx, cp);
            }
            Goal::True | Goal::Seq(_) | Goal::Par(_) => {
                unreachable!("structural goals are expanded by make_node")
            }
        }
        // A deterministic step: the leaf is done.
        self.state = rewrite(tree, leaf, None);
        Ok(())
    }

    /// Replay a contiguous subgoal (isolated block or sole-frontier ground
    /// call) from its cached answer set: a choice among the answers. An
    /// empty set fails the step, which correctly feeds the failure memo.
    /// `label` is the subgoal's, present when there is an event stream.
    fn replay(
        &mut self,
        ctx: &mut Ctx,
        tree: &PTree,
        leaf: usize,
        label: Option<String>,
        vars: Vec<Var>,
        answers: Arc<Vec<CachedAnswer>>,
    ) -> StepResult {
        let detail = || label.clone().expect("labelled when observed");
        ctx.emit(|| TraceEvent::SpanEnter {
            phase: SpanPhase::CacheReplay,
            detail: detail(),
        });
        let result = self.choose(ctx, tree, leaf, Alts::Cached(vars, answers));
        ctx.emit(|| TraceEvent::SpanExit {
            phase: SpanPhase::CacheReplay,
            detail: detail(),
        });
        result
    }

    /// Retry choicepoints, newest first, until an alternative applies.
    /// `Ok(false)` = stack exhausted (overall failure).
    fn backtrack(&mut self, ctx: &mut Ctx) -> Result<bool, EngineError> {
        loop {
            let depth = self.stack.len();
            let Some(cp) = self.stack.last_mut() else {
                return Ok(false);
            };
            ctx.stats.backtracks += 1;
            ctx.local.observe_backtrack(depth);
            let Some((alt, db)) = cp.next_alt(ctx)? else {
                let cp = self.stack.pop().expect("borrowed above");
                self.db = cp.db;
                if let Some(key) = cp.step_key {
                    if cp.successes_at_push == self.successes {
                        ctx.failed.insert(key);
                    }
                }
                continue;
            };
            let (tree, leaf) = (cp.tree.clone(), cp.leaf);
            self.db = db;
            match self.take(ctx, &tree, leaf, alt) {
                Ok(()) => return Ok(true),
                Err(StepErr::Fail) => {}
                Err(StepErr::Fatal(e)) => return Err(e),
            }
        }
    }
}
