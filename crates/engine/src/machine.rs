//! The backtracking interpreter.
//!
//! A [`Solver`] searches for a *successful execution* of a process tree: a
//! sequence of elementary steps (one per schedulable frontier action) ending
//! with the tree fully reduced. Nondeterminism — which concurrent branch
//! steps next, which rule a call unfolds to, which tuple a query matches,
//! which `or`-branch runs — is explored depth-first through a choicepoint
//! stack. The solver owns one database and edits it in place; failure
//! takes back, newest first, the updates logged since the choicepoint (the
//! update log holds each one's undo record), and undoes the variable
//! bindings (trail): TD transactions are all-or-nothing, so a failed
//! execution leaves no residue. docs/ARCHITECTURE.md ("What a step
//! allocates, and what backtracking costs") has the design.
//!
//! Isolation `iso { g }` runs `g` as a *nested* solver from the current
//! database: its steps occupy a contiguous block of the overall execution,
//! which is exactly the paper's ⊙ semantics. The nested solver stays alive
//! inside the choicepoint, so backtracking can pull further solutions out of
//! the isolated block; that choicepoint alone holds a database, the one the
//! block started from.
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
//! The solver owns its process tree too, an [`Arena`] it edits in place and
//! takes back from a trail, as it does the database: a choicepoint holds
//! marks, not a tree. What a step allocates is described once, in
//! docs/ARCHITECTURE.md.

use crate::cache::{CachedAnswer, SubgoalCache};
use crate::compiled::Compiled;
use crate::config::{EngineConfig, EngineError, Stats, Strategy};
use crate::incremental::Materializer;
use crate::kernel::{self, CallStep, FpSet, Hooks, Probe};
use crate::obs::{subgoal_label, LocalMetrics, Observer};
use crate::trace::{SpanPhase, TraceEvent};
use crate::tree::{Action, Arena, At, Mark as TreeMark};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use td_core::subst::TrailMark;
use td_core::{Atom, Bindings, Goal, Program, RuleId, Term, Var};
use td_db::{Database, DeltaOp, Tuple, Undo};

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
    /// The updates of the execution so far, each with how to take it back
    /// from the database of the solver that made it, when it changed that
    /// database.
    pub delta: Vec<(DeltaOp, Option<Undo>)>,
    /// Relations this execution has read, across *all* explored branches.
    /// Monotone: backtracking truncates `delta`/`trace` but never this —
    /// a failed branch's reads are commit-relevant (see
    /// [`td_db::ReadSet`]'s module docs for the soundness argument).
    pub reads: td_db::ReadSet,
    /// Committed-path trace events (only populated when `config.trace`).
    pub trace: Vec<TraceEvent>,
    /// Refuted configurations, by [`kernel::fingerprint`] under the current
    /// bindings. Only populated/consulted under complete strategies (see
    /// `EngineConfig::memo_failures`); while it is empty, a step defers its
    /// key ([`MemoKey::Deferred`]).
    failed: FpSet,
    /// Variable-numbering scratch of [`Ctx::config_key`].
    key_vars: Vec<Var>,
    /// Shared subtransaction answer cache; `None` when disabled or gated
    /// off (see [`EngineConfig::effective`]).
    cache: Option<Arc<SubgoalCache>>,
    /// The program's view circuit ([`Materializer::of`]), when the
    /// effective configuration materializes.
    mat: Option<&'p Materializer>,
    /// Observability sink: metrics registry + optional event stream.
    pub(crate) obs: Option<Arc<Observer>>,
    /// Per-run metric accumulator, absorbed into the observer's registry
    /// when the run ends (no locks on the hot path).
    pub(crate) local: LocalMetrics,
    rng: Option<StdRng>,
    rr_counter: u64,
    /// Solvers of `iso` blocks that are done, kept with their buffers for
    /// the next block ([`Ctx::solver`]): boxed as an `Alts::Iso` holds
    /// them, so they move in and out of it without a copy.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Solver<'p>>>,
}

impl<'p> Ctx<'p> {
    pub fn new(
        program: &'p Program,
        config: &'p EngineConfig,
        cache: Option<Arc<SubgoalCache>>,
        obs: Option<Arc<Observer>>,
    ) -> Ctx<'p> {
        let rng = match config.strategy {
            Strategy::ExhaustiveRandom(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        let live = config.effective();
        let mat = live.materialize.then(|| Materializer::of(program).ok());
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
            mat: mat.flatten().map(|m| &**m),
            obs,
            local,
            rng,
            rr_counter: 0,
            spare: Vec::new(),
        }
    }

    /// A solver for an `iso` block's `tree` from `db`: a spare one when
    /// there is one, so that entering a block allocates nothing once warm.
    fn solver(&mut self, tree: Option<At<'p>>, db: Database) -> Box<Solver<'p>> {
        let Some(mut solver) = self.spare.pop() else {
            return Box::new(Solver::new(tree, db));
        };
        solver.tree.plant(tree);
        solver.db = db;
        solver.pending_key = MemoKey::None;
        solver.successes = 0;
        solver
    }

    /// Keep the solver of an `iso` block that has nothing left to yield,
    /// its stack empty, for the next block.
    fn recycle(&mut self, mut solver: Box<Solver<'p>>) {
        solver.db = Database::new();
        self.spare.push(solver);
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
    fn config_key(&mut self, tree: &Arena, db: &Database) -> u128 {
        let bindings = &self.bindings;
        kernel::fingerprint(tree, |t| bindings.resolve(t), db, &mut self.key_vars)
    }

    /// Record as refuted the configuration `(tree, db)` a step started
    /// from, under the current bindings (those it started with), when the
    /// step is memoized: by `key` as computed then, or computed now.
    fn refute(&mut self, key: MemoKey, tree: &Arena, db: &Database) {
        let key = match key {
            MemoKey::None => return,
            MemoKey::Known(key) => key,
            MemoKey::Deferred => self.config_key(tree, db),
        };
        self.failed.insert(key);
    }

    /// Unfold `rule_id` for `atom` (read at offset `off`) on the shared
    /// trail (a kernel primitive), recording the committed-path trace event
    /// on success. The body is the rule's template at the fresh offset.
    fn unfold(&mut self, call: (&Atom, u32), rule_id: RuleId) -> Option<Option<At<'p>>> {
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

/// What a step does to the tree: the frontier index of the leaf it
/// rewrites, and the template copied in its place (`None`: the leaf is
/// done).
type Rewrite<'p> = (usize, Option<At<'p>>);

type StepResult<'p> = Result<Rewrite<'p>, StepErr>;

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

    /// Undo every binding, logged update and trace event made since; the
    /// updates on `db`, the database they were made to, newest first.
    fn rewind(self, ctx: &mut Ctx, db: &mut Database) {
        for (op, undo) in ctx.delta.drain(self.delta..).rev() {
            if let Some(undo) = undo {
                db.undo(&op, undo);
            }
        }
        self.forget(ctx);
    }

    /// [`Marks::rewind`] for a caller that drops the database the updates
    /// since were made to: they leave the log without being taken back.
    fn forget(self, ctx: &mut Ctx) {
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
type Leaf<'p> = (&'p Action, u32);

/// The alternatives of one step, in canonical order. Those of a leaf hold
/// the leaf, once, and each alternative refers to it.
enum Alts<'p> {
    /// Scheduling: the frontier leaves the step may execute.
    Sched(Schedule),
    /// The tuples a base-predicate query leaf may match.
    Tuples(Leaf<'p>, Vec<Tuple>),
    /// A call leaf, which may unfold to the rules it holds: its
    /// predicate's, in program order.
    Rules(Leaf<'p>),
    /// The branches of an `or` leaf.
    Branches(Leaf<'p>),
    /// The answers of a cached subgoal (replayed, not re-explored), and
    /// the variables each answer's values bind, positionally.
    Cached(Vec<Var>, Arc<Vec<CachedAnswer>>),
    /// A live isolated sub-execution that may yield further solutions
    /// (`None` once it has none left), where the logs stood when it last
    /// yielded, and the database it started from. Not a list: its
    /// alternatives come out of the nested solver.
    Iso(Option<Box<Solver<'p>>>, Marks, Database),
}

/// One alternative, taken out of an [`Alts`] by index.
enum Alt<'p> {
    /// A frontier leaf's index, and whether it is the only one.
    Sched(usize, bool),
    /// A query leaf and a tuple it matches.
    Tuple(Leaf<'p>, Tuple),
    /// A call leaf and the index of a rule among its predicate's.
    Rule(Leaf<'p>, usize),
    /// The branch's index and its template, at the leaf's offset.
    Branch(usize, Option<At<'p>>),
    Cached(Vec<Var>, Arc<Vec<CachedAnswer>>, usize),
    /// An isolated block ran to a solution.
    Yield,
}

impl<'p> Alts<'p> {
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

    /// Take out the `i`-th alternative: an index and a leaf, or a cached
    /// answer set's refcount.
    fn get(&mut self, i: usize) -> Option<Alt<'p>> {
        if i >= self.len() {
            return None;
        }
        Some(match self {
            Alts::Sched(s) => Alt::Sched(s.shuffled.get(i).copied().unwrap_or(s.first + i), s.sole),
            Alts::Tuples(query, tuples) => Alt::Tuple(*query, tuples[i].clone()),
            Alts::Rules(call) => Alt::Rule(*call, i),
            Alts::Branches((choice, off)) => Alt::Branch(i, choice.template(i).map(|t| (t, *off))),
            Alts::Cached(vars, answers) => Alt::Cached(vars.clone(), answers.clone(), i),
            Alts::Iso(..) => unreachable!("an isolated block has no listed alternatives"),
        })
    }
}

/// The atom of a query or call leaf, and the offset it reads at.
fn atom_of<'p>((leaf, off): &Leaf<'p>) -> (&'p Atom, u32) {
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

/// The failure-memo key of the configuration a step started from, as the
/// step's first choicepoint carries it.
#[derive(Clone, Copy, Default)]
enum MemoKey {
    /// Not memoized: the memo is off, or this is not a step's first
    /// choicepoint.
    #[default]
    None,
    /// Computed when the step started, because the memo could answer then.
    Known(u128),
    /// Not computed: the memo was empty when the step started, so nothing
    /// could hit. Whoever refutes the step computes it, from the solver's
    /// tree and database with the logs rewound to the step's start — the
    /// configuration a `Known` key describes.
    Deferred,
}

struct Choicepoint<'p> {
    /// Not `None` on the *first* choicepoint pushed for its step: once it
    /// is exhausted, the whole subtree under the pre-step configuration has
    /// been refuted and the key is recorded in `Ctx::failed` — unless a
    /// success was yielded through this subtree in the meantime (see
    /// `successes_at_push`), in which case exhaustion only means "no more
    /// solutions".
    step_key: MemoKey,
    /// `Solver::successes` at push time; compared at pop to decide whether
    /// the subtree was success-free (refuted) or merely drained.
    successes_at_push: u64,
    /// The frontier index of the leaf the alternatives replace (unused by
    /// `Alts::Sched`, whose alternatives are the leaves).
    leaf: usize,
    /// Log positions before the step: rewinding to them takes the
    /// database back to what it was.
    at: Marks,
    /// The solver's tree before the step: rewinding to it takes the tree
    /// back to what it was.
    tree: TreeMark,
    /// The database's digest before the step, checked after every rewind.
    #[cfg(debug_assertions)]
    digest: u128,
    /// The tree's digest before the step, checked after every rewind.
    #[cfg(debug_assertions)]
    shape: u128,
    alts: Alts<'p>,
    /// Index of the next untried alternative.
    next: usize,
}

impl<'p> Choicepoint<'p> {
    /// Take out the next alternative, with `db`, the solver's database, and
    /// the logs rewound to where they stood before the step. `None` =
    /// exhausted, with no residue left in the logs or the database.
    fn next_alt(
        &mut self,
        ctx: &mut Ctx<'p>,
        db: &mut Database,
    ) -> Result<Option<Alt<'p>>, EngineError> {
        if let Alts::Iso(block, yielded, before) = &mut self.alts {
            // Drop what the outer execution did after the last yield, to a
            // copy of the block's solution — the copy goes too, so the
            // nested solver's undo writes over what they shared — then ask
            // the nested solver for another solution. The nested log is the
            // nested solver's to undo; once it is exhausted, what is left of
            // it goes with the block's start restored.
            yielded.forget(ctx);
            *db = Database::new();
            if let Some(solver) = block {
                if solver.next_solution(ctx)? {
                    ctx.record(|| TraceEvent::IsoExit);
                    *yielded = Marks::here(ctx);
                    *db = solver.db.clone();
                    if solver.stack.is_empty() {
                        // No choicepoint left: asked again, it would yield
                        // nothing, so its buffers go to the next block now.
                        ctx.recycle(block.take().expect("the solver"));
                    }
                    return Ok(Some(Alt::Yield));
                }
            }
            self.at.forget(ctx);
            *db = std::mem::take(before);
        } else {
            self.at.rewind(ctx, db);
        }
        #[cfg(debug_assertions)]
        assert_eq!(db.digest(), self.digest, "a rewind restores the database");
        let alt = self.alts.get(self.next);
        self.next += 1;
        Ok(alt)
    }
}

/// A depth-first search for successful executions of one process tree.
pub(crate) struct Solver<'p> {
    /// The process tree, edited in place by every step; complete when the
    /// state is a solution.
    tree: Arena<'p>,
    /// Current database, edited in place by every update.
    pub db: Database,
    stack: Vec<Choicepoint<'p>>,
    /// Key of the configuration the in-flight step started from; taken by
    /// the first choicepoint that step pushes.
    pending_key: MemoKey,
    /// Number of solutions this solver has yielded. Used to distinguish
    /// refuted choicepoint subtrees from drained ones.
    successes: u64,
}

impl<'p> Solver<'p> {
    /// A solver for `tree`, a template at its offset (`None`: the complete
    /// tree), from `db`.
    pub fn new(tree: Option<At<'p>>, db: Database) -> Solver<'p> {
        Solver {
            tree: Arena::new(tree),
            db,
            stack: Vec::new(),
            pending_key: MemoKey::None,
            successes: 0,
        }
    }

    /// Search until the next solution — the first on a fresh solver, the
    /// next distinct one (behind the newest choicepoint) on a solver that
    /// has yielded. `Ok(true)`: the solver's `db` is a solution state.
    /// `Ok(false)`: search space exhausted.
    pub fn next_solution(&mut self, ctx: &mut Ctx<'p>) -> Result<bool, EngineError> {
        if self.successes > 0 && !self.backtrack(ctx)? {
            return Ok(false);
        }
        loop {
            // The step edits the tree; a failed one leaves it to the
            // choicepoint that is retried.
            if self.tree.is_empty() {
                self.successes += 1;
                return Ok(true);
            }
            ctx.stats.steps += 1;
            if ctx.stats.steps > ctx.config.max_steps {
                return Err(EngineError::StepBudget {
                    steps: ctx.stats.steps,
                });
            }
            match self.step(ctx) {
                Ok((leaf, with)) => self.tree.edit(leaf, with),
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
    fn checkpoint(&self, at: Marks, leaf: usize, alts: Alts<'p>) -> Choicepoint<'p> {
        Choicepoint {
            step_key: MemoKey::None,
            successes_at_push: 0,
            leaf,
            at,
            tree: self.tree.here(),
            #[cfg(debug_assertions)]
            digest: self.db.digest(),
            #[cfg(debug_assertions)]
            shape: self.tree.digest(),
            alts,
            next: 1,
        }
    }

    /// Push `cp`, whose tree mark is then in force: the step's edit, made
    /// after, is taken back from the trail.
    fn push_cp(&mut self, ctx: &mut Ctx<'p>, mut cp: Choicepoint<'p>) -> Result<(), StepErr> {
        if self.stack.len() >= ctx.config.max_stack {
            return Err(fatal(EngineError::StackBudget {
                depth: self.stack.len(),
            }));
        }
        cp.step_key = std::mem::take(&mut self.pending_key);
        cp.successes_at_push = self.successes;
        self.tree.guard(Some(cp.tree));
        self.stack.push(cp);
        ctx.stats.choicepoints += 1;
        ctx.stats.max_stack = ctx.stats.max_stack.max(self.stack.len());
        Ok(())
    }

    /// One elementary step of the tree: pick a frontier action per
    /// strategy, execute it.
    fn step(&mut self, ctx: &mut Ctx<'p>) -> StepResult<'p> {
        if ctx.memo_active() {
            // Nothing can hit an empty memo: the key waits for a refutation.
            let mut key = MemoKey::Deferred;
            if !ctx.failed.is_empty() {
                let fp = ctx.config_key(&self.tree, &self.db);
                if ctx.failed.contains(&fp) {
                    ctx.stats.memo_hits += 1;
                    return Err(StepErr::Fail);
                }
                key = MemoKey::Known(fp);
            }
            self.pending_key = key;
        }
        let (at, stack_before) = (Marks::here(ctx), self.stack.len());
        let n = self.tree.frontier_len();
        ctx.stats.peak_processes = ctx.stats.peak_processes.max(n);
        let schedule = ctx.schedule(n);
        let result = self.choose(ctx, 0, Alts::Sched(schedule));
        let pending = std::mem::take(&mut self.pending_key);
        if matches!(result, Err(StepErr::Fail)) && self.stack.len() == stack_before {
            // The step failed with no alternatives: the configuration is
            // refuted outright. A failed step leaves the database as it
            // found it; a deferred key needs its bindings undone too, as
            // backtracking would undo them anyway.
            if let MemoKey::Deferred = pending {
                at.rewind(ctx, &mut self.db);
            }
            ctx.refute(pending, &self.tree, &self.db);
        }
        result
    }

    /// Commit to the first of `alts` for the `leaf`-th frontier leaf: fail
    /// when there is none, and leave a choicepoint over the rest when there
    /// is a rest.
    fn choose(&mut self, ctx: &mut Ctx<'p>, leaf: usize, mut alts: Alts<'p>) -> StepResult<'p> {
        let Some(first) = alts.get(0) else {
            return Err(StepErr::Fail);
        };
        if alts.len() > 1 {
            let cp = self.checkpoint(Marks::here(ctx), leaf, alts);
            self.push_cp(ctx, cp)?;
        }
        self.take(ctx, leaf, first)
    }

    /// Carry out one alternative for the `leaf`-th frontier leaf: the only
    /// place a scheduled leaf is executed, a tuple bound, a rule unfolded,
    /// a branch entered or a cached answer replayed.
    fn take(&mut self, ctx: &mut Ctx<'p>, leaf: usize, alt: Alt<'p>) -> StepResult<'p> {
        let with = match alt {
            Alt::Sched(leaf, sole) => return self.execute(ctx, leaf, sole),
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
            Alt::Branch(index, with) => {
                ctx.record(|| TraceEvent::Choice { index });
                with
            }
            Alt::Cached(vars, answers, i) => {
                let ans = &answers[i];
                if !kernel::bind_answer(&mut ctx.bindings, &vars, ans) {
                    return Err(StepErr::Fail);
                }
                let delta = &mut ctx.delta;
                let log = |op: &DeltaOp, undo| delta.push((op.clone(), undo));
                kernel::replay_answer(&mut self.db, ans, hooks!(ctx), log).map_err(fatal)?;
                None
            }
            Alt::Yield => None,
        };
        Ok((leaf, with))
    }

    /// Execute the `leaf`-th frontier leaf; `sole` says it is the only one.
    fn execute(&mut self, ctx: &mut Ctx<'p>, leaf: usize, sole: bool) -> StepResult<'p> {
        let (action, off) = self.tree.leaf_at(leaf);
        let bindings = &ctx.bindings;
        let resolve = |t: Term| bindings.resolve(t.offset(off));
        match action.goal() {
            Goal::Fail => return Err(StepErr::Fail),
            Goal::Atom(atom) => {
                if ctx.program.is_base(atom.pred) {
                    ctx.reads.record(atom.pred);
                    let tuples = kernel::matching_tuples(&self.db, atom, resolve);
                    return self.choose(ctx, leaf, Alts::Tuples((action, off), tuples));
                }
                let (cache, mat) = (ctx.cache.as_deref(), ctx.mat);
                let program = ctx.program;
                let (db, call) = (&self.db, || kernel::resolve_atom(atom, resolve));
                match kernel::call_step(program, cache, mat, db, call, sole, hooks!(ctx)) {
                    CallStep::Holds(true) => {}
                    CallStep::Holds(false) => return Err(StepErr::Fail),
                    CallStep::Replay { answers, vars } => {
                        let label = ctx.traced_label(|| Goal::Atom(atom.clone()), off);
                        return self.replay(ctx, leaf, label, vars, answers);
                    }
                    CallStep::Unfold => {
                        return self.choose(ctx, leaf, Alts::Rules((action, off)));
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
                let (op, undo) = kernel::update(&mut self.db, atom, resolve, is_ins, hooks!(ctx))
                    .map_err(fatal)?;
                let changed = undo.is_some();
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
                ctx.delta.push((op, undo));
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
                return self.choose(ctx, leaf, Alts::Branches((action, off)));
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
                        return self.replay(ctx, leaf, label, vars, answers);
                    }
                }
                ctx.stats.iso_enters += 1;
                let at = Marks::here(ctx);
                ctx.record(|| TraceEvent::IsoEnter);
                ctx.emit(|| TraceEvent::SpanEnter {
                    phase: SpanPhase::Isolation,
                    detail: String::new(),
                });
                let block = action.template(0).map(|t| (t, off));
                let solver = ctx.solver(block, self.db.clone());
                let iso = Alts::Iso(Some(solver), Marks::here(ctx), self.db.clone());
                let mut cp = self.checkpoint(at, leaf, iso);
                let yielded = cp.next_alt(ctx, &mut self.db).map_err(fatal)?;
                ctx.emit(|| TraceEvent::SpanExit {
                    phase: SpanPhase::Isolation,
                    detail: if yielded.is_some() { "commit" } else { "fail" }.to_owned(),
                });
                let Some(alt) = yielded else {
                    if let Alts::Iso(Some(solver), ..) = cp.alts {
                        ctx.recycle(solver);
                    }
                    return Err(StepErr::Fail);
                };
                let rewrite = self.take(ctx, leaf, alt)?;
                // Pushed only now, behind the block's first solution: a
                // block that never yields is a plain failed step — no
                // choicepoint counted, and its step's memo key left for
                // `step` to record as refuted outright.
                self.push_cp(ctx, cp)?;
                return Ok(rewrite);
            }
            Goal::True | Goal::Seq(_) | Goal::Par(_) => {
                unreachable!("structural goals are expanded by Template::new")
            }
        }
        // A deterministic step: the leaf is done.
        Ok((leaf, None))
    }

    /// Replay a contiguous subgoal (isolated block or sole-frontier ground
    /// call) from its cached answer set: a choice among the answers. An
    /// empty set fails the step, which correctly feeds the failure memo.
    /// `label` is the subgoal's, present when there is an event stream.
    fn replay(
        &mut self,
        ctx: &mut Ctx<'p>,
        leaf: usize,
        label: Option<String>,
        vars: Vec<Var>,
        answers: Arc<Vec<CachedAnswer>>,
    ) -> StepResult<'p> {
        let detail = || label.clone().expect("labelled when observed");
        ctx.emit(|| TraceEvent::SpanEnter {
            phase: SpanPhase::CacheReplay,
            detail: detail(),
        });
        let result = self.choose(ctx, leaf, Alts::Cached(vars, answers));
        ctx.emit(|| TraceEvent::SpanExit {
            phase: SpanPhase::CacheReplay,
            detail: detail(),
        });
        result
    }

    /// Retry choicepoints, newest first, until an alternative applies.
    /// `Ok(false)` = stack exhausted (overall failure).
    fn backtrack(&mut self, ctx: &mut Ctx<'p>) -> Result<bool, EngineError> {
        loop {
            let depth = self.stack.len();
            let Some(cp) = self.stack.last_mut() else {
                return Ok(false);
            };
            ctx.stats.backtracks += 1;
            ctx.local.observe_backtrack(depth);
            self.tree.rewind(cp.tree);
            #[cfg(debug_assertions)]
            assert_eq!(self.tree.digest(), cp.shape, "a rewind restores the tree");
            let Some(alt) = cp.next_alt(ctx, &mut self.db)? else {
                // Exhausted: the logs, the tree and the database are back
                // where the choicepoint's step started, where a deferred
                // key reads them.
                let cp = self.stack.pop().expect("borrowed above");
                self.tree.guard(self.stack.last().map(|cp| cp.tree));
                if cp.successes_at_push == self.successes {
                    ctx.refute(cp.step_key, &self.tree, &self.db);
                }
                if let Alts::Iso(Some(solver), ..) = cp.alts {
                    ctx.recycle(solver);
                }
                continue;
            };
            let leaf = cp.leaf;
            match self.take(ctx, leaf, alt) {
                Ok((leaf, with)) => {
                    self.tree.edit(leaf, with);
                    return Ok(true);
                }
                Err(StepErr::Fail) => {}
                Err(StepErr::Fatal(e)) => return Err(e),
            }
        }
    }
}
