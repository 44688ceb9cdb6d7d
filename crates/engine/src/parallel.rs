//! Work-stealing parallel search over the configuration graph.
//!
//! TD's `|` is *semantic* concurrency: processes interleave at
//! elementary-step granularity and the engine must find whether **some**
//! interleaving succeeds. That search — not the object-level processes —
//! is what this module parallelizes. Worker threads cooperatively explore
//! the graph of configurations `(process tree, database)`, the same graph
//! the [`crate::decider`] walks sequentially:
//!
//! * **Scheduler** — each worker owns a deque of pending configurations;
//!   it pushes and pops at the back (depth-first, cache-friendly) and
//!   steals from the *front* of a victim's deque (breadth-first, so thieves
//!   take old, large subtrees). Termination is detected with a global
//!   in-flight counter; no worker exits while work may still be generated.
//! * **Shared memo** — a sharded, mutex-per-shard claim table keyed by the
//!   128-bit configuration fingerprint (`kernel::fingerprint`: the process
//!   tree up to variable renaming, finished with the database digest),
//!   replacing the sequential engine's private refuted-configuration memo.
//!   Claiming is sound for executability because equal keys have identical
//!   reachable configurations: whichever worker claims a key explores its
//!   whole subtree, so no success can be lost to a claim.
//! * **Cancellation** — an atomic stop flag set on first success (in the
//!   default mode), on a fatal error, or on step-budget exhaustion.
//! * **Deterministic mode** — every configuration carries the *path label*
//!   of scheduling/choice indices that produced it. Labels order
//!   lexicographically exactly like the sequential exhaustive engine's
//!   depth-first exploration, so the label-minimal successful execution
//!   *is* the sequential engine's first witness. The parallel search finds
//!   it by branch-and-bound: successes (and fatal errors) tighten a global
//!   label bound, tasks above the bound are pruned, and the memo stores the
//!   minimal label per key (re-expanding only on a strictly smaller label,
//!   which preserves the minimal witness). The search then returns the same
//!   answer, final database and delta as `SearchBackend::Sequential` —
//!   golden tests rely on this.
//!
//! The step budget is shared: each configuration expansion counts as one
//! step against `EngineConfig::max_steps`. That is a coarser unit than the
//! sequential engine's elementary step, so budgets are comparable but not
//! identical across backends.

use crate::cache::SubgoalCache;
use crate::config::{EngineConfig, EngineError, Stats};
use crate::engine::{goal_num_vars, Outcome, Solution};
use crate::incremental::Materializer;
use crate::kernel::{fingerprint, Config as StepConfig, FpMap, FpSet, Hooks, Kernel};
use crate::obs::{LocalMetrics, Observer};
use crate::trace::{SpanPhase, TraceEvent};
use crate::tree::{leaf_count, make_node};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use td_core::{Goal, Program, Term, Var};
use td_db::{Database, Delta, DeltaOp};

/// A persistent (shared-tail) update log: configurations fork at every
/// choice, so the delta along each search path is a cons list sharing its
/// prefix with sibling paths.
enum DeltaChain {
    Nil,
    Cons(DeltaOp, Arc<DeltaChain>),
}

fn delta_push(chain: &Arc<DeltaChain>, op: DeltaOp) -> Arc<DeltaChain> {
    Arc::new(DeltaChain::Cons(op, chain.clone()))
}

fn delta_collect(chain: &Arc<DeltaChain>) -> Delta {
    let mut ops = Vec::new();
    let mut cur = chain;
    while let DeltaChain::Cons(op, rest) = &**cur {
        ops.push(op.clone());
        cur = rest;
    }
    ops.into_iter().rev().collect()
}

/// One pending configuration: the kernel's scheduling-agnostic
/// [`StepConfig`] plus this backend's bookkeeping (persistent delta chain,
/// deterministic-mode path label).
struct Task {
    cfg: StepConfig,
    delta: Arc<DeltaChain>,
    /// Scheduling/choice path label (`Some` only in deterministic mode).
    label: Option<Vec<u32>>,
}

fn next_label(parent: &Option<Vec<u32>>, idx: usize) -> Option<Vec<u32>> {
    parent.as_ref().map(|l| {
        let mut l2 = Vec::with_capacity(l.len() + 1);
        l2.extend_from_slice(l);
        l2.push(idx as u32);
        l2
    })
}

/// A recorded successful execution.
struct Witness {
    db: Database,
    answer: Vec<Term>,
    delta: Delta,
    label: Option<Vec<u32>>,
}

const MEMO_SHARDS: usize = 64;

/// Sharded claim table over configuration fingerprints. Lock-light: each
/// key maps to one of [`MEMO_SHARDS`] independent mutexes, so workers
/// rarely contend.
struct Memo {
    shards: Vec<Mutex<MemoShard>>,
}

#[derive(Default)]
struct MemoShard {
    /// Fast mode: claimed keys.
    claimed: FpSet,
    /// Deterministic mode: minimal label seen per key.
    labeled: FpMap<Vec<u32>>,
}

impl Memo {
    fn new() -> Memo {
        Memo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// The shard comes from the fingerprint's high lane; the shard's own
    /// tables hash by the low lane, so one shard's keys still spread over
    /// all of its buckets.
    fn shard_for(&self, key: u128) -> &Mutex<MemoShard> {
        &self.shards[(key >> 64) as usize % MEMO_SHARDS]
    }

    /// Claim a key outright; false means some worker already owns it.
    fn claim(&self, key: u128) -> bool {
        let mut shard = self.shard_for(key).lock().expect("memo poisoned");
        shard.claimed.insert(key)
    }

    /// Claim a key at a label; succeeds only for a strictly smaller label
    /// than any seen before, so the lexicographically minimal path through
    /// every configuration is always explored.
    fn claim_labeled(&self, key: u128, label: &[u32]) -> bool {
        let mut shard = self.shard_for(key).lock().expect("memo poisoned");
        match shard.labeled.entry(key) {
            Entry::Occupied(mut e) => {
                if e.get().as_slice() <= label {
                    false
                } else {
                    e.insert(label.to_vec());
                    true
                }
            }
            Entry::Vacant(e) => {
                e.insert(label.to_vec());
                true
            }
        }
    }
}

struct Shared<'p> {
    /// The shared transition kernel (program + optional subgoal cache);
    /// workers only decide which configuration to expand next.
    kernel: Kernel<'p>,
    deterministic: bool,
    max_steps: u64,
    /// One work deque per worker; owner uses the back, thieves the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks queued or in flight; zero means the search space is exhausted.
    pending: AtomicUsize,
    /// Global cancellation (first success in fast mode, fatal error,
    /// budget exhaustion).
    stop: AtomicBool,
    /// Shared step counter against `max_steps`.
    steps: AtomicU64,
    budget_hit: AtomicBool,
    memo: Memo,
    best: Mutex<Option<Witness>>,
    /// Fatal error with the label it occurred at (deterministic mode keeps
    /// the label-minimal one; an error "wins" over a success only if it
    /// precedes it lexicographically, mirroring sequential DFS order).
    error: Mutex<Option<(Option<Vec<u32>>, EngineError)>>,
    /// Branch-and-bound label (deterministic mode): min over recorded
    /// successes and errors. `has_bound` lets workers skip the lock until
    /// a bound exists.
    bound: Mutex<Option<Vec<u32>>>,
    has_bound: AtomicBool,
    /// Observability sink. The hot path never touches it directly: workers
    /// accumulate into their private [`WorkerOut`] and the registry absorbs
    /// the merged batch once, after the scope joins. Only the aggregate
    /// worker-lifetime spans and steal events go through it live.
    obs: Option<Arc<Observer>>,
}

/// Everything one worker accumulates privately: flat [`Stats`], the
/// observability batch, and the claim/steal tallies the worker-exit span
/// reports.
struct WorkerOut {
    stats: Stats,
    local: LocalMetrics,
    /// Relations this worker's expansions read. Merged across workers at
    /// the end: any worker's exploration is part of the one transaction,
    /// so the union is the transaction's read set (conservative in fast
    /// mode, exact in deterministic mode — both sound).
    reads: td_db::ReadSet,
    /// Configurations this worker claimed in the shared memo.
    claimed: u64,
    /// Tasks this worker stole from other workers' queues.
    stolen: u64,
    /// Variable-numbering scratch of this worker's fingerprint calls.
    key_vars: Vec<Var>,
}

impl WorkerOut {
    fn new(observed: bool) -> WorkerOut {
        WorkerOut {
            stats: Stats::default(),
            local: LocalMetrics::new(observed),
            reads: td_db::ReadSet::new(),
            claimed: 0,
            stolen: 0,
            key_vars: Vec::new(),
        }
    }
}

impl Shared<'_> {
    fn record_success(&self, task: Task) {
        let label = task.label.clone();
        let w = Witness {
            db: task.cfg.db,
            answer: task.cfg.answer,
            delta: delta_collect(&task.delta),
            label: label.clone(),
        };
        {
            let mut best = self.best.lock().expect("witness lock poisoned");
            let better = match &*best {
                None => true,
                Some(b) => match (&label, &b.label) {
                    (Some(l), Some(bl)) => l < bl,
                    _ => false,
                },
            };
            if !better {
                return;
            }
            *best = Some(w);
        }
        if self.deterministic {
            self.tighten_bound(label);
        } else {
            self.stop.store(true, Ordering::Release);
        }
    }

    fn record_error(&self, label: Option<Vec<u32>>, e: EngineError) {
        {
            let mut err = self.error.lock().expect("error lock poisoned");
            let better = match &*err {
                None => true,
                // `Option<Vec<u32>>` orders labels lexicographically; in
                // deterministic mode both sides are always `Some`.
                Some((el, _)) => self.deterministic && label < *el,
            };
            if !better {
                return;
            }
            *err = Some((label.clone(), e));
        }
        if self.deterministic {
            self.tighten_bound(label);
        } else {
            self.stop.store(true, Ordering::Release);
        }
    }

    fn tighten_bound(&self, label: Option<Vec<u32>>) {
        let Some(l) = label else { return };
        let mut bound = self.bound.lock().expect("bound lock poisoned");
        if bound.as_ref().is_none_or(|b| l < *b) {
            *bound = Some(l);
            self.has_bound.store(true, Ordering::Release);
        }
    }

    /// Deterministic-mode pruning: no success (or earlier error) at or
    /// above the bound can beat what is already recorded. Labels are
    /// unique per path and the bound belongs to a *terminal* step, so a
    /// live task's label is never a prefix of the bound and `>=` is exact.
    fn pruned_by_bound(&self, task: &Task) -> bool {
        if !self.deterministic || !self.has_bound.load(Ordering::Acquire) {
            return false;
        }
        let bound = self.bound.lock().expect("bound lock poisoned");
        match (&task.label, &*bound) {
            (Some(l), Some(b)) => l >= b,
            _ => false,
        }
    }
}

/// Run the parallel search: the counterpart of `Engine::solve` for
/// `SearchBackend::Parallel`, with the worker count
/// `EngineConfig::effective` clamped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve(
    program: &Program,
    config: &EngineConfig,
    goal: &Goal,
    db: &Database,
    nworkers: usize,
    deterministic: bool,
    cache: Option<Arc<SubgoalCache>>,
    mat: Option<Arc<Materializer>>,
    obs: Option<Arc<Observer>>,
) -> Result<Outcome, EngineError> {
    let nvars = goal_num_vars(goal);
    let root = Task {
        cfg: StepConfig {
            tree: make_node(goal),
            db: db.clone(),
            nvars,
            answer: (0..nvars).map(Term::var).collect(),
        },
        delta: Arc::new(DeltaChain::Nil),
        label: deterministic.then(Vec::new),
    };
    let shared = Shared {
        kernel: Kernel {
            program,
            cache,
            mat,
        },
        deterministic,
        max_steps: config.max_steps,
        queues: (0..nworkers).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: AtomicUsize::new(1),
        stop: AtomicBool::new(false),
        steps: AtomicU64::new(0),
        budget_hit: AtomicBool::new(false),
        memo: Memo::new(),
        best: Mutex::new(None),
        error: Mutex::new(None),
        bound: Mutex::new(None),
        has_bound: AtomicBool::new(false),
        obs,
    };
    shared.queues[0]
        .lock()
        .expect("queue poisoned")
        .push_back(root);

    if let Some(o) = &shared.obs {
        o.emit(None, || TraceEvent::SpanEnter {
            phase: SpanPhase::Solve,
            detail: goal.to_string(),
        });
    }
    let mut worker_outs = Vec::with_capacity(nworkers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nworkers)
            .map(|wid| {
                let shared = &shared;
                s.spawn(move || worker(shared, wid, nworkers))
            })
            .collect();
        for h in handles {
            worker_outs.push(h.join().expect("search worker panicked"));
        }
    });

    let mut stats = Stats::default();
    let mut merged = LocalMetrics::new(shared.obs.is_some());
    let mut reads = td_db::ReadSet::new();
    let (mut claimed, mut stolen) = (0u64, 0u64);
    for w in &worker_outs {
        reads.merge(&w.reads);
        stats.merge(&w.stats);
        merged.merge(&w.local);
        claimed += w.claimed;
        stolen += w.stolen;
    }
    if let Some(o) = &shared.obs {
        o.registry.absorb(program, &stats, &merged);
        o.registry.add_counter("worker_claims", claimed);
        o.registry.add_counter("worker_steals", stolen);
        o.emit(None, || TraceEvent::SpanExit {
            phase: SpanPhase::Solve,
            detail: format!("workers={nworkers} steps={}", stats.steps),
        });
    }

    let best = shared.best.into_inner().expect("witness lock poisoned");
    let error = shared.error.into_inner().expect("error lock poisoned");
    if let Some((elabel, e)) = error {
        let error_wins = match &best {
            None => true,
            // Deterministic mode replays sequential DFS order: the error
            // aborts the run only if it precedes the best success. In fast
            // mode any found success commits.
            Some(w) => deterministic && elabel < w.label,
        };
        if error_wins {
            return Err(e);
        }
    }
    // A budget hit invalidates a deterministic run even when a success was
    // found: without exhausting the (pruned) space, the recorded witness is
    // not yet *proven* minimal, and returning it would silently break the
    // same-witness-as-sequential contract. Fast mode keeps any success it
    // found — any witness is valid there.
    if shared.budget_hit.load(Ordering::Acquire) && (deterministic || best.is_none()) {
        return Err(EngineError::StepBudget { steps: stats.steps });
    }
    match best {
        Some(w) => Ok(Outcome::Success(Box::new(Solution {
            db: w.db,
            answer: w.answer,
            delta: w.delta,
            reads,
            stats,
            trace: crate::trace::Trace { events: Vec::new() },
        }))),
        None => Ok(Outcome::Failure { stats }),
    }
}

fn worker(shared: &Shared<'_>, wid: usize, nworkers: usize) -> WorkerOut {
    let mut w = WorkerOut::new(shared.obs.is_some());
    if let Some(o) = &shared.obs {
        o.emit(Some(wid as u32), || TraceEvent::SpanEnter {
            phase: SpanPhase::Worker,
            detail: format!("w{wid}"),
        });
    }
    let mut idle_spins = 0u32;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Some(task) = pop_or_steal(shared, wid, nworkers, &mut w) else {
            if shared.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            idle_spins += 1;
            if idle_spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            continue;
        };
        idle_spins = 0;
        process(shared, wid, task, &mut w);
        // Decremented only after the task's successors are enqueued, so
        // `pending == 0` proves global exhaustion.
        shared.pending.fetch_sub(1, Ordering::AcqRel);
    }
    // The aggregate span for this worker's whole lifetime: what the event
    // stream reports where per-step tracing is impossible.
    if let Some(o) = &shared.obs {
        let (steps, claimed, stolen) = (w.stats.steps, w.claimed, w.stolen);
        o.emit(Some(wid as u32), || TraceEvent::SpanExit {
            phase: SpanPhase::Worker,
            detail: format!("w{wid} steps={steps} claimed={claimed} stolen={stolen}"),
        });
    }
    w
}

fn pop_or_steal(
    shared: &Shared<'_>,
    wid: usize,
    nworkers: usize,
    w: &mut WorkerOut,
) -> Option<Task> {
    if let Some(t) = shared.queues[wid]
        .lock()
        .expect("queue poisoned")
        .pop_back()
    {
        return Some(t);
    }
    for i in 1..nworkers {
        let victim = (wid + i) % nworkers;
        if let Some(t) = shared.queues[victim]
            .lock()
            .expect("queue poisoned")
            .pop_front()
        {
            w.stolen += 1;
            if let Some(o) = &shared.obs {
                o.emit(Some(wid as u32), || TraceEvent::WorkerSteal {
                    thief: wid as u32,
                    victim: victim as u32,
                });
            }
            return Some(t);
        }
    }
    None
}

fn process(shared: &Shared<'_>, wid: usize, task: Task, w: &mut WorkerOut) {
    let Some(tree) = task.cfg.tree.clone() else {
        shared.record_success(task);
        return;
    };
    if shared.pruned_by_bound(&task) {
        return;
    }
    // Ground driver: substitutions are already applied to the tree.
    let key = fingerprint(&tree, |t| t, &task.cfg.db, &mut w.key_vars);
    let claimed = match &task.label {
        Some(l) => shared.memo.claim_labeled(key, l),
        None => shared.memo.claim(key),
    };
    if !claimed {
        w.stats.memo_hits += 1;
        return;
    }
    w.claimed += 1;
    let step = shared.steps.fetch_add(1, Ordering::Relaxed) + 1;
    if step > shared.max_steps {
        shared.budget_hit.store(true, Ordering::Release);
        shared.stop.store(true, Ordering::Release);
        return;
    }
    w.stats.steps += 1;
    w.stats.peak_processes = w.stats.peak_processes.max(leaf_count(&tree));

    let (succs, err) = expand(shared, &task, w);
    w.stats.choicepoints += succs.len() as u64;
    // Reversed: the owner pops from the back, so pushing high-index
    // successors first makes it explore successor 0 next — sequential
    // depth-first order. In deterministic mode this is what makes
    // branch-and-bound effective: the first success found is (near-)minimal
    // and prunes nearly everything else. Thieves take from the front, i.e.
    // the *highest*-index branch — the part of the space depth-first order
    // would reach last.
    for t in succs.into_iter().rev() {
        shared.pending.fetch_add(1, Ordering::AcqRel);
        shared.queues[wid]
            .lock()
            .expect("queue poisoned")
            .push_back(t);
    }
    if let Some((label, e)) = err {
        shared.record_error(label, e);
    }
}

/// Successor tasks generated before a fatal error (if any). Successors keep
/// the kernel's expansion order — frontier paths left to right, then the
/// per-action alternatives in their canonical order — which is what makes
/// path labels agree with sequential depth-first exploration.
type Expansion = (Vec<Task>, Option<(Option<Vec<u32>>, EngineError)>);

/// Expand one configuration through the shared transition kernel, wrapping
/// each successor in this backend's bookkeeping: a path label indexed by
/// the successor's position (deterministic mode), and the task's persistent
/// delta chain extended with whatever ops the transition applied. A fatal
/// error is labeled at the position the failing successor would have had,
/// mirroring sequential DFS order. Per-probe observability events are
/// deliberately suppressed on this hot path (`events: None`); the
/// aggregate worker spans carry the story instead.
fn expand(shared: &Shared<'_>, task: &Task, w: &mut WorkerOut) -> Expansion {
    let (actions, err) = shared.kernel.actions(
        &task.cfg,
        &mut Hooks {
            stats: &mut w.stats,
            local: &mut w.local,
            events: None,
            reads: &mut w.reads,
        },
    );
    let mut out: Vec<Task> = Vec::with_capacity(actions.len());
    for a in actions {
        let label = next_label(&task.label, out.len());
        let (cfg, ops) = shared.kernel.apply(a);
        let mut delta = task.delta.clone();
        for op in ops {
            delta = delta_push(&delta, op);
        }
        out.push(Task { cfg, delta, label });
    }
    let err = err.map(|e| (next_label(&task.label, out.len()), e));
    (out, err)
}

#[cfg(test)]
mod tests {
    use crate::config::{EngineConfig, EngineError, SearchBackend};
    use crate::engine::{load_init, Engine};
    use td_db::Database;
    use td_parser::parse_program;

    fn backends(threads: usize, deterministic: bool) -> (EngineConfig, EngineConfig) {
        (
            EngineConfig::default(),
            EngineConfig::default().with_backend(SearchBackend::Parallel {
                threads,
                deterministic,
            }),
        )
    }

    fn setup(src: &str) -> (td_core::Program, Database, Vec<td_core::Goal>) {
        let parsed = parse_program(src).expect("test program parses");
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).expect("init loads");
        let goals = parsed.goals.iter().map(|g| g.goal.clone()).collect();
        (parsed.program, db, goals)
    }

    const TRANSFER: &str = "
        base bal/2.
        init bal(a, 10). init bal(b, 0).
        move(F, T, N) <- bal(F, X) * X >= N * del.bal(F, X)
            * Y is X - N * ins.bal(F, Y)
            * bal(T, Z) * del.bal(T, Z) * W is Z + N * ins.bal(T, W).
        ?- move(a, b, 4) | move(a, b, 6).
    ";

    #[test]
    fn parallel_agrees_on_success() {
        let (program, db, goals) = setup(TRANSFER);
        let (seq_cfg, par_cfg) = backends(4, false);
        let seq = Engine::with_config(program.clone(), seq_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let par = Engine::with_config(program, par_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        assert!(seq.is_success());
        assert!(par.is_success());
        assert!(seq
            .solution()
            .unwrap()
            .db
            .same_content(&par.solution().unwrap().db));
    }

    #[test]
    fn parallel_agrees_on_failure() {
        let src = "
            base flag/1.
            init flag(up).
            toggle <- del.flag(up) * ins.flag(down).
            ?- toggle * flag(up).
        ";
        let (program, db, goals) = setup(src);
        let (seq_cfg, par_cfg) = backends(4, false);
        let seq = Engine::with_config(program.clone(), seq_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let par = Engine::with_config(program, par_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        assert!(!seq.is_success());
        assert!(!par.is_success());
    }

    #[test]
    fn deterministic_mode_matches_sequential_witness() {
        // Several distinct successful executions with different answers
        // and different deltas: the deterministic parallel backend must
        // report exactly the sequential engine's first witness.
        let src = "
            base item/1.
            init item(1). init item(2). init item(3).
            take(X) <- item(X) * del.item(X).
            ?- take(X) | take(Y).
        ";
        let (program, db, goals) = setup(src);
        let (seq_cfg, par_cfg) = backends(4, true);
        let seq = Engine::with_config(program.clone(), seq_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let par = Engine::with_config(program, par_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let (s, p) = (seq.solution().unwrap(), par.solution().unwrap());
        assert_eq!(s.answer, p.answer);
        assert_eq!(s.delta.ops(), p.delta.ops());
        assert!(s.db.same_content(&p.db));
    }

    #[test]
    fn parallel_step_budget_errors_not_fails() {
        let src = "
            base n/1.
            init n(0).
            spin <- n(X) * del.n(X) * Y is X + 1 * ins.n(Y) * spin.
            ?- spin.
        ";
        let (program, db, goals) = setup(src);
        let cfg =
            EngineConfig::default()
                .with_max_steps(200)
                .with_backend(SearchBackend::Parallel {
                    threads: 4,
                    deterministic: false,
                });
        let got = Engine::with_config(program, cfg).solve(&goals[0], &db);
        assert!(matches!(got, Err(EngineError::StepBudget { .. })));
    }

    #[test]
    fn single_worker_parallel_backend_works() {
        let (program, db, goals) = setup(TRANSFER);
        let cfg = EngineConfig::default().with_backend(SearchBackend::Parallel {
            threads: 1,
            deterministic: false,
        });
        let got = Engine::with_config(program, cfg)
            .solve(&goals[0], &db)
            .unwrap();
        assert!(got.is_success());
    }
}
