//! The explicit-state search over ground configurations
//! `(process tree, database)` — the one search behind
//! [`crate::decider`]'s `decide`/`final_states`/`shortest_execution` and
//! [`crate::parallel::solve`], which differ only in [`Order`], [`Stop`] and
//! how they shape the result. docs/ARCHITECTURE.md ("The explicit-state
//! search") describes the node, the claim table, the budget and which
//! test pins which order; docs/PARALLELISM.md the stealing, the
//! termination counter and the branch-and-bound of [`Stop::Minimal`].

use crate::config::{EngineError, Stats};
use crate::engine::goal_num_vars;
use crate::kernel::{fingerprint, Config, FpMap, Hooks, Kernel};
use crate::obs::{LocalMetrics, Observer};
use crate::trace::{SpanPhase, TraceEvent};
use crate::tree::{frontier_len, make_node};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use td_core::{Bindings, Goal, Program, Term, Var};
use td_db::{Database, Delta, DeltaOp, ReadSet};

/// Frontier discipline: which pending node a worker takes next. Successors
/// come from the kernel in its canonical order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Order {
    /// Push in kernel order, take the newest: depth-first, *last* successor
    /// first — the order every pinned `decide` count was taken in.
    LastFirst,
    /// Push reversed, take the newest: depth-first, successor 0 first — the
    /// sequential machine's order, so the first success found is
    /// (near-)label-minimal and prunes nearly everything else. Thieves then
    /// get the highest-index branch, the part this order reaches last.
    FirstFirst,
    /// Push in kernel order, take the oldest: breadth-first by level on one
    /// worker, so the first success is a shortest one.
    ByLevel,
}

/// Stopping rule: what a complete execution means for the rest of the
/// search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Stop {
    /// The first success found is the result and cancels the search.
    First,
    /// The label-minimal success — the sequential machine's first witness —
    /// found by branch-and-bound: every node carries the scheduling/choice
    /// indices that produced it, successes and faults tighten a global
    /// bound, nodes at or above it are pruned, and a key is re-claimed only
    /// at a strictly smaller label.
    Minimal,
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
    pub obs: Option<Arc<Observer>>,
    /// Worker count; a single worker runs on the calling thread.
    pub workers: usize,
    pub order: Order,
    pub stop: Stop,
    /// Expansions allowed. Every claim counts; the one after the `budget`-th
    /// is not expanded and ends the search as [`Found::exhausted`].
    pub budget: u64,
    /// Hand the kernel the observer as its per-probe event sink. Without
    /// it the hot path emits nothing and each worker reports its lifetime
    /// span and its steals instead.
    pub probe_events: bool,
}

/// A persistent (shared-tail) update log: nodes fork at every choice, so
/// the delta along each path is a cons list sharing its prefix with
/// sibling paths.
type DeltaChain = Option<Arc<DeltaLink>>;

struct DeltaLink {
    op: DeltaOp,
    rest: DeltaChain,
}

impl Drop for DeltaLink {
    /// Unlink the tail iteratively: a path of a million updates must not
    /// be dropped by a million nested calls.
    fn drop(&mut self) {
        let mut rest = self.rest.take();
        while let Some(mut link) = rest.and_then(Arc::into_inner) {
            rest = link.rest.take();
        }
    }
}

/// One node of the search; a complete execution when `cfg.tree` is `None`.
pub(crate) struct Task {
    pub cfg: Config,
    delta: DeltaChain,
    /// Scheduling/choice indices of the path here (kept under
    /// [`Stop::Minimal`] only; empty otherwise).
    label: Vec<u32>,
    /// Transitions from the root.
    pub depth: usize,
}

impl Task {
    /// The updates applied on the path to this node, in order.
    pub(crate) fn delta(&self) -> Delta {
        let mut ops = Vec::new();
        let mut cur = &self.delta;
        while let Some(link) = cur {
            ops.push(link.op.clone());
            cur = &link.rest;
        }
        ops.into_iter().rev().collect()
    }
}

/// What one worker accumulates privately, and — merged — what a run did.
pub(crate) struct Work {
    pub stats: Stats,
    pub local: LocalMetrics,
    /// Relations the expansions read. Any worker's exploration is part of
    /// the one transaction, so the union is the transaction's read set
    /// (conservative under [`Stop::First`], exact under [`Stop::Minimal`] —
    /// both sound).
    pub reads: ReadSet,
    /// Configurations claimed: the budget's unit, and the `configs` of a
    /// [`crate::decider::Decision`].
    pub claims: u64,
    /// Nodes taken from another worker's deque.
    pub steals: u64,
    /// Variable-numbering scratch of the fingerprint calls.
    key_vars: Vec<Var>,
    /// Unification scratch of the kernel calls.
    scratch: Bindings,
}

/// The result of a run.
pub(crate) struct Found {
    /// The complete executions the stopping rule kept: at most one, or one
    /// per distinct final database under [`Stop::Finals`].
    pub successes: Vec<Task>,
    /// The fault that decides the run: one was met, and no success the
    /// stopping rule had already settled on stands before it.
    pub fault: Option<EngineError>,
    /// The budget ran out before the stopping rule was satisfied.
    pub exhausted: bool,
    pub work: Work,
}

const CLAIM_SHARDS: usize = 64;

/// The shared state of one run.
struct Run<'s, 'p> {
    search: &'s Search<'p>,
    /// One deque per worker; thieves use the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Nodes queued or in flight; zero means the space is exhausted.
    pending: AtomicUsize,
    /// Cancellation: a success under [`Stop::First`], a fault outside
    /// [`Stop::Minimal`], or the budget.
    halt: AtomicBool,
    claims: AtomicU64,
    /// The claim table, sharded by the fingerprint's high lane (a shard's
    /// own table hashes by the low lane, so its keys still spread over all
    /// of its buckets). A key maps to the smallest label it was claimed at
    /// — the empty label outside [`Stop::Minimal`], which no later claim
    /// can undercut.
    claimed: Vec<Mutex<FpMap<Box<[u32]>>>>,
    successes: Mutex<Vec<Task>>,
    /// First fault, with the label it occurred at ([`Stop::Minimal`] keeps
    /// the label-minimal one: a fault "wins" over a success only if it
    /// precedes it lexicographically, mirroring sequential DFS order).
    error: Mutex<Option<(Vec<u32>, EngineError)>>,
    /// Branch-and-bound label: min over recorded successes and faults.
    /// `has_bound` lets workers skip the lock until a bound exists.
    bound: Mutex<Option<Vec<u32>>>,
    has_bound: AtomicBool,
}

impl<'p> Search<'p> {
    /// The plain elementary-step search on one worker: no cache, no
    /// materializer, no observer, no budget.
    pub(crate) fn new(program: &'p Program) -> Search<'p> {
        Search {
            kernel: Kernel {
                program,
                cache: None,
                mat: None,
            },
            obs: None,
            workers: 1,
            order: Order::LastFirst,
            stop: Stop::First,
            budget: u64::MAX,
            probe_events: false,
        }
    }

    /// Explore from `(goal, db)` until the stopping rule, the budget or a
    /// fault ends it.
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
                answer: (0..nvars).map(Term::var).collect(),
            },
            delta: None,
            label: Vec::new(),
            depth: 0,
        };
        let run = Run {
            search: self,
            queues: (0..self.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending: AtomicUsize::new(1),
            halt: AtomicBool::new(false),
            claims: AtomicU64::new(0),
            claimed: (0..CLAIM_SHARDS).map(|_| Mutex::default()).collect(),
            successes: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            bound: Mutex::new(None),
            has_bound: AtomicBool::new(false),
        };
        run.queues[0]
            .lock()
            .expect("queue poisoned")
            .push_back(root);

        // The calling thread is worker 0; one worker spawns nothing.
        let work = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.workers)
                .map(|wid| {
                    let run = &run;
                    s.spawn(move || run.worker(wid))
                })
                .collect();
            let mut all = run.worker(0);
            for handle in others {
                let w = handle.join().expect("search worker panicked");
                all.reads.merge(&w.reads);
                all.stats.merge(&w.stats);
                all.local.merge(&w.local);
                all.claims += w.claims;
                all.steals += w.steals;
            }
            all
        });
        let successes = run.successes.into_inner().expect("success lock poisoned");
        let error = run.error.into_inner().expect("error lock poisoned");
        let fault = error.and_then(|(elabel, e)| {
            let stands = match (self.stop, successes.first()) {
                (Stop::First, Some(_)) => true,
                // Sequential DFS order: the fault aborts the run only if it
                // precedes the best success.
                (Stop::Minimal, Some(w)) => elabel >= w.label,
                _ => false,
            };
            (!stands).then_some(e)
        });
        Found {
            successes,
            fault,
            exhausted: run.claims.into_inner() > self.budget,
            work,
        }
    }
}

impl Run<'_, '_> {
    /// The sink of the workers' own spans and steals: the observer, unless
    /// the kernel has it as its per-probe sink.
    fn spans(&self) -> Option<&Observer> {
        let search = self.search;
        search.obs.as_deref().filter(|_| !search.probe_events)
    }

    fn worker(&self, wid: usize) -> Work {
        let mut w = Work {
            stats: Stats::default(),
            local: LocalMetrics::new(self.search.obs.is_some()),
            reads: ReadSet::new(),
            claims: 0,
            steals: 0,
            key_vars: Vec::new(),
            scratch: Bindings::new(),
        };
        let spans = self.spans();
        if let Some(o) = spans {
            o.emit(Some(wid as u32), || TraceEvent::SpanEnter {
                phase: SpanPhase::Worker,
                detail: format!("w{wid}"),
            });
        }
        let mut idle_spins = 0u32;
        while !self.halt.load(Ordering::Acquire) {
            let Some(task) = self.take(wid, &mut w) else {
                if self.pending.load(Ordering::Acquire) == 0 {
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
            self.process(wid, task, &mut w);
            // Decremented only after the node's successors are enqueued, so
            // `pending == 0` proves global exhaustion.
            self.pending.fetch_sub(1, Ordering::AcqRel);
        }
        // The aggregate span for this worker's whole lifetime: what the
        // event stream reports where per-step tracing is impossible.
        if let Some(o) = spans {
            let (steps, claimed, stolen) = (w.stats.steps, w.claims, w.steals);
            o.emit(Some(wid as u32), || TraceEvent::SpanExit {
                phase: SpanPhase::Worker,
                detail: format!("w{wid} steps={steps} claimed={claimed} stolen={stolen}"),
            });
        }
        w
    }

    /// The worker's next node under the frontier discipline, else the
    /// oldest node of the first victim that has one.
    fn take(&self, wid: usize, w: &mut Work) -> Option<Task> {
        let queue = |i: usize| self.queues[i].lock().expect("queue poisoned");
        let own = match self.search.order {
            Order::ByLevel => queue(wid).pop_front(),
            Order::LastFirst | Order::FirstFirst => queue(wid).pop_back(),
        };
        own.or_else(|| {
            let n = self.queues.len();
            let mut victims = (1..n).map(|i| (wid + i) % n);
            let (victim, task) = victims.find_map(|v| Some((v, queue(v).pop_front()?)))?;
            w.steals += 1;
            if let Some(o) = self.spans() {
                o.emit(Some(wid as u32), || TraceEvent::WorkerSteal {
                    thief: wid as u32,
                    victim: victim as u32,
                });
            }
            Some(task)
        })
    }

    /// Claim `key` at `label`: granted to the first claimant and, after
    /// that, only to a strictly smaller label — so the lexicographically
    /// minimal path through every configuration is always explored, and
    /// under the empty label every key is claimed exactly once.
    fn claim(&self, key: u128, label: &[u32]) -> bool {
        let shard = &self.claimed[(key >> 64) as usize % CLAIM_SHARDS];
        match shard.lock().expect("claim table poisoned").entry(key) {
            Entry::Occupied(e) if **e.get() <= *label => return false,
            Entry::Occupied(mut e) => drop(e.insert(label.into())),
            Entry::Vacant(e) => drop(e.insert(label.into())),
        }
        true
    }

    /// Pop–claim–budget–expand: the one step of the search.
    fn process(&self, wid: usize, task: Task, w: &mut Work) {
        let Some(tree) = task.cfg.tree.clone() else {
            self.record_success(task);
            return;
        };
        if self.pruned_by_bound(&task) {
            return;
        }
        // Ground configurations: substitutions are already applied to the tree.
        let key = fingerprint(&tree, |t| t, &task.cfg.db, &mut w.key_vars);
        if !self.claim(key, &task.label) {
            w.stats.memo_hits += 1;
            return;
        }
        w.claims += 1;
        if self.claims.fetch_add(1, Ordering::Relaxed) >= self.search.budget {
            self.halt.store(true, Ordering::Release);
            return;
        }
        w.stats.steps += 1;
        w.stats.peak_processes = w.stats.peak_processes.max(frontier_len(&tree));

        // Successors keep the kernel's expansion order, which is what makes
        // path labels agree with sequential depth-first exploration; a fault
        // is labeled at the position the failing successor would have had.
        let search = self.search;
        let (succs, err) = search.kernel.actions(
            &task.cfg,
            &mut Hooks {
                stats: &mut w.stats,
                local: &mut w.local,
                events: search.obs.as_deref().filter(|_| search.probe_events),
                reads: &mut w.reads,
            },
            &mut w.scratch,
        );
        let n = succs.len();
        w.stats.choicepoints += n as u64;
        let label = |i: usize| match search.stop {
            Stop::Minimal => [task.label.as_slice(), &[i as u32]].concat(),
            _ => Vec::new(),
        };
        let children = succs.into_iter().enumerate().map(|(i, (cfg, ops))| Task {
            cfg,
            delta: ops.into_iter().fold(task.delta.clone(), |rest, op| {
                Some(Arc::new(DeltaLink { op, rest }))
            }),
            label: label(i),
            depth: task.depth + 1,
        });
        self.pending.fetch_add(n, Ordering::AcqRel);
        {
            let mut queue = self.queues[wid].lock().expect("queue poisoned");
            match search.order {
                Order::FirstFirst => queue.extend(children.rev()),
                Order::LastFirst | Order::ByLevel => queue.extend(children),
            }
        }
        if let Some(e) = err {
            self.record_error(label(n), e);
        }
    }

    fn record_success(&self, task: Task) {
        let mut kept = self.successes.lock().expect("success lock poisoned");
        let keep = match self.search.stop {
            Stop::First | Stop::Whole => kept.is_empty(),
            Stop::Minimal => kept.first().is_none_or(|w| task.label < w.label),
            Stop::Finals => !kept.iter().any(|w| w.cfg.db.same_content(&task.cfg.db)),
        };
        if !keep {
            return;
        }
        match self.search.stop {
            Stop::First => self.halt.store(true, Ordering::Release),
            Stop::Minimal => {
                kept.clear();
                self.tighten_bound(task.label.clone());
            }
            Stop::Finals | Stop::Whole => {}
        }
        kept.push(task);
    }

    fn record_error(&self, label: Vec<u32>, e: EngineError) {
        let minimal = self.search.stop == Stop::Minimal;
        let mut err = self.error.lock().expect("error lock poisoned");
        if err.as_ref().is_some_and(|(l, _)| !minimal || *l <= label) {
            return;
        }
        if minimal {
            self.tighten_bound(label.clone());
        } else {
            self.halt.store(true, Ordering::Release);
        }
        *err = Some((label, e));
    }

    fn tighten_bound(&self, label: Vec<u32>) {
        let mut bound = self.bound.lock().expect("bound lock poisoned");
        if bound.as_ref().is_none_or(|b| label < *b) {
            *bound = Some(label);
            self.has_bound.store(true, Ordering::Release);
        }
    }

    /// [`Stop::Minimal`] pruning: no success (or earlier fault) at or above
    /// the bound can beat what is already recorded. Labels are unique per
    /// path and the bound belongs to a *terminal* step, so a live node's
    /// label is never a prefix of the bound and `>=` is exact.
    fn pruned_by_bound(&self, task: &Task) -> bool {
        if !self.has_bound.load(Ordering::Acquire) {
            return false;
        }
        let bound = self.bound.lock().expect("bound lock poisoned");
        bound.as_ref().is_some_and(|b| task.label >= *b)
    }
}
