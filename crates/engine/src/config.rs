//! Engine configuration, errors, and execution statistics.

use std::fmt;

/// How the engine explores interleavings of concurrent branches.
///
/// TD's concurrent composition `a | b` means *some* interleaving of `a` and
/// `b` executes; a goal is executable if at least one interleaving (together
/// with rule and tuple choices) succeeds. The strategy controls the order in
/// which interleavings are explored and whether scheduling decisions are
/// backtrackable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Depth-first over all scheduling choices, leftmost branch first.
    /// Complete for finite search spaces — this matches the Prolog prototype
    /// the paper's examples were tested on (\[55, 72\]).
    #[default]
    Exhaustive,
    /// Depth-first over all scheduling choices, but branch order is shuffled
    /// per step with the given seed. Complete, and gives every interleaving
    /// a chance — useful for randomized simulation runs that must still find
    /// a successful schedule (Examples 3.2–3.4).
    ExhaustiveRandom(u64),
    /// Fair round-robin rotation over concurrent branches with **no**
    /// backtracking on schedule (rule/tuple choices still backtrack). Fast
    /// for confluent workflow simulations, but incomplete: a goal that only
    /// succeeds under a specific schedule may fail.
    RoundRobin,
    /// Always step the leftmost live branch. Effectively serializes `|`
    /// left-to-right; used as an ablation baseline in the benchmarks.
    Leftmost,
}

impl Strategy {
    /// Does this strategy create scheduling choicepoints?
    pub fn backtracks_schedule(self) -> bool {
        matches!(self, Strategy::Exhaustive | Strategy::ExhaustiveRandom(_))
    }
}

/// Which search machinery runs the executability search.
///
/// This is orthogonal to [`Strategy`]: the strategy fixes the *semantic*
/// exploration order over interleavings, the backend fixes how the host
/// machine walks that space. TD's `|` is semantic concurrency — processes
/// interleave at elementary-step granularity regardless of backend — while
/// the parallel backend merely searches the interleaving space with several
/// OS threads at once.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchBackend {
    /// Single-threaded backtracking machine (the default; supports every
    /// strategy, tracing, and multi-solution enumeration).
    #[default]
    Sequential,
    /// Work-stealing multi-threaded search over the configuration graph.
    /// Used when the strategy is [`Strategy::Exhaustive`], tracing is off,
    /// and one solution is requested; the engine silently falls back to
    /// [`SearchBackend::Sequential`] otherwise (see `docs/PARALLELISM.md`).
    Parallel {
        /// Worker thread count (clamped to 1..=64).
        threads: usize,
        /// When set, the parallel search reports the *same* witness
        /// execution (answer, final database, delta) as the sequential
        /// exhaustive engine, at the cost of exploring past the first
        /// success to prove it lexicographically minimal.
        deterministic: bool,
    },
}

/// Engine limits and options.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Interleaving exploration strategy.
    pub strategy: Strategy,
    /// Abort after this many elementary steps (full TD is RE-complete —
    /// Theorem 4.1 — so a budget is the only way to guarantee termination).
    pub max_steps: u64,
    /// Abort if the choicepoint stack exceeds this depth.
    pub max_stack: usize,
    /// Record an execution trace (costs memory proportional to trace).
    pub trace: bool,
    /// Memoize refuted configurations (process tree up to variable
    /// renaming + database digest, as one 128-bit fingerprint). When a
    /// configuration's whole search subtree has been explored without
    /// success, re-reaching it through a different interleaving fails
    /// immediately. This merges the interleaving lattice (many schedules
    /// pass through the same configurations) and is what keeps
    /// failure-heavy concurrent searches polynomial instead of
    /// exponential. Costs one allocation-free pass over the tree per step
    /// and 16 bytes per refuted configuration. With `solutions(limit > 1)`
    /// it additionally deduplicates solutions that arise from re-reaching
    /// an already exhausted configuration.
    pub memo_failures: bool,
    /// Search machinery: sequential backtracking or the multi-threaded
    /// work-stealing configuration-graph search.
    pub backend: SearchBackend,
    /// Enable the shared subtransaction answer cache (TD tabling): isolated
    /// blocks and sole-frontier ground calls are memoized as
    /// `(bindings, state delta)` answer sets keyed by `(canonical subgoal,
    /// db digest)` and *replayed* on re-reaching the same state, instead of
    /// re-explored. Active only under [`Strategy::Exhaustive`] with tracing
    /// off (other strategies reorder the nested exploration; a trace cannot
    /// be replayed). See `docs/CACHING.md`.
    pub subgoal_cache: bool,
    /// Capacity bound (entries) for the subgoal cache; evicted with CLOCK
    /// second-chance when full.
    pub cache_capacity: usize,
    /// Materialize the Datalog-evaluable derived predicates as incrementally
    /// maintained counted relations: ground sole-frontier calls on them
    /// become indexed probes instead of rule unfoldings, and every committed
    /// base delta maintains the materialization in O(|delta|). Gated like
    /// the subgoal cache (inert under tracing and non-exhaustive
    /// strategies); a no-op when the program has no such predicates. See
    /// `docs/INCREMENTAL.md`.
    pub materialize: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            strategy: Strategy::Exhaustive,
            max_steps: 10_000_000,
            max_stack: 1_000_000,
            trace: false,
            memo_failures: true,
            backend: SearchBackend::Sequential,
            subgoal_cache: false,
            cache_capacity: 65_536,
            materialize: false,
        }
    }
}

impl EngineConfig {
    /// Config with a step budget.
    pub fn with_max_steps(mut self, n: u64) -> EngineConfig {
        self.max_steps = n;
        self
    }

    /// Config with a strategy.
    pub fn with_strategy(mut self, s: Strategy) -> EngineConfig {
        self.strategy = s;
        self
    }

    /// Config with tracing enabled.
    pub fn with_trace(mut self) -> EngineConfig {
        self.trace = true;
        self
    }

    /// Config with a search backend.
    pub fn with_backend(mut self, b: SearchBackend) -> EngineConfig {
        self.backend = b;
        self
    }

    /// Config with the subgoal answer cache enabled.
    pub fn with_subgoal_cache(mut self) -> EngineConfig {
        self.subgoal_cache = true;
        self
    }

    /// Config with a subgoal-cache capacity bound (implies nothing about
    /// `subgoal_cache` itself — combine with [`Self::with_subgoal_cache`]).
    pub fn with_cache_capacity(mut self, n: usize) -> EngineConfig {
        self.cache_capacity = n.max(1);
        self
    }

    /// Config with incremental materialization enabled.
    pub fn with_materialize(mut self) -> EngineConfig {
        self.materialize = true;
        self
    }

    /// Config with the parallel backend at `threads` workers
    /// (nondeterministic witness; `threads <= 1` keeps the sequential
    /// backend).
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.backend = if threads <= 1 {
            SearchBackend::Sequential
        } else {
            SearchBackend::Parallel {
                threads,
                deterministic: false,
            }
        };
        self
    }

    /// The configuration that will *actually* run, after the engine's one
    /// gate is applied to this requested one: parallel search, the subgoal
    /// cache and the materializer are live only under
    /// [`Strategy::Exhaustive`] with tracing off. The cache replays a
    /// subgoal's answers in the canonical exhaustive depth-first order —
    /// any other strategy would yield a different one — and neither a
    /// replayed nor a materialized macro-step has elementary events to
    /// trace; the parallel backend searches the exhaustive space only. A
    /// parallel backend that survives the gate has its `threads` clamped
    /// to `1..=64`.
    ///
    /// [`crate::Engine::solve`] and the sequential machine both read the
    /// gate from here, and the run report echoes the requested and this
    /// effective config side by side, so silent gating is visible instead
    /// of a quiet semantics change.
    pub fn effective(&self) -> EngineConfig {
        let mut eff = self.clone();
        if self.strategy != Strategy::Exhaustive || self.trace {
            eff.backend = SearchBackend::Sequential;
            eff.subgoal_cache = false;
            eff.materialize = false;
        }
        if let SearchBackend::Parallel { threads, .. } = &mut eff.backend {
            *threads = (*threads).clamp(1, 64);
        }
        eff
    }
}

/// Fatal execution errors (distinct from *failure*, which is a normal
/// outcome meaning "no successful execution exists on the explored space").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// An update, negation or builtin needed a ground term but got an
    /// unbound variable (a *floundering* execution — the program violates
    /// its intended modes).
    Instantiation { context: String },
    /// A comparison or arithmetic builtin was applied to a non-integer.
    Type { context: String },
    /// Integer overflow in an arithmetic builtin.
    Overflow { context: String },
    /// The step budget was exhausted before the search concluded.
    StepBudget { steps: u64 },
    /// The choicepoint stack exceeded its limit.
    StackBudget { depth: usize },
    /// Storage-level error (arity mismatch reaching the database layer —
    /// indicates a validation gap upstream).
    Db(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Instantiation { context } => {
                write!(
                    f,
                    "unbound variable where a ground term is required: {context}"
                )
            }
            EngineError::Type { context } => write!(f, "type error: {context}"),
            EngineError::Overflow { context } => write!(f, "integer overflow: {context}"),
            EngineError::StepBudget { steps } => {
                write!(f, "step budget exhausted after {steps} steps")
            }
            EngineError::StackBudget { depth } => {
                write!(f, "choicepoint stack exceeded {depth} entries")
            }
            EngineError::Db(msg) => write!(f, "database error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// How a [`Stats`] field combines across searches: summed, or kept as a
/// high-water mark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fold {
    /// A monotone count; totals add.
    Sum,
    /// A maximum; totals keep the larger.
    Max,
}

/// Declares [`Stats`] from its one field list, so that the struct, the
/// named rows the registry and the per-goal report read ([`Stats::rows`])
/// and the cross-worker fold ([`Stats::merge`]) cannot drift apart.
macro_rules! stats {
    ($($(#[$doc:meta])* $fold:ident $name:ident: $ty:ty,)*) => {
        /// Counters for one execution/search.
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct Stats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl Stats {
            /// Every field as `(name, value, fold)`, in declaration order —
            /// the order of a report's per-goal `counters`.
            #[allow(clippy::unnecessary_cast)]
            pub(crate) fn rows(&self) -> impl Iterator<Item = (&'static str, u64, Fold)> {
                [$((stringify!($name), self.$name as u64, Fold::$fold),)*].into_iter()
            }

            /// Fold another search's (or parallel worker's) counters into
            /// this one: counts add, high-water marks keep the larger.
            pub fn merge(&mut self, other: &Stats) {
                $(self.$name = match Fold::$fold {
                    Fold::Sum => self.$name + other.$name,
                    Fold::Max => self.$name.max(other.$name),
                };)*
            }
        }
    };
}

stats! {
    /// Elementary steps taken (including backtracked ones).
    Sum steps: u64,
    /// Backtracks performed.
    Sum backtracks: u64,
    /// Choicepoints pushed.
    Sum choicepoints: u64,
    /// Rule unfoldings.
    Sum unfolds: u64,
    /// Database updates applied (including backtracked ones).
    Sum db_ops: u64,
    /// Maximum choicepoint stack depth observed.
    Max max_stack: usize,
    /// Isolation blocks entered.
    Sum iso_enters: u64,
    /// Steps avoided because the configuration was already refuted.
    Sum memo_hits: u64,
    /// Peak number of concurrently schedulable actions (the paper's
    /// "number of processes": Example 3.2 grows this at runtime).
    Max peak_processes: usize,
    /// Subgoal-cache lookups that replayed a stored answer set.
    Sum cache_hits: u64,
    /// Subgoal-cache lookups that found nothing (and enumerated).
    Sum cache_misses: u64,
    /// Ground derived-predicate calls answered by a materialized-relation
    /// probe instead of rule unfolding.
    Sum mat_probes: u64,
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps={} backtracks={} choicepoints={} unfolds={} db_ops={} max_stack={} iso={} memo_hits={}",
            self.steps,
            self.backtracks,
            self.choicepoints,
            self.unfolds,
            self.db_ops,
            self.max_stack,
            self.iso_enters,
            self.memo_hits
        )?;
        if self.cache_hits > 0 || self.cache_misses > 0 {
            write!(
                f,
                " cache_hits={} cache_misses={}",
                self.cache_hits, self.cache_misses
            )?;
        }
        if self.mat_probes > 0 {
            write!(f, " mat_probes={}", self.mat_probes)?;
        }
        write!(f, " peak_procs={}", self.peak_processes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_backtracking_classification() {
        assert!(Strategy::Exhaustive.backtracks_schedule());
        assert!(Strategy::ExhaustiveRandom(7).backtracks_schedule());
        assert!(!Strategy::RoundRobin.backtracks_schedule());
        assert!(!Strategy::Leftmost.backtracks_schedule());
    }

    #[test]
    fn config_builders() {
        let c = EngineConfig::default()
            .with_max_steps(500)
            .with_strategy(Strategy::RoundRobin)
            .with_trace();
        assert_eq!(c.max_steps, 500);
        assert_eq!(c.strategy, Strategy::RoundRobin);
        assert!(c.trace);
    }

    #[test]
    fn effective_says_what_runs() {
        let parallel = |threads| SearchBackend::Parallel {
            threads,
            deterministic: true,
        };
        let all = EngineConfig::default()
            .with_subgoal_cache()
            .with_materialize()
            .with_backend(parallel(4));
        let live = all.effective();
        assert_eq!(live.backend, parallel(4));
        assert!(live.subgoal_cache && live.materialize);
        for gated in [
            all.clone().with_trace(),
            all.clone().with_strategy(Strategy::Leftmost),
            all.clone().with_strategy(Strategy::RoundRobin),
            all.clone().with_strategy(Strategy::ExhaustiveRandom(7)),
        ] {
            let eff = gated.effective();
            assert_eq!(eff.backend, SearchBackend::Sequential, "{gated:?}");
            assert!(!eff.subgoal_cache && !eff.materialize, "{gated:?}");
        }
        // One requested worker is still the parallel search, and the
        // worker count is what `parallel::solve` will spawn.
        for (asked, runs) in [(0, 1), (1, 1), (4, 4), (1000, 64)] {
            let eff = all.clone().with_backend(parallel(asked)).effective();
            assert_eq!(eff.backend, parallel(runs));
        }
        assert_eq!(
            EngineConfig::default().with_threads(1).backend,
            SearchBackend::Sequential
        );
    }

    #[test]
    fn stats_merge_sums_counts_and_keeps_high_water_marks() {
        let mut a = Stats {
            steps: 3,
            max_stack: 9,
            mat_probes: 1,
            ..Stats::default()
        };
        let b = Stats {
            steps: 4,
            max_stack: 2,
            peak_processes: 5,
            mat_probes: 6,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(
            (a.steps, a.max_stack, a.peak_processes, a.mat_probes),
            (7, 9, 5, 7)
        );
        let rows: Vec<_> = a.rows().collect();
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0], ("steps", 7, Fold::Sum));
        assert_eq!(rows[5], ("max_stack", 9, Fold::Max));
        assert_eq!(rows[11], ("mat_probes", 7, Fold::Sum));
    }

    #[test]
    fn errors_display() {
        let e = EngineError::StepBudget { steps: 42 };
        assert!(e.to_string().contains("42"));
        let e = EngineError::Instantiation {
            context: "ins.p(_V3)".into(),
        };
        assert!(e.to_string().contains("ins.p(_V3)"));
    }
}
