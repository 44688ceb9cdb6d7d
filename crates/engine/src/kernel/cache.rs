//! Macro-steps: what a driver does *instead of* exploring a contiguous
//! subtransaction step by step. [`call_step`] decides how a derived call
//! executes — a materialized-view probe, a replay of its cached answer
//! set, or plain rule unfolding; [`probe_subgoal`] probes (and on a miss,
//! populates) the shared answer cache for a contiguous subgoal, which is
//! how an isolated block is replayed too; [`replay_answer`] re-applies one
//! cached answer as a single transition. The decisions, and what each one
//! charges to [`Hooks`], are made here once, for both drivers.

use super::fingerprint_goal;
use super::Hooks;
use crate::cache::{CacheEntry, CachedAnswer, SubgoalCache};
use crate::config::{EngineConfig, EngineError};
use crate::incremental::Materializer;
use crate::obs::subgoal_label;
use crate::trace::{ProbeOutcome, TraceEvent};
use crate::tree::Template;
use std::sync::Arc;
use td_core::unify::unify_terms;
use td_core::{Atom, Bindings, Goal, Program, Term, Var};
use td_db::{Database, DeltaOp, Undo};

/// What a cache probe resolved to.
pub(crate) enum Probe {
    /// The subgoal's complete answer set, in canonical depth-first yield
    /// order; `vars` are the caller-side variables each answer's values
    /// bind, positionally.
    Replay {
        answers: Arc<Vec<CachedAnswer>>,
        vars: Vec<Var>,
    },
    /// No usable entry (cache off for this subgoal, or it is unsuitable):
    /// the caller must run the lazy elementary path.
    Lazy,
}

/// How a call to a derived predicate executes.
pub(crate) enum CallStep {
    /// A materialized view answered it: the call is a pure query that
    /// holds (leaf erased, no bindings, no delta) or fails outright.
    Holds(bool),
    /// Its cached answer set, as in [`Probe::Replay`].
    Replay {
        answers: Arc<Vec<CachedAnswer>>,
        vars: Vec<Var>,
    },
    /// Neither applies: unfold the predicate's rules.
    Unfold,
}

/// Decide how a call executes on `db`; `call` builds the resolved call,
/// and is asked only when a view or the cache may answer it. `sole` says it
/// is the only frontier action: only then, and only when ground, does it
/// run as a contiguous block — nothing else is schedulable until it
/// finishes — so that its answer set is a function of `(atom, db)` like an
/// isolated block's. A view probe beats the cache, and both beat unfolding.
pub(crate) fn call_step(
    program: &Program,
    cache: Option<&SubgoalCache>,
    mat: Option<&Materializer>,
    db: &Database,
    call: impl FnOnce() -> Atom,
    sole: bool,
    hooks: &mut Hooks<'_>,
) -> CallStep {
    if (cache.is_none() && mat.is_none()) || !sole {
        return CallStep::Unfold;
    }
    let atom = &call();
    if !atom.is_ground() {
        return CallStep::Unfold;
    }
    if let Some(mat) = mat {
        if let Some(holds) = mat.holds(db, atom) {
            hooks.stats.mat_probes += 1;
            // A view probe reads every base relation feeding the
            // materialized fragment.
            for p in mat.base_support() {
                hooks.reads.record(p);
            }
            if let Some(cache) = cache {
                // Materialization supersedes the cache for this
                // predicate; never double-store.
                cache.note_unsuitable();
            }
            return CallStep::Holds(holds);
        }
    }
    if let Some(cache) = cache {
        let subgoal = Goal::Atom(atom.clone());
        let probe = probe_subgoal(program, cache, db, &subgoal, |t| t, hooks);
        if let Probe::Replay { answers, vars } = probe {
            return CallStep::Replay { answers, vars };
        }
    }
    CallStep::Unfold
}

/// Probe the cache for a contiguous subgoal, read through `resolve`,
/// enumerating and inserting the answer set on a miss. Hit/miss counters,
/// per-subgoal tallies and (when `hooks.events` is set) per-probe events are
/// charged to `hooks`; the subgoal label is only rendered when something
/// would consume it.
pub(crate) fn probe_subgoal(
    program: &Program,
    cache: &SubgoalCache,
    db: &Database,
    subgoal: &Goal,
    resolve: impl Fn(Term) -> Term,
    hooks: &mut Hooks<'_>,
) -> Probe {
    let mut vars = Vec::new();
    let key = fingerprint_goal(subgoal, &resolve, db, &mut vars);
    let label = (hooks.local.is_enabled() || hooks.events.is_some())
        .then(|| subgoal_label(&subgoal.map_terms(&mut |t| resolve(t))));
    let note = |hooks: &mut Hooks<'_>, outcome: ProbeOutcome| {
        if let Some(l) = &label {
            hooks.local.observe_cache(l, outcome);
            if let Some(o) = hooks.events {
                o.emit(|| TraceEvent::CacheProbe {
                    subgoal: l.clone(),
                    outcome,
                });
            }
        }
    };
    match cache.lookup(key) {
        Some(CacheEntry::Answers { answers, reads }) => {
            hooks.stats.cache_hits += 1;
            // The macro-step stands in for the full lazy exploration, so
            // the replaying transaction inherits everything it read.
            hooks.reads.merge(&reads);
            note(hooks, ProbeOutcome::Hit);
            Probe::Replay { answers, vars }
        }
        Some(CacheEntry::Unsuitable) => {
            note(hooks, ProbeOutcome::Unsuitable);
            Probe::Lazy
        }
        None => {
            hooks.stats.cache_misses += 1;
            // The subgoal as the enumeration runs it: each free variable
            // renamed to its number in `vars`, the positions a hit binds.
            let number = |v| {
                vars.iter()
                    .position(|w| *w == v)
                    .expect("the walk numbered it")
            };
            let canon = subgoal.map_terms(&mut |t| match resolve(t) {
                Term::Var(v) => Term::var(number(v) as u32),
                val => val,
            });
            match enumerate_answers(program, &canon, vars.len() as u32, db) {
                Some((list, reads)) => {
                    note(hooks, ProbeOutcome::Miss);
                    hooks.reads.merge(&reads);
                    let answers = Arc::new(list);
                    cache.insert(
                        key,
                        CacheEntry::Answers {
                            answers: answers.clone(),
                            reads: Arc::new(reads),
                        },
                    );
                    Probe::Replay { answers, vars }
                }
                None => {
                    note(hooks, ProbeOutcome::Unsuitable);
                    cache.insert(key, CacheEntry::Unsuitable);
                    Probe::Lazy
                }
            }
        }
    }
}

/// Bind a replayed answer's ground values to the subgoal's original
/// variables on the machine's trail. False on clash; the caller's
/// choicepoint mark cleans up partial bindings.
pub(crate) fn bind_answer(bindings: &mut Bindings, vars: &[Var], ans: &CachedAnswer) -> bool {
    vars.iter()
        .zip(&ans.values)
        .all(|(v, val)| unify_terms(bindings, Term::Var(*v), Term::Val(*val)))
}

/// Re-apply a cached answer's state delta (`ans.delta.ops()`) to `db` in
/// place, charging each op to `hooks` as it lands and handing it to `log`
/// with how to take it back, as the lazy path's `update` does; the views
/// ride on the versions it makes. A storage fault is a fault here too,
/// exactly as on the lazy path.
pub(crate) fn replay_answer(
    db: &mut Database,
    ans: &CachedAnswer,
    hooks: &mut Hooks<'_>,
    mut log: impl FnMut(&DeltaOp, Option<Undo>),
) -> Result<(), EngineError> {
    for op in ans.delta.ops() {
        let undo = op
            .apply_mut(db)
            .map_err(|e| EngineError::Db(e.to_string()))?;
        hooks.stats.db_ops += 1;
        log(op, undo);
    }
    Ok(())
}

/// Per-miss budget for answer-set enumeration: a subgoal that does not run
/// to exhaustion within this many elementary steps is marked unsuitable and
/// left to the lazy path.
const CACHE_ENUM_MAX_STEPS: u64 = 20_000;

/// A subgoal with more answers than this is not worth caching (the entry
/// would be large and the replay savings marginal); marked unsuitable.
const CACHE_ENUM_MAX_ANSWERS: usize = 256;

/// Enumerate the *complete* answer set of a canonical subgoal on `db`,
/// in the exhaustive machine's yield order, with duplicates preserved —
/// the replay must be indistinguishable (bindings, delta, order,
/// multiplicity) from running the subgoal lazily. The canonical answer
/// order is *defined* by the sequential driver, so this is the one place
/// the kernel calls back into [`crate::machine`].
///
/// `None` = unsuitable for caching: a fault occurred, an answer was
/// non-ground, or an enumeration bound was exceeded. Callers fall back to
/// the lazy path, which reproduces the original behaviour (including
/// surfacing the fault in its proper context).
///
/// On success the returned [`td_db::ReadSet`] is everything the exhaustive
/// enumeration read — all branches, successful and failed — which is
/// exactly the read dependency of every future replay of this entry.
pub(crate) fn enumerate_answers(
    program: &Program,
    goal: &Goal,
    nvars: u32,
    db: &Database,
) -> Option<(Vec<CachedAnswer>, td_db::ReadSet)> {
    use crate::machine::{Ctx, Solver};
    let config = EngineConfig {
        max_steps: CACHE_ENUM_MAX_STEPS,
        ..EngineConfig::default()
    };
    let tree = Template::new(goal, program);
    let mut ctx = Ctx::new(program, &config, None, None);
    ctx.bindings.alloc(nvars);
    let mut solver = Solver::new(tree.as_ref().map(|t| (t, 0)), db.clone());
    let mut out = Vec::new();
    loop {
        match solver.next_solution(&mut ctx) {
            Ok(true) => {
                if out.len() >= CACHE_ENUM_MAX_ANSWERS {
                    return None;
                }
                let mut values = Vec::with_capacity(nvars as usize);
                for i in 0..nvars {
                    match ctx.bindings.resolve(Term::var(i)) {
                        Term::Val(v) => values.push(v),
                        // A non-ground answer cannot be replayed by value
                        // binding; leave this subgoal to the lazy path.
                        Term::Var(_) => return None,
                    }
                }
                let delta = ctx.delta.iter().map(|(op, _)| op.clone()).collect();
                out.push(CachedAnswer { values, delta });
            }
            Ok(false) => return Some((out, std::mem::take(&mut ctx.reads))),
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Stats;
    use crate::engine::load_init;
    use crate::obs::LocalMetrics;
    use td_db::ReadSet;
    use td_parser::parse_program;

    /// A hit on an α-variant of a cached subgoal binds the caller's
    /// variables in the positions the miss that filled the entry bound its
    /// own: the walk numbers free variables by first occurrence, and the
    /// enumeration ran the subgoal renamed by that numbering.
    #[test]
    fn a_hit_on_a_variant_binds_like_the_miss_that_filled_it() {
        let parsed = parse_program("base t/2. base u/1. init t(1, 2). init t(3, 4).").unwrap();
        let program = &parsed.program;
        let db = load_init(&Database::with_schema_of(program), &parsed.init).unwrap();
        let cache = SubgoalCache::new(64);
        // `t(A, B) * ins.u(B)`, its variables read at `off`.
        let subgoal = |a: u32, b: u32| {
            Goal::seq(vec![
                Goal::atom("t", vec![Term::var(a), Term::var(b)]),
                Goal::ins("u", vec![Term::var(b)]),
            ])
        };
        // What `A` and `B` are bound to by each replayed answer.
        let bound = |(a, b): (u32, u32), off: u32| -> Vec<(Term, Term)> {
            let (mut stats, mut local, mut reads) =
                (Stats::default(), LocalMetrics::new(false), ReadSet::new());
            let mut hooks = Hooks {
                stats: &mut stats,
                local: &mut local,
                events: None,
                reads: &mut reads,
            };
            let resolve = |t: Term| t.offset(off);
            let probe = probe_subgoal(program, &cache, &db, &subgoal(a, b), resolve, &mut hooks);
            let Probe::Replay { answers, vars } = probe else {
                panic!("the subgoal is cacheable");
            };
            let (a, b) = (Term::var(a + off), Term::var(b + off));
            (answers.iter())
                .map(|ans| {
                    let mut bindings = Bindings::new();
                    bindings.alloc(64);
                    assert!(bind_answer(&mut bindings, &vars, ans));
                    (bindings.resolve(a), bindings.resolve(b))
                })
                .collect()
        };
        let expect = [(1, 2), (3, 4)].map(|(a, b)| (Term::int(a), Term::int(b)));
        assert_eq!(bound((7, 3), 0), expect, "the miss");
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        // Renamed apart, with the ids in the other order, and read at an
        // offset: one entry, and `A` still gets `t`'s first column.
        assert_eq!(bound((2, 5), 0), expect);
        assert_eq!(bound((0, 1), 40), expect);
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 2, 1));
    }
}
