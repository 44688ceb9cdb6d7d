//! Frontier-action enumeration over ground configurations — the
//! transition relation as the decider and the parallel backend drive it:
//! every enabled step of a configuration at once, where the sequential
//! machine takes one and keeps the rest behind a choicepoint. Both ask
//! [`call_step`], [`update`] and [`replay_answer`] what a step does.

use super::{
    bind_answer, call_step, check_absent, eval_ground_builtin, matching_tuples, num_vars_in_tree,
    probe_subgoal, replay_answer, subst_tree, unify_project, update, BuiltinOut, CallStep, Hooks,
    Probe,
};
use crate::cache::{CachedAnswer, SubgoalCache};
use crate::config::EngineError;
use crate::incremental::Materializer;
use crate::tree::{frontier, leaf_at, make_node, rewrite, sequence, PTree};
use std::sync::Arc;
use td_core::unify::{unify_args, unify_terms};
use td_core::{Goal, Program, Term, Var};
use td_db::{Database, DeltaOp};

/// A scheduling-agnostic configuration of the transition system: live
/// process tree (`None` = complete execution), current database, the
/// variable high-water mark, and the goal's answer terms under the
/// substitutions made so far.
#[derive(Clone)]
pub(crate) struct Config {
    /// Live process tree; `None` = complete (successful) execution.
    pub tree: Option<Arc<PTree>>,
    pub db: Database,
    /// High-water mark of allocated variable ids along this path. Renaming
    /// rules apart from this (rather than from the tree's current maximum)
    /// prevents a fresh rule variable from capturing an answer variable
    /// that no longer occurs in the tree.
    pub nvars: u32,
    /// The goal's answer terms under the substitutions made so far. Tracked
    /// separately from the tree because an answer variable can be solved
    /// away (vanish from the tree) long before the execution completes.
    pub answer: Vec<Term>,
}

impl Config {
    /// Configuration for drivers that do not track answer terms (the
    /// decider's decision problem needs only reachability): the unfold
    /// base is the tree's own variable count — safe exactly because there
    /// are no off-tree answer variables to capture, and it keeps
    /// α-equivalent configurations on identical variable ids.
    pub(crate) fn ground(tree: Arc<PTree>, db: Database) -> Config {
        let nvars = num_vars_in_tree(&tree);
        Config {
            tree: Some(tree),
            db,
            nvars,
            answer: Vec::new(),
        }
    }
}

/// One enabled transition, with its effects already applied: the successor
/// configuration plus the elementary update ops the step performed (one
/// for an update, the replayed delta for a cache macro-step, empty
/// otherwise). Drivers consume it through [`Kernel::apply`].
pub(crate) struct Action {
    tree: Option<Arc<PTree>>,
    db: Database,
    nvars: u32,
    answer: Vec<Term>,
    ops: Vec<DeltaOp>,
}

/// The transition kernel: the program plus the (optional) shared subgoal
/// answer cache that turns contiguous subtransactions into macro-steps, and
/// the (optional) incremental materializer that answers ground calls on
/// materialized derived predicates with an indexed probe.
pub(crate) struct Kernel<'p> {
    pub program: &'p Program,
    pub cache: Option<Arc<SubgoalCache>>,
    pub mat: Option<Arc<Materializer>>,
}

impl Kernel<'_> {
    /// Every configuration reachable from `cfg` in one step, across all
    /// schedules and all nondeterministic choices — frontier paths left to
    /// right, per-leaf alternatives in canonical order (tuple order is
    /// `select`'s sorted order, rule order is program order, answers are
    /// in canonical yield order). That ordering is load-bearing: the
    /// parallel backend's path labels index into it, and they must agree
    /// with sequential depth-first exploration.
    ///
    /// A fault (non-ground update or absence test, storage error, builtin
    /// fault) ends enumeration: the actions produced *before* it are
    /// returned alongside the error, positioned exactly where the failing
    /// successor would have been — deterministic drivers need that index
    /// to order the error among the successors; drivers that abort on any
    /// fault simply drop the actions.
    pub(crate) fn actions(
        &self,
        cfg: &Config,
        hooks: &mut Hooks<'_>,
    ) -> (Vec<Action>, Option<EngineError>) {
        let mut out: Vec<Action> = Vec::new();
        let Some(tree) = &cfg.tree else {
            return (out, None);
        };
        let paths = frontier(tree);
        let sole = paths.len() == 1;
        for path in paths {
            let leaf = leaf_at(tree, &path).clone();
            match leaf {
                Goal::Fail => {}
                Goal::True | Goal::Seq(_) | Goal::Par(_) => {
                    unreachable!("structural goals expanded by make_node")
                }
                Goal::Atom(atom) if self.program.is_base(atom.pred) => {
                    hooks.reads.record(atom.pred);
                    for t in matching_tuples(&cfg.db, &atom) {
                        if let Some((new_tree, new_answer)) =
                            unify_project(tree, &path, None, cfg.nvars, &cfg.answer, |b| {
                                atom.args
                                    .iter()
                                    .zip(t.values())
                                    .all(|(a, v)| unify_terms(b, *a, Term::Val(*v)))
                            })
                        {
                            out.push(Action {
                                tree: new_tree,
                                db: cfg.db.clone(),
                                nvars: cfg.nvars,
                                answer: new_answer,
                                ops: Vec::new(),
                            });
                        }
                    }
                }
                Goal::Atom(atom) => {
                    let (cache, mat) = (self.cache.as_deref(), self.mat.as_deref());
                    match call_step(self.program, cache, mat, &cfg.db, &atom, sole, hooks) {
                        CallStep::Holds(holds) => {
                            if holds {
                                out.push(Action {
                                    tree: rewrite(tree, &path, None),
                                    db: cfg.db.clone(),
                                    nvars: cfg.nvars,
                                    answer: cfg.answer.clone(),
                                    ops: Vec::new(),
                                });
                            }
                            continue;
                        }
                        CallStep::Replay { answers, vars } => {
                            if let Err(e) =
                                self.replay(cfg, tree, &path, &vars, &answers, &mut out, hooks)
                            {
                                return (out, Some(e));
                            }
                            continue;
                        }
                        CallStep::Unfold => {}
                    }
                    for &rid in self.program.rules_for(atom.pred) {
                        let rule = self.program.rule(rid);
                        let base = cfg.nvars;
                        let (head, body) = rule.rename_apart(base);
                        let replacement = make_node(&body);
                        let new_nvars = base + rule.num_vars();
                        if let Some((new_tree, new_answer)) =
                            unify_project(tree, &path, replacement, new_nvars, &cfg.answer, |b| {
                                unify_args(b, &atom.args, &head.args)
                            })
                        {
                            hooks.stats.unfolds += 1;
                            hooks.local.observe_unfold(rid);
                            out.push(Action {
                                tree: new_tree,
                                db: cfg.db.clone(),
                                nvars: new_nvars,
                                answer: new_answer,
                                ops: Vec::new(),
                            });
                        }
                    }
                }
                Goal::NotAtom(atom) => {
                    hooks.reads.record(atom.pred);
                    match check_absent(&cfg.db, &atom) {
                        Err(e) => return (out, Some(e)),
                        Ok(false) => {}
                        Ok(true) => out.push(Action {
                            tree: rewrite(tree, &path, None),
                            db: cfg.db.clone(),
                            nvars: cfg.nvars,
                            answer: cfg.answer.clone(),
                            ops: Vec::new(),
                        }),
                    }
                }
                Goal::Ins(atom) | Goal::Del(atom) => {
                    let is_ins = matches!(leaf_at(tree, &path), Goal::Ins(_));
                    match update(&cfg.db, &atom, is_ins, self.mat.as_deref(), hooks) {
                        Err(e) => return (out, Some(e)),
                        Ok((next, _changed, op)) => {
                            out.push(Action {
                                tree: rewrite(tree, &path, None),
                                db: next,
                                nvars: cfg.nvars,
                                answer: cfg.answer.clone(),
                                ops: vec![op],
                            });
                        }
                    }
                }
                Goal::Builtin(op, terms) => match eval_ground_builtin(op, &terms) {
                    Err(e) => return (out, Some(e)),
                    Ok(BuiltinOut::Fails) => {}
                    Ok(BuiltinOut::Succeeds) => out.push(Action {
                        tree: rewrite(tree, &path, None),
                        db: cfg.db.clone(),
                        nvars: cfg.nvars,
                        answer: cfg.answer.clone(),
                        ops: Vec::new(),
                    }),
                    Ok(BuiltinOut::Binds(v, val)) => {
                        let new_tree = rewrite(tree, &path, None).map(|t| subst_tree(&t, v, val));
                        let new_answer = cfg
                            .answer
                            .iter()
                            .map(|t| if *t == Term::Var(v) { val } else { *t })
                            .collect();
                        out.push(Action {
                            tree: new_tree,
                            db: cfg.db.clone(),
                            nvars: cfg.nvars,
                            answer: new_answer,
                            ops: Vec::new(),
                        });
                    }
                },
                Goal::Choice(branches) => {
                    for b in &branches {
                        out.push(Action {
                            tree: rewrite(tree, &path, make_node(b)),
                            db: cfg.db.clone(),
                            nvars: cfg.nvars,
                            answer: cfg.answer.clone(),
                            ops: Vec::new(),
                        });
                    }
                }
                Goal::Iso(inner) => {
                    // An isolated block runs as a contiguous sub-execution
                    // from the current database — exactly the shape the
                    // subgoal cache stores. Try a replay before the lazy
                    // transform.
                    if let Some(cache) = self.cache.as_deref() {
                        match probe_subgoal(self.program, cache, &cfg.db, &inner, hooks) {
                            Probe::Replay { answers, vars } => {
                                if let Err(e) =
                                    self.replay(cfg, tree, &path, &vars, &answers, &mut out, hooks)
                                {
                                    return (out, Some(e));
                                }
                                continue;
                            }
                            Probe::Lazy => {}
                        }
                    }
                    // Committing to start an isolated block sequences the
                    // whole remaining tree after it (contiguity — the
                    // paper's ⊙); schedules where the block starts later
                    // arise from stepping other frontier actions first.
                    // Bindings made inside the block flow to the
                    // continuation because it is one tree.
                    hooks.stats.iso_enters += 1;
                    let rest = rewrite(tree, &path, None);
                    out.push(Action {
                        tree: sequence(make_node(&inner), rest),
                        db: cfg.db.clone(),
                        nvars: cfg.nvars,
                        answer: cfg.answer.clone(),
                        ops: Vec::new(),
                    });
                }
            }
        }
        (out, None)
    }

    /// Consume a chosen action, yielding the successor configuration and
    /// the elementary ops the transition applied (in order). Enumeration
    /// already carried out the semantics — `apply` is the hand-off where a
    /// driver takes ownership and layers its own bookkeeping (path labels,
    /// delta chains, work queues) on top.
    pub(crate) fn apply(&self, action: Action) -> (Config, Vec<DeltaOp>) {
        (
            Config {
                tree: action.tree,
                db: action.db,
                nvars: action.nvars,
                answer: action.answer,
            },
            action.ops,
        )
    }

    /// One macro-step successor per cached answer: the answer's bindings
    /// applied to the rest of the tree and its delta replayed onto the
    /// database, in canonical answer order.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &self,
        cfg: &Config,
        tree: &Arc<PTree>,
        path: &[usize],
        vars: &[Var],
        answers: &[CachedAnswer],
        out: &mut Vec<Action>,
        hooks: &mut Hooks<'_>,
    ) -> Result<(), EngineError> {
        for ans in answers {
            if let Some((new_tree, new_answer)) =
                unify_project(tree, path, None, cfg.nvars, &cfg.answer, |b| {
                    bind_answer(b, vars, ans)
                })
            {
                out.push(Action {
                    tree: new_tree,
                    db: replay_answer(&cfg.db, ans, self.mat.as_deref(), hooks)?,
                    nvars: cfg.nvars,
                    answer: new_answer,
                    ops: ans.delta.ops().to_vec(),
                });
            }
        }
        Ok(())
    }
}
