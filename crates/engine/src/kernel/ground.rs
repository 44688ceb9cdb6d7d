//! Frontier-action enumeration over ground configurations — the
//! transition relation as the explicit-state search (`crate::search`)
//! drives it: every enabled step of a configuration at once, where the
//! sequential machine takes one and keeps the rest behind a choicepoint.
//! Both ask [`call_step`], [`update`] and [`replay_answer`] what a step does.

use super::{
    bind_answer, bind_tuple, builtin_args, call_step, check_absent, eval_ground_builtin,
    matching_tuples, probe_subgoal, replay_answer, resolve_atom, subst_tree, unify_head,
    unify_project, update, BuiltinOut, CallStep, Hooks, Probe,
};
use crate::cache::{CachedAnswer, SubgoalCache};
use crate::compiled::Compiled;
use crate::config::EngineError;
use crate::incremental::Materializer;
use crate::tree::{frontier_len, leaf_at, rewrite, sequence, PTree};
use std::sync::Arc;
use td_core::{Bindings, Goal, Program, Term, Var};
use td_db::{Database, DeltaOp};

/// A scheduling-agnostic configuration of the transition system: live
/// process tree (`None` = complete execution), current database, the
/// variable high-water mark, and the goal's answer terms under the
/// substitutions made so far.
#[derive(Clone)]
pub(crate) struct Config {
    /// Live process tree; `None` = complete (successful) execution.
    pub tree: Option<PTree>,
    pub db: Database,
    /// High-water mark of allocated variable ids along this path. Reading
    /// rules at this offset (rather than at the tree's current maximum)
    /// prevents a fresh rule variable from capturing an answer variable
    /// that no longer occurs in the tree.
    pub nvars: u32,
    /// The goal's answer terms under the substitutions made so far. Tracked
    /// separately from the tree because an answer variable can be solved
    /// away (vanish from the tree) long before the execution completes.
    pub answer: Vec<Term>,
}

impl Config {
    /// The successor that differs from `self` in its tree only.
    fn with_tree(&self, tree: Option<PTree>) -> Successor {
        let next = Config {
            tree,
            db: self.db.clone(),
            nvars: self.nvars,
            answer: self.answer.clone(),
        };
        (next, Vec::new())
    }
}

/// One enabled transition, with its effects already applied: the successor
/// configuration plus the elementary update ops the step performed (one
/// for an update, the replayed delta for a cache macro-step, empty
/// otherwise).
pub(crate) type Successor = (Config, Vec<DeltaOp>);

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
    /// schedules and all nondeterministic choices — frontier leaves left to
    /// right, per-leaf alternatives in canonical order (tuple order is
    /// `select`'s sorted order, rule order is program order, answers are
    /// in canonical yield order). That ordering is load-bearing: the
    /// search's path labels index into it, and they must agree with
    /// sequential depth-first exploration.
    ///
    /// A fault (non-ground update or absence test, storage error, builtin
    /// fault) ends enumeration: the successors produced *before* it are
    /// returned alongside the error, positioned exactly where the failing
    /// successor would have been — the label-minimal stopping rule needs
    /// that index to order the error among the successors.
    ///
    /// `scratch` is the caller's unification store, all-unbound between
    /// calls (see [`unify_project`]).
    pub(crate) fn actions(
        &self,
        cfg: &Config,
        hooks: &mut Hooks<'_>,
        scratch: &mut Bindings,
    ) -> (Vec<Successor>, Option<EngineError>) {
        let mut out: Vec<Successor> = Vec::new();
        let Some(tree) = &cfg.tree else {
            return (out, None);
        };
        let n = frontier_len(tree);
        let sole = n == 1;
        let compiled = Compiled::of(self.program);
        for leaf in 0..n {
            // The leaf's terms read at its offset: there is no binding
            // store, every substitution is already in the tree.
            let (action, off) = leaf_at(tree, leaf);
            let shift = |t: Term| t.offset(off);
            match action.goal() {
                Goal::Fail => {}
                Goal::True | Goal::Seq(_) | Goal::Par(_) => {
                    unreachable!("structural goals expanded by make_node")
                }
                Goal::Atom(atom) if self.program.is_base(atom.pred) => {
                    hooks.reads.record(atom.pred);
                    for t in matching_tuples(&cfg.db, atom, shift) {
                        out.extend(unify_project(scratch, cfg, leaf, None, cfg.nvars, |b| {
                            bind_tuple(b, (atom, off), &t)
                        }));
                    }
                }
                Goal::Atom(atom) => {
                    let (cache, mat) = (self.cache.as_deref(), self.mat.as_deref());
                    let call = || resolve_atom(atom, shift);
                    match call_step(self.program, cache, mat, &cfg.db, call, sole, hooks) {
                        CallStep::Holds(holds) => {
                            if holds {
                                out.push(cfg.with_tree(rewrite(tree, leaf, None)));
                            }
                            continue;
                        }
                        CallStep::Replay { answers, vars } => {
                            if let Err(e) =
                                self.replay(cfg, leaf, &vars, &answers, &mut out, hooks, scratch)
                            {
                                return (out, Some(e));
                            }
                            continue;
                        }
                        CallStep::Unfold => {}
                    }
                    for &rid in action.rules() {
                        let rule = self.program.rule(rid);
                        let nvars = cfg.nvars + rule.num_vars();
                        let body = compiled.body(self.program, rid).map(|t| t.tree(cfg.nvars));
                        if let Some(next) = unify_project(scratch, cfg, leaf, body, nvars, |b| {
                            unify_head(b, atom, off, rule, cfg.nvars)
                        }) {
                            hooks.stats.unfolds += 1;
                            hooks.local.observe_unfold(rid);
                            out.push(next);
                        }
                    }
                }
                Goal::NotAtom(atom) => {
                    hooks.reads.record(atom.pred);
                    match check_absent(&cfg.db, atom, shift) {
                        Err(e) => return (out, Some(e)),
                        Ok(false) => {}
                        Ok(true) => out.push(cfg.with_tree(rewrite(tree, leaf, None))),
                    }
                }
                goal @ (Goal::Ins(atom) | Goal::Del(atom)) => {
                    let is_ins = matches!(goal, Goal::Ins(_));
                    let mut db = cfg.db.clone();
                    match update(&mut db, atom, shift, is_ins, hooks) {
                        Err(e) => return (out, Some(e)),
                        Ok((op, _)) => {
                            let succ = Config {
                                tree: rewrite(tree, leaf, None),
                                db,
                                nvars: cfg.nvars,
                                answer: cfg.answer.clone(),
                            };
                            out.push((succ, vec![op]));
                        }
                    }
                }
                Goal::Builtin(op, terms) => {
                    let args = builtin_args(terms, shift);
                    match eval_ground_builtin(*op, &args[..terms.len()]) {
                        Err(e) => return (out, Some(e)),
                        Ok(BuiltinOut::Fails) => {}
                        Ok(BuiltinOut::Succeeds) => {
                            out.push(cfg.with_tree(rewrite(tree, leaf, None)));
                        }
                        Ok(BuiltinOut::Binds(v, val)) => {
                            let new_tree =
                                rewrite(tree, leaf, None).map(|t| subst_tree(&t, v, val));
                            let (mut succ, ops) = cfg.with_tree(new_tree);
                            for t in &mut succ.answer {
                                if *t == Term::Var(v) {
                                    *t = val;
                                }
                            }
                            out.push((succ, ops));
                        }
                    }
                }
                Goal::Choice(branches) => {
                    for i in 0..branches.len() {
                        out.push(cfg.with_tree(rewrite(tree, leaf, action.tree(i, off))));
                    }
                }
                Goal::Iso(inner) => {
                    // An isolated block runs as a contiguous sub-execution
                    // from the current database — exactly the shape the
                    // subgoal cache stores. Try a replay before the lazy
                    // transform.
                    if let Some(cache) = self.cache.as_deref() {
                        match probe_subgoal(self.program, cache, &cfg.db, inner, shift, hooks) {
                            Probe::Replay { answers, vars } => {
                                if let Err(e) = self
                                    .replay(cfg, leaf, &vars, &answers, &mut out, hooks, scratch)
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
                    let rest = rewrite(tree, leaf, None);
                    out.push(cfg.with_tree(sequence(action.tree(0, off), rest)));
                }
            }
        }
        (out, None)
    }

    /// One macro-step successor per cached answer: the answer's bindings
    /// applied to the rest of the tree and its delta replayed onto the
    /// database, in canonical answer order.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &self,
        cfg: &Config,
        leaf: usize,
        vars: &[Var],
        answers: &[CachedAnswer],
        out: &mut Vec<Successor>,
        hooks: &mut Hooks<'_>,
        scratch: &mut Bindings,
    ) -> Result<(), EngineError> {
        for ans in answers {
            if let Some((mut succ, _)) = unify_project(scratch, cfg, leaf, None, cfg.nvars, |b| {
                bind_answer(b, vars, ans)
            }) {
                replay_answer(&mut succ.db, ans, hooks, |_, _| {})?;
                out.push((succ, ans.delta.ops().to_vec()));
            }
        }
        Ok(())
    }
}
