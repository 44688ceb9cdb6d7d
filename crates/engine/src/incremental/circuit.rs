//! The compiled Datalog circuit: flattened rules grouped into
//! strongly-connected components in dependency order, the one body join
//! ([`join`]) and the one semi-naive loop ([`saturate`]).
//!
//! Every fixpoint in the crate runs here. [`Circuit::run`] from an empty
//! derived state is `datalog::evaluate` (and, behind the magic-sets rewrite,
//! `magic::answer`) as well as a materialized version's first build;
//! [`super::Materializer`] then keeps the same relations current across
//! committed deltas with the same join and the same loop.

use crate::datalog::{FlatRule, Lit};
use std::collections::{HashMap, HashSet};
use td_core::unify::unify_terms;
use td_core::{Bindings, Pred, Term, Value};
use td_db::{CountedRelation, Database, Tuple};

/// One component of the circuit: a strongly-connected set of derived
/// predicates plus every rule defining them, evaluated together.
pub(crate) struct Scc {
    pub(crate) preds: Vec<Pred>,
    /// Mutual or self recursion: set semantics (every member carries count
    /// 1, maintained by DRed) instead of exact counting, which is unsound
    /// through cycles.
    pub(crate) recursive: bool,
    pub(crate) rules: Vec<FlatRule>,
    /// Every predicate (base or derived) read by this component's rules —
    /// a component is skipped when no delta touches its inputs.
    pub(crate) deps: HashSet<Pred>,
}

/// The derived relations at one database version: predicate → tuple →
/// number of supporting rule instantiations.
pub(crate) type MatState = HashMap<Pred, CountedRelation>;

/// What a run of the semi-naive loop cost.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct RunStats {
    /// Join passes: one per component plus one per round that found new
    /// tuples.
    pub(crate) rounds: usize,
    /// Head tuples produced, duplicates included.
    pub(crate) derivations: u64,
}

/// Components in dependency-first (topological) order.
pub(crate) struct Circuit {
    pub(crate) sccs: Vec<Scc>,
}

impl Circuit {
    /// Partition the predicates of `flat` (each with all of its rules) into
    /// components. Body atoms over any other predicate read the database.
    pub(crate) fn new(mut flat: HashMap<Pred, Vec<FlatRule>>) -> Circuit {
        let mut nodes: Vec<Pred> = flat.keys().copied().collect();
        nodes.sort();
        let index: HashMap<Pred, usize> = nodes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let adj: Vec<Vec<usize>> = nodes
            .iter()
            .map(|p| {
                let mut out: Vec<usize> = flat[p]
                    .iter()
                    .flat_map(|r| r.body.iter())
                    .filter_map(|l| match l {
                        Lit::Atom(a) => index.get(&a.pred).copied(),
                        _ => None,
                    })
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        // Components come out sorted and callees-first, which is exactly
        // the evaluation order the circuit needs.
        let sccs = td_core::analysis::sccs(&adj)
            .into_iter()
            .map(|comp| {
                let preds: Vec<Pred> = comp.iter().map(|&i| nodes[i]).collect();
                let recursive = comp.len() > 1 || adj[comp[0]].contains(&comp[0]);
                let rules: Vec<FlatRule> = preds
                    .iter()
                    .flat_map(|p| flat.remove(p))
                    .flatten()
                    .collect();
                let deps: HashSet<Pred> = rules
                    .iter()
                    .flat_map(|r| r.body.iter())
                    .filter_map(|l| match l {
                        Lit::Atom(a) | Lit::NegAtom(a) => Some(a.pred),
                        Lit::Builtin(..) => None,
                    })
                    .collect();
                Scc {
                    preds,
                    recursive,
                    rules,
                    deps,
                }
            })
            .collect();
        Circuit { sccs }
    }

    /// The least fixpoint over `db`, from an empty derived state: each
    /// component's rules once over the finished components below it, then
    /// the semi-naive loop. Nothing is retained between runs.
    pub(crate) fn run(&self, db: &Database) -> (MatState, RunStats) {
        let mut state: MatState = self
            .sccs
            .iter()
            .flat_map(|s| s.preds.iter())
            .map(|p| (*p, CountedRelation::new(p.arity as usize)))
            .collect();
        let mut stats = RunStats::default();
        for scc in &self.sccs {
            let mut cand = Vec::new();
            let v = Views { db, state: &state };
            for rule in &scc.rules {
                join(rule, None, None, v, v, &mut |t| {
                    cand.push((rule.head.pred, t))
                });
            }
            let done = saturate(scc, db, &mut state, cand, false, &mut |_, _| {});
            stats.rounds += done.rounds;
            stats.derivations += done.derivations;
        }
        (state, stats)
    }
}

/// The semi-naive loop: add the candidate head tuples to the component's
/// relations, re-join every rule through the tuples that were new — the
/// round's delta, kept as a relation so that a driver position probes it by
/// index — and repeat until a round adds nothing. `on_new` sees every tuple
/// a recursive component gains.
///
/// `driver_first` picks the order in which [`join`] visits a rule body; see
/// [`Driver::first`].
pub(crate) fn saturate(
    scc: &Scc,
    db: &Database,
    state: &mut MatState,
    mut cand: Vec<(Pred, Tuple)>,
    driver_first: bool,
    on_new: &mut dyn FnMut(Pred, &Tuple),
) -> RunStats {
    let mut stats = RunStats::default();
    loop {
        stats.rounds += 1;
        stats.derivations += cand.len() as u64;
        let mut delta: MatState = HashMap::new();
        for (p, t) in cand.drain(..) {
            let rel = &state[&p];
            if scc.recursive && rel.contains(&t) {
                continue;
            }
            let next = rel.add(&t, 1).0;
            state.insert(p, next);
            // Only a recursive component reads its own new tuples.
            if scc.recursive {
                let d = delta
                    .entry(p)
                    .or_insert_with(|| CountedRelation::new(t.arity()));
                *d = d.add(&t, 1).0;
                on_new(p, &t);
            }
        }
        if delta.is_empty() {
            return stats;
        }
        let v = Views { db, state };
        for rule in &scc.rules {
            for (pos, lit) in rule.body.iter().enumerate() {
                let Lit::Atom(a) = lit else { continue };
                let Some(delta) = delta.get(&a.pred) else {
                    continue;
                };
                let driver = Driver {
                    pos,
                    delta,
                    first: driver_first,
                };
                join(rule, Some(driver), None, v, v, &mut |t| {
                    cand.push((rule.head.pred, t))
                });
            }
        }
    }
}

/// Read view for one side of a delta-join: derived relations from a
/// materialized state, everything else from a database version.
#[derive(Clone, Copy)]
pub(crate) struct Views<'a> {
    pub(crate) db: &'a Database,
    pub(crate) state: &'a MatState,
}

impl Views<'_> {
    fn select(&self, pred: Pred, pattern: &[Option<Value>]) -> Vec<Tuple> {
        match self.state.get(&pred) {
            Some(r) => r.select(pattern),
            None => self
                .db
                .relation(pred)
                .map(|r| r.select(pattern))
                .unwrap_or_default(),
        }
    }
}

/// The driver of a delta-join: body position `pos` ranges over `delta`
/// instead of its whole relation.
#[derive(Clone, Copy)]
pub(crate) struct Driver<'a> {
    pub(crate) pos: usize,
    pub(crate) delta: &'a CountedRelation,
    /// Visit `pos` before the rest of the body instead of in body order.
    ///
    /// In body order the driver probes `delta` with whatever the literals
    /// to its left have bound, which is plain left-to-right evaluation: it
    /// is correct for every rule and linear in a large delta (a whole round
    /// of a from-scratch run). Driver-first binds each delta tuple before
    /// anything else, which hands the earlier literals a bound prefix and
    /// wins when the delta is the few tuples of one committed op — but it
    /// agrees with left-to-right evaluation only on delta-safe rules (see
    /// `Materializer::compile`).
    pub(crate) first: bool,
}

/// Bind `args` to the values of `t`.
fn bind(b: &mut Bindings, args: &[Term], t: &Tuple) -> bool {
    args.iter()
        .zip(t.values())
        .all(|(a, v)| unify_terms(b, *a, Term::Val(*v)))
}

/// Enumerate the instantiations of a rule body, calling `emit` with the head
/// tuple of each. Unbound `not` arguments and builtin faults are silent
/// no-matches, and a head left partly unbound emits nothing.
///
/// With a `driver`, positions before it read `new_v` and positions after it
/// read `old_v` — the semi-naive prefix-new/suffix-old split. With
/// `head_bound`, the head is unified first (rederivation checks).
pub(crate) fn join(
    rule: &FlatRule,
    driver: Option<Driver<'_>>,
    head_bound: Option<&Tuple>,
    new_v: Views<'_>,
    old_v: Views<'_>,
    emit: &mut dyn FnMut(Tuple),
) {
    let mut b = Bindings::new();
    b.alloc(rule.num_vars);
    if head_bound.is_some_and(|t| !bind(&mut b, &rule.head.args, t)) {
        return;
    }
    join_from(rule, 0, driver, new_v, old_v, &mut b, emit);
}

fn join_from(
    rule: &FlatRule,
    step: usize,
    driver: Option<Driver<'_>>,
    new_v: Views<'_>,
    old_v: Views<'_>,
    b: &mut Bindings,
    emit: &mut dyn FnMut(Tuple),
) {
    if step == rule.body.len() {
        let values: Option<Vec<Value>> = rule.head.args.iter().map(|t| b.value_of(*t)).collect();
        if let Some(values) = values {
            emit(Tuple::new(values));
        }
        return;
    }
    // Body order, or the driver's position and then the rest in body order.
    let idx = match driver {
        Some(d) if d.first && step == 0 => d.pos,
        Some(d) if d.first && step <= d.pos => step - 1,
        _ => step,
    };
    let at_driver = driver.filter(|d| d.pos == idx);
    let v = match driver {
        Some(d) if idx > d.pos => old_v,
        _ => new_v,
    };
    match &rule.body[idx] {
        Lit::NegAtom(atom) if at_driver.is_none() => {
            let values: Option<Vec<Value>> = atom.args.iter().map(|t| b.value_of(*t)).collect();
            // `not` is restricted to base relations.
            if values.is_some_and(|vs| !v.db.contains(atom.pred, &Tuple::new(vs))) {
                join_from(rule, step + 1, driver, new_v, old_v, b, emit);
            }
        }
        // A driving `not` literal ranges over the base tuples whose
        // appearance or disappearance it reacts to, like an atom.
        Lit::Atom(atom) | Lit::NegAtom(atom) => {
            let resolved: Vec<Term> = atom.args.iter().map(|t| b.resolve(*t)).collect();
            let pattern: Vec<Option<Value>> = resolved.iter().map(|t| t.as_value()).collect();
            let tuples = match at_driver {
                Some(d) => d.delta.select(&pattern),
                None => v.select(atom.pred, &pattern),
            };
            for t in tuples {
                let mark = b.mark();
                if bind(b, &resolved, &t) {
                    join_from(rule, step + 1, driver, new_v, old_v, b, emit);
                }
                b.undo_to(mark);
            }
        }
        Lit::Builtin(op, terms) => {
            let mark = b.mark();
            if matches!(crate::kernel::eval_builtin(b, *op, terms), Ok(true)) {
                join_from(rule, step + 1, driver, new_v, old_v, b, emit);
            }
            b.undo_to(mark);
        }
    }
}
