//! The compiled Datalog circuit: flattened rules grouped into
//! strongly-connected components in dependency order, every rule compiled to
//! join plans ([`super::plan`]), the state those plans run over
//! ([`MatState`]), the one place that state changes ([`Circuit::fold`]) and
//! the one semi-naive loop ([`Circuit::saturate`]).
//!
//! Every fixpoint in the crate runs here. [`Circuit::run`] from an empty
//! derived state is `datalog::evaluate` (and, behind the magic-sets rewrite,
//! `magic::answer`) as well as a materialized version's first build;
//! [`super::Materializer`] then keeps the same relations current across
//! committed deltas with the same plans and the same loop.

use super::plan::{self, Arrangements, Data, Entry, Instr, Plan, Regs, Row, Rows, Side, Views};
use crate::datalog::{FlatRule, Lit};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use td_core::Pred;
use td_db::ord::OrdMap;
use td_db::{CountedRelation, Database, Tuple};

/// A rule, compiled: one plan per way the evaluator enters it.
pub(crate) struct Rule {
    /// The head's predicate, as an index into [`Circuit::preds`].
    pub(crate) head: usize,
    /// [`Entry::Full`].
    pub(crate) full: Plan,
    /// [`Entry::Driven`], one per body atom or `not` literal; none when
    /// `full` is dead.
    pub(crate) events: Vec<Driven>,
    /// [`Entry::Head`]. Recursive components only.
    pub(crate) rederive: Plan,
}

/// A plan entered with a membership event on `pred`.
pub(crate) struct Driven {
    pub(crate) pred: Pred,
    /// −1 under `not`: a tuple appearing takes derivations away.
    pub(crate) sign: i64,
    pub(crate) plan: Plan,
}

/// One component of the circuit: a strongly-connected set of derived
/// predicates plus every rule defining them, evaluated together.
pub(crate) struct Scc {
    /// Mutual or self recursion: set semantics (every member carries count
    /// 1, maintained by DRed) instead of exact counting, which is unsound
    /// through cycles.
    pub(crate) recursive: bool,
    pub(crate) rules: Vec<Rule>,
    /// Every predicate (base or derived) read by this component's rules —
    /// a component is skipped when no delta touches its inputs.
    pub(crate) deps: HashSet<Pred>,
}

/// What the circuit derives from one database version. Persistent
/// throughout, so a version costs what changed; the materializer keeps it on
/// the `Database` value it describes (`Database::derived`), so rolling back
/// to an earlier value finds the earlier state on it.
#[derive(Clone, Debug, Default)]
pub(crate) struct MatState {
    /// The derived relations, indexed like [`Circuit::preds`]: tuple →
    /// number of supporting rule instantiations.
    pub(crate) rels: Vec<CountedRelation>,
    /// The member tuples of a derived relation in another column order,
    /// indexed like [`Circuit::arrangements`] (the slot of a base relation's
    /// arrangement stays empty: that one is on the `Database`). A slot fills
    /// when a plan first probes it (`plan::Views`) — an arrangement nothing
    /// reads costs nothing — and a filled slot is part of the version like
    /// the relations are: [`Circuit::fold`] brings it along in the step that
    /// changes the relation, and the version after inherits it.
    pub(crate) arranged: Vec<OnceLock<OrdMap<Tuple, ()>>>,
}

/// Membership events on one relation — the one form a delta takes between
/// [`Circuit::fold`], which produces it, and the plans it drives.
#[derive(Clone, Default, Debug)]
pub(crate) struct Delta {
    /// The tuples that entered the relation, sorted.
    pub(crate) appeared: Vec<Tuple>,
    /// The tuples that left it, sorted.
    pub(crate) disappeared: Vec<Tuple>,
}

impl Delta {
    pub(crate) fn len(&self) -> usize {
        self.appeared.len() + self.disappeared.len()
    }

    /// The run an event goes to: has the tuple become a member?
    pub(crate) fn run_mut(&mut self, member: bool) -> &mut Vec<Tuple> {
        if member {
            &mut self.appeared
        } else {
            &mut self.disappeared
        }
    }

    /// The two runs, each with the sign of its events.
    pub(crate) fn runs(&self) -> [(&[Tuple], i64); 2] {
        [(&self.appeared, 1), (&self.disappeared, -1)]
    }
}

/// The membership events of one pass, by predicate. A predicate with none
/// has no entry.
pub(crate) type Events = HashMap<Pred, Delta>;

/// The runs of events on `pred`.
pub(crate) fn runs_on(events: &Events, pred: Pred) -> impl Iterator<Item = (&[Tuple], i64)> {
    events.get(&pred).map(Delta::runs).into_iter().flatten()
}

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
    /// The derived predicates, sorted; relations are numbered by position.
    pub(crate) preds: Vec<Pred>,
    pub(crate) index: HashMap<Pred, usize>,
    pub(crate) sccs: Vec<Scc>,
    /// Every arrangement some plan probes: declared while compiling, built
    /// by the first probe — on the `Database` for a base relation, in the
    /// state for a derived one — and kept current by whoever changes the
    /// relation (`Database::insert`/`delete`, [`Circuit::fold`]).
    pub(crate) arrangements: Arrangements,
    /// Registers of the widest rule.
    pub(crate) num_regs: usize,
}

impl Circuit {
    /// Partition the predicates of `flat` (each with all of its rules) into
    /// components and compile the rules. Body atoms over any other predicate
    /// read the database.
    pub(crate) fn new(mut flat: HashMap<Pred, Vec<FlatRule>>) -> Circuit {
        let mut preds: Vec<Pred> = flat.keys().copied().collect();
        preds.sort();
        let index: HashMap<Pred, usize> = preds.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let adj: Vec<Vec<usize>> = preds
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
        let mut arrangements = Arrangements::new();
        let mut num_regs = 0;
        // Components come out sorted and callees-first, which is exactly
        // the evaluation order the circuit needs.
        let sccs = td_core::analysis::sccs(&adj)
            .into_iter()
            .map(|comp| {
                let recursive = comp.len() > 1 || adj[comp[0]].contains(&comp[0]);
                let flat_rules: Vec<FlatRule> = comp
                    .iter()
                    .flat_map(|&i| flat.remove(&preds[i]))
                    .flatten()
                    .collect();
                let deps: HashSet<Pred> = flat_rules
                    .iter()
                    .flat_map(|r| r.body.iter())
                    .filter_map(|l| match l {
                        Lit::Atom(a) | Lit::NegAtom(a) => Some(a.pred),
                        Lit::Builtin(..) => None,
                    })
                    .collect();
                let mut compile =
                    |r: &FlatRule, entry| plan::compile(r, entry, &index, &mut arrangements);
                let rules = flat_rules
                    .iter()
                    .map(|r| {
                        num_regs = num_regs.max(r.num_vars as usize);
                        let mut rule = Rule {
                            head: index[&r.head.pred],
                            full: compile(r, Entry::Full),
                            events: Vec::new(),
                            rederive: Plan::default(),
                        };
                        // Entered with a tuple, a body that derives nothing
                        // in order might ([`Entry::Driven`]).
                        if rule.full.code.is_empty() {
                            return rule;
                        }
                        for (pos, lit) in r.body.iter().enumerate() {
                            let (pred, sign) = match lit {
                                Lit::Atom(a) => (a.pred, 1),
                                Lit::NegAtom(a) => (a.pred, -1),
                                Lit::Builtin(..) => continue,
                            };
                            let plan = compile(r, Entry::Driven(pos));
                            rule.events.push(Driven { pred, sign, plan });
                        }
                        if recursive {
                            rule.rederive = compile(r, Entry::Head);
                        }
                        rule
                    })
                    .collect();
                Scc {
                    recursive,
                    rules,
                    deps,
                }
            })
            .collect();
        Circuit {
            preds,
            index,
            sccs,
            arrangements,
            num_regs,
        }
    }

    /// Does some plan read the derived relation of another component on
    /// its old side — right of the literal a driven plan is entered at? By
    /// the time a component is maintained the components below it are done,
    /// so such a read needs a copy of the state as it was before the pass.
    /// Every other old-side read is of the database, or of the component's
    /// own relations, which stay as they were for as long as it reads them.
    /// DRed's overdeletion reads a lower relation left of the driver on the
    /// new side, which misses nothing: an old derivation through a tuple
    /// that left it is found from that tuple's own event, and one through a
    /// tuple that entered it is a candidate rederivation puts back.
    pub(crate) fn reads_old_derived(&self) -> bool {
        self.sccs.iter().any(|scc| {
            let own = |rel: usize| scc.rules.iter().any(|r| r.head == rel);
            let plans = scc.rules.iter().flat_map(|r| &r.events);
            plans.flat_map(|d| &d.plan.code).any(|instr| {
                let Instr::Probe {
                    side: Side::Old,
                    rows,
                    ..
                } = instr
                else {
                    return false;
                };
                let rel = match *rows {
                    Rows::Derived(rel) => Some(rel),
                    Rows::Arranged(a) => self.arrangements[a].rel,
                    Rows::Base(_) => None,
                };
                rel.is_some_and(|rel| !own(rel))
            })
        })
    }

    /// `state` over `db`, as the plans read them.
    pub(crate) fn views<'a>(&'a self, db: &'a Database, state: &'a MatState) -> Views<'a> {
        Views {
            db,
            state,
            arrangements: &self.arrangements,
        }
    }

    /// The least fixpoint over `db`, from an empty derived state: each
    /// component's rules once over the finished components below it, then
    /// the semi-naive loop. Nothing is retained between runs.
    pub(crate) fn run(&self, db: &Database) -> (MatState, RunStats) {
        let mut state = MatState {
            rels: (self.preds.iter())
                .map(|p| CountedRelation::new(p.arity as usize))
                .collect(),
            arranged: vec![OnceLock::new(); self.arrangements.len()],
        };
        let regs = plan::registers(self.num_regs);
        let mut stats = RunStats::default();
        for scc in &self.sccs {
            let mut cand = Vec::new();
            let data = Data::at(self.views(db, &state));
            for rule in &scc.rules {
                rule.full
                    .run(&regs, &data, &mut |row| cand.push((rule.head, row.tuple())));
            }
            let done = self.saturate(scc, db, &mut state, cand, &mut |_, _| {});
            stats.rounds += done.rounds;
            stats.derivations += done.derivations;
        }
        (state, stats)
    }

    /// The one place a derived relation gains or loses members. `entries`
    /// holds one `(tuple, n)` per tuple, sorted; the count of each moves by
    /// `change(its count now, n)`, and the relation's arrangements follow
    /// the tuples that crossed the membership boundary, which are returned.
    /// Each entry is one descent that edits in place
    /// ([`CountedRelation::update`], `OrdMap::alter_mut`): a node of the
    /// state that no other version holds is changed, not copied.
    pub(crate) fn fold(
        &self,
        state: &mut MatState,
        rel: usize,
        entries: Vec<(Tuple, i64)>,
        change: impl Fn(i64, i64) -> i64,
    ) -> Delta {
        let mut crossed = Delta::default();
        let counts = &mut state.rels[rel];
        for (t, n) in entries {
            let mut by = 0;
            let was = counts.update(&t, |was| {
                by = change(was, n);
                was + by
            });
            if (was > 0) != (was + by > 0) {
                crossed.run_mut(was + by > 0).push(t);
            }
        }
        for (arr, slot) in self.arrangements.iter().zip(&mut state.arranged) {
            let Some(arranged) = slot.get_mut().filter(|_| arr.rel == Some(rel)) else {
                continue;
            };
            for (run, sign) in crossed.runs() {
                let keep = (sign > 0).then_some(());
                for t in run {
                    arranged.alter_mut(&t.permuted(&arr.order), |_| keep);
                }
            }
        }
        crossed
    }

    /// The semi-naive loop: fold the candidate head tuples into the
    /// component's relations — sorted and counted ([`net`]) first, so a
    /// round is one [`Circuit::fold`] per relation — enter every rule with each
    /// tuple that was new ([`join_events`], as maintenance enters it with a
    /// committed delta), and repeat until a round adds nothing. `on_new`
    /// sees every run of tuples a recursive component gains.
    pub(crate) fn saturate(
        &self,
        scc: &Scc,
        db: &Database,
        state: &mut MatState,
        mut cand: Vec<(usize, Tuple)>,
        on_new: &mut dyn FnMut(usize, &[Tuple]),
    ) -> RunStats {
        let regs = &plan::registers(self.num_regs);
        let mut stats = RunStats::default();
        loop {
            stats.rounds += 1;
            stats.derivations += cand.len() as u64;
            cand.sort_unstable();
            let mut round = Events::new();
            for (rel, entries) in net(cand.drain(..).map(|c| (c, 1))) {
                // Through recursion a count means nothing: members carry 1.
                let new = if scc.recursive {
                    self.fold(state, rel, entries, |was, _| i64::from(was == 0))
                } else {
                    self.fold(state, rel, entries, |_, n| n)
                };
                // Only a recursive component reads its own new tuples.
                if scc.recursive && !new.appeared.is_empty() {
                    on_new(rel, &new.appeared);
                    round.insert(self.preds[rel], new);
                }
            }
            if round.is_empty() {
                return stats;
            }
            let data = Data::at(self.views(db, state));
            join_events(scc, &round, |_| true, &data, regs, &mut |rel, row, _| {
                cand.push((rel, row.tuple()));
            });
        }
    }
}

/// Enter every rule of a component with each membership event on a
/// predicate it reads ([`Entry::Driven`]), for the events whose effective
/// sign (a `not` literal flips it) `keep` accepts. Body positions before the
/// event's read `data.new`, positions after it `data.old`.
pub(crate) fn join_events(
    scc: &Scc,
    events: &Events,
    keep: impl Fn(i64) -> bool,
    data: &Data<'_>,
    regs: &Regs,
    emit: &mut dyn FnMut(usize, Row<'_>, i64),
) {
    for rule in &scc.rules {
        for d in &rule.events {
            for (run, s) in runs_on(events, d.pred).filter(|(_, s)| keep(s * d.sign)) {
                let emit = &mut |row: Row<'_>| emit(rule.head, row, s * d.sign);
                for t in run {
                    d.plan.run_with(t, regs, data, emit);
                }
            }
        }
    }
}

/// Sorted `(relation, tuple)` entries, each with a signed multiplicity, as,
/// per relation, each distinct tuple with its multiplicities summed.
pub(crate) fn net(
    sorted: impl Iterator<Item = ((usize, Tuple), i64)>,
) -> Vec<(usize, Vec<(Tuple, i64)>)> {
    let mut out: Vec<(usize, Vec<(Tuple, i64)>)> = Vec::new();
    for ((rel, t), n) in sorted {
        match out.last_mut() {
            Some((r, entries)) if *r == rel => match entries.last_mut() {
                Some((last, sum)) if *last == t => *sum += n,
                _ => entries.push((t, n)),
            },
            _ => out.push((rel, vec![(t, n)])),
        }
    }
    out
}
