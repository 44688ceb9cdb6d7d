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
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::{Index, IndexMut};
use std::sync::OnceLock;
use td_core::{Pred, Value};
use td_db::ord::{Edit, OrdMap, Probe};
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

/// A plan entered with a membership event on one of the circuit's inputs.
pub(crate) struct Driven {
    /// The input's number ([`Circuit::base`]).
    pub(crate) input: usize,
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
    /// Every predicate (base or derived) read by this component's rules,
    /// by its number among the circuit's inputs ([`Circuit::base`]) — a
    /// component is skipped when no delta touches them.
    pub(crate) deps: Vec<usize>,
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

    fn clear(&mut self) {
        self.appeared.clear();
        self.disappeared.clear();
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

/// The membership events of one pass, indexed by the circuit's inputs
/// ([`Circuit::base`]).
#[derive(Clone, Debug)]
pub(crate) struct Events(Vec<Delta>);

impl Events {
    /// No events, on any input of `circuit`.
    pub(crate) fn new(circuit: &Circuit) -> Events {
        Events(vec![Delta::default(); circuit.inputs()])
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|d| d.len() == 0)
    }

    /// No events again, the space kept.
    pub(crate) fn clear(&mut self) {
        self.0.iter_mut().for_each(Delta::clear);
    }

    /// The runs of events on input `i`, each with its sign.
    pub(crate) fn runs(&self, i: usize) -> [(&[Tuple], i64); 2] {
        self.0[i].runs()
    }
}

impl Index<usize> for Events {
    type Output = Delta;

    fn index(&self, i: usize) -> &Delta {
        &self.0[i]
    }
}

impl IndexMut<usize> for Events {
    fn index_mut(&mut self, i: usize) -> &mut Delta {
        &mut self.0[i]
    }
}

/// What the joins and rounds of one pass (or of one run from scratch) work
/// in, made once and reused by each: the registers, the heads emitted and
/// scratch space for grouping a run ([`Plan::run_each`]).
pub(crate) struct Scratch {
    pub(crate) regs: Vec<Cell<Value>>,
    pub(crate) heads: Heads,
    pub(crate) order: Vec<usize>,
}

impl Scratch {
    pub(crate) fn new(circuit: &Circuit) -> Scratch {
        Scratch {
            regs: plan::registers(circuit.num_regs),
            heads: Heads::default(),
            order: Vec::new(),
        }
    }
}

/// The heads a join emits, before any is a tuple: their values end to end
/// in one buffer, each with its relation and signed multiplicity. Sorted
/// and netted where they lie ([`Heads::net`]), a head becomes a tuple only
/// where a fold stores it, or finds it stored ([`Change`]).
#[derive(Default)]
pub(crate) struct Heads {
    vals: Vec<Value>,
    heads: Vec<Head>,
}

/// One head of [`Heads`]: its relation, its code (`Tuple::code_of`), where
/// its values lie, and its multiplicity.
#[derive(Clone, Copy)]
struct Head {
    rel: usize,
    code: u64,
    at: usize,
    len: usize,
    n: i64,
}

impl Heads {
    /// Heads pushed, duplicates included until [`Heads::net`].
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn clear(&mut self) {
        self.vals.clear();
        self.heads.clear();
    }

    /// A head of relation `rel`, `n` times.
    pub(crate) fn push(&mut self, rel: usize, vals: impl Iterator<Item = Value>, n: i64) {
        let at = self.vals.len();
        self.vals.extend(vals);
        let code = Tuple::code_of(&self.vals[at..]);
        let len = self.vals.len() - at;
        self.heads.push(Head {
            rel,
            code,
            at,
            len,
            n,
        });
    }

    /// Sort the heads by relation and tuple, and make each distinct one a
    /// single head with the multiplicities summed.
    pub(crate) fn net(&mut self) {
        let Heads { vals, heads } = self;
        let key = |h: &Head| (h.rel, h.code, &vals[h.at..h.at + h.len]);
        // A join entered with a sorted run often emits its heads in order.
        if !heads.is_sorted_by(|a, b| key(a) <= key(b)) {
            heads.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        }
        heads.dedup_by(|later, kept| {
            let same = key(later) == key(kept);
            if same {
                kept.n += later.n;
            }
            same
        });
    }

    /// The netted heads ([`Heads::net`]) of each relation, as the sorted
    /// run of edits a fold merges.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, Vec<Change<'_>>)> {
        self.heads.chunk_by(|a, b| a.rel == b.rel).map(|run| {
            let changes = run
                .iter()
                .map(|h| Change::new(h.code, &self.vals[h.at..h.at + h.len], h.n));
            (run[0].rel, changes.collect())
        })
    }
}

/// One edit of a run a fold merges into a relation or an arrangement: a
/// tuple's values where they lie, its code and a multiplicity — and the
/// tuple, once the fold made one to store or found it stored.
pub(crate) struct Change<'a> {
    code: u64,
    vals: &'a [Value],
    n: i64,
    tuple: Option<Tuple>,
    /// Whether the tuple became a member (true) or stopped being one.
    crossed: Option<bool>,
}

impl<'a> Change<'a> {
    /// The edit at the tuple of `vals`, which need not be one.
    pub(crate) fn at(vals: &'a [Value]) -> Change<'a> {
        Change::new(Tuple::code_of(vals), vals, 0)
    }

    fn new(code: u64, vals: &'a [Value], n: i64) -> Change<'a> {
        Change {
            code,
            vals,
            n,
            tuple: None,
            crossed: None,
        }
    }

    /// The edit at `t`, which is a tuple already.
    pub(crate) fn of(t: &'a Tuple, n: i64) -> Change<'a> {
        Change {
            tuple: Some(t.clone()),
            ..Change::new(t.code(), t.values(), n)
        }
    }

    /// The order of the tuples the two edits stand for.
    fn cmp(&self, other: &Change<'_>) -> Ordering {
        (self.code.cmp(&other.code)).then_with(|| self.vals.cmp(other.vals))
    }
}

impl Probe<Tuple> for Change<'_> {
    fn probe_code(&self) -> u64 {
        self.code
    }

    fn order(&self, key: &Tuple) -> Ordering {
        (key.code().cmp(&self.code)).then_with(|| key.values().cmp(self.vals))
    }
}

impl Edit<Tuple> for Change<'_> {
    fn key(&mut self) -> Tuple {
        let vals = self.vals;
        (self
            .tuple
            .get_or_insert_with(|| vals.iter().copied().collect()))
        .clone()
    }
}

/// Bring an arrangement of a relation (its tuples with their columns in
/// `order`) along the relation's membership events: their permuted tuples
/// sorted once, and one merge, which makes a tuple only for one that
/// enters.
pub(crate) fn arrange(arranged: &mut OrdMap<Tuple, ()>, order: &[usize], delta: &Delta) {
    if delta.len() == 0 {
        return;
    }
    let mut vals = Vec::with_capacity(delta.len() * order.len());
    for (run, _) in delta.runs() {
        for t in run {
            vals.extend(order.iter().map(|&c| t.values()[c]));
        }
    }
    let signs = (delta.appeared.iter().map(|_| 1)).chain(delta.disappeared.iter().map(|_| -1));
    let width = order.len();
    let mut edits: Vec<Change<'_>> = (signs.enumerate())
        .map(|(i, n)| {
            let at = Change::at(&vals[i * width..(i + 1) * width]);
            Change { n, ..at }
        })
        .collect();
    edits.sort_unstable_by(Change::cmp);
    arranged.merge(&mut edits, |e, _| (e.n > 0).then_some(()));
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
    /// The base predicates the rules read, numbered after the derived ones:
    /// the circuit's *inputs* are the derived predicates, numbered as their
    /// relations, then these; an input's events go under its number
    /// ([`Events`]).
    pub(crate) base: HashMap<Pred, usize>,
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
        let mut read: Vec<Pred> = (flat.values().flatten())
            .flat_map(|r| r.body.iter())
            .filter_map(|l| match l {
                Lit::Atom(a) | Lit::NegAtom(a) if !index.contains_key(&a.pred) => Some(a.pred),
                _ => None,
            })
            .collect();
        read.sort_unstable();
        read.dedup();
        let base: HashMap<Pred, usize> = (read.into_iter().enumerate())
            .map(|(i, p)| (p, preds.len() + i))
            .collect();
        let input = |p: &Pred| index.get(p).or(base.get(p)).copied();
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
                let mut deps: Vec<usize> = flat_rules
                    .iter()
                    .flat_map(|r| r.body.iter())
                    .filter_map(|l| match l {
                        Lit::Atom(a) | Lit::NegAtom(a) => input(&a.pred),
                        Lit::Builtin(..) => None,
                    })
                    .collect();
                deps.sort_unstable();
                deps.dedup();
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
                            let input = input(&pred).expect("a predicate the rules read");
                            rule.events.push(Driven { input, sign, plan });
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
            base,
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

    /// How many inputs the circuit has.
    fn inputs(&self) -> usize {
        self.preds.len() + self.base.len()
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
        let mut stats = RunStats::default();
        let scratch = &mut Scratch::new(self);
        for scc in &self.sccs {
            let data = Data::at(self.views(db, &state));
            for rule in &scc.rules {
                let heads = &mut scratch.heads;
                (rule.full).run(&scratch.regs, &data, &mut |row| {
                    heads.push(rule.head, row.values(), 1);
                });
            }
            let done = self.saturate(scc, db, &mut state, scratch, &mut |_, _| {});
            stats.rounds += done.rounds;
            stats.derivations += done.derivations;
        }
        (state, stats)
    }

    /// The one place a derived relation gains or loses members: one merge
    /// of `edits` — sorted, one per tuple — into it
    /// ([`CountedRelation::merge`]), each moving its tuple's count by
    /// `change(the count now, its multiplicity)`, and one merge into each
    /// filled arrangement of it ([`arrange`]) of the tuples that crossed
    /// the membership boundary, which are returned. A node of the state
    /// that no other version holds is changed, not copied, and a tuple is
    /// made only for one the relation did not hold.
    pub(crate) fn fold(
        &self,
        state: &mut MatState,
        rel: usize,
        edits: &mut [Change<'_>],
        change: impl Fn(i64, i64) -> i64,
    ) -> Delta {
        state.rels[rel].merge(edits, |e, old| {
            let was = old.map_or(0, |(_, c)| c);
            let now = was + change(was, e.n);
            if (was > 0) != (now > 0) {
                e.crossed = Some(now > 0);
                if let Some((t, _)) = old {
                    e.tuple = Some(t.clone());
                }
            }
            now
        });
        let appeared = edits.iter().filter(|e| e.crossed == Some(true)).count();
        let disappeared = edits.iter().filter(|e| e.crossed == Some(false)).count();
        let mut crossed = Delta {
            appeared: Vec::with_capacity(appeared),
            disappeared: Vec::with_capacity(disappeared),
        };
        for e in edits.iter_mut() {
            if let Some(member) = e.crossed {
                let t = e.tuple.take().expect("a tuple that crossed is stored");
                crossed.run_mut(member).push(t);
            }
        }
        for (arr, slot) in self.arrangements.iter().zip(&mut state.arranged) {
            if let Some(arranged) = slot.get_mut().filter(|_| arr.rel == Some(rel)) {
                arrange(arranged, &arr.order, &crossed);
            }
        }
        crossed
    }

    /// The semi-naive loop: fold the candidate head tuples into the
    /// component's relations — netted where they lie ([`Heads::net`]), so a
    /// round is one [`Circuit::fold`] per relation — enter every rule with
    /// each run of tuples that were new ([`join_events`], as maintenance
    /// enters it with a committed delta), and repeat until a round adds
    /// nothing. The candidates are `scratch`'s heads, which are left
    /// empty. `on_new` sees every run of tuples a recursive component
    /// gains.
    pub(crate) fn saturate(
        &self,
        scc: &Scc,
        db: &Database,
        state: &mut MatState,
        scratch: &mut Scratch,
        on_new: &mut dyn FnMut(usize, &[Tuple]),
    ) -> RunStats {
        let mut stats = RunStats::default();
        let mut round = Events::new(self);
        let Scratch { regs, heads, order } = scratch;
        loop {
            stats.rounds += 1;
            stats.derivations += heads.len() as u64;
            heads.net();
            round.clear();
            for (rel, mut edits) in heads.runs() {
                // Through recursion a count means nothing: members carry 1.
                let new = if scc.recursive {
                    self.fold(state, rel, &mut edits, |was, _| i64::from(was == 0))
                } else {
                    self.fold(state, rel, &mut edits, |_, n| n)
                };
                // Only a recursive component reads its own new tuples.
                if scc.recursive && !new.appeared.is_empty() {
                    on_new(rel, &new.appeared);
                    round[rel] = new;
                }
            }
            heads.clear();
            if round.is_empty() {
                return stats;
            }
            let data = Data::at(self.views(db, state));
            join_events(
                scc,
                &round,
                |_| true,
                &data,
                regs,
                order,
                &mut |rel, row, _| {
                    heads.push(rel, row.values(), 1);
                },
            );
        }
    }
}

/// Enter every rule of a component with each run of membership events on
/// a predicate it reads ([`Entry::Driven`]; [`Plan::run_each`]), for the
/// runs whose effective sign (a `not` literal flips it) `keep` accepts.
/// Body positions before the event's read `data.new`, positions after it
/// `data.old`. `order` is scratch space.
pub(crate) fn join_events(
    scc: &Scc,
    events: &Events,
    keep: impl Fn(i64) -> bool,
    data: &Data<'_>,
    regs: &Regs,
    order: &mut Vec<usize>,
    emit: &mut dyn FnMut(usize, Row<'_>, i64),
) {
    for rule in &scc.rules {
        for d in &rule.events {
            for (run, s) in events.runs(d.input) {
                if !run.is_empty() && keep(s * d.sign) {
                    let emit = &mut |row: Row<'_>| emit(rule.head, row, s * d.sign);
                    d.plan.run_each(run, order, regs, data, emit);
                }
            }
        }
    }
}
