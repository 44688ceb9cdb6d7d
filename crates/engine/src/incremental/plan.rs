//! Join plans: a rule body compiled, once, into a short instruction sequence
//! over a flat register file.
//!
//! A rule has one register per variable, and whether a variable is bound at
//! a given point of a body is known when the rule is compiled. So nothing is
//! unified while a fixpoint runs: an atom becomes a [`Instr::Probe`] whose
//! bound columns are the key of a range probe and whose other columns are
//! copied into registers; a `not` or a builtin whose inputs are still
//! unbound, or a head left partly unbound, makes the whole plan empty (it
//! emits nothing, which is what evaluating such a body left to right
//! yields); `X = Y` between two variables neither of which is bound yet
//! makes them one register.
//!
//! The bound columns of a probe are always a *prefix* of the tuples probed:
//! of the relation itself when they are its leading columns (or none, or
//! all), otherwise of an **arrangement** — a copy of the relation with its
//! columns permuted, bound ones first — that the compiler declares in
//! [`Arrangements`] and the version of the relation keeps: the database
//! value for a base relation (`td_db::Database::arrangement`), the state
//! over it for a derived one (`circuit::MatState`). A bound column never
//! scans.
//!
//! A rule is compiled once per way the evaluator enters it ([`Entry`]).
//! Entered with a tuple, its literals are taken most-bound-first
//! ([`Compiler::next`]); which version of the data a literal reads is a
//! matter of where it stands in the body ([`Side`]), never of when it runs.

use super::circuit::MatState;
use crate::datalog::{FlatRule, Lit};
use crate::kernel::{eval_ground_builtin, BuiltinOut};
use std::cell::Cell;
use std::collections::HashMap;
use td_core::goal::Builtin;
use td_core::{Atom, Pred, Term, Value, Var};
use td_db::ord::OrdMap;
use td_db::relation::for_each_with_prefix;
use td_db::{CountedRelation, Database, Relation, Tuple};

/// The register file of one rule: a slot per variable. Cells, because a
/// probe's key is read from it while the rows the probe finds are written
/// to it — different slots, but one slice.
pub(crate) type Regs = [Cell<Value>];

/// A fresh register file of `n` slots. What a slot holds before an
/// instruction binds it is never read.
pub(crate) fn registers(n: usize) -> Vec<Cell<Value>> {
    vec![Cell::new(Value::Int(0)); n]
}

/// A value a plan reads: a register some earlier instruction bound, or a
/// constant of the rule.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Src {
    Reg(usize),
    Const(Value),
}

impl Src {
    fn get(self, regs: &Regs) -> Value {
        match self {
            Src::Reg(r) => regs[r].get(),
            Src::Const(v) => v,
        }
    }
}

/// What is done with the columns of a tuple that are not part of a probe's
/// key — or with all of them, when a driving tuple is loaded: `binds` copies
/// column → register, then every `checks` column must equal its source (a
/// variable repeated inside the atom, or, in a load, a constant).
#[derive(Clone, Default, Debug)]
pub(crate) struct Match {
    pub(crate) binds: Vec<(usize, usize)>,
    pub(crate) checks: Vec<(usize, Src)>,
}

impl Match {
    /// Load `values` into the registers; false when a check fails.
    pub(crate) fn load(&self, values: &[Value], regs: &Regs) -> bool {
        for &(col, r) in &self.binds {
            regs[r].set(values[col]);
        }
        self.checks
            .iter()
            .all(|&(col, src)| values[col] == src.get(regs))
    }
}

/// Which version of the data an instruction reads. A delta-join over body
/// position *i* reads the new version left of *i* and the old one right of
/// it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Side {
    New,
    Old,
}

/// What a probe ranges over.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Rows {
    /// A base relation of the database, in its own order.
    Base(Pred),
    /// A derived relation (an index into `Circuit::preds`), in its own
    /// order.
    Derived(usize),
    /// An arrangement (an index into [`Arrangements`]).
    Arranged(usize),
}

/// An argument of a builtin: an input, or the register its result goes to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Arg {
    In(Src),
    Out(usize),
}

#[derive(Clone, Debug)]
pub(crate) enum Instr {
    /// For every tuple of `rows` whose first `key.len()` columns equal the
    /// key — a range probe — load the other columns as `rest` says and go
    /// on.
    Probe {
        side: Side,
        rows: Rows,
        key: Vec<Src>,
        rest: Match,
    },
    /// Go on if the base relation lacks the tuple.
    Absent {
        side: Side,
        pred: Pred,
        args: Vec<Src>,
    },
    /// Go on if the builtin succeeds, having written its result if it has
    /// one. A fault (a symbol where an integer is due, overflow) is a
    /// silent no-match, as everywhere in bottom-up evaluation.
    Builtin { op: Builtin, args: Vec<Arg> },
    /// A derivation: hand the head to the caller.
    Emit { head: Vec<Src> },
}

/// One compiled way into a rule.
#[derive(Clone, Default, Debug)]
pub(crate) struct Plan {
    /// How the tuple the plan is entered with — a membership event, or a
    /// head to rederive — goes into the registers. Empty for [`Entry::Full`].
    pub(crate) load: Match,
    /// Empty when the rule can derive nothing entered this way.
    pub(crate) code: Vec<Instr>,
}

/// The three ways the evaluator enters a rule.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Entry {
    /// The body in order from nothing bound, every literal over the whole
    /// of its relation: a component's first pass, and the judge of whether
    /// the rule derives anything at all ([`derives`]).
    Full,
    /// Body position *i* first, loaded with one tuple that entered or left
    /// its relation, then the other literals most-bound-first
    /// ([`Compiler::next`]): a round of the semi-naive loop and a
    /// maintenance event alike.
    ///
    /// Where the full plan is live ([`derives`]) this entry and
    /// [`Entry::Head`] are live too. An atom can always be taken, so the
    /// compiler is stuck only with nothing but `not`s and builtins left, each
    /// short of an input. Take the first of them in body order: every
    /// literal before it in the body is done — the atoms all are, the driver
    /// was loaded — and a literal that is done has given a value to whatever
    /// the body in order has bound once past it, whichever literal got to a
    /// shared variable first. So the inputs the full plan found bound there
    /// are bound here, and the literal is not short of one. Every entry then
    /// enumerates one and the same conjunction.
    ///
    /// Where the full plan is dead nothing of the kind holds (entered with
    /// `X`, `odd(X) <- not b(X) * e(X, X)` derives what the body in order
    /// never does), so such a rule gets no other entry (`Circuit::new`).
    Driven(usize),
    /// The head loaded first, then the body most-bound-first: does the rule
    /// still derive this tuple (DRed's rederivation check)?
    Head,
}

/// One arrangement the plans of a circuit read: `pred`'s tuples with their
/// columns in `order`.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct Arrangement {
    pub(crate) pred: Pred,
    /// `pred`'s index among the circuit's own predicates; `None` for a base
    /// relation.
    pub(crate) rel: Option<usize>,
    pub(crate) order: Vec<usize>,
}

/// The arrangements declared so far by the plans of one circuit.
pub(crate) type Arrangements = Vec<Arrangement>;

/// Compile `rule` for one entry. `derived` numbers the circuit's own
/// predicates; every other predicate is a base relation. Arrangements the
/// plan needs and `arranged` lacks are added to it.
pub(crate) fn compile(
    rule: &FlatRule,
    entry: Entry,
    derived: &HashMap<Pred, usize>,
    arranged: &mut Arrangements,
) -> Plan {
    let n = rule.num_vars as usize;
    let mut c = Compiler {
        reg: (0..n).collect(),
        bound: vec![false; n],
        derived,
        arranged,
    };
    let dead = Plan::default();
    let mut plan = Plan::default();
    let (entered, driver) = match entry {
        Entry::Driven(pos) => match &rule.body[pos] {
            Lit::Atom(a) | Lit::NegAtom(a) => (Some(&a.args), Some(pos)),
            Lit::Builtin(..) => unreachable!("a builtin drives no plan"),
        },
        Entry::Head => (Some(&rule.head.args), None),
        Entry::Full => (None, None),
    };
    if let Some(args) = entered {
        plan.load = c.rest(args, &(0..args.len()).collect::<Vec<_>>(), 0);
    }
    let mut todo: Vec<usize> = (0..rule.body.len())
        .filter(|pos| driver != Some(*pos))
        .collect();
    while !todo.is_empty() {
        // From nothing bound the body's own order is the semantics.
        let among = if entry == Entry::Full { 1 } else { todo.len() };
        let Some((k, instr)) = c.next(&rule.body, &todo[..among], driver) else {
            return dead;
        };
        todo.remove(k);
        plan.code.extend(instr);
    }
    let Some(head) = c.sources(&rule.head.args) else {
        return dead;
    };
    plan.code.push(Instr::Emit { head });
    debug_assert!(plan.reads_only_bound_registers());
    plan
}

/// Is the rule's [`Entry::Full`] plan live: does `rule`, its body evaluated
/// left to right from nothing bound, find every `not` and builtin input and
/// every head variable bound? A rule that does not derives nothing bottom-up,
/// whatever a call that binds its head top-down would answer.
pub(crate) fn derives(rule: &FlatRule) -> bool {
    let plan = compile(rule, Entry::Full, &HashMap::new(), &mut Vec::new());
    !plan.code.is_empty()
}

/// An input that no earlier literal binds.
struct Unbound;

struct Compiler<'a> {
    /// Variable → register; two variables equated while both were unbound
    /// share one.
    reg: Vec<usize>,
    /// By register.
    bound: Vec<bool>,
    derived: &'a HashMap<Pred, usize>,
    arranged: &'a mut Arrangements,
}

impl Compiler<'_> {
    fn reg_of(&self, v: Var) -> usize {
        self.reg[v.0 as usize]
    }

    /// The value of `t`, if it has one here.
    fn source(&self, t: &Term) -> Option<Src> {
        match t {
            Term::Val(v) => Some(Src::Const(*v)),
            Term::Var(v) => {
                let r = self.reg_of(*v);
                self.bound[r].then_some(Src::Reg(r))
            }
        }
    }

    fn sources(&self, ts: &[Term]) -> Option<Vec<Src>> {
        ts.iter().map(|t| self.source(t)).collect()
    }

    /// The literal to evaluate next, as an index into `todo`, and its
    /// instruction if it needs one: the first `not` or builtin whose inputs
    /// are all bound — a test costs nothing and cuts what follows — else the
    /// atom with the most bound columns, the first of them on a tie. `None`
    /// when only tests with an unbound input are left.
    ///
    /// The order is free because the body is a conjunction; the version a
    /// literal reads is not. The delta-join over body position `driver` is
    /// one term of a telescoping sum — new left of it, old right of it —
    /// so a literal's [`Side`] follows its position, whenever it runs.
    fn next(
        &mut self,
        body: &[Lit],
        todo: &[usize],
        driver: Option<usize>,
    ) -> Option<(usize, Option<Instr>)> {
        let side = |pos: usize| match driver {
            Some(d) if pos > d => Side::Old,
            _ => Side::New,
        };
        let mut most: Option<(usize, &Atom, usize)> = None;
        for (k, &pos) in todo.iter().enumerate() {
            match &body[pos] {
                Lit::Atom(a) => {
                    let bound = a.args.iter().filter(|t| self.source(t).is_some()).count();
                    if most.is_none_or(|(.., b)| bound > b) {
                        most = Some((k, a, bound));
                    }
                }
                Lit::NegAtom(a) => {
                    if let Some(args) = self.sources(&a.args) {
                        let (side, pred) = (side(pos), a.pred);
                        return Some((k, Some(Instr::Absent { side, pred, args })));
                    }
                }
                Lit::Builtin(op, terms) => {
                    if let Ok(instr) = self.builtin(*op, terms) {
                        return Some((k, instr));
                    }
                }
            }
        }
        let (k, a, _) = most?;
        let (rows, order, key) = self.arrange(a.pred, &a.args);
        let (side, rest) = (side(todo[k]), self.rest(&a.args, &order, key.len()));
        let probe = Instr::Probe {
            side,
            rows,
            key,
            rest,
        };
        Some((k, Some(probe)))
    }

    /// Where a probe of `pred` with the currently bound columns of `args` as
    /// its key ranges, the column order of the tuples there, and the key.
    fn arrange(&mut self, pred: Pred, args: &[Term]) -> (Rows, Vec<usize>, Vec<Src>) {
        let (mut order, free): (Vec<usize>, Vec<usize>) =
            (0..args.len()).partition(|&c| self.source(&args[c]).is_some());
        let key: Vec<Src> = order
            .iter()
            .filter_map(|&c| self.source(&args[c]))
            .collect();
        order.extend(free);
        let rel = self.derived.get(&pred).copied();
        // Bound columns that lead the tuple are a prefix as it is.
        if order.iter().copied().eq(0..args.len()) {
            let own = rel.map_or(Rows::Base(pred), Rows::Derived);
            return (own, order, key);
        }
        let wanted = Arrangement { pred, rel, order };
        let at = self.arranged.iter().position(|a| *a == wanted);
        let at = at.unwrap_or_else(|| {
            self.arranged.push(wanted.clone());
            self.arranged.len() - 1
        });
        (Rows::Arranged(at), wanted.order, key)
    }

    /// The [`Match`] of the columns `order[from..]` of a tuple against
    /// `args`; the variables it binds are bound from here on.
    fn rest(&mut self, args: &[Term], order: &[usize], from: usize) -> Match {
        let mut m = Match::default();
        for (col, &c) in order.iter().enumerate().skip(from) {
            match (self.source(&args[c]), args[c]) {
                (Some(src), _) => m.checks.push((col, src)),
                (None, Term::Var(v)) => {
                    let r = self.reg_of(v);
                    self.bound[r] = true;
                    m.binds.push((col, r));
                }
                (None, Term::Val(_)) => unreachable!("a constant has a value"),
            }
        }
        m
    }

    /// The instruction for a builtin, if it needs one. Nothing changes when
    /// an input is unbound.
    fn builtin(&mut self, op: Builtin, terms: &[Term]) -> Result<Option<Instr>, Unbound> {
        let input = |c: &Compiler<'_>, t: &Term| c.source(t).map(Arg::In).ok_or(Unbound);
        // The one argument that may be written, if any.
        let out = match op {
            Builtin::Eq => match (self.source(&terms[0]), self.source(&terms[1])) {
                (None, None) => {
                    // Neither side has a value yet: from here on they are
                    // one variable.
                    let (Term::Var(a), Term::Var(b)) = (terms[0], terms[1]) else {
                        unreachable!("a constant has a value");
                    };
                    let (keep, merge) = (self.reg_of(a), self.reg_of(b));
                    for r in self.reg.iter_mut().filter(|r| **r == merge) {
                        *r = keep;
                    }
                    return Ok(None);
                }
                (None, Some(_)) => Some(0),
                (Some(_), None) => Some(1),
                (Some(_), Some(_)) => None,
            },
            Builtin::Add | Builtin::Sub | Builtin::Mul => {
                self.source(&terms[2]).is_none().then_some(2)
            }
            Builtin::Ne | Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => None,
        };
        let mut args = Vec::with_capacity(terms.len());
        for (i, t) in terms.iter().enumerate() {
            args.push(match t {
                Term::Var(v) if out == Some(i) => Arg::Out(self.reg_of(*v)),
                t => input(self, t)?,
            });
        }
        if let Some(Arg::Out(r)) = out.map(|i| args[i]) {
            self.bound[r] = true;
        }
        Ok(Some(Instr::Builtin { op, args }))
    }
}

impl Plan {
    /// Every register an instruction reads was bound by the load or by an
    /// earlier instruction, and a probe checks a column only against a
    /// variable its own `binds` introduced: every column whose value was
    /// known beforehand is in the key.
    pub(crate) fn reads_only_bound_registers(&self) -> bool {
        let mut bound: Vec<usize> = self.load.binds.iter().map(|b| b.1).collect();
        let known = |bound: &[usize], s: &Src| match s {
            Src::Reg(r) => bound.contains(r),
            Src::Const(_) => true,
        };
        let mut ok = self.load.checks.iter().all(|(_, s)| known(&bound, s));
        for instr in &self.code {
            match instr {
                Instr::Probe { key, rest, .. } => {
                    ok &= key.iter().all(|s| known(&bound, s));
                    let fresh: Vec<usize> = rest.binds.iter().map(|b| b.1).collect();
                    ok &= fresh.iter().all(|r| !bound.contains(r));
                    ok &= rest
                        .checks
                        .iter()
                        .all(|(_, s)| matches!(s, Src::Reg(r) if fresh.contains(r)));
                    bound.extend(fresh);
                }
                Instr::Absent { args, .. } => ok &= args.iter().all(|s| known(&bound, s)),
                Instr::Emit { head } => ok &= head.iter().all(|s| known(&bound, s)),
                Instr::Builtin { args, .. } => {
                    for a in args {
                        match a {
                            Arg::In(s) => ok &= known(&bound, s),
                            Arg::Out(r) => bound.push(*r),
                        }
                    }
                }
            }
        }
        ok
    }
}

/// One version of the data: base relations and their arrangements from a
/// database, derived ones from a materialized state over it.
#[derive(Clone, Copy)]
pub(crate) struct Views<'a> {
    pub(crate) db: &'a Database,
    pub(crate) state: &'a MatState,
    /// What the plans' arrangement numbers stand for.
    pub(crate) arrangements: &'a [Arrangement],
}

impl<'a> Views<'a> {
    /// Arrangement `a` of this version: built from its relation the first
    /// time it is probed, kept current from then on by whoever changes the
    /// relation — `Database::insert`/`delete` for a base relation,
    /// `Circuit::fold` for a derived one. None of an undeclared relation.
    fn arranged(&self, a: usize) -> Option<&'a OrdMap<Tuple, ()>> {
        let Arrangement { pred, rel, order } = &self.arrangements[a];
        let Some(i) = rel else {
            return self.db.arrangement(*pred, order);
        };
        Some(self.state.arranged[a].get_or_init(|| {
            let mut members = Vec::new();
            self.state.rels[*i].for_each(|t, count| {
                if count > 0 {
                    members.push(t.permuted(order));
                }
            });
            sorted_set(members)
        }))
    }
}

/// The set of `tuples`, which are distinct.
pub(crate) fn sorted_set(mut tuples: Vec<Tuple>) -> OrdMap<Tuple, ()> {
    tuples.sort_unstable();
    OrdMap::from_sorted(tuples.into_iter().map(|t| (t, ())))
}

/// The three kinds of sorted tuple set a probe ranges over.
#[derive(Clone, Copy)]
enum Sorted<'a> {
    Base(&'a Relation),
    Counted(&'a CountedRelation),
    Arranged(&'a OrdMap<Tuple, ()>),
}

impl Sorted<'_> {
    fn for_each_with_prefix<I: Iterator<Item = Value>>(
        self,
        prefix: impl Fn() -> I,
        mut f: impl FnMut(&Tuple),
    ) {
        match self {
            Sorted::Base(r) => r.for_each_with_prefix(prefix, f),
            Sorted::Counted(r) => r.for_each_with_prefix(prefix, f),
            Sorted::Arranged(m) => for_each_with_prefix(m, prefix, |t, ()| f(t)),
        }
    }
}

/// What a plan runs against.
#[derive(Clone, Copy)]
pub(crate) struct Data<'a> {
    pub(crate) new: Views<'a>,
    pub(crate) old: Views<'a>,
}

impl<'a> Data<'a> {
    /// Both sides of the join read one version.
    pub(crate) fn at(v: Views<'a>) -> Data<'a> {
        Data { new: v, old: v }
    }

    fn views(&self, side: Side) -> Views<'a> {
        match side {
            Side::New => self.new,
            Side::Old => self.old,
        }
    }

    fn sorted(&self, side: Side, rows: Rows) -> Option<Sorted<'a>> {
        let v = self.views(side);
        match rows {
            Rows::Base(p) => v.db.relation(p).map(Sorted::Base),
            Rows::Derived(i) => Some(Sorted::Counted(&v.state.rels[i])),
            Rows::Arranged(a) => v.arranged(a).map(Sorted::Arranged),
        }
    }
}

/// A derivation, as [`Instr::Emit`] hands it over: the head is built only
/// if the caller asks for it.
pub(crate) struct Row<'a> {
    head: &'a [Src],
    regs: &'a Regs,
}

impl Row<'_> {
    pub(crate) fn tuple(&self) -> Tuple {
        values(self.head, self.regs).collect()
    }
}

impl Plan {
    /// Every derivation of the rule entered with `tuple` (an event or a
    /// head; see [`Entry`]).
    pub(crate) fn run_with(
        &self,
        tuple: &Tuple,
        regs: &Regs,
        data: &Data<'_>,
        emit: &mut dyn FnMut(Row<'_>),
    ) {
        if self.load.load(tuple.values(), regs) {
            self.run(regs, data, emit);
        }
    }

    /// Every derivation of the rule over `data`.
    pub(crate) fn run(&self, regs: &Regs, data: &Data<'_>, emit: &mut dyn FnMut(Row<'_>)) {
        exec(&self.code, regs, data, emit);
    }
}

fn values<'a>(srcs: &'a [Src], regs: &'a Regs) -> impl Iterator<Item = Value> + 'a {
    srcs.iter().map(|s| s.get(regs))
}

/// The one join: run `code` from its first instruction, once per row the
/// instructions before it let through.
fn exec(code: &[Instr], regs: &Regs, data: &Data<'_>, emit: &mut dyn FnMut(Row<'_>)) {
    let Some((instr, then)) = code.split_first() else {
        return;
    };
    match instr {
        Instr::Probe {
            side,
            rows,
            key,
            rest,
        } => {
            let Some(sorted) = data.sorted(*side, *rows) else {
                return;
            };
            sorted.for_each_with_prefix(
                || values(key, regs),
                |t| {
                    if rest.load(t.values(), regs) {
                        exec(then, regs, data, emit);
                    }
                },
            );
        }
        Instr::Absent { side, pred, args } => {
            let mut present = false;
            if let Some(r) = data.views(*side).db.relation(*pred) {
                r.for_each_with_prefix(|| values(args, regs), |_| present = true);
            }
            if !present {
                exec(then, regs, data, emit);
            }
        }
        Instr::Builtin { op, args } => {
            let mut terms = [Term::Val(Value::Int(0)); 3];
            for (t, a) in terms.iter_mut().zip(args) {
                *t = match a {
                    Arg::In(s) => Term::Val(s.get(regs)),
                    Arg::Out(r) => Term::Var(Var(*r as u32)),
                };
            }
            match eval_ground_builtin(*op, &terms[..args.len()]) {
                Ok(BuiltinOut::Succeeds) => exec(then, regs, data, emit),
                Ok(BuiltinOut::Binds(Var(r), Term::Val(v))) => {
                    regs[r as usize].set(v);
                    exec(then, regs, data, emit);
                }
                Ok(BuiltinOut::Fails | BuiltinOut::Binds(..)) | Err(_) => {}
            }
        }
        Instr::Emit { head } => emit(Row { head, regs }),
    }
}
