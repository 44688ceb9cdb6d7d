//! Classical bottom-up Datalog evaluation.
//!
//! §6 of the paper observes that the update-free core of TD *is* classical
//! Datalog — queries with a least-fixpoint semantics — "so well-known
//! optimization techniques (such as magic sets or tabling) can be applied".
//! This module is the front of that classical engine: it decides which
//! rules are Datalog ([`is_datalog`]), flattens them to the literal form
//! the engine's one evaluator compiles (`crate::incremental::circuit`), and
//! answers questions with it: [`evaluate`] runs it from scratch, and
//! [`query`] reads the views a version carries, maintained from the
//! version before. It serves
//!
//! * as the baseline in experiment E11 (TD top-down execution vs. bottom-up
//!   evaluation on reachability workloads), and
//! * as a fast oracle for update-free goals in tests.
//!
//! A program is *Datalog-evaluable* if every rule body is a serial
//! composition of atoms, builtins and base-relation absence tests
//! (`not p(t̄)`) — no updates, no `|`, no `iso`, no `or`. Negation needs no
//! stratification here because the language restricts `not` to *base*
//! relations (extensional data), which no rule can derive into.

use crate::compiled::Compiled;
use crate::incremental::circuit::Circuit;
use crate::Materializer;
use std::collections::HashMap;
use td_core::goal::Builtin;
use td_core::{Atom, Goal, Pred, Program, Rule, Term, Value};
use td_db::{CountedRelation, Database, Tuple};

/// Why a program is not Datalog-evaluable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NotDatalog {
    pub reason: String,
}

impl std::fmt::Display for NotDatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not a Datalog program: {}", self.reason)
    }
}

impl std::error::Error for NotDatalog {}

/// One body literal of a flattened Datalog rule, the form the circuit
/// (`crate::incremental::circuit`) joins over.
#[derive(Clone, Debug)]
pub(crate) enum Lit {
    Atom(Atom),
    /// Absence test on a base relation; all arguments must be bound by the
    /// literals to its left.
    NegAtom(Atom),
    Builtin(Builtin, Vec<Term>),
}

/// A rule flattened to `head <- lit₁, …, litₙ`.
#[derive(Clone, Debug)]
pub(crate) struct FlatRule {
    pub(crate) head: Atom,
    pub(crate) body: Vec<Lit>,
    pub(crate) num_vars: u32,
}

/// Check that every rule of `program` is Datalog-evaluable.
pub fn is_datalog(program: &Program) -> Result<(), NotDatalog> {
    for r in program.rules() {
        flatten_rule(r)?;
    }
    Ok(())
}

pub(crate) fn flatten_rule(rule: &Rule) -> Result<FlatRule, NotDatalog> {
    let mut body = Vec::new();
    flatten_goal(&rule.body, &mut body)?;
    Ok(FlatRule {
        head: rule.head.clone(),
        body,
        num_vars: rule.num_vars(),
    })
}

fn flatten_goal(goal: &Goal, out: &mut Vec<Lit>) -> Result<(), NotDatalog> {
    match goal {
        Goal::True => Ok(()),
        Goal::Atom(a) => {
            out.push(Lit::Atom(a.clone()));
            Ok(())
        }
        Goal::NotAtom(a) => {
            out.push(Lit::NegAtom(a.clone()));
            Ok(())
        }
        Goal::Builtin(b, ts) => {
            out.push(Lit::Builtin(*b, ts.clone()));
            Ok(())
        }
        Goal::Seq(gs) => {
            for g in gs {
                flatten_goal(g, out)?;
            }
            Ok(())
        }
        other => Err(NotDatalog {
            reason: format!("body contains `{other}` (updates, |, iso, or are not Datalog)"),
        }),
    }
}

/// Every rule of `program`, flattened, under its head predicate.
pub(crate) fn flatten_program(
    program: &Program,
) -> Result<HashMap<Pred, Vec<FlatRule>>, NotDatalog> {
    let mut flat: HashMap<Pred, Vec<FlatRule>> = HashMap::new();
    for rule in program.rules() {
        flat.entry(rule.head.pred)
            .or_default()
            .push(flatten_rule(rule)?);
    }
    Ok(flat)
}

/// The least fixpoint: every derivable fact of every derived predicate.
#[derive(Clone, Debug, Default)]
pub struct Fixpoint {
    facts: HashMap<Pred, CountedRelation>,
    /// Semi-naive rounds until convergence, summed over the program's
    /// strongly-connected components.
    pub iterations: usize,
    /// Facts derived (including duplicates suppressed).
    pub derivations: u64,
}

impl Fixpoint {
    /// All facts of `pred`, sorted.
    pub fn facts_of(&self, pred: Pred) -> Vec<Tuple> {
        self.facts
            .get(&pred)
            .map(CountedRelation::to_vec)
            .unwrap_or_default()
    }

    /// The facts matching a (possibly non-ground) atom, sorted: an indexed
    /// probe of the atom's relation.
    pub(crate) fn matching(&self, atom: &Atom) -> Vec<Tuple> {
        let pattern: Vec<Option<Value>> = atom.args.iter().map(|t| t.as_value()).collect();
        self.facts
            .get(&atom.pred)
            .map(|r| r.select(&pattern))
            .unwrap_or_default()
    }

    /// Does the ground atom hold in the fixpoint?
    pub fn holds(&self, atom: &Atom) -> bool {
        atom.is_ground() && !self.matching(atom).is_empty()
    }

    /// Total number of derived facts.
    pub fn len(&self) -> usize {
        self.facts.values().map(CountedRelation::len).sum()
    }

    /// True if no derived facts exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Compute the least fixpoint of `program` over `db`: compile every rule
/// into the incremental circuit and run it once from an empty derived
/// state. Whether a rule derives anything is read left to right — one whose
/// `not` or builtin reads a variable no earlier literal binds, or whose head
/// the body leaves partly unbound, derives nothing; the order its literals
/// are joined in is the plan compiler's. The result is not retained
/// anywhere: this is the oracle [`query`]'s maintained views answer like.
pub fn evaluate(program: &Program, db: &Database) -> Result<Fixpoint, NotDatalog> {
    let circuit = Circuit::new(flatten_program(program)?);
    let (state, stats) = circuit.run(db);
    Ok(Fixpoint {
        facts: circuit.preds.iter().copied().zip(state.rels).collect(),
        iterations: stats.rounds,
        derivations: stats.derivations,
    })
}

/// What [`query`] compiles from a program, once per `Program` value: its
/// [`is_datalog`] verdict and the circuit of its views. Kept in the
/// program's own cell ([`Compiled`]), so every clone shares it.
pub(crate) struct Views {
    datalog: Result<(), NotDatalog>,
    views: Option<Materializer>,
}

impl Views {
    pub(crate) fn compile(program: &Program) -> Views {
        let datalog = is_datalog(program);
        let views = datalog.is_ok().then(|| Materializer::compile(program).ok());
        Views {
            datalog,
            views: views.flatten(),
        }
    }
}

fn compiled(program: &Program) -> &Views {
    Compiled::of(program).views(program)
}

/// The views [`query`] answers `program`'s derived predicates from, if it
/// has any.
#[cfg(test)]
pub(crate) fn views(program: &Program) -> Option<&Materializer> {
    compiled(program).views.as_ref()
}

/// All answers to a (possibly non-ground) atom, sorted: tuples of the
/// predicate matching the atom's bound positions, drawn from the database
/// for base predicates and from the least fixpoint for derived ones. A
/// predicate the program's views cover ([`Materializer::compile`]) is read
/// off the view's state on `db`'s version: built there by the first query,
/// carried by every version `insert`/`delete` make from it, and brought up
/// to date by one maintenance pass when such a version is first asked.
/// Any other derived predicate runs [`evaluate`].
pub fn query(program: &Program, db: &Database, atom: &Atom) -> Result<Vec<Tuple>, NotDatalog> {
    if program.is_base(atom.pred) {
        let pattern: Vec<Option<Value>> = atom.args.iter().map(|t| t.as_value()).collect();
        return Ok(db
            .relation(atom.pred)
            .map(|r| r.select(&pattern))
            .unwrap_or_default());
    }
    let compiled = compiled(program);
    compiled.datalog.clone()?;
    let viewed = compiled.views.as_ref().and_then(|v| v.select(db, atom));
    match viewed {
        Some(answers) => Ok(answers),
        None => Ok(evaluate(program, db)?.matching(atom)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::load_init;
    use td_db::tuple;
    use td_parser::parse_program;

    fn setup(src: &str) -> (Program, Database) {
        let parsed = parse_program(src).expect("parses");
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).expect("init");
        (parsed.program, db)
    }

    #[test]
    fn transitive_closure() {
        let (p, db) = setup(
            "base e/2.
             init e(a, b). init e(b, c). init e(c, d).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let fix = evaluate(&p, &db).unwrap();
        let path = Pred::new("path", 2);
        assert!(fix.holds(&Atom::new("path", vec![Term::sym("a"), Term::sym("d")])));
        assert_eq!(fix.facts_of(path).len(), 6);
    }

    #[test]
    fn query_filters_by_pattern() {
        let (p, db) = setup(
            "base e/2.
             init e(a, b). init e(b, c).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let ans = query(
            &p,
            &db,
            &Atom::new("path", vec![Term::sym("a"), Term::var(0)]),
        )
        .unwrap();
        assert_eq!(ans.len(), 2);
        let base = query(&p, &db, &Atom::new("e", vec![Term::var(0), Term::var(1)])).unwrap();
        assert_eq!(base.len(), 2);
    }

    #[test]
    fn builtins_as_filters_and_functions() {
        let (p, db) = setup(
            "base n/1.
             init n(1). init n(2). init n(3).
             big(X) <- n(X) * X > 1.
             double(Y) <- n(X) * Y is X + X.",
        );
        let fix = evaluate(&p, &db).unwrap();
        assert_eq!(fix.facts_of(Pred::new("big", 1)).len(), 2);
        let doubles = fix.facts_of(Pred::new("double", 1));
        assert_eq!(doubles, vec![tuple!(2), tuple!(4), tuple!(6)]);
        assert_eq!((fix.iterations, fix.derivations), (2, 5));
        let q = Atom::new("big", vec![Term::var(0)]);
        let (big, stats) = crate::magic::answer(&p, &db, &q).unwrap();
        assert_eq!((big.len(), stats.derivations), (2, 3));
    }

    #[test]
    fn mutual_recursion_converges() {
        let (p, db) = setup(
            "base start/1. base e/2.
             init start(a). init e(a, b). init e(b, a).
             even(X) <- start(X).
             even(X) <- odd(Y) * e(Y, X).
             odd(X) <- even(Y) * e(Y, X).",
        );
        let fix = evaluate(&p, &db).unwrap();
        assert!(fix.holds(&Atom::new("even", vec![Term::sym("a")])));
        assert!(fix.holds(&Atom::new("odd", vec![Term::sym("b")])));
        assert!(fix.holds(&Atom::new("even", vec![Term::sym("a")])));
        assert_eq!((fix.iterations, fix.derivations), (3, 3));
        let q = Atom::new("odd", vec![Term::sym("b")]);
        let (odd, stats) = crate::magic::answer(&p, &db, &q).unwrap();
        assert_eq!((odd.len(), stats.derivations), (1, 8));
    }

    #[test]
    fn non_datalog_rules_rejected() {
        let (p, _) = setup("base t/0. r <- ins.t.");
        assert!(is_datalog(&p).is_err());
        let (p, _) = setup("base a/0. base b/0. r <- a | b.");
        assert!(is_datalog(&p).is_err());
        let (p, _) = setup("base a/0. r <- iso { a }.");
        assert!(is_datalog(&p).is_err());
    }

    #[test]
    fn pure_query_programs_accepted() {
        let (p, _) = setup("base e/2. path(X, Y) <- e(X, Y). path(X, Z) <- e(X, Y) * path(Y, Z).");
        assert!(is_datalog(&p).is_ok());
    }

    #[test]
    fn empty_program_fixpoint_is_empty() {
        let (p, db) = setup("base e/2.");
        let fix = evaluate(&p, &db).unwrap();
        assert!(fix.is_empty());
    }

    #[test]
    fn agreement_with_interpreter_on_queries() {
        // A pure-query goal must succeed top-down iff the fact is in the
        // bottom-up fixpoint.
        let src = "base e/2.
             init e(a, b). init e(b, c). init e(c, d).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).";
        let (p, db) = setup(src);
        let fix = evaluate(&p, &db).unwrap();
        let engine = crate::Engine::new(p.clone());
        for x in ["a", "b", "c", "d"] {
            for y in ["a", "b", "c", "d"] {
                let atom = Atom::new("path", vec![Term::sym(x), Term::sym(y)]);
                let goal = Goal::Atom(atom.clone());
                let eng = engine.executable(&goal, &db).unwrap();
                assert_eq!(eng, fix.holds(&atom), "path({x},{y})");
            }
        }
    }

    /// The counters that tell a pass from none: `(rebuilds, maintained_ops,
    /// maintain_ns)` of the views `query` answers `p` from.
    fn passes(p: &Program) -> (u64, u64, u64) {
        let m = views(p).expect("the program has views");
        (m.rebuilds(), m.maintained_ops(), m.maintain_ns())
    }

    /// `query` over versions made by `Database::insert`/`delete` alone,
    /// some kept and asked again later the way tdbench's bottom-up
    /// evaluator and a choicepoint keep them: every answer is what
    /// `evaluate` gives at that version; the first question after k plain
    /// ops runs one pass over those k, a second question on a version runs
    /// none; and two `Program` values with the same rules keep their states
    /// apart on the one database value, while clones of one share them.
    #[test]
    fn query_answers_like_evaluate_from_the_views_each_version_carries() {
        let src = "base e/2. base blocked/1.
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).
             open(X, Y) <- path(X, Y) * not blocked(Y).
             odd(X) <- not blocked(X) * e(X, X).";
        let (p, mut db) = setup(src);
        let twin = td_parser::parse_program(src).unwrap().program;
        let int = |i: u64| Term::int(i as i64);
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rng = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let ask = |p: &Program, db: &Database, atom: &Atom| {
            let answers = query(p, db, atom).unwrap();
            assert_eq!(answers, evaluate(p, db).unwrap().matching(atom), "{atom}");
        };
        // `odd` reads `blocked(X)` before anything binds X: no view has it,
        // and `query` runs `evaluate` for it.
        assert!(!views(&p).unwrap().is_materialized(Pred::new("odd", 1)));
        assert!(std::ptr::eq(views(&p).unwrap(), views(&p.clone()).unwrap()));
        ask(&p, &db, &Atom::new("path", vec![int(0), Term::var(0)]));
        assert_eq!(passes(&p), (1, 0, 0), "the first question builds");
        let mut kept: Vec<Database> = Vec::new();
        for round in 0..200 {
            // k plain ops; `changed` counts the ones that made a version.
            let mut changed = 0;
            for _ in 0..rng(4) {
                let (a, b) = (Value::Int(rng(5) as i64), Value::Int(rng(5) as i64));
                let (next, grew) = match rng(4) {
                    0 => db.insert(Pred::new("blocked", 1), &Tuple::new(vec![b])),
                    1 => db.delete(Pred::new("blocked", 1), &Tuple::new(vec![b])),
                    2 => db.delete(Pred::new("e", 2), &Tuple::new(vec![a, b])),
                    _ => db.insert(Pred::new("e", 2), &Tuple::new(vec![a, b])),
                }
                .unwrap();
                (db, changed) = (next, changed + u64::from(grew));
            }
            let (node, before) = (rng(5), passes(&p));
            ask(&p, &db, &Atom::new("path", vec![int(node), Term::var(0)]));
            let after = passes(&p);
            assert_eq!(
                (after.0, after.1),
                (before.0, before.1 + changed),
                "round {round}"
            );
            assert_eq!(after.2 == before.2, changed == 0, "one pass, or none");
            ask(&p, &db, &Atom::new("open", vec![Term::var(0), int(node)]));
            ask(&p, &db, &Atom::new("odd", vec![Term::var(0)]));
            assert_eq!(passes(&p), after, "a second question runs no pass");
            if rng(3) == 0 {
                kept.push(db.clone());
            }
            if kept.len() > 4 {
                let old = kept.swap_remove(rng(kept.len() as u64) as usize);
                ask(
                    &p,
                    &old,
                    &Atom::new("path", vec![Term::var(0), Term::var(1)]),
                );
                assert_eq!(passes(&p), after, "a kept version keeps its views");
            }
            // The twin's questions leave `p`'s views and counters alone.
            if round % 5 == 0 {
                ask(
                    &twin,
                    &db,
                    &Atom::new("open", vec![int(node), Term::var(0)]),
                );
                assert_eq!(passes(&p), after);
                assert_eq!(passes(&twin).0, 1, "built once, then maintained");
            }
        }
        assert_eq!(passes(&p).0, 1, "every version maintained, none rebuilt");
        assert!(!std::ptr::eq(views(&p).unwrap(), views(&twin).unwrap()));
    }

    /// What a lineage nobody asks about holds: after one question, 100 000
    /// plain inserts leave the last version pending on the version asked
    /// about — one ancestor, holding its state though nothing else holds
    /// that version any more — with one list of every op, and no state in
    /// between (one there would have cut the list short). The first
    /// question there is one pass over all of them and answers like
    /// `evaluate`; and the list is freed link by link, so it drops on a
    /// stack far too small to recurse down it, and the ancestor's state
    /// with it. (td-db's `an_underived_lineage_holds_one_ancestor_and_one_op_list`
    /// looks at the list itself.)
    #[test]
    fn an_unprobed_lineage_holds_one_ancestor_and_one_op_list() {
        use crate::incremental::circuit::MatState;
        use std::sync::Arc;
        const OPS: u64 = 100_000;
        let (p, mut db) = setup(
            "base e/2. init e(0, 1).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let from0 = Atom::new("path", vec![Term::int(0), Term::var(0)]);
        assert_eq!(query(&p, &db, &from0).unwrap(), vec![td_db::tuple!(0, 1)]);
        let m = views(&p).unwrap();
        let state_of = |db: &Database| {
            let made = m.slot(db).get()?.downcast_ref::<Arc<MatState>>();
            Some(Arc::downgrade(made.expect("a circuit's state")))
        };
        let root = state_of(&db).expect("asked");
        let before = passes(&p);
        // Edges off to the side, none touching another.
        let e = Pred::new("e", 2);
        let edge = |i: u64| {
            Tuple::new(vec![
                Value::Int(2 * i as i64 + 2),
                Value::Int(2 * i as i64 + 3),
            ])
        };
        for i in 0..OPS {
            db = db.insert(e, &edge(i)).unwrap().0;
        }
        assert!(state_of(&db).is_none(), "no state on the last version");
        assert!(root.upgrade().is_some(), "its ancestor's, held by it");
        // One more version that shares the whole list, to drop unasked.
        let (doomed, _) = db.insert(e, &edge(OPS)).unwrap();
        assert_eq!(passes(&p), before, "no question, no pass");
        let answers = query(&p, &db, &from0).unwrap();
        assert_eq!(answers, evaluate(&p, &db).unwrap().matching(&from0));
        let after = passes(&p);
        assert_eq!((after.0, after.1), (before.0, before.1 + OPS), "one pass");
        let dropped = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || drop(doomed))
            .unwrap();
        dropped
            .join()
            .expect("drops without recursing down the list");
        assert!(root.upgrade().is_none(), "freed with the last list");
    }
}

#[cfg(test)]
mod negation_tests {
    use super::*;
    use crate::engine::load_init;
    use td_parser::parse_program;

    fn setup(src: &str) -> (Program, Database) {
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).unwrap();
        (parsed.program, db)
    }

    #[test]
    fn absence_tests_filter_bottom_up() {
        let (p, db) = setup(
            "base node/1. base broken/1.
             init node(a). init node(b). init node(c).
             init broken(b).
             healthy(X) <- node(X) * not broken(X).",
        );
        let fix = evaluate(&p, &db).unwrap();
        let names: Vec<String> = fix
            .facts_of(Pred::new("healthy", 1))
            .iter()
            .map(|t| t.to_string())
            .collect();
        assert_eq!(names, vec!["(a)", "(c)"]);
    }

    #[test]
    fn negation_inside_recursion() {
        // Reachability avoiding blocked nodes.
        let (p, db) = setup(
            "base e/2. base blocked/1.
             init e(a, b). init e(b, c). init e(c, d).
             init blocked(c).
             reach(X) <- e(a, X) * not blocked(X).
             reach(Y) <- reach(X) * e(X, Y) * not blocked(Y).",
        );
        let fix = evaluate(&p, &db).unwrap();
        assert!(fix.holds(&Atom::new("reach", vec![Term::sym("b")])));
        assert!(!fix.holds(&Atom::new("reach", vec![Term::sym("c")])));
        assert!(
            !fix.holds(&Atom::new("reach", vec![Term::sym("d")])),
            "d is only reachable through blocked c"
        );
        assert_eq!((fix.iterations, fix.derivations), (2, 1));
        let q = Atom::new("reach", vec![Term::var(0)]);
        let (reach, stats) = crate::magic::answer(&p, &db, &q).unwrap();
        assert_eq!((reach.len(), stats.derivations), (1, 3));
    }

    #[test]
    fn rules_the_materializer_rejects_still_evaluate_left_to_right() {
        // Whether a rule is live is read in body order: `X = Y` before `n(Y)`
        // binds nothing until `n` does — from there on the rule is live, so
        // `r` and its reader `s` are views — and `not b(X)` with X unbound
        // matches nothing, which no view may answer for a call that binds X.
        let (p, db) = setup(
            "base n/1. base b/1. base e/2.
             init n(1). init n(2). init b(2). init e(1, 1). init e(2, 2).
             r(X) <- X = Y * n(Y) * not b(X).
             odd(X) <- not b(X) * e(X, X).
             s(X) <- n(X) * r(X).",
        );
        let (r, s) = (Pred::new("r", 1), Pred::new("s", 1));
        let m = crate::Materializer::compile(&p).unwrap();
        assert_eq!(m.materialized_preds(), vec![r, s]);
        let fix = evaluate(&p, &db).unwrap();
        assert_eq!(fix.facts_of(r), vec![td_db::tuple!(1)]);
        assert!(fix.facts_of(Pred::new("odd", 1)).is_empty());
        assert_eq!(fix.facts_of(s), vec![td_db::tuple!(1)]);
        // Maintained, the two views stay what the run from scratch gives:
        // every event enters `r` at a later position than `X = Y`. Each op
        // goes to the database alone, which leaves the version it makes
        // pending on the last one probed (it was handed to the materializer
        // too while `apply_ops` did that).
        let mut db = db;
        assert_eq!(m.facts(&db, r), fix.facts_of(r));
        for (ins, pred, v) in [
            (false, "b", 2),
            (true, "n", 3),
            (true, "b", 1),
            (false, "n", 2),
        ] {
            let (pred, t) = (Pred::new(pred, 1), td_db::tuple!(v));
            let op = if ins {
                td_db::DeltaOp::Ins(pred, t)
            } else {
                td_db::DeltaOp::Del(pred, t)
            };
            db = op.apply(&db).unwrap();
            let fix = evaluate(&p, &db).unwrap();
            assert!(!fix.facts_of(r).is_empty());
            assert_eq!(
                (m.facts(&db, r), m.facts(&db, s)),
                (fix.facts_of(r), fix.facts_of(s))
            );
        }
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    fn a_dead_rule_in_a_recursive_component_stays_dead() {
        // `r`'s body in order reaches `not b(X)` with X unbound and derives
        // nothing. The semi-naive loop enters a rule with each new tuple of
        // its own component, and entered with an `s` tuple X is bound and
        // the `not` passes: a rule that is dead in order has no such entry.
        let (p, db) = setup(
            "base e/2. base b/1.
             init e(1, 1). init e(2, 2). init b(2).
             r(X) <- not b(X) * s(X).
             s(X) <- e(X, X).
             s(X) <- r(X).",
        );
        let fix = evaluate(&p, &db).unwrap();
        assert!(fix.facts_of(Pred::new("r", 1)).is_empty());
        let s = fix.facts_of(Pred::new("s", 1));
        assert_eq!(s, vec![td_db::tuple!(1), td_db::tuple!(2)]);
        let q = Atom::new("r", vec![Term::var(0)]);
        assert!(crate::magic::answer(&p, &db, &q).unwrap().0.is_empty());
        // No view answers for `r`, nor for `s`, which reads it.
        assert!(crate::Materializer::compile(&p).is_err());
    }

    #[test]
    fn magic_and_bottom_up_agree_with_negation() {
        let src = "base e/2. base blocked/1.
             init e(a, b). init e(b, c). init e(b, a).
             init blocked(c).
             reach(X) <- e(a, X) * not blocked(X).
             reach(Y) <- reach(X) * e(X, Y) * not blocked(Y).";
        let (p, db) = setup(src);
        let q = Atom::new("reach", vec![Term::var(0)]);
        let naive = query(&p, &db, &q).unwrap();
        let (magic, _) = crate::magic::answer(&p, &db, &q).unwrap();
        assert_eq!(naive, magic);
    }

    #[test]
    fn engine_agrees_on_negation_queries() {
        let src = "base node/1. base broken/1.
             init node(a). init node(b). init broken(b).
             healthy(X) <- node(X) * not broken(X).";
        let (p, db) = setup(src);
        let engine = crate::Engine::new(p.clone());
        for (n, expect) in [("a", true), ("b", false)] {
            let g = Goal::atom("healthy", vec![Term::sym(n)]);
            assert_eq!(engine.executable(&g, &db).unwrap(), expect, "{n}");
        }
    }
}
