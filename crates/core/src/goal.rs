//! The goal AST: TD's process/transaction expressions.
//!
//! Concrete syntax used by `td-parser` and by `Display`:
//!
//! ```text
//! ()                  empty goal (unit; always succeeds, changes nothing)
//! fail                always fails
//! p(a, X)             atom: tuple test (base), call (derived), or builtin
//! not p(a, X)         absence test on a base predicate (extension; see below)
//! ins.p(a, b)         insert tuple
//! del.p(a, b)         delete tuple
//! a * b               serial composition  (the paper's ⊗)
//! a | b               concurrent composition
//! iso { a }           isolation           (the paper's ⊙)
//! { a or b }          explicit choice (disjunction)
//! X < Y, X <= Y, ...  comparison builtins
//! Z is X + Y          arithmetic builtins
//! ```
//!
//! Serial composition binds tighter than concurrent composition, so
//! `a * b | c * d` reads `(a * b) | (c * d)`, matching the paper's examples.
//!
//! `not p(t̄)` (a ground absence test on a base predicate) is a conservative
//! convenience extension: the paper's core TD is negation-free, and every use
//! in this repository can be rewritten with complementary presence tuples.
//! The fragment classifier treats it like a tuple test.

use crate::atom::Atom;
use crate::term::{Term, Var};
use std::fmt;

/// Comparison and arithmetic builtins.
///
/// These model the "elementary operations" slot of TD: the paper factors
/// elementary operations out of the complexity analysis and allows them to be
/// any black-box database interaction (\[20\]); the examples use comparisons
/// and arithmetic on account balances. All builtins are *tests*: they never
/// change the database. Arithmetic builtins require their input operands to
/// be ground at execution time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    /// `X = Y` — unification.
    Eq,
    /// `X != Y` — disunification (both sides must be ground).
    Ne,
    /// `X < Y` (ground integers).
    Lt,
    /// `X <= Y` (ground integers).
    Le,
    /// `X > Y` (ground integers).
    Gt,
    /// `X >= Y` (ground integers).
    Ge,
    /// `Z is X + Y` — binds or checks `Z`.
    Add,
    /// `Z is X - Y`.
    Sub,
    /// `Z is X * Y`.
    Mul,
}

impl Builtin {
    /// The number of term arguments the builtin takes.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Eq | Builtin::Ne | Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => 2,
            Builtin::Add | Builtin::Sub | Builtin::Mul => 3,
        }
    }

    /// Human-readable operator name.
    pub fn op_str(self) -> &'static str {
        match self {
            Builtin::Eq => "=",
            Builtin::Ne => "!=",
            Builtin::Lt => "<",
            Builtin::Le => "<=",
            Builtin::Gt => ">",
            Builtin::Ge => ">=",
            Builtin::Add => "+",
            Builtin::Sub => "-",
            Builtin::Mul => "*",
        }
    }
}

/// A TD goal (transaction/process expression).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Goal {
    /// The empty goal `()`: succeeds immediately on the current state.
    True,
    /// `fail`: no successful execution.
    Fail,
    /// An atom. Whether it is a tuple test (base predicate), a call (derived
    /// predicate) or ill-formed is decided against the program + schema.
    Atom(Atom),
    /// `not p(t̄)`: succeeds iff the (ground) tuple is absent from the
    /// database. Base predicates only.
    NotAtom(Atom),
    /// `ins.p(t̄)`: elementary insertion.
    Ins(Atom),
    /// `del.p(t̄)`: elementary deletion.
    Del(Atom),
    /// Comparison/arithmetic test.
    Builtin(Builtin, Vec<Term>),
    /// Serial composition `g₁ * g₂ * … * gₙ` (n ≥ 2 after normalization).
    Seq(Vec<Goal>),
    /// Concurrent composition `g₁ | g₂ | … | gₙ` (n ≥ 2 after normalization).
    Par(Vec<Goal>),
    /// Isolation `iso { g }`.
    Iso(Box<Goal>),
    /// Explicit choice `{ g₁ or g₂ or … }`: execute exactly one branch.
    Choice(Vec<Goal>),
}

impl Goal {
    /// Atom goal helper.
    pub fn atom(name: &str, args: Vec<Term>) -> Goal {
        Goal::Atom(Atom::new(name, args))
    }

    /// Propositional atom goal helper.
    pub fn prop(name: &str) -> Goal {
        Goal::Atom(Atom::prop(name))
    }

    /// Insertion goal helper.
    pub fn ins(name: &str, args: Vec<Term>) -> Goal {
        Goal::Ins(Atom::new(name, args))
    }

    /// Deletion goal helper.
    pub fn del(name: &str, args: Vec<Term>) -> Goal {
        Goal::Del(Atom::new(name, args))
    }

    /// Serial composition of `goals`, flattening nested `Seq`s and dropping
    /// `True` units. Returns `True` for an empty input and the sole goal for
    /// a singleton.
    pub fn seq(goals: Vec<Goal>) -> Goal {
        if !goals.iter().any(|g| matches!(g, Goal::True | Goal::Seq(_))) {
            return Goal::flat(goals, Goal::Seq);
        }
        let mut out = Vec::with_capacity(goals.len());
        for g in goals {
            match g {
                Goal::True => {}
                Goal::Seq(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Goal::True,
            1 => out.pop().expect("len checked"),
            _ => Goal::Seq(out),
        }
    }

    /// Concurrent composition of `goals`, flattening nested `Par`s and
    /// dropping `True` units.
    pub fn par(goals: Vec<Goal>) -> Goal {
        if !goals.iter().any(|g| matches!(g, Goal::True | Goal::Par(_))) {
            return Goal::flat(goals, Goal::Par);
        }
        let mut out = Vec::with_capacity(goals.len());
        for g in goals {
            match g {
                Goal::True => {}
                Goal::Par(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Goal::True,
            1 => out.pop().expect("len checked"),
            _ => Goal::Par(out),
        }
    }

    /// `goals`, which need no flattening, as one region built by `region`:
    /// nothing, the one goal, or the region over the vector as it is.
    fn flat(mut goals: Vec<Goal>, region: fn(Vec<Goal>) -> Goal) -> Goal {
        match goals.len() {
            0 => Goal::True,
            1 => goals.pop().expect("len checked"),
            _ => region(goals),
        }
    }

    /// Isolated goal `iso { g }`.
    pub fn iso(g: Goal) -> Goal {
        Goal::Iso(Box::new(g))
    }

    /// Choice between `goals`. Empty choice is `Fail`; singleton is the goal.
    pub fn choice(goals: Vec<Goal>) -> Goal {
        match goals.len() {
            0 => Goal::Fail,
            1 => {
                let mut goals = goals;
                goals.pop().expect("len checked")
            }
            _ => Goal::Choice(goals),
        }
    }

    /// Visit every subgoal (pre-order), including `self`.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Goal)) {
        f(self);
        match self {
            Goal::Seq(gs) | Goal::Par(gs) | Goal::Choice(gs) => {
                for g in gs {
                    g.visit(f);
                }
            }
            Goal::Iso(g) => g.visit(f),
            _ => {}
        }
    }

    /// Collect the distinct variables occurring in the goal, in first-seen
    /// order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = Vec::new();
        self.visit(&mut |g| {
            let mut push = |v: Var| {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            };
            match g {
                Goal::Atom(a) | Goal::NotAtom(a) | Goal::Ins(a) | Goal::Del(a) => {
                    for v in a.vars() {
                        push(v);
                    }
                }
                Goal::Builtin(_, ts) => {
                    for v in ts.iter().filter_map(Term::as_var) {
                        push(v);
                    }
                }
                _ => {}
            }
        });
        seen
    }

    /// True iff the goal contains a concurrent composition anywhere.
    pub fn has_par(&self) -> bool {
        let mut found = false;
        self.visit(&mut |g| {
            if matches!(g, Goal::Par(_)) {
                found = true;
            }
        });
        found
    }

    /// The number of AST nodes in the goal.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Apply `f` to every term in the goal, rebuilding it. Used for variable
    /// renaming and substitution application.
    pub fn map_terms(&self, f: &mut impl FnMut(Term) -> Term) -> Goal {
        let map_atom = |a: &Atom, f: &mut dyn FnMut(Term) -> Term| Atom {
            pred: a.pred,
            args: a.args.iter().map(|t| f(*t)).collect(),
        };
        match self {
            Goal::True => Goal::True,
            Goal::Fail => Goal::Fail,
            Goal::Atom(a) => Goal::Atom(map_atom(a, f)),
            Goal::NotAtom(a) => Goal::NotAtom(map_atom(a, f)),
            Goal::Ins(a) => Goal::Ins(map_atom(a, f)),
            Goal::Del(a) => Goal::Del(map_atom(a, f)),
            Goal::Builtin(b, ts) => Goal::Builtin(*b, ts.iter().map(|t| f(*t)).collect()),
            Goal::Seq(gs) => Goal::Seq(gs.iter().map(|g| g.map_terms(f)).collect()),
            Goal::Par(gs) => Goal::Par(gs.iter().map(|g| g.map_terms(f)).collect()),
            Goal::Iso(g) => Goal::Iso(Box::new(g.map_terms(f))),
            Goal::Choice(gs) => Goal::Choice(gs.iter().map(|g| g.map_terms(f)).collect()),
        }
    }
}

/// Precedence-aware printer: `*` binds tighter than `|`; `or` is only valid
/// inside braces; atoms/updates/iso are atomic.
fn fmt_prec(g: &Goal, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    // prec: 0 = top/choice context, 1 = par context, 2 = seq context
    match g {
        Goal::True => write!(f, "()"),
        Goal::Fail => write!(f, "fail"),
        Goal::Atom(a) => write!(f, "{a}"),
        Goal::NotAtom(a) => write!(f, "not {a}"),
        Goal::Ins(a) => write!(f, "ins.{a}"),
        Goal::Del(a) => write!(f, "del.{a}"),
        Goal::Builtin(b, ts) => match b {
            Builtin::Add | Builtin::Sub | Builtin::Mul => {
                write!(f, "{} is {} {} {}", ts[2], ts[0], b.op_str(), ts[1])
            }
            _ => write!(f, "{} {} {}", ts[0], b.op_str(), ts[1]),
        },
        Goal::Seq(gs) => {
            let need_paren = prec > 2;
            if need_paren {
                write!(f, "(")?;
            }
            for (i, g) in gs.iter().enumerate() {
                if i > 0 {
                    write!(f, " * ")?;
                }
                fmt_prec(g, f, 3)?;
            }
            if need_paren {
                write!(f, ")")?;
            }
            Ok(())
        }
        Goal::Par(gs) => {
            let need_paren = prec > 1;
            if need_paren {
                write!(f, "(")?;
            }
            for (i, g) in gs.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                fmt_prec(g, f, 2)?;
            }
            if need_paren {
                write!(f, ")")?;
            }
            Ok(())
        }
        Goal::Iso(g) => {
            write!(f, "iso {{ ")?;
            fmt_prec(g, f, 0)?;
            write!(f, " }}")
        }
        Goal::Choice(gs) => {
            write!(f, "{{ ")?;
            for (i, g) in gs.iter().enumerate() {
                if i > 0 {
                    write!(f, " or ")?;
                }
                fmt_prec(g, f, 1)?;
            }
            write!(f, " }}")
        }
    }
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prec(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(name: &str) -> Goal {
        Goal::prop(name)
    }

    #[test]
    fn seq_flattens_and_drops_units() {
        let g = Goal::seq(vec![a("p"), Goal::True, Goal::seq(vec![a("q"), a("r")])]);
        assert_eq!(g, Goal::Seq(vec![a("p"), a("q"), a("r")]));
    }

    #[test]
    fn empty_seq_is_true_singleton_is_identity() {
        assert_eq!(Goal::seq(vec![]), Goal::True);
        assert_eq!(Goal::seq(vec![a("p")]), a("p"));
        assert_eq!(Goal::par(vec![]), Goal::True);
        assert_eq!(Goal::par(vec![a("p")]), a("p"));
    }

    #[test]
    fn par_flattens() {
        let g = Goal::par(vec![a("p"), Goal::par(vec![a("q"), a("r")])]);
        assert_eq!(g, Goal::Par(vec![a("p"), a("q"), a("r")]));
    }

    #[test]
    fn choice_edge_cases() {
        assert_eq!(Goal::choice(vec![]), Goal::Fail);
        assert_eq!(Goal::choice(vec![a("p")]), a("p"));
    }

    #[test]
    fn display_respects_precedence() {
        let g = Goal::par(vec![
            Goal::seq(vec![a("a"), a("b")]),
            Goal::seq(vec![a("c"), a("d")]),
        ]);
        assert_eq!(g.to_string(), "a * b | c * d");

        let g2 = Goal::seq(vec![Goal::par(vec![a("a"), a("b")]), a("c")]);
        assert_eq!(g2.to_string(), "(a | b) * c");
    }

    #[test]
    fn display_updates_iso_choice() {
        let g = Goal::seq(vec![
            Goal::ins("p", vec![Term::sym("x")]),
            Goal::iso(Goal::del("q", vec![])),
            Goal::choice(vec![a("r"), a("s")]),
        ]);
        assert_eq!(g.to_string(), "ins.p(x) * iso { del.q } * { r or s }");
    }

    #[test]
    fn vars_in_first_seen_order_without_dups() {
        let g = Goal::seq(vec![
            Goal::atom("p", vec![Term::var(2), Term::var(0)]),
            Goal::atom("q", vec![Term::var(0), Term::var(1)]),
        ]);
        assert_eq!(g.vars(), vec![Var(2), Var(0), Var(1)]);
    }

    #[test]
    fn has_par_and_update_probe_deeply() {
        // True iff the goal contains an update (`ins`/`del`) anywhere.
        let has_update = |goal: &Goal| {
            let mut found = false;
            goal.visit(&mut |g| found |= matches!(g, Goal::Ins(_) | Goal::Del(_)));
            found
        };
        let g = Goal::iso(Goal::seq(vec![a("p"), Goal::par(vec![a("q"), a("r")])]));
        assert!(g.has_par());
        assert!(!has_update(&g));
        let h = Goal::choice(vec![a("p"), Goal::ins("q", vec![])]);
        assert!(has_update(&h));
        assert!(!h.has_par());
    }

    #[test]
    fn map_terms_renames_vars() {
        let g = Goal::atom("p", vec![Term::var(0), Term::sym("c")]);
        let g2 = g.map_terms(&mut |t| match t {
            Term::Var(Var(i)) => Term::var(i + 10),
            other => other,
        });
        assert_eq!(g2, Goal::atom("p", vec![Term::var(10), Term::sym("c")]));
    }

    #[test]
    fn size_counts_nodes() {
        let g = Goal::seq(vec![a("p"), Goal::par(vec![a("q"), a("r")])]);
        // Seq + p + Par + q + r = 5
        assert_eq!(g.size(), 5);
    }

    #[test]
    fn builtin_display() {
        let g = Goal::Builtin(Builtin::Lt, vec![Term::var(0), Term::int(5)]);
        assert_eq!(g.to_string(), "_V0 < 5");
        let h = Goal::Builtin(Builtin::Sub, vec![Term::var(0), Term::int(1), Term::var(1)]);
        assert_eq!(h.to_string(), "_V1 is _V0 - 1");
    }
}
