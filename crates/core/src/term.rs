//! Terms and values.
//!
//! TD is a Datalog: terms are variables or constants — there are no function
//! symbols, so the term language (and unification) stays flat. Constants are
//! either symbolic ([`Value::Sym`]) or integers ([`Value::Int`]); integers
//! exist so that the paper's banking and laboratory examples (`Bal > Amt`,
//! `Bal' is Bal - Amt`) can be written directly.

use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;

/// A runtime variable identity.
///
/// Inside a [`crate::rule::Rule`], variables are rule-local indices
/// `0..rule.num_vars`; the engine *renames apart* at unfold time by offsetting
/// into a fresh id range. Two `Var`s are the same logical variable iff their
/// ids are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_V{}", self.0)
    }
}

/// A ground constant: an uninterpreted symbol or an integer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// An uninterpreted constant, e.g. `alice`, `gel_42`.
    Sym(Symbol),
    /// A machine integer. Used by the arithmetic builtins.
    Int(i64),
}

impl Value {
    /// Symbolic constant from a string.
    pub fn sym(s: &str) -> Value {
        Value::Sym(Symbol::intern(s))
    }

    /// True if this value is an integer.
    pub fn is_int(&self) -> bool {
        matches!(self, Value::Int(_))
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Sym(_) => None,
        }
    }
}

/// Values order: integers before symbols; integers numerically, symbols by
/// interned text. A total order is required by the sorted relation storage in
/// `td-db`.
impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Int(_), Value::Sym(_)) => Ordering::Less,
            (Value::Sym(_), Value::Int(_)) => Ordering::Greater,
            (Value::Sym(a), Value::Sym(b)) => a.cmp(b),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::sym(s)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Value {
        Value::Sym(s)
    }
}

/// A term: a variable or a ground value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A logic variable.
    Var(Var),
    /// A ground constant.
    Val(Value),
}

impl Term {
    /// Variable term with rule-local or runtime id `i`.
    pub fn var(i: u32) -> Term {
        Term::Var(Var(i))
    }

    /// Symbolic constant term.
    pub fn sym(s: &str) -> Term {
        Term::Val(Value::sym(s))
    }

    /// Integer constant term.
    pub fn int(i: i64) -> Term {
        Term::Val(Value::Int(i))
    }

    /// True iff the term is ground (not a variable).
    pub fn is_ground(&self) -> bool {
        matches!(self, Term::Val(_))
    }

    /// The value, if ground.
    pub fn as_value(&self) -> Option<Value> {
        match self {
            Term::Val(v) => Some(*v),
            Term::Var(_) => None,
        }
    }

    /// The variable, if not ground.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Val(_) => None,
        }
    }

    /// The term with a variable's id moved up by `by`: how a rule-local
    /// term reads in an unfolding whose variables start at `by`.
    pub fn offset(self, by: u32) -> Term {
        match self {
            Term::Var(Var(i)) => Term::var(i + by),
            val => val,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Val(v) => write!(f, "{v}"),
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Term {
        Term::Val(v)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

impl From<i64> for Term {
    fn from(i: i64) -> Term {
        Term::int(i)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Term {
        Term::sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_ordering_is_total_and_stable() {
        let vals = [
            Value::Int(-3),
            Value::Int(0),
            Value::Int(7),
            Value::sym("a"),
            Value::sym("b"),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn ints_sort_before_symbols() {
        assert!(Value::Int(i64::MAX) < Value::sym(""));
    }

    #[test]
    fn symbol_order_is_textual_not_interning_order() {
        // Intern in reverse lexicographic order; comparison must still be
        // textual.
        let z = Value::sym("zzz_order_test");
        let a = Value::sym("aaa_order_test");
        assert!(a < z);
    }

    #[test]
    fn value_order_agrees_with_the_text_reference_on_every_pair() {
        // The symbol arm short-cuts on interned ids; the order it yields must
        // still be (ints numerically) < (symbols by text), with equal
        // symbols — interned twice — comparing Equal.
        let vals = [
            Value::Int(i64::MIN),
            Value::Int(5),
            Value::sym("pair_b"),
            Value::sym("pair_a"),
            Value::sym("pair_ab"),
            Value::sym("pair_a"),
            Value::sym(""),
        ];
        let key = |v: &Value| match v {
            Value::Int(i) => (0, *i, ""),
            Value::Sym(s) => (1, 0, s.as_str()),
        };
        for a in &vals {
            for b in &vals {
                assert_eq!(a.cmp(b), key(a).cmp(&key(b)), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn term_groundness() {
        assert!(Term::sym("x").is_ground());
        assert!(Term::int(4).is_ground());
        assert!(!Term::var(0).is_ground());
        assert_eq!(Term::int(4).as_value(), Some(Value::Int(4)));
        assert_eq!(Term::var(3).as_var(), Some(Var(3)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::sym("plate").to_string(), "plate");
        assert_eq!(Term::int(-2).to_string(), "-2");
        assert_eq!(Term::var(5).to_string(), "_V5");
    }
}
