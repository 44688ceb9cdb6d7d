//! Rules: named, parameterized transactions and processes.

use crate::atom::Atom;
use crate::goal::Goal;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::fmt;

/// Index of a rule within its [`crate::program::Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RuleId(pub u32);

/// A TD rule `head <- body`.
///
/// Variables inside a rule are *rule-local*: they are indices
/// `0..num_vars()` into [`Rule::var_names`]. The engine renames them apart
/// at unfold time by reading them through an offset into a fresh runtime id
/// range ([`Term::offset`]), so the same rule can be active many times
/// concurrently (each workflow instance gets fresh variables) while its
/// body is stored once.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    pub head: Atom,
    pub body: Goal,
    /// Display names for the rule-local variables, indexed by [`Var`] id.
    pub var_names: Vec<Symbol>,
}

impl Rule {
    /// Build a rule, computing the variable-name table from the names
    /// already present. Intended for tests and programmatic construction;
    /// the parser builds the table itself.
    pub fn new(head: Atom, body: Goal) -> Rule {
        let mut max = 0u32;
        let mut track = |t: &Term| {
            if let Term::Var(Var(i)) = t {
                max = max.max(i + 1);
            }
        };
        for t in &head.args {
            track(t);
        }
        body.visit(&mut |g| match g {
            Goal::Atom(a) | Goal::NotAtom(a) | Goal::Ins(a) | Goal::Del(a) => {
                for t in &a.args {
                    track(t);
                }
            }
            Goal::Builtin(_, ts) => {
                for t in ts {
                    track(t);
                }
            }
            _ => {}
        });
        let var_names = (0..max).map(|i| Symbol::intern(&format!("X{i}"))).collect();
        Rule {
            head,
            body,
            var_names,
        }
    }

    /// With an explicit variable-name table (used by the parser).
    pub fn with_var_names(head: Atom, body: Goal, var_names: Vec<Symbol>) -> Rule {
        Rule {
            head,
            body,
            var_names,
        }
    }

    /// The number of distinct rule-local variables.
    pub fn num_vars(&self) -> u32 {
        u32::try_from(self.var_names.len()).expect("rule variable count overflow")
    }

    /// The head's arguments renamed apart by `offset` ([`Term::offset`]) —
    /// what a call unifies with, without building the renamed head.
    pub fn head_args(&self, offset: u32) -> impl ExactSizeIterator<Item = Term> + '_ {
        self.head.args.iter().map(move |t| t.offset(offset))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print with the source variable names where available.
        let named = |t: Term| -> String {
            match t {
                Term::Var(Var(i)) => self
                    .var_names
                    .get(i as usize)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("_V{i}")),
                Term::Val(v) => v.to_string(),
            }
        };
        write!(f, "{}", self.head.pred.name)?;
        if !self.head.args.is_empty() {
            write!(f, "(")?;
            for (i, t) in self.head.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", named(*t))?;
            }
            write!(f, ")")?;
        }
        let rendered = render_goal_with_names(&self.body, &self.var_names);
        write!(f, " <- {rendered}.")
    }
}

/// Render a goal using a variable-name table (used for rule display and
/// program round-tripping).
pub fn render_goal_with_names(goal: &Goal, names: &[Symbol]) -> String {
    // Substitute each variable with a *symbolic marker value* carrying its
    // display name, then use the normal goal printer. Variable names in TD
    // source are capitalized, so the marker text is exactly the name.
    let g = goal.map_terms(&mut |t| match t {
        Term::Var(Var(i)) => match names.get(i as usize) {
            Some(s) => Term::sym(s.as_str()),
            None => Term::sym(&format!("_V{i}")),
        },
        other => other,
    });
    g.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_counts_vars_across_head_and_body() {
        let r = Rule::new(
            Atom::new("p", vec![Term::var(0)]),
            Goal::seq(vec![
                Goal::atom("q", vec![Term::var(0), Term::var(1)]),
                Goal::ins("r", vec![Term::var(2)]),
            ]),
        );
        assert_eq!(r.num_vars(), 3);
    }

    #[test]
    fn head_args_offset_all_vars() {
        let r = Rule::new(
            Atom::new("p", vec![Term::var(0), Term::var(1)]),
            Goal::atom("q", vec![Term::var(0), Term::var(1)]),
        );
        let h: Vec<Term> = r.head_args(100).collect();
        assert_eq!(h, vec![Term::var(100), Term::var(101)]);
    }

    #[test]
    fn head_args_at_zero_are_the_head() {
        let r = Rule::new(Atom::prop("p"), Goal::atom("q", vec![Term::var(0)]));
        assert!(r.head_args(0).eq(r.head.args.iter().copied()));
    }

    #[test]
    fn display_uses_var_names() {
        let r = Rule::with_var_names(
            Atom::new("withdraw", vec![Term::var(0), Term::var(1)]),
            Goal::seq(vec![
                Goal::atom("balance", vec![Term::var(0), Term::var(2)]),
                Goal::del("balance", vec![Term::var(0), Term::var(2)]),
            ]),
            vec![
                Symbol::intern("Amt"),
                Symbol::intern("Acct"),
                Symbol::intern("Bal"),
            ],
        );
        let s = r.to_string();
        assert_eq!(
            s,
            "withdraw(Amt, Acct) <- balance(Amt, Bal) * del.balance(Amt, Bal)."
        );
    }

    #[test]
    fn constants_survive_rename() {
        let r = Rule::new(
            Atom::new("p", vec![Term::sym("c"), Term::var(0)]),
            Goal::atom("q", vec![Term::var(0)]),
        );
        let h: Vec<Term> = r.head_args(7).collect();
        assert_eq!(h, vec![Term::sym("c"), Term::var(7)]);
    }
}
