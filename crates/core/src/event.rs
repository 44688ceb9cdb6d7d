//! Complex-event patterns and triggers.
//!
//! Following Gomes & Alferes' *Transaction Logic with (Complex) Events*,
//! programs may declare *event relations* (`event e/n.`) and attach
//! *triggers* — `on <pattern> do <goal>.` — whose pattern is built from
//! event atoms with three combinators:
//!
//! * `seq(p, q)` — a match of `p` strictly before a match of `q` (arrival
//!   order, not timestamp order);
//! * `and(p, q)` — matches of `p` and `q` in either order;
//! * `within(p, d)` — a match of `p` whose events span at most `d`
//!   timestamp units.
//!
//! Pattern atoms are written with the event's *declared* arity; the stored
//! timestamp column stays implicit and feeds `within`. Variables are shared
//! between the pattern and the trigger goal: when a pattern completes, the
//! bindings accumulated by matching are applied to the goal and the result
//! is executed as an ordinary TD transaction.
//!
//! The incremental match automata live in the `td-events` crate; this
//! module is only the abstract syntax plus static validation.

use crate::atom::{Atom, Pred};
use crate::error::{CoreError, CoreResult};
use crate::goal::Goal;
use crate::program::Program;
use crate::rule::render_goal_with_names;
use crate::symbol::Symbol;
use crate::term::Term;
use std::fmt;

/// Upper bound on event atoms per pattern — the automaton tracks assigned
/// leaves in a 64-bit mask.
pub const MAX_PATTERN_LEAVES: usize = 64;

/// A complex-event pattern over declared event relations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EventPattern {
    /// A single event occurrence, written with the declared arity (no
    /// timestamp column).
    Atom(Atom),
    /// Left strictly before right, in arrival order.
    Seq(Box<EventPattern>, Box<EventPattern>),
    /// Both sub-patterns, in either order.
    And(Box<EventPattern>, Box<EventPattern>),
    /// The sub-pattern with its events' timestamps spanning at most the
    /// given number of units.
    Within(Box<EventPattern>, u64),
}

impl EventPattern {
    /// The event atoms of the pattern, left to right.
    pub fn leaves(&self) -> Vec<&Atom> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Atom>) {
        match self {
            EventPattern::Atom(a) => out.push(a),
            EventPattern::Seq(l, r) | EventPattern::And(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
            EventPattern::Within(p, _) => p.collect_leaves(out),
        }
    }

    /// Every variable occurring in the pattern.
    pub fn vars(&self) -> Vec<crate::term::Var> {
        let mut out = Vec::new();
        for leaf in self.leaves() {
            for v in leaf.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    fn render(&self, names: &[Symbol], out: &mut String) {
        match self {
            EventPattern::Atom(a) => {
                out.push_str(a.pred.name.as_str());
                if !a.args.is_empty() {
                    out.push('(');
                    for (i, t) in a.args.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        match t {
                            Term::Var(v) => match names.get(v.0 as usize) {
                                Some(n) => out.push_str(n.as_str()),
                                None => out.push_str(&format!("_V{}", v.0)),
                            },
                            Term::Val(val) => out.push_str(&val.to_string()),
                        }
                    }
                    out.push(')');
                }
            }
            EventPattern::Seq(l, r) => {
                out.push_str("seq(");
                l.render(names, out);
                out.push_str(", ");
                r.render(names, out);
                out.push(')');
            }
            EventPattern::And(l, r) => {
                out.push_str("and(");
                l.render(names, out);
                out.push_str(", ");
                r.render(names, out);
                out.push(')');
            }
            EventPattern::Within(p, d) => {
                out.push_str("within(");
                p.render(names, out);
                out.push_str(&format!(", {d})"));
            }
        }
    }
}

/// A trigger: a complex-event pattern plus the transaction goal to run on
/// each completed match, sharing one variable scope.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trigger {
    pub pattern: EventPattern,
    pub goal: Goal,
    /// Source names for the shared variables, indexed by variable id.
    pub var_names: Vec<Symbol>,
}

impl Trigger {
    /// Render in concrete syntax (`on <pattern> do <goal>.`).
    pub fn to_source(&self) -> String {
        let mut out = String::from("on ");
        self.pattern.render(&self.var_names, &mut out);
        out.push_str(" do ");
        out.push_str(&render_goal_with_names(&self.goal, &self.var_names));
        out.push('.');
        out
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

/// Validate a trigger against a program: every pattern leaf must name a
/// declared event relation at its declared arity, the pattern must fit the
/// automaton's leaf bound, and the goal must validate like any query.
pub fn validate_trigger(p: &Program, trigger: &Trigger) -> CoreResult<()> {
    let leaves = trigger.pattern.leaves();
    if leaves.len() > MAX_PATTERN_LEAVES {
        return Err(CoreError::PatternTooLarge {
            leaves: leaves.len(),
            max: MAX_PATTERN_LEAVES,
        });
    }
    for leaf in leaves {
        let stored = Pred {
            name: leaf.pred.name,
            arity: leaf.pred.arity + 1,
        };
        if !p.is_event(stored) {
            return Err(CoreError::NotAnEvent { pred: leaf.pred });
        }
    }
    crate::validate::validate_goal(p, &trigger.goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn program() -> Program {
        Program::builder()
            .event_pred("sample", 1)
            .event_pred("result", 2)
            .base_pred("handled", 1)
            .build()
            .unwrap()
    }

    fn seq_pattern() -> EventPattern {
        EventPattern::Within(
            Box::new(EventPattern::Seq(
                Box::new(EventPattern::Atom(Atom::new("sample", vec![Term::var(0)]))),
                Box::new(EventPattern::Atom(Atom::new(
                    "result",
                    vec![Term::var(0), Term::var(1)],
                ))),
            )),
            1000,
        )
    }

    fn trigger() -> Trigger {
        Trigger {
            pattern: seq_pattern(),
            goal: Goal::ins("handled", vec![Term::var(0)]),
            var_names: vec![Symbol::intern("S"), Symbol::intern("Q")],
        }
    }

    #[test]
    fn leaves_are_collected_left_to_right() {
        let p = seq_pattern();
        let leaves = p.leaves();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].pred, Pred::new("sample", 1));
        assert_eq!(leaves[1].pred, Pred::new("result", 2));
        assert_eq!(p.vars().len(), 2);
    }

    #[test]
    fn valid_trigger_passes() {
        assert!(validate_trigger(&program(), &trigger()).is_ok());
    }

    #[test]
    fn non_event_leaf_rejected() {
        let t = Trigger {
            pattern: EventPattern::Atom(Atom::new("handled", vec![Term::var(0)])),
            goal: Goal::True,
            var_names: vec![Symbol::intern("X")],
        };
        assert_eq!(
            validate_trigger(&program(), &t),
            Err(CoreError::NotAnEvent {
                pred: Pred::new("handled", 1)
            })
        );
    }

    #[test]
    fn wrong_arity_leaf_rejected() {
        let t = Trigger {
            pattern: EventPattern::Atom(Atom::new("sample", vec![Term::var(0), Term::var(1)])),
            goal: Goal::True,
            var_names: vec![Symbol::intern("X"), Symbol::intern("Y")],
        };
        assert!(matches!(
            validate_trigger(&program(), &t),
            Err(CoreError::NotAnEvent { .. })
        ));
    }

    #[test]
    fn trigger_goal_is_validated() {
        let t = Trigger {
            goal: Goal::prop("mystery"),
            ..trigger()
        };
        assert!(matches!(
            validate_trigger(&program(), &t),
            Err(CoreError::UnknownPredicate { .. })
        ));
    }

    #[test]
    fn trigger_renders_round_trippable_source() {
        let t = trigger();
        assert_eq!(
            t.to_source(),
            "on within(seq(sample(S), result(S, Q)), 1000) do ins.handled(S)."
        );
    }
}
