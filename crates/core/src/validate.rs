//! Static validation: arity consistency, base/derived separation, safety.
//!
//! TD is a *safe* language (§4 of the paper): execution never invents new
//! constants, so the active domain is fixed by the program and the initial
//! database. Safety is enforced here syntactically through range restriction:
//! every variable in a rule head must occur somewhere in the body in a
//! position that can bind it (an atom test, a call, an `ins`/`del` argument —
//! which itself must be bound at runtime — or the output of an arithmetic
//! builtin).

use crate::error::{CoreError, CoreResult};
use crate::goal::Goal;
use crate::program::Program;
use crate::term::{Term, Var};
use std::collections::{HashMap, HashSet};

/// Validate a whole program. Returns the first error found.
pub fn validate(p: &Program) -> CoreResult<()> {
    check_arity_consistency(p)?;
    for rule in p.rules() {
        // Heads must be derived predicates, not base relations.
        if p.is_base(rule.head.pred) {
            return Err(CoreError::HeadIsBase {
                pred: rule.head.pred,
            });
        }
        check_goal(p, &rule.body)?;
    }
    Ok(())
}

/// Lint: rules whose head variables do not occur in the body at all. Such
/// variables can only be useful as pure input parameters (the caller must
/// bind them); if the caller doesn't, execution raises an instantiation
/// fault or returns an unconstrained answer. This is reported as a lint
/// rather than an error because the paper's process style legitimately uses
/// parameter-only heads (e.g. a counter process `czero(C) <- halted`).
pub fn unsafe_rules(p: &Program) -> Vec<CoreError> {
    let mut out = Vec::new();
    for rule in p.rules() {
        if let Err(e) = check_safety(rule, p) {
            out.push(e);
        }
    }
    out
}

/// Validate a standalone goal (e.g. a query typed at the CLI) against a
/// program. Every check is on one leaf, and the first failing leaf in
/// pre-order (source order) is reported.
pub fn validate_goal(p: &Program, goal: &Goal) -> CoreResult<()> {
    check_goal(p, goal)
}

/// The atom leaves a predicate name can be written in: a call or query
/// `p(..)`, a test `not p(..)`, an update `ins.p(..)`/`del.p(..)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AtomLeaf {
    Call,
    Not,
    Update,
}

/// What [`validate_goal`] reports for a `leaf` over `name/arity` when
/// `name` was never interned ([`crate::Symbol::lookup`] finds nothing), so
/// that no program has a predicate of that name. A parser can refuse such a
/// goal with this text before interning anything of it.
pub fn unknown_name(leaf: AtomLeaf, name: &str, arity: u32) -> String {
    let mut out = String::new();
    crate::error::write_leaf_error(&mut out, leaf, &format_args!("{name}/{arity}"))
        .expect("writing to a String");
    out
}

fn check_arity_consistency(p: &Program) -> CoreResult<()> {
    // A name may not be used with two different arities across base
    // declarations and rule heads; mixed-arity *references* are caught by
    // UnknownPredicate in check_goal.
    let mut seen: HashMap<crate::symbol::Symbol, u32> = HashMap::new();
    for pred in p.base_preds() {
        if let Some(&a) = seen.get(&pred.name) {
            if a != pred.arity {
                return Err(CoreError::ArityMismatch {
                    name: pred.name,
                    expected: a,
                    found: pred.arity,
                });
            }
        }
        seen.insert(pred.name, pred.arity);
    }
    for r in p.rules() {
        let pred = r.head.pred;
        if let Some(&a) = seen.get(&pred.name) {
            if a != pred.arity {
                return Err(CoreError::ArityMismatch {
                    name: pred.name,
                    expected: a,
                    found: pred.arity,
                });
            }
        }
        seen.insert(pred.name, pred.arity);
    }
    Ok(())
}

fn check_goal(p: &Program, goal: &Goal) -> CoreResult<()> {
    let mut err = None;
    goal.visit(&mut |g| {
        if err.is_some() {
            return;
        }
        match g {
            Goal::Atom(a) if !p.is_base(a.pred) && !p.is_derived(a.pred) => {
                err = Some(CoreError::UnknownPredicate { pred: a.pred });
            }
            Goal::NotAtom(a) if !p.is_base(a.pred) => {
                err = Some(CoreError::NegationOnNonBase { pred: a.pred });
            }
            Goal::Ins(a) | Goal::Del(a) if p.is_event(a.pred) => {
                err = Some(CoreError::UpdateOnEvent { pred: a.pred });
            }
            Goal::Ins(a) | Goal::Del(a) if !p.is_base(a.pred) => {
                err = Some(CoreError::UpdateOnNonBase { pred: a.pred });
            }
            Goal::Builtin(b, ts) if ts.len() != b.arity() => {
                err = Some(CoreError::BuiltinArity {
                    op: b.op_str(),
                    expected: b.arity(),
                    found: ts.len(),
                });
            }
            _ => {}
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Collect the variables occurring anywhere in a goal's atoms, updates or
/// builtins. Range restriction demands every head variable occur here: a
/// head variable absent from the body could never be bound by execution nor
/// supplied meaningfully by a caller. Occurrence in a comparison or
/// arithmetic *input* position is allowed — such variables are input
/// parameters bound by the caller (e.g. `withdraw(Acct, Amt)` with
/// `Bal >= Amt`); if a caller fails to bind them, the engine raises an
/// instantiation fault at runtime.
fn binding_vars(goal: &Goal, out: &mut HashSet<Var>) {
    goal.visit(&mut |g| match g {
        Goal::Atom(a) | Goal::Ins(a) | Goal::Del(a) | Goal::NotAtom(a) => {
            for v in a.vars() {
                out.insert(v);
            }
        }
        Goal::Builtin(_, ts) => {
            for v in ts.iter().filter_map(Term::as_var) {
                out.insert(v);
            }
        }
        _ => {}
    });
}

fn check_safety(rule: &crate::rule::Rule, _p: &Program) -> CoreResult<()> {
    let mut bound = HashSet::new();
    binding_vars(&rule.body, &mut bound);
    for v in rule.head.vars() {
        if !bound.contains(&v) {
            let name = rule
                .var_names
                .get(v.0 as usize)
                .copied()
                .unwrap_or_else(|| crate::symbol::Symbol::intern(&format!("_V{}", v.0)));
            return Err(CoreError::UnsafeHeadVar {
                pred: rule.head.pred,
                var: name,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Pred};
    use crate::goal::Builtin;
    use crate::program::Program;

    #[test]
    fn head_on_base_pred_rejected() {
        let err = Program::builder()
            .base_pred("p", 0)
            .rule_parts(Atom::prop("p"), Goal::True)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::HeadIsBase {
                pred: Pred::new("p", 0)
            }
        );
    }

    #[test]
    fn update_on_derived_pred_rejected() {
        let err = Program::builder()
            .rule_parts(Atom::prop("q"), Goal::True)
            .rule_parts(Atom::prop("r"), Goal::ins("q", vec![]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::UpdateOnNonBase {
                pred: Pred::new("q", 0)
            }
        );
    }

    #[test]
    fn update_on_event_relation_rejected() {
        // Event relations read like base relations but are append-only:
        // `ins`/`del` from a transaction body is a validation error.
        let err = Program::builder()
            .event_pred("sample", 1)
            .rule_parts(
                Atom::prop("r"),
                Goal::ins("sample", vec![Term::var(0), Term::var(1)]),
            )
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::UpdateOnEvent {
                pred: Pred::new("sample", 2)
            }
        );
        // Reading the stored form (timestamp column explicit) is fine.
        let ok = Program::builder()
            .event_pred("sample", 1)
            .rule_parts(
                Atom::prop("r"),
                Goal::atom("sample", vec![Term::var(0), Term::var(1)]),
            )
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn unknown_predicate_rejected() {
        let err = Program::builder()
            .rule_parts(Atom::prop("r"), Goal::prop("mystery"))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::UnknownPredicate {
                pred: Pred::new("mystery", 0)
            }
        );
    }

    #[test]
    fn negation_requires_base() {
        let err = Program::builder()
            .rule_parts(Atom::prop("q"), Goal::True)
            .rule_parts(Atom::prop("r"), Goal::NotAtom(Atom::prop("q")))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::NegationOnNonBase {
                pred: Pred::new("q", 0)
            }
        );
    }

    #[test]
    fn unsafe_head_var_reported_by_lint_not_build() {
        let p = Program::builder()
            .base_pred("p", 0)
            .rule_parts(Atom::new("r", vec![Term::var(0)]), Goal::prop("p"))
            .build()
            .expect("parameter-only heads are legal");
        let lints = unsafe_rules(&p);
        assert_eq!(lints.len(), 1);
        assert!(matches!(lints[0], CoreError::UnsafeHeadVar { .. }));
    }

    #[test]
    fn head_var_bound_by_update_arg_is_safe() {
        // `r(X) <- del.p(X)` is range-restricted: X must be bound by the
        // caller for del to execute, and the atom position counts.
        let ok = Program::builder()
            .base_pred("p", 1)
            .rule_parts(
                Atom::new("r", vec![Term::var(0)]),
                Goal::del("p", vec![Term::var(0)]),
            )
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn arity_mismatch_between_decl_and_head() {
        let err = Program::builder()
            .base_pred("p", 2)
            .rule_parts(Atom::new("p", vec![Term::var(0)]), Goal::prop("q"))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::ArityMismatch { .. }));
    }

    #[test]
    fn arith_output_binds_head_var() {
        let ok = Program::builder()
            .base_pred("p", 1)
            .rule_parts(
                Atom::new("r", vec![Term::var(1)]),
                Goal::seq(vec![
                    Goal::atom("p", vec![Term::var(0)]),
                    Goal::Builtin(Builtin::Add, vec![Term::var(0), Term::int(1), Term::var(1)]),
                ]),
            )
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn comparison_occurrence_satisfies_range_restriction() {
        // `r(Y) <- p(X) * X < Y` is accepted: Y is an input parameter the
        // caller must bind (runtime instantiation faults catch misuse).
        let ok = Program::builder()
            .base_pred("p", 1)
            .rule_parts(
                Atom::new("r", vec![Term::var(1)]),
                Goal::seq(vec![
                    Goal::atom("p", vec![Term::var(0)]),
                    Goal::Builtin(Builtin::Lt, vec![Term::var(0), Term::var(1)]),
                ]),
            )
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn builtin_arity_checked() {
        let err = Program::builder()
            .rule_parts(
                Atom::prop("r"),
                Goal::Builtin(Builtin::Lt, vec![Term::int(1)]),
            )
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::BuiltinArity {
                op: "<",
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn validate_goal_checks_unknown_preds() {
        let p = Program::builder().base_pred("p", 0).build().unwrap();
        assert!(validate_goal(&p, &Goal::prop("p")).is_ok());
        assert!(validate_goal(&p, &Goal::prop("zz")).is_err());
    }
}
