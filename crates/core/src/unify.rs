//! Unification over the flat TD term language.
//!
//! With no function symbols, unification is pairwise: resolve both terms,
//! then either they are equal values, one side is an unbound variable (bind
//! it), or they clash. No occurs-check is needed — variables can only bind to
//! values or other variables, so no cycles through structure can form (a
//! var-var binding always points to a *different* representative).

use crate::subst::Bindings;
use crate::term::Term;

/// Unify two terms under `b`. On failure the bindings are left as they were
/// before the call only if the caller undoes to a mark; `unify_terms` itself
/// may have recorded bindings before discovering a clash in a larger
/// structure, so callers always bracket with [`Bindings::mark`] /
/// [`Bindings::undo_to`].
pub fn unify_terms(b: &mut Bindings, s: Term, t: Term) -> bool {
    let rs = b.resolve(s);
    let rt = b.resolve(t);
    match (rs, rt) {
        (Term::Val(x), Term::Val(y)) => x == y,
        (Term::Var(v), Term::Var(w)) => {
            if v == w {
                true
            } else {
                b.bind(v, Term::Var(w));
                true
            }
        }
        (Term::Var(v), val @ Term::Val(_)) => {
            b.bind(v, val);
            true
        }
        (val @ Term::Val(_), Term::Var(w)) => {
            b.bind(w, val);
            true
        }
    }
}

/// Unify two argument lists of equal length. Returns false (possibly leaving
/// partial bindings — see [`unify_terms`]) on clash or length mismatch.
pub fn unify_args(b: &mut Bindings, xs: &[Term], ys: &[Term]) -> bool {
    if xs.len() != ys.len() {
        return false;
    }
    xs.iter().zip(ys).all(|(x, y)| unify_terms(b, *x, *y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Value;

    /// Unify two atoms: same predicate, unifiable arguments.
    fn unify_atoms(b: &mut Bindings, x: &Atom, y: &Atom) -> bool {
        x.pred == y.pred && unify_args(b, &x.args, &y.args)
    }

    #[test]
    fn value_value() {
        let mut b = Bindings::new();
        assert!(unify_terms(&mut b, Term::sym("a"), Term::sym("a")));
        assert!(!unify_terms(&mut b, Term::sym("a"), Term::sym("b")));
        assert!(!unify_terms(&mut b, Term::int(1), Term::sym("1")));
        assert!(unify_terms(&mut b, Term::int(3), Term::int(3)));
    }

    #[test]
    fn var_value_binds() {
        let mut b = Bindings::new();
        b.alloc(1);
        assert!(unify_terms(&mut b, Term::var(0), Term::int(7)));
        assert_eq!(b.value_of(Term::var(0)), Some(Value::Int(7)));
    }

    #[test]
    fn value_var_binds() {
        let mut b = Bindings::new();
        b.alloc(1);
        assert!(unify_terms(&mut b, Term::sym("x"), Term::var(0)));
        assert_eq!(b.value_of(Term::var(0)), Some(Value::sym("x")));
    }

    #[test]
    fn var_var_aliases() {
        let mut b = Bindings::new();
        b.alloc(2);
        assert!(unify_terms(&mut b, Term::var(0), Term::var(1)));
        assert!(unify_terms(&mut b, Term::var(1), Term::int(4)));
        assert_eq!(b.value_of(Term::var(0)), Some(Value::Int(4)));
    }

    #[test]
    fn self_unification_is_noop() {
        let mut b = Bindings::new();
        b.alloc(1);
        let m = b.mark();
        assert!(unify_terms(&mut b, Term::var(0), Term::var(0)));
        assert_eq!(b.mark(), m, "no binding should be recorded");
    }

    #[test]
    fn bound_vars_unify_through_chains() {
        let mut b = Bindings::new();
        b.alloc(3);
        assert!(unify_terms(&mut b, Term::var(0), Term::var(1)));
        assert!(unify_terms(&mut b, Term::var(2), Term::int(5)));
        assert!(unify_terms(&mut b, Term::var(0), Term::var(2)));
        assert_eq!(b.value_of(Term::var(1)), Some(Value::Int(5)));
    }

    #[test]
    fn clash_through_chain_fails() {
        let mut b = Bindings::new();
        b.alloc(2);
        assert!(unify_terms(&mut b, Term::var(0), Term::int(1)));
        assert!(unify_terms(&mut b, Term::var(1), Term::int(2)));
        assert!(!unify_terms(&mut b, Term::var(0), Term::var(1)));
    }

    #[test]
    fn atom_unification() {
        let mut b = Bindings::new();
        b.alloc(2);
        let x = Atom::new("p", vec![Term::var(0), Term::sym("c")]);
        let y = Atom::new("p", vec![Term::int(1), Term::var(1)]);
        assert!(unify_atoms(&mut b, &x, &y));
        assert_eq!(b.value_of(Term::var(0)), Some(Value::Int(1)));
        assert_eq!(b.value_of(Term::var(1)), Some(Value::sym("c")));
    }

    #[test]
    fn atom_unification_requires_same_pred() {
        let mut b = Bindings::new();
        let x = Atom::prop("p");
        let y = Atom::prop("q");
        assert!(!unify_atoms(&mut b, &x, &y));
    }

    #[test]
    fn partial_bindings_rolled_back_by_caller() {
        let mut b = Bindings::new();
        b.alloc(2);
        let m = b.mark();
        let x = Atom::new("p", vec![Term::var(0), Term::sym("a")]);
        let y = Atom::new("p", vec![Term::int(1), Term::sym("b")]);
        assert!(!unify_atoms(&mut b, &x, &y));
        // var 0 got bound before the clash on the second arg:
        assert_eq!(b.value_of(Term::var(0)), Some(Value::Int(1)));
        b.undo_to(m);
        assert_eq!(b.value_of(Term::var(0)), None);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::term::Term;
    use proptest::prelude::*;

    fn arb_term(nvars: u32) -> impl Strategy<Value = Term> {
        prop_oneof![
            (0..nvars).prop_map(Term::var),
            (-3i64..3).prop_map(Term::int),
            "[a-c]".prop_map(|s| Term::sym(&s)),
        ]
    }

    proptest! {
        #[test]
        fn unification_is_symmetric(s in arb_term(4), t in arb_term(4)) {
            let mut b1 = Bindings::new();
            b1.alloc(4);
            let mut b2 = Bindings::new();
            b2.alloc(4);
            prop_assert_eq!(unify_terms(&mut b1, s, t), unify_terms(&mut b2, t, s));
            // And the resulting resolutions agree.
            if b1.resolve(s).is_ground() {
                prop_assert_eq!(b1.resolve(s), b2.resolve(s));
                prop_assert_eq!(b1.resolve(t), b2.resolve(t));
            }
        }

        #[test]
        fn successful_unification_makes_terms_equal(s in arb_term(4), t in arb_term(4)) {
            let mut b = Bindings::new();
            b.alloc(4);
            if unify_terms(&mut b, s, t) {
                prop_assert_eq!(b.resolve(s), b.resolve(t));
            }
        }

        #[test]
        fn unification_is_idempotent(s in arb_term(4), t in arb_term(4)) {
            let mut b = Bindings::new();
            b.alloc(4);
            if unify_terms(&mut b, s, t) {
                let mark = b.mark();
                prop_assert!(unify_terms(&mut b, s, t), "re-unifying must succeed");
                prop_assert_eq!(b.mark(), mark, "and bind nothing new");
            }
        }

        #[test]
        fn undo_restores_resolution(
            s in arb_term(4),
            t in arb_term(4),
            u in arb_term(4),
            v in arb_term(4),
        ) {
            let mut b = Bindings::new();
            b.alloc(4);
            let _ = unify_terms(&mut b, s, t);
            let before: Vec<Term> = (0..4).map(|i| b.resolve(Term::var(i))).collect();
            let mark = b.mark();
            let _ = unify_terms(&mut b, u, v);
            b.undo_to(mark);
            let after: Vec<Term> = (0..4).map(|i| b.resolve(Term::var(i))).collect();
            prop_assert_eq!(before, after);
        }
    }
}
