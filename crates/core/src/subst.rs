//! Variable bindings with trail-based backtracking.
//!
//! The engine binds runtime variables destructively and undoes bindings on
//! backtracking by truncating a trail — the classic logic-programming design.
//! [`Bindings`] is that store: a growable map from runtime variable ids to
//! terms, plus the trail.
//!
//! Variables may bind to other variables (aliasing), so lookups *walk*
//! chains to the representative. Chains are created by unification of two
//! unbound variables and stay short in practice; `resolve` walks without path
//! compression so that the trail can undo bindings exactly.

use crate::term::{Term, Value, Var};

/// A snapshot position in the trail; truncating back to it undoes every
/// binding made since.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrailMark(usize);

/// The binding store.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    slots: Vec<Option<Term>>,
    trail: Vec<Var>,
}

impl Bindings {
    /// An empty store.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Allocate `n` fresh unbound variables, returning the id of the first.
    /// The engine calls this when renaming a rule apart.
    pub fn alloc(&mut self, n: u32) -> u32 {
        let base = u32::try_from(self.slots.len()).expect("variable id overflow");
        self.slots.resize(self.slots.len() + n as usize, None);
        base
    }

    /// Total number of allocated variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&self, v: Var) -> Option<Term> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Resolve a term to its current representative: ground value, or the
    /// unbound variable at the end of the alias chain.
    pub fn resolve(&self, t: Term) -> Term {
        let mut cur = t;
        loop {
            match cur {
                Term::Val(_) => return cur,
                Term::Var(v) => match self.slot(v) {
                    Some(next) => cur = next,
                    None => return cur,
                },
            }
        }
    }

    /// Resolve to a ground value, if the term is bound to one.
    pub fn value_of(&self, t: Term) -> Option<Value> {
        self.resolve(t).as_value()
    }

    /// Bind unbound variable `v` to `t`, recording it on the trail.
    ///
    /// Callers must pass a variable that is currently unbound (i.e. the
    /// result of [`Bindings::resolve`]); debug builds assert this.
    pub fn bind(&mut self, v: Var, t: Term) {
        debug_assert!(self.slot(v).is_none(), "bind called on already-bound {v:?}");
        debug_assert!(
            (v.0 as usize) < self.slots.len(),
            "bind called on unallocated {v:?}"
        );
        self.slots[v.0 as usize] = Some(t);
        self.trail.push(v);
    }

    /// Current trail position.
    pub fn mark(&self) -> TrailMark {
        TrailMark(self.trail.len())
    }

    /// Undo every binding made since `mark`.
    pub fn undo_to(&mut self, mark: TrailMark) {
        while self.trail.len() > mark.0 {
            let v = self.trail.pop().expect("trail length checked");
            self.slots[v.0 as usize] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_consecutive_bases() {
        let mut b = Bindings::new();
        assert_eq!(b.alloc(3), 0);
        assert_eq!(b.alloc(2), 3);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn bind_and_resolve() {
        let mut b = Bindings::new();
        b.alloc(2);
        b.bind(Var(0), Term::sym("a"));
        assert_eq!(b.resolve(Term::var(0)), Term::sym("a"));
        assert_eq!(b.resolve(Term::var(1)), Term::var(1));
        assert_eq!(b.value_of(Term::var(0)), Some(Value::sym("a")));
        assert_eq!(b.value_of(Term::var(1)), None);
    }

    #[test]
    fn alias_chains_resolve_to_the_end() {
        let mut b = Bindings::new();
        b.alloc(3);
        b.bind(Var(0), Term::var(1));
        b.bind(Var(1), Term::var(2));
        assert_eq!(b.resolve(Term::var(0)), Term::var(2));
        b.bind(Var(2), Term::int(9));
        assert_eq!(b.resolve(Term::var(0)), Term::int(9));
    }

    #[test]
    fn undo_restores_exactly() {
        let mut b = Bindings::new();
        b.alloc(3);
        b.bind(Var(0), Term::sym("x"));
        let m = b.mark();
        b.bind(Var(1), Term::sym("y"));
        b.bind(Var(2), Term::var(1));
        b.undo_to(m);
        assert_eq!(b.resolve(Term::var(0)), Term::sym("x"));
        assert_eq!(b.resolve(Term::var(1)), Term::var(1));
        assert_eq!(b.resolve(Term::var(2)), Term::var(2));
    }

    #[test]
    fn undo_to_start_clears_everything() {
        let mut b = Bindings::new();
        b.alloc(2);
        let m = b.mark();
        b.bind(Var(0), Term::int(1));
        b.bind(Var(1), Term::int(2));
        b.undo_to(m);
        assert_eq!(b.resolve(Term::var(0)), Term::var(0));
        assert_eq!(b.resolve(Term::var(1)), Term::var(1));
    }

    #[test]
    fn ground_terms_resolve_to_themselves() {
        let b = Bindings::new();
        assert_eq!(b.resolve(Term::int(5)), Term::int(5));
        assert_eq!(b.resolve(Term::sym("c")), Term::sym("c"));
    }
}
