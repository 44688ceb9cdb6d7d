//! Structural substitution: unify under a scratch binding store, then
//! substitute the solution through the process tree. This is the ground
//! drivers' counterpart of the sequential machine's shared trail.

use super::Config;
use crate::tree::{map_terms, rewrite, to_goal, PTree};
use td_core::{Bindings, Term, Var};

/// Unify under a scratch binding store sized for the tree's variables, then
/// substitute the solution through the rewritten tree.
pub(crate) fn apply_unification(
    tree: &PTree,
    leaf: usize,
    replacement: Option<PTree>,
    unifier: impl FnOnce(&mut Bindings) -> bool,
) -> Option<Option<PTree>> {
    let n = num_vars_in_tree(tree);
    apply_unification_n(tree, leaf, replacement, n, unifier)
}

/// [`apply_unification`] with an explicit variable high-water mark (needed
/// when the unifier mentions variables that are not in the tree, e.g. a
/// rule body read at a fresh offset).
pub(crate) fn apply_unification_n(
    tree: &PTree,
    leaf: usize,
    replacement: Option<PTree>,
    nvars: u32,
    unifier: impl FnOnce(&mut Bindings) -> bool,
) -> Option<Option<PTree>> {
    let mut b = Bindings::new();
    b.alloc(nvars);
    if !unifier(&mut b) {
        return None;
    }
    let rewritten = rewrite(tree, leaf, replacement);
    Some(rewritten.map(|t| apply_bindings_tree(&t, &b)))
}

/// Unify under the caller's scratch store, then substitute the solution
/// through the rewritten tree of `cfg`, giving the successor with variable
/// high-water mark `nvars`.
///
/// `b` must be all-unbound on entry and is left so: it grows to the path's
/// high-water mark once and each call undoes exactly the bindings it made,
/// so a unification costs its bindings, not `nvars` — a deep recursion's
/// mark grows with every unfolding, and a fresh store per step made the
/// search quadratic in the depth.
pub(crate) fn unify_project(
    b: &mut Bindings,
    cfg: &Config,
    leaf: usize,
    replacement: Option<PTree>,
    nvars: u32,
    unifier: impl FnOnce(&mut Bindings) -> bool,
) -> Option<Config> {
    let tree = cfg.tree.as_ref().expect("a leaf of a live tree");
    b.alloc(nvars.saturating_sub(b.len() as u32));
    let mark = b.mark();
    let next = unifier(b).then(|| Config {
        tree: rewrite(tree, leaf, replacement).map(|t| apply_bindings_tree(&t, b)),
        db: cfg.db.clone(),
        nvars,
    });
    b.undo_to(mark);
    next
}

/// Variables in a tree: max id + 1.
pub(crate) fn num_vars_in_tree(tree: &PTree) -> u32 {
    to_goal(tree)
        .vars()
        .into_iter()
        .map(|Var(i)| i + 1)
        .max()
        .unwrap_or(0)
}

/// Resolve every term of a tree, read through its offsets, against a
/// binding store.
pub(crate) fn apply_bindings_tree(tree: &PTree, b: &Bindings) -> PTree {
    map_terms(tree, &mut |t| b.resolve(t))
}

/// Substitute one variable by a term throughout a tree, read through its
/// offsets.
pub(crate) fn subst_tree(tree: &PTree, v: Var, val: Term) -> PTree {
    map_terms(tree, &mut |t| if t == Term::Var(v) { val } else { t })
}
