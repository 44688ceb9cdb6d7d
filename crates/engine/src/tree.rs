//! The runtime process tree.
//!
//! A running TD goal is a tree of sequential and concurrent regions over
//! *action leaves* (atoms, updates, builtins, choices, isolation blocks).
//! The tree is persistent: a [`PTree`] is a handle whose clone is one
//! refcount, so a choicepoint's snapshot costs nothing, and a rewrite
//! allocates only the nodes on the path from the root to the rewritten leaf
//! — one allocation each, and none where completing the head of a `Seq`
//! shares its tail.
//!
//! Invariants maintained by [`make_node`] and [`rewrite`]:
//!
//! * `Seq`/`Par` nodes have ≥ 2 children (singletons collapse to the child);
//! * no `Seq` directly under `Seq`, no `Par` directly under `Par` (spliced);
//! * leaves are *actions*: never `Goal::True`/`Seq`/`Par` (expanded away).
//!
//! In a `Seq` only the first child is runnable; in a `Par` every child is.
//! The executable leaves of a tree are therefore its *frontier* — the
//! schedulable actions the paper's interleaving semantics chooses among. A
//! leaf is addressed by its index in the frontier, left to right:
//! [`frontier_len`] counts them, and [`leaf_at`] and [`rewrite`] descend to
//! one by that count.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use td_core::Goal;

/// A node of the runtime process tree, held by a handle: cloning it is one
/// refcount.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PTree {
    /// An action leaf: `Atom`, `NotAtom`, `Ins`, `Del`, `Builtin`, `Choice`,
    /// `Iso`, or `Fail` (never `True`/`Seq`/`Par`).
    Lit(Arc<Goal>),
    /// Serial region: children run left to right.
    Seq(Kids),
    /// Concurrent region: children interleave.
    Par(Kids),
}

/// The children of a `Seq`/`Par` node: the live part of a shared slice.
/// Completing the head moves `start` past it, so the rest is shared, not
/// copied.
#[derive(Clone)]
pub struct Kids {
    all: Arc<[PTree]>,
    start: usize,
}

impl Deref for Kids {
    type Target = [PTree];

    fn deref(&self) -> &[PTree] {
        &self.all[self.start..]
    }
}

impl PartialEq for Kids {
    fn eq(&self, other: &Kids) -> bool {
        **self == **other
    }
}

impl Eq for Kids {}

impl fmt::Debug for Kids {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl PTree {
    /// The same region over `f` of each child; a leaf is returned as it is.
    pub(crate) fn map_children(&self, f: impl FnMut(&PTree) -> PTree) -> PTree {
        match self {
            PTree::Lit(_) => self.clone(),
            PTree::Seq(kids) => region(true, kids.iter().map(f).collect(), 0),
            PTree::Par(kids) => region(false, kids.iter().map(f).collect(), 0),
        }
    }
}

/// Convert a goal into a (possibly absent) process tree, expanding
/// structural composition eagerly; the action goals move into the leaves.
/// `None` means the goal is already complete (`True`, or compositions of
/// `True`).
pub fn make_node(goal: Goal) -> Option<PTree> {
    let (seq, goals) = match goal {
        Goal::True => return None,
        Goal::Seq(goals) => (true, goals),
        Goal::Par(goals) => (false, goals),
        action => return Some(PTree::Lit(Arc::new(action))),
    };
    let action = |g: &Goal| !matches!(g, Goal::True | Goal::Seq(_) | Goal::Par(_));
    if goals.len() > 1 && goals.iter().all(action) {
        // One leaf per goal: the slice is built in place.
        let leaves = goals.into_iter().map(|g| PTree::Lit(Arc::new(g)));
        return Some(region(seq, leaves.collect(), 0));
    }
    let mut children = Vec::with_capacity(goals.len());
    for node in goals.into_iter().map(make_node) {
        children.extend_from_slice(spliced(&node, seq));
    }
    match children.len() {
        0 => None,
        1 => children.pop(),
        _ => Some(region(seq, children.into(), 0)),
    }
}

/// What `tree` contributes to the children of a region of `seq`'s kind:
/// nothing, its own children when it is such a region (spliced), or itself.
fn spliced(tree: &Option<PTree>, seq: bool) -> &[PTree] {
    match tree {
        None => &[],
        Some(PTree::Seq(kids)) if seq => kids,
        Some(PTree::Par(kids)) if !seq => kids,
        Some(node) => std::slice::from_ref(node),
    }
}

/// The `Seq` (or `Par`) node over `all[start..]`, at least two children.
fn region(seq: bool, all: Arc<[PTree]>, start: usize) -> PTree {
    let kids = Kids { all, start };
    if seq {
        PTree::Seq(kids)
    } else {
        PTree::Par(kids)
    }
}

/// The region of `seq`'s kind over the concatenation of `parts`: nothing,
/// the one child, or a node whose slice is one allocation.
fn concat(seq: bool, parts: [&[PTree]; 3]) -> Option<PTree> {
    match parts.iter().map(|p| p.len()).sum() {
        0 => None,
        1 => parts.iter().flat_map(|p| p.iter()).next().cloned(),
        _ => {
            let all = parts[0].iter().chain(parts[1]).chain(parts[2]).cloned();
            Some(region(seq, all.collect(), 0))
        }
    }
}

/// The number of frontier leaves: the runnable actions. In a `Seq` only
/// child 0 is runnable; in a `Par` all children are.
pub fn frontier_len(tree: &PTree) -> usize {
    match tree {
        PTree::Lit(_) => 1,
        PTree::Seq(kids) => frontier_len(&kids[0]),
        PTree::Par(kids) => kids.iter().map(frontier_len).sum(),
    }
}

/// The child of a `Seq` (`seq`) or `Par` node holding the node's `leaf`-th
/// frontier leaf, and that leaf's index among the child's.
fn locate(kids: &Kids, seq: bool, mut leaf: usize) -> (usize, usize) {
    if seq {
        return (0, leaf);
    }
    for (i, child) in kids.iter().enumerate() {
        let n = frontier_len(child);
        if leaf < n {
            return (i, leaf);
        }
        leaf -= n;
    }
    panic!("frontier index past the frontier")
}

/// The action goal of the `leaf`-th frontier leaf.
pub fn leaf_at(tree: &PTree, leaf: usize) -> &Arc<Goal> {
    match tree {
        PTree::Lit(goal) => goal,
        PTree::Seq(kids) | PTree::Par(kids) => {
            let (i, leaf) = locate(kids, matches!(tree, PTree::Seq(_)), leaf);
            leaf_at(&kids[i], leaf)
        }
    }
}

/// Replace the `leaf`-th frontier leaf with `replacement` (`None` = the
/// action completed), renormalizing along the way. Returns the new tree
/// (`None` = the whole execution completed).
pub fn rewrite(tree: &PTree, leaf: usize, replacement: Option<PTree>) -> Option<PTree> {
    let (kids, seq) = match tree {
        PTree::Lit(_) => return replacement,
        PTree::Seq(kids) => (kids, true),
        PTree::Par(kids) => (kids, false),
    };
    let (i, leaf) = locate(kids, seq, leaf);
    let child = rewrite(&kids[i], leaf, replacement);
    let middle = spliced(&child, seq);
    if i == 0 && middle.is_empty() && kids.len() > 2 {
        // The first child completed: the node keeps the rest of its slice.
        return Some(region(seq, kids.all.clone(), kids.start + 1));
    }
    concat(seq, [&kids[..i], middle, &kids[i + 1..]])
}

/// Sequence two (possibly absent) trees: the result runs `first` to
/// completion, then `rest`. Used by the explicit-state search and the
/// entailment oracle to give `iso { g }` its contiguity semantics: stepping
/// an isolation leaf commits to running `g`'s block *now*, before anything
/// else — which is exactly `Seq[g, rest-of-tree]`.
pub fn sequence(first: Option<PTree>, rest: Option<PTree>) -> Option<PTree> {
    concat(true, [spliced(&first, true), spliced(&rest, true), &[]])
}

/// Total number of action leaves, runnable or not.
#[cfg(test)]
pub fn leaf_count(tree: &PTree) -> usize {
    match tree {
        PTree::Lit(_) => 1,
        PTree::Seq(kids) | PTree::Par(kids) => kids.iter().map(leaf_count).sum(),
    }
}

/// Render the tree back into a goal (for tracing, memoization and tests).
pub fn to_goal(tree: &PTree) -> Goal {
    match tree {
        PTree::Lit(g) => (**g).clone(),
        PTree::Seq(kids) => Goal::seq(kids.iter().map(to_goal).collect()),
        PTree::Par(kids) => Goal::par(kids.iter().map(to_goal).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::Term;

    fn a(name: &str) -> Goal {
        Goal::prop(name)
    }

    fn node(g: &Goal) -> Option<PTree> {
        make_node(g.clone())
    }

    #[test]
    fn true_makes_no_node() {
        assert!(make_node(Goal::True).is_none());
        assert!(make_node(Goal::Seq(vec![Goal::True, Goal::True])).is_none());
    }

    #[test]
    fn actions_make_leaves() {
        let t = make_node(Goal::ins("p", vec![])).unwrap();
        assert_eq!(t, PTree::Lit(Arc::new(Goal::ins("p", vec![]))));
        assert_eq!(leaf_count(&t), 1);
    }

    #[test]
    fn nested_seq_splices_flat() {
        let g = Goal::Seq(vec![a("x"), Goal::Seq(vec![a("y"), a("z")])]);
        let t = node(&g).unwrap();
        let PTree::Seq(cs) = &t else { panic!() };
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn frontier_of_seq_is_first_only() {
        let t = node(&Goal::seq(vec![a("x"), a("y")])).unwrap();
        assert_eq!(frontier_len(&t), 1);
        assert_eq!(**leaf_at(&t, 0), a("x"));
    }

    #[test]
    fn frontier_of_par_is_all() {
        let t = node(&Goal::par(vec![a("x"), a("y"), a("z")])).unwrap();
        assert_eq!(frontier_len(&t), 3);
        let leaves: Vec<Goal> = (0..3).map(|i| (**leaf_at(&t, i)).clone()).collect();
        assert_eq!(leaves, [a("x"), a("y"), a("z")]);
    }

    #[test]
    fn mixed_frontier() {
        // (x * y) | z : frontier = {x, z}
        let t = node(&Goal::par(vec![Goal::seq(vec![a("x"), a("y")]), a("z")])).unwrap();
        assert_eq!(frontier_len(&t), 2);
        assert_eq!(**leaf_at(&t, 0), a("x"));
        assert_eq!(**leaf_at(&t, 1), a("z"));
    }

    #[test]
    fn rewrite_completion_pops_seq_head() {
        let t = node(&Goal::seq(vec![a("x"), a("y")])).unwrap();
        let t2 = rewrite(&t, 0, None).unwrap();
        // Seq of one collapses to the leaf itself.
        assert_eq!(t2, PTree::Lit(Arc::new(a("y"))));
        let t3 = rewrite(&t2, 0, None);
        assert!(t3.is_none(), "everything completed");
    }

    #[test]
    fn completing_a_head_shares_the_rest_of_the_slice() {
        let t = node(&Goal::seq(vec![a("x"), a("y"), a("z")])).unwrap();
        let t2 = rewrite(&t, 0, None).unwrap();
        let (PTree::Seq(before), PTree::Seq(after)) = (&t, &t2) else {
            panic!()
        };
        assert!(Arc::ptr_eq(&before.all, &after.all), "no new slice");
        assert_eq!(to_goal(&t2), Goal::seq(vec![a("y"), a("z")]));
        assert_eq!(to_goal(&t), Goal::seq(vec![a("x"), a("y"), a("z")]));
    }

    #[test]
    fn rewrite_replacement_splices_into_seq() {
        // x completes and is replaced by (p * q): Seq[x, y] -> Seq[p, q, y]
        let t = node(&Goal::seq(vec![a("x"), a("y")])).unwrap();
        let rep = node(&Goal::seq(vec![a("p"), a("q")]));
        let t2 = rewrite(&t, 0, rep).unwrap();
        let PTree::Seq(cs) = &t2 else { panic!() };
        assert_eq!(cs.len(), 3);
        assert_eq!(**leaf_at(&t2, 0), a("p"));
    }

    #[test]
    fn rewrite_par_branch_completion() {
        let t = node(&Goal::par(vec![a("x"), a("y")])).unwrap();
        let t2 = rewrite(&t, 0, None).unwrap();
        assert_eq!(t2, PTree::Lit(Arc::new(a("y"))));
    }

    #[test]
    fn par_replacement_splices() {
        // simulate <- w | simulate: replacing the `simulate` leaf inside a
        // Par with another Par splices, keeping the tree flat.
        let t = node(&Goal::par(vec![a("w"), a("simulate")])).unwrap();
        let rep = node(&Goal::par(vec![a("w"), a("simulate")]));
        let t2 = rewrite(&t, 1, rep).unwrap();
        let PTree::Par(cs) = &t2 else { panic!() };
        assert_eq!(cs.len(), 3, "flattened to [w, w, simulate]");
    }

    #[test]
    fn snapshots_are_shared() {
        let t = node(&Goal::par(vec![a("x"), Goal::seq(vec![a("y"), a("z")])])).unwrap();
        let snap = t.clone();
        let t2 = rewrite(&t, 0, None).unwrap();
        // snapshot unchanged
        assert_eq!(frontier_len(&snap), 2);
        assert_eq!(frontier_len(&t2), 1);
        // the untouched subtree is literally shared
        let PTree::Par(orig) = &snap else { panic!() };
        let (PTree::Seq(kept), PTree::Seq(now)) = (&orig[1], &t2) else {
            panic!()
        };
        assert!(Arc::ptr_eq(&kept.all, &now.all));
    }

    #[test]
    fn to_goal_round_trips_structure() {
        let g = Goal::par(vec![Goal::seq(vec![a("x"), a("y")]), Goal::iso(a("z"))]);
        let t = node(&g).unwrap();
        assert_eq!(to_goal(&t), g);
    }

    #[test]
    fn choice_and_iso_stay_as_leaves() {
        let g = Goal::choice(vec![a("x"), a("y")]);
        let t = node(&g).unwrap();
        assert!(matches!(&t, PTree::Lit(g) if matches!(**g, Goal::Choice(_))));
        let g = Goal::iso(Goal::seq(vec![a("x"), a("y")]));
        let t = node(&g).unwrap();
        assert!(matches!(&t, PTree::Lit(g) if matches!(**g, Goal::Iso(_))));
    }

    #[test]
    fn leaf_count_counts_processes() {
        let t = node(&Goal::par(vec![
            a("a"),
            Goal::seq(vec![a("b"), a("c")]),
            Goal::par(vec![a("d"), a("e")]),
        ]))
        .unwrap();
        assert_eq!(leaf_count(&t), 5);
        // `c` waits behind `b`: four of the five can run.
        assert_eq!(frontier_len(&t), 4);
    }

    #[test]
    fn vars_survive_tree_building() {
        let g = Goal::atom("p", vec![Term::var(3)]);
        let t = node(&g).unwrap();
        assert_eq!(**leaf_at(&t, 0), g);
    }
}

#[cfg(test)]
mod normal_form_properties {
    use super::*;
    use proptest::prelude::*;
    use td_core::Goal;

    fn arb_goal(depth: u32) -> impl Strategy<Value = Goal> {
        let leaf = prop_oneof![
            (0u8..3).prop_map(|i| Goal::ins(&format!("p{i}"), vec![])),
            (0u8..3).prop_map(|i| Goal::prop(&format!("p{i}"))),
            Just(Goal::True),
            Just(Goal::Fail),
        ];
        leaf.prop_recursive(depth, 24, 3, |inner| {
            prop_oneof![
                // Raw constructors on purpose: make_node must normalize
                // arbitrary nesting, including 0- and 1-ary Seq/Par.
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Goal::Seq),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Goal::Par),
                proptest::collection::vec(inner.clone(), 1..3).prop_map(Goal::Choice),
                inner.prop_map(Goal::iso),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn trees_are_normal_forms(g in arb_goal(3)) {
            // Round-tripping a built tree through its goal rendering is the
            // identity: built trees are fixed points of make_node.
            if let Some(t) = make_node(g) {
                let back = make_node(to_goal(&t)).expect("non-empty stays non-empty");
                prop_assert_eq!(back, t);
            }
        }

        #[test]
        fn frontier_paths_all_reach_action_leaves(g in arb_goal(3)) {
            if let Some(t) = make_node(g) {
                let n = frontier_len(&t);
                prop_assert!(n > 0);
                for i in 0..n {
                    let leaf = leaf_at(&t, i);
                    prop_assert!(
                        !matches!(**leaf, Goal::True | Goal::Seq(_) | Goal::Par(_)),
                        "structural goal at frontier: {leaf}"
                    );
                }
                prop_assert!(n <= leaf_count(&t));
            }
        }

        #[test]
        fn completing_every_leaf_empties_the_tree(g in arb_goal(2)) {
            // Repeatedly remove the first frontier leaf; the tree must reach
            // None in exactly leaf_count steps (no leaf lost or duplicated).
            if let Some(mut t) = make_node(g) {
                let mut removed = 0;
                let total = leaf_count(&t);
                loop {
                    removed += 1;
                    match rewrite(&t, 0, None) {
                        Some(next) => t = next,
                        None => break,
                    }
                }
                prop_assert_eq!(removed, total);
            }
        }
    }
}
