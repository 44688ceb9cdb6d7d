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
//! A handle also carries a variable offset: every variable under it reads
//! with the offset added ([`Term::offset`]), and a child's offset adds to
//! its parent's. That is structure sharing, the Prolog engines' alternative
//! to copying a rule body per call: a rule's body is built into a tree once
//! per program (its *template*, `crate::compiled`), and a call unfolding it
//! with fresh variables from `base` on is the template's handle at offset
//! `base` — a refcount, not a copy. Every reader of a leaf reads through the
//! offset [`leaf_at`] returns beside it; a rewrite keeps the offsets of the
//! subtrees it moves into a new node.
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
use td_core::{Goal, Program, RuleId, Term};

/// A node of the runtime process tree, held by a handle: cloning it is one
/// refcount. Its variables read with `off` added.
#[derive(Clone)]
pub struct PTree {
    pub(crate) node: Node,
    /// Added to every variable under this handle, on top of the offsets
    /// of the handles above it.
    pub(crate) off: u32,
}

/// What a [`PTree`] handle holds.
#[derive(Clone)]
pub(crate) enum Node {
    /// An action leaf (never `True`/`Seq`/`Par`).
    Lit(Arc<Action>),
    /// Serial region: children run left to right.
    Seq(Kids),
    /// Concurrent region: children interleave.
    Par(Kids),
}

/// An action leaf as built once: its goal, and what running it needs that
/// building the leaf can already know.
pub struct Action {
    goal: Goal,
    /// A call's predicate's rules, in program order (`None`: no rule
    /// defines it, or the leaf is no call).
    rules: Option<Arc<[RuleId]>>,
    /// An `or` leaf's branches as trees, or an `iso` leaf's block (one).
    trees: Box<[Option<PTree>]>,
}

impl Action {
    fn new(goal: &Goal, program: &Program) -> Action {
        let (rules, trees) = match goal {
            Goal::Atom(atom) => (program.rule_ids(atom.pred).cloned(), Box::default()),
            Goal::Choice(branches) => {
                let trees = branches.iter().map(|b| make_node(b, program)).collect();
                (None, trees)
            }
            Goal::Iso(inner) => (None, Box::new([make_node(inner, program)]) as Box<[_]>),
            _ => (None, Box::default()),
        };
        Action {
            goal: goal.clone(),
            rules,
            trees,
        }
    }

    /// The goal, with its variables as stored: read them through the
    /// leaf's offset.
    pub fn goal(&self) -> &Goal {
        &self.goal
    }

    /// The rules a call leaf may unfold to, in program order.
    pub fn rules(&self) -> &[RuleId] {
        self.rules.as_deref().unwrap_or(&[])
    }

    /// The tree of an `or` leaf's `i`-th branch, or of an `iso` leaf's
    /// block (`i` = 0), as read at offset `off`.
    pub fn tree(&self, i: usize, off: u32) -> Option<PTree> {
        self.trees[i].as_ref().map(|t| t.at(off))
    }

    /// The goal as read at offset `off`: a copy.
    pub fn goal_at(&self, off: u32) -> Goal {
        self.goal.map_terms(&mut |t| t.offset(off))
    }

    /// The action with `f` applied to every term read at offset `off`; the
    /// result reads at offset 0.
    fn map_terms(&self, off: u32, f: &mut impl FnMut(Term) -> Term) -> Action {
        Action {
            goal: self.goal.map_terms(&mut |t| f(t.offset(off))),
            rules: self.rules.clone(),
            trees: (self.trees.iter())
                .map(|t| t.as_ref().map(|t| map_terms_at(t, off, f)))
                .collect(),
        }
    }
}

/// The children of a `Seq`/`Par` node: the live part of a shared slice.
/// Completing the head moves `start` past it, so the rest is shared, not
/// copied. A child's offset is relative to the node's.
#[derive(Clone)]
pub(crate) struct Kids {
    all: Arc<[PTree]>,
    start: u32,
}

impl Deref for Kids {
    type Target = [PTree];

    fn deref(&self) -> &[PTree] {
        &self.all[self.start as usize..]
    }
}

impl PTree {
    /// This tree read with `by` more added to every variable: a refcount.
    pub fn at(&self, by: u32) -> PTree {
        PTree {
            node: self.node.clone(),
            off: self.off + by,
        }
    }

    fn leaf(action: Action) -> PTree {
        PTree {
            node: Node::Lit(Arc::new(action)),
            off: 0,
        }
    }
}

/// Trees are equal when they have the same shape and their leaves the same
/// goals as read through their offsets.
impl PartialEq for PTree {
    fn eq(&self, other: &PTree) -> bool {
        same(self, 0, other, 0)
    }
}

impl Eq for PTree {}

fn same(a: &PTree, a_base: u32, b: &PTree, b_base: u32) -> bool {
    let (ao, bo) = (a_base + a.off, b_base + b.off);
    match (&a.node, &b.node) {
        (Node::Lit(x), Node::Lit(y)) => x.goal_at(ao) == y.goal_at(bo),
        (Node::Seq(x), Node::Seq(y)) | (Node::Par(x), Node::Par(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(c, d)| same(c, ao, d, bo))
        }
        _ => false,
    }
}

impl fmt::Debug for PTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PTree({})", to_goal(self))
    }
}

/// Convert a goal into a (possibly absent) process tree, expanding
/// structural composition eagerly; each action goal is copied into a leaf,
/// which carries its call's rules from `program` and its `or` branches and
/// `iso` block as trees. `None` means the goal is already complete
/// (`True`, or compositions of `True`).
pub fn make_node(goal: &Goal, program: &Program) -> Option<PTree> {
    let (seq, goals) = match goal {
        Goal::True => return None,
        Goal::Seq(goals) => (true, goals),
        Goal::Par(goals) => (false, goals),
        action => return Some(PTree::leaf(Action::new(action, program))),
    };
    let action = |g: &Goal| !matches!(g, Goal::True | Goal::Seq(_) | Goal::Par(_));
    if goals.len() > 1 && goals.iter().all(action) {
        // One leaf per goal: the slice is built in place.
        let leaves = goals.iter().map(|g| PTree::leaf(Action::new(g, program)));
        return Some(region(seq, leaves.collect(), 0));
    }
    let mut children = Vec::with_capacity(goals.len());
    for node in goals.iter().map(|g| make_node(g, program)) {
        let (kids, off) = spliced(&node, seq);
        children.extend(kids.iter().map(|k| k.at(off)));
    }
    match children.len() {
        0 => None,
        1 => children.pop(),
        _ => Some(region(seq, children.into(), 0)),
    }
}

/// What `tree` contributes to the children of a region of `seq`'s kind:
/// nothing, its own children when it is such a region (spliced), or itself
/// — with the offset they are read at.
fn spliced(tree: &Option<PTree>, seq: bool) -> (&[PTree], u32) {
    match tree {
        None => (&[], 0),
        Some(PTree {
            node: Node::Seq(kids),
            off,
        }) if seq => (kids, *off),
        Some(PTree {
            node: Node::Par(kids),
            off,
        }) if !seq => (kids, *off),
        Some(node) => (std::slice::from_ref(node), 0),
    }
}

/// The `Seq` (or `Par`) node over `all[start..]`, at least two children.
fn region(seq: bool, all: Arc<[PTree]>, start: u32) -> PTree {
    let kids = Kids { all, start };
    let node = if seq {
        Node::Seq(kids)
    } else {
        Node::Par(kids)
    };
    PTree { node, off: 0 }
}

/// The region of `seq`'s kind over the concatenation of `parts`, each read
/// at its offset: nothing, the one child, or a node whose slice is one
/// allocation.
fn concat(seq: bool, parts: [(&[PTree], u32); 3]) -> Option<PTree> {
    match parts.iter().map(|(p, _)| p.len()).sum() {
        0 => None,
        1 => parts
            .iter()
            .find_map(|(p, off)| p.first().map(|t| t.at(*off))),
        _ => {
            let [(a, ao), (b, bo), (c, co)] = parts;
            let all = (a.iter().map(|t| t.at(ao)))
                .chain(b.iter().map(|t| t.at(bo)))
                .chain(c.iter().map(|t| t.at(co)));
            Some(region(seq, all.collect(), 0))
        }
    }
}

/// The number of frontier leaves: the runnable actions. In a `Seq` only
/// child 0 is runnable; in a `Par` all children are.
pub fn frontier_len(tree: &PTree) -> usize {
    match &tree.node {
        Node::Lit(_) => 1,
        Node::Seq(kids) => frontier_len(&kids[0]),
        Node::Par(kids) => kids.iter().map(frontier_len).sum(),
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

/// The action of the `leaf`-th frontier leaf, and the offset its variables
/// read at.
pub fn leaf_at(tree: &PTree, leaf: usize) -> (&Arc<Action>, u32) {
    let (mut tree, mut leaf, mut off) = (tree, leaf, tree.off);
    loop {
        let (kids, seq) = match &tree.node {
            Node::Lit(action) => return (action, off),
            Node::Seq(kids) => (kids, true),
            Node::Par(kids) => (kids, false),
        };
        let (i, rest) = locate(kids, seq, leaf);
        (tree, leaf) = (&kids[i], rest);
        off += tree.off;
    }
}

/// Replace the `leaf`-th frontier leaf with `replacement` (`None` = the
/// action completed), renormalizing along the way. Returns the new tree
/// (`None` = the whole execution completed).
pub fn rewrite(tree: &PTree, leaf: usize, replacement: Option<PTree>) -> Option<PTree> {
    rewrite_at(tree, 0, leaf, replacement)
}

/// [`rewrite`] of a subtree whose parents add `base` to its offset.
fn rewrite_at(tree: &PTree, base: u32, leaf: usize, replacement: Option<PTree>) -> Option<PTree> {
    let off = base + tree.off;
    let (kids, seq) = match &tree.node {
        Node::Lit(_) => return replacement,
        Node::Seq(kids) => (kids, true),
        Node::Par(kids) => (kids, false),
    };
    let (i, leaf) = locate(kids, seq, leaf);
    let child = rewrite_at(&kids[i], off, leaf, replacement);
    let middle = spliced(&child, seq);
    if i == 0 && middle.0.is_empty() && kids.len() > 2 {
        // The first child completed: the node keeps the rest of its slice.
        return Some(region(seq, kids.all.clone(), kids.start + 1).at(off));
    }
    concat(seq, [(&kids[..i], off), middle, (&kids[i + 1..], off)])
}

/// Sequence two (possibly absent) trees: the result runs `first` to
/// completion, then `rest`. Used by the explicit-state search and the
/// entailment oracle to give `iso { g }` its contiguity semantics: stepping
/// an isolation leaf commits to running `g`'s block *now*, before anything
/// else — which is exactly `Seq[g, rest-of-tree]`.
pub fn sequence(first: Option<PTree>, rest: Option<PTree>) -> Option<PTree> {
    concat(
        true,
        [spliced(&first, true), spliced(&rest, true), (&[], 0)],
    )
}

/// The 128-bit identity of the configuration `(tree, db)` that the drivers
/// memoize by (the machine's failure memo, the search's claim table), for a
/// tree with no bindings outstanding: equal for trees that are equal up to
/// renaming their variables — so a tree read at any offset has the
/// fingerprint of the same tree renamed by a copy.
pub fn fingerprint(tree: &PTree, db: &td_db::Database) -> u128 {
    crate::kernel::fingerprint(tree, |t| t, db, &mut Vec::new())
}

/// Total number of action leaves, runnable or not.
#[cfg(test)]
pub fn leaf_count(tree: &PTree) -> usize {
    match &tree.node {
        Node::Lit(_) => 1,
        Node::Seq(kids) | Node::Par(kids) => kids.iter().map(leaf_count).sum(),
    }
}

/// Render the tree back into a goal, every variable read through its
/// offset (for tracing, memoization and tests).
pub fn to_goal(tree: &PTree) -> Goal {
    to_goal_at(tree, 0)
}

fn to_goal_at(tree: &PTree, base: u32) -> Goal {
    let off = base + tree.off;
    match &tree.node {
        Node::Lit(action) => action.goal_at(off),
        Node::Seq(kids) => Goal::seq(kids.iter().map(|k| to_goal_at(k, off)).collect()),
        Node::Par(kids) => Goal::par(kids.iter().map(|k| to_goal_at(k, off)).collect()),
    }
}

/// The tree with `f` applied to every term of every leaf, each read
/// through its offset; the result reads at offset 0 throughout.
pub(crate) fn map_terms(tree: &PTree, f: &mut impl FnMut(Term) -> Term) -> PTree {
    map_terms_at(tree, 0, f)
}

fn map_terms_at(tree: &PTree, base: u32, f: &mut impl FnMut(Term) -> Term) -> PTree {
    let off = base + tree.off;
    let (kids, seq) = match &tree.node {
        Node::Lit(action) => return PTree::leaf(action.map_terms(off, f)),
        Node::Seq(kids) => (kids, true),
        Node::Par(kids) => (kids, false),
    };
    region(
        seq,
        kids.iter().map(|k| map_terms_at(k, off, f)).collect(),
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::Term;

    fn a(name: &str) -> Goal {
        Goal::prop(name)
    }

    fn node(g: &Goal) -> Option<PTree> {
        make_node(g, &Program::builder().build_unchecked())
    }

    /// The goal of the `i`-th frontier leaf, read through its offset.
    fn leaf_goal(t: &PTree, i: usize) -> Goal {
        let (action, off) = leaf_at(t, i);
        action.goal_at(off)
    }

    fn is_leaf(t: &PTree, g: &Goal) -> bool {
        matches!(t.node, Node::Lit(_)) && to_goal(t) == *g
    }

    #[test]
    fn true_makes_no_node() {
        assert!(node(&Goal::True).is_none());
        assert!(node(&Goal::Seq(vec![Goal::True, Goal::True])).is_none());
    }

    #[test]
    fn actions_make_leaves() {
        let t = node(&Goal::ins("p", vec![])).unwrap();
        assert!(is_leaf(&t, &Goal::ins("p", vec![])));
        assert_eq!(leaf_count(&t), 1);
    }

    #[test]
    fn nested_seq_splices_flat() {
        let g = Goal::Seq(vec![a("x"), Goal::Seq(vec![a("y"), a("z")])]);
        let t = node(&g).unwrap();
        let Node::Seq(cs) = &t.node else { panic!() };
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn frontier_of_seq_is_first_only() {
        let t = node(&Goal::seq(vec![a("x"), a("y")])).unwrap();
        assert_eq!(frontier_len(&t), 1);
        assert_eq!(leaf_goal(&t, 0), a("x"));
    }

    #[test]
    fn frontier_of_par_is_all() {
        let t = node(&Goal::par(vec![a("x"), a("y"), a("z")])).unwrap();
        assert_eq!(frontier_len(&t), 3);
        let leaves: Vec<Goal> = (0..3).map(|i| (leaf_goal(&t, i)).clone()).collect();
        assert_eq!(leaves, [a("x"), a("y"), a("z")]);
    }

    #[test]
    fn mixed_frontier() {
        // (x * y) | z : frontier = {x, z}
        let t = node(&Goal::par(vec![Goal::seq(vec![a("x"), a("y")]), a("z")])).unwrap();
        assert_eq!(frontier_len(&t), 2);
        assert_eq!(leaf_goal(&t, 0), a("x"));
        assert_eq!(leaf_goal(&t, 1), a("z"));
    }

    #[test]
    fn rewrite_completion_pops_seq_head() {
        let t = node(&Goal::seq(vec![a("x"), a("y")])).unwrap();
        let t2 = rewrite(&t, 0, None).unwrap();
        // Seq of one collapses to the leaf itself.
        assert!(is_leaf(&t2, &a("y")));
        let t3 = rewrite(&t2, 0, None);
        assert!(t3.is_none(), "everything completed");
    }

    #[test]
    fn completing_a_head_shares_the_rest_of_the_slice() {
        let t = node(&Goal::seq(vec![a("x"), a("y"), a("z")])).unwrap();
        let t2 = rewrite(&t, 0, None).unwrap();
        let (Node::Seq(before), Node::Seq(after)) = (&t.node, &t2.node) else {
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
        let Node::Seq(cs) = &t2.node else { panic!() };
        assert_eq!(cs.len(), 3);
        assert_eq!(leaf_goal(&t2, 0), a("p"));
    }

    #[test]
    fn rewrite_par_branch_completion() {
        let t = node(&Goal::par(vec![a("x"), a("y")])).unwrap();
        let t2 = rewrite(&t, 0, None).unwrap();
        assert!(is_leaf(&t2, &a("y")));
    }

    #[test]
    fn par_replacement_splices() {
        // simulate <- w | simulate: replacing the `simulate` leaf inside a
        // Par with another Par splices, keeping the tree flat.
        let t = node(&Goal::par(vec![a("w"), a("simulate")])).unwrap();
        let rep = node(&Goal::par(vec![a("w"), a("simulate")]));
        let t2 = rewrite(&t, 1, rep).unwrap();
        let Node::Par(cs) = &t2.node else { panic!() };
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
        let Node::Par(orig) = &snap.node else {
            panic!()
        };
        let (Node::Seq(kept), Node::Seq(now)) = (&orig[1].node, &t2.node) else {
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
        assert!(matches!(&t.node, Node::Lit(l) if matches!(l.goal(), Goal::Choice(_))));
        let g = Goal::iso(Goal::seq(vec![a("x"), a("y")]));
        let t = node(&g).unwrap();
        assert!(matches!(&t.node, Node::Lit(l) if matches!(l.goal(), Goal::Iso(_))));
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
        assert_eq!(leaf_goal(&t, 0), g);
    }

    #[test]
    fn a_handle_reads_its_tree_through_its_offset() {
        let v = |i| Goal::atom("p", vec![Term::var(i), Term::sym("c")]);
        let g = Goal::par(vec![Goal::seq(vec![v(0), v(1)]), v(2)]);
        let t = node(&g).unwrap();
        let at = t.at(10);
        assert_eq!(
            to_goal(&at),
            Goal::par(vec![Goal::seq(vec![v(10), v(11)]), v(12)])
        );
        assert_eq!(leaf_goal(&at, 1), v(12));
        // A rewrite keeps the offset of what it moves into a new node, and
        // a replacement keeps its own.
        let rep = node(&v(0)).map(|r| r.at(20));
        let t2 = rewrite(&at, 0, rep).unwrap();
        assert_eq!(
            to_goal(&t2),
            Goal::par(vec![Goal::seq(vec![v(20), v(11)]), v(12)])
        );
        let t3 = rewrite(&t2, 0, None).unwrap();
        assert_eq!(to_goal(&t3), Goal::par(vec![v(11), v(12)]));
        assert_eq!(t3, node(&Goal::par(vec![v(11), v(12)])).unwrap());
        // Splicing a handle's region into another keeps its offset too.
        let s = sequence(
            node(&Goal::seq(vec![v(0), v(1)])).map(|r| r.at(5)),
            Some(t3),
        );
        assert_eq!(
            to_goal(&s.unwrap()),
            Goal::seq(vec![v(5), v(6), Goal::par(vec![v(11), v(12)])])
        );
    }

    #[test]
    fn a_leaf_carries_its_branches_and_block_as_trees() {
        let g = Goal::choice(vec![Goal::atom("p", vec![Term::var(0)]), Goal::True]);
        let t = node(&g).unwrap().at(3);
        let (action, off) = leaf_at(&t, 0);
        assert_eq!(
            to_goal(&action.tree(0, off).unwrap()),
            Goal::atom("p", vec![Term::var(3)])
        );
        assert!(action.tree(1, off).is_none());
        let t = node(&Goal::iso(Goal::seq(vec![a("x"), a("y")]))).unwrap();
        let (action, off) = leaf_at(&t, 0);
        assert_eq!(
            to_goal(&action.tree(0, off).unwrap()),
            Goal::seq(vec![a("x"), a("y")])
        );
    }

    #[test]
    fn a_call_leaf_carries_its_rules() {
        let program = Program::builder()
            .base_pred("b", 0)
            .rule_parts(td_core::Atom::prop("r"), Goal::prop("b"))
            .rule_parts(td_core::Atom::prop("r"), Goal::True)
            .build()
            .unwrap();
        let t = make_node(&Goal::par(vec![a("r"), a("b")]), &program).unwrap();
        assert_eq!(
            leaf_at(&t, 0).0.rules(),
            program.rules_for(td_core::Pred::new("r", 0))
        );
        assert!(leaf_at(&t, 1).0.rules().is_empty());
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
            let program = Program::builder().build_unchecked();
            if let Some(t) = make_node(&g, &program) {
                let back = make_node(&to_goal(&t), &program).expect("non-empty stays non-empty");
                prop_assert_eq!(back, t);
            }
        }

        #[test]
        fn frontier_paths_all_reach_action_leaves(g in arb_goal(3)) {
            if let Some(t) = make_node(&g, &Program::builder().build_unchecked()) {
                let n = frontier_len(&t);
                prop_assert!(n > 0);
                for i in 0..n {
                    let leaf = leaf_at(&t, i).0.goal();
                    prop_assert!(
                        !matches!(leaf, Goal::True | Goal::Seq(_) | Goal::Par(_)),
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
            if let Some(mut t) = make_node(&g, &Program::builder().build_unchecked()) {
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
