//! The runtime process tree.
//!
//! A running TD goal is a tree of sequential and concurrent regions over
//! *action leaves* (atoms, updates, builtins, choices, isolation blocks).
//! A [`PTree`] is a handle whose clone is one refcount. The sequential
//! machine owns one tree and edits it where it lies ([`edit`]), logging how
//! to take each edit back ([`Log`]); the drivers that keep a tree per
//! configuration call [`rewrite`], the same edit on a clone of the handle.
//! docs/ARCHITECTURE.md ("What a step allocates") has the design.
//!
//! A handle also carries a variable offset: every variable under it reads
//! with the offset added ([`Term::offset`]), and a child's offset adds to
//! its parent's. That is structure sharing, the Prolog engines' alternative
//! to copying a rule body per call: a rule's body is built into a tree once
//! per program (its *template*, `crate::compiled`), and a call unfolding it
//! with fresh variables from `base` on is the template's handle at offset
//! `base` — a refcount, not a copy. Every reader of a leaf reads through the
//! offset [`leaf_at`] returns beside it; an edit keeps the offsets of the
//! subtrees it moves into another node.
//!
//! Invariants maintained by [`make_node`] and [`edit`]:
//!
//! * `Seq`/`Par` nodes have ≥ 2 children (singletons collapse to the child);
//! * no `Seq` directly under `Seq`, no `Par` directly under `Par` (spliced);
//! * leaves are *actions*: never `Goal::True`/`Seq`/`Par` (expanded away).
//!
//! In a `Seq` only the first child is runnable; in a `Par` every child is.
//! The executable leaves of a tree are therefore its *frontier* — the
//! schedulable actions the paper's interleaving semantics chooses among. A
//! leaf is addressed by its index in the frontier, left to right:
//! [`frontier_len`] counts them, and [`leaf_at`] and [`edit`] descend to
//! one by that count.

use std::fmt;
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

/// The children of a `Seq`/`Par` node, held last first: a `Seq`'s head is
/// the last element, so completing it is a pop and unfolding a call there
/// a pop and an extend. A child's offset is relative to the node's.
#[derive(Clone)]
pub(crate) struct Kids(Arc<Vec<PTree>>);

impl Kids {
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The children, left to right.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &PTree> {
        self.0.iter().rev()
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

    /// The children of this node, and whether it is a `Seq`; `None` for a
    /// leaf.
    fn region(&self) -> Option<(&Kids, bool)> {
        match &self.node {
            Node::Lit(_) => None,
            Node::Seq(kids) => Some((kids, true)),
            Node::Par(kids) => Some((kids, false)),
        }
    }

    /// The children of this node when it is a region of `seq`'s kind.
    fn kids_of(&self, seq: bool) -> Option<&Kids> {
        self.region().filter(|r| r.1 == seq).map(|r| r.0)
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
        (Node::Lit(x), Node::Lit(y)) => {
            (Arc::ptr_eq(x, y) && ao == bo) || x.goal_at(ao) == y.goal_at(bo)
        }
        (Node::Seq(x), Node::Seq(y)) | (Node::Par(x), Node::Par(y)) => {
            (Arc::ptr_eq(&x.0, &y.0) && ao == bo)
                || (x.len() == y.len() && x.iter().zip(y.iter()).all(|(c, d)| same(c, ao, d, bo)))
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
        // One leaf per goal: the children are built in place.
        let leaves = goals
            .iter()
            .rev()
            .map(|g| PTree::leaf(Action::new(g, program)));
        return Some(region(seq, leaves.collect()));
    }
    let mut children = Vec::with_capacity(goals.len());
    for g in goals.iter().rev() {
        push_spliced(&mut children, make_node(g, program), seq);
    }
    region_over(seq, children)
}

/// Append `tree` to `kids`, the children, last first, of a region of
/// `seq`'s kind: nothing, its own children read at its offset when it is
/// such a region (spliced), or itself.
fn push_spliced(kids: &mut Vec<PTree>, tree: Option<PTree>, seq: bool) {
    let Some(tree) = tree else { return };
    match tree.kids_of(seq) {
        Some(its) => insert_kids(kids, kids.len(), its, tree.off),
        None => kids.push(tree),
    }
}

/// Insert the children `its`, read at `off`, at `at` in `kids`, all held
/// last first.
fn insert_kids(kids: &mut Vec<PTree>, at: usize, its: &Kids, off: u32) {
    for (i, kid) in its.0.iter().enumerate() {
        kids.insert(at + i, kid.at(off));
    }
}

/// Put `child` back in the place of the `n` children at `at` in `kids`.
fn put_back(kids: &mut Vec<PTree>, at: usize, n: usize, child: PTree) {
    for _ in 0..n {
        kids.remove(at);
    }
    kids.insert(at, child);
}

/// The `Seq` (or `Par`) node over `kids`, held last first, at least two.
fn region(seq: bool, kids: Vec<PTree>) -> PTree {
    let kids = Kids(Arc::new(kids));
    let node = if seq {
        Node::Seq(kids)
    } else {
        Node::Par(kids)
    };
    PTree { node, off: 0 }
}

/// The region of `seq`'s kind over `kids`, held last first: nothing, the
/// one child, or a node.
fn region_over(seq: bool, mut kids: Vec<PTree>) -> Option<PTree> {
    match kids.len() {
        0 => None,
        1 => kids.pop(),
        _ => Some(region(seq, kids)),
    }
}

/// The number of frontier leaves: the runnable actions. In a `Seq` only
/// its head is runnable; in a `Par` all children are.
pub fn frontier_len(tree: &PTree) -> usize {
    match &tree.node {
        Node::Lit(_) => 1,
        Node::Seq(kids) => frontier_len(kids.0.last().expect("a region has children")),
        Node::Par(kids) => kids.0.iter().map(frontier_len).sum(),
    }
}

/// The index, as held, of the child of a `Seq` (`seq`) or `Par` node
/// holding the node's `leaf`-th frontier leaf, and that leaf's index among
/// the child's.
fn locate(kids: &[PTree], seq: bool, mut leaf: usize) -> (usize, usize) {
    if seq {
        return (kids.len() - 1, leaf);
    }
    for (i, child) in kids.iter().enumerate().rev() {
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
        let (i, rest) = locate(&kids.0, seq, leaf);
        (tree, leaf) = (&kids.0[i], rest);
        off += tree.off;
    }
}

/// How to take back the edits made to one tree, oldest first ([`edit`],
/// [`Log::rewind`]).
#[derive(Default)]
pub(crate) struct Log {
    edits: Vec<Undo>,
    /// Each edit's position, after the positions of the edits before it.
    path: Vec<u32>,
}

/// One edit's undo record: where it was (the last `depth` entries of the
/// log's `path`: the index, as held, of the child taken in each region
/// from the root down to the leaf), what it removed, and how many children
/// it put in the leaf's place.
struct Undo {
    depth: u32,
    put: u32,
    /// The leaf, or the leaf's region, whole, when the region gave way to
    /// its other child.
    removed: PTree,
}

impl Log {
    /// The number of edits logged: a position to rewind to.
    pub(crate) fn len(&self) -> usize {
        self.edits.len()
    }

    /// Take `root` back, newest edit first, to the tree it was when the log
    /// was `len` edits long.
    pub(crate) fn rewind(&mut self, root: &mut Option<PTree>, len: usize) {
        while self.edits.len() > len {
            let undo = self.edits.pop().expect("longer than `len`");
            let from = self.path.len() - undo.depth as usize;
            undo.apply(root, &self.path[from..]);
            self.path.truncate(from);
        }
    }
}

impl Undo {
    /// Take back the edit at `path` from `root`, the tree it left.
    fn apply(self, root: &mut Option<PTree>, path: &[u32]) {
        let Some((&at, above)) = path.split_last() else {
            *root = Some(self.removed);
            return;
        };
        let (tree, at) = (root.as_mut().expect("an edited region"), at as usize);
        let Some((kids, _)) = self.removed.region() else {
            let kids = own(slot(tree, above), 0);
            put_back(kids, at, self.put as usize, self.removed);
            return;
        };
        // The leaf's region gave way to its other child: put the region
        // back in the place of that child, or of the children it spliced.
        let Some((&i, to_parent)) = above.split_last() else {
            *tree = self.removed;
            return;
        };
        let parent = slot(tree, to_parent);
        let seq = matches!(parent.node, Node::Seq(_));
        let n = kids.0[1 - at].kids_of(seq).map_or(1, Kids::len);
        put_back(own(parent, 0), i as usize, n, self.removed);
    }
}

/// The handle `path` leads to from `tree`: the child at each index, as
/// held, of each region on the way, each made editable ([`own`]).
fn slot<'t>(mut tree: &'t mut PTree, path: &[u32]) -> &'t mut PTree {
    for &i in path {
        tree = &mut own(tree, 0)[i as usize];
    }
    tree
}

/// The children of the region `tree`, to edit: written over where only
/// this handle holds them, else copied once, with room for `more`; either
/// way read at offset 0 from now on, the handle's offset added to each
/// child's.
fn own(tree: &mut PTree, more: usize) -> &mut Vec<PTree> {
    let off = std::mem::take(&mut tree.off);
    let (Node::Seq(kids) | Node::Par(kids)) = &mut tree.node else {
        unreachable!("a leaf has no children")
    };
    // No `Weak` is ever made of a region, so one strong count is unique.
    if Arc::strong_count(&kids.0) > 1 {
        let mut copy = Vec::with_capacity(kids.len() + more);
        insert_kids(&mut copy, 0, kids, off);
        kids.0 = Arc::new(copy);
        return Arc::get_mut(&mut kids.0).expect("a new copy");
    }
    let kids = Arc::get_mut(&mut kids.0).expect("held by this handle alone");
    if off != 0 {
        kids.iter_mut().for_each(|k| k.off += off);
    }
    kids
}

/// Replace the `leaf`-th frontier leaf of `root` with `replacement`
/// (`None` = the action completed), where the tree lies, keeping the
/// invariants: a region left with one child gives way to it, and a region
/// put into one of its own kind is spliced. A node only `root` holds is
/// written over; one something else holds too (a rule's template, a
/// caller's handle) is copied on the way down, once. With a `log`, the
/// edit is recorded there to be taken back ([`Log::rewind`]).
pub(crate) fn edit(
    root: &mut Option<PTree>,
    leaf: usize,
    replacement: Option<PTree>,
    mut log: Option<&mut Log>,
) {
    let tree = root.as_mut().expect("a leaf of a live tree");
    let undo = if tree.region().is_none() {
        let removed = std::mem::replace(root, replacement).expect("the leaf");
        Undo {
            depth: 0,
            put: 0,
            removed,
        }
    } else {
        let path = log.as_deref_mut().map(|log| &mut log.path);
        edit_region(tree, leaf, replacement, path, 1).0
    };
    if let Some(log) = log {
        log.edits.push(undo);
    }
}

/// [`edit`] under the region `tree`, `depth` levels below the root,
/// appending the index taken at each level to `path`. Returns the undo
/// record, and whether `tree` gave way to its one remaining child, which
/// now stands in its place.
fn edit_region(
    tree: &mut PTree,
    leaf: usize,
    replacement: Option<PTree>,
    mut path: Option<&mut Vec<u32>>,
    depth: u32,
) -> (Undo, bool) {
    let (kids, seq) = tree.region().expect("a region");
    let (i, rest) = locate(&kids.0, seq, leaf);
    if let Some(path) = path.as_deref_mut() {
        path.push(i as u32);
    }
    if replacement.is_none() && kids.len() == 2 && kids.0[i].region().is_none() {
        // The leaf is done and the region gives way to its other child;
        // the record keeps the region as it was.
        let only = kids.0[1 - i].at(tree.off);
        let removed = std::mem::replace(tree, only);
        return (
            Undo {
                depth,
                put: 0,
                removed,
            },
            true,
        );
    }
    // A body spliced in for the leaf needs room for all but one child.
    let room = match &replacement {
        Some(new) if kids.0[i].region().is_none() => new.kids_of(seq).map_or(0, |k| k.len() - 1),
        _ => 0,
    };
    let kids = own(tree, room);
    if kids[i].region().is_some() {
        let (undo, collapsed) = edit_region(&mut kids[i], rest, replacement, path, depth + 1);
        if collapsed && kids[i].kids_of(seq).is_some() {
            // The child gave way to a region of this one's kind: splice it.
            let only = kids.remove(i);
            insert_kids(kids, i, only.kids_of(seq).expect("checked"), only.off);
        }
        return (undo, false);
    }
    let (removed, put) = match replacement {
        None => (kids.remove(i), 0),
        Some(new) => match new.kids_of(seq) {
            Some(its) => {
                let removed = kids.remove(i);
                insert_kids(kids, i, its, new.off);
                (removed, its.len() as u32)
            }
            None => (std::mem::replace(&mut kids[i], new), 1),
        },
    };
    (
        Undo {
            depth,
            put,
            removed,
        },
        false,
    )
}

/// Replace the `leaf`-th frontier leaf with `replacement` (`None` = the
/// action completed): [`edit`] on a clone of the handle, which copies the
/// path and leaves `tree` as it was. Returns the new tree (`None` = the
/// whole execution completed). Not inlined: the ground drivers call it from
/// a dozen places.
#[inline(never)]
pub fn rewrite(tree: &PTree, leaf: usize, replacement: Option<PTree>) -> Option<PTree> {
    let mut tree = Some(tree.clone());
    edit(&mut tree, leaf, replacement, None);
    tree
}

/// Sequence two (possibly absent) trees: the result runs `first` to
/// completion, then `rest`. Used by the explicit-state search and the
/// entailment oracle to give `iso { g }` its contiguity semantics: stepping
/// an isolation leaf commits to running `g`'s block *now*, before anything
/// else — which is exactly `Seq[g, rest-of-tree]`.
pub fn sequence(first: Option<PTree>, rest: Option<PTree>) -> Option<PTree> {
    let (Some(_), Some(_)) = (&first, &rest) else {
        return first.or(rest);
    };
    let mut kids = Vec::new();
    push_spliced(&mut kids, rest, true);
    push_spliced(&mut kids, first, true);
    region_over(true, kids)
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
pub(crate) fn leaf_count(tree: &PTree) -> usize {
    match tree.region() {
        None => 1,
        Some((kids, _)) => kids.iter().map(leaf_count).sum(),
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
        kids.0.iter().map(|k| map_terms_at(k, off, f)).collect(),
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
        // Held by the tree alone, the children stay where they are:
        // completing the head pops it, and the undo pushes it back.
        let held = |t: &Option<PTree>| {
            let Node::Seq(kids) = &t.as_ref().unwrap().node else {
                panic!()
            };
            (Arc::as_ptr(&kids.0), kids.0.as_ptr())
        };
        let mut t = node(&Goal::seq(vec![a("x"), a("y"), a("z")]));
        let (before, mut log) = (held(&t), Log::default());
        edit(&mut t, 0, None, Some(&mut log));
        assert_eq!(held(&t), before, "no new node, no new slice");
        assert_eq!(
            to_goal(t.as_ref().unwrap()),
            Goal::seq(vec![a("y"), a("z")])
        );
        log.rewind(&mut t, 0);
        assert_eq!(held(&t), before);
        // A handle held elsewhere keeps its tree: the rewrite copies the
        // children's handles once, so the rest is shared, not rebuilt.
        let t = t.unwrap();
        let t2 = rewrite(&t, 0, None).unwrap();
        let (Node::Seq(before), Node::Seq(after)) = (&t.node, &t2.node) else {
            panic!()
        };
        let (Node::Lit(z0), Node::Lit(z1)) = (&before.0[0].node, &after.0[0].node) else {
            panic!()
        };
        assert!(Arc::ptr_eq(z0, z1), "the rest is shared");
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
        let kept = orig.iter().nth(1).unwrap();
        let (Node::Seq(kept), Node::Seq(now)) = (&kept.node, &t2.node) else {
            panic!()
        };
        assert!(Arc::ptr_eq(&kept.0, &now.0));
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

#[cfg(test)]
mod edit_properties {
    use super::*;
    use proptest::prelude::*;
    use td_core::Goal;

    /// An action over one variable, so that offsets show.
    fn arb_leaf() -> impl Strategy<Value = Goal> {
        prop_oneof![
            (0u8..3, 0u32..4).prop_map(|(i, v)| Goal::atom(&format!("p{i}"), vec![Term::var(v)])),
            (0u32..4).prop_map(|v| Goal::ins("q", vec![Term::var(v)])),
        ]
    }

    fn arb_goal() -> impl Strategy<Value = Goal> {
        arb_leaf().prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                // Raw constructors: singletons and nesting of one kind are
                // make_node's to normalize.
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Goal::Seq),
                proptest::collection::vec(inner, 0..4).prop_map(Goal::Par),
            ]
        })
    }

    /// A rule's body: a `Seq`, a `Par` or a single leaf.
    fn arb_body() -> impl Strategy<Value = Goal> {
        let pair = |region: fn(Vec<Goal>) -> Goal| {
            proptest::collection::vec(arb_leaf(), 2).prop_map(region)
        };
        prop_oneof![
            proptest::collection::vec(prop_oneof![arb_leaf(), pair(Goal::Par)], 2..4)
                .prop_map(Goal::Seq),
            proptest::collection::vec(prop_oneof![arb_leaf(), pair(Goal::Seq)], 2..4)
                .prop_map(Goal::Par),
            arb_leaf(),
        ]
    }

    /// `goal`, a tree's rendering, with its `leaf`-th frontier leaf
    /// replaced by `with`: what an edit does, as a goal for `make_node` to
    /// normalize.
    fn replaced(goal: &Goal, leaf: &mut usize, with: &Goal) -> Goal {
        match goal {
            Goal::Seq(gs) => {
                let mut gs = gs.clone();
                gs[0] = replaced(&gs[0], leaf, with);
                Goal::Seq(gs)
            }
            Goal::Par(gs) => Goal::Par(gs.iter().map(|g| replaced(g, leaf, with)).collect()),
            action => {
                let hit = *leaf == 0;
                *leaf = leaf.wrapping_sub(1);
                if hit {
                    with.clone()
                } else {
                    action.clone()
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A run of edits in place, each against persistent `rewrite` and a
        /// model built from the goal, then undone edit by edit: every tree
        /// on the way back equals the one the log's length was taken at.
        #[test]
        fn an_edit_is_a_rewrite_and_its_undo_gives_the_tree_back(
            g in arb_goal(),
            off in 0u32..5,
            bodies in proptest::collection::vec(arb_body(), 3),
            edits in proptest::collection::vec((0usize..64, 0usize..4), 1..12),
            share in any::<bool>(),
        ) {
            let program = Program::builder().build_unchecked();
            let db = td_db::Database::new();
            // The templates stay held here, as `Compiled` holds them.
            let templates: Vec<_> = bodies.iter().map(|b| make_node(b, &program)).collect();
            let mut live = make_node(&g, &program).map(|t| t.at(off));
            let first = live.as_ref().and_then(|t| make_node(&to_goal(t), &program));
            let (mut log, mut kept) = (Log::default(), vec![(0, first)]);
            for (step, &(leaf, body)) in edits.iter().enumerate() {
                let Some(tree) = live.clone() else { break };
                let leaf = leaf % frontier_len(&tree);
                let base = 10 * (step as u32 + 1);
                let with = templates.get(body).and_then(|t| t.as_ref()).map(|t| t.at(base));
                let with_goal = with.as_ref().map_or(Goal::True, to_goal);
                let model = make_node(&replaced(&to_goal(&tree), &mut { leaf }, &with_goal), &program);
                let persistent = rewrite(&tree, leaf, with.clone());
                // Unshared, the root is written over; shared, copied.
                let held = share.then_some(tree);
                edit(&mut live, leaf, with, Some(&mut log));
                prop_assert_eq!(&live, &model);
                prop_assert_eq!(&live, &persistent);
                if let (Some(t), Some(m)) = (&live, &model) {
                    prop_assert_eq!(fingerprint(t, &db), fingerprint(m, &db));
                }
                if let Some(held) = held {
                    prop_assert_eq!(Some(&held), kept.last().unwrap().1.as_ref());
                }
                kept.push((log.len(), model));
            }
            for (len, tree) in kept.into_iter().rev() {
                log.rewind(&mut live, len);
                prop_assert_eq!(&live, &tree);
            }
            prop_assert_eq!(log.len(), 0);
        }
    }
}
