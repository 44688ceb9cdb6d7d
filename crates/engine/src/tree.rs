//! The runtime process tree.
//!
//! A running TD goal is a tree of sequential and concurrent regions over
//! *action leaves* (atoms, updates, builtins, choices, isolation blocks). A
//! goal, a rule's body, an `or` branch and an `iso` block are each built
//! once into a [`Template`]: its nodes, flat, in pre-order. The sequential
//! machine copies templates into the [`Arena`] its solver owns and edits
//! that tree in place; the ground drivers build a persistent [`PTree`] from
//! the same templates and [`rewrite`] it by copying the path.
//! docs/ARCHITECTURE.md ("What a step allocates") has the design.
//!
//! Every variable of a leaf reads with the leaf's offset added
//! ([`Term::offset`]): a template is built from the goal as written, and a
//! call that renames a rule apart from `base` on reads its body at offset
//! `base` instead of copying it renamed.
//!
//! Invariants maintained by [`Template::new`], the arena's edits and
//! [`rewrite`]:
//!
//! * `Seq`/`Par` nodes have ≥ 2 children (singletons collapse to the child);
//! * no `Seq` directly under `Seq`, no `Par` directly under `Par` (spliced);
//! * leaves are *actions*: never `Goal::True`/`Seq`/`Par` (expanded away).
//!
//! In a `Seq` only the first child is runnable; in a `Par` every child is.
//! The executable leaves of a tree are therefore its *frontier* — the
//! schedulable actions the paper's interleaving semantics chooses among. A
//! leaf is addressed by its index in the frontier, left to right.

mod arena;

pub use arena::Arena;
pub(crate) use arena::Mark;

use std::fmt;
use std::sync::Arc;
use td_core::{Goal, Program, RuleId, Term};

/// No node: the end of a list of children, or a leaf's children.
const NIL: u32 = u32::MAX;

/// An action leaf as built once: its goal, and what running it needs that
/// building the leaf can already know.
pub struct Action {
    goal: Goal,
    /// A call's predicate's rules, in program order (`None`: no rule
    /// defines it, or the leaf is no call).
    rules: Option<Arc<[RuleId]>>,
    /// An `or` leaf's branches, or an `iso` leaf's block (one), as
    /// templates (`None`: the branch is `()`).
    trees: Box<[Option<Template>]>,
}

impl Action {
    fn new(goal: &Goal, program: &Program) -> Action {
        let (rules, trees) = match goal {
            Goal::Atom(atom) => (program.rule_ids(atom.pred).cloned(), Box::default()),
            Goal::Choice(branches) => {
                let trees = branches.iter().map(|b| Template::new(b, program)).collect();
                (None, trees)
            }
            Goal::Iso(inner) => (None, Box::new([Template::new(inner, program)]) as Box<[_]>),
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

    /// The template of an `or` leaf's `i`-th branch, or of an `iso` leaf's
    /// block (`i` = 0).
    pub fn template(&self, i: usize) -> Option<&Template> {
        self.trees[i].as_ref()
    }

    /// [`Action::template`] built into a persistent tree read at offset
    /// `off`.
    pub fn tree(&self, i: usize, off: u32) -> Option<PTree> {
        self.template(i).map(|t| t.tree(off))
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
                .map(|t| t.as_ref().map(|t| t.map_terms(off, f)))
                .collect(),
        }
    }
}

/// A process tree as built once from a goal, never edited: its nodes in
/// pre-order, each region's children linked by index from its first, so
/// that copying it into an [`Arena`] is a few words per node. Its leaves
/// read at offset 0; a copy says at which offset they read.
pub struct Template {
    slots: Slots,
}

/// A template's nodes: a lone leaf is held inline.
enum Slots {
    Leaf(Slot),
    Nodes(Box<[Slot]>),
}

impl From<Vec<Slot>> for Slots {
    fn from(mut slots: Vec<Slot>) -> Slots {
        match slots.len() {
            1 => Slots::Leaf(slots.pop().expect("one slot")),
            _ => Slots::Nodes(slots.into()),
        }
    }
}

/// A template node: an arena node before it is placed.
struct Slot {
    /// The action of a leaf; `None` for a region.
    action: Option<Arc<Action>>,
    /// A region's kind: `Seq` (true) or `Par`.
    seq: bool,
    /// A region's first child, `NIL` for a leaf.
    first: u32,
    /// A region's number of children.
    kids: u32,
    /// The next child of this node's region, `NIL` for the last.
    next: u32,
    /// The number of frontier leaves under this node.
    front: u32,
}

/// A template read at an offset: what a step puts in place of a leaf.
pub type At<'t> = (&'t Template, u32);

/// A goal's normal form, before it is laid out.
enum Shape<'g> {
    Leaf(&'g Goal),
    Region(bool, Vec<Shape<'g>>),
}

impl Shape<'_> {
    /// The number of nodes.
    fn len(&self) -> usize {
        match self {
            Shape::Leaf(_) => 1,
            Shape::Region(_, kids) => 1 + kids.iter().map(Shape::len).sum::<usize>(),
        }
    }
}

/// The normal form of `goal`, expanding structural composition: `None`
/// means the goal is already complete (`True`, or compositions of `True`).
fn shape(goal: &Goal) -> Option<Shape<'_>> {
    let (seq, goals) = match goal {
        Goal::True => return None,
        Goal::Seq(goals) => (true, goals),
        Goal::Par(goals) => (false, goals),
        action => return Some(Shape::Leaf(action)),
    };
    let mut kids = Vec::with_capacity(goals.len());
    for g in goals {
        match shape(g) {
            None => {}
            Some(Shape::Region(s, its)) if s == seq => kids.extend(its),
            Some(kid) => kids.push(kid),
        }
    }
    match kids.len() {
        0 => None,
        1 => kids.pop(),
        _ => Some(Shape::Region(seq, kids)),
    }
}

impl Template {
    /// The template of `goal`: each action goal is copied into a leaf,
    /// which carries its call's rules from `program` and its `or` branches
    /// and `iso` block as templates. `None` means the goal is already
    /// complete.
    pub fn new(goal: &Goal, program: &Program) -> Option<Template> {
        let action = |g: &Goal| !matches!(g, Goal::True | Goal::Seq(_) | Goal::Par(_));
        let slots = match goal {
            Goal::Seq(gs) | Goal::Par(gs) if gs.len() > 1 && gs.iter().all(action) => {
                // One leaf per goal, the common rule body: laid out as is.
                let (seq, n) = (matches!(goal, Goal::Seq(_)), gs.len() as u32);
                let region = Slot {
                    action: None,
                    seq,
                    first: 1,
                    kids: n,
                    next: NIL,
                    front: if seq { 1 } else { n },
                };
                let leaves = (gs.iter().zip(2..))
                    .map(|(g, next)| leaf(g, program, if next <= n { next } else { NIL }));
                Slots::Nodes(std::iter::once(region).chain(leaves).collect())
            }
            _ => {
                let shape = shape(goal)?;
                if let Shape::Leaf(goal) = shape {
                    let slot = leaf(goal, program, NIL);
                    return Some(Template {
                        slots: Slots::Leaf(slot),
                    });
                }
                let mut slots = Vec::with_capacity(shape.len());
                lay_out(&shape, program, &mut slots);
                slots.into()
            }
        };
        Some(Template { slots })
    }

    /// The nodes, in pre-order.
    fn slots(&self) -> &[Slot] {
        match &self.slots {
            Slots::Leaf(slot) => std::slice::from_ref(slot),
            Slots::Nodes(slots) => slots,
        }
    }

    /// The number of frontier leaves.
    fn front(&self) -> u32 {
        self.slots()[0].front
    }

    /// The children of the region at `i`, left to right.
    fn kids(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        let first = self.slots()[i as usize].first;
        std::iter::successors((first != NIL).then_some(first), |&c| {
            let next = self.slots()[c as usize].next;
            (next != NIL).then_some(next)
        })
    }

    /// The template built into a persistent tree read at offset `off`.
    pub fn tree(&self, off: u32) -> PTree {
        PTree {
            off,
            ..self.tree_from(0)
        }
    }

    fn tree_from(&self, i: u32) -> PTree {
        let slot = &self.slots()[i as usize];
        match &slot.action {
            Some(action) => PTree {
                node: Node::Lit(action.clone()),
                off: 0,
            },
            None => region(slot.seq, self.kids(i).map(|k| self.tree_from(k)).collect()),
        }
    }

    /// The template with `f` applied to every term read at offset `off`.
    fn map_terms(&self, off: u32, f: &mut impl FnMut(Term) -> Term) -> Template {
        let slots = self.slots().iter().map(|s| Slot {
            action: (s.action.as_ref()).map(|a| Arc::new(a.map_terms(off, f))),
            ..*s
        });
        Template {
            slots: slots.collect::<Vec<_>>().into(),
        }
    }
}

/// The slot of the action leaf `goal`, followed by `next`.
fn leaf(goal: &Goal, program: &Program, next: u32) -> Slot {
    Slot {
        action: Some(Arc::new(Action::new(goal, program))),
        seq: false,
        first: NIL,
        kids: 0,
        next,
        front: 1,
    }
}

/// Append `shape`'s nodes to `slots` in pre-order; the index of its root.
fn lay_out(shape: &Shape, program: &Program, slots: &mut Vec<Slot>) -> u32 {
    let at = slots.len() as u32;
    let (seq, kids) = match shape {
        Shape::Leaf(goal) => {
            slots.push(leaf(goal, program, NIL));
            return at;
        }
        Shape::Region(seq, kids) => (*seq, kids),
    };
    slots.push(Slot {
        action: None,
        seq,
        first: at + 1,
        kids: kids.len() as u32,
        next: NIL,
        front: 0,
    });
    let mut before = NIL;
    for kid in kids {
        let k = lay_out(kid, program, slots);
        let front = slots[k as usize].front;
        if before == NIL || !seq {
            slots[at as usize].front += front;
        }
        if before != NIL {
            slots[before as usize].next = k;
        }
        before = k;
    }
    at
}

/// What a pre-order walk of a process tree meets: a leaf's action and the
/// offset its variables read at, or a region's kind (`true`: `Seq`) and
/// its number of children, before the children.
pub(crate) enum Item<'a> {
    Leaf(&'a Action, u32),
    Region(bool, usize),
}

/// A process tree as the fingerprint reads it: a [`PTree`] and an
/// [`Arena`] feed it the same items in the same order.
pub(crate) trait Preorder {
    fn walk<'a>(&'a self, f: &mut impl FnMut(Item<'a>));

    /// The tree as a goal, every variable read through its offset.
    #[cfg(test)]
    fn goal(&self) -> Goal;
}

/// A persistent process tree, for the drivers that keep a tree per
/// configuration: a handle whose clone is one refcount. Its variables read
/// with `off` added.
#[derive(Clone)]
pub struct PTree {
    node: Node,
    /// Added to every variable under this handle, on top of the offsets
    /// of the handles above it.
    off: u32,
}

#[derive(Clone)]
enum Node {
    /// An action leaf (never `True`/`Seq`/`Par`).
    Lit(Arc<Action>),
    /// Serial region: children run left to right.
    Seq(Arc<[PTree]>),
    /// Concurrent region: children interleave. A child's offset is
    /// relative to the region's.
    Par(Arc<[PTree]>),
}

impl PTree {
    /// This tree read with `by` more added to every variable: a refcount.
    pub fn at(&self, by: u32) -> PTree {
        PTree {
            node: self.node.clone(),
            off: self.off + by,
        }
    }

    /// The children of this node, and whether it is a `Seq`; `None` for a
    /// leaf.
    fn region(&self) -> Option<(&[PTree], bool)> {
        match &self.node {
            Node::Lit(_) => None,
            Node::Seq(kids) => Some((kids, true)),
            Node::Par(kids) => Some((kids, false)),
        }
    }
}

impl Preorder for PTree {
    fn walk<'a>(&'a self, f: &mut impl FnMut(Item<'a>)) {
        walk_at(self, 0, f)
    }

    #[cfg(test)]
    fn goal(&self) -> Goal {
        to_goal(self)
    }
}

fn walk_at<'a>(tree: &'a PTree, base: u32, f: &mut impl FnMut(Item<'a>)) {
    let off = base + tree.off;
    match &tree.node {
        Node::Lit(action) => f(Item::Leaf(action, off)),
        Node::Seq(kids) | Node::Par(kids) => {
            f(Item::Region(matches!(tree.node, Node::Seq(_)), kids.len()));
            kids.iter().for_each(|k| walk_at(k, off, f));
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

/// The persistent tree of `goal` ([`Template::new`], built): `None` means
/// the goal is already complete.
pub fn make_node(goal: &Goal, program: &Program) -> Option<PTree> {
    Template::new(goal, program).map(|t| t.tree(0))
}

/// The `Seq` (or `Par`) node over `kids`, at least two.
fn region(seq: bool, kids: Arc<[PTree]>) -> PTree {
    let node = if seq {
        Node::Seq(kids)
    } else {
        Node::Par(kids)
    };
    PTree { node, off: 0 }
}

/// What `tree` contributes to the children of a region of `seq`'s kind:
/// nothing, its own children when it is such a region (spliced), or itself
/// — with the offset they are read at.
fn spliced(tree: &Option<PTree>, seq: bool) -> (&[PTree], u32) {
    match tree {
        None => (&[], 0),
        Some(t) => match t.region() {
            Some((kids, s)) if s == seq => (kids, t.off),
            _ => (std::slice::from_ref(t), 0),
        },
    }
}

/// The region of `seq`'s kind over the concatenation of `parts`, each read
/// at its offset: nothing, the one child, or a node.
fn concat(seq: bool, parts: [(&[PTree], u32); 3]) -> Option<PTree> {
    let mut kids = parts
        .iter()
        .flat_map(|(p, off)| p.iter().map(|t| t.at(*off)));
    match parts.iter().map(|(p, _)| p.len()).sum() {
        0 => None,
        1 => kids.next(),
        _ => Some(region(seq, kids.collect())),
    }
}

/// The number of frontier leaves: the runnable actions. In a `Seq` only
/// its first child is runnable; in a `Par` all children are.
pub fn frontier_len(tree: &PTree) -> usize {
    match &tree.node {
        Node::Lit(_) => 1,
        Node::Seq(kids) => frontier_len(&kids[0]),
        Node::Par(kids) => kids.iter().map(frontier_len).sum(),
    }
}

/// The child of a `Seq` (`seq`) or `Par` node holding the node's `leaf`-th
/// frontier leaf, and that leaf's index among the child's.
fn locate(kids: &[PTree], seq: bool, mut leaf: usize) -> (usize, usize) {
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
pub fn leaf_at(tree: &PTree, leaf: usize) -> (&Action, u32) {
    let (mut tree, mut leaf, mut off) = (tree, leaf, tree.off);
    loop {
        let Some((kids, seq)) = tree.region() else {
            let Node::Lit(action) = &tree.node else {
                unreachable!("a leaf")
            };
            return (action, off);
        };
        let (i, rest) = locate(kids, seq, leaf);
        (tree, leaf) = (&kids[i], rest);
        off += tree.off;
    }
}

/// Replace the `leaf`-th frontier leaf with `replacement` (`None` = the
/// action completed), copying the path to it and keeping the invariants: a
/// region left with one child gives way to it, and a region put into one
/// of its own kind is spliced. Returns the new tree (`None` = the whole
/// execution completed); `tree` is left as it was.
pub fn rewrite(tree: &PTree, leaf: usize, replacement: Option<PTree>) -> Option<PTree> {
    rewrite_at(tree, 0, leaf, replacement)
}

/// [`rewrite`] of a subtree whose parents add `base` to its offset.
fn rewrite_at(tree: &PTree, base: u32, leaf: usize, replacement: Option<PTree>) -> Option<PTree> {
    let off = base + tree.off;
    let Some((kids, seq)) = tree.region() else {
        return replacement;
    };
    let (i, leaf) = locate(kids, seq, leaf);
    let child = rewrite_at(&kids[i], off, leaf, replacement);
    concat(
        seq,
        [
            (&kids[..i], off),
            spliced(&child, seq),
            (&kids[i + 1..], off),
        ],
    )
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
    match tree.region() {
        None => {
            let Node::Lit(action) = &tree.node else {
                unreachable!("a leaf")
            };
            PTree {
                node: Node::Lit(Arc::new(action.map_terms(off, f))),
                off: 0,
            }
        }
        Some((kids, seq)) => region(seq, kids.iter().map(|k| map_terms_at(k, off, f)).collect()),
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
        make_node(g, &Program::builder().build_unchecked())
    }

    /// The goal of the `i`-th frontier leaf, read through its offset.
    fn leaf_goal(t: &PTree, i: usize) -> Goal {
        let (action, off) = leaf_at(t, i);
        action.goal_at(off)
    }

    fn is_leaf(t: &PTree, g: &Goal) -> bool {
        t.region().is_none() && to_goal(t) == *g
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
        let Some((cs, true)) = t.region() else {
            panic!()
        };
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
        // The arena unlinks the head where it lies: no node is written
        // anywhere else, and none is copied.
        let program = Program::builder().build_unchecked();
        let g = Goal::seq(vec![a("x"), a("y"), a("z")]);
        let template = Template::new(&g, &program).unwrap();
        let mut arena = Arena::new(Some((&template, 0)));
        let before = arena.here();
        arena.edit(0, None);
        assert_eq!(arena.here(), before, "no node made, nothing saved");
        assert_eq!(arena.to_goal(), Goal::seq(vec![a("y"), a("z")]));
        // The persistent rewrite copies the path, and shares the rest's
        // leaves with the tree it leaves as it was.
        let t = template.tree(0);
        let t2 = rewrite(&t, 0, None).unwrap();
        let (Some((before, _)), Some((after, _))) = (t.region(), t2.region()) else {
            panic!()
        };
        let (Node::Lit(z0), Node::Lit(z1)) = (&before[2].node, &after[1].node) else {
            panic!()
        };
        assert!(Arc::ptr_eq(z0, z1), "the rest is shared");
        assert_eq!(to_goal(&t2), Goal::seq(vec![a("y"), a("z")]));
        assert_eq!(to_goal(&t), Goal::seq(vec![a("x"), a("y"), a("z")]));
    }

    #[test]
    fn a_deep_tree_edits_past_the_inline_path() {
        // `Seq`s and `Par`s nested 40 deep: the path to the first leaf is
        // longer than the part of it held inline.
        let mut g = a("x");
        for i in 0..40 {
            let other = Goal::atom("p", vec![Term::var(i)]);
            g = if i % 2 == 0 {
                Goal::seq(vec![g, other])
            } else {
                Goal::par(vec![g, other])
            };
        }
        let program = Program::builder().build_unchecked();
        let template = Template::new(&g, &program).unwrap();
        let with = Template::new(&Goal::par(vec![a("y"), a("z")]), &program).unwrap();
        let mut arena = Arena::new(Some((&template, 0)));
        let mut tree = Some(template.tree(0));
        for (leaf, rep) in [(0, None), (0, Some(&with)), (1, None), (3, None)] {
            arena.edit(leaf, rep.map(|t| (t, 0)));
            tree = rewrite(tree.as_ref().unwrap(), leaf, rep.map(|t| t.tree(0)));
            assert_eq!(arena.to_goal(), to_goal(tree.as_ref().unwrap()));
        }
    }

    #[test]
    fn rewrite_replacement_splices_into_seq() {
        // x completes and is replaced by (p * q): Seq[x, y] -> Seq[p, q, y]
        let t = node(&Goal::seq(vec![a("x"), a("y")])).unwrap();
        let rep = node(&Goal::seq(vec![a("p"), a("q")]));
        let t2 = rewrite(&t, 0, rep).unwrap();
        let Some((cs, true)) = t2.region() else {
            panic!()
        };
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
        let Some((cs, false)) = t2.region() else {
            panic!()
        };
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
        let Some((orig, false)) = snap.region() else {
            panic!()
        };
        let (Node::Seq(kept), Node::Seq(now)) = (&orig[1].node, &t2.node) else {
            panic!()
        };
        assert!(Arc::ptr_eq(kept, now));
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
        assert!(matches!(leaf_at(&t, 0).0.goal(), Goal::Choice(_)) && t.region().is_none());
        let g = Goal::iso(Goal::seq(vec![a("x"), a("y")]));
        let t = node(&g).unwrap();
        assert!(matches!(leaf_at(&t, 0).0.goal(), Goal::Iso(_)) && t.region().is_none());
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
