//! The sequential machine's process tree: one `Vec` of plain nodes that the
//! solver owns, linked by index, edited in place and taken back from a
//! trail. docs/ARCHITECTURE.md ("What a step allocates") has the design.

use super::{Action, At, Item, Preorder, Template, NIL};
use td_core::Goal;

/// The node above the root: its one child is the root, none when the tree
/// is complete. It is never spliced into and never gives way.
const TOP: usize = 0;

/// The nodes a new arena makes room for beyond its first tree's.
const ROOM: usize = 32;

/// The arena length below which a tree edited with no mark in force is not
/// compacted.
const GC_MIN: usize = 4096;

/// A node: an action leaf, or a region whose children are linked from
/// `first` through `next`.
#[derive(Clone, Copy)]
struct Node<'t> {
    /// The action of a leaf; `None` for a region.
    action: Option<&'t Action>,
    /// A leaf's variable offset; a region's number of children.
    off: u32,
    /// A region's kind: `Seq` (true) or `Par`.
    seq: bool,
    first: u32,
    /// The next child of this node's region, `NIL` for the last.
    next: u32,
    /// The number of frontier leaves under this node.
    front: u32,
}

/// A word of a node an edit writes, as the trail names it.
#[derive(Clone, Copy)]
enum Field {
    First,
    Next,
    Front,
    /// A region's number of children.
    Kids,
}

impl Node<'_> {
    fn field(&mut self, field: Field) -> &mut u32 {
        match field {
            Field::First => &mut self.first,
            Field::Next => &mut self.next,
            Field::Front => &mut self.front,
            Field::Kids => &mut self.off,
        }
    }
}

/// A process tree in one flat arena. Copying a template into it writes a
/// few words per node; an edit relinks nodes and adjusts the counts on the
/// path to its leaf. While a `Mark` is in force, each word of a node
/// older than the mark is saved to the trail before an edit writes over it,
/// and `Arena::rewind` restores the saved words and drops the newer
/// nodes.
pub struct Arena<'t> {
    nodes: Vec<Node<'t>>,
    /// The words edits wrote over while a mark was in force, oldest first:
    /// a node's index and field (two low bits), and the word it held.
    trail: Vec<(u32, u32)>,
    /// Nodes below this index are saved before they are written: the
    /// arena's length at the mark in force, 0 with none.
    guard: u32,
    /// The path of the last descent, from `TOP` to a leaf.
    path: Path,
    /// The frontier index `path` leads to, until the tree changes.
    found: Option<usize>,
    /// With no mark in force, an edit that leaves the arena this long
    /// copies the live tree out of it.
    gc_at: usize,
    /// The buffer the next compaction copies into.
    spare: Vec<Node<'t>>,
}

/// The path of a descent, from `TOP` to a leaf: each node and the child
/// before it in its region (`NIL`: it is the first). Held inline to a depth
/// of `NEAR`, so that the descents of a shallow tree allocate nothing.
#[derive(Default)]
struct Path {
    near: [(u32, u32); NEAR],
    len: usize,
    far: Vec<(u32, u32)>,
}

const NEAR: usize = 16;

impl Path {
    fn clear(&mut self) {
        self.len = 0;
        self.far.clear();
    }

    fn push(&mut self, step: (u32, u32)) {
        match self.near.get_mut(self.len) {
            Some(near) => *near = step,
            None => self.far.push(step),
        }
        self.len += 1;
    }

    fn get(&self, i: usize) -> (u32, u32) {
        self.near
            .get(i)
            .copied()
            .unwrap_or_else(|| self.far[i - NEAR])
    }
}

/// A position in an arena's history: its length and its trail's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Mark {
    nodes: u32,
    trail: u32,
}

impl<'t> Arena<'t> {
    /// An arena holding `tree`'s template copied at its offset (`None`: the
    /// complete tree).
    pub fn new(tree: Option<At<'t>>) -> Self {
        let mut arena = Arena {
            nodes: Vec::new(),
            trail: Vec::new(),
            guard: 0,
            path: Path::default(),
            found: None,
            gc_at: GC_MIN,
            spare: Vec::new(),
        };
        arena.plant(tree);
        arena
    }

    /// Replace the whole tree with `tree`'s template copied at its offset
    /// (`None`: the complete tree), forgetting every mark.
    pub fn plant(&mut self, tree: Option<At<'t>>) {
        self.nodes.clear();
        self.trail.clear();
        self.guard = 0;
        self.found = None;
        // Room for the calls the tree makes, in one allocation.
        let size = tree.map_or(0, |(template, _)| template.slots().len() + ROOM);
        self.nodes.reserve(1 + size);
        self.nodes.push(Node {
            action: None,
            off: 0,
            seq: true,
            first: NIL,
            next: NIL,
            front: 0,
        });
        if let Some((template, off)) = tree {
            self.nodes[TOP].first = self.copy(template, off, false);
            self.nodes[TOP].front = template.front();
        }
    }

    /// Is the tree complete (no leaf left)?
    pub fn is_empty(&self) -> bool {
        self.nodes[TOP].first == NIL
    }

    /// The number of frontier leaves.
    pub fn frontier_len(&self) -> usize {
        self.nodes[TOP].front as usize
    }

    /// The action of the `leaf`-th frontier leaf, and the offset its
    /// variables read at. The path is kept for an edit of the same leaf.
    pub fn leaf_at(&mut self, leaf: usize) -> (&'t Action, u32) {
        self.path.clear();
        let (mut n, mut before, mut rest) = (TOP as u32, NIL, leaf);
        loop {
            self.path.push((n, before));
            let node = self.nodes[n as usize];
            if let Some(action) = node.action {
                self.found = Some(leaf);
                return (action, node.off);
            }
            (n, before) = (node.first, NIL);
            if !node.seq {
                loop {
                    let front = self.nodes[n as usize].front as usize;
                    if rest < front {
                        break;
                    }
                    rest -= front;
                    (n, before) = (self.nodes[n as usize].next, n);
                }
            }
        }
    }

    /// Replace the `leaf`-th frontier leaf with a copy of `with`'s template
    /// at its offset (`None` = the action completed), keeping the
    /// invariants: a region left with one child gives way to it, and a
    /// region put into one of its own kind is spliced. Descends only when
    /// the last descent was not to this leaf.
    pub(crate) fn edit(&mut self, leaf: usize, with: Option<At<'t>>) {
        if self.found != Some(leaf) {
            self.leaf_at(leaf);
        }
        self.found = None;
        let d = self.path.len - 1;
        let ((l, before), p) = (self.path.get(d), self.path.get(d - 1).0);
        let after = self.nodes[l as usize].next;
        let parent = self.nodes[p as usize];
        // The deepest node on the path whose frontier count changes, and
        // by how much: every node above it changes by as much.
        let (up, delta) = match with {
            None if p == TOP as u32 => {
                self.link(p, before, NIL);
                (d - 1, -1)
            }
            None => {
                let two = match (before, after) {
                    (NIL, next) => self.nodes[next as usize].next == NIL,
                    (first, NIL) => parent.first == first,
                    _ => false,
                };
                if !two {
                    self.link(p, before, after);
                    self.set(p, Field::Kids, parent.off - 1);
                    let front = if parent.seq { self.front(after) } else { 0 };
                    (d - 1, front - 1)
                } else {
                    // The region gives way to its other child.
                    let other = if before == NIL { after } else { before };
                    let (g, p_before) = (self.path.get(d - 2).0, self.path.get(d - 1).1);
                    let kid = self.nodes[other as usize];
                    if g != TOP as u32 && kid.action.is_none() {
                        // A region under one of the other kind, so of its
                        // grandparent's kind: spliced.
                        let last = self.last(kid.first);
                        self.link(g, p_before, kid.first);
                        self.set(last, Field::Next, parent.next);
                        let kids = self.nodes[g as usize].off + kid.off - 1;
                        self.set(g, Field::Kids, kids);
                    } else {
                        self.link(g, p_before, other);
                        self.set(other, Field::Next, parent.next);
                    }
                    (d - 2, i64::from(kid.front) - i64::from(parent.front))
                }
            }
            Some((template, off)) => {
                let root = &template.slots()[0];
                let splice = p != TOP as u32 && root.action.is_none() && root.seq == parent.seq;
                let first = self.copy(template, off, splice);
                let last = if splice { self.last(first) } else { first };
                self.link(p, before, first);
                self.set(last, Field::Next, after);
                if splice {
                    self.set(p, Field::Kids, parent.off + root.kids - 1);
                }
                (d - 1, i64::from(template.front()) - 1)
            }
        };
        if delta != 0 {
            for i in 0..=up {
                let n = self.path.get(i).0;
                let front = i64::from(self.nodes[n as usize].front) + delta;
                self.set(n, Field::Front, front as u32);
            }
        }
        if self.guard == 0 && self.nodes.len() >= self.gc_at {
            self.compact();
        }
    }

    /// The number of frontier leaves under `n`.
    fn front(&self, n: u32) -> i64 {
        i64::from(self.nodes[n as usize].front)
    }

    /// The last of the children linked from `first`.
    fn last(&self, mut first: u32) -> u32 {
        while self.nodes[first as usize].next != NIL {
            first = self.nodes[first as usize].next;
        }
        first
    }

    /// Make `child` follow `before` among `parent`'s children, or be its
    /// first when `before` is `NIL`.
    fn link(&mut self, parent: u32, before: u32, child: u32) {
        if before == NIL {
            self.set(parent, Field::First, child);
        } else {
            self.set(before, Field::Next, child);
        }
    }

    /// Write `value` into `field` of node `n`, saving the word it held to
    /// the trail when the mark in force needs it back.
    fn set(&mut self, n: u32, field: Field, value: u32) {
        let word = self.nodes[n as usize].field(field);
        if n < self.guard {
            self.trail.push((n << 2 | field as u32, *word));
        }
        *word = value;
    }

    /// Copy `template`'s nodes, or only its root's children (`children`),
    /// to the end of the arena, their leaves reading at `off`; the index of
    /// the first node copied.
    fn copy(&mut self, template: &'t Template, off: u32, children: bool) -> u32 {
        let skip = usize::from(children);
        debug_assert!(
            self.nodes.len() + template.slots().len() < 1 << 30,
            "the trail's index"
        );
        let base = (self.nodes.len() - skip) as u32;
        let at = |i: u32| if i == NIL { NIL } else { i + base };
        self.nodes
            .extend(template.slots()[skip..].iter().map(|s| Node {
                action: s.action.as_deref(),
                off: if s.action.is_some() { off } else { s.kids },
                seq: s.seq,
                first: at(s.first),
                next: at(s.next),
                front: s.front,
            }));
        base + skip as u32
    }

    /// Where the tree stands now, to [`Arena::rewind`] to.
    pub(crate) fn here(&self) -> Mark {
        Mark {
            nodes: self.nodes.len() as u32,
            trail: self.trail.len() as u32,
        }
    }

    /// Put `mark` in force (`None`: no mark): from now on, an edit saves
    /// the nodes older than it before writing over them.
    pub(crate) fn guard(&mut self, mark: Option<Mark>) {
        self.guard = mark.map_or(0, |m| m.nodes);
    }

    /// Take the tree back to what it was at `mark`, which has been in force
    /// since: the saved nodes are restored newest first, and the nodes made
    /// since are dropped.
    pub(crate) fn rewind(&mut self, mark: Mark) {
        const FIELDS: [Field; 4] = [Field::First, Field::Next, Field::Front, Field::Kids];
        for (at, word) in self.trail.drain(mark.trail as usize..).rev() {
            let field = FIELDS[(at & 3) as usize];
            *self.nodes[(at >> 2) as usize].field(field) = word;
        }
        self.nodes.truncate(mark.nodes as usize);
        self.found = None;
    }

    /// Copy the live tree out of the arena and drop the rest. Only with no
    /// mark in force: no choicepoint holds an index into the arena.
    fn compact(&mut self) {
        debug_assert!(self.guard == 0 && self.trail.is_empty());
        let mut live = std::mem::take(&mut self.spare);
        live.clear();
        live.push(self.nodes[TOP]);
        let root = self.nodes[TOP].first;
        if root != NIL {
            live[TOP].first = self.keep(root, &mut live);
        }
        self.spare = std::mem::replace(&mut self.nodes, live);
        self.gc_at = GC_MIN.max(2 * self.nodes.len());
    }

    /// Copy the subtree at `n` to the end of `live`, in pre-order; the
    /// index of its root there.
    fn keep(&self, n: u32, live: &mut Vec<Node<'t>>) -> u32 {
        let at = live.len() as u32;
        live.push(Node {
            next: NIL,
            ..self.nodes[n as usize]
        });
        let mut before = NIL;
        for kid in self.kids(n) {
            let k = self.keep(kid, live);
            if before == NIL {
                live[at as usize].first = k;
            } else {
                live[before as usize].next = k;
            }
            before = k;
        }
        at
    }

    /// The children of `n`, left to right (none for a leaf).
    fn kids(&self, n: u32) -> impl Iterator<Item = u32> + '_ {
        let node = &self.nodes[n as usize];
        let first = if node.action.is_some() {
            NIL
        } else {
            node.first
        };
        std::iter::successors((first != NIL).then_some(first), |&c| {
            let next = self.nodes[c as usize].next;
            (next != NIL).then_some(next)
        })
    }

    fn walk_from<'a>(&'a self, n: u32, f: &mut impl FnMut(Item<'a>)) {
        let node = &self.nodes[n as usize];
        if let Some(action) = node.action {
            return f(Item::Leaf(action, node.off));
        }
        f(Item::Region(node.seq, node.off as usize));
        for kid in self.kids(n) {
            self.walk_from(kid, f);
        }
    }

    /// The tree as a goal, every variable read through its leaf's offset
    /// (`True` when complete).
    pub fn to_goal(&self) -> Goal {
        let root = self.nodes[TOP].first;
        if root == NIL {
            Goal::True
        } else {
            self.goal_from(root)
        }
    }

    fn goal_from(&self, n: u32) -> Goal {
        let node = &self.nodes[n as usize];
        if let Some(action) = node.action {
            return action.goal_at(node.off);
        }
        let kids = self.kids(n).map(|k| self.goal_from(k)).collect();
        if node.seq {
            Goal::seq(kids)
        } else {
            Goal::par(kids)
        }
    }

    /// [`super::fingerprint`] of the tree, which must not be complete.
    pub fn fingerprint(&self, db: &td_db::Database) -> u128 {
        crate::kernel::fingerprint(self, |t| t, db, &mut Vec::new())
    }

    /// A 128-bit hash of every live node — its kind, number of children
    /// linked and as counted, action, offset and frontier count, in
    /// pre-order — to check a rewind against. Allocates nothing.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn digest(&self) -> u128 {
        fn mix(h: u64, w: u64, k: u64) -> u64 {
            let p = u128::from(h ^ w) * u128::from(k);
            (p as u64) ^ ((p >> 64) as u64)
        }
        let (mut a, mut b) = (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);
        let mut feed = |n: u32, this: &Arena<'t>| {
            let node = &this.nodes[n as usize];
            let action = node.action.map_or(0, |a| a as *const Action as u64);
            let kids = this.kids(n).count() as u64;
            for w in [
                u64::from(node.seq) | kids << 1,
                action,
                u64::from(node.off) | u64::from(node.front) << 32,
            ] {
                a = mix(a, w, 0x9e37_79b9_7f4a_7c15);
                b = mix(b, w, 0xc2b2_ae3d_27d4_eb4f);
            }
        };
        self.each(TOP as u32, &mut feed);
        u128::from(b) << 64 | u128::from(a)
    }

    /// Call `f` on `n` and every node under it, in pre-order.
    #[cfg(any(test, debug_assertions))]
    fn each(&self, n: u32, f: &mut impl FnMut(u32, &Arena<'t>)) {
        f(n, self);
        for kid in self.kids(n) {
            self.each(kid, f);
        }
    }
}

impl Preorder for Arena<'_> {
    fn walk<'a>(&'a self, f: &mut impl FnMut(Item<'a>)) {
        let root = self.nodes[TOP].first;
        if root != NIL {
            self.walk_from(root, f);
        }
    }

    #[cfg(test)]
    fn goal(&self) -> Goal {
        self.to_goal()
    }
}

#[cfg(test)]
mod edit_properties {
    use super::*;
    use crate::tree::{fingerprint, frontier_len, leaf_at, make_node, rewrite, to_goal, PTree};
    use proptest::prelude::*;
    use td_core::{Program, Term};
    use td_db::Database;

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
                // the template's to normalize.
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

    /// Every region's frontier count and number of children, recomputed
    /// from its children.
    fn fronts_hold(arena: &Arena, n: u32) -> bool {
        let node = &arena.nodes[n as usize];
        let kids: Vec<u32> = arena.kids(n).collect();
        let front = match (node.action, node.seq) {
            (Some(_), _) => 1,
            (None, true) => kids.first().map_or(0, |&k| arena.nodes[k as usize].front),
            (None, false) => kids.iter().map(|&k| arena.nodes[k as usize].front).sum(),
        };
        let counted = node.action.is_some() || n == TOP as u32 || node.off as usize == kids.len();
        node.front == front && counted && kids.iter().all(|&k| fronts_hold(arena, k))
    }

    /// The arena holds `tree`: the same goal, frontier counts that add up,
    /// the same leaf at every frontier index, the same fingerprint.
    fn holds(arena: &mut Arena, tree: &Option<PTree>, db: &Database) {
        prop_assert!(fronts_hold(arena, TOP as u32));
        let Some(tree) = tree else {
            prop_assert!(arena.is_empty());
            return;
        };
        prop_assert_eq!(arena.to_goal(), to_goal(tree));
        prop_assert_eq!(arena.frontier_len(), frontier_len(tree));
        for i in 0..frontier_len(tree) {
            let ((a, a_off), (b, b_off)) = (arena.leaf_at(i), leaf_at(tree, i));
            prop_assert_eq!(a.goal_at(a_off), b.goal_at(b_off));
        }
        prop_assert_eq!(arena.fingerprint(db), fingerprint(tree, db));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A run of edits in the arena, each against persistent `rewrite`
        /// and a model built from the goal, some behind a mark as a
        /// choicepoint puts one, some compacting the arena when no mark is
        /// in force; then the marks are rewound newest first, and each
        /// gives back the tree it was taken at.
        #[test]
        fn an_edit_is_a_rewrite_and_its_undo_gives_the_tree_back(
            g in arb_goal(),
            off in 0u32..5,
            bodies in proptest::collection::vec(arb_body(), 3),
            edits in proptest::collection::vec((0usize..64, 0usize..4, any::<bool>()), 1..12),
            compact in any::<bool>(),
        ) {
            let program = Program::builder().build_unchecked();
            let db = Database::new();
            let templates: Vec<_> = bodies.iter().map(|b| Template::new(b, &program)).collect();
            let start = Template::new(&g, &program);
            let mut arena = Arena::new(start.as_ref().map(|t| (t, off)));
            let mut persistent = start.as_ref().map(|t| t.tree(off));
            holds(&mut arena, &persistent, &db);
            let mut marks = Vec::new();
            for (step, &(leaf, body, mark)) in edits.iter().enumerate() {
                let Some(tree) = persistent.clone() else { break };
                let leaf = leaf % frontier_len(&tree);
                let base = 10 * (step as u32 + 1);
                let with = templates.get(body).and_then(|t| t.as_ref()).map(|t| (t, base));
                let with_goal = with.map_or(Goal::True, |(t, k)| to_goal(&t.tree(k)));
                let model = make_node(&replaced(&to_goal(&tree), &mut { leaf }, &with_goal), &program);
                if mark {
                    let here = arena.here();
                    arena.guard(Some(here));
                    marks.push((here, arena.digest(), Some(tree.clone())));
                }
                if compact {
                    arena.gc_at = 0;
                }
                // Half the edits reuse a descent, as a machine step does.
                if step % 2 == 0 {
                    arena.leaf_at(leaf);
                }
                arena.edit(leaf, with);
                persistent = rewrite(&tree, leaf, with.map(|(t, k)| t.tree(k)));
                prop_assert_eq!(&persistent, &model);
                holds(&mut arena, &model, &db);
            }
            while let Some((mark, digest, tree)) = marks.pop() {
                arena.rewind(mark);
                prop_assert_eq!(arena.digest(), digest);
                holds(&mut arena, &tree, &db);
                arena.guard(marks.last().map(|m| m.0));
            }
        }
    }
}
