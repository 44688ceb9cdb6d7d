//! The one persistent structure of this crate: an ordered map (a B+-tree)
//! with structural sharing between versions. docs/ARCHITECTURE.md ("Below
//! the engine: td-db's one persistent B+-tree") says why it has this shape.
//!
//! The TD engine backtracks over database states constantly: every
//! choicepoint snapshots the database, and isolation blocks roll whole
//! sub-executions back. So a version must be a pointer copy and an update
//! must leave every older version valid. [`OrdMap::alter`] makes a version
//! by copying the two or three nodes on the path to one key and sharing the
//! rest; [`OrdMap::from_sorted`] builds one from a sorted run in O(n).
//!
//! A version nobody else holds need not be copied at all:
//! [`OrdMap::alter_mut`] edits it in place, node by node, so a node that
//! another version can still see is copied — the older version keeps it as
//! it was — and a node only this version holds is written over. That is how
//! the Datalog circuit folds a round of derived facts into the state it
//! owns, one descent per fact.
//!
//! Each node is one allocation holding up to `N` slots ([`B`]; the unit
//! tests name smaller numbers): a leaf's entries, or an inner node's
//! children with the keys that separate them. A map of at most `N` entries
//! is no tree but one run of them, in one allocation of exactly their
//! number, so that a small map's copy is as small as the map. Beside its
//! keys a node keeps their codes ([`Key::code`]) in a bare `[u64; N]`, and
//! a run beside each entry, so a descent searches an array of words and
//! compares keys only where two codes tie, and a range probe
//! ([`OrdMap::for_each_in_range`]) steps along a leaf's slots instead of
//! chasing a pointer per entry. Keys are kept in
//! order because the engine's hot path is selection with a bound prefix of
//! columns: tuples sort lexicographically, so all tuples sharing a prefix
//! are contiguous. Every walk is plain recursion and allocates nothing.
//!
//! A tree's shape depends on the order of its edits; its content, its
//! iteration order and everything read through [`OrdMap`]'s API do not.

use crate::tuple::Tuple;
use std::cmp::Ordering;
use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;
use td_core::Pred;

/// The most slots a node holds: entries in a leaf, children in an inner
/// node; and the most entries a run holds. Every map of the workspace uses
/// it (CHANGES.md has the figures it was chosen by); the unit tests name
/// smaller numbers, to reach splits and merges with few keys.
pub const B: usize = 16;

/// A key of an [`OrdMap`]: totally ordered, with a word that orders as the
/// key does — `a < b` implies `a.code() <= b.code()` — so that two keys
/// whose codes differ are ordered without being read.
pub trait Key: Clone + Ord {
    fn code(&self) -> u64;
}

/// A tuple's inline order-preserving code ([`Tuple::code`]).
impl Key for Tuple {
    #[inline]
    fn code(&self) -> u64 {
        Tuple::code(self)
    }
}

/// The head of the name ([`td_core::Symbol::head`]): predicates order by
/// name first, and names by their bytes.
impl Key for Pred {
    #[inline]
    fn code(&self) -> u64 {
        self.name.head()
    }
}

/// The unit tests' keys: a number is its own code.
#[cfg(test)]
impl Key for u64 {
    fn code(&self) -> u64 {
        *self
    }
}

/// Laid out in the order a descent reads it: the count and the codes, then
/// the children, and the keys last.
#[derive(Clone)]
#[repr(C)]
struct Node<K, V, const N: usize> {
    /// Slots in use.
    len: usize,
    /// `keys[i]`'s code for the slots in use, `u64::MAX` past them, so the
    /// array is sorted as a whole.
    codes: [u64; N],
    body: Body<K, V, N>,
    /// A leaf's keys. In an inner node, `keys[i]` for `i ≥ 1` separates
    /// child `i` from child `i - 1`: it is above every key of the one and
    /// at most every key of the other. Slot 0 has no key, and code 0.
    keys: [Option<K>; N],
}

#[derive(Clone)]
enum Body<K, V, const N: usize> {
    Leaf([Option<V>; N]),
    Inner([Option<Arc<Node<K, V, N>>>; N]),
}

/// What one slot holds, in transit between nodes.
enum Slot<K, V, const N: usize> {
    Val(V),
    Kid(Arc<Node<K, V, N>>),
}

/// What an edit below leaves a node's parent to do.
enum Up<K, V, const N: usize> {
    /// Nothing: the node holds between [`MIN`] and [`B`] slots.
    Fine,
    /// The node was full and split: its new right sibling and the key that
    /// separates the two, with its code.
    Split(u64, K, Arc<Node<K, V, N>>),
    /// The node holds fewer than [`MIN`] slots.
    Under,
}

/// An entry of a [`Root::Run`]: the key's code, the key and the value.
type Entry<K, V> = (u64, K, V);

/// The top of a map that holds something.
#[derive(Clone)]
enum Root<K, V, const N: usize> {
    /// At most `N` entries, in key order, in one allocation of exactly
    /// their number: a small map copies only what it holds.
    Run(Arc<[Entry<K, V>]>),
    /// More: a B+-tree.
    Tree(Arc<Node<K, V, N>>),
}

/// A persistent sorted map. `clone()` is O(1); [`OrdMap::alter`] returns a
/// new version sharing all untouched structure with the original.
#[derive(Clone)]
pub struct OrdMap<K, V, const N: usize = B> {
    root: Option<Root<K, V, N>>,
    len: usize,
}

/// Printed as the map it holds, in key order.
impl<K: Key + fmt::Debug, V: Clone + PartialEq + fmt::Debug, const N: usize> fmt::Debug
    for OrdMap<K, V, N>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        self.for_each(|k, v| {
            map.entry(k, v);
        });
        map.finish()
    }
}

impl<K, V, const N: usize> Default for OrdMap<K, V, N> {
    fn default() -> OrdMap<K, V, N> {
        OrdMap { root: None, len: 0 }
    }
}

impl<K: Key, V: Clone + PartialEq, const N: usize> OrdMap<K, V, N> {
    /// The empty map.
    pub fn new() -> OrdMap<K, V, N> {
        OrdMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let code = key.code();
        let mut n = match self.root.as_ref()? {
            Root::Run(run) => return run_find(run, key, code).ok().map(|i| &run[i].2),
            Root::Tree(root) => &**root,
        };
        loop {
            match &n.body {
                Body::Leaf(vals) => return n.find(key, code).ok().map(|i| some(&vals[i])),
                Body::Inner(kids) => n = child(&kids[n.route(key, code)]),
            }
        }
    }

    /// Set the entry for `key` to `f(current)`, where `None` stands for "no
    /// entry" on both sides: `|_| Some(v)` inserts or overwrites, `|_| None`
    /// removes, and a closure that looks at its argument updates in one
    /// descent. When `f` returns what is already there, the result shares
    /// the whole tree with `self` and nothing is allocated.
    pub fn alter(&self, key: &K, f: impl FnOnce(Option<&V>) -> Option<V>) -> OrdMap<K, V, N> {
        let mut f = Some(f);
        self.altered(key, &mut |old| f.take().expect("an edit decides once")(old))
    }

    /// [`OrdMap::alter`], compiled once per map type.
    fn altered(&self, key: &K, f: Edit<'_, V>) -> OrdMap<K, V, N> {
        let code = key.code();
        let root = match &self.root {
            Some(Root::Tree(root)) => root,
            Some(Root::Run(run)) => {
                let at = run_find(run, key, code);
                return match decide(at.ok().map(|i| &run[i].2), f) {
                    Some(value) => OrdMap::run_edited(run, at, code, key, value),
                    None => self.clone(),
                };
            }
            None => {
                let mut next = OrdMap::new();
                next.edit_in_place(key, f);
                return next;
            }
        };
        let (mut had, mut has) = (false, false);
        let edit = alter_node(root, key, code, &mut |old| {
            let new = f(old);
            (had, has) = (old.is_some(), new.is_some());
            new
        });
        let Some((root, up)) = edit else {
            return self.clone();
        };
        let mut next = OrdMap {
            root: Some(Root::Tree(root)),
            len: self.len + usize::from(has) - usize::from(had),
        };
        next.settle(up);
        next
    }

    /// [`OrdMap::alter`] on this version itself, in one descent: the nodes
    /// on the path to `key` that this version alone holds are edited where
    /// they are. From the first node another version shares, the edit is
    /// [`OrdMap::alter`]'s, which copies the rest of the path if the entry
    /// changes and nothing if it does not. A run is the one node of its
    /// map: one that is shared is copied, and one this version alone holds
    /// is overwritten in place or, to grow or shrink, becomes a leaf.
    pub fn alter_mut(&mut self, key: &K, f: impl FnOnce(Option<&V>) -> Option<V>) {
        let mut f = Some(f);
        self.edit_in_place(key, &mut |old| f.take().expect("an edit decides once")(old));
    }

    /// [`OrdMap::alter_mut`], compiled once per map type.
    fn edit_in_place(&mut self, key: &K, f: Edit<'_, V>) {
        let code = key.code();
        let root = match &mut self.root {
            Some(Root::Tree(root)) => root,
            Some(Root::Run(run)) => {
                let at = run_find(run, key, code);
                let Some(value) = decide(at.ok().map(|i| &run[i].2), f) else {
                    return;
                };
                let Some(entries) = Arc::get_mut(run) else {
                    *self = OrdMap::run_edited(run, at, code, key, value);
                    return;
                };
                // A leaf has room to be edited in place from now on.
                let value = match (at, value) {
                    (Ok(i), Some(value)) => return entries[i].2 = value,
                    (_, value) => value,
                };
                let mut leaf = Node::empty(true);
                for (i, (code, key, value)) in entries.iter().enumerate() {
                    leaf.put(i, *code, Some(key.clone()), Slot::Val(value.clone()));
                }
                self.len = self.len + usize::from(value.is_some()) - usize::from(at.is_ok());
                let up = leaf.edit_leaf(at, key, code, value);
                self.root = Some(Root::Tree(Arc::new(leaf)));
                self.settle(up);
                return;
            }
            None => {
                if let Some(value) = f(None) {
                    self.root = Some(Root::Run(Arc::new([(code, key.clone(), value)])));
                    self.len = 1;
                }
                return;
            }
        };
        let (mut had, mut has) = (false, false);
        let f = &mut |old: Option<&V>| {
            let new = f(old);
            (had, has) = (old.is_some(), new.is_some());
            new
        };
        if let Some(up) = alter_mut_node(root, key, code, f) {
            self.settle(up);
        }
        self.len = self.len + usize::from(has) - usize::from(had);
    }

    /// The map holding `run` with the entry at `at` (a [`run_find`] of
    /// `key`) set to `value`: a run again unless it grew past `N`.
    fn run_edited(
        run: &[Entry<K, V>],
        at: Result<usize, usize>,
        code: u64,
        key: &K,
        value: Option<V>,
    ) -> OrdMap<K, V, N> {
        let (i, cut) = match at {
            Ok(i) => (i, 1),
            Err(i) => (i, 0),
        };
        let add = usize::from(value.is_some());
        let len = run.len() - cut + add;
        let mut new = value.map(|value| (code, key.clone(), value));
        let entries = (0..len).map(|j| match j.cmp(&i) {
            Ordering::Less => run[j].clone(),
            Ordering::Equal if add == 1 => new.take().expect("one new entry"),
            _ => run[j + cut - add].clone(),
        });
        match len {
            0 => OrdMap::new(),
            _ if len <= N => OrdMap {
                root: Some(Root::Run(entries.collect())),
                len,
            },
            _ => OrdMap::of_entries(entries.collect()),
        }
    }

    /// The root, after an edit below it left `up` to do.
    fn settle(&mut self, up: Up<K, V, N>) {
        match up {
            Up::Fine => {}
            Up::Split(code, key, right) => {
                let Some(Root::Tree(left)) = self.root.take() else {
                    unreachable!("an edit split the root of a tree")
                };
                let mut top = Node::empty(false);
                top.put(0, 0, None, Slot::Kid(left));
                top.put(1, code, Some(key), Slot::Kid(right));
                self.root = Some(Root::Tree(Arc::new(top)));
            }
            // The root may hold fewer than `MIN`; only an empty leaf, or an
            // inner node left with one child, goes.
            Up::Under => match &self.root {
                Some(Root::Tree(root)) if root.len == 0 => self.root = None,
                Some(Root::Tree(root)) => {
                    if let (1, Body::Inner(kids)) = (root.len, &root.body) {
                        self.root = kids[0].clone().map(Root::Tree);
                    }
                }
                _ => {}
            },
        }
    }

    /// The map holding `run`, whose keys must be strictly increasing. O(n):
    /// up to `N` entries are one run; more are dealt into full leaves — as
    /// evenly as the count allows, so none holds fewer than `N / 4` — and
    /// the leaves into inner nodes the same way, level by level.
    pub fn from_sorted(run: impl IntoIterator<Item = (K, V)>) -> OrdMap<K, V, N> {
        let entries: Vec<Entry<K, V>> = run.into_iter().map(|(k, v)| (k.code(), k, v)).collect();
        debug_assert!(
            entries.windows(2).all(|w| w[0].1 < w[1].1),
            "run not sorted"
        );
        match entries.len() {
            0 => OrdMap::new(),
            len if len <= N => OrdMap {
                root: Some(Root::Run(entries.into())),
                len,
            },
            _ => OrdMap::of_entries(entries),
        }
    }

    /// [`OrdMap::from_sorted`] of more than `N` entries: a tree.
    fn of_entries(entries: Vec<Entry<K, V>>) -> OrdMap<K, V, N> {
        let len = entries.len();
        debug_assert!(len > N);
        let mut slots: Vec<(u64, K, Slot<K, V, N>)> = (entries.into_iter())
            .map(|(code, k, v)| (code, k, Slot::Val(v)))
            .collect();
        let mut leaf = true;
        while slots.len() > 1 {
            let (count, nodes) = (slots.len(), slots.len().div_ceil(N));
            let mut slots_in = slots.into_iter();
            slots = (0..nodes)
                .map(|i| {
                    let mut node = Node::empty(leaf);
                    let size = count / nodes + usize::from(i < count % nodes);
                    for (j, (code, key, slot)) in slots_in.by_ref().take(size).enumerate() {
                        node.put(j, code, Some(key), slot);
                    }
                    let (code, key) = node.separator();
                    (code, key, Slot::Kid(Arc::new(node)))
                })
                .collect();
            leaf = false;
        }
        let Some((_, _, Slot::Kid(root))) = slots.pop() else {
            unreachable!("the top level is one node")
        };
        OrdMap {
            root: Some(Root::Tree(root)),
            len,
        }
    }

    /// Visit, in key order, every entry in a range of keys: those whose
    /// codes lie strictly inside `codes`, and of those whose code is one of
    /// its ends, the ones `cmp` maps to [`Ordering::Equal`]. `cmp` must be
    /// monotone over the keys of each end's code — `Less` below the range,
    /// `Equal` inside it, `Greater` above it — and is asked only about keys
    /// at an end. So a range probe is one descent to the lower edge, which
    /// reads the code arrays alone unless codes tie with an end, and a walk
    /// along the slots from there to the upper one: O(log n + matches).
    pub fn for_each_in_range(
        &self,
        codes: RangeInclusive<u64>,
        cmp: impl Fn(&K) -> Ordering,
        mut f: impl FnMut(&K, &V),
    ) {
        let range = Range {
            lo: *codes.start(),
            hi: *codes.end(),
            cmp: &cmp,
        };
        match &self.root {
            Some(Root::Run(run)) => {
                let from = run
                    .iter()
                    .skip_while(|(code, key, _)| range.below(*code, key));
                for (code, key, v) in from {
                    if range.above(*code, key) {
                        break;
                    }
                    f(key, v);
                }
            }
            Some(Root::Tree(root)) => {
                range_visit(root, &range, &mut f, true);
            }
            None => {}
        }
    }

    /// Visit every entry in key order.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        match &self.root {
            Some(Root::Run(run)) => run.iter().for_each(|(_, k, v)| f(k, v)),
            Some(Root::Tree(root)) => in_order(root, &mut f),
            None => {}
        }
    }
}

/// Content equality. Versions that share their root are equal without a
/// walk; otherwise, sizes being equal, every entry of one is looked up in
/// the other (tree shape is not consulted).
impl<K: Key, V: Clone + PartialEq, const N: usize> PartialEq for OrdMap<K, V, N> {
    fn eq(&self, other: &OrdMap<K, V, N>) -> bool {
        if self.len != other.len {
            return false;
        }
        match (&self.root, &other.root) {
            (Some(Root::Run(a)), Some(Root::Run(b))) if Arc::ptr_eq(a, b) => true,
            (Some(Root::Tree(a)), Some(Root::Tree(b))) if Arc::ptr_eq(a, b) => true,
            _ => {
                let mut equal = true;
                self.for_each(|k, v| equal = equal && other.get(k) == Some(v));
                equal
            }
        }
    }
}

impl<K: Key, V: Clone + Eq, const N: usize> Eq for OrdMap<K, V, N> {}

/// Where `key` is in a run: `Ok(i)` at entry `i`, or `Err(i)` when the
/// entries before `i` are the smaller ones. As [`Node::find`]: keys are
/// compared only where their codes tie with `code`.
#[inline]
fn run_find<K: Ord, V>(run: &[Entry<K, V>], key: &K, code: u64) -> Result<usize, usize> {
    let mut i = 0;
    while i < run.len() && run[i].0 < code {
        i += 1;
    }
    while i < run.len() && run[i].0 == code {
        match run[i].1.cmp(key) {
            Ordering::Less => i += 1,
            Ordering::Equal => return Ok(i),
            Ordering::Greater => break,
        }
    }
    Err(i)
}

/// The content of a slot in use.
#[inline(always)]
fn some<T>(slot: &Option<T>) -> &T {
    slot.as_ref().expect("a slot in use")
}

/// The child in a slot in use.
#[inline(always)]
fn child<K, V, const N: usize>(slot: &Option<Arc<Node<K, V, N>>>) -> &Node<K, V, N> {
    some(slot).as_ref()
}

/// What an edit of one entry makes of it, called once, where the entry is:
/// one type for every closure [`OrdMap::alter`] and [`OrdMap::alter_mut`]
/// are given, so that their work is compiled once per map type.
type Edit<'a, V> = &'a mut dyn FnMut(Option<&V>) -> Option<V>;

/// `f(old)`, or `None` when that is `old` again: the edit changes nothing.
fn decide<V: PartialEq>(
    old: Option<&V>,
    f: impl FnOnce(Option<&V>) -> Option<V>,
) -> Option<Option<V>> {
    let new = f(old);
    (new.as_ref() != old).then_some(new)
}

/// [`OrdMap::alter_mut`] below `link`: in place while this version alone
/// holds the node, [`alter_node`]'s copy from the first one it shares.
/// `None` when the entry was left as it was.
fn alter_mut_node<K: Key, V: Clone + PartialEq, const N: usize>(
    link: &mut Arc<Node<K, V, N>>,
    key: &K,
    code: u64,
    f: Edit<'_, V>,
) -> Option<Up<K, V, N>> {
    let Some(n) = Arc::get_mut(link) else {
        let (copy, up) = alter_node(link, key, code, f)?;
        *link = copy;
        return Some(up);
    };
    if n.is_leaf() {
        let at = n.find(key, code);
        let value = decide(at.ok().map(|i| n.val(i)), f)?;
        return Some(n.edit_leaf(at, key, code, value));
    }
    let i = n.route(key, code);
    let up = alter_mut_node(n.kid_mut(i), key, code, f)?;
    Some(n.absorb(i, up))
}

/// A node's copy, edited, and what the edit leaves its parent to do.
type Replaced<K, V, const N: usize> = (Arc<Node<K, V, N>>, Up<K, V, N>);

/// The path-copying edit: the node that replaces `n`, or `None` when the
/// entry was left as it was.
fn alter_node<K: Key, V: Clone + PartialEq, const N: usize>(
    n: &Node<K, V, N>,
    key: &K,
    code: u64,
    f: Edit<'_, V>,
) -> Option<Replaced<K, V, N>> {
    if n.is_leaf() {
        let at = n.find(key, code);
        let value = decide(at.ok().map(|i| n.val(i)), f)?;
        let mut copy = n.clone();
        let up = copy.edit_leaf(at, key, code, value);
        return Some((Arc::new(copy), up));
    }
    let i = n.route(key, code);
    let (kid, up) = alter_node(n.kid(i), key, code, f)?;
    let mut copy = n.copy_but_kid(i, kid);
    let up = copy.absorb(i, up);
    Some((Arc::new(copy), up))
}

fn in_order<K, V, const N: usize>(n: &Node<K, V, N>, f: &mut impl FnMut(&K, &V)) {
    match &n.body {
        Body::Leaf(vals) => {
            for (k, v) in n.keys[..n.len].iter().zip(&vals[..n.len]) {
                f(some(k), some(v));
            }
        }
        Body::Inner(kids) => kids[..n.len].iter().for_each(|kid| in_order(child(kid), f)),
    }
}

/// The range of [`OrdMap::for_each_in_range`]: codes from `lo` to `hi`,
/// and where a code is `lo` or `hi`, what `cmp` says of the key.
struct Range<'a, K> {
    lo: u64,
    hi: u64,
    cmp: &'a dyn Fn(&K) -> Ordering,
}

impl<K> Range<'_, K> {
    /// True if `code`, `key` is below the range.
    #[inline(always)]
    fn below(&self, code: u64, key: &K) -> bool {
        code < self.lo || (code == self.lo && (self.cmp)(key).is_lt())
    }

    /// True if `code`, `key` is above the range.
    #[inline(always)]
    fn above(&self, code: u64, key: &K) -> bool {
        code > self.hi || (code == self.hi && (self.cmp)(key).is_gt())
    }
}

/// [`OrdMap::for_each_in_range`] below `n`: with `seek`, from the first
/// entry not below the range, else from `n`'s first entry. True once an
/// entry above the range was met: the walk is over.
fn range_visit<K, V, const N: usize>(
    n: &Node<K, V, N>,
    range: &Range<'_, K>,
    f: &mut impl FnMut(&K, &V),
    seek: bool,
) -> bool {
    let mut i = match seek {
        true => n.below(range.lo),
        false => usize::from(!n.is_leaf()),
    };
    match &n.body {
        Body::Leaf(vals) => {
            while seek && i < n.len && range.below(n.codes[i], some(&n.keys[i])) {
                i += 1;
            }
            let slots = n.codes[i..n.len].iter().zip(&n.keys[i..n.len]);
            for ((&code, key), v) in slots.zip(&vals[i..n.len]) {
                if range.above(code, some(key)) {
                    return true;
                }
                f(some(key), some(v));
            }
            false
        }
        Body::Inner(kids) => {
            // A separator below the range puts the child before it below
            // the range too; one above it, the child after it.
            while seek && i < n.len && range.below(n.codes[i], some(&n.keys[i])) {
                i += 1;
            }
            let first = i - 1;
            for (i, kid) in kids.iter().enumerate().take(n.len).skip(first) {
                if i > first && range.above(n.codes[i], some(&n.keys[i])) {
                    return true;
                }
                if range_visit(child(kid), range, f, seek && i == first) {
                    return true;
                }
            }
            false
        }
    }
}

impl<K, V, const N: usize> Node<K, V, N> {
    fn is_leaf(&self) -> bool {
        matches!(self.body, Body::Leaf(_))
    }

    /// The first slot whose code is not below `code`, counted along the
    /// whole code array without a branch (the codes past the slots in use
    /// are `u64::MAX`). An inner node's slot 0, which has no key, is never
    /// the answer.
    #[inline]
    fn below(&self, code: u64) -> usize {
        let mut i = usize::from(!self.is_leaf());
        while i < self.len && self.codes[i] < code {
            i += 1;
        }
        i
    }
}

impl<K: Key, V: Clone + PartialEq, const N: usize> Node<K, V, N> {
    /// The fewest slots a node other than the root holds.
    const MIN: usize = N / 4;

    fn empty(leaf: bool) -> Node<K, V, N> {
        Node {
            len: 0,
            codes: [u64::MAX; N],
            keys: std::array::from_fn(|_| None),
            body: match leaf {
                true => Body::Leaf(std::array::from_fn(|_| None)),
                false => Body::Inner(std::array::from_fn(|_| None)),
            },
        }
    }

    fn val(&self, i: usize) -> &V {
        match &self.body {
            Body::Leaf(vals) => some(&vals[i]),
            Body::Inner(_) => unreachable!("a leaf's value"),
        }
    }

    fn kid(&self, i: usize) -> &Node<K, V, N> {
        match &self.body {
            Body::Inner(kids) => child(&kids[i]),
            Body::Leaf(_) => unreachable!("an inner node's child"),
        }
    }

    /// A copy of an inner node with `kid` for its child `i`: the old child
    /// is not copied only to be dropped.
    fn copy_but_kid(&self, i: usize, kid: Arc<Node<K, V, N>>) -> Node<K, V, N> {
        let Body::Inner(kids) = &self.body else {
            unreachable!("an inner node's child")
        };
        let mut kid = Some(kid);
        Node {
            len: self.len,
            codes: self.codes,
            body: Body::Inner(std::array::from_fn(|j| match j == i {
                true => kid.take(),
                false => kids[j].clone(),
            })),
            keys: self.keys.clone(),
        }
    }

    fn kid_mut(&mut self, i: usize) -> &mut Arc<Node<K, V, N>> {
        match &mut self.body {
            Body::Inner(kids) => kids[i].as_mut().expect("a slot in use"),
            Body::Leaf(_) => unreachable!("an inner node's child"),
        }
    }

    /// Where `key` is among the keys of a leaf: `Ok(i)` at slot `i`, or
    /// `Err(i)` when the keys before slot `i` are the smaller ones. The
    /// codes say it alone unless some tie with `code`; only those keys are
    /// compared.
    #[inline]
    fn find(&self, key: &K, code: u64) -> Result<usize, usize> {
        let mut i = self.below(code);
        while i < self.len && self.codes[i] == code {
            match some(&self.keys[i]).cmp(key) {
                Ordering::Less => i += 1,
                Ordering::Equal => return Ok(i),
                Ordering::Greater => break,
            }
        }
        Err(i)
    }

    /// The child of an inner node that holds `key` if anything does.
    #[inline]
    fn route(&self, key: &K, code: u64) -> usize {
        match self.find(key, code) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// [`Up::Under`] below `MIN` slots, and for an inner node below two
    /// children: a node of `N < 8` slots has a `MIN` of one.
    fn up(&self) -> Up<K, V, N> {
        let min = match self.is_leaf() {
            true => Self::MIN,
            false => Self::MIN.max(2),
        };
        match self.len < min {
            true => Up::Under,
            false => Up::Fine,
        }
    }

    /// Set the entry at `at` (a [`Node::find`] of `key`) of a leaf to
    /// `value`: overwrite, remove, or insert.
    fn edit_leaf(
        &mut self,
        at: Result<usize, usize>,
        key: &K,
        code: u64,
        value: Option<V>,
    ) -> Up<K, V, N> {
        match (at, value) {
            (Ok(i), Some(value)) => {
                let Body::Leaf(vals) = &mut self.body else {
                    unreachable!("a leaf's value")
                };
                vals[i] = Some(value);
                Up::Fine
            }
            (Ok(i), None) => {
                self.remove(i);
                self.up()
            }
            (Err(i), Some(value)) => self.insert(i, code, key.clone(), Slot::Val(value)),
            (Err(_), None) => Up::Fine,
        }
    }

    /// Take in what the edit of child `i` left to do.
    fn absorb(&mut self, i: usize, up: Up<K, V, N>) -> Up<K, V, N> {
        match up {
            Up::Fine => Up::Fine,
            Up::Split(code, key, right) => self.insert(i + 1, code, key, Slot::Kid(right)),
            Up::Under => {
                self.refill(i);
                self.up()
            }
        }
    }

    /// Put a slot at `i`; a full node first splits in two.
    fn insert(&mut self, i: usize, code: u64, key: K, slot: Slot<K, V, N>) -> Up<K, V, N> {
        if self.len < N {
            self.put(i, code, Some(key), slot);
            return Up::Fine;
        }
        // Halves, except at an end: a run of edits there (a load in key
        // order) leaves full nodes behind it, not half-full ones.
        let at = match i {
            0 => Self::MIN - 1,
            _ if i == N => N - (Self::MIN - 1).max(1),
            _ => N / 2,
        };
        let mut right = self.split_off(at);
        if i <= at {
            self.put(i, code, Some(key), slot);
        } else {
            right.put(i - at, code, Some(key), slot);
        }
        let (code, key) = right.separator();
        Up::Split(code, key, Arc::new(right))
    }

    /// Bring child `i`, which holds fewer than `MIN` slots, back to at
    /// least `MIN`, with a neighbour: the two become one if they fit in a
    /// node, and share their slots evenly if not. A neighbour another
    /// version holds is copied.
    fn refill(&mut self, i: usize) {
        let r = if i + 1 < self.len { i + 1 } else { i };
        let Body::Inner(kids) = &mut self.body else {
            unreachable!("a leaf has no children")
        };
        let (lo, hi) = kids.split_at_mut(r);
        let left = Arc::make_mut(lo[r - 1].as_mut().expect("a slot in use"));
        let right = Arc::make_mut(hi[0].as_mut().expect("a slot in use"));
        right.take_separator(self.codes[r], some(&self.keys[r]));
        if left.len + right.len <= N {
            left.append(right);
            self.remove(r);
            return;
        }
        if left.len > right.len {
            let mut moved = left.split_off(left.len - (left.len - right.len) / 2);
            moved.append(right);
            *right = moved;
        } else {
            let rest = right.split_off((right.len - left.len) / 2);
            left.append(right);
            *right = rest;
        }
        let (code, key) = right.separator();
        (self.codes[r], self.keys[r]) = (code, Some(key));
    }

    /// The key a parent keeps in front of this node, with its code: a
    /// leaf's first key, copied; an inner node gives up the key of its
    /// first slot, which separates it from the node before it.
    fn separator(&mut self) -> (u64, K) {
        match self.body {
            Body::Leaf(_) => (self.codes[0], some(&self.keys[0]).clone()),
            Body::Inner(_) => (
                std::mem::replace(&mut self.codes[0], 0),
                self.keys[0].take().expect("an inner node's separator"),
            ),
        }
    }

    /// [`Node::separator`] undone: an inner node about to gain slots in
    /// front of its own, or to pass its first slot on, takes back the key
    /// its parent keeps in front of it.
    fn take_separator(&mut self, code: u64, key: &K) {
        if !self.is_leaf() {
            (self.codes[0], self.keys[0]) = (code, Some(key.clone()));
        }
    }

    /// Put `slot` at `i`, shifting the slots from `i` on one to the right;
    /// the node has room.
    fn put(&mut self, i: usize, code: u64, key: Option<K>, slot: Slot<K, V, N>) {
        debug_assert!(self.len < N && i <= self.len);
        let len = self.len;
        self.codes.copy_within(i..len, i + 1);
        self.codes[i] = code;
        shift_in(&mut self.keys, len, i, key);
        match (&mut self.body, slot) {
            (Body::Leaf(vals), Slot::Val(v)) => shift_in(vals, len, i, Some(v)),
            (Body::Inner(kids), Slot::Kid(k)) => shift_in(kids, len, i, Some(k)),
            _ => unreachable!("a value goes in a leaf, a child in an inner node"),
        }
        self.len += 1;
    }

    /// Drop slot `i`, shifting the slots after it one to the left.
    fn remove(&mut self, i: usize) {
        let len = self.len;
        self.codes.copy_within(i + 1..len, i);
        self.codes[len - 1] = u64::MAX;
        shift_out(&mut self.keys, len, i);
        match &mut self.body {
            Body::Leaf(vals) => shift_out(vals, len, i),
            Body::Inner(kids) => shift_out(kids, len, i),
        }
        self.len -= 1;
    }

    /// The slots from `at` on, moved into a new node of the same kind.
    fn split_off(&mut self, at: usize) -> Node<K, V, N> {
        let mut right = Node::empty(self.is_leaf());
        right.append_from(self, at);
        right
    }

    /// Move every slot of `other` to the end of this node.
    fn append(&mut self, other: &mut Node<K, V, N>) {
        self.append_from(other, 0);
    }

    /// Move the slots of `other` from `at` on to the end of this node.
    fn append_from(&mut self, other: &mut Node<K, V, N>, at: usize) {
        let (to, n) = (self.len, other.len - at);
        debug_assert!(to + n <= N);
        self.codes[to..to + n].copy_from_slice(&other.codes[at..other.len]);
        other.codes[at..].fill(u64::MAX);
        move_slots(&mut other.keys[at..], &mut self.keys[to..], n);
        match (&mut other.body, &mut self.body) {
            (Body::Leaf(from), Body::Leaf(into)) => move_slots(&mut from[at..], &mut into[to..], n),
            (Body::Inner(from), Body::Inner(into)) => {
                move_slots(&mut from[at..], &mut into[to..], n)
            }
            _ => unreachable!("slots move between nodes of one kind"),
        }
        (self.len, other.len) = (to + n, at);
    }
}

/// Put `x` at `i` of the first `len + 1` slots, shifting the rest right.
fn shift_in<T, const N: usize>(slots: &mut [Option<T>; N], len: usize, i: usize, x: Option<T>) {
    slots[i..=len].rotate_right(1);
    slots[i] = x;
}

/// Empty slot `i` of the first `len`, shifting the rest left over it.
fn shift_out<T, const N: usize>(slots: &mut [Option<T>; N], len: usize, i: usize) {
    slots[i] = None;
    slots[i..len].rotate_left(1);
}

fn move_slots<T>(from: &mut [Option<T>], into: &mut [Option<T>], n: usize) {
    for (a, b) in from[..n].iter_mut().zip(&mut into[..n]) {
        *b = a.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(keys: impl IntoIterator<Item = u64>) -> OrdMap<u64, ()> {
        keys.into_iter()
            .fold(OrdMap::new(), |m, k| m.alter(&k, |_| Some(())))
    }

    fn entries<V: Clone + PartialEq, const N: usize>(m: &OrdMap<u64, V, N>) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        m.for_each(|k, v| out.push((*k, v.clone())));
        out
    }

    /// Every allocation of `m` — its run, or its tree's nodes — by address.
    fn nodes<V, const N: usize>(m: &OrdMap<u64, V, N>) -> Vec<*const ()> {
        fn walk<V, const N: usize>(n: &Arc<Node<u64, V, N>>, out: &mut Vec<*const ()>) {
            out.push(Arc::as_ptr(n).cast());
            if let Body::Inner(kids) = &n.body {
                kids[..n.len]
                    .iter()
                    .for_each(|k| walk(k.as_ref().unwrap(), out));
            }
        }
        let mut out = Vec::new();
        match &m.root {
            Some(Root::Run(run)) => out.push(Arc::as_ptr(run).cast()),
            Some(Root::Tree(root)) => walk(root, &mut out),
            None => {}
        }
        out
    }

    /// True if the two versions share their root.
    fn share_root<V, const N: usize>(a: &OrdMap<u64, V, N>, b: &OrdMap<u64, V, N>) -> bool {
        matches!((nodes(a).first(), nodes(b).first()), (Some(x), Some(y)) if x == y)
    }

    /// The map's invariants: a run holds at most `N` entries; in a tree,
    /// node by node, keys and codes are sorted and in step, every leaf but
    /// the root holds between `MIN` and `N` slots, every inner node two
    /// children at least and, below the root, `MIN`, every leaf is at one
    /// depth and every separator between the keys it separates. `len` is
    /// the number of entries. Returns the height (a run's is 1).
    fn check<V: Clone + PartialEq, const N: usize>(m: &OrdMap<u64, V, N>) -> usize {
        /// The node's keys from least to greatest, and its height.
        fn walk<V, const N: usize>(n: &Node<u64, V, N>, root: bool, keys: &mut Vec<u64>) -> usize {
            assert!(n.len <= N && (root || n.len >= N / 4), "{} slots", n.len);
            assert!(n.codes[n.len..].iter().all(|&c| c == u64::MAX));
            assert!(n.keys[n.len..].iter().all(Option::is_none));
            match &n.body {
                Body::Leaf(vals) => {
                    for ((&code, key), v) in n.codes.iter().zip(&n.keys).zip(vals).take(n.len) {
                        assert_eq!(code, *some(key));
                        assert!(v.is_some());
                        keys.push(code);
                    }
                    1
                }
                Body::Inner(kids) => {
                    assert!(n.len >= 2 && n.keys[0].is_none() && n.codes[0] == 0);
                    let mut heights = Vec::new();
                    for (i, kid) in kids.iter().enumerate().take(n.len) {
                        let from = keys.len();
                        heights.push(walk(child(kid), false, keys));
                        if i > 0 {
                            let sep = *some(&n.keys[i]);
                            assert_eq!(n.codes[i], sep);
                            assert!(keys[from] >= sep && keys[from - 1] < sep);
                        }
                    }
                    assert!(heights.windows(2).all(|h| h[0] == h[1]));
                    heights[0] + 1
                }
            }
        }
        let mut keys = Vec::new();
        let height = match &m.root {
            Some(Root::Run(run)) => {
                assert!(!run.is_empty() && run.len() <= N, "a run of {}", run.len());
                for (code, key, _) in run.iter() {
                    assert_eq!(code, key);
                    keys.push(*key);
                }
                1
            }
            Some(Root::Tree(root)) => walk(root, true, &mut keys),
            None => 0,
        };
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), m.len());
        height
    }

    #[test]
    fn alter_inserts_overwrites_and_removes() {
        let m: OrdMap<u64, i64> = OrdMap::new();
        let m = m.alter(&5, |old| {
            assert_eq!(old, None);
            Some(1)
        });
        assert_eq!((m.len(), m.get(&5)), (1, Some(&1)));
        let m = m.alter(&5, |old| old.map(|c| c + 2));
        assert_eq!((m.len(), m.get(&5)), (1, Some(&3)));
        let m = m.alter(&5, |_| None);
        assert!(m.is_empty() && m.get(&5).is_none());
        assert!(m.alter(&5, |_| None).is_empty(), "removing the absent");
        assert!(OrdMap::<u64, i64>::from_sorted([]).is_empty());
    }

    #[test]
    fn an_edit_that_changes_nothing_shares_the_whole_tree() {
        let m = set_of(0..100);
        let in_place = |keys: &[u64], keep: bool| {
            let mut same = m.clone();
            for k in keys {
                same.alter_mut(k, |_| keep.then_some(()));
            }
            same
        };
        for same in [
            m.alter(&7, |_| Some(())),
            m.alter(&1000, |_| None),
            in_place(&[], true),
            in_place(&[3, 50, 99], true),
            in_place(&[200, 205, 209], false),
        ] {
            assert_eq!(same.len(), 100);
            assert!(share_root(&same, &m));
        }
    }

    #[test]
    fn an_edit_copies_only_the_nodes_on_its_path() {
        let m = set_of(0..1000);
        let height = check(&m);
        assert!(
            (3..=5).contains(&height),
            "1000 keys at {} to {B} a node",
            B / 4
        );
        let old = nodes(&m);
        for (k, insert) in [(500, false), (2000, true), (0, false), (777, false)] {
            let edited = m.alter(&k, |_| insert.then_some(()));
            check(&edited);
            let copied = nodes(&edited).iter().filter(|n| !old.contains(n)).count();
            // One node per level, and at most one more per level where a
            // node split or two nodes shared out their slots.
            assert!(copied <= 2 * height, "{copied} nodes not shared");
            assert_eq!(edited.get(&k).is_some(), insert);
        }
        // Ten keys past the end, in place on a version `m` still shares:
        // the right spine is copied once and then edited where it is.
        let mut grown = m.clone();
        for k in 2000..2010 {
            grown.alter_mut(&k, |_| Some(()));
        }
        check(&grown);
        let copied = nodes(&grown).iter().filter(|n| !old.contains(n)).count();
        assert!(copied <= 2 * height, "{copied} nodes not shared");
        // The old version still holds what it held.
        assert_eq!(check(&m), height);
        assert_eq!(entries(&m), (0..1000).map(|k| (k, ())).collect::<Vec<_>>());
        assert!(m.get(&2005).is_none() && grown.get(&2005).is_some());
    }

    #[test]
    fn content_and_iteration_do_not_depend_on_history() {
        let evens = || (0..200u64).map(|k| 2 * k);
        let a = set_of(evens());
        let b = set_of(evens().rev());
        // A detour through the odd keys in between and their removal.
        let c = evens().fold(set_of(0..400), |m, k| m.alter(&(k + 1), |_| None));
        // Built in one pass from the sorted run, and from two such runs by
        // edits in place: the other half added, every odd key taken out.
        let d = OrdMap::from_sorted(evens().map(|k| (k, ())));
        let mut e = OrdMap::from_sorted(evens().step_by(2).map(|k| (k, ())));
        for k in evens().skip(1).step_by(2) {
            e.alter_mut(&k, |_| Some(()));
        }
        let mut f = OrdMap::from_sorted((0..400).map(|k| (k, ())));
        for k in evens() {
            f.alter_mut(&(k + 1), |_| None);
        }
        // In place, through the same detour, with an older version kept
        // every few steps so that some nodes are shared and some are not.
        let mut g = OrdMap::new();
        let mut kept = Vec::new();
        for k in (0..400).rev() {
            g.alter_mut(&k, |_| Some(()));
            if k % 7 == 0 {
                kept.push((k, g.clone()));
            }
        }
        for k in evens() {
            g.alter_mut(&(k + 1), |_| None);
        }
        let want: Vec<(u64, ())> = evens().map(|k| (k, ())).collect();
        for m in [&a, &b, &c, &d, &e, &f, &g] {
            check(m);
            assert_eq!(entries(m), want);
            assert_eq!(format!("{m:?}"), format!("{a:?}"));
            assert!(evens().all(|k| m.get(&k).is_some() && m.get(&(k + 1)).is_none()));
        }
        for (from, m) in &kept {
            check(m);
            let keys: Vec<u64> = entries(m).into_iter().map(|(k, ())| k).collect();
            assert_eq!(keys, (*from..400).collect::<Vec<_>>());
        }
        assert!(a == b && a == c && a == d && a == e && a == f && a == g);
        assert!(a != a.alter(&0, |_| None).alter(&1000, |_| Some(())));
    }

    #[test]
    fn an_edit_in_place_leaves_every_older_clone_as_it_was() {
        let mut m: OrdMap<u64, i64> = OrdMap::from_sorted((0..500).map(|k| (k, 1)));
        let old = m.clone();
        let before = entries(&old);
        let step = |k: u64, c: Option<&i64>| match c {
            Some(_) if k.is_multiple_of(2) => None,
            Some(c) => Some(c + 1),
            None => Some(7),
        };
        for k in (0..600).step_by(3) {
            m.alter_mut(&k, |c| step(k, c));
        }
        check(&m);
        assert_eq!(
            entries(&old),
            before,
            "the older version still holds what it held"
        );
        assert_eq!(old.len(), 500);
        // What the persistent edits give, entry by entry.
        let mut by_alter = old.clone();
        for k in (0..600).step_by(3) {
            by_alter = by_alter.alter(&k, |c| step(k, c));
        }
        assert_eq!(entries(&m), entries(&by_alter));
        assert_eq!(m.len(), by_alter.len());
        // An edit that changes nothing leaves even a shared root shared.
        let shared = m.clone();
        m.alter_mut(&1, |c| c.copied());
        m.alter_mut(&10_000, |_| None);
        assert!(share_root(&m, &shared));
    }

    #[test]
    fn random_edits_keep_the_invariants_on_shared_and_unshared_versions() {
        // Every node size the crate uses, the smallest with one slot to
        // spare above its minimum.
        random_edits::<4>();
        random_edits::<8>();
        random_edits::<B>();
    }

    fn random_edits<const N: usize>() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(46);
        let mut m: OrdMap<u64, u64, N> = OrdMap::new();
        let mut model = std::collections::BTreeMap::new();
        let mut kept = Vec::new();
        for step in 0..6_000u64 {
            let k = rng.random_range(0..600u64);
            let insert = rng.random_range(0..3u8) > 0 || step > 4_000;
            let value = insert.then_some(step);
            if rng.random_range(0..4u8) == 0 {
                m = m.alter(&k, |_| value);
            } else {
                m.alter_mut(&k, |_| value);
            }
            match value {
                Some(v) => model.insert(k, v),
                None => model.remove(&k),
            };
            if step % 97 == 0 {
                check(&m);
                kept.push((m.clone(), model.clone()));
            }
        }
        check(&m);
        for (m, model) in kept.iter().chain([(m, model)].iter()) {
            check(m);
            assert_eq!(
                entries(m),
                model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_small_map_is_one_run_copied_whole() {
        let full = OrdMap::<u64, ()>::from_sorted((0..B as u64).map(|k| (k, ())));
        assert!(matches!(full.root, Some(Root::Run(_))) && check(&full) == 1);
        // A persistent edit copies the run, and the older version keeps its
        // own; past `B` entries the map becomes a tree.
        let less = full.alter(&3, |_| None);
        let more = full.alter(&100, |_| Some(()));
        assert!(matches!(less.root, Some(Root::Run(_))) && check(&less) == 1);
        assert!(matches!(more.root, Some(Root::Tree(_))) && check(&more) == 2);
        assert_eq!(entries(&full).len(), B);
        assert!(nodes(&less)[0] != nodes(&full)[0]);
        // In place on a shared run: a copy, the older version untouched.
        let mut mine = full.clone();
        mine.alter_mut(&5, |_| None);
        assert!(matches!(mine.root, Some(Root::Run(_))) && !share_root(&mine, &full));
        assert_eq!((full.len(), mine.len()), (B, B - 1));
        // In place on a run this version alone holds: an overwrite stays
        // where it is; an insert turns it into a leaf with room.
        let mut alone: OrdMap<u64, u64> = OrdMap::from_sorted((0..3).map(|k| (k, k)));
        let before = nodes(&alone);
        alone.alter_mut(&1, |_| Some(10));
        assert_eq!(nodes(&alone), before);
        alone.alter_mut(&7, |_| Some(7));
        assert!(matches!(alone.root, Some(Root::Tree(_))) && check(&alone) == 1);
        assert_eq!(entries(&alone), [(0, 0), (1, 10), (2, 2), (7, 7)]);
        // A leaf and a run that hold the same entries are equal.
        let run = OrdMap::from_sorted([(0, 0), (1, 10), (2, 2), (7, 7)]);
        assert!(matches!(run.root, Some(Root::Run(_))) && run == alone);
        assert_ne!(run, alone.alter(&2, |_| Some(3)));
        for k in [0, 1, 2, 7] {
            alone.alter_mut(&k, |_| None);
            check(&alone);
        }
        assert!(alone.is_empty() && alone.root.is_none());
    }

    #[test]
    fn draining_a_map_of_four_slot_nodes_keeps_the_invariants() {
        // At N = 4 a node's MIN is one slot, and an inner node still needs
        // two children: emptying a tree through every path, with an older
        // version kept after each edit, must keep both.
        for order in [
            (1..=40u64).rev().collect::<Vec<_>>(),
            (1..=40).collect(),
            (1..=40).map(|k| (k * 17) % 41).collect(),
        ] {
            for in_place in [false, true] {
                let mut m: OrdMap<u64, u64, 4> = OrdMap::new();
                for k in 1..=40 {
                    m.alter_mut(&k, |_| Some(k));
                }
                let mut kept = vec![(m.clone(), entries(&m))];
                for k in &order {
                    if in_place {
                        m.alter_mut(k, |_| None);
                    } else {
                        m = m.alter(k, |_| None);
                    }
                    check(&m);
                    kept.push((m.clone(), entries(&m)));
                }
                assert!(m.is_empty());
                for (old, held) in &kept {
                    check(old);
                    assert_eq!(&entries(old), held);
                }
            }
        }
        // The smallest case: five keys, removed from the top.
        let mut m: OrdMap<u64, (), 4> = OrdMap::new();
        for k in 1..=5 {
            m = m.alter(&k, |_| Some(()));
        }
        for k in (1..=5).rev() {
            m = m.alter(&k, |_| None);
            check(&m);
        }
        assert!(m.is_empty());
    }

    #[test]
    fn range_probe_visits_exactly_the_range_in_order() {
        // Keys `10 a + b`; the probe ranges over one `a`.
        let m = set_of((0..40u64).flat_map(|a| (0..10u64).map(move |b| 10 * a + b)));
        for a in 0..42u64 {
            let want: Vec<u64> = (0..10).map(|b| 10 * a + b).filter(|_| a < 40).collect();
            // By codes alone.
            let mut seen = Vec::new();
            let ends = 10 * a..=10 * a + 9;
            m.for_each_in_range(ends, |_| Ordering::Equal, |k, ()| seen.push(*k));
            assert_eq!(seen, want, "a = {a}, by code");
            // By codes, with the comparator cutting both ends.
            seen.clear();
            let ends = 10 * a + 2..=10 * a + 7;
            let cut = |k: &u64| match k % 10 {
                2 => Ordering::Less,
                7 => Ordering::Greater,
                _ => unreachable!("asked only about an end"),
            };
            m.for_each_in_range(ends, cut, |k, ()| seen.push(*k));
            let want: Vec<u64> = (3..7).map(|b| 10 * a + b).filter(|_| a < 40).collect();
            assert_eq!(seen, want, "a = {a}, cut");
        }
        let mut all = Vec::new();
        m.for_each_in_range(0..=u64::MAX, |_| Ordering::Equal, |k, ()| all.push(*k));
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }
}
