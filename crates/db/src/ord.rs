//! The one persistent structure of this crate: an ordered map (a B+-tree)
//! with structural sharing between versions. docs/ARCHITECTURE.md ("Below
//! the engine: td-db's one persistent B+-tree") says why it has this shape.
//!
//! Versions of a map share structure, so a clone is a pointer copy and an
//! edit must leave every other version valid: the engine edits its one
//! database in place and takes a failed branch's edits back from a log,
//! while isolation blocks, solutions and the explicit-state search keep
//! versions (docs/ARCHITECTURE.md, "What a step allocates, and what
//! backtracking costs"). Every edit is one walk, [`OrdMap::merge`], which
//! applies a sorted run of edits to a version in place: a node that another
//! version can still see is copied once — the older version keeps it as it
//! was — and a node only this version holds is written over, once however
//! many of the run's edits land in it; a node the run overfills or leaves
//! short is dealt out or refilled on the way back up. A single edit is a
//! run of one ([`OrdMap::set`]), and
//! [`OrdMap::from_sorted`] builds a map from a sorted run in O(n). That is
//! how the Datalog circuit folds a round of derived facts into the state it
//! owns: one merge per relation, not one descent per fact. The run's edits
//! are [`Probe`]s, so a fact that is only looked up or removed is never
//! made into a key.
//!
//! Each node is one allocation holding up to `N` slots ([`B`]; the unit
//! tests name smaller numbers): a leaf's entries, or an inner node's
//! children with the keys that separate them. A map of at most `N` entries
//! is no tree but one run of them, in one allocation of exactly their
//! number, so that a small map's copy is as small as the map (a merge
//! turns a run its version alone holds into a leaf with room). Beside its
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

/// Something the keys of a map compare with without being a key: a key and
/// what to do there, or a borrowed form of one (a tuple's values where they
/// already lie, say) that is made into a key only where it is stored.
pub trait Probe<K> {
    /// The code the probe's key has ([`Key::code`]).
    fn probe_code(&self) -> u64;
    /// How `key` orders against the probe.
    fn order(&self, key: &K) -> Ordering;
}

/// One edit of a run [`OrdMap::merge`] applies: where it is, as a probe,
/// and the key it stores if it inserts.
pub trait Edit<K>: Probe<K> {
    /// The key to store; asked for only when the edit inserts.
    fn key(&mut self) -> K;
}

/// A key and what to do there: the edit of a caller that holds its keys
/// already.
impl<K: Key, X> Probe<K> for (K, X) {
    #[inline]
    fn probe_code(&self) -> u64 {
        self.0.code()
    }

    #[inline]
    fn order(&self, key: &K) -> Ordering {
        key.cmp(&self.0)
    }
}

impl<K: Key, X> Edit<K> for (K, X) {
    fn key(&mut self) -> K {
        self.0.clone()
    }
}

/// A borrowed key as an edit: [`OrdMap::set`]'s run of one.
struct At<'a, K>(&'a K);

impl<K: Key> Probe<K> for At<'_, K> {
    #[inline]
    fn probe_code(&self) -> u64 {
        self.0.code()
    }

    #[inline]
    fn order(&self, key: &K) -> Ordering {
        key.cmp(self.0)
    }
}

impl<K: Key> Edit<K> for At<'_, K> {
    fn key(&mut self) -> K {
        self.0.clone()
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

/// A persistent sorted map. `clone()` is O(1); an edit copies only the
/// nodes on its path that another version shares.
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
        self.entry_by(key.code(), |k| k.cmp(key)).map(|(_, v)| v)
    }

    /// Set the entry for `key` to `value` in this version itself, `None`
    /// removing it; true if that changed the map. A tree takes it as a
    /// merge of a run of one edit ([`OrdMap::merge`]): the nodes on the
    /// key's path that this version alone holds are written over and those
    /// another version shares are copied once. A small map stays one run
    /// (see the module docs), copied at its new size — an overwrite of a
    /// run this version alone holds is written over — so that a copy of it
    /// made for another version is as small as the map: the engine's
    /// database is copied whenever a solution, an isolation block or a
    /// solve starts from it, and edited a few times in between.
    pub fn set(&mut self, key: &K, value: Option<V>) -> bool {
        if let Some(Root::Run(run)) = &self.root {
            let code = key.code();
            let (i, cut) = match (run_seek(run, code, |k| k.cmp(key)), &value) {
                (Ok(i), Some(v)) if run[i].2 == *v => return false,
                (Ok(_), Some(_)) => {
                    *self.get_mut(key).expect("an entry") = value.expect("an overwrite");
                    return true;
                }
                (Err(_), None) => return false,
                (Ok(i), None) => (i, 1),
                (Err(i), Some(_)) => (i, 0),
            };
            let add = usize::from(value.is_some());
            let len = run.len() - cut + add;
            let mut new = value.map(|value| (code, key.clone(), value));
            let entries = (0..len).map(|j| match j.cmp(&i) {
                Ordering::Less => run[j].clone(),
                Ordering::Equal if add == 1 => new.take().expect("one new entry"),
                _ => run[j + cut - add].clone(),
            });
            *self = match len {
                0 => OrdMap::new(),
                _ if len <= N => OrdMap {
                    root: Some(Root::Run(entries.collect())),
                    len,
                },
                _ => OrdMap::of_entries(entries.collect()),
            };
            return true;
        }
        let (mut value, mut changed) = (Some(value), false);
        self.merge(&mut [At(key)], |_, old| {
            let new = value.take().expect("an edit decides once");
            changed = new.as_ref() != old.map(|(_, v)| v);
            new
        });
        changed
    }

    /// The value stored under `key`, to be written over in place: the
    /// nodes on the key's path that another version shares are copied
    /// first, once, so that version keeps what it held. `None`, with
    /// nothing copied, when there is no entry.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let code = key.code();
        let order = |k: &K| k.cmp(key);
        if let Some(Root::Tree(_)) = self.root {
            self.entry_by(code, order)?;
        }
        match self.root.as_mut()? {
            Root::Run(run) => {
                let i = run_seek(run, code, order).ok()?;
                if Arc::get_mut(run).is_none() {
                    *run = run.iter().cloned().collect();
                }
                Some(&mut Arc::get_mut(run).expect("copied if shared")[i].2)
            }
            Root::Tree(root) => {
                let mut n = Arc::make_mut(root);
                loop {
                    match n.is_leaf() {
                        true => {
                            let i = n.seek(0, code, order).ok()?;
                            return Some(n.val_mut(i));
                        }
                        false => {
                            let i = n.route_by(code, order);
                            n = Arc::make_mut(n.kid_mut(i));
                        }
                    }
                }
            }
        }
    }

    /// The entry under `probe`'s key, found without a key being made.
    pub fn get_entry<P: Probe<K> + ?Sized>(&self, probe: &P) -> Option<(&K, &V)> {
        self.entry_by(probe.probe_code(), |k| probe.order(k))
    }

    /// The entry of the key `order` places, whose code is `code`: `order(k)`
    /// says how `k` orders against it.
    #[inline]
    fn entry_by(&self, code: u64, order: impl Fn(&K) -> Ordering) -> Option<(&K, &V)> {
        let mut n = match self.root.as_ref()? {
            Root::Run(run) => {
                let i = run_seek(run, code, order).ok()?;
                return Some((&run[i].1, &run[i].2));
            }
            Root::Tree(root) => &**root,
        };
        loop {
            match &n.body {
                Body::Leaf(vals) => {
                    let i = n.seek(0, code, &order).ok()?;
                    return Some((some(&n.keys[i]), some(&vals[i])));
                }
                Body::Inner(kids) => n = child(&kids[n.route_by(code, &order)]),
            }
        }
    }

    /// Apply a run of edits to this version itself, in one walk: the keys
    /// of `run` strictly increasing, the entry at each edit's key becomes
    /// `f(edit, the entry there)`, `None` standing for "no entry" on both
    /// sides as in [`OrdMap::set`]. `f` is called once per edit, in
    /// order, and an edit's [`Edit::key`] is asked for only if it inserts.
    ///
    /// A node this version alone holds is written over, once however many
    /// edits land in it. A node another version shares is copied, once,
    /// when the first edit below it changes something, so that version
    /// keeps what it held, and a run that changes nothing copies nothing.
    /// A node the run overfills is dealt into as many as it takes, and one
    /// it leaves short is refilled from a neighbour, node by node on the
    /// way back up. A run (a map of at most `N` entries) this version alone
    /// holds becomes a leaf with room, copied once and written over from
    /// then on; a shared one is merged into a new run, or into a tree if it
    /// outgrows `N`.
    pub fn merge<E: Edit<K>>(
        &mut self,
        run: &mut [E],
        mut f: impl FnMut(&mut E, Option<(&K, &V)>) -> Option<V>,
    ) {
        debug_assert!(
            run.windows(2)
                .all(|w| w[0].probe_code() <= w[1].probe_code()),
            "run not sorted"
        );
        self.merged(run, &mut f);
    }

    /// [`OrdMap::merge`], compiled once per map and edit type.
    fn merged<E: Edit<K>>(&mut self, run: &mut [E], f: Step<'_, K, V, E>) {
        if run.is_empty() {
            return;
        }
        if let Some(Root::Run(entries)) = &mut self.root {
            if Arc::get_mut(entries).is_some() {
                let mut leaf = Node::empty(true);
                for (i, (code, key, value)) in entries.iter().enumerate() {
                    leaf.put(i, *code, Some(key.clone()), Slot::Val(value.clone()));
                }
                self.root = Some(Root::Tree(Arc::new(leaf)));
            }
        }
        let root = match &mut self.root {
            Some(Root::Tree(root)) => root,
            root => {
                let old: &[Entry<K, V>] = match root {
                    Some(Root::Run(entries)) => entries,
                    _ => &[],
                };
                let mut changed = false;
                let entries = merge_entries(old.iter().cloned(), run, f, &mut changed);
                if changed {
                    *self = OrdMap::of_run(entries);
                }
                return;
            }
        };
        let mut grown = 0;
        let Some(mut sibs) = merge_node(root, run, f, &mut grown) else {
            return;
        };
        self.len = self.len.checked_add_signed(grown).expect("a length");
        // A root the run overfilled goes under a new one, as often as it
        // takes; a root left with one child gives way to it.
        while !sibs.is_empty() {
            let Some(Root::Tree(old)) = self.root.take() else {
                unreachable!("a merge overfilled the root of a tree")
            };
            let mut top = Node::empty(false);
            let slots = std::iter::once((0, None, Slot::Kid(old)));
            let slots = slots.chain(sibs.into_iter().map(|(c, k, n)| (c, Some(k), Slot::Kid(n))));
            sibs = top.deal(slots.collect());
            self.root = Some(Root::Tree(Arc::new(top)));
        }
        loop {
            match &self.root {
                Some(Root::Tree(root)) if root.len == 0 => self.root = None,
                Some(Root::Tree(root)) if root.len == 1 && !root.is_leaf() => {
                    self.root = Some(Root::Tree(root.kid_arc(0).clone()));
                    continue;
                }
                _ => {}
            }
            return;
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
        OrdMap::of_run(entries)
    }

    /// The map holding `entries`, which are sorted: a run, or a tree.
    fn of_run(entries: Vec<Entry<K, V>>) -> OrdMap<K, V, N> {
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
impl<K: Key, V: Clone + PartialEq, const N: usize> OrdMap<K, V, N> {
    /// Panics unless the map keeps its invariants: a run holds at most `N`
    /// entries; in a tree, node by node, keys and codes are sorted and in
    /// step, every leaf but the root holds between `N / 4` and `N` slots,
    /// every inner node two children at least and, below the root,
    /// `N / 4`, every leaf is at one depth and every separator lies between
    /// the keys it separates; `len` is the number of entries. Returns the
    /// height (a run's is 1). For the tests of this crate.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> usize {
        /// The node's keys from least to greatest, and its height.
        fn walk<K: Key, V, const N: usize>(
            n: &Node<K, V, N>,
            root: bool,
            keys: &mut Vec<K>,
        ) -> usize {
            assert!(n.len <= N && (root || n.len >= N / 4), "{} slots", n.len);
            assert!(n.codes[n.len..].iter().all(|&c| c == u64::MAX));
            assert!(n.keys[n.len..].iter().all(Option::is_none));
            match &n.body {
                Body::Leaf(vals) => {
                    for ((&code, key), v) in n.codes.iter().zip(&n.keys).zip(vals).take(n.len) {
                        assert_eq!(code, some(key).code());
                        assert!(v.is_some());
                        keys.push(some(key).clone());
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
                            let sep = some(&n.keys[i]);
                            assert_eq!(n.codes[i], sep.code());
                            assert!(keys[from] >= *sep && keys[from - 1] < *sep);
                        }
                    }
                    assert!(heights.windows(2).all(|h| h[0] == h[1]));
                    heights[0] + 1
                }
            }
        }
        let mut keys = Vec::new();
        let height = match &self.root {
            Some(Root::Run(run)) => {
                assert!(!run.is_empty() && run.len() <= N, "a run of {}", run.len());
                for (code, key, _) in run.iter() {
                    assert_eq!(*code, key.code());
                    keys.push(key.clone());
                }
                1
            }
            Some(Root::Tree(root)) => walk(root, true, &mut keys),
            None => 0,
        };
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), self.len);
        height
    }
}

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

/// Where the key `order` places is in a run: `Ok(i)` at entry `i`, or
/// `Err(i)` when the entries before `i` are the smaller ones. As
/// [`Node::seek`]: `order(k)` says how `k` orders against the key, and is
/// asked only about keys whose codes tie with `code`.
#[inline]
fn run_seek<K, V>(
    run: &[Entry<K, V>],
    code: u64,
    order: impl Fn(&K) -> Ordering,
) -> Result<usize, usize> {
    let mut i = 0;
    while i < run.len() && run[i].0 < code {
        i += 1;
    }
    while i < run.len() && run[i].0 == code {
        match order(&run[i].1) {
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

/// What [`OrdMap::merge`] makes of the entry at each edit of its run: one
/// type for every closure it is given.
type Step<'a, K, V, E> = &'a mut dyn FnMut(&mut E, Option<(&K, &V)>) -> Option<V>;

/// A node a merge made, with the key that separates it from the node
/// before it and that key's code: what its parent puts right of the node
/// the merge overfilled.
type Sib<K, V, const N: usize> = (u64, K, Arc<Node<K, V, N>>);

/// What a merge below a node leaves its parent to do: `None` when nothing
/// changed; else the nodes that go right of it, none unless it overfilled.
/// A node the merge left short ([`Node::is_short`]) is the parent's to see.
type Merged<K, V, const N: usize> = Option<Vec<Sib<K, V, N>>>;

/// A slot of a node, taken out of it ([`Node::take_slots`]): code, key (an
/// inner node's slot 0 has none) and content.
type Taken<K, V, const N: usize> = (u64, Option<K>, Slot<K, V, N>);

/// Is the edit below the key `code`, `key`?
#[inline]
fn below<K, E: Probe<K>>(e: &E, code: u64, key: &K) -> bool {
    let at = e.probe_code();
    at < code || (at == code && e.order(key).is_gt())
}

/// The sorted `old` entries with the sorted `run` merged in, as
/// [`OrdMap::merge`] does it; `changed` is set if an edit changed anything.
fn merge_entries<K: Key, V: Clone + PartialEq, E: Edit<K>>(
    old: impl Iterator<Item = Entry<K, V>>,
    run: &mut [E],
    f: Step<'_, K, V, E>,
    changed: &mut bool,
) -> Vec<Entry<K, V>> {
    let mut old = old.peekable();
    let mut out = Vec::with_capacity(old.size_hint().0 + run.len());
    for e in run {
        while let Some(entry) = old.next_if(|(code, k, _)| below_key(*code, k, e)) {
            out.push(entry);
        }
        let code = e.probe_code();
        let here = old.next_if(|(c, k, _)| *c == code && e.order(k).is_eq());
        let new = f(e, here.as_ref().map(|(_, k, v)| (k, v)));
        *changed |= new.as_ref() != here.as_ref().map(|(_, _, v)| v);
        match (here, new) {
            (Some((code, key, _)), Some(value)) => out.push((code, key, value)),
            (None, Some(value)) => out.push((code, e.key(), value)),
            (_, None) => {}
        }
    }
    out.extend(old);
    out
}

/// Is the key `code`, `key` below the edit?
#[inline]
fn below_key<K, E: Probe<K>>(code: u64, key: &K, e: &E) -> bool {
    let at = e.probe_code();
    code < at || (code == at && e.order(key).is_lt())
}

/// [`OrdMap::merge`] below `link`; `grown` counts the entries it adds, less
/// those it removes.
fn merge_node<K: Key, V: Clone + PartialEq, E: Edit<K>, const N: usize>(
    link: &mut Arc<Node<K, V, N>>,
    run: &mut [E],
    f: Step<'_, K, V, E>,
    grown: &mut isize,
) -> Merged<K, V, N> {
    match link.is_leaf() {
        true => merge_leaf(link, run, f, grown),
        false => merge_inner(link, run, f, grown),
    }
}

/// A leaf's part of a merge: read until the first edit that changes
/// something, then, on the leaf itself or on its one copy, each edit where
/// it lands, from where the one before it landed. An insert into a full
/// leaf merges the rest of the run into its entries and deals them out.
fn merge_leaf<K: Key, V: Clone + PartialEq, E: Edit<K>, const N: usize>(
    link: &mut Arc<Node<K, V, N>>,
    run: &mut [E],
    f: Step<'_, K, V, E>,
    grown: &mut isize,
) -> Merged<K, V, N> {
    let mut at = 0;
    let (mut k, mut found, mut new) = next_change(link, run, 0, &mut at, f)?;
    let n = Arc::make_mut(link);
    loop {
        match (found, new) {
            (Ok(i), Some(value)) => {
                n.set_val(i, value);
                at = i + 1;
            }
            (Ok(i), None) => {
                n.remove(i);
                *grown -= 1;
                at = i;
            }
            (Err(i), Some(value)) if n.len < N => {
                let key = run[k].key();
                n.put(i, run[k].probe_code(), Some(key), Slot::Val(value));
                *grown += 1;
                at = i + 1;
            }
            (Err(i), Some(value)) => {
                let (code, key) = (run[k].probe_code(), run[k].key());
                return Some(n.overfill(i, (code, key, value), &mut run[k + 1..], f, grown));
            }
            (Err(_), None) => unreachable!("an edit that changes nothing"),
        }
        let Some(change) = next_change(n, run, k + 1, &mut at, f) else {
            return Some(Vec::new());
        };
        (k, found, new) = change;
    }
}

/// The first edit of `run` from `k` on that changes something in the leaf
/// `n` — its index, where it lands and what it makes of the entry there —
/// looking for each from `at`, where the one before it landed.
fn next_change<K: Key, V: Clone + PartialEq, E: Edit<K>, const N: usize>(
    n: &Node<K, V, N>,
    run: &mut [E],
    k: usize,
    at: &mut usize,
    f: Step<'_, K, V, E>,
) -> Option<(usize, Result<usize, usize>, Option<V>)> {
    for (j, e) in run.iter_mut().enumerate().skip(k) {
        let found = n.seek(*at, e.probe_code(), |key| e.order(key));
        let old = found.ok().map(|i| (some(&n.keys[i]), n.val(i)));
        let new = f(e, old);
        if new.as_ref() != old.map(|(_, v)| v) {
            return Some((j, found, new));
        }
        *at = found.map_or_else(|i| i, |i| i + 1);
    }
    None
}

/// An inner node's part of a merge: each child with the part of the run
/// below the next separator, in place while this version alone holds the
/// node, and on a copy made when a child below first changes otherwise.
/// Children that overfilled or were left short are settled here, all at
/// once, after the last.
fn merge_inner<K: Key, V: Clone + PartialEq, E: Edit<K>, const N: usize>(
    link: &mut Arc<Node<K, V, N>>,
    run: &mut [E],
    f: Step<'_, K, V, E>,
    grown: &mut isize,
) -> Merged<K, V, N> {
    let mut sibs: Vec<(usize, Vec<Sib<K, V, N>>)> = Vec::new();
    let (mut changed, mut short) = (false, false);
    let mut k = 0;
    while k < run.len() {
        let n = &**link;
        let i = n.route_by(run[k].probe_code(), |key| run[k].order(key));
        let end = match i + 1 < n.len {
            true => {
                let (code, sep) = (n.codes[i + 1], some(&n.keys[i + 1]));
                k + run[k..].partition_point(|e| below(e, code, sep))
            }
            false => run.len(),
        };
        let part = &mut run[k..end];
        let merged = match Arc::get_mut(link) {
            Some(n) => merge_node(n.kid_mut(i), part, f, grown),
            None => {
                let mut kid = link.kid_arc(i).clone();
                let merged = merge_node(&mut kid, part, f, grown);
                if merged.is_some() {
                    *Arc::make_mut(link).kid_mut(i) = kid;
                }
                merged
            }
        };
        if let Some(new) = merged {
            changed = true;
            short |= link.kid(i).is_short();
            if !new.is_empty() {
                sibs.push((i, new));
            }
        }
        k = end;
    }
    if !changed {
        return None;
    }
    if sibs.is_empty() && !short {
        return Some(Vec::new());
    }
    let n = Arc::get_mut(link).expect("a node that changed is this version's own");
    Some(n.rebuild(sibs))
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

    fn kid_arc(&self, i: usize) -> &Arc<Node<K, V, N>> {
        match &self.body {
            Body::Inner(kids) => some(&kids[i]),
            Body::Leaf(_) => unreachable!("an inner node's child"),
        }
    }

    fn val_mut(&mut self, i: usize) -> &mut V {
        match &mut self.body {
            Body::Leaf(vals) => vals[i].as_mut().expect("a slot in use"),
            Body::Inner(_) => unreachable!("a leaf's value"),
        }
    }

    fn set_val(&mut self, i: usize, value: V) {
        match &mut self.body {
            Body::Leaf(vals) => vals[i] = Some(value),
            Body::Inner(_) => unreachable!("a leaf's value"),
        }
    }

    fn kid_mut(&mut self, i: usize) -> &mut Arc<Node<K, V, N>> {
        match &mut self.body {
            Body::Inner(kids) => kids[i].as_mut().expect("a slot in use"),
            Body::Leaf(_) => unreachable!("an inner node's child"),
        }
    }

    /// Where the key `order` places is among the keys of a leaf, looked
    /// for from slot `from` on: `Ok(i)` at slot `i`, or `Err(i)` when the
    /// keys before slot `i` are the smaller ones. `order(k)` says how `k`
    /// orders against the key; the codes say it alone unless some tie with
    /// `code`, and only those keys are asked about.
    #[inline]
    fn seek(&self, from: usize, code: u64, order: impl Fn(&K) -> Ordering) -> Result<usize, usize> {
        let mut i = from;
        while i < self.len && self.codes[i] < code {
            i += 1;
        }
        while i < self.len && self.codes[i] == code {
            match order(some(&self.keys[i])) {
                Ordering::Less => i += 1,
                Ordering::Equal => return Ok(i),
                Ordering::Greater => break,
            }
        }
        Err(i)
    }

    /// The child of an inner node that holds the key `order` places if
    /// anything does.
    #[inline]
    fn route_by(&self, code: u64, order: impl Fn(&K) -> Ordering) -> usize {
        match self.seek(1, code, order) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Fewer slots than a node other than the root may hold: [`MIN`], and
    /// for an inner node two (a node of `N < 8` slots has a `MIN` of one).
    fn is_short(&self) -> bool {
        match self.is_leaf() {
            true => self.len < Self::MIN,
            false => self.len < Self::MIN.max(2),
        }
    }

    /// The slots a merge left this inner node with, once the nodes the
    /// merge made are in after the children they came out of (`sibs`, by
    /// child) and every short child is refilled: dealt into this node and
    /// as many more as they need, which are returned.
    fn rebuild(&mut self, sibs: Vec<(usize, Vec<Sib<K, V, N>>)>) -> Vec<Sib<K, V, N>> {
        let mut sibs = sibs.into_iter().peekable();
        let mut slots = Vec::with_capacity(self.len + N);
        for (i, slot) in self.take_slots().into_iter().enumerate() {
            slots.push(slot);
            if let Some((_, new)) = sibs.next_if(|(at, _)| *at == i) {
                slots.extend(new.into_iter().map(|(c, k, n)| (c, Some(k), Slot::Kid(n))));
            }
        }
        even_short(&mut slots);
        self.deal(slots)
    }

    /// Even out every short child of this inner node with a neighbour. A
    /// merge can leave a node with one child that is short, and so with no
    /// neighbour to even it out with, until its parent makes it one with a
    /// neighbour of its own: then the child has neighbours.
    fn settle_kids(&mut self) {
        if self.is_leaf() || !(0..self.len).any(|i| self.kid(i).is_short()) {
            return;
        }
        let mut slots = self.take_slots();
        even_short(&mut slots);
        let more = self.deal(slots);
        debug_assert!(more.is_empty(), "evening out adds no slots");
    }

    /// A merge's insert at slot `i` of this full leaf, `entry`, and the
    /// rest of the run after it: the leaf's entries with all of it merged
    /// in, dealt out ([`Node::deal`]).
    fn overfill<E: Edit<K>>(
        &mut self,
        i: usize,
        entry: Entry<K, V>,
        rest: &mut [E],
        f: Step<'_, K, V, E>,
        grown: &mut isize,
    ) -> Vec<Sib<K, V, N>> {
        let mut entries: Vec<Entry<K, V>> = (self.take_slots().into_iter())
            .map(|(code, key, slot)| match (key, slot) {
                (Some(key), Slot::Val(v)) => (code, key, v),
                _ => unreachable!("a leaf's entry"),
            })
            .collect();
        entries.insert(i, entry);
        let before = entries.len();
        let entries = merge_entries(entries.into_iter(), rest, f, &mut false);
        *grown += 1 + entries.len() as isize - before as isize;
        let slots = entries
            .into_iter()
            .map(|(c, k, v)| (c, Some(k), Slot::Val(v)));
        self.deal(slots.collect())
    }

    /// Every slot, taken out: the node is left empty.
    fn take_slots(&mut self) -> Vec<Taken<K, V, N>> {
        let len = std::mem::take(&mut self.len);
        let codes = std::mem::replace(&mut self.codes, [u64::MAX; N]);
        let keys = self.keys[..len].iter_mut().map(Option::take);
        let taken = codes.into_iter().zip(keys);
        match &mut self.body {
            Body::Leaf(vals) => (taken.zip(&mut vals[..len]))
                .map(|((c, k), v)| (c, k, Slot::Val(v.take().expect("a slot in use"))))
                .collect(),
            Body::Inner(kids) => (taken.zip(&mut kids[..len]))
                .map(|((c, k), n)| (c, k, Slot::Kid(n.take().expect("a slot in use"))))
                .collect(),
        }
    }

    /// Put `slots` into this node, which is empty, and as many more of its
    /// kind as they need, evenly — so none holds fewer than `N / 2` if they
    /// need two or more — and return the others. Slot 0 is this node's
    /// own: an inner node's has no key.
    fn deal(&mut self, slots: Vec<Taken<K, V, N>>) -> Vec<Sib<K, V, N>> {
        let (count, nodes) = (slots.len(), slots.len().div_ceil(N).max(1));
        let mut slots = slots.into_iter();
        let mut fill = |n: &mut Node<K, V, N>, size: usize| {
            for (j, (code, key, slot)) in slots.by_ref().take(size).enumerate() {
                n.put(j, code, key, slot);
            }
        };
        let size = |i: usize| count / nodes + usize::from(i < count % nodes);
        fill(self, size(0));
        (1..nodes)
            .map(|i| {
                let mut n = Node::empty(self.is_leaf());
                fill(&mut n, size(i));
                let (code, key) = n.separator();
                (code, key, Arc::new(n))
            })
            .collect()
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

/// Bring two neighbours, one of them short, back to at least `MIN` slots
/// each: `right` becomes part of `left` if the two fit in a node (`None`),
/// else they share their slots evenly, and the key that separates them now
/// is returned with its code. `code` and `key` separate them before.
fn even_out<K: Key, V: Clone + PartialEq, const N: usize>(
    left: &mut Node<K, V, N>,
    right: &mut Node<K, V, N>,
    code: u64,
    key: &K,
) -> Option<(u64, K)> {
    right.take_separator(code, key);
    if left.len + right.len <= N {
        left.append(right);
        return None;
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
    Some(right.separator())
}

/// Even out every short child among the slots of an inner node with a
/// neighbour ([`even_out`]), until none is short or one is left; each
/// node that evening out makes has its own children evened out too
/// ([`Node::settle_kids`]).
fn even_short<K: Key, V: Clone + PartialEq, const N: usize>(slots: &mut Vec<Taken<K, V, N>>) {
    let short = |slot: &Taken<K, V, N>| match &slot.2 {
        Slot::Kid(n) => n.is_short(),
        Slot::Val(_) => unreachable!("an inner node's child"),
    };
    let mut i = 0;
    while i < slots.len() && slots.len() > 1 {
        if !short(&slots[i]) {
            i += 1;
            continue;
        }
        let r = if i + 1 < slots.len() { i + 1 } else { i };
        let (lo, hi) = slots.split_at_mut(r);
        let (Slot::Kid(left), (code, key, Slot::Kid(right))) = (&mut lo[r - 1].2, &mut hi[0])
        else {
            unreachable!("an inner node's children")
        };
        let (left, right) = (Arc::make_mut(left), Arc::make_mut(right));
        match even_out(left, right, *code, key.as_ref().expect("a separator")) {
            // One node now, which may still be short.
            None => {
                left.settle_kids();
                slots.remove(r);
                i = r - 1;
            }
            // Two, either of which may be short again once its own
            // children are evened out.
            Some((c, k)) => {
                left.settle_kids();
                right.settle_kids();
                (*code, *key) = (c, Some(k));
                i = r - 1;
            }
        }
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
            .fold(OrdMap::new(), |m, k| with(&m, k, Some(())))
    }

    /// A clone of `m` with the entry for `key` set to `value`, `None`
    /// removing it: a persistent edit, which leaves `m` as it was.
    fn with<V: Clone + PartialEq, const N: usize>(
        m: &OrdMap<u64, V, N>,
        key: u64,
        value: Option<V>,
    ) -> OrdMap<u64, V, N> {
        let mut next = m.clone();
        next.set(&key, value);
        next
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

    /// The map's invariants ([`OrdMap::check_invariants`]); the height.
    fn check<V: Clone + PartialEq, const N: usize>(m: &OrdMap<u64, V, N>) -> usize {
        m.check_invariants()
    }

    /// `m` with `run` merged in: each key set to its value, or removed.
    fn merge<V: Clone + PartialEq, const N: usize>(
        m: &mut OrdMap<u64, V, N>,
        run: &[(u64, Option<V>)],
    ) {
        m.merge(&mut run.to_vec(), |(_, v), _| v.clone());
    }

    #[test]
    fn set_inserts_overwrites_and_removes() {
        let mut m: OrdMap<u64, i64> = OrdMap::new();
        assert!(m.set(&5, Some(1)));
        assert_eq!((m.len(), m.get(&5)), (1, Some(&1)));
        assert!(m.set(&5, Some(3)));
        assert_eq!((m.len(), m.get(&5)), (1, Some(&3)));
        assert!(!m.set(&5, Some(3)), "writing what is there");
        assert!(m.set(&5, None));
        assert!(m.is_empty() && m.get(&5).is_none());
        assert!(!m.set(&5, None), "removing the absent");
        assert!(m.is_empty());
        assert!(OrdMap::<u64, i64>::from_sorted([]).is_empty());
    }

    #[test]
    fn an_edit_that_changes_nothing_shares_the_whole_tree() {
        let m = set_of(0..100);
        let in_place = |keys: &[u64], keep: bool| {
            let mut same = m.clone();
            let run: Vec<(u64, Option<()>)> =
                keys.iter().map(|k| (*k, keep.then_some(()))).collect();
            merge(&mut same, &run);
            same
        };
        for same in [
            with(&m, 7, Some(())),
            with(&m, 1000, None),
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
            let edited = with(&m, k, insert.then_some(()));
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
        merge(
            &mut grown,
            &(2000..2010).map(|k| (k, Some(()))).collect::<Vec<_>>(),
        );
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
        let c = evens().fold(set_of(0..400), |m, k| with(&m, k + 1, None));
        // Built in one pass from the sorted run, and from two such runs by
        // edits in place: the other half added, every odd key taken out.
        let d = OrdMap::from_sorted(evens().map(|k| (k, ())));
        let mut e = OrdMap::from_sorted(evens().step_by(2).map(|k| (k, ())));
        let run: Vec<_> = evens().skip(1).step_by(2).map(|k| (k, Some(()))).collect();
        merge(&mut e, &run);
        let mut f = OrdMap::from_sorted((0..400).map(|k| (k, ())));
        merge(&mut f, &evens().map(|k| (k + 1, None)).collect::<Vec<_>>());
        // In place, through the same detour, one key a run, with an older
        // version kept every few steps so that some nodes are shared and
        // some are not.
        let mut g = OrdMap::new();
        let mut kept = Vec::new();
        for k in (0..400).rev() {
            merge(&mut g, &[(k, Some(()))]);
            if k % 7 == 0 {
                kept.push((k, g.clone()));
            }
        }
        for k in evens() {
            merge(&mut g, &[(k + 1, None)]);
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
        assert!(a != with(&with(&a, 0, None), 1000, Some(())));
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
        let mut run: Vec<(u64, ())> = (0..600).step_by(3).map(|k| (k, ())).collect();
        m.merge(&mut run, |(k, ()), old| step(*k, old.map(|(_, c)| c)));
        check(&m);
        assert_eq!(
            entries(&old),
            before,
            "the older version still holds what it held"
        );
        assert_eq!(old.len(), 500);
        // What single edits give, entry by entry.
        let mut by_set = old.clone();
        for k in (0..600).step_by(3) {
            let value = step(k, by_set.get(&k));
            by_set.set(&k, value);
        }
        assert_eq!(entries(&m), entries(&by_set));
        assert_eq!(m.len(), by_set.len());
        // An edit that changes nothing leaves even a shared root shared.
        let shared = m.clone();
        let mut run = [(1, ()), (10_000, ())];
        m.merge(&mut run, |(k, ()), old| (*k == 1).then(|| *old.unwrap().1));
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
                m = with(&m, k, value);
            } else {
                merge(&mut m, &[(k, value)]);
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
    fn random_runs_keep_the_invariants_on_shared_and_unshared_versions() {
        random_runs::<4>();
        random_runs::<B>();
    }

    /// Runs of every length — up to several times a node's worth, so a
    /// leaf splits more than once in one merge, and whole ranges removed,
    /// so that it drains — on a map some of whose older versions are kept.
    fn random_runs<const N: usize>() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(47);
        let mut m: OrdMap<u64, u64, N> = OrdMap::new();
        let mut model = std::collections::BTreeMap::new();
        let mut kept = Vec::new();
        for step in 0..1_500u64 {
            let (from, width) = (rng.random_range(0..400u64), rng.random_range(1..200u64));
            let drain = step % 100 == 99;
            let mut run: Vec<(u64, Option<u64>)> = Vec::new();
            for k in from..from + width {
                // Kept one in three, and two in three of those an insert
                // or overwrite; a removal of an absent key is a no-op.
                if drain || rng.random_range(0..3u8) == 0 {
                    run.push((k, (!drain && rng.random_range(0..3u8) > 0).then_some(step)));
                }
            }
            let mut seen = Vec::new();
            m.merge(&mut run, |(k, v), old| {
                seen.push((*k, old.map(|(k, v)| (*k, *v))));
                *v
            });
            let want: Vec<_> = run
                .iter()
                .map(|(k, _)| (*k, model.get(k).map(|v| (*k, *v))))
                .collect();
            assert_eq!(seen, want, "each edit sees its entry, once, in order");
            for (k, v) in run {
                match v {
                    Some(v) => model.insert(k, v),
                    None => model.remove(&k),
                };
            }
            check(&m);
            assert_eq!(
                entries(&m),
                model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
            );
            if step % 7 == 0 {
                kept.push((m.clone(), model.clone()));
            }
            if drain {
                let all: Vec<_> = model.keys().map(|k| (*k, None)).collect();
                merge(&mut m, &all);
                model.clear();
                assert!(m.is_empty() && check(&m) == 0);
            }
        }
        for (m, model) in &kept {
            check(m);
            assert_eq!(
                entries(m),
                model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_run_that_overfills_a_leaf_deals_it_into_several() {
        // One leaf of four slots, then 40 keys into it in one merge: ten
        // leaves' worth, under a root that itself overfills.
        let mut m: OrdMap<u64, (), 4> = OrdMap::from_sorted((0..3).map(|k| (k * 100, ())));
        let run: Vec<(u64, Option<()>)> = (1..=40).map(|k| (k, Some(()))).collect();
        let kept = m.clone();
        merge(&mut m, &run);
        assert_eq!((m.len(), check(&m) >= 3), (43, true));
        assert_eq!(kept.len(), 3);
        let mut tree: OrdMap<u64, (), 4> = OrdMap::new();
        merge(
            &mut tree,
            &(0..10).map(|k| (k * 100, Some(()))).collect::<Vec<_>>(),
        );
        let kept = tree.clone();
        merge(&mut tree, &run);
        check(&tree);
        assert_eq!((tree.len(), entries(&kept).len()), (50, 10));
    }

    #[test]
    fn a_small_map_is_one_run_copied_whole() {
        let full = OrdMap::<u64, ()>::from_sorted((0..B as u64).map(|k| (k, ())));
        assert!(matches!(full.root, Some(Root::Run(_))) && check(&full) == 1);
        // A persistent edit copies the run, and the older version keeps its
        // own; past `B` entries the map becomes a tree.
        let less = with(&full, 3, None);
        let more = with(&full, 100, Some(()));
        assert!(matches!(less.root, Some(Root::Run(_))) && check(&less) == 1);
        assert!(matches!(more.root, Some(Root::Tree(_))) && check(&more) == 2);
        assert_eq!(entries(&full).len(), B);
        assert!(nodes(&less)[0] != nodes(&full)[0]);
        // Merged into a shared run: a new run, the older version untouched;
        // past `B` entries, a tree.
        let mut mine = full.clone();
        merge(&mut mine, &[(5, None)]);
        assert!(matches!(mine.root, Some(Root::Run(_))) && !share_root(&mine, &full));
        assert_eq!((full.len(), mine.len()), (B, B - 1));
        merge(&mut mine, &[(5, Some(())), (500, Some(()))]);
        assert!(matches!(mine.root, Some(Root::Tree(_))) && check(&mine) == 2);
        assert_eq!((full.len(), mine.len()), (B, B + 1));
        // A shared run that a merge leaves as it was is kept.
        let mut alone: OrdMap<u64, u64> = OrdMap::from_sorted((0..3).map(|k| (k, k)));
        let held = alone.clone();
        let before = nodes(&alone);
        merge(&mut alone, &[(1, Some(1))]);
        assert_eq!(nodes(&alone), before);
        // A run this version alone holds becomes a leaf with room, where an
        // overwrite and an insert stay in place.
        drop(held);
        merge(&mut alone, &[(1, Some(10))]);
        assert!(matches!(alone.root, Some(Root::Tree(_))) && check(&alone) == 1);
        let before = nodes(&alone);
        merge(&mut alone, &[(2, Some(20)), (7, Some(7))]);
        assert_eq!(nodes(&alone), before);
        assert_eq!(entries(&alone), [(0, 0), (1, 10), (2, 20), (7, 7)]);
        // A leaf and a run that hold the same entries are equal.
        let leaf = with(&set_of(0..B as u64 + 1), 16, None);
        assert!(matches!(leaf.root, Some(Root::Tree(_))) && check(&leaf) == 2);
        let mut small = set_of(0..B as u64 + 1);
        merge(&mut small, &(4..=16).map(|k| (k, None)).collect::<Vec<_>>());
        assert!(matches!(small.root, Some(Root::Tree(_))) && check(&small) == 1);
        let run = OrdMap::from_sorted((0..4).map(|k| (k, ())));
        assert!(matches!(run.root, Some(Root::Run(_))) && run == small);
        assert_ne!(run, with(&small, 2, None));
        for k in [0, 1, 2, 3] {
            merge(&mut small, &[(k, None)]);
            check(&small);
        }
        assert!(small.is_empty() && small.root.is_none());
    }

    #[test]
    fn a_set_keeps_a_small_map_one_run_and_edits_a_tree_in_place() {
        // A run takes an edit as a run at its new size; an overwrite of a
        // run this version alone holds stays where it is; a shared one is
        // copied and the other version keeps its own.
        let mut m: OrdMap<u64, u64> = OrdMap::new();
        assert!(m.set(&5, Some(5)) && m.set(&3, Some(3)) && !m.set(&9, None));
        assert!(matches!(m.root, Some(Root::Run(_))) && check(&m) == 1);
        let before = nodes(&m);
        assert!(m.set(&3, Some(30)) && !m.set(&3, Some(30)));
        assert_eq!(nodes(&m), before);
        let held = m.clone();
        assert!(m.set(&5, Some(50)) && m.set(&3, None));
        assert_eq!(
            (entries(&held), entries(&m)),
            (vec![(3, 30), (5, 5)], vec![(5, 50)])
        );
        // Past `N` entries a tree, which takes each edit in place.
        for k in 0..=B as u64 {
            m.set(&k, Some(k));
        }
        assert!(matches!(m.root, Some(Root::Tree(_))) && check(&m) == 2);
        let before = nodes(&m);
        assert!(m.set(&7, Some(70)) && m.set(&8, None));
        assert_eq!(nodes(&m), before);
        assert!(m.get_mut(&8).is_none() && m.get_mut(&7).is_some());
        assert_eq!(entries(&held), [(3, 30), (5, 5)]);
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
                    merge(&mut m, &[(k, Some(k))]);
                }
                let mut kept = vec![(m.clone(), entries(&m))];
                for k in &order {
                    if in_place {
                        merge(&mut m, &[(*k, None)]);
                    } else {
                        m = with(&m, *k, None);
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
            m = with(&m, k, Some(()));
        }
        for k in (1..=5).rev() {
            m = with(&m, k, None);
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
