//! The one persistent structure of this crate: an ordered map (treap) with
//! structural sharing between versions.
//!
//! The TD engine backtracks over database states constantly: every
//! choicepoint snapshots the database, and isolation blocks roll whole
//! sub-executions back. So a version must be a pointer copy and an update
//! must leave every older version valid. [`OrdMap::alter`] makes a version
//! by copying the O(log n) nodes on the path to one key and sharing the
//! rest; [`OrdMap::from_sorted`] builds one from a sorted run in O(n).
//!
//! A version nobody else holds need not be copied at all:
//! [`OrdMap::alter_mut`] edits it in place, node by node, so a node that
//! another version can still see is copied — the older version keeps it as
//! it was — and a node only this version holds is written over. That is how
//! the Datalog circuit folds a round of derived facts into the state it
//! owns, one descent per fact.
//!
//! Keys are kept in order because the engine's hot path is selection with a
//! bound prefix of columns: tuples sort lexicographically, so all tuples
//! sharing a prefix are contiguous, and [`OrdMap::for_each_in_range`] reaches
//! them by binary descent instead of a scan. Both walks are plain recursion:
//! they allocate nothing.
//!
//! Priorities are derived by hashing the key, not drawn from an RNG, so a
//! given key set always produces one canonical tree shape regardless of
//! insertion order. That keeps the structure deterministic across engine
//! strategies and across threads of the parallel search backend.

use crate::sip::Sip;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A node's priority: the low lane of the crate's hash ([`Sip`]) of its
/// key, whose mixing the treap's depth bound rests on.
fn priority_of<K: Hash>(key: &K) -> u64 {
    let mut h = Sip::new();
    key.hash(&mut h);
    h.finish()
}

#[derive(Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prio: u64,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

/// A persistent sorted map. `clone()` is O(1); [`OrdMap::alter`] returns a
/// new version sharing all untouched structure with the original.
#[derive(Clone)]
pub struct OrdMap<K, V> {
    root: Link<K, V>,
    len: usize,
}

/// Printed as the map it holds, in key order, whatever the tree's shape.
impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for OrdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        in_order(&self.root, &mut |k, v| {
            map.entry(k, v);
        });
        map.finish()
    }
}

impl<K, V> Default for OrdMap<K, V> {
    fn default() -> OrdMap<K, V> {
        OrdMap { root: None, len: 0 }
    }
}

impl<K: Clone + Ord + Hash, V: Clone + PartialEq> OrdMap<K, V> {
    /// The empty map.
    pub fn new() -> OrdMap<K, V> {
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
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
                Ordering::Equal => return Some(&n.value),
            }
        }
        None
    }

    /// Set the entry for `key` to `f(current)`, where `None` stands for "no
    /// entry" on both sides: `|_| Some(v)` inserts or overwrites, `|_| None`
    /// removes, and a closure that looks at its argument updates in one
    /// descent. When `f` returns what is already there, the result shares
    /// the whole tree with `self` and nothing is allocated.
    pub fn alter(&self, key: &K, f: impl FnOnce(Option<&V>) -> Option<V>) -> OrdMap<K, V> {
        self.alter_with_priority(key, || priority_of(key), f)
    }

    /// [`OrdMap::alter`] for a caller that hashes `key` anyway: `priority`
    /// is called, at most once, when a node for `key` is made, and must
    /// return what the map would compute itself (the key's SipHash-1-3,
    /// the low lane of a tuple's digest member), so that the shape stays
    /// the canonical one.
    pub fn alter_with_priority(
        &self,
        key: &K,
        priority: impl FnOnce() -> u64,
        f: impl FnOnce(Option<&V>) -> Option<V>,
    ) -> OrdMap<K, V> {
        let (mut had, mut has) = (false, false);
        let root = alter_node(&self.root, key, priority, |old| {
            let new = f(old);
            (had, has) = (old.is_some(), new.is_some());
            new
        });
        match root {
            None => self.clone(),
            Some(root) => OrdMap {
                root,
                len: self.len + usize::from(has) - usize::from(had),
            },
        }
    }

    /// [`OrdMap::alter`] on this version itself, in one descent: the same
    /// entry and the same canonical shape, but the nodes on the path to
    /// `key` that this version alone holds are edited where they are. From
    /// the first node another version shares, the edit is
    /// [`OrdMap::alter`]'s, which copies the rest of the path if the entry
    /// changes and nothing if it does not.
    pub fn alter_mut(&mut self, key: &K, f: impl FnOnce(Option<&V>) -> Option<V>) {
        let (mut had, mut has) = (false, false);
        alter_mut_node(&mut self.root, key, |old| {
            let new = f(old);
            (had, has) = (old.is_some(), new.is_some());
            new
        });
        self.len = self.len + usize::from(has) - usize::from(had);
    }

    /// The map holding `run`, whose keys must be strictly increasing. O(n):
    /// one pass keeps the right spine of the tree built so far on a stack,
    /// and each key takes the spine nodes of lower priority as its left
    /// subtree — the shape inserting the keys one by one would give.
    pub fn from_sorted(run: impl IntoIterator<Item = (K, V)>) -> OrdMap<K, V> {
        // Spine nodes still waiting for their right child: (key, value,
        // priority, left child), priorities decreasing towards the top.
        let mut spine: Vec<(K, V, u64, Link<K, V>)> = Vec::new();
        let mut len = 0;
        for (key, value) in run {
            debug_assert!(spine.last().is_none_or(|top| top.0 < key), "run not sorted");
            let prio = priority_of(&key);
            let mut left = None;
            while spine.last().is_some_and(|top| top.2 < prio) {
                let (k, v, p, l) = spine.pop().expect("checked non-empty");
                left = node(k, v, p, l, left);
            }
            spine.push((key, value, prio, left));
            len += 1;
        }
        let mut root = None;
        while let Some((k, v, p, l)) = spine.pop() {
            root = node(k, v, p, l, root);
        }
        OrdMap { root, len }
    }

    /// Visit, in key order, every entry whose key the comparator maps to
    /// [`Ordering::Equal`]. The comparator must be monotone over the key
    /// order — `Less` for keys below the range, `Equal` inside it, `Greater`
    /// above it — which makes this a two-sided binary descent:
    /// O(log n + matches) rather than a scan.
    pub fn for_each_in_range(&self, cmp: impl Fn(&K) -> Ordering, mut f: impl FnMut(&K, &V)) {
        range_visit(&self.root, &cmp, &mut f);
    }

    /// Visit every entry in key order.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        in_order(&self.root, &mut f);
    }
}

/// Content equality. Versions that share their root are equal without a
/// walk; otherwise, sizes being equal, every entry of one is looked up in the
/// other (tree shape is not consulted, so a priority tie cannot forge a
/// difference).
impl<K: Clone + Ord + Hash, V: Clone + PartialEq> PartialEq for OrdMap<K, V> {
    fn eq(&self, other: &OrdMap<K, V>) -> bool {
        if self.len != other.len {
            return false;
        }
        match (&self.root, &other.root) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => true,
            _ => {
                let mut equal = true;
                self.for_each(|k, v| equal = equal && other.get(k) == Some(v));
                equal
            }
        }
    }
}

impl<K: Clone + Ord + Hash, V: Clone + Eq> Eq for OrdMap<K, V> {}

fn node<K, V>(key: K, value: V, prio: u64, left: Link<K, V>, right: Link<K, V>) -> Link<K, V> {
    Some(Arc::new(Node {
        key,
        value,
        prio,
        left,
        right,
    }))
}

/// A copy of `n` with other children.
fn with_children<K: Clone, V: Clone>(
    n: &Node<K, V>,
    left: Link<K, V>,
    right: Link<K, V>,
) -> Link<K, V> {
    node(n.key.clone(), n.value.clone(), n.prio, left, right)
}

/// Path-copying edit of one entry; `None` when `f` left the entry as it was.
fn alter_node<K: Clone + Ord + Hash, V: Clone + PartialEq>(
    link: &Link<K, V>,
    key: &K,
    priority: impl FnOnce() -> u64,
    f: impl FnOnce(Option<&V>) -> Option<V>,
) -> Option<Link<K, V>> {
    let Some(n) = link else {
        let value = f(None)?;
        let prio = priority();
        debug_assert_eq!(prio, priority_of(key), "not the key's priority");
        return Some(node(key.clone(), value, prio, None, None));
    };
    match key.cmp(&n.key) {
        Ordering::Equal => match f(Some(&n.value)) {
            None => Some(merge(&n.left, &n.right)),
            Some(value) if value == n.value => None,
            Some(value) => Some(node(
                n.key.clone(),
                value,
                n.prio,
                n.left.clone(),
                n.right.clone(),
            )),
        },
        Ordering::Less => {
            let new_left = alter_node(&n.left, key, priority, f)?;
            // Restore the heap property: a fresh leaf with a higher priority
            // rotates up (right rotation: the left child becomes the root).
            Some(match &new_left {
                Some(l) if l.prio > n.prio => {
                    let below = with_children(n, l.right.clone(), n.right.clone());
                    with_children(l, l.left.clone(), below)
                }
                _ => with_children(n, new_left, n.right.clone()),
            })
        }
        Ordering::Greater => {
            let new_right = alter_node(&n.right, key, priority, f)?;
            Some(match &new_right {
                Some(r) if r.prio > n.prio => {
                    let below = with_children(n, n.left.clone(), r.left.clone());
                    with_children(r, below, r.right.clone())
                }
                _ => with_children(n, n.left.clone(), new_right),
            })
        }
    }
}

/// [`alter_node`] in place, down the nodes no other version holds; the
/// persistent edit from the first one another does.
fn alter_mut_node<K: Clone + Ord + Hash, V: Clone + PartialEq>(
    link: &mut Link<K, V>,
    key: &K,
    f: impl FnOnce(Option<&V>) -> Option<V>,
) {
    let Some(held) = link else {
        if let Some(value) = f(None) {
            *link = node(key.clone(), value, priority_of(key), None, None);
        }
        return;
    };
    let Some(n) = Arc::get_mut(held) else {
        if let Some(copied) = alter_node(link, key, || priority_of(key), f) {
            *link = copied;
        }
        return;
    };
    match key.cmp(&n.key) {
        Ordering::Equal => match f(Some(&n.value)) {
            Some(value) => n.value = value,
            None => {
                let (left, right) = (n.left.take(), n.right.take());
                *link = merge_mut(left, right);
            }
        },
        // A fresh leaf with a higher priority rotates up, as in `alter_node`;
        // the child is this edit's own by then.
        Ordering::Less => {
            alter_mut_node(&mut n.left, key, f);
            if n.left.as_ref().is_some_and(|l| l.prio > n.prio) {
                let mut up = n.left.take().expect("checked");
                let u = Arc::make_mut(&mut up);
                n.left = u.right.take();
                u.right = link.take();
                *link = Some(up);
            }
        }
        Ordering::Greater => {
            alter_mut_node(&mut n.right, key, f);
            if n.right.as_ref().is_some_and(|r| r.prio > n.prio) {
                let mut up = n.right.take().expect("checked");
                let u = Arc::make_mut(&mut up);
                n.right = u.left.take();
                u.left = link.take();
                *link = Some(up);
            }
        }
    }
}

/// [`merge`] of two treaps this edit owns, in place where it holds the only
/// reference to a node.
fn merge_mut<K: Clone, V: Clone>(a: Link<K, V>, b: Link<K, V>) -> Link<K, V> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(mut x), Some(mut y)) => {
            if x.prio >= y.prio {
                let n = Arc::make_mut(&mut x);
                n.right = merge_mut(n.right.take(), Some(y));
                Some(x)
            } else {
                let n = Arc::make_mut(&mut y);
                n.left = merge_mut(Some(x), n.left.take());
                Some(y)
            }
        }
    }
}

/// Merge two treaps where every key of `a` precedes every key of `b`.
fn merge<K: Clone, V: Clone>(a: &Link<K, V>, b: &Link<K, V>) -> Link<K, V> {
    match (a, b) {
        (None, _) => b.clone(),
        (_, None) => a.clone(),
        (Some(x), Some(y)) => {
            if x.prio >= y.prio {
                with_children(x, x.left.clone(), merge(&x.right, b))
            } else {
                with_children(y, merge(a, &y.left), y.right.clone())
            }
        }
    }
}

fn in_order<K, V>(link: &Link<K, V>, f: &mut impl FnMut(&K, &V)) {
    if let Some(n) = link {
        in_order(&n.left, f);
        f(&n.key, &n.value);
        in_order(&n.right, f);
    }
}

fn range_visit<K, V>(link: &Link<K, V>, cmp: &impl Fn(&K) -> Ordering, f: &mut impl FnMut(&K, &V)) {
    if let Some(n) = link {
        match cmp(&n.key) {
            // Node below the range: everything left of it is below too.
            Ordering::Less => range_visit(&n.right, cmp, f),
            // Node above the range: prune the right subtree.
            Ordering::Greater => range_visit(&n.left, cmp, f),
            Ordering::Equal => {
                range_visit(&n.left, cmp, f);
                f(&n.key, &n.value);
                range_visit(&n.right, cmp, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(keys: impl IntoIterator<Item = u64>) -> OrdMap<u64, ()> {
        keys.into_iter()
            .fold(OrdMap::new(), |m, k| m.alter(&k, |_| Some(())))
    }

    fn same_link<K, V>(a: &Link<K, V>, b: &Link<K, V>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
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
            assert!(same_link(&same.root, &m.root));
        }
    }

    #[test]
    fn a_bulk_edit_shares_every_subtree_it_does_not_reach() {
        /// Every node of `link`, by address.
        fn nodes(link: &Link<u64, ()>, out: &mut Vec<*const Node<u64, ()>>) {
            if let Some(n) = link {
                out.push(Arc::as_ptr(n));
                nodes(&n.left, out);
                nodes(&n.right, out);
            }
        }
        let m = set_of(0..1000);
        // Ten keys past the end, in place on a version `m` still shares.
        let mut merged = m.clone();
        for k in 2000..2010 {
            merged.alter_mut(&k, |_| Some(()));
        }
        assert_eq!(merged.len(), 1010);
        let (mut old, mut new) = (Vec::new(), Vec::new());
        nodes(&m.root, &mut old);
        nodes(&merged.root, &mut new);
        let copied = new.iter().filter(|n| !old.contains(n)).count();
        // Ten new keys past the end: the right spine is copied (about
        // ln 1000 nodes) and every left subtree hanging off it is the old
        // one.
        assert!(copied < 10 + 40, "{copied} nodes not shared");
        // The old version still holds what it held.
        assert_eq!(m.len(), 1000);
        assert!(m.get(&2005).is_none() && merged.get(&2005).is_some());
    }

    #[test]
    fn shape_is_canonical_regardless_of_history() {
        fn pre_order(link: &Link<u64, ()>, out: &mut Vec<u64>) {
            if let Some(n) = link {
                out.push(n.key);
                pre_order(&n.left, out);
                pre_order(&n.right, out);
                // The heap property, checked on the way.
                for child in [&n.left, &n.right].into_iter().flatten() {
                    assert!(child.prio <= n.prio);
                }
            }
        }
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
        let shapes: Vec<Vec<u64>> = [&a, &b, &c, &d, &e, &f, &g]
            .iter()
            .map(|m| {
                let mut out = Vec::new();
                pre_order(&m.root, &mut out);
                out
            })
            .collect();
        for shape in &shapes[1..] {
            assert_eq!(&shapes[0], shape);
        }
        assert_eq!((d.len(), e.len(), f.len(), g.len()), (200, 200, 200, 200));
        for (from, m) in &kept {
            let mut keys = Vec::new();
            m.for_each(|k, ()| keys.push(*k));
            assert_eq!(keys, (*from..400).collect::<Vec<_>>());
        }
        let mut in_order = Vec::new();
        a.for_each(|k, ()| in_order.push(*k));
        assert_eq!(in_order, evens().collect::<Vec<_>>());
        assert!(a == b && a == c && a == d && a == e && a == f && a == g);
        assert!(a != a.alter(&0, |_| None).alter(&1000, |_| Some(())));
    }

    #[test]
    fn an_edit_in_place_leaves_every_older_clone_as_it_was() {
        let counts = |m: &OrdMap<u64, i64>| {
            let mut out = Vec::new();
            m.for_each(|k, v| out.push((*k, *v)));
            out
        };
        let mut m: OrdMap<u64, i64> = OrdMap::from_sorted((0..500).map(|k| (k, 1)));
        let old = m.clone();
        let before = counts(&old);
        for k in (0..600).step_by(3) {
            m.alter_mut(&k, |c| match c {
                Some(_) if k % 2 == 0 => None,
                Some(c) => Some(c + 1),
                None => Some(7),
            });
        }
        assert_eq!(
            counts(&old),
            before,
            "the older version still holds what it held"
        );
        assert_eq!(old.len(), 500);
        // What the persistent edits give, entry by entry and in shape.
        let mut by_alter = old.clone();
        for k in (0..600).step_by(3) {
            by_alter = by_alter.alter(&k, |c| match c {
                Some(_) if k % 2 == 0 => None,
                Some(c) => Some(c + 1),
                None => Some(7),
            });
        }
        assert_eq!(counts(&m), counts(&by_alter));
        assert_eq!(m.len(), by_alter.len());
        // An edit that changes nothing leaves even a shared root shared.
        let shared = m.clone();
        m.alter_mut(&1, |c| c.copied());
        m.alter_mut(&10_000, |_| None);
        assert!(same_link(&m.root, &shared.root));
    }

    #[test]
    fn range_probe_visits_exactly_the_range_in_order() {
        let m = (0..10u64)
            .flat_map(|a| (0..10u64).map(move |b| (a, b)))
            .fold(OrdMap::new(), |m, k| m.alter(&k, |_| Some(k.0 * k.1)));
        let mut seen = Vec::new();
        m.for_each_in_range(|&(a, _)| a.cmp(&4), |k, v| seen.push((*k, *v)));
        assert_eq!(seen, (0..10).map(|b| ((4, b), 4 * b)).collect::<Vec<_>>());
        seen.clear();
        m.for_each_in_range(|&(a, _)| a.cmp(&10), |k, v| seen.push((*k, *v)));
        assert!(seen.is_empty(), "a range between or past the keys is empty");
    }
}
