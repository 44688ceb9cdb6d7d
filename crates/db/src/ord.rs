//! The one persistent structure of this crate: an ordered map (treap) with
//! structural sharing between versions.
//!
//! The TD engine backtracks over database states constantly: every
//! choicepoint snapshots the database, and isolation blocks roll whole
//! sub-executions back. So a version must be a pointer copy and an update
//! must leave every older version valid: [`OrdMap::alter`] copies the
//! O(log n) nodes on the path to the key and shares the rest.
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

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn priority_of<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[derive(Debug)]
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
#[derive(Clone, Debug)]
pub struct OrdMap<K, V> {
    root: Link<K, V>,
    len: usize,
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
        let (mut had, mut has) = (false, false);
        let root = alter_node(&self.root, key, |old| {
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
    f: impl FnOnce(Option<&V>) -> Option<V>,
) -> Option<Link<K, V>> {
    let Some(n) = link else {
        let value = f(None)?;
        return Some(node(key.clone(), value, priority_of(key), None, None));
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
            let new_left = alter_node(&n.left, key, f)?;
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
            let new_right = alter_node(&n.right, key, f)?;
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
    }

    #[test]
    fn an_edit_that_changes_nothing_shares_the_whole_tree() {
        let m = set_of(0..100);
        for same in [m.alter(&7, |_| Some(())), m.alter(&1000, |_| None)] {
            assert_eq!(same.len(), 100);
            assert!(Arc::ptr_eq(
                same.root.as_ref().unwrap(),
                m.root.as_ref().unwrap()
            ));
        }
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
        let shapes: Vec<Vec<u64>> = [&a, &b, &c]
            .iter()
            .map(|m| {
                let mut out = Vec::new();
                pre_order(&m.root, &mut out);
                out
            })
            .collect();
        assert_eq!(shapes[0], shapes[1]);
        assert_eq!(shapes[0], shapes[2]);
        let mut in_order = Vec::new();
        a.for_each(|k, ()| in_order.push(*k));
        assert_eq!(in_order, evens().collect::<Vec<_>>());
        assert!(a == b && a == c);
        assert!(a != a.alter(&0, |_| None).alter(&1000, |_| Some(())));
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
