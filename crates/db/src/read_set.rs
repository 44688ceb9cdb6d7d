//! Read-set tracking for fine-grained OCC validation.
//!
//! A [`ReadSet`] records which relations a transaction's execution *looked
//! at* — base-predicate queries, absence tests, materialized-view probes
//! and cached-subgoal replays all contribute. The commit validator
//! (`td_store`'s `ConcurrentStore`) then revalidates only those
//! relations: an intervening committed writer conflicts with this
//! transaction only if it changed a relation the transaction read
//! (compared by per-relation digest, so a writer that restored identical
//! content does not conflict either).
//!
//! Soundness rests on two rules the engine upholds:
//!
//! 1. **Reads are recorded on every explored branch**, including failed
//!    ones, and are *never* rolled back on backtracking (unlike the delta
//!    and the trail). If every read relation is unchanged at commit time,
//!    re-running the goal at the head would reproduce the identical
//!    exploration, hence the identical witness and delta.
//! 2. **Writes are not reads.** `ins`/`del` have set semantics and their
//!    recorded delta is independent of the target relation's current
//!    content, so blind writes to unread relations replay identically at
//!    any head state.
//!
//! The `whole_db` marker is the conservative top element: it means "assume
//! everything was read" and forces whole-database digest validation. It is
//! used where per-relation capture is unavailable (hand-built deltas,
//! legacy callers).

use std::collections::BTreeSet;
use std::fmt;
use td_core::Pred;

/// The set of relations an execution read. See the module docs for the
/// semantics the engine guarantees when recording one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// Conservative top element: every relation is assumed read.
    all: bool,
    preds: BTreeSet<Pred>,
}

impl ReadSet {
    /// The empty read set (nothing read yet).
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    /// The conservative "everything was read" marker: validation must fall
    /// back to whole-database digest equality.
    pub fn whole_db() -> ReadSet {
        ReadSet {
            all: true,
            preds: BTreeSet::new(),
        }
    }

    /// Record a read of `pred`'s relation.
    pub fn record(&mut self, pred: Pred) {
        if !self.all {
            self.preds.insert(pred);
        }
    }

    /// Merge another read set into this one (set union; `whole_db`
    /// absorbs everything).
    pub fn merge(&mut self, other: &ReadSet) {
        if self.all {
            return;
        }
        if other.all {
            *self = ReadSet::whole_db();
            return;
        }
        self.preds.extend(other.preds.iter().copied());
    }

    /// Is this the conservative whole-database marker?
    pub fn is_whole_db(&self) -> bool {
        self.all
    }

    /// True when nothing was read (and this is not the whole-db marker) —
    /// such a transaction validates vacuously.
    pub fn is_empty(&self) -> bool {
        !self.all && self.preds.is_empty()
    }

    /// Number of distinct relations read (0 for the whole-db marker, which
    /// has no per-relation breakdown).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// The read relations, in sorted order. Empty for the whole-db marker.
    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.preds.iter().copied()
    }

    /// Was `pred` read? (Always true for the whole-db marker.)
    pub fn contains(&self, pred: Pred) -> bool {
        self.all || self.preds.contains(&pred)
    }
}

impl fmt::Display for ReadSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all {
            return write!(f, "*");
        }
        for (i, p) in self.preds.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Pred {
        Pred::new(name, 1)
    }

    #[test]
    fn record_and_contains() {
        let mut rs = ReadSet::new();
        assert!(rs.is_empty());
        rs.record(p("a"));
        rs.record(p("a"));
        assert_eq!(rs.len(), 1);
        assert!(rs.contains(p("a")));
        assert!(!rs.contains(p("b")));
    }

    #[test]
    fn whole_db_absorbs() {
        let mut rs = ReadSet::new();
        rs.record(p("a"));
        rs.merge(&ReadSet::whole_db());
        assert!(rs.is_whole_db());
        assert_eq!(rs.len(), 0);
        assert!(rs.contains(p("zzz")));
        let mut other = ReadSet::new();
        other.merge(&rs);
        assert!(other.is_whole_db());
    }

    #[test]
    fn merge_is_union() {
        let mut a = ReadSet::new();
        a.record(p("x"));
        let mut b = ReadSet::new();
        b.record(p("y"));
        a.merge(&b);
        assert!(a.contains(p("x")) && a.contains(p("y")));
        assert_eq!(a.len(), 2);
    }
}
