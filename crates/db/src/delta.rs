//! Update logs (deltas).
//!
//! The engine and the workflow monitor record the elementary updates an
//! execution performs — the paper emphasizes "monitoring, tracking and
//! querying the status of workflow activities" (§3, citing \[36, 42, 26\]).
//! A [`Delta`] is that record: an ordered log of applied `ins`/`del`
//! operations that can be replayed onto a database.

use crate::database::{Database, DbError};
use crate::tuple::Tuple;
use std::fmt;
use td_core::Pred;

/// One applied elementary update.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeltaOp {
    /// Tuple was inserted (and was previously absent).
    Ins(Pred, Tuple),
    /// Tuple was deleted (and was previously present).
    Del(Pred, Tuple),
}

impl DeltaOp {
    /// Apply to a database.
    pub fn apply(&self, db: &Database) -> Result<Database, DbError> {
        match self {
            DeltaOp::Ins(p, t) => Ok(db.insert(*p, t)?.0),
            DeltaOp::Del(p, t) => Ok(db.delete(*p, t)?.0),
        }
    }
}

impl fmt::Display for DeltaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaOp::Ins(p, t) => write!(f, "ins.{}{}", p.name, t),
            DeltaOp::Del(p, t) => write!(f, "del.{}{}", p.name, t),
        }
    }
}

/// An ordered log of applied updates.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// Empty log.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// Record an operation.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// The recorded operations, oldest first.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replay the log onto `db`, oldest first.
    pub fn replay(&self, db: &Database) -> Result<Database, DbError> {
        let mut cur = db.clone();
        for op in &self.ops {
            cur = op.apply(&cur)?;
        }
        Ok(cur)
    }
}

impl FromIterator<DeltaOp> for Delta {
    fn from_iter<I: IntoIterator<Item = DeltaOp>>(ops: I) -> Delta {
        Delta {
            ops: ops.into_iter().collect(),
        }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn p(name: &str, arity: u32) -> Pred {
        Pred::new(name, arity)
    }

    #[test]
    fn replay_applies_the_ops_oldest_first() {
        let ops = [
            DeltaOp::Ins(p("a", 1), tuple!(1)),
            DeltaOp::Ins(p("a", 1), tuple!(2)),
            DeltaOp::Del(p("a", 1), tuple!(1)),
        ];
        let delta: Delta = ops.iter().cloned().collect();
        assert_eq!(delta.ops(), ops);
        let d1 = delta.replay(&Database::new()).unwrap();
        assert!(d1.contains(p("a", 1), &tuple!(2)));
        assert!(!d1.contains(p("a", 1), &tuple!(1)));
    }

    #[test]
    fn display_renders_ops() {
        let mut d = Delta::new();
        d.push(DeltaOp::Ins(p("item", 1), tuple!("w1")));
        d.push(DeltaOp::Del(p("busy", 2), tuple!("a1", "t2")));
        assert_eq!(d.to_string(), "[ins.item(w1), del.busy(a1, t2)]");
    }
}
