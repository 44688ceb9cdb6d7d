//! Ground tuples.

use std::fmt;
use std::sync::Arc;
use td_core::Value;

/// A ground database tuple: an immutable, cheaply clonable vector of values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(values.into())
    }

    /// The empty (zero-ary) tuple.
    pub fn unit() -> Tuple {
        Tuple(Vec::new().into())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field access.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The tuple with its columns in `order`: what an arrangement of a
    /// relation stores in place of the tuple (see
    /// [`crate::Database::arrangement`]).
    pub fn permuted(&self, order: &[usize]) -> Tuple {
        order.iter().map(|&c| self.0[c]).collect()
    }

    /// True if the tuple matches a binding pattern: `pattern[i]` of `None`
    /// matches anything; `Some(v)` must equal the field.
    pub fn matches(&self, pattern: &[Option<Value>]) -> bool {
        debug_assert_eq!(pattern.len(), self.0.len());
        pattern
            .iter()
            .zip(self.0.iter())
            .all(|(p, v)| p.is_none_or(|pv| pv == *v))
    }
}

/// Collects straight into the shared slice: one allocation when the
/// iterator knows its length, where [`Tuple::new`] copies out of a `Vec`.
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Convenience: build a tuple from displayable pieces.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$(::td_core::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::new(vec![Value::sym("a"), Value::Int(3)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.values()[1], Value::Int(3));
    }

    #[test]
    fn unit_tuple() {
        assert_eq!(Tuple::unit().arity(), 0);
        assert_eq!(Tuple::unit(), Tuple::new(vec![]));
    }

    #[test]
    fn pattern_matching() {
        let t = tuple!("w1", 7);
        assert!(t.matches(&[None, None]));
        assert!(t.matches(&[Some(Value::sym("w1")), None]));
        assert!(t.matches(&[Some(Value::sym("w1")), Some(Value::Int(7))]));
        assert!(!t.matches(&[Some(Value::sym("w2")), None]));
        assert!(!t.matches(&[None, Some(Value::Int(8))]));
    }

    #[test]
    fn display() {
        assert_eq!(tuple!("a", 1).to_string(), "(a, 1)");
        assert_eq!(Tuple::unit().to_string(), "()");
    }

    #[test]
    fn macro_accepts_mixed_types() {
        let t = tuple!("x", 5, "y");
        assert_eq!(t.arity(), 3);
        assert_eq!(t.values()[0], Value::sym("x"));
        assert_eq!(t.values()[1], Value::Int(5));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple!(1, 2) < tuple!(1, 3));
        assert!(tuple!(1) < tuple!(1, 0));
    }
}
