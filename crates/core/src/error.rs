//! Error types for program construction and validation.

use crate::atom::Pred;
use crate::symbol::Symbol;
use crate::validate::AtomLeaf;
use std::fmt;

/// Result alias for core operations.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors raised while building or validating TD programs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoreError {
    /// The same predicate name is used with two different arities in a
    /// context where that is disallowed (base-predicate declarations).
    ArityMismatch {
        name: Symbol,
        expected: u32,
        found: u32,
    },
    /// A rule's head predicate is declared as a base predicate; base
    /// predicates may only be changed by `ins`/`del`.
    HeadIsBase { pred: Pred },
    /// `ins`/`del` applied to a predicate that is not a declared base
    /// predicate (e.g. a derived predicate or an undeclared name).
    UpdateOnNonBase { pred: Pred },
    /// `ins`/`del` applied to an event relation. Event relations are
    /// append-only: tuples arrive solely through the server's event
    /// ingestion surface, never from transaction bodies.
    UpdateOnEvent { pred: Pred },
    /// A trigger pattern leaf names a predicate that is not a declared
    /// event relation (the `pred` carries the *declared* arity as written
    /// in the pattern, without the timestamp column).
    NotAnEvent { pred: Pred },
    /// A trigger pattern has more leaves than the match automaton supports.
    PatternTooLarge { leaves: usize, max: usize },
    /// A `within` window bound must be a non-negative integer.
    NegativeWindow { bound: i64 },
    /// `not` applied to a non-base predicate.
    NegationOnNonBase { pred: Pred },
    /// An atom refers to a predicate that is neither base nor derived.
    UnknownPredicate { pred: Pred },
    /// A head variable does not occur in the rule body (range restriction /
    /// safety): such a rule could bind head arguments to arbitrary domain
    /// elements.
    UnsafeHeadVar { pred: Pred, var: Symbol },
    /// A builtin was constructed with the wrong number of arguments.
    BuiltinArity {
        op: &'static str,
        expected: usize,
        found: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "predicate `{name}` used with arity {found}, but declared with arity {expected}"
            ),
            CoreError::HeadIsBase { pred } => write!(
                f,
                "rule head `{pred}` is a base predicate; base relations change only via ins/del"
            ),
            CoreError::UpdateOnNonBase { pred } => write_leaf_error(f, AtomLeaf::Update, pred),
            CoreError::UpdateOnEvent { pred } => write!(
                f,
                "ins/del applied to event relation `{pred}`; event relations \
                 are append-only and change only via event ingestion"
            ),
            CoreError::NotAnEvent { pred } => write!(
                f,
                "trigger pattern atom `{pred}` does not name a declared event \
                 relation"
            ),
            CoreError::PatternTooLarge { leaves, max } => write!(
                f,
                "trigger pattern has {leaves} event atoms; at most {max} are \
                 supported"
            ),
            CoreError::NegativeWindow { bound } => {
                write!(f, "`within` bound must be non-negative, found {bound}")
            }
            CoreError::NegationOnNonBase { pred } => write_leaf_error(f, AtomLeaf::Not, pred),
            CoreError::UnknownPredicate { pred } => write_leaf_error(f, AtomLeaf::Call, pred),
            CoreError::UnsafeHeadVar { pred, var } => write!(
                f,
                "unsafe rule for `{pred}`: head variable `{var}` does not occur in the body"
            ),
            CoreError::BuiltinArity {
                op,
                expected,
                found,
            } => write!(
                f,
                "builtin `{op}` takes {expected} arguments, found {found}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// The error an atom leaf of kind `leaf` over a predicate no program has
/// raises, with the predicate shown as `pred`: the text of
/// `UnknownPredicate`, `NegationOnNonBase` and `UpdateOnNonBase`, shared
/// with [`crate::validate::unknown_name`], which has only the name's text.
pub(crate) fn write_leaf_error(
    f: &mut impl fmt::Write,
    leaf: AtomLeaf,
    pred: &dyn fmt::Display,
) -> fmt::Result {
    match leaf {
        AtomLeaf::Call => write!(
            f,
            "predicate `{pred}` is neither a base relation nor defined by any rule"
        ),
        AtomLeaf::Not => write!(f, "`not` applied to non-base predicate `{pred}`"),
        AtomLeaf::Update => write!(f, "ins/del applied to non-base predicate `{pred}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_readably() {
        let e = CoreError::UpdateOnNonBase {
            pred: Pred::new("workflow", 1),
        };
        assert_eq!(
            e.to_string(),
            "ins/del applied to non-base predicate `workflow/1`"
        );
        let e = CoreError::ArityMismatch {
            name: Symbol::intern("p"),
            expected: 2,
            found: 3,
        };
        assert!(e.to_string().contains("arity 3"));
        assert!(e.to_string().contains("arity 2"));
    }
}
