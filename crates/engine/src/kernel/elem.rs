//! Elementary operations of the transition relation — base-relation
//! queries, absence tests, `ins`/`del` updates, and builtins. These are
//! the leaves both drivers must execute identically; each helper carries
//! the semantics (including the exact failure/fault split) once.

use super::Hooks;
use crate::config::EngineError;
use td_core::goal::Builtin;
use td_core::unify::unify_terms;
use td_core::{Atom, Bindings, Term, Value, Var};
use td_db::{Database, DeltaOp, Tuple, Undo};

// Every elementary operation reads its atom's arguments through `resolve`:
// the machine passes its trail's after the leaf's offset, the ground drivers
// the offset alone. So no step builds a renamed or resolved copy of the atom
// it executes — only the tuple an update stores or a test probes, or, when a
// fault is reported or a trace recorded, the resolved atom itself. The
// primitives that bind (`bind_tuple`, `eval_builtin`) take the offset.

/// An atom's arguments under `resolve`.
pub(crate) fn resolve_atom(atom: &Atom, resolve: impl Fn(Term) -> Term) -> Atom {
    Atom {
        pred: atom.pred,
        args: atom.args.iter().map(|t| resolve(*t)).collect(),
    }
}

/// The tuple of an atom's values under `resolve`, built in one allocation;
/// `None` when an argument is unbound.
fn ground_tuple(atom: &Atom, resolve: impl Fn(Term) -> Term) -> Option<Tuple> {
    let value = |t: &Term| resolve(*t).as_value();
    let ground = atom.args.iter().all(|t| value(t).is_some());
    ground.then(|| {
        atom.args
            .iter()
            .map(|t| value(t).expect("ground"))
            .collect()
    })
}

/// Tuples of `db` matching the query atom's bound positions: a range probe
/// on the leading bound arguments, the later ones filtered per candidate.
/// Tuples come in sorted (lexicographic) order — the engine's canonical
/// exploration order, the same as [`td_db::Relation::select`]'s. An
/// undeclared relation has no tuples.
pub(crate) fn matching_tuples(
    db: &Database,
    atom: &Atom,
    resolve: impl Fn(Term) -> Term,
) -> Vec<Tuple> {
    let Some(rel) = db.relation(atom.pred) else {
        return Vec::new();
    };
    let value = |i: usize| resolve(atom.args[i]).as_value();
    let bound = (0..atom.args.len())
        .take_while(|&i| value(i).is_some())
        .count();
    let mut out = Vec::new();
    let prefix = || (0..bound).map(|i| value(i).expect("bound"));
    rel.for_each_with_prefix(prefix, |t| {
        let mut rest = t.values().iter().enumerate().skip(bound);
        if rest.all(|(i, v)| value(i).is_none_or(|w| w == *v)) {
            out.push(t.clone());
        }
    });
    out
}

/// Unify a query atom's arguments, read at offset `off`, with a tuple.
/// Returns false on clash (possible with repeated variables, e.g.
/// `p(X, X)`); the caller's choicepoint mark cleans up partial bindings.
pub(crate) fn bind_tuple(
    bindings: &mut Bindings,
    (atom, off): (&Atom, u32),
    tuple: &Tuple,
) -> bool {
    atom.args
        .iter()
        .zip(tuple.values())
        .all(|(arg, val)| unify_terms(bindings, arg.offset(off), Term::Val(*val)))
}

/// The elementary `not p(t̄)` test. `Ok(true)` = the (ground) atom is
/// absent and the step proceeds; `Ok(false)` = present, the step fails;
/// `Err` = the atom is non-ground, a fault in both drivers.
pub(crate) fn check_absent(
    db: &Database,
    atom: &Atom,
    resolve: impl Fn(Term) -> Term,
) -> Result<bool, EngineError> {
    let Some(t) = ground_tuple(atom, &resolve) else {
        return Err(EngineError::Instantiation {
            context: format!("not {}", resolve_atom(atom, resolve)),
        });
    };
    Ok(!db.contains(atom.pred, &t))
}

/// The elementary `ins.p(t̄)` / `del.p(t̄)` step, on `db` in place
/// ([`Database::insert_mut`]): the delta op recording the update, and how
/// to take it back when it changed the database (`None` when it did not).
/// The sequential machine logs the two; a driver that keeps every
/// configuration passes a clone and drops the undo. Non-ground arguments
/// and storage errors are faults, not failures.
pub(crate) fn apply_update(
    db: &mut Database,
    atom: &Atom,
    resolve: impl Fn(Term) -> Term,
    is_ins: bool,
) -> Result<(DeltaOp, Option<Undo>), EngineError> {
    let Some(t) = ground_tuple(atom, &resolve) else {
        return Err(EngineError::Instantiation {
            context: format!("update on {}", resolve_atom(atom, resolve)),
        });
    };
    let op = match is_ins {
        true => DeltaOp::Ins(atom.pred, t),
        false => DeltaOp::Del(atom.pred, t),
    };
    let undo = op
        .apply_mut(db)
        .map_err(|e| EngineError::Db(e.to_string()))?;
    Ok((op, undo))
}

/// The `ins`/`del` step as every driver takes it: [`apply_update`], charged
/// to `hooks` as one database op. Views need nothing here: an edit of a
/// version they were derived from makes its successor, which carries them,
/// pending on the nearest version that has them.
pub(crate) fn update(
    db: &mut Database,
    atom: &Atom,
    resolve: impl Fn(Term) -> Term,
    is_ins: bool,
    hooks: &mut Hooks<'_>,
) -> Result<(DeltaOp, Option<Undo>), EngineError> {
    let stepped = apply_update(db, atom, resolve, is_ins)?;
    hooks.stats.db_ops += 1;
    Ok(stepped)
}

/// Evaluate a builtin on the machine's shared trail: resolve the arguments
/// (read at offset `off`), take the verdict of [`eval_ground_builtin`], bind
/// through the trail. `Ok(true)` = succeeds (possibly binding), `Ok(false)`
/// = fails, `Err` = fatal (instantiation/type/overflow).
pub(crate) fn eval_builtin(
    bindings: &mut Bindings,
    op: Builtin,
    (terms, off): (&[Term], u32),
) -> Result<bool, EngineError> {
    let resolved = builtin_args(terms, |t| bindings.resolve(t.offset(off)));
    Ok(match eval_ground_builtin(op, &resolved[..terms.len()])? {
        BuiltinOut::Fails => false,
        BuiltinOut::Succeeds => true,
        BuiltinOut::Binds(v, t) => unify_terms(bindings, Term::Var(v), t),
    })
}

/// A builtin's arguments under `resolve`, on the stack: at most three
/// ([`Builtin::arity`]), the rest of the array unused.
pub(crate) fn builtin_args(terms: &[Term], resolve: impl Fn(Term) -> Term) -> [Term; 3] {
    let mut resolved = [Term::int(0); 3];
    for (r, t) in resolved.iter_mut().zip(terms) {
        *r = resolve(*t);
    }
    resolved
}

/// The outcome of a builtin evaluation, for the caller to apply to whatever
/// holds its bindings (a trail, a structural substitution, a register).
pub(crate) enum BuiltinOut {
    Fails,
    Succeeds,
    Binds(Var, Term),
}

/// The semantics of the builtins, fail/fault split included, over resolved
/// arguments: comparisons demand ground integers; `=` may bind one free
/// variable; arithmetic may bind its output. Every driver evaluates through
/// here ([`eval_builtin`] for the machine's trail, the explicit-state search
/// directly), and so does the `builtin` instruction of the Datalog circuit's
/// join plans (`incremental::plan`), which read the arguments from registers
/// and treat every `Err` as a silent no-match.
pub(crate) fn eval_ground_builtin(op: Builtin, terms: &[Term]) -> Result<BuiltinOut, EngineError> {
    let ground_int = |t: Term| -> Result<i64, EngineError> {
        match t {
            Term::Val(Value::Int(i)) => Ok(i),
            Term::Val(v) => Err(EngineError::Type {
                context: format!("`{v}` is not an integer in `{}`", op.op_str()),
            }),
            Term::Var(v) => Err(EngineError::Instantiation {
                context: format!("`{v}` in `{}`", op.op_str()),
            }),
        }
    };
    match op {
        Builtin::Eq => match (terms[0], terms[1]) {
            (Term::Val(a), Term::Val(b)) => Ok(if a == b {
                BuiltinOut::Succeeds
            } else {
                BuiltinOut::Fails
            }),
            (Term::Var(v), t @ Term::Val(_)) | (t @ Term::Val(_), Term::Var(v)) => {
                Ok(BuiltinOut::Binds(v, t))
            }
            (Term::Var(a), Term::Var(b)) => {
                if a == b {
                    Ok(BuiltinOut::Succeeds)
                } else {
                    Ok(BuiltinOut::Binds(a, Term::Var(b)))
                }
            }
        },
        Builtin::Ne => match (terms[0], terms[1]) {
            (Term::Val(a), Term::Val(b)) => Ok(if a != b {
                BuiltinOut::Succeeds
            } else {
                BuiltinOut::Fails
            }),
            (a, b) => Err(EngineError::Instantiation {
                context: format!("`{a} != {b}`"),
            }),
        },
        Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => {
            let a = ground_int(terms[0])?;
            let b = ground_int(terms[1])?;
            let ok = match op {
                Builtin::Lt => a < b,
                Builtin::Le => a <= b,
                Builtin::Gt => a > b,
                Builtin::Ge => a >= b,
                _ => unreachable!(),
            };
            Ok(if ok {
                BuiltinOut::Succeeds
            } else {
                BuiltinOut::Fails
            })
        }
        Builtin::Add | Builtin::Sub | Builtin::Mul => {
            let a = ground_int(terms[0])?;
            let b = ground_int(terms[1])?;
            let r = match op {
                Builtin::Add => a.checked_add(b),
                Builtin::Sub => a.checked_sub(b),
                Builtin::Mul => a.checked_mul(b),
                _ => unreachable!(),
            }
            .ok_or_else(|| EngineError::Overflow {
                context: format!("{a} {} {b}", op.op_str()),
            })?;
            match terms[2] {
                Term::Var(v) => Ok(BuiltinOut::Binds(v, Term::int(r))),
                Term::Val(c) => Ok(if c == Value::Int(r) {
                    BuiltinOut::Succeeds
                } else {
                    BuiltinOut::Fails
                }),
            }
        }
    }
}
