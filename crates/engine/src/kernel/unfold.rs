//! Rule unfolding on the machine's shared trail. The ground backends'
//! structural counterpart lives in [`super::ground`] (a renamed rule body
//! is unified through [`super::unify_project`]); both match a call against
//! a head through [`unify_head`].

use super::Hooks;
use td_core::unify::unify_terms;
use td_core::{Atom, Bindings, Goal, Program, Rule, RuleId};

/// Unify a call's arguments with `rule`'s head renamed apart by `offset`,
/// argument by argument as each is renamed: no renamed head is built.
/// False on clash, possibly leaving partial bindings (see
/// [`unify_terms`]).
pub(crate) fn unify_head(b: &mut Bindings, call: &Atom, rule: &Rule, offset: u32) -> bool {
    let head = rule.head_args(offset);
    head.len() == call.args.len()
        && call
            .args
            .iter()
            .zip(head)
            .all(|(a, h)| unify_terms(b, *a, h))
}

/// Rename `rule_id` apart from the trail's high-water mark and unify its
/// head with the call. Returns the renamed body on success — built once,
/// and only then — charging the unfold to `hooks`; trail cleanup on failure
/// is the caller's choicepoint discipline, like every trail-side primitive.
pub(crate) fn unfold_trail(
    program: &Program,
    bindings: &mut Bindings,
    atom: &Atom,
    rule_id: RuleId,
    hooks: &mut Hooks<'_>,
) -> Option<Goal> {
    let rule = program.rule(rule_id);
    let base = bindings.alloc(rule.num_vars());
    if !unify_head(bindings, atom, rule, base) {
        return None;
    }
    hooks.stats.unfolds += 1;
    hooks.local.observe_unfold(rule_id);
    Some(rule.rename_apart(base))
}
