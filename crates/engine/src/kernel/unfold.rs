//! Rule unfolding on the machine's shared trail. The ground drivers'
//! structural counterpart lives in [`super::ground`] (a rule's template is
//! unified through [`super::unify_project`]); both match a call against a
//! head through [`unify_head`].
//!
//! A rule is renamed apart by an offset, never by a copy: the head is read
//! through it argument by argument, and the body is the rule's template
//! read at it (`crate::tree`), which the machine copies into its arena.

use super::Hooks;
use crate::compiled::Compiled;
use crate::tree::At;
use td_core::unify::unify_terms;
use td_core::{Atom, Bindings, Program, Rule, RuleId};

/// Unify a call's arguments, read at offset `call_off`, with `rule`'s head
/// renamed apart by `offset`, argument by argument: no renamed head is
/// built. False on clash, possibly leaving partial bindings (see
/// [`unify_terms`]).
pub(crate) fn unify_head(
    b: &mut Bindings,
    call: &Atom,
    call_off: u32,
    rule: &Rule,
    offset: u32,
) -> bool {
    let head = rule.head_args(offset);
    head.len() == call.args.len()
        && call
            .args
            .iter()
            .zip(head)
            .all(|(a, h)| unify_terms(b, a.offset(call_off), h))
}

/// Rename `rule_id` apart from the trail's high-water mark and unify its
/// head with the call (read at `call_off`). On success, charging the
/// unfold to `hooks`, the body: the rule's template read at that mark
/// (`None` inside for a `()` body). Trail cleanup on failure is the
/// caller's choicepoint discipline, like every trail-side primitive.
pub(crate) fn unfold_trail<'c>(
    program: &Program,
    compiled: &'c Compiled,
    bindings: &mut Bindings,
    (atom, call_off): (&Atom, u32),
    rule_id: RuleId,
    hooks: &mut Hooks<'_>,
) -> Option<Option<At<'c>>> {
    let rule = program.rule(rule_id);
    let base = bindings.alloc(rule.num_vars());
    if !unify_head(bindings, atom, call_off, rule, base) {
        return None;
    }
    hooks.stats.unfolds += 1;
    hooks.local.observe_unfold(rule_id);
    Some(compiled.body(program, rule_id).map(|body| (body, base)))
}
