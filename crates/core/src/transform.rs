//! Source-to-source transformations: goal normalization and predicate
//! inlining.
//!
//! These rewrites preserve *executability and final states* under TD's
//! all-or-nothing semantics. The equivalences are part of the language's
//! algebra (\[17, 20\]); nothing in the engine calls them, and the
//! property-based tests in `tests/semantics_properties.rs` and here use them
//! to build equivalent goals and programs and check the engine against
//! them.
//!
//! Key laws used by [`simplify`]:
//!
//! * `⊗`/`|` are associative with unit `()` (flattening, unit pruning);
//! * a composition containing `fail` is `fail` — **because transactions
//!   are all-or-nothing**: every part of the goal must complete for any
//!   part to commit;
//! * `or` is angelic choice: failing branches are dropped;
//! * `⊙` is idempotent, `⊙()` = `()`, and `⊙a` = `a` for a single
//!   elementary action (one action is already atomic).

use crate::atom::Atom;
use crate::goal::Goal;
use crate::program::Program;
use crate::rule::Rule;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// Normalize a goal by the algebraic laws above. Idempotent.
pub fn simplify(goal: &Goal) -> Goal {
    match goal {
        Goal::Seq(gs) => {
            let parts: Vec<Goal> = gs.iter().map(simplify).collect();
            if parts.iter().any(|g| matches!(g, Goal::Fail)) {
                return Goal::Fail;
            }
            Goal::seq(parts)
        }
        Goal::Par(gs) => {
            let parts: Vec<Goal> = gs.iter().map(simplify).collect();
            if parts.iter().any(|g| matches!(g, Goal::Fail)) {
                return Goal::Fail;
            }
            Goal::par(parts)
        }
        Goal::Choice(gs) => {
            let mut parts: Vec<Goal> = Vec::new();
            for g in gs {
                let s = simplify(g);
                match s {
                    Goal::Fail => {}
                    // or is associative: flatten nested choices.
                    Goal::Choice(inner) => parts.extend(inner),
                    other => parts.push(other),
                }
            }
            Goal::choice(parts)
        }
        Goal::Iso(g) => {
            let inner = simplify(g);
            match inner {
                Goal::True => Goal::True,
                Goal::Fail => Goal::Fail,
                // ⊙⊙a = ⊙a
                Goal::Iso(i) => Goal::Iso(i),
                // single elementary actions are already atomic
                a @ (Goal::Atom(_)
                | Goal::NotAtom(_)
                | Goal::Ins(_)
                | Goal::Del(_)
                | Goal::Builtin(..)) => a,
                other => Goal::iso(other),
            }
        }
        other => other.clone(),
    }
}

/// Normalize every rule body of a program.
pub fn simplify_program(p: &Program) -> Program {
    let mut b = Program::builder();
    for pred in p.base_preds() {
        b = b.base_pred(pred.name.as_str(), pred.arity);
    }
    for r in p.rules() {
        b = b.rule(Rule::with_var_names(
            r.head.clone(),
            simplify(&r.body),
            r.var_names.clone(),
        ));
    }
    b.build_unchecked()
}

/// Inline calls to predicates that are (a) non-recursive, (b) defined by a
/// single rule, and (c) have a head of distinct variables. Iterates to a
/// fixpoint; the result has the same executability and final states.
///
/// Inlining preserves the semantics because unfolding is exactly what the
/// engine does at run time — the transformation just does it once, ahead
/// of time (and is therefore also a worked example of the equivalence of
/// the declarative and procedural readings).
pub fn inline_once(p: &Program) -> Program {
    // Identify inlinable predicates.
    let graph = crate::analysis::DepGraph::of(p);
    let recursive = graph.recursive_preds();
    let mut inlinable: HashMap<crate::atom::Pred, &Rule> = HashMap::new();
    for pred in p.derived_preds() {
        if recursive.contains(&pred) {
            continue;
        }
        let rules = p.rules_for(pred);
        if rules.len() != 1 {
            continue;
        }
        let rule = p.rule(rules[0]);
        // Head must be distinct variables.
        let mut seen = Vec::new();
        let distinct_vars = rule.head.args.iter().all(|t| match t {
            Term::Var(v) => {
                if seen.contains(v) {
                    false
                } else {
                    seen.push(*v);
                    true
                }
            }
            Term::Val(_) => false,
        });
        if distinct_vars {
            inlinable.insert(pred, rule);
        }
    }

    let mut b = Program::builder();
    for pred in p.base_preds() {
        b = b.base_pred(pred.name.as_str(), pred.arity);
    }
    for r in p.rules() {
        // Don't emit rules for predicates being inlined away *unless* they
        // are still needed (conservatively keep them: dead rules are
        // harmless; a separate dead-code pass could drop them).
        let mut next_var = r.num_vars();
        let body = inline_goal(&r.body, &inlinable, &mut next_var);
        let mut names = r.var_names.clone();
        while (names.len() as u32) < next_var {
            names.push(crate::symbol::Symbol::intern(&format!("_I{}", names.len())));
        }
        b = b.rule(Rule::with_var_names(r.head.clone(), body, names));
    }
    b.build_unchecked()
}

fn inline_goal(
    goal: &Goal,
    inlinable: &HashMap<crate::atom::Pred, &Rule>,
    next_var: &mut u32,
) -> Goal {
    match goal {
        Goal::Atom(a) => match inlinable.get(&a.pred) {
            Some(rule) if !call_is_self(a, rule) => {
                // Map head vars to call args; fresh ids for body locals.
                let mut map: HashMap<Var, Term> = HashMap::new();
                for (h, actual) in rule.head.args.iter().zip(&a.args) {
                    let Term::Var(v) = h else {
                        unreachable!("checked distinct vars")
                    };
                    map.insert(*v, *actual);
                }
                let body = rule.body.map_terms(&mut |t| match t {
                    Term::Var(v) => *map.entry(v).or_insert_with(|| {
                        let id = *next_var;
                        *next_var += 1;
                        Term::var(id)
                    }),
                    other => other,
                });
                body
            }
            _ => goal.clone(),
        },
        Goal::Seq(gs) => Goal::seq(
            gs.iter()
                .map(|g| inline_goal(g, inlinable, next_var))
                .collect(),
        ),
        Goal::Par(gs) => Goal::par(
            gs.iter()
                .map(|g| inline_goal(g, inlinable, next_var))
                .collect(),
        ),
        Goal::Choice(gs) => Goal::choice(
            gs.iter()
                .map(|g| inline_goal(g, inlinable, next_var))
                .collect(),
        ),
        Goal::Iso(g) => Goal::iso(inline_goal(g, inlinable, next_var)),
        other => other.clone(),
    }
}

fn call_is_self(atom: &Atom, rule: &Rule) -> bool {
    atom.pred == rule.head.pred && {
        // Prevent inlining a predicate into its own defining rule (cannot
        // happen for non-recursive predicates, but guard anyway).
        false
    }
}

/// Drop rules whose head predicate is unreachable from `roots` in the
/// dependency graph. Complements [`inline`]: after inlining, the inlined
/// predicates' rules become dead for goals that no longer mention them.
pub fn eliminate_dead_rules(p: &Program, roots: &[crate::atom::Pred]) -> Program {
    use std::collections::HashSet;
    let graph = crate::analysis::DepGraph::of(p);
    let mut live: HashSet<crate::atom::Pred> = HashSet::new();
    let mut stack: Vec<crate::atom::Pred> = roots.to_vec();
    while let Some(q) = stack.pop() {
        if live.insert(q) {
            stack.extend(graph.callees(q));
        }
    }
    let mut b = Program::builder();
    for pred in p.base_preds() {
        b = b.base_pred(pred.name.as_str(), pred.arity);
    }
    for r in p.rules() {
        if live.contains(&r.head.pred) {
            b = b.rule(r.clone());
        }
    }
    b.build_unchecked()
}

/// Predicates a goal mentions (for use as `eliminate_dead_rules` roots).
pub fn goal_preds(goal: &Goal) -> Vec<crate::atom::Pred> {
    let mut out = Vec::new();
    goal.visit(&mut |g| {
        if let Goal::Atom(a) = g {
            if !out.contains(&a.pred) {
                out.push(a.pred);
            }
        }
    });
    out
}

/// Inline to a fixpoint (bounded by the number of derived predicates).
pub fn inline(p: &Program) -> Program {
    let mut cur = p.clone();
    for _ in 0..p.derived_preds().count() + 1 {
        let next = inline_once(&cur);
        if next.to_source() == cur.to_source() {
            return next;
        }
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Pred;

    fn a(name: &str) -> Goal {
        Goal::prop(name)
    }

    #[test]
    fn fail_propagates_through_compositions() {
        assert_eq!(simplify(&Goal::seq(vec![a("p"), Goal::Fail])), Goal::Fail);
        assert_eq!(simplify(&Goal::par(vec![Goal::Fail, a("p")])), Goal::Fail);
        assert_eq!(simplify(&Goal::iso(Goal::Fail)), Goal::Fail);
    }

    #[test]
    fn choice_drops_failing_branches() {
        let g = Goal::choice(vec![Goal::Fail, a("p"), Goal::Fail]);
        assert_eq!(simplify(&g), a("p"));
        assert_eq!(
            simplify(&Goal::choice(vec![Goal::Fail, Goal::Fail])),
            Goal::Fail
        );
    }

    #[test]
    fn nested_choice_flattens() {
        let g = Goal::Choice(vec![a("p"), Goal::Choice(vec![a("q"), a("r")])]);
        assert_eq!(simplify(&g), Goal::Choice(vec![a("p"), a("q"), a("r")]));
    }

    #[test]
    fn iso_of_elementary_action_is_dropped() {
        assert_eq!(
            simplify(&Goal::iso(Goal::ins("t", vec![]))),
            Goal::ins("t", vec![])
        );
        assert_eq!(simplify(&Goal::iso(Goal::True)), Goal::True);
        let composite = Goal::seq(vec![a("p"), a("q")]);
        assert_eq!(
            simplify(&Goal::iso(composite.clone())),
            Goal::iso(composite)
        );
    }

    #[test]
    fn iso_is_idempotent_under_simplify() {
        let g = Goal::iso(Goal::iso(Goal::seq(vec![a("p"), a("q")])));
        let s = simplify(&g);
        assert_eq!(s, Goal::iso(Goal::seq(vec![a("p"), a("q")])));
        assert_eq!(simplify(&s), s);
    }

    #[test]
    fn simplify_is_idempotent_on_a_mixed_goal() {
        let g = Goal::seq(vec![
            Goal::choice(vec![Goal::Fail, Goal::iso(a("p"))]),
            Goal::True,
            Goal::par(vec![a("q"), Goal::seq(vec![a("r"), Goal::True])]),
        ]);
        let once = simplify(&g);
        assert_eq!(simplify(&once), once);
        assert_eq!(
            once,
            Goal::seq(vec![a("p"), Goal::par(vec![a("q"), a("r")])])
        );
    }

    #[test]
    fn inline_single_rule_chain() {
        let p = Program::builder()
            .base_pred("t", 1)
            .rule_parts(
                Atom::new("outer", vec![Term::var(0)]),
                Goal::atom("inner", vec![Term::var(0)]),
            )
            .rule_parts(
                Atom::new("inner", vec![Term::var(0)]),
                Goal::ins("t", vec![Term::var(0)]),
            )
            .build()
            .unwrap();
        let q = inline(&p);
        let outer = q.rules_for(Pred::new("outer", 1));
        assert_eq!(
            q.rule(outer[0]).body,
            Goal::ins("t", vec![Term::var(0)]),
            "inner call replaced by its body"
        );
    }

    #[test]
    fn inline_renames_body_locals_apart() {
        // inner uses a local variable; inlining twice in one body must not
        // make the two copies share it.
        let p = Program::builder()
            .base_pred("t", 1)
            .base_pred("src", 1)
            .rule_parts(
                Atom::prop("outer"),
                Goal::seq(vec![Goal::prop("inner"), Goal::prop("inner")]),
            )
            .rule_parts(
                Atom::prop("inner"),
                Goal::seq(vec![
                    Goal::atom("src", vec![Term::var(0)]),
                    Goal::ins("t", vec![Term::var(0)]),
                ]),
            )
            .build()
            .unwrap();
        let q = inline(&p);
        let outer = q.rule(q.rules_for(Pred::new("outer", 0))[0]);
        let vars = outer.body.vars();
        assert_eq!(vars.len(), 2, "two fresh locals, not one shared: {}", outer);
    }

    #[test]
    fn recursive_predicates_not_inlined() {
        let p = Program::builder()
            .base_pred("t", 0)
            .rule_parts(
                Atom::prop("loop"),
                Goal::choice(vec![Goal::ins("t", vec![]), Goal::prop("loop")]),
            )
            .build()
            .unwrap();
        let q = inline(&p);
        let body = &q.rule(q.rules_for(Pred::new("loop", 0))[0]).body;
        let mut has_self_call = false;
        body.visit(&mut |g| {
            if let Goal::Atom(a) = g {
                if a.pred == Pred::new("loop", 0) {
                    has_self_call = true;
                }
            }
        });
        assert!(has_self_call, "recursion must survive inlining");
    }

    #[test]
    fn multi_rule_predicates_not_inlined() {
        let p = Program::builder()
            .base_pred("t", 1)
            .rule_parts(Atom::prop("pick"), Goal::ins("t", vec![Term::int(1)]))
            .rule_parts(Atom::prop("pick"), Goal::ins("t", vec![Term::int(2)]))
            .rule_parts(Atom::prop("main"), Goal::prop("pick"))
            .build()
            .unwrap();
        let q = inline(&p);
        let main = q.rule(q.rules_for(Pred::new("main", 0))[0]);
        assert_eq!(main.body, Goal::prop("pick"), "choice points preserved");
    }

    #[test]
    fn constants_in_call_args_substitute() {
        let p = Program::builder()
            .base_pred("t", 1)
            .rule_parts(Atom::prop("main"), Goal::atom("put", vec![Term::int(7)]))
            .rule_parts(
                Atom::new("put", vec![Term::var(0)]),
                Goal::ins("t", vec![Term::var(0)]),
            )
            .build()
            .unwrap();
        let q = inline(&p);
        let main = q.rule(q.rules_for(Pred::new("main", 0))[0]);
        assert_eq!(main.body, Goal::ins("t", vec![Term::int(7)]));
    }

    #[test]
    fn dead_rules_are_eliminated() {
        let p = Program::builder()
            .base_pred("t", 0)
            .rule_parts(Atom::prop("main"), Goal::prop("used"))
            .rule_parts(Atom::prop("used"), Goal::ins("t", vec![]))
            .rule_parts(Atom::prop("orphan"), Goal::ins("t", vec![]))
            .build()
            .unwrap();
        let q = eliminate_dead_rules(&p, &[Pred::new("main", 0)]);
        assert_eq!(q.len(), 2);
        assert!(q.is_derived(Pred::new("used", 0)));
        assert!(!q.is_derived(Pred::new("orphan", 0)));
    }

    #[test]
    fn inline_then_dce_shrinks_the_program() {
        let p = Program::builder()
            .base_pred("t", 1)
            .rule_parts(Atom::prop("main"), Goal::atom("helper", vec![Term::int(1)]))
            .rule_parts(
                Atom::new("helper", vec![Term::var(0)]),
                Goal::ins("t", vec![Term::var(0)]),
            )
            .build()
            .unwrap();
        let q = eliminate_dead_rules(&inline(&p), &[Pred::new("main", 0)]);
        assert_eq!(q.len(), 1, "helper inlined away and dropped");
        assert_eq!(
            q.rule(q.rules_for(Pred::new("main", 0))[0]).body,
            Goal::ins("t", vec![Term::int(1)])
        );
    }

    #[test]
    fn goal_preds_lists_mentions() {
        let g = Goal::seq(vec![Goal::prop("a"), Goal::atom("b", vec![Term::var(0)])]);
        let preds = goal_preds(&g);
        assert_eq!(preds, vec![Pred::new("a", 0), Pred::new("b", 1)]);
    }

    #[test]
    fn simplify_program_rewrites_bodies() {
        let p = Program::builder()
            .base_pred("t", 0)
            .rule_parts(
                Atom::prop("r"),
                Goal::seq(vec![Goal::True, Goal::ins("t", vec![]), Goal::True]),
            )
            .build()
            .unwrap();
        let q = simplify_program(&p);
        assert_eq!(q.rules()[0].body, Goal::ins("t", vec![]));
    }
}
