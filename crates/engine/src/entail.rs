//! Executional entailment: `P, D₀ D₁ … Dₙ ⊨ φ`.
//!
//! The declarative semantics of TD (\[17, 20\], reviewed in the paper's
//! Appendix A) judges a goal against an explicit *path* — a sequence of
//! database states. Elementary operations constrain one or two consecutive
//! states (`p(t̄)` holds on the unit path `⟨D⟩` with `p(t̄) ∈ D`; `ins.p(t̄)`
//! holds on `⟨D, D ∪ {p(t̄)}⟩`), serial composition splits the path,
//! concurrent composition interleaves two executions over it, and `⊙`
//! demands a contiguous block.
//!
//! This module implements that judgment as a search over configurations
//! `(process tree, position in the path)` where each update step must
//! produce *exactly* the next state of the given sequence. It is the
//! executional counterpart of the model theory (the equivalence of the two
//! is established in \[17, 20\]), and serves the test-suite as an oracle that
//! is independent of the interpreter's scheduling and backtracking order:
//! the interpreter commits some path; `entails` re-judges the goal against
//! it.

use crate::compiled::Compiled;
use crate::config::EngineError;
use crate::kernel::{
    apply_unification, apply_unification_n, apply_update, bind_tuple, builtin_args, check_absent,
    eval_ground_builtin, fingerprint, matching_tuples, num_vars_in_tree, subst_tree, unify_head,
    BuiltinOut,
};
use crate::tree::{frontier_len, leaf_at, make_node, rewrite, sequence, PTree};
use std::collections::HashSet;
use td_core::{Goal, Program, Term};
use td_db::{Database, Delta};

/// Does `P, states ⊨ goal` hold? `states` must be non-empty; the execution
/// must start at `states\[0\]`, end at `states[n]`, and its i-th database
/// transition must be exactly `states[i] → states[i+1]`.
pub fn entails(program: &Program, states: &[Database], goal: &Goal) -> Result<bool, EngineError> {
    assert!(!states.is_empty(), "a path has at least one state");
    // A configuration is visited once: its tree's fingerprint at its
    // state, and its position.
    let mut visited: HashSet<(u128, usize)> = HashSet::new();
    let mut vars = Vec::new();
    let mut stack: Vec<Cfg> = vec![(make_node(goal, program), 0)];
    while let Some((tree, pos)) = stack.pop() {
        let Some(tree) = tree else {
            if pos == states.len() - 1 {
                return Ok(true);
            }
            continue;
        };
        if !visited.insert((fingerprint(&tree, |t| t, &states[pos], &mut vars), pos)) {
            continue;
        }
        successors(program, states, &tree, pos, &mut stack)?;
    }
    Ok(false)
}

/// Convenience: build the state sequence a committed [`Delta`] induces from
/// `d0`, i.e. `⟨d0, d0+op₁, d0+op₁+op₂, …⟩`, and judge `goal` against it.
/// This is how the tests re-validate interpreter runs.
pub fn entails_via_delta(
    program: &Program,
    d0: &Database,
    delta: &Delta,
    goal: &Goal,
) -> Result<bool, EngineError> {
    let mut states = vec![d0.clone()];
    let mut cur = d0.clone();
    for op in delta.ops() {
        op.apply_mut(&mut cur)
            .map_err(|e| EngineError::Db(e.to_string()))?;
        states.push(cur.clone());
    }
    entails(program, &states, goal)
}

type Cfg = (Option<PTree>, usize);

fn successors(
    program: &Program,
    states: &[Database],
    tree: &PTree,
    pos: usize,
    out: &mut Vec<Cfg>,
) -> Result<(), EngineError> {
    let db = &states[pos];
    for leaf in 0..frontier_len(tree) {
        let (action, off) = leaf_at(tree, leaf);
        let shift = |t: Term| t.offset(off);
        match action.goal() {
            Goal::Fail => {}
            Goal::True | Goal::Seq(_) | Goal::Par(_) => {
                unreachable!("structural goals expanded by make_node")
            }
            Goal::Atom(atom) if program.is_base(atom.pred) => {
                // Query at the current state; the path does not advance.
                for t in matching_tuples(db, atom, shift) {
                    if let Some(new_tree) =
                        apply_unification(tree, leaf, None, |b| bind_tuple(b, (atom, off), &t))
                    {
                        out.push((new_tree, pos));
                    }
                }
            }
            Goal::Atom(atom) => {
                for &rid in action.rules() {
                    let rule = program.rule(rid);
                    let base = num_vars_in_tree(tree);
                    let body = Compiled::of(program).body(program, rid);
                    let replacement = body.map(|t| t.at(base));
                    if let Some(new_tree) =
                        apply_unification_n(tree, leaf, replacement, base + rule.num_vars(), |b| {
                            unify_head(b, atom, off, rule, base)
                        })
                    {
                        out.push((new_tree, pos));
                    }
                }
            }
            Goal::NotAtom(atom) => {
                if check_absent(db, atom, shift)? {
                    out.push((rewrite(tree, leaf, None), pos));
                }
            }
            goal @ (Goal::Ins(atom) | Goal::Del(atom)) => {
                // An update must realize exactly the next transition.
                if pos + 1 >= states.len() {
                    continue;
                }
                let is_ins = matches!(goal, Goal::Ins(_));
                let mut next = db.clone();
                apply_update(&mut next, atom, shift, is_ins)?;
                if next.same_content(&states[pos + 1]) {
                    out.push((rewrite(tree, leaf, None), pos + 1));
                }
            }
            Goal::Builtin(op, terms) => {
                let args = builtin_args(terms, shift);
                match eval_ground_builtin(*op, &args[..terms.len()])? {
                    BuiltinOut::Fails => {}
                    BuiltinOut::Succeeds => out.push((rewrite(tree, leaf, None), pos)),
                    BuiltinOut::Binds(v, val) => {
                        let new_tree = rewrite(tree, leaf, None).map(|t| subst_tree(&t, v, val));
                        out.push((new_tree, pos));
                    }
                }
            }
            Goal::Choice(branches) => {
                for i in 0..branches.len() {
                    out.push((rewrite(tree, leaf, action.tree(i, off)), pos));
                }
            }
            Goal::Iso(_) => {
                // ⊙inner must hold on a contiguous subpath starting at the
                // moment the block is scheduled: sequencing the whole
                // remaining tree after the block enforces exactly that, and
                // lets bindings made inside the block flow to the
                // continuation.
                let rest = rewrite(tree, leaf, None);
                out.push((sequence(action.tree(0, off), rest), pos));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::load_init;
    use td_core::Pred;
    use td_db::tuple;
    use td_parser::{parse_goal, parse_program};

    fn setup(src: &str) -> (Program, Database) {
        let parsed = parse_program(src).expect("parses");
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).expect("init");
        (parsed.program, db)
    }

    fn goal(program: &Program, src: &str) -> Goal {
        parse_goal(src, program).expect("goal parses").goal
    }

    fn ins(db: &Database, pred: &str, t: td_db::Tuple) -> Database {
        let arity = u32::try_from(t.arity()).unwrap();
        db.insert(Pred::new(pred, arity), &t).unwrap().0
    }

    #[test]
    fn unit_path_query() {
        let (p, d0) = setup("base t/1. init t(1).");
        let g = goal(&p, "t(1)");
        assert!(entails(&p, std::slice::from_ref(&d0), &g).unwrap());
        let g2 = goal(&p, "t(2)");
        assert!(!entails(&p, &[d0], &g2).unwrap());
    }

    #[test]
    fn empty_goal_holds_only_on_unit_paths() {
        let (p, d0) = setup("base t/1.");
        let d1 = ins(&d0, "t", tuple!(1));
        assert!(entails(&p, std::slice::from_ref(&d0), &Goal::True).unwrap());
        assert!(!entails(&p, &[d0, d1], &Goal::True).unwrap());
    }

    #[test]
    fn insert_holds_on_exactly_its_transition() {
        let (p, d0) = setup("base t/1.");
        let d1 = ins(&d0, "t", tuple!(1));
        let g = goal(&p, "ins.t(1)");
        assert!(entails(&p, &[d0.clone(), d1.clone()], &g).unwrap());
        // wrong target state
        let d_wrong = ins(&d0, "t", tuple!(2));
        assert!(!entails(&p, &[d0.clone(), d_wrong], &g).unwrap());
        // no transition available
        assert!(!entails(&p, &[d0], &g).unwrap());
    }

    #[test]
    fn serial_composition_splits_the_path() {
        let (p, d0) = setup("base t/1.");
        let d1 = ins(&d0, "t", tuple!(1));
        let d2 = ins(&d1, "t", tuple!(2));
        let g = goal(&p, "ins.t(1) * ins.t(2)");
        assert!(entails(&p, &[d0.clone(), d1.clone(), d2.clone()], &g).unwrap());
        // Order is part of the judgment.
        let g_rev = goal(&p, "ins.t(2) * ins.t(1)");
        assert!(!entails(&p, &[d0, d1, d2], &g_rev).unwrap());
    }

    #[test]
    fn queries_hold_mid_path_without_advancing() {
        let (p, d0) = setup("base t/1.");
        let d1 = ins(&d0, "t", tuple!(1));
        let g = goal(&p, "ins.t(1) * t(1)");
        assert!(entails(&p, &[d0, d1], &g).unwrap());
    }

    #[test]
    fn concurrent_composition_interleaves() {
        // The paper's own example (§2): {} ⊨ (del.a del.b) | (ins.c ins.d)
        // on a path interleaving the two.
        let (p, empty) = setup("base a/0. base b/0. base c/0. base d/0.");
        let unit = td_db::Tuple::unit();
        let dab = ins(&ins(&empty, "a", unit.clone()), "b", unit.clone());
        // path: {a,b} -> {b} -> {b,c} -> {c} -> {c,d}
        let s1 = dab.delete(Pred::new("a", 0), &unit).unwrap().0;
        let s2 = ins(&s1, "c", unit.clone());
        let s3 = s2.delete(Pred::new("b", 0), &unit).unwrap().0;
        let s4 = ins(&s3, "d", unit.clone());
        let g = goal(&p, "(del.a * del.b) | (ins.c * ins.d)");
        let path = [dab.clone(), s1.clone(), s2.clone(), s3.clone(), s4.clone()];
        assert!(entails(&p, &path, &g).unwrap());
        // The purely serial goal cannot produce this interleaved path.
        let g_serial = goal(&p, "del.a * del.b * ins.c * ins.d");
        assert!(!entails(&p, &path, &g_serial).unwrap());
    }

    #[test]
    fn isolation_demands_contiguity() {
        let (p, empty) = setup("base a/0. base b/0. base c/0. base d/0.");
        let unit = td_db::Tuple::unit();
        // Interleaved path: a; c; b; d
        let s1 = ins(&empty, "a", unit.clone());
        let s2 = ins(&s1, "c", unit.clone());
        let s3 = ins(&s2, "b", unit.clone());
        let s4 = ins(&s3, "d", unit.clone());
        let interleaved = [
            empty.clone(),
            s1.clone(),
            s2.clone(),
            s3.clone(),
            s4.clone(),
        ];
        let free = goal(&p, "(ins.a * ins.b) | (ins.c * ins.d)");
        assert!(entails(&p, &interleaved, &free).unwrap());
        let isolated = goal(&p, "iso { ins.a * ins.b } | (ins.c * ins.d)");
        assert!(
            !entails(&p, &interleaved, &isolated).unwrap(),
            "iso block cannot be split by ins.c"
        );
        // Contiguous path: a; b; c; d — both hold.
        let t2 = ins(&s1, "b", unit.clone());
        let t3 = ins(&t2, "c", unit.clone());
        let t4 = ins(&t3, "d", unit.clone());
        let contiguous = [empty, s1, t2, t3, t4];
        assert!(entails(&p, &contiguous, &isolated).unwrap());
    }

    #[test]
    fn rules_unfold_in_judgments() {
        let (p, d0) = setup(
            "base t/1.
             put(X) <- ins.t(X).",
        );
        let d1 = ins(&d0, "t", tuple!(3));
        let g = goal(&p, "put(3)");
        assert!(entails(&p, &[d0, d1], &g).unwrap());
    }

    #[test]
    fn interpreter_runs_are_entailed() {
        // Differential test: whatever path the interpreter commits must be
        // entailed; a corrupted path must not be.
        let src = "
            base item/1. base done/2.
            init item(w1).
            workflow(W) <- t1(W) * (t2(W) | t3(W)).
            t1(W) <- item(W) * ins.done(W, t1).
            t2(W) <- ins.done(W, t2).
            t3(W) <- ins.done(W, t3).
            ?- workflow(w1).
        ";
        let parsed = parse_program(src).unwrap();
        let d0 = load_init(&Database::with_schema_of(&parsed.program), &parsed.init).unwrap();
        let engine = crate::Engine::new(parsed.program.clone());
        let g = parsed.goals[0].goal.clone();
        let sol = engine.solve(&g, &d0).unwrap();
        let delta = sol.solution().unwrap().delta.clone();
        assert!(entails_via_delta(&parsed.program, &d0, &delta, &g).unwrap());

        // Corrupt the path: drop the last op.
        let mut corrupted = Delta::new();
        for op in &delta.ops()[..delta.len() - 1] {
            corrupted.push(op.clone());
        }
        assert!(!entails_via_delta(&parsed.program, &d0, &corrupted, &g).unwrap());
    }

    #[test]
    fn redundant_update_keeps_state() {
        // ins of a present tuple: transition D -> D (state repeats).
        let (p, d0) = setup("base t/1. init t(1).");
        let g = goal(&p, "ins.t(1)");
        assert!(entails(&p, &[d0.clone(), d0.clone()], &g).unwrap());
        assert!(!entails(&p, &[d0], &g).unwrap());
    }
}

#[cfg(test)]
mod iso_binding_tests {
    use super::*;
    use crate::engine::load_init;
    use td_parser::parse_program;

    #[test]
    fn bindings_escape_isolation_blocks() {
        // A variable bound inside iso{..} is visible to the continuation —
        // the agent-claim idiom of Example 3.3. (Regression: an earlier
        // entailment implementation ran iso blocks as detached sub-searches
        // and lost the binding.)
        let src = "
            base avail/1. base used/1.
            init avail(a1). init avail(a2).
            claim <- iso { avail(A) * del.avail(A) } * ins.used(A).
            ?- claim.
        ";
        let parsed = parse_program(src).unwrap();
        let d0 = load_init(
            &td_db::Database::with_schema_of(&parsed.program),
            &parsed.init,
        )
        .unwrap();
        let engine = crate::Engine::new(parsed.program.clone());
        let goal = &parsed.goals[0].goal;
        let sol = engine.solve(goal, &d0).unwrap();
        let delta = sol.solution().unwrap().delta.clone();
        assert!(entails_via_delta(&parsed.program, &d0, &delta, goal).unwrap());
    }

    #[test]
    fn iso_still_rejects_non_contiguous_blocks_after_the_rework() {
        let (p, d0) = {
            let parsed = parse_program("base a/0. base b/0. base c/0.").unwrap();
            (
                parsed.program.clone(),
                td_db::Database::with_schema_of(&parsed.program),
            )
        };
        let unit = td_db::Tuple::unit();
        let s1 = d0.insert(td_core::Pred::new("a", 0), &unit).unwrap().0;
        let s2 = s1.insert(td_core::Pred::new("c", 0), &unit).unwrap().0;
        let s3 = s2.insert(td_core::Pred::new("b", 0), &unit).unwrap().0;
        let goal = td_parser::parse_goal("iso { ins.a * ins.b } | ins.c", &p)
            .unwrap()
            .goal;
        // a; c; b — the iso block is split by ins.c.
        assert!(!entails(&p, &[d0.clone(), s1.clone(), s2, s3], &goal).unwrap());
        // a; b; c — contiguous.
        let t2 = s1.insert(td_core::Pred::new("b", 0), &unit).unwrap().0;
        let t3 = t2.insert(td_core::Pred::new("c", 0), &unit).unwrap().0;
        assert!(entails(&p, &[d0, s1, t2, t3], &goal).unwrap());
    }
}
