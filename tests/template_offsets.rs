//! A call reads its rule's body through a variable offset instead of
//! copying it renamed apart. This pins the property that rests on: over
//! generated rules, a body's template built once and read at offset `k` is
//! indistinguishable from a copy of the body renamed by `k` — the same goal
//! (`to_goal`), the same frontier leaves, the same configuration
//! fingerprint — whether it is copied into the machine's arena or built
//! into a persistent tree, and for the persistent tree also after a
//! rewrite moves part of it into a new node. So the search numbers
//! variables, and memoizes configurations, exactly as it did with copies.

use proptest::prelude::*;
use td_core::{Builtin, Term, Var};
use td_db::Database;
use td_engine::tree::{
    fingerprint, frontier_len, leaf_at, make_node, rewrite, sequence, to_goal, Arena, PTree,
    Template,
};
use transaction_datalog::prelude::{Atom, Goal, Program};

/// The renamer the offset replaces, written out here: every variable's id
/// moved up by `k`.
fn renamed(g: &Goal, k: u32) -> Goal {
    g.map_terms(&mut |t| match t {
        Term::Var(Var(i)) => Term::Var(Var(i + k)),
        val => val,
    })
}

/// Rule bodies over base relations `p/2`, `q/1` and a derived `r/1`, with
/// variables `X0..X4`.
fn arb_body(depth: u32) -> impl Strategy<Value = Goal> {
    let term = prop_oneof![
        (0u32..5).prop_map(Term::var),
        (0i64..3).prop_map(Term::int),
        Just(Term::sym("c")),
    ];
    let args = |n| proptest::collection::vec(term.clone(), n);
    let leaf = prop_oneof![
        args(2).prop_map(|a| Goal::Atom(Atom::new("p", a))),
        args(1).prop_map(|a| Goal::Atom(Atom::new("r", a))),
        args(1).prop_map(|a| Goal::NotAtom(Atom::new("q", a))),
        args(2).prop_map(|a| Goal::Ins(Atom::new("p", a))),
        args(1).prop_map(|a| Goal::Del(Atom::new("q", a))),
        args(3).prop_map(|a| Goal::Builtin(Builtin::Add, a)),
        Just(Goal::True),
        Just(Goal::Fail),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Goal::Seq),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Goal::Par),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Goal::Choice),
            inner.prop_map(Goal::iso),
        ]
    })
}

fn program_with(body: &Goal) -> Program {
    Program::builder()
        .base_pred("p", 2)
        .base_pred("q", 1)
        .rule_parts(Atom::new("r", vec![Term::var(0)]), body.clone())
        .build_unchecked()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_template_read_at_k_is_the_body_renamed_by_k(body in arb_body(3), k in 0u32..1000) {
        let program = program_with(&body);
        let db = Database::with_schema_of(&program);
        let template = Template::new(&body, &program);
        let copy = make_node(&renamed(&body, k), &program);
        let read = template.as_ref().map(|t| t.tree(k));
        let mut arena = Arena::new(template.as_ref().map(|t| (t, k)));
        let (Some(read), Some(copy)) = (read, copy) else {
            prop_assert!(template.is_none(), "one is empty, both are");
            prop_assert!(arena.is_empty());
            return;
        };
        prop_assert_eq!(to_goal(&read), to_goal(&copy));
        prop_assert_eq!(arena.to_goal(), to_goal(&copy));
        prop_assert_eq!(fingerprint(&read, &db), fingerprint(&copy, &db));
        prop_assert_eq!(arena.fingerprint(&db), fingerprint(&copy, &db));
        let n = frontier_len(&read);
        prop_assert_eq!(n, frontier_len(&copy));
        prop_assert_eq!(n, arena.frontier_len());
        for i in 0..n {
            let ((a, a_off), (b, b_off)) = (leaf_at(&read, i), leaf_at(&copy, i));
            prop_assert_eq!(a.goal_at(a_off), b.goal_at(b_off));
            prop_assert_eq!(a.rules(), b.rules());
            let (c, c_off) = arena.leaf_at(i);
            prop_assert_eq!(c.goal_at(c_off), b.goal_at(b_off));
            prop_assert_eq!(c.rules(), b.rules());
            // An `or` leaf's branches and an `iso` leaf's block read at the
            // leaf's offset too.
            if let Goal::Choice(branches) = a.goal() {
                for j in 0..branches.len() {
                    let (x, y) = (a.tree(j, a_off), b.tree(j, b_off));
                    prop_assert_eq!(x.map(|t| to_goal(&t)), y.map(|t| to_goal(&t)));
                }
            }
            if let Goal::Iso(_) = a.goal() {
                let (x, y) = (a.tree(0, a_off), b.tree(0, b_off));
                prop_assert_eq!(x.map(|t| to_goal(&t)), y.map(|t| to_goal(&t)));
            }
        }
        // Rewriting moves subtrees of the template into new nodes, beside a
        // replacement read at an offset of its own (a call unfolding into a
        // second copy); the result still reads as the copies' result.
        let j = k + 5;
        let step = |t: &PTree, rep| rewrite(t, n - 1, rep);
        let from_template = step(&read, template.as_ref().map(|t| t.tree(j)));
        let from_copies = step(&copy, make_node(&renamed(&body, j), &program));
        prop_assert_eq!(from_template.as_ref().map(to_goal), from_copies.as_ref().map(to_goal));
        let fp = |t: &Option<PTree>| t.as_ref().map(|t| fingerprint(t, &db));
        prop_assert_eq!(fp(&from_template), fp(&from_copies));
        let (a, b) = (step(&read, None), step(&copy, None));
        prop_assert_eq!(a.as_ref().map(to_goal), b.as_ref().map(to_goal));
        let a = sequence(template.as_ref().map(|t| t.tree(j)), a);
        let b = sequence(make_node(&renamed(&body, j), &program), b);
        prop_assert_eq!(a.as_ref().map(to_goal), b.as_ref().map(to_goal));
        prop_assert_eq!(fp(&a), fp(&b));
    }
}
