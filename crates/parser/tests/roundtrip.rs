//! Generative round-trip property: random programs built through the
//! `td-core` builders render to source (`Program::to_source`), parse back,
//! and re-render identically; goals survive the same loop.

use proptest::prelude::*;
use td_core::{Atom, Goal, Program, Term};
use td_parser::parse_program;

/// Random ground-ish goals over a fixed schema with occasional variables
/// X0..X2 (always also used in a leading query atom so rules stay valid).
fn arb_goal(depth: u32) -> impl Strategy<Value = Goal> {
    let term = prop_oneof![
        (0u32..3).prop_map(Term::var),
        prop_oneof![-5i64..20, Just(i64::MIN), Just(i64::MAX)].prop_map(Term::int),
        "[a-z][a-z0-9_]{0,6}"
            .prop_filter("reserved words are not constants", |s| {
                !matches!(
                    s.as_str(),
                    "base" | "init" | "ins" | "del" | "iso" | "not" | "fail" | "or" | "is"
                )
            })
            .prop_map(|s| Term::sym(&s)),
    ];
    let atom2 = proptest::collection::vec(term.clone(), 2).prop_map(|args| Atom::new("p", args));
    let atom1 = proptest::collection::vec(term, 1).prop_map(|args| Atom::new("q", args));
    let leaf = prop_oneof![
        atom2.clone().prop_map(Goal::Atom),
        atom1.clone().prop_map(Goal::Atom),
        atom2.clone().prop_map(Goal::Ins),
        atom1.clone().prop_map(Goal::Del),
        atom1.prop_map(Goal::NotAtom),
        Just(Goal::True),
        Just(Goal::Fail),
    ];
    leaf.prop_recursive(depth, 20, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Goal::seq),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::par),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::choice),
            inner.prop_map(Goal::iso),
        ]
    })
}

fn program_with_body(body: Goal) -> Program {
    // Ensure rule safety: prefix with query atoms binding X0..X2.
    let binder = Goal::seq(vec![
        Goal::atom("p", vec![Term::var(0), Term::var(1)]),
        Goal::atom("q", vec![Term::var(2)]),
        body,
    ]);
    Program::builder()
        .base_pred("p", 2)
        .base_pred("q", 1)
        .rule_parts(Atom::prop("main"), binder)
        .build()
        .expect("generated rule is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn program_source_round_trips(body in arb_goal(3)) {
        let p1 = program_with_body(body);
        let src1 = p1.to_source();
        let parsed = parse_program(&src1).unwrap_or_else(|e| {
            panic!("rendered program does not parse:\n{}\n{}", e.render(&src1), src1)
        });
        let src2 = parsed.program.to_source();
        prop_assert_eq!(&src1, &src2, "render-parse-render not stable");
        // Structural equality of the rules too (not just text).
        prop_assert_eq!(p1.rules().len(), parsed.program.rules().len());
        for (a, b) in p1.rules().iter().zip(parsed.program.rules()) {
            prop_assert_eq!(&a.head, &b.head);
            prop_assert_eq!(&a.body, &b.body);
        }
    }

    #[test]
    fn goal_display_round_trips(body in arb_goal(3)) {
        // Goals with variables round-trip through parse_goal when rendered
        // with variable names.
        let p = program_with_body(Goal::True);
        let goal = Goal::seq(vec![
            Goal::atom("p", vec![Term::var(0), Term::var(1)]),
            Goal::atom("q", vec![Term::var(2)]),
            body,
        ]);
        let names: Vec<td_core::Symbol> = (0..3)
            .map(|i| td_core::Symbol::intern(&format!("V{i}")))
            .collect();
        let rendered = td_core::rule::render_goal_with_names(&goal, &names);
        let reparsed = td_parser::parse_goal(&rendered, &p).unwrap_or_else(|e| {
            panic!("rendered goal does not parse: {e}\n{rendered}")
        });
        // Round-trip modulo variable identity: re-render and compare text.
        let rendered2 =
            td_core::rule::render_goal_with_names(&reparsed.goal, &reparsed.var_names);
        prop_assert_eq!(rendered, rendered2);
    }
}
