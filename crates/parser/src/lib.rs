//! # td-parser — concrete syntax for Transaction Datalog
//!
//! A hand-written lexer and recursive-descent parser for `.td` files, with
//! span-carrying diagnostics and statement-level error recovery. It reads
//! the source in place: tokens borrow their text, and a name is interned
//! once its atom or term is complete (see [`parser`]).
//!
//! ```
//! use td_parser::parse_program;
//!
//! let src = r#"
//!     base item/1.
//!     base done/2.
//!     init item(w1).
//!
//!     workflow(W) <- task_a(W) * (task_b(W) | task_c(W)).
//!     task_a(W) <- item(W) * ins.done(W, a).
//!     task_b(W) <- ins.done(W, b).
//!     task_c(W) <- ins.done(W, c).
//!
//!     ?- workflow(w1).
//! "#;
//! let parsed = parse_program(src).expect("parses");
//! assert_eq!(parsed.program.len(), 4);
//! assert_eq!(parsed.init.len(), 1);
//! assert_eq!(parsed.goals.len(), 1);
//! ```

pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;

pub use error::{ParseError, ParseErrorKind, ParseErrors};
pub use parser::{
    parse_event, parse_event_request, parse_goal, parse_program, EventArg, EventRequest,
    ParsedGoal, ParsedProgram,
};
pub use token::{Span, Tok, Token};

#[cfg(test)]
mod tests {
    use super::*;
    use td_core::{Builtin, Fragment, FragmentReport, Goal, Pred, Term};

    #[test]
    fn parse_minimal_program() {
        let p = parse_program("base t/0. r <- ins.t.").unwrap();
        assert_eq!(p.program.len(), 1);
        assert!(p.program.is_base(Pred::new("t", 0)));
        assert_eq!(p.program.rules()[0].body, Goal::ins("t", vec![]));
    }

    #[test]
    fn precedence_star_over_pipe() {
        let p =
            parse_program("base a/0. base b/0. base c/0. base d/0. r <- a * b | c * d.").unwrap();
        let body = &p.program.rules()[0].body;
        assert_eq!(
            *body,
            Goal::par(vec![
                Goal::seq(vec![Goal::prop("a"), Goal::prop("b")]),
                Goal::seq(vec![Goal::prop("c"), Goal::prop("d")]),
            ])
        );
    }

    #[test]
    fn parens_override_precedence() {
        let p = parse_program("base a/0. base b/0. base c/0. r <- (a | b) * c.").unwrap();
        let body = &p.program.rules()[0].body;
        assert_eq!(
            *body,
            Goal::seq(vec![
                Goal::par(vec![Goal::prop("a"), Goal::prop("b")]),
                Goal::prop("c"),
            ])
        );
    }

    #[test]
    fn variables_scoped_per_rule() {
        let p =
            parse_program("base p/1. base q/1. r(X) <- p(X) * q(Y) * q(X). s(Y) <- p(Y).").unwrap();
        let r = &p.program.rules()[0];
        assert_eq!(r.num_vars(), 2);
        assert_eq!(r.head.args, vec![Term::var(0)]);
        let s = &p.program.rules()[1];
        assert_eq!(s.num_vars(), 1);
        assert_eq!(s.head.args, vec![Term::var(0)]);
    }

    #[test]
    fn anonymous_underscore_is_fresh_each_time() {
        let p = parse_program("base p/2. r <- p(_, _).").unwrap();
        let body = &p.program.rules()[0].body;
        assert_eq!(*body, Goal::atom("p", vec![Term::var(0), Term::var(1)]));
    }

    #[test]
    fn iso_and_choice_and_unit() {
        let p = parse_program("base a/0. base b/0. r <- iso { a or b } * ().").unwrap();
        let body = &p.program.rules()[0].body;
        assert_eq!(
            *body,
            Goal::iso(Goal::choice(vec![Goal::prop("a"), Goal::prop("b")]))
        );
    }

    #[test]
    fn fail_and_not() {
        let p = parse_program("base a/0. r <- not a * fail.").unwrap();
        let body = &p.program.rules()[0].body;
        assert_eq!(
            *body,
            Goal::seq(vec![Goal::NotAtom(td_core::Atom::prop("a")), Goal::Fail])
        );
    }

    #[test]
    fn builtins_comparisons_and_is() {
        let p = parse_program("base bal/1. r(B) <- bal(B) * B >= 10 * C is B - 10 * ins.bal(C).")
            .unwrap();
        let body = &p.program.rules()[0].body;
        let Goal::Seq(steps) = body else {
            panic!("expected seq")
        };
        assert_eq!(
            steps[1],
            Goal::Builtin(Builtin::Ge, vec![Term::var(0), Term::int(10)])
        );
        assert_eq!(
            steps[2],
            Goal::Builtin(
                Builtin::Sub,
                vec![Term::var(0), Term::int(10), Term::var(1)]
            )
        );
    }

    #[test]
    fn constant_comparison_lhs() {
        let p = parse_program("r <- 3 < 5.").unwrap();
        assert_eq!(
            p.program.rules()[0].body,
            Goal::Builtin(Builtin::Lt, vec![Term::int(3), Term::int(5)])
        );
    }

    #[test]
    fn symbol_equality_builtin() {
        let p = parse_program("base p/1. r(X) <- p(X) * X = abc.").unwrap();
        let Goal::Seq(steps) = &p.program.rules()[0].body else {
            panic!()
        };
        assert_eq!(
            steps[1],
            Goal::Builtin(Builtin::Eq, vec![Term::var(0), Term::sym("abc")])
        );
    }

    #[test]
    fn init_and_goal_statements() {
        let p =
            parse_program("base item/1. init item(w1). init item(w2). ?- item(X) * del.item(X).")
                .unwrap();
        assert_eq!(p.init.len(), 2);
        assert!(p.init[0].is_ground());
        assert_eq!(p.goals.len(), 1);
        assert_eq!(p.goals[0].var_names.len(), 1);
        assert_eq!(p.goals[0].var_names[0].as_str(), "X");
    }

    #[test]
    fn init_must_be_ground_and_base() {
        let err = parse_program("base item/1. init item(X).").unwrap_err();
        assert!(err.to_string().contains("not ground"));
        let err = parse_program("r <- (). init r.").unwrap_err();
        assert!(err.to_string().contains("not a base relation"));
    }

    #[test]
    fn negative_integers() {
        let p = parse_program("base t/1. r <- ins.t(-5).").unwrap();
        assert_eq!(
            p.program.rules()[0].body,
            Goal::ins("t", vec![Term::int(-5)])
        );
    }

    #[test]
    fn derived_fact_sugar() {
        let p = parse_program("ready.").unwrap();
        assert_eq!(p.program.rules()[0].body, Goal::True);
        assert_eq!(p.program.rules()[0].head, td_core::Atom::prop("ready"));
    }

    #[test]
    fn error_recovery_reports_multiple() {
        let err = parse_program("base t/0. r <- * t. s <- ) . ok <- ins.t.").unwrap_err();
        assert!(err.errors.len() >= 2, "got: {err}");
    }

    #[test]
    fn unknown_predicate_in_rule_is_reported() {
        let err = parse_program("r <- mystery.").unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn reserved_words_rejected_as_predicates() {
        let err = parse_program("iso <- ().").unwrap_err();
        assert!(err.to_string().contains("reserved"));
    }

    #[test]
    fn parse_goal_standalone() {
        let p = parse_program("base item/1.").unwrap();
        let g = parse_goal("item(X) * del.item(X)", &p.program).unwrap();
        assert_eq!(g.var_names.len(), 1);
        assert!(matches!(g.goal, Goal::Seq(_)));
        assert!(parse_goal("nonsense(X)", &p.program).is_err());
    }

    #[test]
    fn the_extreme_integers_read_back() {
        let p = parse_program(
            "base t/1. r <- ins.t(-9223372036854775808) * ins.t(9223372036854775807).",
        )
        .unwrap();
        let min = Goal::ins("t", vec![Term::int(i64::MIN)]);
        let max = Goal::ins("t", vec![Term::int(i64::MAX)]);
        assert_eq!(p.program.rules()[0].body, Goal::seq(vec![min.clone(), max]));
        // What `Display` prints of the smallest integer parses back to it.
        let printed = min.to_string();
        let again = parse_program(&format!("base t/1. r <- {printed}.")).unwrap();
        assert_eq!(again.program.rules()[0].body, min);
        let err = parse_program("base t/1. r <- ins.t(-9223372036854775809).").unwrap_err();
        assert!(err.to_string().contains("does not fit in 64 bits"), "{err}");
    }

    #[test]
    fn a_refused_goal_interns_nothing() {
        let p = parse_program("base item/1.").unwrap();
        for i in 0..1000 {
            let (pred, arg) = (format!("nosuch{i}"), format!("zz{i}"));
            let err = parse_goal(&format!("{pred}({arg})"), &p.program).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "1:1: predicate `{pred}/1` is neither a base relation nor defined by any rule"
                )
            );
            assert_eq!(td_core::Symbol::lookup(&pred), None, "{pred} interned");
            assert_eq!(td_core::Symbol::lookup(&arg), None, "{arg} interned");
        }
        // Under `not` and an update, the refusal reads as validation does.
        let err = parse_goal("not nosuch_not(zz_not)", &p.program).unwrap_err();
        assert!(err
            .to_string()
            .contains("`not` applied to non-base predicate `nosuch_not/1`"));
        let err = parse_goal("del.nosuch_del", &p.program).unwrap_err();
        assert!(err
            .to_string()
            .contains("non-base predicate `nosuch_del/0`"));
        assert_eq!(td_core::Symbol::lookup("zz_not"), None);
        // A known name is refused as validation refuses it, at the first
        // invalid leaf in source order.
        let err = parse_goal("ins.item(a) * not item(a, b) * nosuch_late", &p.program);
        let expected = td_core::validate::validate_goal(
            &p.program,
            &Goal::NotAtom(td_core::Atom::new(
                "item",
                vec![Term::sym("a"), Term::sym("b")],
            )),
        )
        .unwrap_err();
        assert_eq!(err.unwrap_err().to_string(), format!("1:1: {expected}"));
        // An unknown name as a constant is no predicate.
        assert!(parse_goal("item(X) * X = zz_constant", &p.program).is_ok());
    }

    #[test]
    fn round_trip_program_source() {
        let src = "base done/2.\nbase item/1.\n\nworkflow(W) <- task_a(W) * (task_b(W) | task_c(W)).\ntask_a(W) <- item(W) * ins.done(W, a).\ntask_b(W) <- ins.done(W, b).\ntask_c(W) <- iso { ins.done(W, c) }.\n";
        let p1 = parse_program(src).unwrap();
        let rendered = p1.program.to_source();
        let p2 = parse_program(&rendered).unwrap();
        assert_eq!(p2.program.to_source(), rendered);
        assert_eq!(p1.program.len(), p2.program.len());
        for (a, b) in p1.program.rules().iter().zip(p2.program.rules()) {
            assert_eq!(a.head, b.head);
            assert_eq!(a.body, b.body);
        }
    }

    #[test]
    fn classify_example_31_style_workflow() {
        // Example 3.1 of the paper (shape): a workflow of tasks and a
        // sub-workflow, some concurrent.
        let src = r#"
            base item/1.
            base done/2.
            workflow(W) <- task1(W) * (task2(W) | subflow(W)) * task5(W).
            subflow(W) <- task3(W) * task4(W).
            task1(W) <- item(W) * ins.done(W, t1).
            task2(W) <- ins.done(W, t2).
            task3(W) <- ins.done(W, t3).
            task4(W) <- ins.done(W, t4).
            task5(W) <- done(W, t2) * done(W, t4) * ins.done(W, t5).
            ?- workflow(w1).
        "#;
        let p = parse_program(src).unwrap();
        let rep = FragmentReport::classify(&p.program, &p.goals[0].goal);
        assert_eq!(rep.fragment, Fragment::Nonrecursive);
    }

    #[test]
    fn event_declarations_and_triggers_parse() {
        let src = r#"
            event sample/1.
            event result/2.
            base handled/1.
            handle(S) <- ins.handled(S).
            on within(seq(sample(S), result(S, Q)), 1000) do handle(S).
        "#;
        let p = parse_program(src).unwrap();
        let stored = Pred::new("sample", 2);
        assert!(p.program.is_event(stored));
        assert!(p.program.is_base(stored));
        assert_eq!(p.triggers.len(), 1);
        let t = &p.triggers[0];
        // Pattern and goal share one variable scope: S is var 0 in both.
        assert_eq!(t.var_names[0].as_str(), "S");
        assert_eq!(t.goal, Goal::atom("handle", vec![Term::var(0)]));
        assert_eq!(
            t.to_source(),
            "on within(seq(sample(S), result(S, Q)), 1000) do handle(S)."
        );
    }

    #[test]
    fn trigger_pattern_leaves_must_be_events() {
        let err = parse_program("base p/1. on p(X) do ().").unwrap_err();
        assert!(err.to_string().contains("event"), "{err}");
        // Wrong arity in the pattern is also rejected.
        let err = parse_program("event e/1. on e(X, Y) do ().").unwrap_err();
        assert!(err.to_string().contains("event"), "{err}");
    }

    #[test]
    fn ins_del_and_init_on_event_relations_rejected() {
        let err = parse_program("event e/1. r <- ins.e(a, 1).").unwrap_err();
        assert!(err.to_string().contains("append-only"), "{err}");
        let err = parse_program("event e/1. init e(a, 1).").unwrap_err();
        assert!(err.to_string().contains("event ingestion"), "{err}");
    }

    #[test]
    fn rules_may_read_event_history_with_timestamp_column() {
        let src = "event e/1. recent(X) <- e(X, T) * T >= 100.";
        let p = parse_program(src).unwrap();
        assert_eq!(p.program.len(), 1);
    }

    #[test]
    fn within_bound_must_be_nonnegative() {
        let err = parse_program("event e/1. on within(e(X), -5) do ().").unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
    }

    #[test]
    fn event_on_do_are_reserved() {
        assert!(parse_program("event <- ().").is_err());
        assert!(parse_program("on <- ().").is_err());
        assert!(parse_program("do <- ().").is_err());
    }

    #[test]
    fn parse_event_requests() {
        use td_core::Value;
        let (name, args, ts) = parse_event("sample(s1, -3)").unwrap();
        assert_eq!(name, "sample");
        assert_eq!(args, vec![Value::sym("s1"), Value::Int(-3)]);
        assert_eq!(ts, None);
        let (name, args, ts) = parse_event("tick at 42").unwrap();
        assert_eq!(name, "tick");
        assert!(args.is_empty());
        assert_eq!(ts, Some(42));
        assert!(parse_event("sample(X)").is_err(), "variables rejected");
        assert!(parse_event("sample(a) at -1").is_err(), "negative ts");
        assert!(parse_event("sample(a) trailing").is_err());
        assert!(parse_event("").is_err());
    }

    #[test]
    fn lexer_error_surfaces() {
        let err = parse_program("r <- @.").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn missing_dot_reported_with_location() {
        let err = parse_program("base t/0. r <- ins.t").unwrap_err();
        let msg = err.render("base t/0. r <- ins.t");
        assert!(msg.contains("expected"), "{msg}");
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use td_core::{Goal, Term};

    #[test]
    fn deeply_nested_parens_parse_up_to_the_limit() {
        let nest = |depth: usize| {
            let mut src = String::from("base t/0. r <- ");
            src.push_str(&"(".repeat(depth));
            src.push_str("ins.t");
            src.push_str(&")".repeat(depth));
            src.push('.');
            src
        };
        let p = parse_program(&nest(100)).expect("100 levels parse");
        assert_eq!(p.program.rules()[0].body, Goal::ins("t", vec![]));
        // Beyond the limit: a clean diagnostic, not a stack overflow.
        let err = parse_program(&nest(400)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    }

    #[test]
    fn long_serial_chains_parse_flat() {
        let n = 500;
        let mut src = String::from("base t/1. r <- ");
        let steps: Vec<String> = (0..n).map(|i| format!("ins.t({i})")).collect();
        src.push_str(&steps.join(" * "));
        src.push('.');
        let p = parse_program(&src).unwrap();
        let Goal::Seq(steps) = &p.program.rules()[0].body else {
            panic!("expected a flat Seq");
        };
        assert_eq!(steps.len(), n);
    }

    #[test]
    fn crlf_and_tab_whitespace() {
        let p = parse_program("base t/1.\r\n\tr <- ins.t(1).\r\n").unwrap();
        assert_eq!(p.program.len(), 1);
    }

    #[test]
    fn comment_at_eof_without_newline() {
        let p = parse_program("base t/0. % trailing").unwrap();
        assert!(p.program.is_empty());
        let p = parse_program("base t/0. // trailing").unwrap();
        assert!(p.program.is_empty());
    }

    #[test]
    fn arity_zero_declaration_and_use() {
        let p = parse_program("base flag/0. r <- ins.flag * flag * del.flag.").unwrap();
        assert_eq!(p.program.rules()[0].body.size(), 4);
    }

    #[test]
    fn integer_terms_in_every_position() {
        let p = parse_program("base p/3. r <- p(-1, 0, 99) * ins.p(1, 2, 3).").unwrap();
        let Goal::Seq(steps) = &p.program.rules()[0].body else {
            panic!()
        };
        let Goal::Atom(a) = &steps[0] else { panic!() };
        assert_eq!(a.args, vec![Term::int(-1), Term::int(0), Term::int(99)]);
    }

    #[test]
    fn keywords_as_atom_arguments_are_rejected() {
        // `iso` etc. are reserved even in argument position.
        assert!(parse_program("base p/1. r <- p(iso).").is_err());
        assert!(parse_program("base p/1. r <- p(or).").is_err());
    }

    #[test]
    fn goal_only_files_are_fine() {
        let p = parse_program("base t/0. ?- ins.t. ?- t.").unwrap();
        assert_eq!(p.goals.len(), 2);
        assert!(p.program.is_empty());
    }

    #[test]
    fn error_spans_point_into_multiline_sources() {
        let src = "base t/0.\n\nr <- t *\n     @bad.\n";
        let err = parse_program(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains("4:"), "{rendered}");
    }
}
