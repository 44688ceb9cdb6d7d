//! The sequential machine edits one database and one process tree in
//! place, and takes a failed branch's updates and tree edits back from its
//! logs (docs/ARCHITECTURE.md, "What a step allocates, and what
//! backtracking costs"). Each undo must give exactly
//! the database a snapshot of the choicepoint's step would have kept, so
//! every solution's database is checked against the initial one replayed
//! with the solution's delta — equal (`==`, which sees which relations are
//! declared, empty ones too), digest for digest, and declaring the same
//! relations — and the caller's database against a twin built apart from
//! it, after every solve, failed or not.
//!
//! The goals are `kernel_equivalence.rs`' flag grammar with what undo has
//! to get right added: updates of relations the database declares and of
//! ones it does not (an insert declares its relation, so its undo must
//! take the declaration back too), a unary relation, calls of a rule with
//! updates in its body, failing branches, and `|`, `or` and `iso` around
//! all of it; each goal runs on a plain engine and on one with the subgoal
//! cache, whose replayed answers are logged and undone like any update.
//! In a debug build every choicepoint also checks, after each rewind, the
//! digest it started from and the hash of the tree its step began from;
//! the arena's own edits and rewinds are checked against persistent
//! rewrites and a goal-level model in `tree::arena`'s `edit_properties`.

use proptest::prelude::*;
use std::collections::BTreeSet;
use td_core::{Atom, Goal, Pred, Term};
use transaction_datalog::prelude::{parse_program, Database, Engine, EngineConfig};

const PROGRAM: &str = "
    base f0/0. base f1/0. base f2/0. base u0/0. base u1/0. base r/1.
    flip(X) <- r(X) * del.r(X) * ins.u0.
    flip(X) <- not r(X) * ins.r(X) * { ins.u1 or fail }.
";

/// The relations the initial database declares; `u0` and `u1` it does not.
const DECLARED: [(&str, u32); 4] = [("f0", 0), ("f1", 0), ("f2", 0), ("r", 1)];

fn arb_goal() -> impl Strategy<Value = Goal> {
    const FLAGS: [&str; 5] = ["f0", "f1", "f2", "u0", "u1"];
    let flag = |names: &'static [&'static str]| (0..names.len()).prop_map(move |i| names[i]);
    let leaf = prop_oneof![
        flag(&FLAGS).prop_map(|f| Goal::ins(f, vec![])),
        flag(&FLAGS).prop_map(|f| Goal::del(f, vec![])),
        flag(&["f0", "f1", "u0"]).prop_map(Goal::prop),
        flag(&["f0", "f1", "u1"]).prop_map(|f| Goal::NotAtom(Atom::prop(f))),
        (0i64..3).prop_map(|k| Goal::ins("r", vec![Term::int(k)])),
        (0i64..3).prop_map(|k| Goal::del("r", vec![Term::int(k)])),
        (0i64..3).prop_map(|k| Goal::atom("r", vec![Term::int(k)])),
        (0i64..3).prop_map(|k| Goal::atom("flip", vec![Term::int(k)])),
        Just(Goal::Fail),
        Just(Goal::True),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Goal::seq),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::par),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::choice),
            inner.prop_map(Goal::iso),
        ]
    })
}

/// The initial database: the declared relations, with the flags and `r`
/// members `init` picks.
fn initial(init: &[bool]) -> Database {
    let mut db = Database::new();
    for (name, arity) in DECLARED {
        db = db.declare(Pred::new(name, arity));
    }
    for (i, name) in ["f0", "f1", "f2"].into_iter().enumerate() {
        if init[i] {
            db = db.insert(Pred::new(name, 0), &td_db::tuple!()).unwrap().0;
        }
    }
    for k in 0..3 {
        if init[3 + k] {
            db = db
                .insert(Pred::new("r", 1), &td_db::tuple!(k as i64))
                .unwrap()
                .0;
        }
    }
    db
}

fn declared(db: &Database) -> BTreeSet<String> {
    db.preds().map(|p| p.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn undoing_the_log_gives_back_what_a_snapshot_kept(
        g in arb_goal(),
        init in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let program = parse_program(PROGRAM).expect("parses").program;
        let config = EngineConfig::default().with_max_steps(100_000);
        let engines = [
            Engine::with_config(program.clone(), config.clone()),
            Engine::with_config(program, config.with_subgoal_cache()),
        ];
        let db = initial(&init);
        let twin = initial(&init);
        for engine in &engines {
            let sols = match engine.solutions(&g, &db, 2_000) {
                Ok(sols) => sols.solutions,
                Err(td_engine::EngineError::StepBudget { .. }) => continue,
                Err(e) => panic!("unexpected fault: {e}"),
            };
            for (i, sol) in sols.iter().enumerate() {
                let replayed = sol.delta.replay(&db).expect("the delta replays");
                prop_assert!(sol.db == replayed, "solution {}: {} vs {}", i, sol.db, replayed);
                prop_assert_eq!(sol.db.digest(), replayed.digest());
                prop_assert_eq!(sol.db.digest(), sol.db.digest_from_scratch());
                prop_assert_eq!(declared(&sol.db), declared(&replayed), "solution {}", i);
            }
            // Whether it failed or not, the solve left the caller's
            // database as it was.
            prop_assert!(db == twin);
            prop_assert_eq!(db.digest(), twin.digest());
            prop_assert_eq!(declared(&db), declared(&twin));
        }
    }
}
