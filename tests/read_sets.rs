//! Read-set capture: the engine reports, per solution, every relation the
//! search consulted — on the committed path *and* on failed, backtracked
//! branches — because that is the dependency set a store-level OCC commit
//! must validate against. These tests pin the capture rules end-to-end:
//!
//! 1. tests and absence tests record their predicate;
//! 2. pure writes (`ins`/`del`) record nothing — they are writes, their
//!    delta is independent of the target relation's content;
//! 3. reads on failed branches are *kept*, never truncated with the trail.

mod common;

use common::{budgeted_engine, flag_program};
use td_core::{Atom, Pred};
use transaction_datalog::prelude::{Database, Goal};

fn solve_reads(goal: &Goal, db: &Database) -> td_db::ReadSet {
    let engine = budgeted_engine(&flag_program());
    let outcome = engine.solve(goal, db).expect("no fault");
    outcome
        .solution()
        .expect("goal should be executable")
        .reads
        .clone()
}

fn db_with(flags: &[&str]) -> Database {
    let p = flag_program();
    let mut db = Database::with_schema_of(&p);
    for f in flags {
        db = db.insert(Pred::new(f, 0), &td_db::tuple!()).unwrap().0;
    }
    db
}

#[test]
fn tests_and_absence_tests_record_their_predicate() {
    let db = db_with(&["f0"]);
    let g = Goal::seq(vec![Goal::prop("f0"), Goal::NotAtom(Atom::prop("f1"))]);
    let reads = solve_reads(&g, &db);
    assert!(reads.contains(Pred::new("f0", 0)), "positive test read");
    assert!(reads.contains(Pred::new("f1", 0)), "absence test read");
    assert!(!reads.contains(Pred::new("f2", 0)), "untouched relation");
}

#[test]
fn pure_writes_record_no_reads() {
    let db = db_with(&[]);
    let g = Goal::seq(vec![Goal::ins("f0", vec![]), Goal::del("f1", vec![])]);
    let reads = solve_reads(&g, &db);
    assert!(
        reads.is_empty(),
        "ins/del are pure writes, got reads {{{reads}}}"
    );
}

#[test]
fn failed_branch_reads_survive_backtracking() {
    // First alternative tests f2 (absent) and fails; the witness comes from
    // the second alternative, which only writes. The f2 read must survive:
    // had f2 been present, the committed delta would have differed.
    let db = db_with(&[]);
    let g = Goal::choice(vec![
        Goal::seq(vec![Goal::prop("f2"), Goal::ins("f0", vec![])]),
        Goal::ins("f1", vec![]),
    ]);
    let reads = solve_reads(&g, &db);
    assert!(
        reads.contains(Pred::new("f2", 0)),
        "read on a failed branch must be kept, got {{{reads}}}"
    );
}
