//! A loan office as a long-running workflow system.
//!
//! Runs a stream of transactions against one evolving database: every
//! `Engine::solve` that succeeds hands back the next database value, one that
//! fails leaves it untouched. Applications arrive, get processed (with
//! data-dependent branching, officer reviews, and a transactionally guarded
//! funds ledger), and the state is monitored between submissions.
//!
//! ```sh
//! cargo run --example loan_office
//! ```

use td_core::{Atom, Goal, Pred, Term};
use td_db::{Database, Tuple};
use td_engine::{Engine, Outcome};
use transaction_datalog::workflow::LoanConfig;

/// All tuples of a unary base relation, sorted.
fn tuples(db: &Database, name: &str) -> Vec<Tuple> {
    db.relation(Pred::new(name, 1)).unwrap().to_vec()
}

fn main() {
    let cfg = LoanConfig::new(&[300, 800, 450, 900, 120], 1500);
    let scenario = cfg.compile();
    println!("--- loan workflow program ---\n{}", scenario.source);

    let engine = Engine::new(scenario.program);
    let mut db = scenario.db;
    let (mut committed, mut updates) = (0, 0);

    // Applications are settled one at a time — a transaction stream, not a
    // single goal.
    for app in ["app1", "app2", "app3", "app4", "app5"] {
        let goal = Goal::Atom(Atom::new("process", vec![Term::sym(app)]));
        let settled = match engine.solve(&goal, &db).unwrap() {
            Outcome::Success(sol) => {
                committed += 1;
                updates += sol.delta.len();
                db = sol.db;
                true
            }
            Outcome::Failure { .. } => false,
        };
        println!(
            "{app}: {}  (funds now {})",
            if settled { "settled" } else { "ABORTED" },
            tuples(&db, "funds")[0]
        );
    }

    let approved = tuples(&db, "approved");
    let rejected = tuples(&db, "rejected");
    println!(
        "\napproved: {approved:?}\nrejected: {rejected:?}",
        approved = approved.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        rejected = rejected.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
    );
    println!("{committed} transactions committed, {updates} updates total");
    assert_eq!(approved.len() + rejected.len(), 5);

    // The ledger never went negative and the officer is back in the pool.
    assert_eq!(tuples(&db, "officer").len(), 1, "officer back in the pool");
    let remaining = tuples(&db, "funds")[0].values()[0].as_int().unwrap();
    assert!(remaining >= 0);
    println!("final funds: {remaining}");
}
