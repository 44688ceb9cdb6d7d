//! # transaction-datalog — umbrella crate
//!
//! A Rust implementation of **Transaction Datalog** (TD), the concurrent,
//! transactional extension of Datalog of Bonner's *"Workflow, Transactions,
//! and Datalog"* (PODS 1999). This crate re-exports the public API of the
//! workspace crates:
//!
//! * [`core`] — the language: terms, goals, rules, programs,
//!   fragment classification;
//! * [`parser`] — concrete `.td` syntax;
//! * [`db`] — persistent database substrate;
//! * [`store`] — durability: snapshots, logical WAL, crash
//!   recovery (`td --db`, docs/PERSISTENCE.md);
//! * [`engine`] — the interpreter (interleaving search,
//!   isolation), the bounded-fragment decider, and a classical bottom-up
//!   Datalog evaluator;
//! * [`workflow`] — workflow modeling (tasks, agents,
//!   cooperating workflows) and the genome-laboratory workload;
//! * [`machines`] — the complexity-theorem constructions
//!   (counter machines, QBF, SAT encodings).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use td_core as core;
pub use td_db as db;
pub use td_engine as engine;
pub use td_machines as machines;
pub use td_parser as parser;
pub use td_store as store;
pub use td_workflow as workflow;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use td_core::{
        Atom, Bindings, Builtin, Fragment, FragmentReport, Goal, Pred, Program, ProgramBuilder,
        Rule, Symbol, Term, Value, Var,
    };
    pub use td_db::{Database, Tuple};
    pub use td_engine::{Engine, EngineConfig, Outcome, Strategy};
    pub use td_parser::{parse_goal, parse_program};
    pub use td_store::Store;
}
