//! # td-db — the deductive-database substrate
//!
//! Transaction Datalog interleaves many concurrent processes over one shared
//! database, and its all-or-nothing transaction semantics means failed
//! executions must roll back exactly. This crate provides the storage layer
//! shaped by those two demands:
//!
//! * [`Database`] — an immutable **snapshot** database: updates return new
//!   versions; old versions stay valid. The engine's choicepoints and
//!   isolation blocks are therefore O(1) to establish and to roll back.
//!   A version also holds what has been derived from it — arrangements of
//!   its relations in other column orders, an engine's materialized views —
//!   for exactly as long as the version lives, so rolling back to a value
//!   rolls back to its views too; a version an update makes from it starts
//!   its own from there.
//! * [`Relation`] — a persistent sorted tuple set with structural sharing
//!   across versions, and [`CountedRelation`], the same with a derivation
//!   count per tuple. Both sit on one structure, the B+-tree in [`ord`]
//!   (docs/ARCHITECTURE.md, "Below the engine", describes it).
//! * [`Tuple`] — immutable ground tuples (see also the [`tuple!`] macro).
//! * [`Delta`] — ordered update logs for monitoring and replay.
//!
//! TD is a *safe* language: the schema and domain are fixed by the program
//! and initial database, so the store never needs schema evolution, and
//! database size stays polynomial in the input (§4 of the paper).

pub mod counted;
pub mod database;
pub mod delta;
pub mod ord;
pub mod read_set;
pub mod relation;
mod sip;
pub mod tuple;

pub use counted::CountedRelation;
pub use database::{Database, DbError, Pending, Slot, Undo};
pub use delta::{Delta, DeltaOp};
pub use read_set::ReadSet;
pub use relation::Relation;
pub use tuple::Tuple;

/// `td serve` shares snapshots across connection threads, so every storage
/// type must be `Send + Sync`. Compile-time proof; a regression
/// (e.g. an `Rc` or `Cell` slipping into a node type) fails the build here.
#[allow(dead_code)]
fn _assert_storage_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Relation>();
    assert_send_sync::<CountedRelation>();
    assert_send_sync::<Tuple>();
    assert_send_sync::<Delta>();
    assert_send_sync::<ReadSet>();
    assert_send_sync::<ord::OrdMap<Tuple, i64>>();
}
