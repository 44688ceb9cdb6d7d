//! # td-store — durability beneath [`td_db::Database`]
//!
//! The paper's semantics commit a transaction's delta atomically (the
//! isolation operator `⊙a` and the committed-path model of §2–§3), but the
//! engine alone only ever commits to an in-memory snapshot value. This crate
//! adds the missing layer for long-lived workloads, in the tradition of
//! Wielemaker's *Extending the logical update view with transaction
//! support*: durable, atomically visible updates layered *under* the logical
//! semantics, invisible to them except for where the initial database comes
//! from.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/snapshot.tds   full database image  (format tag td-store/v1, kind "snap")
//! <dir>/wal.tdl        logical write-ahead log since that snapshot ("wal\n")
//! ```
//!
//! * [`codec`] — the versioned binary codec: length-prefixed values, tuples
//!   and relations inside checksummed pages.
//! * [`snapshot`] — full-database image writer/loader; the persisted 128-bit
//!   content digest is re-derived on load and must match.
//! * [`wal`] — one checksummed record per *committed* transaction delta
//!   (the `ins`/`del` sets the engine already produces), fsync'd on commit;
//!   a torn or corrupt tail is detected and cut, never replayed.
//! * [`store`] — [`Store`]: open-or-recover, commit, rotate, verify.
//! * [`faultfs`] — deterministic byte-granular truncation/corruption
//!   helpers for crash tests.
//!
//! The recovery invariant (docs/PERSISTENCE.md): after any crash, recovery
//! yields a digest-verified database equal to the snapshot plus a *prefix*
//! of the committed transaction sequence — a partial transaction delta is
//! never made visible.

pub mod codec;
pub mod concurrent;
pub mod faultfs;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::{CodecError, FORMAT_TAG};
pub use concurrent::{Committed, ConcurrentStats, ConcurrentStore, TxDecision, TxError, TxOptions};
pub use snapshot::{load_snapshot, write_snapshot};
pub use store::{RecoveryInfo, RecoveryOutcome, Store, VerifyReport};
pub use wal::{Wal, WalRecord, WalTail};

use std::fmt;

/// Everything that can go wrong when persisting or recovering a database.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure, with the path it concerned.
    Io(String, std::io::Error),
    /// A frame or payload failed to decode.
    Codec(CodecError),
    /// A persisted digest did not match the recomputed one.
    DigestMismatch {
        context: String,
        stored: u128,
        computed: u128,
    },
    /// The directory does not hold an initialized store.
    NotInitialized(String),
    /// Another process holds the store's advisory lock.
    Locked(String),
    /// The directory already holds a store (`init` refused).
    AlreadyInitialized(String),
    /// Snapshot/WAL pair is inconsistent beyond repair.
    Corrupt(String),
    /// A replayed update faulted against the database (arity drift).
    Db(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(path, e) => write!(f, "{path}: {e}"),
            StoreError::Codec(e) => write!(f, "codec: {e}"),
            StoreError::DigestMismatch {
                context,
                stored,
                computed,
            } => write!(
                f,
                "{context}: stored digest 0x{stored:032x} does not match recomputed 0x{computed:032x}"
            ),
            StoreError::NotInitialized(p) => {
                write!(f, "`{p}` is not an initialized store (run `td db init`)")
            }
            StoreError::Locked(p) => write!(
                f,
                "`{p}` is locked by another process (two writers on one \
                 store would corrupt the commit sequence; use `td serve` \
                 for concurrent access)"
            ),
            StoreError::AlreadyInitialized(p) => write!(f, "`{p}` already holds a store"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Db(msg) => write!(f, "replay fault: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        StoreError::Codec(e)
    }
}

/// Shorthand used across the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> StoreError {
    StoreError::Io(path.display().to_string(), e)
}
