//! Durable workflow runs: §3's long-lived workflow state, persisted.
//!
//! A plain [`Scenario::run`] starts every simulation from the scenario's
//! init facts, but the paper's workflow database — sample status, task
//! claims, agent qualifications — outlives any single run. This module
//! backs a scenario with a [`td_store::Store`] directory:
//!
//! * the **first** run seeds the store with the scenario's schema and init
//!   facts (committed as the genesis WAL record, so even a crash before the
//!   goal leaves a replayable state);
//! * **later** runs crash-recover whatever earlier runs committed and
//!   execute the goal from that state — the scenario's init facts are *not*
//!   re-applied (the store is the source of truth);
//! * each successful run commits its delta through the WAL (fsync) before
//!   reporting success; failed or faulted runs commit nothing.
//!
//! Iterating a scenario against one directory therefore *accumulates*
//! state, the way the lab's iterated protocol accumulates results across
//! days (docs/PERSISTENCE.md).

use crate::scenario::Scenario;
use std::fmt;
use std::path::Path;
use td_engine::{EngineConfig, EngineError, Outcome};
use td_store::{RecoveryInfo, Store, StoreError};

/// Why a durable run failed: inside the engine, or in the layer under it.
#[derive(Debug)]
pub enum DurableError {
    /// The search itself faulted (budget, arity drift, …).
    Engine(EngineError),
    /// Opening, recovering or committing to the store failed.
    Store(StoreError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Engine(e) => write!(f, "engine: {e}"),
            DurableError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<EngineError> for DurableError {
    fn from(e: EngineError) -> DurableError {
        DurableError::Engine(e)
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> DurableError {
        DurableError::Store(e)
    }
}

/// What one durable run did.
#[derive(Debug)]
pub struct DurableRun {
    /// The engine outcome (success carries the answer, delta and new db).
    pub outcome: Outcome,
    /// How the store opened: fresh, recovered, torn tail cut, stale WAL.
    pub recovery: RecoveryInfo,
    /// Did this run append a WAL record? (Success with a non-empty delta.)
    pub committed: bool,
    /// WAL records since the snapshot, after this run.
    pub wal_records: u64,
    /// Content digest of the durable state after this run.
    pub digest: u128,
}

/// Execute `scenario`'s goal against the durable store at `dir`, creating
/// the store (schema + init facts as the genesis record) on first use and
/// crash-recovering accumulated state on every later one.
pub fn run_durable(
    scenario: &Scenario,
    dir: &Path,
    config: EngineConfig,
) -> Result<DurableRun, DurableError> {
    let schema = td_db::Database::with_schema_of(&scenario.program);
    let mut store = Store::open_or_seed(dir, &schema, &scenario.db)?;
    let engine = td_engine::Engine::with_config(scenario.program.clone(), config);
    let outcome = engine.solve(&scenario.goal, store.db())?;
    let mut committed = false;
    if let Outcome::Success(sol) = &outcome {
        if !sol.delta.is_empty() {
            store.commit(&sol.delta)?;
            debug_assert_eq!(store.db().digest(), sol.db.digest());
            committed = true;
        }
    }
    Ok(DurableRun {
        outcome,
        recovery: *store.recovery(),
        committed,
        wal_records: store.wal_records(),
        digest: store.db().digest(),
    })
}

impl Scenario {
    /// [`run_durable`] as a method, with the default engine configuration.
    pub fn run_durable(&self, dir: &Path) -> Result<DurableRun, DurableError> {
        run_durable(self, dir, EngineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use td_store::RecoveryOutcome;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("td-workflow-durable").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        dir
    }

    #[test]
    fn state_accumulates_across_runs_and_init_is_not_reapplied() {
        let dir = temp_dir("accumulate");
        // Run 1: fresh store seeded with t(1), goal inserts t(2).
        let s1 = Scenario::from_source("base t/1. init t(1). ?- ins.t(2).".to_owned());
        let r1 = s1.run_durable(&dir).unwrap();
        assert_eq!(r1.recovery.outcome, RecoveryOutcome::Fresh);
        assert!(r1.committed);
        assert_eq!(r1.wal_records, 2); // genesis + goal

        // Run 2: different init (t(9)) — must be IGNORED, the store is the
        // source of truth; the goal *requires* run 1's t(2), which only a
        // recovered store provides.
        let s2 = Scenario::from_source("base t/1. init t(9). ?- t(2) * ins.t(3).".to_owned());
        let r2 = run_durable(&s2, &dir, EngineConfig::default()).unwrap();
        assert_eq!(r2.recovery.outcome, RecoveryOutcome::Recovered);
        assert_eq!(r2.recovery.replayed, 2);
        assert!(r2.committed);
        let sol = r2.outcome.solution().unwrap();
        assert_eq!(sol.db.total_tuples(), 3); // t(1), t(2), t(3)
        assert!(!sol
            .db
            .contains(td_core::Pred::new("t", 1), &td_db::tuple!(9)));
        assert_eq!(r2.digest, sol.db.digest());

        // A third, read-only run: recovers all three commits, commits none.
        let s3 = Scenario::from_source("base t/1. ?- t(1) * t(2) * t(3).".to_owned());
        let r3 = run_durable(&s3, &dir, EngineConfig::default()).unwrap();
        assert!(r3.outcome.is_success());
        assert!(!r3.committed);
        assert_eq!(r3.wal_records, 3);
        assert_eq!(r3.digest, r2.digest);

        assert!(Store::verify(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_runs_commit_nothing() {
        let dir = temp_dir("failed-run");
        let s = Scenario::from_source("base t/1. init t(1). ?- ins.t(2).".to_owned());
        let r = s.run_durable(&dir).unwrap();
        let before = r.digest;
        // A goal that fails must leave no trace in the WAL.
        let failing = Scenario::from_source("base t/1. ?- t(777) * ins.t(4).".to_owned());
        let r = failing.run_durable(&dir).unwrap();
        assert!(!r.outcome.is_success());
        assert!(!r.committed);
        assert_eq!(r.digest, before);
        assert_eq!(r.wal_records, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn iterated_lab_protocol_accumulates_results() {
        // The §6 iterated protocol, run day after day against one store:
        // every run recovers the previous days' results and adds its own
        // committed transaction on top.
        let dir = temp_dir("labflow");
        let src = crate::labflow::RepeatProtocol::new(2, 3).compile().source;
        let first = Scenario::from_source(src.clone())
            .run_durable(&dir)
            .unwrap();
        assert_eq!(first.recovery.outcome, RecoveryOutcome::Fresh);
        let mut last = first.wal_records;
        for _ in 0..2 {
            let r = Scenario::from_source(src.clone())
                .run_durable(&dir)
                .unwrap();
            assert_eq!(r.recovery.outcome, RecoveryOutcome::Recovered);
            assert!(r.outcome.is_success());
            assert!(r.wal_records >= last);
            last = r.wal_records;
        }
        assert!(Store::verify(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}
