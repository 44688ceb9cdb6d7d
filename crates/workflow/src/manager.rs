//! A long-running workflow management system over TD.
//!
//! The paper's setting is a *system*: a database shared by a stream of
//! workflow instances, transactions arriving over time, state monitored
//! continuously (\[25\]: "coordinating the flow of materials … and recording
//! and querying the history of experimental steps"). [`Manager`] is that
//! operational layer on top of the one-shot [`td_engine::Engine`]:
//!
//! * it owns the evolving database;
//! * [`Manager::submit`] runs one goal as a transaction — on success the
//!   database advances, on failure it is untouched (all-or-nothing);
//! * every committed transaction's update log is retained for monitoring;
//! * [`Manager::query`] answers read-only questions against the current
//!   state (derived predicates included, via the bottom-up evaluator when
//!   applicable, else the engine).

use td_core::{Atom, Goal, Program, Value};
use td_db::{Database, Delta, Tuple};
use td_engine::{datalog, Engine, EngineConfig, EngineError, Outcome, Stats};

/// A committed transaction's record.
#[derive(Clone, Debug)]
pub struct Committed {
    /// Sequence number (0-based submission order among commits).
    pub seq: usize,
    /// The goal that ran.
    pub goal: Goal,
    /// Updates it applied.
    pub delta: Delta,
    /// Search statistics.
    pub stats: Stats,
}

/// Outcome of a submission.
#[derive(Clone, Debug)]
pub enum Submitted {
    /// Committed; the database advanced.
    Committed(Committed),
    /// No successful execution: the database is unchanged.
    Aborted { stats: Stats },
}

impl Submitted {
    /// Did the transaction commit?
    pub fn is_committed(&self) -> bool {
        matches!(self, Submitted::Committed(_))
    }
}

/// The workflow management system: program + evolving database + history.
///
/// ```
/// use td_workflow::{Manager, WorkflowSpec};
///
/// let scenario = WorkflowSpec::example_3_1().compile(&["w1".to_owned()]);
/// let mut office = Manager::from_scenario(&scenario);
/// let r = office.submit_text("workflow(w1)").unwrap();
/// assert!(r.is_committed());
/// assert!(office.submit_text("workflow(ghost)").unwrap().is_committed() == false);
/// assert_eq!(office.history().len(), 1); // the abort left no record
/// ```
#[derive(Clone, Debug)]
pub struct Manager {
    engine: Engine,
    db: Database,
    history: Vec<Committed>,
}

impl Manager {
    /// A manager over `program` starting from `db`.
    pub fn new(program: Program, db: Database) -> Manager {
        Manager::with_config(program, db, EngineConfig::default())
    }

    /// With an explicit engine configuration.
    pub fn with_config(program: Program, db: Database, config: EngineConfig) -> Manager {
        Manager {
            engine: Engine::with_config(program, config),
            db,
            history: Vec::new(),
        }
    }

    /// From a compiled scenario (program + init db; the scenario's goal is
    /// *not* auto-submitted).
    pub fn from_scenario(scenario: &crate::Scenario) -> Manager {
        Manager::new(scenario.program.clone(), scenario.db.clone())
    }

    /// The current database state.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The program.
    pub fn program(&self) -> &Program {
        self.engine.program()
    }

    /// Committed transactions, oldest first.
    pub fn history(&self) -> &[Committed] {
        &self.history
    }

    /// Run `goal` as one transaction against the current state.
    pub fn submit(&mut self, goal: &Goal) -> Result<Submitted, EngineError> {
        match self.engine.solve(goal, &self.db)? {
            Outcome::Success(sol) => {
                self.db = sol.db.clone();
                let record = Committed {
                    seq: self.history.len(),
                    goal: goal.clone(),
                    delta: sol.delta.clone(),
                    stats: sol.stats,
                };
                self.history.push(record.clone());
                Ok(Submitted::Committed(record))
            }
            Outcome::Failure { stats } => Ok(Submitted::Aborted { stats }),
        }
    }

    /// Parse and submit a goal written in concrete syntax.
    pub fn submit_text(&mut self, goal_src: &str) -> Result<Submitted, EngineError> {
        let parsed = td_parser::parse_goal(goal_src, self.engine.program())
            .map_err(|e| EngineError::Db(format!("goal does not parse: {e}")))?;
        self.submit(&parsed.goal)
    }

    /// Read-only query: all tuples matching `atom` in the current state.
    /// Base predicates read the store directly; derived predicates evaluate
    /// bottom-up when the program is Datalog-evaluable for them, otherwise
    /// enumerate via the engine (which leaves the database untouched since
    /// the results are discarded — but may be expensive for updateful
    /// predicates).
    pub fn query(&self, atom: &Atom) -> Result<Vec<Tuple>, EngineError> {
        match datalog::query(self.program(), &self.db, atom) {
            Ok(t) => Ok(t),
            Err(_) => {
                // Fall back to engine enumeration of answers.
                let goal = Goal::Atom(atom.clone());
                let sols = self.engine.solutions(&goal, &self.db, 10_000)?;
                let mut out: Vec<Tuple> = sols
                    .solutions
                    .iter()
                    .filter_map(|s| {
                        let vals: Option<Vec<Value>> = atom
                            .args
                            .iter()
                            .map(|t| match t {
                                td_core::Term::Val(v) => Some(*v),
                                td_core::Term::Var(v) => {
                                    s.answer.get(v.0 as usize).and_then(|t| t.as_value())
                                }
                            })
                            .collect();
                        vals.map(Tuple::new)
                    })
                    .collect();
                out.sort();
                out.dedup();
                Ok(out)
            }
        }
    }

    /// Total updates committed so far.
    pub fn total_updates(&self) -> usize {
        self.history.iter().map(|c| c.delta.len()).sum()
    }

    /// Audit the whole committed history against a workflow specification
    /// (see [`crate::audit()`]): concatenates every transaction's update log
    /// and checks task precedence, duplication and completeness per item.
    pub fn audit_against(&self, spec: &crate::WorkflowSpec) -> Vec<crate::Violation> {
        let mut combined = td_db::Delta::new();
        for c in &self.history {
            for op in c.delta.ops() {
                combined.push(op.clone());
            }
        }
        crate::audit::audit(spec, &combined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkflowSpec;
    use td_core::{Pred, Term};
    use td_db::tuple;

    fn manager() -> Manager {
        let scenario = WorkflowSpec::example_3_1().compile(&[
            "w1".to_owned(),
            "w2".to_owned(),
            "w3".to_owned(),
        ]);
        Manager::from_scenario(&scenario)
    }

    #[test]
    fn submissions_advance_state_transactionally() {
        let mut m = manager();
        let r1 = m.submit_text("workflow(w1)").unwrap();
        assert!(r1.is_committed());
        assert_eq!(m.history().len(), 1);
        // w1's five tasks are done; w2 untouched.
        assert_eq!(m.db().relation(Pred::new("done", 2)).unwrap().len(), 5);

        // A doomed transaction leaves no residue.
        let r2 = m.submit_text("workflow(ghost)").unwrap();
        assert!(!r2.is_committed());
        assert_eq!(m.history().len(), 1);
        assert_eq!(m.db().relation(Pred::new("done", 2)).unwrap().len(), 5);

        let r3 = m.submit_text("workflow(w2) | workflow(w3)").unwrap();
        assert!(r3.is_committed());
        assert_eq!(m.db().relation(Pred::new("done", 2)).unwrap().len(), 15);
        assert_eq!(m.total_updates(), 15);
    }

    #[test]
    fn query_reads_base_relations() {
        let mut m = manager();
        m.submit_text("workflow(w1)").unwrap();
        let done = m
            .query(&Atom::new("done", vec![Term::sym("w1"), Term::var(0)]))
            .unwrap();
        assert_eq!(done.len(), 5);
        let items = m.query(&Atom::new("item", vec![Term::var(0)])).unwrap();
        assert_eq!(items.len(), 3, "items are not consumed by this workflow");
    }

    #[test]
    fn query_answers_derived_predicates_via_engine_fallback() {
        // `workflow` has updates, so the Datalog evaluator refuses and the
        // engine fallback enumerates bindings for which it is executable.
        let m = manager();
        let ans = m.query(&Atom::new("workflow", vec![Term::var(0)])).unwrap();
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&tuple!("w1")));
    }

    #[test]
    fn query_uses_datalog_for_pure_predicates() {
        let src = "
            base e/2.
            init e(a, b). init e(b, c).
            reach(X, Y) <- e(X, Y).
            reach(X, Z) <- e(X, Y) * reach(Y, Z).
        ";
        let parsed = td_parser::parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let db = td_engine::load_init(&db, &parsed.init).unwrap();
        let m = Manager::new(parsed.program, db);
        let ans = m
            .query(&Atom::new("reach", vec![Term::sym("a"), Term::var(0)]))
            .unwrap();
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn audit_against_passes_for_committed_workflows() {
        let spec = WorkflowSpec::example_3_1();
        let mut m = manager();
        m.submit_text("workflow(w1)").unwrap();
        m.submit_text("workflow(w2) | workflow(w3)").unwrap();
        assert!(m.audit_against(&spec).is_empty());
    }

    #[test]
    fn history_records_deltas_in_order() {
        let mut m = manager();
        m.submit_text("workflow(w1)").unwrap();
        m.submit_text("workflow(w2)").unwrap();
        assert_eq!(m.history()[0].seq, 0);
        assert_eq!(m.history()[1].seq, 1);
        assert!(m.history()[0]
            .delta
            .ops()
            .iter()
            .all(|op| op.to_string().contains("w1")));
    }

    #[test]
    fn bad_goal_text_is_an_error_not_a_panic() {
        let mut m = manager();
        assert!(m.submit_text("nonsense(").is_err());
        assert!(m.submit_text("undeclared_pred(w1)").is_err());
    }
}
