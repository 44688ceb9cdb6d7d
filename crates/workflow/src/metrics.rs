//! Workflow monitoring over committed executions.
//!
//! The paper stresses "monitoring, tracking and querying the status of
//! workflow activities" (§3, citing \[36, 42, 26\]). Because TD records
//! everything in the database and every committed execution carries its
//! update log, monitoring is a pure function of the committed execution:
//! [`double_claims`] finds — for experiment E12 — the concurrency anomalies
//! of the unisolated agent-claim protocol in its log.

use std::collections::HashSet;
use td_core::{Pred, Value};
use td_db::{Delta, DeltaOp};

/// Count double-claims of shared agents in a committed update log: a
/// `del.avail(A)` (claim) while `A` is already claimed and not yet released
/// by `ins.avail(A)`. With the isolated claim protocol of
/// [`crate::agents`], this is always 0; without isolation, interleavings
/// that assign one agent to two tasks at once become committable — the
/// anomaly experiment E12 measures.
pub fn double_claims(delta: &Delta) -> usize {
    let avail = Pred::new("avail", 1);
    let mut held: HashSet<Value> = HashSet::new();
    let mut anomalies = 0;
    for op in delta.ops() {
        match op {
            DeltaOp::Del(p, t) if *p == avail => {
                let agent = t.values()[0];
                if !held.insert(agent) {
                    anomalies += 1;
                }
            }
            DeltaOp::Ins(p, t) if *p == avail => {
                held.remove(&t.values()[0]);
            }
            _ => {}
        }
    }
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::AgentScenarioConfig;
    use crate::spec::{Node, WorkflowSpec};
    use td_db::tuple;

    fn delta_of(ops: &[DeltaOp]) -> Delta {
        let mut d = Delta::new();
        for op in ops {
            d.push(op.clone());
        }
        d
    }

    #[test]
    fn double_claims_detects_overlap() {
        let avail = Pred::new("avail", 1);
        // claim a1; claim a1 again before release → 1 anomaly
        let d = delta_of(&[
            DeltaOp::Del(avail, tuple!("a1")),
            DeltaOp::Del(avail, tuple!("a1")),
            DeltaOp::Ins(avail, tuple!("a1")),
        ]);
        assert_eq!(double_claims(&d), 1);
        // proper claim/release pairs → 0
        let d = delta_of(&[
            DeltaOp::Del(avail, tuple!("a1")),
            DeltaOp::Ins(avail, tuple!("a1")),
            DeltaOp::Del(avail, tuple!("a1")),
            DeltaOp::Ins(avail, tuple!("a1")),
        ]);
        assert_eq!(double_claims(&d), 0);
    }

    #[test]
    fn isolated_claims_have_no_anomalies() {
        let cfg = AgentScenarioConfig::universal_pool(
            WorkflowSpec::new("wf", Node::Seq(vec![Node::task("t1"), Node::task("t2")])),
            vec!["w1".into(), "w2".into()],
            2,
        );
        let out = cfg.compile().run().unwrap();
        let delta = out.solution().unwrap().delta.clone();
        assert_eq!(double_claims(&delta), 0);
    }
}
