//! Auditing committed histories against workflow specifications.
//!
//! The genome center's requirement is "recording and querying the history
//! of experimental steps and the results they produce" (\[25\], quoted in
//! §1). Because every committed TD execution carries its update log, the
//! history is a first-class value — and a workflow specification induces
//! checkable obligations over it:
//!
//! * **precedence**: if the spec serially orders task `a` before task `b`,
//!   then for every work item, `done(W, a)` must be logged before
//!   `done(W, b)`;
//! * **completeness**: a work item that reached the final task must have a
//!   completion record for every task on some path through the spec;
//! * **single execution**: no task runs twice for the same item.
//!
//! [`audit`] checks a committed [`Delta`] against a [`WorkflowSpec`] and
//! reports every violation.

use crate::spec::{Node, WorkflowSpec};
use std::collections::{BTreeMap, BTreeSet};
use td_core::{Pred, Value};
use td_db::{Delta, DeltaOp};

/// One audit violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Task `later` was logged before `earlier` for this item, violating a
    /// serial edge of the spec.
    OrderViolation {
        item: String,
        earlier: String,
        later: String,
    },
    /// The same task completed more than once for the item.
    DuplicateCompletion { item: String, task: String },
    /// The item has some completions but is missing `task` required by the
    /// spec.
    MissingCompletion { item: String, task: String },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::OrderViolation {
                item,
                earlier,
                later,
            } => write!(
                f,
                "item {item}: task `{later}` logged before `{earlier}`, but the spec orders {earlier} * … * {later}"
            ),
            Violation::DuplicateCompletion { item, task } => {
                write!(f, "item {item}: task `{task}` completed more than once")
            }
            Violation::MissingCompletion { item, task } => {
                write!(f, "item {item}: task `{task}` never completed")
            }
        }
    }
}

/// The precedence relation a spec induces: pairs `(a, b)` meaning every
/// execution runs `a` strictly before `b` (for the same work item).
pub fn precedence_pairs(spec: &WorkflowSpec) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    collect(&spec.body, &mut out);
    out
}

fn collect(node: &Node, out: &mut BTreeSet<(String, String)>) {
    if let Node::Seq(ns) = node {
        for i in 0..ns.len() {
            for j in i + 1..ns.len() {
                for a in ns[i].tasks() {
                    for b in ns[j].tasks() {
                        // A task name appearing on both sides of a serial
                        // edge would make the constraint unsatisfiable;
                        // skip self-pairs defensively.
                        if a != b {
                            out.insert((a.clone(), b.clone()));
                        }
                    }
                }
            }
        }
    }
    match node {
        Node::Sub(_, body) => collect(body, out),
        Node::Seq(ns) | Node::Par(ns) => {
            for n in ns {
                collect(n, out);
            }
        }
        Node::Task(_) => {}
    }
}

/// Audit a committed update log against a spec. The log is expected to use
/// the `done/2` convention of [`WorkflowSpec::compile`].
pub fn audit(spec: &WorkflowSpec, delta: &Delta) -> Vec<Violation> {
    let done = Pred::new("done", 2);
    // Per item: task -> first log position, plus duplicate detection.
    let mut positions: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    let mut violations = Vec::new();

    for (pos, op) in delta.ops().iter().enumerate() {
        let DeltaOp::Ins(p, t) = op else { continue };
        if *p != done {
            continue;
        }
        let (Value::Sym(item), Value::Sym(task)) = (t.values()[0], t.values()[1]) else {
            continue;
        };
        let item = item.as_str().to_owned();
        let task = task.as_str().to_owned();
        let entry = positions.entry(item.clone()).or_default();
        match entry.entry(task.clone()) {
            std::collections::btree_map::Entry::Occupied(_) => {
                violations.push(Violation::DuplicateCompletion { item, task });
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(pos);
            }
        }
    }

    let pairs = precedence_pairs(spec);
    let all_tasks = spec.body.tasks();
    for (item, tasks) in &positions {
        for (a, b) in &pairs {
            if let (Some(pa), Some(pb)) = (tasks.get(a), tasks.get(b)) {
                if pa >= pb {
                    violations.push(Violation::OrderViolation {
                        item: item.clone(),
                        earlier: a.clone(),
                        later: b.clone(),
                    });
                }
            }
        }
        // Completeness: if anything completed, everything must have (the
        // generated workflows have no optional branches).
        for t in &all_tasks {
            if !tasks.contains_key(t) {
                violations.push(Violation::MissingCompletion {
                    item: item.clone(),
                    task: t.clone(),
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_db::tuple;

    fn done_op(item: &str, task: &str) -> DeltaOp {
        DeltaOp::Ins(Pred::new("done", 2), tuple!(item, task))
    }

    fn delta_of(ops: &[DeltaOp]) -> Delta {
        let mut d = Delta::new();
        for op in ops {
            d.push(op.clone());
        }
        d
    }

    #[test]
    fn precedence_pairs_of_example_3_1() {
        let pairs = precedence_pairs(&WorkflowSpec::example_3_1());
        // task1 precedes everything; everything precedes task5.
        assert!(pairs.contains(&("task1".into(), "task2".into())));
        assert!(pairs.contains(&("task1".into(), "task5".into())));
        assert!(pairs.contains(&("task2".into(), "task5".into())));
        assert!(pairs.contains(&("task3".into(), "task4".into())));
        // concurrent tasks are unordered
        assert!(!pairs.contains(&("task2".into(), "task3".into())));
        assert!(!pairs.contains(&("task3".into(), "task2".into())));
    }

    #[test]
    fn committed_runs_pass_the_audit() {
        let spec = WorkflowSpec::example_3_1();
        let scenario = spec.compile(&["w1".to_owned(), "w2".to_owned()]);
        let out = scenario.run().unwrap();
        let delta = out.solution().unwrap().delta.clone();
        assert!(audit(&spec, &delta).is_empty());
    }

    #[test]
    fn order_violation_detected() {
        let spec = WorkflowSpec::example_3_1();
        let d = delta_of(&[
            done_op("w1", "task5"), // final task first!
            done_op("w1", "task1"),
            done_op("w1", "task2"),
            done_op("w1", "task3"),
            done_op("w1", "task4"),
        ]);
        let v = audit(&spec, &d);
        assert!(v.iter().any(|v| matches!(
            v,
            Violation::OrderViolation { later, .. } if later == "task5"
        )));
    }

    #[test]
    fn duplicate_and_missing_detected() {
        let spec = WorkflowSpec::example_3_1();
        let d = delta_of(&[
            done_op("w1", "task1"),
            done_op("w1", "task1"),
            done_op("w1", "task2"),
        ]);
        let v = audit(&spec, &d);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::DuplicateCompletion { task, .. } if task == "task1")));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::MissingCompletion { task, .. } if task == "task5")));
    }

    #[test]
    fn items_are_audited_independently() {
        let spec = WorkflowSpec::new("w", Node::Seq(vec![Node::task("a"), Node::task("b")]));
        let d = delta_of(&[
            done_op("w1", "a"),
            done_op("w2", "b"), // w2 out of order...
            done_op("w1", "b"),
            done_op("w2", "a"),
        ]);
        let v = audit(&spec, &d);
        assert_eq!(v.len(), 1);
        assert!(matches!(&v[0], Violation::OrderViolation { item, .. } if item == "w2"));
    }

    #[test]
    fn violations_render_readably() {
        let v = Violation::OrderViolation {
            item: "w1".into(),
            earlier: "a".into(),
            later: "b".into(),
        };
        assert!(v.to_string().contains("`b` logged before `a`"));
    }
}
