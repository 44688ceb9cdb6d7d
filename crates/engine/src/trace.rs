//! Structured execution traces.
//!
//! With `EngineConfig::trace` enabled, the engine records every event of
//! the *committed* execution path — rule unfoldings, tuple matches,
//! updates, isolation boundaries and choice commitments. Backtracked work
//! is truncated away, so the trace is exactly the story of the successful
//! execution: the basis for the workflow monitoring the paper calls for in
//! §3 ("monitoring, tracking and querying the status of workflow
//! activities").
//!
//! Tracing disables the subgoal answer cache (`EngineConfig::subgoal_cache`):
//! a cached answer is replayed as one macro-step, which has no elementary
//! events to record.

use std::fmt;
use td_core::{Atom, Pred, RuleId};
use td_db::Tuple;

/// A search phase bracketed by [`TraceEvent::SpanEnter`] /
/// [`TraceEvent::SpanExit`] events in the structured event stream
/// (`crate::obs::EventLog`). Unlike the committed-path events above the
/// span events are emitted by *every* backend, including the parallel and
/// cached configurations where the committed trace is unavailable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanPhase {
    /// A whole top-level search (one `?-` goal or one `solve` call).
    Solve,
    /// An isolated block `iso { … }` executing under the ⊙ semantics.
    Isolation,
    /// Replay of a cached answer set as macro-steps.
    CacheReplay,
    /// One parallel worker's lifetime (aggregate span: the exit detail
    /// carries its claim/steal totals).
    Worker,
}

impl SpanPhase {
    /// Stable lowercase name used in logs and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanPhase::Solve => "solve",
            SpanPhase::Isolation => "isolation",
            SpanPhase::CacheReplay => "cache_replay",
            SpanPhase::Worker => "worker",
        }
    }
}

/// What a subgoal-cache probe found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeOutcome {
    /// A stored answer set was replayed.
    Hit,
    /// Nothing stored; the subgoal was (or will be) enumerated.
    Miss,
    /// A negative `Unsuitable` entry: the lazy path is mandatory.
    Unsuitable,
}

impl ProbeOutcome {
    /// Stable lowercase name used in logs and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ProbeOutcome::Hit => "hit",
            ProbeOutcome::Miss => "miss",
            ProbeOutcome::Unsuitable => "unsuitable",
        }
    }
}

/// One event of a committed execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A call unfolded into the body of a rule.
    Unfold { call: Atom, rule: RuleId },
    /// A tuple test matched.
    Match { query: Atom, tuple: Tuple },
    /// An absence test passed.
    Absent { query: Atom },
    /// A tuple was inserted (`changed` = it was previously absent).
    Ins {
        pred: Pred,
        tuple: Tuple,
        changed: bool,
    },
    /// A tuple was deleted (`changed` = it was previously present).
    Del {
        pred: Pred,
        tuple: Tuple,
        changed: bool,
    },
    /// A builtin test passed.
    Builtin { rendered: String },
    /// A choice committed to branch `index`.
    Choice { index: usize },
    /// An isolated block began.
    IsoEnter,
    /// The isolated block committed.
    IsoExit,
    /// A search phase began (structured event stream only).
    SpanEnter { phase: SpanPhase, detail: String },
    /// A search phase ended (structured event stream only).
    SpanExit { phase: SpanPhase, detail: String },
    /// A subgoal-cache probe resolved (structured event stream only).
    CacheProbe {
        subgoal: String,
        outcome: ProbeOutcome,
    },
    /// A parallel worker stole a task from another's queue (structured
    /// event stream only).
    WorkerSteal { thief: u32, victim: u32 },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Unfold { call, rule } => write!(f, "unfold {call} (rule #{})", rule.0),
            TraceEvent::Match { query, tuple } => write!(f, "match {query} = {tuple}"),
            TraceEvent::Absent { query } => write!(f, "absent {query}"),
            TraceEvent::Ins {
                pred,
                tuple,
                changed,
            } => {
                write!(
                    f,
                    "ins.{}{tuple}{}",
                    pred.name,
                    if *changed { "" } else { " (no-op)" }
                )
            }
            TraceEvent::Del {
                pred,
                tuple,
                changed,
            } => {
                write!(
                    f,
                    "del.{}{tuple}{}",
                    pred.name,
                    if *changed { "" } else { " (no-op)" }
                )
            }
            TraceEvent::Builtin { rendered } => write!(f, "check {rendered}"),
            TraceEvent::Choice { index } => write!(f, "choose branch {index}"),
            TraceEvent::IsoEnter => write!(f, "iso {{"),
            TraceEvent::IsoExit => write!(f, "}}"),
            TraceEvent::SpanEnter { phase, detail } => {
                write!(f, "[{} enter] {detail}", phase.as_str())
            }
            TraceEvent::SpanExit { phase, detail } => {
                write!(f, "[{} exit] {detail}", phase.as_str())
            }
            TraceEvent::CacheProbe { subgoal, outcome } => {
                write!(f, "cache probe {subgoal}: {}", outcome.as_str())
            }
            TraceEvent::WorkerSteal { thief, victim } => {
                write!(f, "worker {thief} stole from worker {victim}")
            }
        }
    }
}

/// A committed execution trace.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of a given kind, by predicate name (for updates/queries).
    pub fn count_updates(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Ins { .. } | TraceEvent::Del { .. }))
            .count()
    }

    /// Rule unfoldings in the committed run.
    pub fn count_unfolds(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Unfold { .. }))
            .count()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.events.iter().enumerate() {
            writeln!(f, "{i:>4}  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use td_db::Database;
    use td_parser::parse_program;

    fn traced(src: &str) -> Trace {
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let db = crate::load_init(&db, &parsed.init).unwrap();
        let engine =
            Engine::with_config(parsed.program.clone(), EngineConfig::default().with_trace());
        let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        out.solution()
            .expect("test scenario succeeds")
            .trace
            .clone()
    }

    #[test]
    fn trace_records_the_committed_story() {
        let t = traced(
            "base t/1.
             put <- ins.t(1) * t(X) * del.t(X).
             ?- put.",
        );
        assert_eq!(t.count_unfolds(), 1);
        assert_eq!(t.count_updates(), 2);
        let rendered = t.to_string();
        assert!(rendered.contains("unfold put"));
        assert!(rendered.contains("ins.t(1)"));
        assert!(rendered.contains("match t(_V"), "{rendered}");
        assert!(rendered.contains("del.t(1)"));
    }

    #[test]
    fn backtracked_work_is_not_in_the_trace() {
        let t = traced(
            "base t/1.
             go <- ins.t(1) * fail.
             go <- ins.t(2).
             ?- go.",
        );
        let rendered = t.to_string();
        assert!(!rendered.contains("ins.t(1)"), "{rendered}");
        assert!(rendered.contains("ins.t(2)"));
        // only the committed unfold remains
        assert_eq!(t.count_unfolds(), 1);
    }

    #[test]
    fn iso_boundaries_bracket_the_block() {
        let t = traced("base t/1. ?- iso { ins.t(1) } * ins.t(2).");
        let kinds: Vec<&TraceEvent> = t.events.iter().collect();
        let enter = kinds
            .iter()
            .position(|e| matches!(e, TraceEvent::IsoEnter))
            .unwrap();
        let exit = kinds
            .iter()
            .position(|e| matches!(e, TraceEvent::IsoExit))
            .unwrap();
        let inner = kinds
            .iter()
            .position(|e| matches!(e, TraceEvent::Ins { tuple, .. } if tuple == &td_db::tuple!(1)))
            .unwrap();
        assert!(enter < inner && inner < exit);
    }

    #[test]
    fn choice_commitment_recorded() {
        let t = traced("base t/1. ?- { fail or ins.t(1) }.");
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Choice { index: 1 })));
    }

    #[test]
    fn noop_updates_are_flagged() {
        let t = traced("base t/1. init t(1). ?- ins.t(1).");
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Ins { changed: false, .. })));
    }

    #[test]
    fn tracing_off_yields_empty_trace() {
        let parsed = parse_program("base t/1. ?- ins.t(1).").unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let engine = Engine::new(parsed.program.clone());
        let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
        assert!(out.solution().unwrap().trace.is_empty());
    }
}
