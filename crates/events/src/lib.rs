//! # td-events — incremental complex-event pattern matching
//!
//! The reactive half of Transaction Datalog, after Gomes & Alferes'
//! *Transaction Logic with (Complex) Events*: programs declare event
//! relations and attach triggers (`on <pattern> do <goal>.`), and a server
//! feeds ingested events through a [`Reactor`] that evaluates every trigger
//! pattern *incrementally* — each event is matched against the current set
//! of partial matches in O(partial matches), never by rescanning history.
//!
//! ## Match semantics
//!
//! * Patterns are trees of event atoms under `seq`, `and` and `within`.
//!   Each trigger compiles to a flat leaf list plus bitmask constraints:
//!   `seq` becomes a prerequisite mask (a leaf on the right of a `seq` may
//!   only be assigned once every leaf on the left is), `within` becomes a
//!   timestamp-span bound over the leaves it covers.
//! * A *partial match* is an assignment of ingested events to a subset of
//!   leaves with consistent variable bindings. Events are **not consumed**:
//!   one event can participate in many matches, so `seq(a(X), b(X))` over
//!   the stream `a(1) a(1) b(1)` completes twice. Every completed
//!   assignment fires exactly once — the reactor is driven under one lock
//!   in arrival order and never revisits an event.
//! * `seq` orders by *arrival* (ingestion order), `within` measures
//!   *timestamps*. Partial matches whose `within` window can no longer
//!   close — the high-water timestamp has moved more than the bound past
//!   the window's start — are pruned.
//!
//! Trigger *execution* (running the goal as an OCC transaction) lives in
//! `td-serve`; this crate is pure matching.

use td_core::event::{EventPattern, Trigger};
use td_core::{Atom, Goal, Program, Symbol, Term, Value};

/// Cap on retained partial matches per trigger. Beyond it the oldest
/// partials are dropped (and counted) rather than growing without bound on
/// adversarial streams.
pub const MAX_PARTIALS: usize = 65_536;

/// A completed pattern match, ready for trigger execution.
#[derive(Clone, Debug)]
pub struct Fired {
    /// Index of the trigger in the program's declaration order.
    pub trigger: usize,
    /// The trigger goal with the match bindings substituted in.
    pub goal: Goal,
    /// Named bindings accumulated by the match, for logs and replies.
    pub bindings: Vec<(Symbol, Value)>,
}

/// Matching counters, monotonically increasing over the reactor's life.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReactorStats {
    /// Events fed through [`Reactor::ingest`].
    pub ingested: u64,
    /// Completed pattern matches.
    pub matched: u64,
    /// Partial matches discarded by the per-trigger cap.
    pub dropped: u64,
}

struct WithinConstraint {
    mask: u64,
    bound: u64,
}

/// One trigger compiled to leaf + mask form.
struct Automaton {
    leaves: Vec<Atom>,
    /// Per leaf: leaves that must already be assigned (from `seq`).
    prereq: Vec<u64>,
    withins: Vec<WithinConstraint>,
    full: u64,
    num_vars: usize,
    partials: Vec<Partial>,
}

#[derive(Clone)]
struct Partial {
    assigned: u64,
    bindings: Vec<Option<Value>>,
    /// Per `within` constraint: min/max timestamp over assigned leaves.
    win_min: Vec<u64>,
    win_max: Vec<u64>,
}

impl Automaton {
    fn compile(trigger: &Trigger) -> Automaton {
        let mut leaves = Vec::new();
        let mut prereq = Vec::new();
        let mut withins = Vec::new();
        let full = Self::walk(&trigger.pattern, &mut leaves, &mut prereq, &mut withins);
        Automaton {
            leaves,
            prereq,
            withins,
            full,
            num_vars: trigger.var_names.len(),
            partials: Vec::new(),
        }
    }

    fn walk(
        p: &EventPattern,
        leaves: &mut Vec<Atom>,
        prereq: &mut Vec<u64>,
        withins: &mut Vec<WithinConstraint>,
    ) -> u64 {
        match p {
            EventPattern::Atom(a) => {
                let i = leaves.len();
                assert!(i < 64, "validated: at most MAX_PATTERN_LEAVES leaves");
                leaves.push(a.clone());
                prereq.push(0);
                1 << i
            }
            EventPattern::Seq(l, r) => {
                let lm = Self::walk(l, leaves, prereq, withins);
                let rm = Self::walk(r, leaves, prereq, withins);
                for (i, pre) in prereq.iter_mut().enumerate() {
                    if rm & (1 << i) != 0 {
                        *pre |= lm;
                    }
                }
                lm | rm
            }
            EventPattern::And(l, r) => {
                Self::walk(l, leaves, prereq, withins) | Self::walk(r, leaves, prereq, withins)
            }
            EventPattern::Within(inner, bound) => {
                let mask = Self::walk(inner, leaves, prereq, withins);
                withins.push(WithinConstraint {
                    mask,
                    bound: *bound,
                });
                mask
            }
        }
    }

    fn empty_partial(&self) -> Partial {
        Partial {
            assigned: 0,
            bindings: vec![None; self.num_vars],
            win_min: vec![u64::MAX; self.withins.len()],
            win_max: vec![0; self.withins.len()],
        }
    }

    /// Try to extend `partial` by assigning the event to leaf `leaf`.
    fn extend(&self, partial: &Partial, leaf: usize, args: &[Value], ts: u64) -> Option<Partial> {
        let bit = 1u64 << leaf;
        if partial.assigned & bit != 0 || self.prereq[leaf] & !partial.assigned != 0 {
            return None;
        }
        let mut bindings = partial.bindings.clone();
        for (t, v) in self.leaves[leaf].args.iter().zip(args) {
            match t {
                Term::Val(c) => {
                    if c != v {
                        return None;
                    }
                }
                Term::Var(x) => match &bindings[x.0 as usize] {
                    Some(b) => {
                        if b != v {
                            return None;
                        }
                    }
                    None => bindings[x.0 as usize] = Some(*v),
                },
            }
        }
        let mut win_min = partial.win_min.clone();
        let mut win_max = partial.win_max.clone();
        for (ci, w) in self.withins.iter().enumerate() {
            if w.mask & bit != 0 {
                win_min[ci] = win_min[ci].min(ts);
                win_max[ci] = win_max[ci].max(ts);
                if win_max[ci] - win_min[ci] > w.bound {
                    return None;
                }
            }
        }
        Some(Partial {
            assigned: partial.assigned | bit,
            bindings,
            win_min,
            win_max,
        })
    }

    /// A partial is dead once some `within` window it has opened can no
    /// longer close before `watermark` (the max timestamp seen).
    fn expired_for(withins: &[WithinConstraint], partial: &Partial, watermark: u64) -> bool {
        withins.iter().enumerate().any(|(ci, w)| {
            w.mask & !partial.assigned != 0
                && partial.win_min[ci] != u64::MAX
                && watermark.saturating_sub(partial.win_min[ci]) > w.bound
        })
    }
}

/// The incremental matcher for every trigger of one program.
pub struct Reactor {
    triggers: Vec<Trigger>,
    automata: Vec<Automaton>,
    watermark: u64,
    max_partials: usize,
    stats: ReactorStats,
}

impl Reactor {
    /// Compile the program's triggers. The triggers must already have been
    /// validated against `program` (the parser does this).
    pub fn new(program: &Program, triggers: &[Trigger]) -> Reactor {
        let _ = program;
        Reactor {
            automata: triggers.iter().map(Automaton::compile).collect(),
            triggers: triggers.to_vec(),
            watermark: 0,
            max_partials: MAX_PARTIALS,
            stats: ReactorStats::default(),
        }
    }

    /// Override the per-trigger partial-match cap.
    #[cfg(test)]
    fn with_max_partials(mut self, cap: usize) -> Reactor {
        self.max_partials = cap.max(1);
        self
    }

    /// Are there any triggers to match against?
    pub fn is_empty(&self) -> bool {
        self.automata.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> ReactorStats {
        self.stats
    }

    /// Retained partial matches across all triggers.
    pub fn partials(&self) -> usize {
        self.automata.iter().map(|a| a.partials.len()).sum()
    }

    /// Feed one event (declared form: name + declared-arity args, timestamp
    /// separate) and return every pattern match it completes.
    ///
    /// Cost is O(current partial matches), independent of how many events
    /// were ingested before.
    pub fn ingest(&mut self, name: Symbol, args: &[Value], ts: u64) -> Vec<Fired> {
        self.stats.ingested += 1;
        self.watermark = self.watermark.max(ts);
        let mut fired = Vec::new();
        for (ti, automaton) in self.automata.iter_mut().enumerate() {
            let candidate_leaves: Vec<usize> = automaton
                .leaves
                .iter()
                .enumerate()
                .filter(|(_, l)| l.pred.name == name && l.args.len() == args.len())
                .map(|(i, _)| i)
                .collect();
            if candidate_leaves.is_empty() {
                continue;
            }
            let mut fresh = Vec::new();
            let empty = automaton.empty_partial();
            for partial in automaton.partials.iter().chain(std::iter::once(&empty)) {
                for &leaf in &candidate_leaves {
                    if let Some(next) = automaton.extend(partial, leaf, args, ts) {
                        if next.assigned == automaton.full {
                            self.stats.matched += 1;
                            fired.push(complete(ti, &self.triggers[ti], &next));
                        } else {
                            fresh.push(next);
                        }
                    }
                }
            }
            automaton.partials.extend(fresh);
            let watermark = self.watermark;
            automaton
                .partials
                .retain(|p| !Automaton::expired_for(&automaton.withins, p, watermark));
            if automaton.partials.len() > self.max_partials {
                let excess = automaton.partials.len() - self.max_partials;
                automaton.partials.drain(..excess);
                self.stats.dropped += excess as u64;
            }
        }
        fired
    }
}

fn complete(ti: usize, trigger: &Trigger, partial: &Partial) -> Fired {
    let goal = trigger.goal.map_terms(&mut |t| match t {
        Term::Var(v) => match partial.bindings.get(v.0 as usize).copied().flatten() {
            Some(val) => Term::Val(val),
            None => t,
        },
        _ => t,
    });
    let bindings = partial
        .bindings
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.map(|v| (trigger.var_names[i], v)))
        .collect();
    Fired {
        trigger: ti,
        goal,
        bindings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_parser::parse_program;

    fn reactor(src: &str) -> Reactor {
        let p = parse_program(src).expect("valid program");
        Reactor::new(&p.program, &p.triggers)
    }

    const SEQ_SRC: &str = "
        event a/1. event b/1. base hit/1.
        on seq(a(X), b(X)) do ins.hit(X).
    ";

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn seq_fires_only_in_arrival_order() {
        let mut r = reactor(SEQ_SRC);
        assert!(r.ingest(sym("b"), &[Value::sym("w")], 1).is_empty());
        assert!(r.ingest(sym("a"), &[Value::sym("w")], 2).is_empty());
        let fired = r.ingest(sym("b"), &[Value::sym("w")], 3);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].goal, Goal::ins("hit", vec![Term::sym("w")]));
        assert_eq!(fired[0].bindings, vec![(sym("X"), Value::sym("w"))]);
        assert_eq!(r.stats().matched, 1);
    }

    #[test]
    fn bindings_join_across_leaves() {
        let mut r = reactor(SEQ_SRC);
        r.ingest(sym("a"), &[Value::sym("w1")], 1);
        assert!(
            r.ingest(sym("b"), &[Value::sym("w2")], 2).is_empty(),
            "b(w2) must not complete a(w1)'s partial"
        );
        assert_eq!(r.ingest(sym("b"), &[Value::sym("w1")], 3).len(), 1);
    }

    #[test]
    fn events_are_not_consumed_every_combination_fires() {
        let mut r = reactor(SEQ_SRC);
        r.ingest(sym("a"), &[Value::sym("w")], 1);
        r.ingest(sym("a"), &[Value::sym("w")], 2);
        let fired = r.ingest(sym("b"), &[Value::sym("w")], 3);
        assert_eq!(fired.len(), 2, "two open a(w) partials, one b(w)");
    }

    #[test]
    fn and_fires_in_either_order() {
        let src = "
            event a/0. event b/0. base ok/0.
            on and(a, b) do ins.ok.
        ";
        let mut r = reactor(src);
        r.ingest(sym("b"), &[], 1);
        assert_eq!(r.ingest(sym("a"), &[], 2).len(), 1);
        r.ingest(sym("a"), &[], 3);
        // The fresh a also pairs with the earlier b; then a fresh b pairs
        // with both retained a partials.
        assert_eq!(r.ingest(sym("b"), &[], 4).len(), 2);
    }

    #[test]
    fn within_bounds_the_timestamp_span() {
        let src = "
            event a/1. event b/1. base hit/1.
            on within(seq(a(X), b(X)), 10) do ins.hit(X).
        ";
        let mut r = reactor(src);
        r.ingest(sym("a"), &[Value::Int(1)], 100);
        assert!(
            r.ingest(sym("b"), &[Value::Int(1)], 111).is_empty(),
            "span 11 exceeds the bound"
        );
        r.ingest(sym("a"), &[Value::Int(2)], 200);
        assert_eq!(r.ingest(sym("b"), &[Value::Int(2)], 210).len(), 1);
    }

    #[test]
    fn expired_windows_are_pruned() {
        let src = "
            event a/1. event b/1. base hit/1.
            on within(seq(a(X), b(X)), 10) do ins.hit(X).
        ";
        let mut r = reactor(src);
        r.ingest(sym("a"), &[Value::Int(1)], 100);
        assert_eq!(r.partials(), 1);
        r.ingest(sym("a"), &[Value::Int(2)], 500);
        assert_eq!(r.partials(), 1, "the ts=100 window can no longer close");
    }

    #[test]
    fn constants_in_patterns_filter() {
        let src = "
            event a/2. base ok/0.
            on a(urgent, X) do ins.ok.
        ";
        let mut r = reactor(src);
        assert!(r
            .ingest(sym("a"), &[Value::sym("routine"), Value::Int(1)], 1)
            .is_empty());
        assert_eq!(
            r.ingest(sym("a"), &[Value::sym("urgent"), Value::Int(2)], 2)
                .len(),
            1
        );
    }

    #[test]
    fn unrelated_events_are_ignored_cheaply() {
        let mut r = reactor(SEQ_SRC);
        for i in 0..1000 {
            // Unknown event name: no candidate leaf, nothing retained.
            assert!(r.ingest(sym("c"), &[Value::Int(i)], i as u64).is_empty());
        }
        assert_eq!(r.partials(), 0);
        assert_eq!(r.stats().ingested, 1000);
    }

    #[test]
    fn partial_cap_drops_oldest_and_counts() {
        let cap = 100;
        let mut r = reactor(SEQ_SRC).with_max_partials(cap);
        for i in 0..(cap as i64 + 10) {
            r.ingest(sym("a"), &[Value::Int(i)], 1);
        }
        assert_eq!(r.partials(), cap);
        assert_eq!(r.stats().dropped, 10);
        // The oldest partials (smallest i) were dropped.
        assert!(r.ingest(sym("b"), &[Value::Int(0)], 2).is_empty());
        assert_eq!(r.ingest(sym("b"), &[Value::Int(42)], 3).len(), 1);
    }

    #[test]
    fn nested_seq_and_within_compose() {
        let src = "
            event a/0. event b/0. event c/0. base ok/0.
            on within(seq(a, seq(b, c)), 100) do ins.ok.
        ";
        let mut r = reactor(src);
        r.ingest(sym("c"), &[], 1);
        r.ingest(sym("b"), &[], 2);
        r.ingest(sym("a"), &[], 3);
        assert_eq!(r.stats().matched, 0, "wrong order never fires");
        r.ingest(sym("b"), &[], 4);
        let fired = r.ingest(sym("c"), &[], 5);
        assert_eq!(fired.len(), 1, "a(3) b(4) c(5) in order");
    }

    #[test]
    fn free_goal_variables_survive_substitution() {
        let src = "
            event a/1. base log/2.
            on a(X) do ins.log(X, Y) * del.log(X, Y).
        ";
        // Y is not bound by the pattern; it stays a variable in the fired
        // goal for the engine to solve.
        let p = parse_program(src).expect("valid");
        let mut r = Reactor::new(&p.program, &p.triggers);
        let fired = r.ingest(sym("a"), &[Value::Int(7)], 1);
        assert_eq!(fired.len(), 1);
        let mut has_var = false;
        fired[0].goal.visit(&mut |g| {
            if let Goal::Ins(a) = g {
                has_var = a.args.iter().any(|t| matches!(t, Term::Var(_)));
            }
        });
        assert!(has_var);
    }
}
