//! The engine's one Datalog evaluator, and incremental materialization of
//! the Datalog fragment on top of it.
//!
//! §6 of the paper observes that the update-free core of TD *is* classical
//! Datalog, so classical optimization applies. `circuit` groups flattened
//! rules into strongly-connected components, compiles each rule to join
//! plans (`plan`: the only body join in the crate) and owns the only
//! semi-naive loop; a one-shot `datalog::evaluate` (or `magic::answer`) is
//! that circuit run once from an empty derived state. The [`SubgoalCache`](crate::cache::SubgoalCache)
//! reuses answers, but any database-digest change invalidates it wholesale:
//! one `ins` re-derives every derived relation from scratch. The
//! [`Materializer`] turns "digest changed → recompute" into "delta applied →
//! O(|Δ|) maintenance":
//!
//! * [`Materializer::compile`] selects the derived predicates whose rules
//!   flatten to Datalog (`datalog::flatten_rule`) and compile to a live
//!   body-order plan, and compiles them into a circuit.
//! * A *materialized state* holds, for one database version and every such
//!   predicate, a `CountedRelation` — tuple → number of supporting rule
//!   instantiations — and the arrangements of them the plans probe. It rides
//!   on the `Database` value it describes (`Database::derived`): the first
//!   probe of a version nothing was maintained towards builds it with the
//!   from-scratch run, and it is freed with the last handle to the version
//!   or moved into a descendant's.
//! * Nobody hands the materializer a delta. A version `Database::insert`
//!   or `delete` makes from one with a state — whoever calls them: the
//!   kernel, a replayed cache answer, a caller's own loop — is *pending* on
//!   its nearest ancestor with a state (`td_db::Pending`). Its first probe
//!   pushes every op since through the circuit in one pass: the net
//!   membership events enter the plans compiled for their body positions
//!   (prefix-new/suffix-old, every bound column a range probe), the counts
//!   move, and only 0 ↔ positive transitions cascade to downstream
//!   components. Non-recursive components use exact counting; recursive
//!   components use delete-rederive (DRed) over set semantics, where
//!   counting is unsound. The pass edits the ancestor's state in place when
//!   nothing else holds it.
//! * [`Materializer::holds`] answers a ground derived-predicate call with
//!   an indexed probe of the materialized relation — the kernel substitutes
//!   it for rule unfolding when `EngineConfig::materialize` is on — and
//!   `Materializer::select` answers `datalog::query` for a program's own
//!   circuit.
//!
//! Negation folds in directly: TD restricts `not` to base relations, so no
//! stratification is needed — a base tuple appearing is a *negative* delta
//! through a `not` literal and vice versa.
//!
//! Backtracking and isolation rollback need no explicit unwind: rolling
//! back is using the earlier `Database` value, and whoever kept that value
//! kept its state with it (see `docs/INCREMENTAL.md` §4).

pub(crate) mod circuit;
mod plan;

use crate::datalog::{flatten_rule, FlatRule, Lit};
use circuit::{join_events, runs_on, Circuit, Events, MatState, Scc};
use plan::Data;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use td_core::{Atom, Pred, Program, Value};
use td_db::{Database, DeltaOp, Pending, Slot, Tuple};

/// Why a program has no materializable fragment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NotMaterializable {
    pub reason: String,
}

impl std::fmt::Display for NotMaterializable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "nothing to materialize: {}", self.reason)
    }
}

impl std::error::Error for NotMaterializable {}

/// The compiled delta circuit and its counters. It holds no state of any
/// database version: a version's state is on the `Database` value
/// (`Database::derived`). Shared across backends and worker threads
/// behind an `Arc`; all counters are process-wide lifetime totals.
pub struct Materializer {
    /// Base predicates read by some materialized rule; deltas on any other
    /// base predicate leave every materialized relation unchanged.
    relevant_base: HashSet<Pred>,
    circuit: Circuit,
    /// Some plan reads another component's derived relation on its old
    /// side ([`Circuit::reads_old_derived`]): a pass then keeps an O(1)
    /// snapshot of the state it edits, for those reads.
    keeps_old: bool,
    /// This circuit's number among the owners of `Database::derived` slots:
    /// two engines over one database value never read each other's state.
    id: u64,
    probes: AtomicU64,
    state_hits: AtomicU64,
    rebuilds: AtomicU64,
    maintained_ops: AtomicU64,
    delta_tuples: AtomicU64,
    maintain_ns: AtomicU64,
}

impl std::fmt::Debug for Materializer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Materializer")
            .field("preds", &self.circuit.preds.len())
            .field("sccs", &self.circuit.sccs.len())
            .finish()
    }
}

/// The predicate and tuple an op touches.
fn op_pair(op: &DeltaOp) -> (Pred, &Tuple) {
    match op {
        DeltaOp::Ins(pred, tuple) | DeltaOp::Del(pred, tuple) => (*pred, tuple),
    }
}

impl Materializer {
    /// Compile the materializable fragment of `program`: the greatest set
    /// of derived predicates whose rules all flatten to Datalog, compile to
    /// a live body-order plan (`plan::derives` — a view answers only what
    /// the rule, evaluated left to right, derives), depend (positively)
    /// only on base predicates and each other, and negate only base
    /// predicates. Errs when the set is empty.
    pub fn compile(program: &Program) -> Result<Materializer, NotMaterializable> {
        let base: HashSet<Pred> = program.base_preds().collect();
        if program.derived_preds().next().is_none() {
            return Err(NotMaterializable {
                reason: "the program has no derived predicates".into(),
            });
        }
        let mut flat: HashMap<Pred, Vec<FlatRule>> = HashMap::new();
        for p in program.derived_preds() {
            let rules: Result<Vec<FlatRule>, _> = program
                .rules_for(p)
                .iter()
                .map(|rid| flatten_rule(program.rule(*rid)))
                .collect();
            if let Some(rs) = rules.ok().filter(|rs| rs.iter().all(plan::derives)) {
                flat.insert(p, rs);
            }
        }
        // Greatest fixpoint: a predicate whose rules read a non-materializable
        // derived predicate (or negate a derived predicate) drops out too.
        loop {
            let unreadable = |l: &Lit| match l {
                Lit::Atom(a) => !base.contains(&a.pred) && !flat.contains_key(&a.pred),
                Lit::NegAtom(a) => !base.contains(&a.pred),
                Lit::Builtin(..) => false,
            };
            let drop: Vec<Pred> = flat
                .iter()
                .filter(|(_, rs)| rs.iter().any(|r| r.body.iter().any(unreadable)))
                .map(|(p, _)| *p)
                .collect();
            if drop.is_empty() {
                break;
            }
            for p in drop {
                flat.remove(&p);
            }
        }
        if flat.is_empty() {
            return Err(NotMaterializable {
                reason: "no derived predicate is Datalog-evaluable".into(),
            });
        }

        let circuit = Circuit::new(flat);
        let relevant_base: HashSet<Pred> = circuit
            .sccs
            .iter()
            .flat_map(|s| s.deps.iter())
            .copied()
            .filter(|p| base.contains(p))
            .collect();
        static CIRCUITS: AtomicU64 = AtomicU64::new(0);
        Ok(Materializer {
            relevant_base,
            keeps_old: circuit.reads_old_derived(),
            circuit,
            id: CIRCUITS.fetch_add(1, Ordering::Relaxed),
            probes: AtomicU64::new(0),
            state_hits: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            maintained_ops: AtomicU64::new(0),
            delta_tuples: AtomicU64::new(0),
            maintain_ns: AtomicU64::new(0),
        })
    }

    /// Is this predicate maintained by the circuit?
    pub fn is_materialized(&self, pred: Pred) -> bool {
        self.circuit.index.contains_key(&pred)
    }

    /// The materialized predicates, sorted.
    pub fn materialized_preds(&self) -> Vec<Pred> {
        self.circuit.preds.clone()
    }

    /// The base predicates some materialized rule reads, in unspecified
    /// order — the read-set support of a view probe. A probe's answer is a
    /// function of exactly these base relations, so recording them (rather
    /// than the derived predicate, which is not a stored relation) keeps
    /// per-relation OCC validation sound under `--materialize`.
    pub fn base_support(&self) -> impl Iterator<Item = Pred> + '_ {
        self.relevant_base.iter().copied()
    }

    /// Answer a ground call on a materialized predicate with an indexed
    /// probe: `None` when the atom is not ground or its predicate is not
    /// materialized (caller must fall back to rule unfolding), `Some(b)`
    /// otherwise. A probe on a version without a state triggers a full
    /// (re)build for that version; subsequent versions reached by committed
    /// deltas are maintained incrementally.
    pub fn holds(&self, db: &Database, atom: &Atom) -> Option<bool> {
        let rel = *self.circuit.index.get(&atom.pred)?;
        let tuple = Tuple::new(atom.ground_args()?);
        self.probes.fetch_add(1, Ordering::Relaxed);
        Some(self.state_for(db).rels[rel].contains(&tuple))
    }

    /// All tuples of a materialized predicate at `db`'s version, sorted.
    /// Builds the version's state if absent; empty for non-materialized
    /// predicates.
    pub fn facts(&self, db: &Database, pred: Pred) -> Vec<Tuple> {
        match self.circuit.index.get(&pred) {
            Some(&rel) => self.state_for(db).rels[rel].to_vec(),
            None => Vec::new(),
        }
    }

    /// The tuples of a materialized predicate at `db`'s version that match
    /// the atom's bound positions, sorted — `datalog::query`'s answer, read
    /// off the version's state like a [`Materializer::holds`] probe; `None`
    /// when the predicate is not materialized.
    pub(crate) fn select(&self, db: &Database, atom: &Atom) -> Option<Vec<Tuple>> {
        let rel = *self.circuit.index.get(&atom.pred)?;
        self.probes.fetch_add(1, Ordering::Relaxed);
        let pattern: Vec<Option<Value>> = atom.args.iter().map(|t| t.as_value()).collect();
        Some(self.state_for(db).rels[rel].select(&pattern))
    }

    /// This circuit's slot on `db` (`Database::derived`), made by the first
    /// call: from then on it is one slot for `db` and every clone made of
    /// it. An entry point calls this through the caller's handle before the
    /// search clones it, so that what the search derives from that version
    /// is there for the caller's next call. A version an update makes from
    /// one whose slot holds something gets its own at once (`Database`'s
    /// `insert`/`delete`), pending on the nearest one with a state.
    pub(crate) fn slot<'a>(&self, db: &'a Database) -> &'a Slot {
        db.derived(self.id)
    }

    /// The materialized state of `db`'s version, for a caller's probe: one
    /// that is on the version — made, or pending and made now — is a hit.
    fn state_for<'a>(&self, db: &'a Database) -> &'a MatState {
        if self.slot(db).holds() {
            self.state_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.state_of(db)
    }

    /// The state of `db`'s version: the one on it; else, when the version
    /// is pending, the one pass that makes it ([`Materializer::maintain`]);
    /// else a from-scratch build. Made under the slot's `OnceLock`, so
    /// workers probing one version together make it once. The slot holds
    /// the state's one strong `Arc`: a `Weak` to it is alive exactly as
    /// long as the state.
    fn state_of<'a>(&self, db: &'a Database) -> &'a MatState {
        let made = db.derive(self.id, |pending| {
            Box::new(Arc::new(match pending {
                Some(pending) => self.maintain(pending, db),
                None => {
                    self.rebuilds.fetch_add(1, Ordering::Relaxed);
                    self.circuit.run(db).0
                }
            }))
        });
        let made: &Arc<MatState> =
            (made.downcast_ref()).expect("a circuit's slot holds its own state");
        made
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// The one pass that makes a pending version's state, from the nearest
    /// version with one (`Pending::nearest`): the ancestor, or a version
    /// between made since by a pass of its own. Of the ops since, those on
    /// relations the rules read count (`maintained_ops`); whether a pair
    /// they touch is a membership event is decided by that version and `db`
    /// alone — an `ins` then `del` of one tuple is none — and the events go
    /// through the circuit together, from that version's state: moved out
    /// and edited in place when this pass holds the last handle to it, an
    /// O(1) clone that copies what it changes otherwise. With no events,
    /// that move or clone is the pass.
    fn maintain(&self, pending: Pending, db: &Database) -> MatState {
        let t0 = std::time::Instant::now();
        let (mut ancestor, since) = pending.into_nearest();
        let read: Vec<(Pred, &Tuple)> = (since.iter().map(op_pair))
            .filter(|(pred, _)| self.relevant_base.contains(pred))
            .collect();
        // The pairs the ops touch, each once.
        let touched: BTreeSet<(Pred, &Tuple)> = read.iter().copied().collect();
        let mut events = Events::new();
        for (pred, tuple) in touched {
            let member = db.contains(pred, tuple);
            if member != ancestor.contains(pred, tuple) {
                let delta = events.entry(pred).or_default();
                delta.run_mut(member).push(tuple.clone());
            }
        }
        // Made, if another worker was making it when `db` was pending on it.
        self.state_of(&ancestor);
        let state = match self.take_state(&mut ancestor) {
            Some(state) => {
                let old = (self.keeps_old && !events.is_empty()).then(|| state.clone());
                self.propagate(&ancestor, db, events, state, old.as_ref())
            }
            None => {
                let old = self.state_of(&ancestor);
                self.propagate(&ancestor, db, events, old.clone(), Some(old))
            }
        };
        self.maintained_ops
            .fetch_add(read.len() as u64, Ordering::Relaxed);
        self.maintain_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        state
    }

    /// The ancestor's state, moved out of it when nothing else can reach
    /// it: this handle is the last one to the ancestor's derived data
    /// (`Database::take_derived`). `None`, the ancestor as it was,
    /// otherwise.
    fn take_state(&self, ancestor: &mut Database) -> Option<MatState> {
        let taken = ancestor.take_derived(self.id)?.downcast();
        let taken: Box<Arc<MatState>> = taken.expect("a circuit's slot holds its own state");
        Some(Arc::unwrap_or_clone(*taken))
    }

    /// Push the base-relation membership `events` between `old_db` and
    /// `new_db` through the circuit in topological order, cascading derived
    /// membership events: `state`, which is `old_db`'s, becomes `new_db`'s.
    /// `old` is a copy of it as it was, when there is one; without it the
    /// old side of a join reads `state`, which is sound for every read
    /// [`Circuit::reads_old_derived`] does not report.
    fn propagate(
        &self,
        old_db: &Database,
        new_db: &Database,
        mut events: Events,
        mut state: MatState,
        old: Option<&MatState>,
    ) -> MatState {
        let circuit = &self.circuit;
        for scc in &circuit.sccs {
            if !scc.deps.iter().any(|p| events.contains_key(p)) {
                continue;
            }
            if scc.recursive {
                self.maintain_recursive(scc, old_db, old, new_db, &mut state, &mut events);
            } else {
                self.maintain_counting(scc, old_db, old, new_db, &mut state, &mut events);
            }
        }
        for (a, arr) in circuit.arrangements.iter().enumerate() {
            let order = &arr.order;
            // An arrangement this pass was the first to probe, on the old
            // copy only, is part of the old version now and not of the new
            // one: it goes over by the relation's events. Else the next
            // pass builds it again.
            let before = old.and_then(|old| old.arranged[a].get());
            if let (Some(before), None) = (before, state.arranged[a].get()) {
                let moved = runs_on(&events, arr.pred).fold(before.clone(), |m, (run, sign)| {
                    run.iter().fold(m, |m, t| {
                        m.alter(&t.permuted(order), |_| (sign > 0).then_some(()))
                    })
                });
                state.arranged[a] = moved.into();
            }
            // A base relation's is on the `Database`, which only probing
            // fills, and `new_db` was made before the pass.
            if arr.rel.is_none() && old_db.arranged(arr.pred, order).is_some() {
                new_db.arrangement(arr.pred, order);
            }
        }
        state
    }

    /// Exact counting maintenance for a non-recursive component: signed
    /// finite differencing — for each affected body position i,
    /// `new₁…newᵢ₋₁ × Δᵢ × oldᵢ₊₁…oldₙ` — telescopes to the exact count
    /// change. A `not` literal flips the delta's sign.
    fn maintain_counting(
        &self,
        scc: &Scc,
        old_db: &Database,
        old: Option<&MatState>,
        new_db: &Database,
        state: &mut MatState,
        events: &mut Events,
    ) {
        let regs = &plan::registers(self.circuit.num_regs);
        let mut changes: Vec<((usize, Tuple), i64)> = Vec::new();
        let data = Data {
            new: self.circuit.views(new_db, state),
            old: self.circuit.views(old_db, old.unwrap_or(state)),
        };
        join_events(scc, events, |_| true, &data, regs, &mut |rel, row, sign| {
            changes.push(((rel, row.tuple()), sign));
        });
        changes.sort_unstable();
        for (rel, net) in circuit::net(changes.into_iter()) {
            let crossed = self.circuit.fold(state, rel, net, |_, net| net);
            let moved = crossed.len() as u64;
            if moved > 0 {
                self.delta_tuples.fetch_add(moved, Ordering::Relaxed);
                events.insert(self.circuit.preds[rel], crossed);
            }
        }
    }

    /// DRed maintenance for a recursive component: overdelete every tuple
    /// with a derivation through a negative event (against the old state),
    /// rederive survivors from the new state, then semi-naive insertion for
    /// positive events.
    fn maintain_recursive(
        &self,
        scc: &Scc,
        old_db: &Database,
        old: Option<&MatState>,
        new_db: &Database,
        state: &mut MatState,
        events: &mut Events,
    ) {
        let regs = &plan::registers(self.circuit.num_regs);
        let circuit = &self.circuit;
        // Phase 1: overdeletion, joined against the old side (which reads
        // that is: `Circuit::reads_old_derived`), in rounds: what the
        // negative events upstream take with them, then what that takes,
        // until a round takes nothing. The tuples a round takes only leave
        // `state` once the phase is over, so that until then this
        // component's relations there are the old ones; each round hands
        // the next the sorted runs of the tuples it took first.
        let mut rounds: Vec<Events> = Vec::new();
        let mut taken: HashSet<(usize, Tuple)> = HashSet::new();
        let old_data = Data::at(circuit.views(old_db, old.unwrap_or(state)));
        loop {
            let mut fresh = Vec::new();
            let gone = rounds.last().unwrap_or(events);
            join_events(scc, gone, |s| s < 0, &old_data, regs, &mut |rel, row, _| {
                let h = row.tuple();
                if state.rels[rel].contains(&h) && taken.insert((rel, h.clone())) {
                    fresh.push((rel, h));
                }
            });
            if fresh.is_empty() {
                break;
            }
            fresh.sort_unstable();
            let mut round = Events::new();
            for (rel, t) in fresh {
                round
                    .entry(circuit.preds[rel])
                    .or_default()
                    .disappeared
                    .push(t);
            }
            rounds.push(round);
        }
        for (pred, delta) in rounds.iter().flatten() {
            let entries = delta.disappeared.iter().map(|t| (t.clone(), 1)).collect();
            circuit.fold(state, circuit.index[pred], entries, |count, _| -count);
        }

        // Phase 2: rederivation in one step from the new external state and
        // the reduced component state. Tuples whose alternative support
        // runs through other rederived tuples are recovered by phase 3.
        let data = Data::at(circuit.views(new_db, state));
        let mut cand: Vec<(usize, Tuple)> = Vec::new();
        // Everything the pass moves, by predicate: the overdeleted tuples
        // in `disappeared`, what phase 3 inserts in `appeared`.
        let mut moved = Events::new();
        for (pred, round) in rounds.into_iter().flatten() {
            let rel = circuit.index[&pred];
            for t in &round.disappeared {
                let mut found = false;
                for rule in scc.rules.iter().filter(|r| r.head == rel) {
                    if !found {
                        (rule.rederive).run_with(t, regs, &data, &mut |_| found = true);
                    }
                }
                if found {
                    cand.push((rel, t.clone()));
                }
            }
            let delta = moved.entry(pred).or_default();
            delta.disappeared.extend(round.disappeared);
        }

        // Phase 3: semi-naive insertion of the rederived tuples and of what
        // positive events derive, against the new views and the growing
        // component state.
        join_events(scc, events, |s| s > 0, &data, regs, &mut |rel, row, _| {
            cand.push((rel, row.tuple()));
        });
        circuit.saturate(scc, new_db, state, cand, &mut |rel, new| {
            let delta = moved.entry(circuit.preds[rel]).or_default();
            delta.appeared.extend_from_slice(new);
        });

        // Net membership events for downstream components: phase 3 inserts
        // only what the reduced state lacks, so a tuple both deleted and
        // inserted is back where it was and nets to none.
        for (pred, mut delta) in moved {
            // Each a concatenation of sorted, disjoint runs, one a round.
            delta.appeared.sort();
            delta.disappeared.sort();
            let (was, now) = (delta.disappeared.clone(), &delta.appeared);
            delta.disappeared.retain(|t| now.binary_search(t).is_err());
            delta.appeared.retain(|t| was.binary_search(t).is_err());
            if delta.len() > 0 {
                let moved = delta.len() as u64;
                self.delta_tuples.fetch_add(moved, Ordering::Relaxed);
                events.insert(pred, delta);
            }
        }
    }

    // ------------------------------------------------------------------
    // Lifetime counters
    // ------------------------------------------------------------------

    /// Ground probes answered from a materialized relation, and the
    /// `datalog::query` selects of a program's own circuit.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Probes that found their version's state made, or pending.
    pub fn state_hits(&self) -> u64 {
        self.state_hits.load(Ordering::Relaxed)
    }

    /// Full builds: probes of a version nothing was maintained towards.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Delta ops fed through incremental maintenance.
    pub fn maintained_ops(&self) -> u64 {
        self.maintained_ops.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent in incremental maintenance.
    pub fn maintain_ns(&self) -> u64 {
        self.maintain_ns.load(Ordering::Relaxed)
    }

    /// The lifetime counters as named rows — the `materializer` section of
    /// a run report, in its key order. `probes` against a run's `unfolds`
    /// shows how many derived calls the circuit absorbed, `maintain_us`
    /// over `maintained_ops` what O(|Δ|) maintenance cost, and
    /// `delta_tuples` the derived membership events it produced.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("probes", self.probes()),
            ("state_hits", self.state_hits()),
            ("rebuilds", self.rebuilds()),
            ("maintained_ops", self.maintained_ops()),
            ("delta_tuples", self.delta_tuples.load(Ordering::Relaxed)),
            ("maintain_us", self.maintain_ns() / 1000),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::load_init;
    use td_core::{Term, Value};
    use td_db::tuple;
    use td_parser::parse_program;

    fn setup(src: &str) -> (Program, Database) {
        let parsed = parse_program(src).expect("parses");
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).expect("init");
        (parsed.program, db)
    }

    /// Maintained vs rebuilt: the materialized facts of every circuit
    /// predicate must equal a from-scratch run over the same database. Both
    /// sides share the circuit's join, so this is not a second opinion; the
    /// independent oracles are `closure_model` below and the top-down kernel
    /// in `tests/incremental_equivalence.rs`.
    fn assert_matches_fixpoint(m: &Materializer, program: &Program, db: &Database) {
        let fix = crate::datalog::evaluate(program, db).expect("datalog-evaluable");
        for p in m.materialized_preds() {
            assert_eq!(m.facts(db, p), fix.facts_of(p), "{p} at {:x}", db.digest());
        }
    }

    const NODES: [&str; 5] = ["n0", "n1", "n2", "n3", "n4"];

    /// The churn program: reachability with negation, plus one rule per
    /// shape a compiled plan has to get right.
    const CHURN: &str = "base e/2. base blocked/1. base t/3.
         path(X, Y) <- e(X, Y).
         path(X, Z) <- e(X, Y) * path(Y, Z).
         reach(X) <- e(n0, X) * not blocked(X).
         reach(Y) <- reach(X) * e(X, Y) * not blocked(Y).
         hop(X, Z) <- path(X, Y) * t(A, Y, Z).
         back(Y, X) <- path(X, Y).
         src(Y) <- blocked(X) * back(Y, X).
         to3(X) <- path(X, n3).
         loop(X) <- e(X, X).
         same(X, Y) <- X = Y * e(X, Y).
         down(Y, X) <- e(X, Y).
         down(Z, X) <- e(X, Y) * down(Z, Y).";

    /// An oracle that shares no code with the circuit: Warshall's closure
    /// over the five nodes, read off the stored `e`, `blocked` and `t`
    /// tuples, and every view of [`CHURN`] spelled out as a loop over node
    /// indices. Returns view name → sorted tuples.
    fn closure_model(db: &Database) -> HashMap<&'static str, Vec<Tuple>> {
        let node = |i: usize| Value::sym(NODES[i]);
        let has = |name: &str, ix: &[usize]| {
            let t = Tuple::new(ix.iter().map(|&i| node(i)).collect());
            db.contains(Pred::new(name, ix.len() as u32), &t)
        };
        let close = |enter: &dyn Fn(usize) -> bool| {
            let mut c = [[false; 5]; 5];
            for (i, j) in (0..25).map(|x| (x / 5, x % 5)) {
                c[i][j] = enter(j) && has("e", &[i, j]);
            }
            for (k, i, j) in (0..125).map(|x| (x / 25, x / 5 % 5, x % 5)) {
                c[i][j] |= c[i][k] && c[k][j];
            }
            c
        };
        let (path, open) = (close(&|_| true), close(&|j| !has("blocked", &[j])));
        let via = |y: usize, z: usize| (0..5).any(|a| has("t", &[a, y, z]));
        type Holds<'a> = &'a dyn Fn(&[usize]) -> bool;
        let views: [(&'static str, usize, Holds<'_>); 9] = [
            ("path", 2, &|x| path[x[0]][x[1]]),
            ("reach", 1, &|x| open[0][x[0]]),
            ("hop", 2, &|x| (0..5).any(|y| path[x[0]][y] && via(y, x[1]))),
            ("back", 2, &|x| path[x[1]][x[0]]),
            ("src", 1, &|x| {
                (0..5).any(|b| has("blocked", &[b]) && path[b][x[0]])
            }),
            ("to3", 1, &|x| path[x[0]][3]),
            ("loop", 1, &|x| has("e", &[x[0], x[0]])),
            ("same", 2, &|x| x[0] == x[1] && has("e", &[x[0], x[0]])),
            ("down", 2, &|x| path[x[1]][x[0]]),
        ];
        let mut model = HashMap::new();
        for (name, arity, holds) in views {
            let mut tuples: Vec<Tuple> = (0..5usize.pow(arity as u32))
                .map(|x| (0..arity).map(|c| x / 5usize.pow(c as u32) % 5).collect())
                .filter(|ix: &Vec<usize>| holds(ix))
                .map(|ix| Tuple::new(ix.into_iter().map(node).collect()))
                .collect();
            tuples.sort();
            model.insert(name, tuples);
        }
        model
    }

    /// Apply the ops to the db: the version they make is pending on `db`'s
    /// (`Database::insert`/`delete` leave it so), and its first probe
    /// maintains them all in one pass. Until views rode on the database
    /// these helpers also handed the ops to the materializer (`apply_ops`),
    /// which did no more than leave the same version pending.
    fn batch(db: &Database, ops: &[DeltaOp]) -> Database {
        let apply = |db: Database, op: &DeltaOp| op.apply(&db).expect("op applies");
        ops.iter().fold(db.clone(), apply)
    }

    /// [`batch`] of one op.
    fn step(db: &Database, op: DeltaOp) -> Database {
        batch(db, &[op])
    }

    /// An endless, fixed stream of `ins`/`del` ops on [`CHURN`]'s base
    /// relations.
    fn churn_ops() -> impl FnMut() -> DeltaOp {
        let sym = |i: u64| Value::sym(NODES[i as usize]);
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        move || {
            let r = rng();
            let (pred, tuple) = match r % 4 {
                0 => (Pred::new("blocked", 1), vec![sym(rng() % 5)]),
                // A small domain, so that deletions find their tuple.
                1 => (
                    Pred::new("t", 3),
                    vec![sym(rng() % 2), sym(rng() % 5), sym(rng() % 2)],
                ),
                _ => (Pred::new("e", 2), vec![sym(rng() % 5), sym(rng() % 5)]),
            };
            if r % 8 < 4 {
                DeltaOp::Ins(pred, Tuple::new(tuple))
            } else {
                DeltaOp::Del(pred, Tuple::new(tuple))
            }
        }
    }

    #[test]
    fn compile_partitions_into_sccs() {
        let (p, _) = setup(
            "base e/2. base broken/1.
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).
             healthy(X) <- e(X, X) * not broken(X).
             top(X) <- path(X, X) * healthy(X).",
        );
        let m = Materializer::compile(&p).unwrap();
        assert_eq!(m.materialized_preds().len(), 3);
        assert!(m.is_materialized(Pred::new("path", 2)));
        assert!(m.is_materialized(Pred::new("top", 1)));
        let heads =
            |s: &Scc| -> Vec<Pred> { s.rules.iter().map(|r| m.circuit.preds[r.head]).collect() };
        let scc_of = |p: Pred| {
            m.circuit
                .sccs
                .iter()
                .find(|s| heads(s).contains(&p))
                .unwrap()
        };
        assert!(scc_of(Pred::new("path", 2)).recursive);
        assert!(!scc_of(Pred::new("top", 1)).recursive);
        // `top` depends on both others, so its component must come last.
        assert_eq!(
            heads(m.circuit.sccs.last().unwrap()),
            vec![Pred::new("top", 1)]
        );
    }

    #[test]
    fn non_datalog_preds_are_excluded_transitively() {
        let (p, _) = setup(
            "base t/1. base e/2.
             act(X) <- e(X, X) * ins.t(X).
             uses_act(X) <- act(X).
             pure(X) <- e(X, X).",
        );
        let m = Materializer::compile(&p).unwrap();
        assert_eq!(m.materialized_preds(), vec![Pred::new("pure", 1)]);
    }

    #[test]
    fn delta_unsafe_rules_are_excluded() {
        // `not broken(X)` before any positive binding of X: the body in
        // order derives nothing, while a call `odd(a)` binds X top-down and
        // may well hold — so the predicate must not be materialized.
        let (p, _) = setup(
            "base e/2. base broken/1.
             odd(X) <- not broken(X) * e(X, X).
             fine(X) <- e(X, X) * not broken(X).",
        );
        let m = Materializer::compile(&p).unwrap();
        assert_eq!(m.materialized_preds(), vec![Pred::new("fine", 1)]);
    }

    #[test]
    fn a_head_the_body_leaves_unbound_excludes_the_predicate_and_its_readers() {
        // The paper's process style: a parameter the body never mentions.
        // Top-down `off(mon)` holds whenever `holiday` does; bottom-up there
        // is no tuple to derive, so no view may answer for `off`, nor for
        // anything computed from it.
        let (p, _) = setup(
            "base e/2. base holiday/0. base halted/0.
             off(E) <- holiday.
             czero(C, D) <- e(C, C) * halted.
             idle(E) <- e(E, E) * off(E).
             quiet(E) <- idle(E).
             busy(E) <- e(E, E).",
        );
        let m = Materializer::compile(&p).unwrap();
        assert_eq!(m.materialized_preds(), vec![Pred::new("busy", 1)]);
        assert!(m.relevant_base.iter().eq([&Pred::new("e", 2)]));
    }

    #[test]
    fn no_materializable_predicates_is_an_error() {
        let (p, _) = setup("base t/0.");
        assert!(Materializer::compile(&p).is_err());
        let (p, _) = setup("base t/0. r <- ins.t.");
        assert!(Materializer::compile(&p).is_err());
    }

    #[test]
    fn build_matches_bottom_up_fixpoint() {
        let (p, db) = setup(
            "base e/2. base blocked/1. base n/1.
             init e(a, b). init e(b, c). init e(c, d). init blocked(c).
             init n(1). init n(2). init n(3).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).
             reach(X) <- e(a, X) * not blocked(X).
             reach(Y) <- reach(X) * e(X, Y) * not blocked(Y).
             big(X) <- n(X) * X > 1.
             double(Y) <- n(X) * Y is X + X.",
        );
        let m = Materializer::compile(&p).unwrap();
        assert_matches_fixpoint(&m, &p, &db);
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    fn counting_tracks_alternative_derivations() {
        // q(X) has two independent supports; deleting one leaves it derivable.
        let (p, db) = setup(
            "base r/1. base s/1.
             init r(1). init s(1).
             q(X) <- r(X).
             q(X) <- s(X).",
        );
        let m = Materializer::compile(&p).unwrap();
        let q = Pred::new("q", 1);
        assert_eq!(m.facts(&db, q), vec![tuple!(1)]);
        let db2 = step(&db, DeltaOp::Del(Pred::new("r", 1), tuple!(1)));
        assert_eq!(m.facts(&db2, q), vec![tuple!(1)], "s(1) still supports");
        let db3 = step(&db2, DeltaOp::Del(Pred::new("s", 1), tuple!(1)));
        assert!(m.facts(&db3, q).is_empty(), "last support gone");
        assert_eq!(m.rebuilds(), 1, "maintenance, not rebuilds");
        assert_matches_fixpoint(&m, &p, &db3);
    }

    #[test]
    fn negation_flips_the_delta_sign() {
        let (p, db) = setup(
            "base node/1. base broken/1.
             init node(a). init node(b).
             healthy(X) <- node(X) * not broken(X).",
        );
        let m = Materializer::compile(&p).unwrap();
        let healthy = Pred::new("healthy", 1);
        assert_eq!(m.facts(&db, healthy).len(), 2);
        let db2 = step(&db, DeltaOp::Ins(Pred::new("broken", 1), tuple!("b")));
        assert_eq!(m.facts(&db2, healthy), vec![tuple!("a")]);
        let db3 = step(&db2, DeltaOp::Del(Pred::new("broken", 1), tuple!("b")));
        assert_eq!(m.facts(&db3, healthy).len(), 2);
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    fn dred_deletes_and_rederives_in_cycles() {
        // A diamond with a cycle: deleting one edge must not delete facts
        // that remain derivable around the cycle.
        let (p, db) = setup(
            "base e/2.
             init e(a, b). init e(b, c). init e(c, a). init e(a, c).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        assert_matches_fixpoint(&m, &p, &db);
        let db2 = step(&db, DeltaOp::Del(Pred::new("e", 2), tuple!("a", "c")));
        assert_matches_fixpoint(&m, &p, &db2);
        assert!(m
            .facts(&db2, Pred::new("path", 2))
            .contains(&tuple!("a", "c")));
        let db3 = step(&db2, DeltaOp::Del(Pred::new("e", 2), tuple!("c", "a")));
        assert_matches_fixpoint(&m, &p, &db3);
        assert_eq!(m.rebuilds(), 1);
    }

    /// An op on a relation no rule reads moves no view: the pass that makes
    /// the next version's state has no events, and is a move of the
    /// ancestor's state, or an O(1) clone of it while the ancestor is held.
    /// (While the kernel handed its ops to the materializer, such a version
    /// shared its predecessor's entry outright; the database now carries
    /// every op, and the pass leaves out the ones the rules do not read.)
    #[test]
    fn irrelevant_base_deltas_share_the_state() {
        let (p, db) = setup(
            "base e/2. base junk/1.
             init e(a, b).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        let path = Pred::new("path", 2);
        let junk = |i: i64| DeltaOp::Ins(Pred::new("junk", 1), tuple!(i));
        let moved = |m: &Materializer| m.delta_tuples.load(Ordering::Relaxed);
        let state = |db: &Database| {
            let made = m.slot(db).get().expect("probed");
            made.downcast_ref::<Arc<MatState>>().unwrap().rels.as_ptr()
        };
        let _ = m.facts(&db, path);
        let db2 = step(&db, junk(9));
        assert_eq!(m.facts(&db2, path), vec![tuple!("a", "b")]);
        assert_eq!((m.rebuilds(), m.maintained_ops(), moved(&m)), (1, 0, 0));
        assert_ne!(state(&db), state(&db2), "`db` is held: a clone");
        // Nothing else holds `db2` when `db3` is probed: its state moves on.
        let at = state(&db2);
        let db3 = step(&db2, junk(10));
        drop(db2);
        assert_eq!(m.facts(&db3, path), vec![tuple!("a", "b")]);
        assert_eq!(state(&db3), at, "one state, moved along");
        assert_eq!((m.rebuilds(), m.maintained_ops(), moved(&m)), (1, 0, 0));
    }

    #[test]
    fn rollback_rekeys_to_the_retained_state() {
        let (p, db) = setup(
            "base e/2.
             init e(a, b).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        let path = Pred::new("path", 2);
        let before = m.facts(&db, path);
        let op = DeltaOp::Ins(Pred::new("e", 2), tuple!("b", "c"));
        let db2 = step(&db, op);
        assert_eq!(m.facts(&db2, path).len(), 3);
        // "Rollback": the engine simply resumes from the old snapshot.
        assert_eq!(m.facts(&db, path), before);
        assert_eq!(m.rebuilds(), 1, "old digest still resident");
    }

    /// A state lives as long as its version, or an unprobed descendant
    /// pending on it, and no longer: the materializer holds none. Before
    /// maintenance was lazy a version's state was made with the version and
    /// the root's was freed with the root's last handle; now the descendant
    /// holds the root until its probe, which moves the root's state into
    /// the descendant when nothing else holds the root, and leaves it to
    /// the root otherwise.
    #[test]
    fn a_state_lives_exactly_as_long_as_its_version() {
        let (p, db) = setup(
            "base e/2. init e(a, b).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        let path = Pred::new("path", 2);
        let state_of = |db: &Database| {
            let made = m.slot(db).get().expect("made");
            Arc::downgrade(made.downcast_ref::<Arc<MatState>>().unwrap())
        };
        let made = |db: &Database| m.slot(db).get().is_some();
        let edge = |x, y| DeltaOp::Ins(Pred::new("e", 2), tuple!(x, y));
        let _ = m.facts(&db, path);
        // The root gone before its descendant is probed: moved.
        let next = step(&db, edge("b", "c"));
        assert!(made(&db) && !made(&next), "pending until probed");
        let root = state_of(&db);
        // A choicepoint's shape: a clone taken while the search goes on.
        let kept = next.clone();
        drop(db);
        drop(next);
        assert!(
            root.upgrade().is_some(),
            "the pending descendant holds the root"
        );
        assert_eq!(m.facts(&kept, path).len(), 3);
        assert!(
            root.upgrade().is_none(),
            "its state moved into the descendant"
        );
        // The root kept when its descendant is probed: it keeps its state.
        let further = step(&kept, edge("c", "d"));
        let maintained = state_of(&kept);
        assert_eq!(m.facts(&further, path).len(), 6);
        assert!(maintained.upgrade().is_some() && made(&kept));
        assert_eq!(m.facts(&kept, path).len(), 3);
        drop(kept);
        assert!(maintained.upgrade().is_none(), "freed with its version");
        assert_eq!((m.rebuilds(), m.maintained_ops()), (1, 2));
    }

    /// Two circuits probing one lineage in turn — an engine's beside the
    /// one `datalog::query` answers from, say — each keep what their next
    /// pass starts from, and nothing behind it: a pending version holds its
    /// ancestor without the other circuit's slot there, which is pending on
    /// a version further back. Every version is maintained, not rebuilt.
    #[test]
    fn two_circuits_probing_in_turn_keep_no_lineage_alive() {
        let (p, mut db) = setup(
            "base e/2. init e(0, 1).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let circuits = [1, 2].map(|_| Materializer::compile(&p).unwrap());
        let path = Pred::new("path", 2);
        let mut states = Vec::new();
        for i in 1..=40 {
            db = step(&db, DeltaOp::Ins(Pred::new("e", 2), tuple!(i, i + 1)));
            let m = &circuits[i as usize % 2];
            assert_eq!(m.facts(&db, path).len() as i64, (i + 1) * (i + 2) / 2);
            let made = m.slot(&db).get().unwrap().downcast_ref::<Arc<MatState>>();
            states.push(Arc::downgrade(made.unwrap()));
        }
        let live: Vec<usize> = (0..states.len())
            .filter(|&i| states[i].upgrade().is_some())
            .collect();
        assert_eq!(live, [38, 39]);
        // One build each, then 19 passes of two ops: its own, the other's.
        for m in &circuits {
            assert_eq!((m.rebuilds(), m.maintained_ops()), (1, 38));
        }
    }

    /// A version probed after descendants of it were made is where their
    /// passes start: a search that backtracks to it and goes on does not
    /// maintain the ops before it again. The descendants were made pending
    /// on the root, and each probe maintains only its own op.
    #[test]
    fn a_version_probed_late_is_where_its_descendants_start() {
        let (p, db) = setup(
            "base e/2. init e(a, b).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        let path = Pred::new("path", 2);
        let edge = |x, y| DeltaOp::Ins(Pred::new("e", 2), tuple!(x, y));
        let _ = m.facts(&db, path);
        let mid = step(&db, edge("b", "c"));
        let left = step(&mid, edge("c", "d"));
        let right = step(&mid, edge("c", "e"));
        assert_eq!(m.facts(&mid, path).len(), 3);
        assert_eq!(m.maintained_ops(), 1);
        assert_eq!(m.facts(&left, path).len(), 6);
        assert_eq!(m.facts(&right, path).len(), 6);
        assert_eq!(m.maintained_ops(), 3, "one op each, from `mid`");
        assert_eq!(m.facts(&db, path).len(), 1);
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    fn maintenance_matches_rebuild_under_random_churn() {
        let (p, db0) = setup(CHURN);
        let m = Materializer::compile(&p).unwrap();
        assert_eq!(m.materialized_preds().len(), 9);
        let from_n1 = Atom::new("path", vec![Term::sym("n1"), Term::var(0)]);
        let mut db = db0;
        let mut next_op = churn_ops();
        let _ = m.facts(&db, Pred::new("path", 2)); // seed the version
                                                    // Effective ops that lead back to content seen before.
        let (mut seen, mut revisits) = (HashSet::from([db.digest()]), 0);
        for _ in 0..200 {
            let before = db.digest();
            db = step(&db, next_op());
            revisits += u64::from(db.digest() != before && !seen.insert(db.digest()));
            let model = closure_model(&db);
            let from_scratch = crate::datalog::evaluate(&p, &db).unwrap();
            for view in m.materialized_preds() {
                assert_eq!(m.facts(&db, view), model[view.name.as_str()], "{view}");
                assert_eq!(
                    from_scratch.facts_of(view),
                    model[view.name.as_str()],
                    "{view}"
                );
            }
            let below_n1: Vec<Tuple> = model["path"]
                .iter()
                .filter(|t| t.values()[0] == Value::sym("n1"))
                .cloned()
                .collect();
            assert_eq!(crate::datalog::query(&p, &db, &from_n1).unwrap(), below_n1);
            assert_eq!(crate::magic::answer(&p, &db, &from_n1).unwrap().0, below_n1);
            // Every arrangement this version holds — of a base relation on
            // the database, of a derived one in the state — is the one a
            // fresh build from its relation gives.
            let state = m.state_for(&db);
            for (arr, slot) in m.circuit.arrangements.iter().zip(&state.arranged) {
                let (members, kept) = match arr.rel {
                    Some(_) => (m.facts(&db, arr.pred), slot.get()),
                    None => {
                        assert!(slot.get().is_none(), "{arr:?} belongs on the database");
                        let members = db.relation(arr.pred).unwrap().to_vec();
                        (members, db.arranged(arr.pred, &arr.order))
                    }
                };
                let fresh = members.iter().map(|t| t.permuted(&arr.order)).collect();
                if let Some(kept) = kept {
                    assert!(*kept == plan::sorted_set(fresh), "{arr:?}");
                }
            }
        }
        // By now every declared arrangement has been probed, and rides on
        // the last version.
        let state = m.state_for(&db);
        for (arr, slot) in m.circuit.arrangements.iter().zip(&state.arranged) {
            let held = slot.get().or(db.arranged(arr.pred, &arr.order));
            assert!(held.is_some(), "{arr:?}");
        }
        let counted = |key| m.counters().iter().find(|c| c.0 == key).unwrap().1;
        assert_eq!(m.rebuilds(), 1, "churn maintained incrementally");
        // A version is maintained from its own predecessor, whether or not
        // an earlier, dropped version had the same content: while states
        // were shared by digest the three revisits were skipped, and the
        // counts read (91, 193).
        assert_eq!(
            (counted("maintained_ops"), counted("delta_tuples"), revisits),
            (94, 195, 3),
            "the ops that changed a relation the rules read, and the view tuples they moved"
        );
    }

    #[test]
    fn holds_probes_only_ground_materialized_atoms() {
        let (p, db) = setup(
            "base e/2. init e(a, b).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        let ground = Atom::new("path", vec![Term::sym("a"), Term::sym("b")]);
        assert_eq!(m.holds(&db, &ground), Some(true));
        let missing = Atom::new("path", vec![Term::sym("b"), Term::sym("a")]);
        assert_eq!(m.holds(&db, &missing), Some(false));
        let open = Atom::new("path", vec![Term::var(0), Term::sym("b")]);
        assert_eq!(m.holds(&db, &open), None);
        let base = Atom::new("e", vec![Term::sym("a"), Term::sym("b")]);
        assert_eq!(m.holds(&db, &base), None);
        assert_eq!(m.probes(), 2);
    }

    #[test]
    fn multi_op_deltas_maintain_in_one_pass() {
        let (p, db) = setup(
            "base e/2. init e(a, b).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        let _ = m.facts(&db, Pred::new("path", 2));
        let e = Pred::new("e", 2);
        let ops = [
            DeltaOp::Ins(e, tuple!("b", "c")),
            DeltaOp::Del(e, tuple!("a", "b")),
            DeltaOp::Ins(e, tuple!("c", "d")),
        ];
        let post = batch(&db, &ops);
        assert_matches_fixpoint(&m, &p, &post);
        assert_eq!(m.maintained_ops(), 3);
        // An `ins` then `del` of one tuple is no event: of these three ops
        // only e(x, y) reaches the circuit, and brings one path with it —
        // not the three that d → e would have lent b, c and d for a while.
        let moved = |m: &Materializer| m.delta_tuples.load(Ordering::Relaxed);
        let before = moved(&m);
        let ops = [
            DeltaOp::Ins(e, tuple!("d", "e")),
            DeltaOp::Ins(e, tuple!("x", "y")),
            DeltaOp::Del(e, tuple!("d", "e")),
        ];
        let last = batch(&post, &ops);
        assert_matches_fixpoint(&m, &p, &last);
        assert_eq!((moved(&m) - before, m.rebuilds()), (1, 1));
    }

    /// A delta is maintained from its net events, in one pass, whatever mix
    /// of relations, signs and repeated tuples its ops are: [`CHURN`] under
    /// random batches, against the code-independent model.
    #[test]
    fn batched_deltas_match_the_model() {
        let (p, mut db) = setup(CHURN);
        let m = Materializer::compile(&p).unwrap();
        let mut next_op = churn_ops();
        let _ = m.facts(&db, Pred::new("path", 2)); // seed the version
        for i in 0..150 {
            let ops: Vec<DeltaOp> = (0..2 + i % 5).map(|_| next_op()).collect();
            db = batch(&db, &ops);
            let model = closure_model(&db);
            for view in m.materialized_preds() {
                assert_eq!(m.facts(&db, view), model[view.name.as_str()], "{view}");
            }
        }
        assert_eq!(m.rebuilds(), 1, "every batch maintained, none rebuilt");
    }

    /// The in-place pass without a snapshot, where overdeletion reads what
    /// the pass is changing: `r` reads the view `ok` left of its own
    /// literal only, so it reads `ok` as the pass has left it; `q` joins
    /// `p` with itself, so `del.n(a)` takes both tuples of the derivation
    /// `p(a) * p(a)` in one round of overdeletion, and `q(a, a)` is found
    /// only because a round's tuples stay in the state until the phase is
    /// over — else it and `p(a)` would go on deriving each other. Each
    /// version is maintained from the one before, which nothing else holds,
    /// so every pass edits in place; against the closure of `ok` and `n`.
    #[test]
    fn the_pass_without_a_snapshot_matches_the_model() {
        let (p, mut db) = setup(
            "base e/2. base blocked/1. base t/3. base n/1.
             ok(X, Y) <- e(X, Y) * not blocked(Y).
             r(X, Y) <- ok(X, Y).
             r(X, Z) <- ok(X, Y) * r(Y, Z).
             p(X) <- n(X).
             p(X) <- q(X, X).
             q(X, Y) <- p(X) * p(Y).",
        );
        let m = Materializer::compile(&p).unwrap();
        assert!(!m.keeps_old);
        let mut next_op = churn_ops();
        let _ = m.facts(&db, Pred::new("r", 2));
        let node = |i: usize| Value::sym(NODES[i]);
        let pair = |i: usize, j: usize| Tuple::new(vec![node(i), node(j)]);
        for i in 0..150 {
            let mut ops: Vec<DeltaOp> = (0..1 + i % 3).map(|_| next_op()).collect();
            let n = (Pred::new("n", 1), Tuple::new(vec![node(i * 7 % 5)]));
            ops.push(match i % 3 {
                0 => DeltaOp::Del(n.0, n.1),
                _ => DeltaOp::Ins(n.0, n.1),
            });
            db = batch(&db, &ops);
            let has = |name: &str, ix: &[usize]| {
                let t = Tuple::new(ix.iter().map(|&i| node(i)).collect());
                db.contains(Pred::new(name, ix.len() as u32), &t)
            };
            let mut c = [[false; 5]; 5];
            for (i, j) in (0..25).map(|x| (x / 5, x % 5)) {
                c[i][j] = has("e", &[i, j]) && !has("blocked", &[j]);
            }
            for (k, i, j) in (0..125).map(|x| (x / 25, x / 5 % 5, x % 5)) {
                c[i][j] |= c[i][k] && c[k][j];
            }
            let pairs = |keep: &dyn Fn(usize, usize) -> bool| -> Vec<Tuple> {
                (0..25)
                    .filter(|x| keep(x / 5, x % 5))
                    .map(|x| pair(x / 5, x % 5))
                    .collect()
            };
            let r = pairs(&|i, j| c[i][j]);
            let q = pairs(&|i, j| has("n", &[i]) && has("n", &[j]));
            assert_eq!(m.facts(&db, Pred::new("r", 2)), r, "after batch {i}");
            assert_eq!(m.facts(&db, Pred::new("q", 2)), q, "after batch {i}");
        }
        assert_eq!(m.rebuilds(), 1);
    }

    /// A bound column never scans: in every plan of every fixture of this
    /// suite and of `tests/incremental_equivalence.rs`, each column whose
    /// value is known when a probe starts is part of the probe's key, and
    /// the key is a prefix of the tuples probed — of the relation's own
    /// order, or of an arrangement declared for exactly that purpose. And
    /// every plan but the full one starts from the tuple it is entered with.
    #[test]
    fn every_bound_column_of_every_plan_is_a_key_prefix() {
        use plan::{Instr, Plan, Rows};
        let views = "base edge/2. base blocked/1.
             path(X, Y) <- edge(X, Y).
             path(X, Z) <- edge(X, Y) * path(Y, Z).
             open(X, Y) <- path(X, Y) * not blocked(Y).";
        let builtins = "base e/2. base blocked/1. base n/1.
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).
             big(X) <- n(X) * X > 1.
             double(Y) <- n(X) * Y is X + X.
             healthy(X) <- e(X, X) * not blocked(X).
             top(X) <- path(X, X) * healthy(X).";
        let mut probes = 0;
        for src in [views, CHURN, builtins] {
            let circuit = Materializer::compile(&setup(src).0).unwrap().circuit;
            let check = |plan: &Plan| {
                assert!(plan.reads_only_bound_registers(), "{plan:?}");
                let mut keyed = 0;
                for instr in &plan.code {
                    let Instr::Probe {
                        rows, key, rest, ..
                    } = instr
                    else {
                        continue;
                    };
                    keyed += usize::from(!key.is_empty());
                    let columns = key.len() + rest.binds.len() + rest.checks.len();
                    match rows {
                        Rows::Base(p) => assert_eq!(columns, p.arity as usize),
                        Rows::Derived(i) => assert_eq!(columns, circuit.preds[*i].arity as usize),
                        Rows::Arranged(a) => {
                            // Declared only where the own order would scan.
                            let order = &circuit.arrangements[*a].order;
                            assert_eq!(columns, order.len());
                            assert!(!key.is_empty() && key.len() < columns);
                            assert!(!order[..key.len()].iter().copied().eq(0..key.len()));
                        }
                    }
                }
                keyed
            };
            // The literals a plan visits: the driver is loaded, not visited.
            let visits = |plan: &Plan| {
                let visit = |i: &&Instr| matches!(i, Instr::Probe { .. } | Instr::Absent { .. });
                plan.code.iter().filter(visit).count()
            };
            for rule in circuit.sccs.iter().flat_map(|s| &s.rules) {
                probes += check(&rule.full) + check(&rule.rederive);
                probes += rule.events.iter().map(|d| check(&d.plan)).sum::<usize>();
                assert!(rule.full.load.binds.is_empty() && rule.full.load.checks.is_empty());
                assert_eq!(rule.events.len(), visits(&rule.full), "a plan per literal");
                for d in &rule.events {
                    let loaded = d.plan.load.binds.len() + d.plan.load.checks.len();
                    assert_eq!(loaded, d.pred.arity as usize, "{:?}", d.plan);
                    assert_eq!(visits(&d.plan), visits(&rule.full) - 1, "{:?}", d.plan);
                }
                if !rule.rederive.code.is_empty() {
                    assert_eq!(visits(&rule.rederive), visits(&rule.full));
                }
            }
            for (i, a) in circuit.arrangements.iter().enumerate() {
                let mut sorted = a.order.clone();
                sorted.sort_unstable();
                assert!(sorted.into_iter().eq(0..a.pred.arity as usize), "{a:?}");
                assert!(
                    !circuit.arrangements[..i].contains(a),
                    "{a:?} declared twice"
                );
            }
            if src == views {
                // `path(Y, Z)` driving asks for `edge(X, Y)` by its second
                // column, and `blocked(Y)` driving for `path(X, Y)` by its.
                let declared: Vec<String> = (circuit.arrangements.iter())
                    .map(|a| format!("{}{:?}", a.pred.name, a.order))
                    .collect();
                assert_eq!(declared, ["edge[1, 0]", "path[1, 0]"]);
                // A one-shot circuit has the same plans. Run from scratch
                // it builds only what the drivers of its own components
                // probe: each new `path` tuple asks for `edge[1, 0]`, and
                // `blocked` never changes.
                let (program, db) = setup(&format!(
                    "{views} init edge(a, b). init edge(b, c). init blocked(c)."
                ));
                let flat = crate::datalog::flatten_program(&program).unwrap();
                let one_shot = Circuit::new(flat);
                assert_eq!(one_shot.arrangements, circuit.arrangements);
                assert!(db.arrangements().next().is_none());
                let (state, _) = one_shot.run(&db);
                // The base one on the database it was handed, for the next
                // run to find; nothing of the kind in the state.
                assert!(db.arranged(Pred::new("edge", 2), &[1, 0]).is_some());
                assert!(state.arranged.iter().all(|slot| slot.get().is_none()));
            }
        }
        assert!(probes > 40, "{probes} keyed probes checked");
    }
}
