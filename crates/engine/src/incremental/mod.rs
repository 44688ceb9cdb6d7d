//! The engine's one Datalog evaluator, and incremental materialization of
//! the Datalog fragment on top of it.
//!
//! §6 of the paper observes that the update-free core of TD *is* classical
//! Datalog, so classical optimization applies. `circuit` compiles
//! flattened rules into strongly-connected components and owns the only
//! body join and the only semi-naive loop in the crate; a one-shot
//! `datalog::evaluate` (or `magic::answer`) is that circuit run once from an
//! empty derived state. The [`SubgoalCache`](crate::cache::SubgoalCache)
//! reuses answers, but any database-digest change invalidates it wholesale:
//! one `ins` re-derives every derived relation from scratch. The
//! [`Materializer`] turns "digest changed → recompute" into "delta applied →
//! O(|Δ|) maintenance":
//!
//! * [`Materializer::compile`] selects the derived predicates whose rules
//!   flatten to Datalog (`datalog::flatten_rule`) and are delta-safe, and
//!   compiles them into a circuit.
//! * For each database version (keyed by its O(1) content digest), a
//!   *materialized state* maps every such predicate to a
//!   [`CountedRelation`]: tuple → number of supporting rule instantiations.
//!   A version's first probe builds it with the from-scratch run.
//! * [`Materializer::apply_ops`] pushes a committed base delta through the
//!   circuit: per delta-rule semi-naive joins (one per affected body
//!   position, prefix-new/suffix-old, index-backed via the sorted treap
//!   probes) adjust the counts, and only 0 ↔ positive transitions cascade
//!   to downstream components. Non-recursive components use exact counting;
//!   recursive components use delete-rederive (DRed) over set semantics,
//!   where counting is unsound.
//! * [`Materializer::holds`] answers a ground derived-predicate call with
//!   an indexed probe of the materialized relation — the kernel substitutes
//!   it for rule unfolding when `EngineConfig::materialize` is on.
//!
//! Negation folds in directly: TD restricts `not` to base relations, so no
//! stratification is needed — a base tuple appearing is a *negative* delta
//! through a `not` literal and vice versa.
//!
//! Backtracking and isolation rollback need no explicit unwind: states are
//! keyed by content digest, so restoring an earlier database re-keys to the
//! retained state for that digest (the delta-log inverse is subsumed by
//! digest keying — see `docs/INCREMENTAL.md`).

pub(crate) mod circuit;

use crate::datalog::{flatten_rule, FlatRule, Lit};
use circuit::{join, saturate, Circuit, Driver, MatState, Scc, Views};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use td_core::goal::Builtin;
use td_core::{Atom, Pred, Program, Term};
use td_db::{CountedRelation, Database, DeltaOp, Transition, Tuple};

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

/// Membership events produced while one base delta cascades: per predicate,
/// `(tuple, +1)` for appeared and `(tuple, -1)` for disappeared.
type Events = HashMap<Pred, Vec<(Tuple, i64)>>;

#[derive(Default)]
struct Store {
    map: HashMap<u128, Arc<MatState>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u128>,
}

/// Bound on retained per-digest states; old versions evict FIFO (a probe on
/// an evicted version falls back to a full rebuild).
const MAX_STATES: usize = 4096;

/// The compiled delta circuit plus its per-digest state store. Cheap to
/// share across backends and worker threads behind an `Arc`; all counters
/// are process-wide lifetime totals.
pub struct Materializer {
    mat: HashSet<Pred>,
    /// Base predicates read by some materialized rule; deltas on any other
    /// base predicate leave every materialized relation unchanged.
    relevant_base: HashSet<Pred>,
    circuit: Circuit,
    store: Mutex<Store>,
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
            .field("preds", &self.mat.len())
            .field("sccs", &self.circuit.sccs.len())
            .finish()
    }
}

impl Materializer {
    /// Compile the materializable fragment of `program`: the greatest set
    /// of derived predicates whose rules all flatten to Datalog, depend
    /// (positively) only on base predicates and each other, negate only
    /// base predicates, and are *delta-safe* (every variable a negation or
    /// a demanding builtin reads is bound by an earlier positive atom, so
    /// delta-joins that pre-bind a later position agree with left-to-right
    /// evaluation). Errs when the set is empty.
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
            if let Some(rs) = rules.ok().filter(|rs| rs.iter().all(delta_safe)) {
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

        let mat: HashSet<Pred> = flat.keys().copied().collect();
        let circuit = Circuit::new(flat);
        let relevant_base: HashSet<Pred> = circuit
            .sccs
            .iter()
            .flat_map(|s| s.deps.iter())
            .copied()
            .filter(|p| base.contains(p))
            .collect();
        Ok(Materializer {
            mat,
            relevant_base,
            circuit,
            store: Mutex::new(Store::default()),
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
        self.mat.contains(&pred)
    }

    /// The materialized predicates, sorted.
    pub fn materialized_preds(&self) -> Vec<Pred> {
        let mut out: Vec<Pred> = self.mat.iter().copied().collect();
        out.sort();
        out
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
    /// otherwise. A probe on an unseen database version triggers a full
    /// (re)build for that version; subsequent versions reached by committed
    /// deltas are maintained incrementally.
    pub fn holds(&self, db: &Database, atom: &Atom) -> Option<bool> {
        if !self.mat.contains(&atom.pred) {
            return None;
        }
        let tuple = Tuple::new(atom.ground_args()?);
        self.probes.fetch_add(1, Ordering::Relaxed);
        let state = self.state_for(db);
        Some(state.get(&atom.pred).is_some_and(|r| r.contains(&tuple)))
    }

    /// All tuples of a materialized predicate at `db`'s version, sorted.
    /// Builds the version's state if absent; empty for non-materialized
    /// predicates.
    pub fn facts(&self, db: &Database, pred: Pred) -> Vec<Tuple> {
        if !self.mat.contains(&pred) {
            return Vec::new();
        }
        self.state_for(db)
            .get(&pred)
            .map(|r| r.to_vec())
            .unwrap_or_default()
    }

    /// The materialized state for a database version, building it if this
    /// digest was never seen (or was evicted).
    fn state_for(&self, db: &Database) -> Arc<MatState> {
        let digest = db.digest();
        if let Some(st) = self
            .store
            .lock()
            .expect("mat store poisoned")
            .map
            .get(&digest)
        {
            self.state_hits.fetch_add(1, Ordering::Relaxed);
            return st.clone();
        }
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        let st = Arc::new(self.circuit.run(db).0);
        self.store_state(digest, st.clone());
        st
    }

    /// Maintain the state across a committed delta: `ops` is the exact op
    /// sequence taking `pre` to `post` (no-op entries included). O(1) when
    /// `pre`'s state is not resident (maintenance is lazy until a probe
    /// seeds a version) or `post`'s already is. Rollback needs no inverse
    /// pass: earlier digests keep their states.
    pub fn apply_ops(&self, pre: &Database, ops: &[DeltaOp], post: &Database) {
        if ops.is_empty() || pre.digest() == post.digest() {
            return;
        }
        let (pre_state, have_post) = {
            let s = self.store.lock().expect("mat store poisoned");
            (
                s.map.get(&pre.digest()).cloned(),
                s.map.contains_key(&post.digest()),
            )
        };
        let Some(pre_state) = pre_state else { return };
        if have_post {
            return;
        }
        let t0 = std::time::Instant::now();
        let mut state: MatState = (*pre_state).clone();
        let mut touched = false;
        let mut cur = pre.clone();
        for op in ops {
            let (pred, tuple) = match op {
                DeltaOp::Ins(p, t) | DeltaOp::Del(p, t) => (*p, t),
            };
            let Ok(next) = op.apply(&cur) else { return };
            if self.relevant_base.contains(&pred) {
                let sign = match (cur.contains(pred, tuple), next.contains(pred, tuple)) {
                    (false, true) => 1,
                    (true, false) => -1,
                    _ => 0,
                };
                if sign != 0 {
                    self.propagate(&cur, &next, pred, tuple.clone(), sign, &mut state);
                    touched = true;
                }
            }
            cur = next;
        }
        debug_assert_eq!(cur.digest(), post.digest(), "ops do not take pre to post");
        self.maintained_ops
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        self.maintain_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let st = if touched { Arc::new(state) } else { pre_state };
        self.store_state(post.digest(), st);
    }

    fn store_state(&self, digest: u128, state: Arc<MatState>) {
        let mut s = self.store.lock().expect("mat store poisoned");
        if s.map.contains_key(&digest) {
            return;
        }
        while s.map.len() >= MAX_STATES {
            let Some(old) = s.order.pop_front() else {
                break;
            };
            s.map.remove(&old);
        }
        s.order.push_back(digest);
        s.map.insert(digest, state);
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// Push one base-relation membership change through the circuit in
    /// topological order, cascading derived membership events.
    fn propagate(
        &self,
        old_db: &Database,
        new_db: &Database,
        pred: Pred,
        tuple: Tuple,
        sign: i64,
        state: &mut MatState,
    ) {
        let old_state = state.clone();
        let old_v = Views {
            db: old_db,
            state: &old_state,
        };
        let mut events: Events = HashMap::new();
        events.insert(pred, vec![(tuple, sign)]);
        for scc in &self.circuit.sccs {
            if !scc.deps.iter().any(|p| events.contains_key(p)) {
                continue;
            }
            if scc.recursive {
                self.maintain_recursive(scc, old_v, new_db, state, &mut events);
            } else {
                self.maintain_counting(scc, old_v, new_db, state, &mut events);
            }
        }
    }

    /// Exact counting maintenance for a non-recursive component: signed
    /// finite differencing — for each affected body position i,
    /// `new₁…newᵢ₋₁ × Δᵢ × oldᵢ₊₁…oldₙ` — telescopes to the exact count
    /// change. A `not` literal flips the delta's sign.
    fn maintain_counting(
        &self,
        scc: &Scc,
        old_v: Views<'_>,
        new_db: &Database,
        state: &mut MatState,
        events: &mut Events,
    ) {
        let q = scc.preds[0];
        let mut net: HashMap<Tuple, i64> = HashMap::new();
        let new_v = Views { db: new_db, state };
        join_events(scc, events, |_| true, new_v, old_v, &mut |_, h, sign| {
            *net.entry(h).or_insert(0) += sign;
        });
        let mut rel = state[&q].clone();
        let mut evs: Vec<(Tuple, i64)> = Vec::new();
        for (t, d) in net {
            if d == 0 {
                continue;
            }
            let (next, tr) = rel.add(&t, d);
            rel = next;
            match tr {
                Transition::Appeared => evs.push((t, 1)),
                Transition::Disappeared => evs.push((t, -1)),
                Transition::Unchanged => {}
            }
        }
        state.insert(q, rel);
        if !evs.is_empty() {
            self.delta_tuples
                .fetch_add(evs.len() as u64, Ordering::Relaxed);
            events.insert(q, evs);
        }
    }

    /// DRed maintenance for a recursive component: overdelete every tuple
    /// with a derivation through a negative event (against the old state),
    /// rederive survivors from the new state, then semi-naive insertion for
    /// positive events.
    fn maintain_recursive(
        &self,
        scc: &Scc,
        old_v: Views<'_>,
        new_db: &Database,
        state: &mut MatState,
        events: &mut Events,
    ) {
        // Phase 1: overdeletion, entirely against the old views.
        let mut deleted: HashSet<(Pred, Tuple)> = HashSet::new();
        let mut wl: VecDeque<(Pred, Tuple)> = VecDeque::new();
        let mut cand: Vec<(Pred, Tuple)> = Vec::new();
        join_events(scc, events, |s| s < 0, old_v, old_v, &mut |p, h, _| {
            cand.push((p, h));
        });
        loop {
            for (p, h) in cand.drain(..) {
                if state[&p].contains(&h) && deleted.insert((p, h.clone())) {
                    let rel = state[&p].add(&h, -state[&p].count(&h)).0;
                    state.insert(p, rel);
                    wl.push_back((p, h));
                }
            }
            let Some((dp, dt)) = wl.pop_front() else {
                break;
            };
            let delta = singleton(&dt);
            for rule in &scc.rules {
                for (pos, lit) in rule.body.iter().enumerate() {
                    if matches!(lit, Lit::Atom(a) if a.pred == dp) {
                        let driver = Driver {
                            pos,
                            delta: &delta,
                            first: true,
                        };
                        join(rule, Some(driver), None, old_v, old_v, &mut |h| {
                            cand.push((rule.head.pred, h));
                        });
                    }
                }
            }
        }

        // Phase 2: rederivation in one step from the new external state and
        // the reduced component state. Tuples whose alternative support
        // runs through other rederived tuples are recovered by phase 3.
        let v = Views { db: new_db, state };
        for (p, t) in &deleted {
            let mut found = false;
            for rule in scc.rules.iter().filter(|r| r.head.pred == *p) {
                if !found {
                    join(rule, None, Some(t), v, v, &mut |_| found = true);
                }
            }
            if found {
                cand.push((*p, t.clone()));
            }
        }

        // Phase 3: semi-naive insertion of the rederived tuples and of what
        // positive events derive, against the new views and the growing
        // component state.
        join_events(scc, events, |s| s > 0, v, v, &mut |p, h, _| {
            cand.push((p, h));
        });
        let mut inserted: HashSet<(Pred, Tuple)> = HashSet::new();
        saturate(scc, new_db, state, cand, true, &mut |p, t| {
            inserted.insert((p, t.clone()));
        });

        // Net membership events for downstream components. A pair both
        // deleted and inserted nets to none, so no event repeats.
        let mut per_pred: Events = HashMap::new();
        for (p, t) in deleted.iter().chain(inserted.iter()) {
            let sign = match (old_v.state[p].contains(t), state[p].contains(t)) {
                (false, true) => 1,
                (true, false) => -1,
                _ => continue,
            };
            per_pred.entry(*p).or_default().push((t.clone(), sign));
        }
        for (p, evs) in per_pred {
            self.delta_tuples
                .fetch_add(evs.len() as u64, Ordering::Relaxed);
            events.insert(p, evs);
        }
    }

    // ------------------------------------------------------------------
    // Lifetime counters
    // ------------------------------------------------------------------

    /// Ground probes answered from a materialized relation.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Probes (or maintenance passes) that found the version's state
    /// resident.
    pub fn state_hits(&self) -> u64 {
        self.state_hits.load(Ordering::Relaxed)
    }

    /// Full builds (first probe of a version, or probe after eviction).
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

    /// Database versions currently holding a materialized state.
    pub fn states(&self) -> usize {
        self.store.lock().expect("mat store poisoned").map.len()
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
            ("states", self.states() as u64),
        ]
    }
}

/// The one-tuple delta of a single membership event.
fn singleton(t: &Tuple) -> CountedRelation {
    CountedRelation::new(t.arity()).add(t, 1).0
}

/// Join every rule of a component through each membership event on a
/// predicate it reads, the event's position first, for the events whose
/// effective sign (a `not` literal flips it) `keep` accepts. Positions
/// before the event's read `new_v`, positions after it `old_v`. Events on
/// the component's own predicates do not exist yet: it publishes them when
/// its maintenance ends.
fn join_events(
    scc: &Scc,
    events: &Events,
    keep: impl Fn(i64) -> bool,
    new_v: Views<'_>,
    old_v: Views<'_>,
    emit: &mut dyn FnMut(Pred, Tuple, i64),
) {
    for rule in &scc.rules {
        for (pos, lit) in rule.body.iter().enumerate() {
            let (pred, flip) = match lit {
                Lit::Atom(a) => (a.pred, 1),
                Lit::NegAtom(a) => (a.pred, -1),
                Lit::Builtin(..) => continue,
            };
            for (t, s) in events.get(&pred).into_iter().flatten() {
                let sign = s * flip;
                if keep(sign) {
                    let driver = Driver {
                        pos,
                        delta: &singleton(t),
                        first: true,
                    };
                    join(rule, Some(driver), None, new_v, old_v, &mut |h| {
                        emit(rule.head.pred, h, sign);
                    });
                }
            }
        }
    }
}

/// Delta-join safety: every variable read by a `not` literal or a
/// demanding builtin (`!=`, comparisons, arithmetic inputs) must be bound
/// by an earlier positive atom (or determined by an earlier `=`/arithmetic
/// output over such variables). Rules violating this evaluate differently
/// once a delta pre-binds a later position, so they are excluded from
/// materialization.
fn delta_safe(rule: &FlatRule) -> bool {
    let mut bound: HashSet<td_core::Var> = HashSet::new();
    let term_vars = |t: &Term| -> Vec<td_core::Var> { t.as_var().into_iter().collect() };
    let all_bound = |ts: &[Term], bound: &HashSet<td_core::Var>| {
        ts.iter().flat_map(term_vars).all(|v| bound.contains(&v))
    };
    for lit in &rule.body {
        match lit {
            Lit::Atom(a) => {
                bound.extend(a.vars());
            }
            Lit::NegAtom(a) => {
                if !a
                    .args
                    .iter()
                    .flat_map(term_vars)
                    .all(|v| bound.contains(&v))
                {
                    return false;
                }
            }
            Lit::Builtin(op, terms) => match op {
                Builtin::Eq => {
                    // `=` determines one side from the other; if either side
                    // is fully bound, the other becomes so.
                    if all_bound(&terms[..1], &bound) || all_bound(&terms[1..2], &bound) {
                        bound.extend(terms.iter().flat_map(term_vars));
                    }
                }
                Builtin::Ne | Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => {
                    if !all_bound(terms, &bound) {
                        return false;
                    }
                }
                Builtin::Add | Builtin::Sub | Builtin::Mul => {
                    if !all_bound(&terms[..2], &bound) {
                        return false;
                    }
                    bound.extend(term_vars(&terms[2]));
                }
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::load_init;
    use td_core::Value;
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

    /// An oracle that shares no code with the circuit: Warshall's closure
    /// over the five nodes, read off the stored `e` and `blocked` tuples.
    /// Returns `path` (the closure of `e`) and `reach` (the nodes a walk from
    /// `n0` gets to without stepping on a blocked one), both sorted.
    fn closure_model(db: &Database) -> (Vec<Tuple>, Vec<Tuple>) {
        let node = |i: usize| Value::sym(NODES[i]);
        let blocked = |j: usize| db.contains(Pred::new("blocked", 1), &Tuple::new(vec![node(j)]));
        let close = |enter: &dyn Fn(usize) -> bool| {
            let mut c = [[false; 5]; 5];
            for (i, j) in (0..25).map(|x| (x / 5, x % 5)) {
                let edge = Tuple::new(vec![node(i), node(j)]);
                c[i][j] = enter(j) && db.contains(Pred::new("e", 2), &edge);
            }
            for (k, i, j) in (0..125).map(|x| (x / 25, x / 5 % 5, x % 5)) {
                c[i][j] |= c[i][k] && c[k][j];
            }
            c
        };
        let (all, open) = (close(&|_| true), close(&|j| !blocked(j)));
        let mut path: Vec<Tuple> = (0..25)
            .filter(|x| all[x / 5][x % 5])
            .map(|x| Tuple::new(vec![node(x / 5), node(x % 5)]))
            .collect();
        let mut reach: Vec<Tuple> = (0..5)
            .filter(|&j| open[0][j])
            .map(|j| Tuple::new(vec![node(j)]))
            .collect();
        path.sort();
        reach.sort();
        (path, reach)
    }

    /// Apply one op both to the db and through the circuit.
    fn step(m: &Materializer, db: &Database, op: DeltaOp) -> Database {
        let next = op.apply(db).expect("op applies");
        m.apply_ops(db, std::slice::from_ref(&op), &next);
        next
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
        let path_scc = m
            .circuit
            .sccs
            .iter()
            .find(|s| s.preds.contains(&Pred::new("path", 2)))
            .unwrap();
        assert!(path_scc.recursive);
        let top_scc = m
            .circuit
            .sccs
            .iter()
            .find(|s| s.preds.contains(&Pred::new("top", 1)))
            .unwrap();
        assert!(!top_scc.recursive);
        // `top` depends on both others, so its component must come last.
        assert_eq!(
            m.circuit.sccs.last().unwrap().preds,
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
        // `not broken(X)` before any positive binding of X: the bottom-up
        // evaluator silently derives nothing, but a delta-join driving
        // e(X, Y) would bind X — so the predicate must not be materialized.
        let (p, _) = setup(
            "base e/2. base broken/1.
             odd(X) <- not broken(X) * e(X, X).
             fine(X) <- e(X, X) * not broken(X).",
        );
        let m = Materializer::compile(&p).unwrap();
        assert_eq!(m.materialized_preds(), vec![Pred::new("fine", 1)]);
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
        let db2 = step(&m, &db, DeltaOp::Del(Pred::new("r", 1), tuple!(1)));
        assert_eq!(m.facts(&db2, q), vec![tuple!(1)], "s(1) still supports");
        let db3 = step(&m, &db2, DeltaOp::Del(Pred::new("s", 1), tuple!(1)));
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
        let db2 = step(&m, &db, DeltaOp::Ins(Pred::new("broken", 1), tuple!("b")));
        assert_eq!(m.facts(&db2, healthy), vec![tuple!("a")]);
        let db3 = step(&m, &db2, DeltaOp::Del(Pred::new("broken", 1), tuple!("b")));
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
        let db2 = step(&m, &db, DeltaOp::Del(Pred::new("e", 2), tuple!("a", "c")));
        assert_matches_fixpoint(&m, &p, &db2);
        assert!(m
            .facts(&db2, Pred::new("path", 2))
            .contains(&tuple!("a", "c")));
        let db3 = step(&m, &db2, DeltaOp::Del(Pred::new("e", 2), tuple!("c", "a")));
        assert_matches_fixpoint(&m, &p, &db3);
        assert_eq!(m.rebuilds(), 1);
    }

    #[test]
    fn irrelevant_base_deltas_share_the_state() {
        let (p, db) = setup(
            "base e/2. base junk/1.
             init e(a, b).
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).",
        );
        let m = Materializer::compile(&p).unwrap();
        let _ = m.facts(&db, Pred::new("path", 2));
        let db2 = step(&m, &db, DeltaOp::Ins(Pred::new("junk", 1), tuple!(9)));
        assert_eq!(m.facts(&db2, Pred::new("path", 2)), vec![tuple!("a", "b")]);
        assert_eq!(m.rebuilds(), 1);
        assert_eq!(m.states(), 2, "post state stored by reference");
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
        let db2 = step(&m, &db, op);
        assert_eq!(m.facts(&db2, path).len(), 3);
        // "Rollback": the engine simply resumes from the old snapshot.
        assert_eq!(m.facts(&db, path), before);
        assert_eq!(m.rebuilds(), 1, "old digest still resident");
    }

    #[test]
    fn maintenance_matches_rebuild_under_random_churn() {
        let (p, db0) = setup(
            "base e/2. base blocked/1.
             path(X, Y) <- e(X, Y).
             path(X, Z) <- e(X, Y) * path(Y, Z).
             reach(X) <- e(n0, X) * not blocked(X).
             reach(Y) <- reach(X) * e(X, Y) * not blocked(Y).",
        );
        let m = Materializer::compile(&p).unwrap();
        let names = NODES;
        let from_n1 = Atom::new("path", vec![Term::sym("n1"), Term::var(0)]);
        let mut db = db0;
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let _ = m.facts(&db, Pred::new("path", 2)); // seed the version
        for _ in 0..60 {
            let r = rng();
            let op = if r % 3 == 0 {
                let n = names[(rng() % 5) as usize];
                if r % 2 == 0 {
                    DeltaOp::Ins(Pred::new("blocked", 1), Tuple::new(vec![Value::sym(n)]))
                } else {
                    DeltaOp::Del(Pred::new("blocked", 1), Tuple::new(vec![Value::sym(n)]))
                }
            } else {
                let a = names[(rng() % 5) as usize];
                let b = names[(rng() % 5) as usize];
                let t = Tuple::new(vec![Value::sym(a), Value::sym(b)]);
                if r % 2 == 0 {
                    DeltaOp::Ins(Pred::new("e", 2), t)
                } else {
                    DeltaOp::Del(Pred::new("e", 2), t)
                }
            };
            db = step(&m, &db, op);
            let (path, reach) = closure_model(&db);
            assert_eq!(m.facts(&db, Pred::new("reach", 1)), reach);
            let below_n1: Vec<Tuple> = path
                .iter()
                .filter(|t| t.values()[0] == Value::sym("n1"))
                .cloned()
                .collect();
            assert_eq!(crate::datalog::query(&p, &db, &from_n1).unwrap(), below_n1);
            assert_eq!(crate::magic::answer(&p, &db, &from_n1).unwrap().0, below_n1);
            assert_eq!(m.facts(&db, Pred::new("path", 2)), path);
        }
        assert_eq!(m.rebuilds(), 1, "churn maintained incrementally");
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
        let ops = vec![
            DeltaOp::Ins(e, tuple!("b", "c")),
            DeltaOp::Del(e, tuple!("a", "b")),
            DeltaOp::Ins(e, tuple!("c", "d")),
        ];
        let mut post = db.clone();
        for op in &ops {
            post = op.apply(&post).unwrap();
        }
        m.apply_ops(&db, &ops, &post);
        assert_matches_fixpoint(&m, &p, &post);
        assert_eq!(m.maintained_ops(), 3);
    }
}
