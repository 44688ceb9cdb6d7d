//! Model-based property tests: the persistent [`Database`] against a plain
//! `BTreeMap<Pred, BTreeSet<Tuple>>` reference model, [`Relation`] against a
//! `BTreeSet<Tuple>` and [`CountedRelation`] against a `BTreeMap<Tuple, i64>`,
//! including snapshot semantics (old versions must never observe later
//! edits — the property the engine's backtracking depends on).
//!
//! All three sit on the one persistent map in `td_db::ord`, so this is also
//! that structure's model suite: insert, overwrite, remove, ordered walk and
//! range probe, under sharing between versions — and the bulk edits,
//! `from_sorted` and runs of in-place `alter_mut`s, against the same models.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use td_core::{Pred, Value};
use td_db::ord::OrdMap;
use td_db::{CountedRelation, Database, Relation, Tuple};

#[derive(Clone, Debug)]
enum Op {
    Ins(u8, Vec<i64>),
    Del(u8, Vec<i64>),
    Snapshot,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u8..3), proptest::collection::vec(0i64..5, 2)).prop_map(|(p, t)| Op::Ins(p, t)),
        ((0u8..3), proptest::collection::vec(0i64..5, 2)).prop_map(|(p, t)| Op::Del(p, t)),
        Just(Op::Snapshot),
    ]
}

fn pred(i: u8) -> Pred {
    Pred::new(&format!("r{i}"), 2)
}

fn tuple(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect())
}

type Model = BTreeMap<Pred, BTreeSet<Tuple>>;

/// A small mixed domain, so orderings cross the int/symbol boundary and
/// compare symbols by text.
fn mixed(code: u8) -> Value {
    match code {
        0 => Value::Int(-1),
        1 => Value::Int(3),
        2 => Value::sym("a"),
        _ => Value::sym("ab"),
    }
}

fn mixed_tuple(codes: &[u8]) -> Tuple {
    Tuple::new(codes.iter().map(|c| mixed(*c)).collect())
}

/// Every binding pattern that takes its bound columns from `probe`: one per
/// subset of the columns, so every bound/free shape is covered.
fn patterns_from(probe: &Tuple) -> Vec<Vec<Option<Value>>> {
    let vals = probe.values();
    (0..1u32 << vals.len())
        .map(|mask| {
            let bound = |(i, v): (usize, &Value)| (mask >> i & 1 == 1).then_some(*v);
            vals.iter().enumerate().map(bound).collect()
        })
        .collect()
}

type CountModel = BTreeMap<Tuple, i64>;

fn assert_counts_match_model(r: &CountedRelation, model: &CountModel, probe: &Tuple) {
    assert_eq!(r.len(), model.len());
    let mut entries = Vec::new();
    r.for_each(|t, c| entries.push((t.clone(), c)));
    let expected: Vec<(Tuple, i64)> = model.iter().map(|(t, c)| (t.clone(), *c)).collect();
    assert_eq!(entries, expected, "entries, in order, with their counts");
    let members: Vec<Tuple> = model
        .iter()
        .filter(|(_, c)| **c > 0)
        .map(|(t, _)| t.clone())
        .collect();
    assert_eq!(r.to_vec(), members);
    for pattern in patterns_from(probe) {
        let expected: Vec<Tuple> = members
            .iter()
            .filter(|t| t.matches(&pattern))
            .cloned()
            .collect();
        assert_eq!(r.select(&pattern), expected, "pattern {pattern:?}");
    }
}

fn assert_matches_model(db: &Database, model: &Model) {
    for i in 0..3u8 {
        let p = pred(i);
        let expected = model.get(&p).cloned().unwrap_or_default();
        let actual: BTreeSet<Tuple> = db
            .relation(p)
            .map(|r| r.to_vec().into_iter().collect())
            .unwrap_or_default();
        assert_eq!(actual, expected, "relation {p} diverged");
        // Membership queries agree too.
        for t in &expected {
            assert!(db.contains(p, t));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn database_behaves_like_model(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let mut db = Database::new();
        let mut model: Model = BTreeMap::new();
        // (snapshot, model at snapshot time)
        let mut snapshots: Vec<(Database, Model)> = Vec::new();

        for op in ops {
            match op {
                Op::Ins(p, vals) => {
                    let t = tuple(&vals);
                    let (next, changed) = db.insert(pred(p), &t).unwrap();
                    let model_changed = model.entry(pred(p)).or_default().insert(t);
                    prop_assert_eq!(changed, model_changed);
                    db = next;
                }
                Op::Del(p, vals) => {
                    let t = tuple(&vals);
                    let (next, changed) = db.delete(pred(p), &t).unwrap();
                    let model_changed = model
                        .get_mut(&pred(p))
                        .is_some_and(|s| s.remove(&t));
                    prop_assert_eq!(changed, model_changed);
                    db = next;
                }
                Op::Snapshot => {
                    snapshots.push((db.clone(), model.clone()));
                }
            }
        }

        assert_matches_model(&db, &model);
        // Every snapshot still reflects its own point in time.
        for (snap, snap_model) in &snapshots {
            assert_matches_model(snap, snap_model);
        }
    }

    #[test]
    fn digest_agrees_iff_content_agrees(
        ops_a in proptest::collection::vec(arb_op(), 0..40),
        ops_b in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let apply = |ops: &[Op]| {
            let mut db = Database::new();
            for op in ops {
                match op {
                    Op::Ins(p, vals) => db = db.insert(pred(*p), &tuple(vals)).unwrap().0,
                    Op::Del(p, vals) => db = db.delete(pred(*p), &tuple(vals)).unwrap().0,
                    Op::Snapshot => {}
                }
            }
            db
        };
        let a = apply(&ops_a);
        let b = apply(&ops_b);
        if a.same_content(&b) {
            prop_assert_eq!(a.digest(), b.digest());
        }
        // (The converse can fail only with ~2⁻¹²⁸ probability; not asserted.)
    }

    /// The incrementally maintained digest never drifts from the
    /// from-scratch recomputation, across randomized ins/del sequences and
    /// rollbacks (here: restoring an earlier snapshot, exactly what the
    /// engine does when a transaction aborts).
    #[test]
    fn incremental_digest_matches_from_scratch(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let mut db = Database::new();
        let mut saved: Vec<Database> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Ins(p, vals) => db = db.insert(pred(p), &tuple(&vals)).unwrap().0,
                Op::Del(p, vals) => db = db.delete(pred(p), &tuple(&vals)).unwrap().0,
                Op::Snapshot => {
                    // Alternate between taking a snapshot and rolling back
                    // to the most recent one.
                    if i % 2 == 0 || saved.is_empty() {
                        saved.push(db.clone());
                    } else {
                        db = saved.pop().unwrap();
                    }
                }
            }
            prop_assert_eq!(db.digest(), db.digest_from_scratch());
        }
        for snap in &saved {
            prop_assert_eq!(snap.digest(), snap.digest_from_scratch());
        }
    }

    /// Arrangements are a function of the version that holds them: under
    /// random `insert`/`delete`s, first probes of the four column orders of
    /// two binary relations, snapshots and rollbacks, every arrangement a
    /// version holds is the permuted sort of that version's relation — the
    /// ones it built and the ones it inherited alike — and a lineage nobody
    /// probed holds none.
    #[test]
    fn arrangements_are_the_permuted_sort_of_their_version(
        // Below 6 an op as in `arb_op`; otherwise a probe of (pred, order).
        ops in proptest::collection::vec((0u8..8, arb_op(), 0u8..2, any::<bool>()), 0..120),
    ) {
        fn check(db: &Database) -> usize {
            let mut held = 0;
            for (p, order, arranged) in db.arrangements() {
                let mut fresh: Vec<Tuple> = db.relation(p).unwrap().to_vec();
                fresh = fresh.iter().map(|t| t.permuted(order)).collect();
                fresh.sort();
                let mut kept = Vec::new();
                arranged.for_each(|t, ()| kept.push(t.clone()));
                assert_eq!(kept, fresh, "{p}{order:?}");
                assert_eq!(arranged.len(), fresh.len());
                held += 1;
            }
            held
        }
        let mut db = Database::new().declare(pred(0)).declare(pred(1));
        let mut unprobed = db.clone();
        let mut saved: Vec<Database> = Vec::new();
        let mut probed = BTreeSet::new();
        for (i, (kind, op, p, flip)) in ops.into_iter().enumerate() {
            let order: &[usize] = if flip { &[1, 0] } else { &[0, 1] };
            match op {
                _ if kind >= 6 => {
                    let built = db.arrangement(pred(p), order).unwrap();
                    prop_assert!(std::ptr::eq(built, db.arranged(pred(p), order).unwrap()));
                    probed.insert((p, flip));
                }
                Op::Ins(p, vals) => {
                    db = db.insert(pred(p), &tuple(&vals)).unwrap().0;
                    unprobed = unprobed.insert(pred(p), &tuple(&vals)).unwrap().0;
                }
                Op::Del(p, vals) => {
                    db = db.delete(pred(p), &tuple(&vals)).unwrap().0;
                    unprobed = unprobed.delete(pred(p), &tuple(&vals)).unwrap().0;
                }
                Op::Snapshot if i % 2 == 0 || saved.is_empty() => saved.push(db.clone()),
                Op::Snapshot => db = saved.pop().unwrap(),
            }
            // A rollback may lose what was probed since; nothing adds any.
            prop_assert!(check(&db) <= probed.len());
            prop_assert!(db.arranged(pred(2), &[0, 1]).is_none());
        }
        for snap in &saved {
            check(snap);
        }
        prop_assert_eq!(unprobed.arrangements().count(), 0);
    }

    #[test]
    fn delta_replay_reproduces_any_committed_run(ops in proptest::collection::vec(arb_op(), 0..60)) {
        use td_db::{Delta, DeltaOp};
        let d0 = Database::new();
        let mut db = d0.clone();
        let mut delta = Delta::new();
        for op in ops {
            match op {
                Op::Ins(p, vals) => {
                    let t = tuple(&vals);
                    let (next, changed) = db.insert(pred(p), &t).unwrap();
                    if changed {
                        delta.push(DeltaOp::Ins(pred(p), t));
                    }
                    db = next;
                }
                Op::Del(p, vals) => {
                    let t = tuple(&vals);
                    let (next, changed) = db.delete(pred(p), &t).unwrap();
                    if changed {
                        delta.push(DeltaOp::Del(pred(p), t));
                    }
                    db = next;
                }
                Op::Snapshot => {}
            }
        }
        let forward = delta.replay(&d0).unwrap();
        prop_assert!(forward.same_content(&db));
    }

    /// `select` under every bound/free pattern shape over arity 3 returns
    /// exactly the model's matching tuples, in the model's (sorted) order —
    /// whichever of the three probe regimes serves the shape — and the
    /// walks, the size and the digest agree with the model too.
    #[test]
    fn relation_select_matches_model_on_every_pattern_shape(
        ops in proptest::collection::vec((any::<bool>(), proptest::collection::vec(0u8..4, 3)), 0..150),
        probe in proptest::collection::vec(0u8..4, 3),
    ) {
        let mut rel = Relation::new(3);
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        for (is_insert, codes) in &ops {
            let t = mixed_tuple(codes);
            let (next, changed) = if *is_insert { rel.insert(&t) } else { rel.remove(&t) };
            let model_changed = if *is_insert { model.insert(t) } else { model.remove(&t) };
            prop_assert_eq!(changed, model_changed);
            rel = next;
        }
        let sorted: Vec<Tuple> = model.iter().cloned().collect();
        prop_assert_eq!(rel.len(), model.len());
        prop_assert_eq!(rel.to_vec(), sorted.clone());
        let mut walked = Vec::new();
        rel.for_each(|t| walked.push(t.clone()));
        prop_assert_eq!(walked, sorted.clone());
        for pattern in patterns_from(&mixed_tuple(&probe)) {
            let expected: Vec<Tuple> =
                sorted.iter().filter(|t| t.matches(&pattern)).cloned().collect();
            prop_assert_eq!(rel.select(&pattern), expected, "pattern {:?}", pattern);
        }
        // Content identity is history-independent: the same set built in
        // sorted order, with no removals, is equal and digests equally.
        let rebuilt = sorted.iter().fold(Relation::new(3), |r, t| r.insert(t).0);
        prop_assert_eq!(rel.digest(), rebuilt.digest());
        prop_assert_eq!(rel.digest(), rel.digest_from_scratch());
        prop_assert!(rel == rebuilt);
        if let Some(t) = sorted.first() {
            prop_assert!(rel != rebuilt.remove(t).0);
        }
    }

    /// `CountedRelation` against a `BTreeMap<Tuple, i64>` under random
    /// in-place `update`s by ±k: counts, membership, `select`, `len`, and
    /// snapshots that never observe later edits.
    #[test]
    fn counted_relation_behaves_like_model(
        // (tuple, delta, take a snapshot first when 0)
        ops in proptest::collection::vec((proptest::collection::vec(0u8..4, 2), -3i64..4, 0u8..5), 0..150),
        probe in proptest::collection::vec(0u8..4, 2),
    ) {
        let probe = mixed_tuple(&probe);
        let mut rel = CountedRelation::new(2);
        let mut model: CountModel = BTreeMap::new();
        let mut snapshots: Vec<(CountedRelation, CountModel)> = Vec::new();
        for (codes, delta, snapshot) in ops {
            if snapshot == 0 {
                snapshots.push((rel.clone(), model.clone()));
            }
            let t = mixed_tuple(&codes);
            let old = model.get(&t).copied().unwrap_or(0);
            let new = old + delta;
            if new == 0 {
                model.remove(&t);
            } else {
                model.insert(t.clone(), new);
            }
            prop_assert_eq!(rel.update(&t, |c| c + delta), old);
            prop_assert_eq!(rel.count(&t), new);
            prop_assert_eq!(rel.contains(&t), new > 0);
        }
        assert_counts_match_model(&rel, &model, &probe);
        for (snap, snap_model) in &snapshots {
            assert_counts_match_model(snap, snap_model, &probe);
        }
    }

    /// The bulk edits against `BTreeMap<Tuple, i64>`: `from_sorted` builds
    /// what the `alter`s build, and a run of `alter_mut`s over a clone — as
    /// a sum, as a difference, and with an `f` that deletes where both
    /// sides hold the key — gives what the same `f` folded over the other
    /// side's entries with `alter` gives, with the right `len`, and leaves
    /// both operands as they were.
    #[test]
    fn bulk_edits_behave_like_the_fold_of_point_edits(
        mine in proptest::collection::vec((proptest::collection::vec(0u8..4, 3), -3i64..4), 0..120),
        theirs in proptest::collection::vec((proptest::collection::vec(0u8..4, 3), -3i64..4), 0..120),
    ) {
        let model_of = |ops: &[(Vec<u8>, i64)]| -> CountModel {
            ops.iter().map(|(codes, c)| (mixed_tuple(codes), *c)).collect()
        };
        let by_alters = |model: &CountModel| {
            model.iter().fold(OrdMap::new(), |m, (t, c)| m.alter(t, |_| Some(*c)))
        };
        let entries = |m: &OrdMap<Tuple, i64>| {
            let mut out = Vec::new();
            m.for_each(|t, c| out.push((t.clone(), *c)));
            out
        };
        let (mine, theirs) = (model_of(&mine), model_of(&theirs));
        let a = by_alters(&mine);
        let b = OrdMap::from_sorted(theirs.clone());
        prop_assert!(b == by_alters(&theirs));
        prop_assert_eq!(b.len(), theirs.len());
        prop_assert_eq!(entries(&b), theirs.clone().into_iter().collect::<Vec<_>>());

        type F = fn(Option<&i64>, &i64) -> Option<i64>;
        let sum: F = |m, t| Some(m.copied().unwrap_or(0) + t).filter(|c| *c != 0);
        let difference: F = |_, _| None;
        let keep_one_side: F = |m, t| if m.is_some() { None } else { Some(*t) };
        for f in [sum, difference, keep_one_side] {
            let mut expected = mine.clone();
            for (t, c) in &theirs {
                match f(mine.get(t), c) {
                    Some(new) => expected.insert(t.clone(), new),
                    None => expected.remove(t),
                };
            }
            let mut merged = a.clone();
            b.for_each(|t, c| merged.alter_mut(t, |old| f(old, c)));
            prop_assert_eq!(merged.len(), expected.len());
            prop_assert_eq!(entries(&merged), expected.into_iter().collect::<Vec<_>>());
            let folded = theirs.iter().fold(a.clone(), |m, (t, c)| m.alter(t, |old| f(old, c)));
            prop_assert!(merged == folded);
            // Snapshot semantics: neither operand saw the edit.
            prop_assert_eq!(entries(&a), mine.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(entries(&b), theirs.clone().into_iter().collect::<Vec<_>>());
        }

        // The sum through `CountedRelation::update`, on a clone.
        let nonzero = |m: &CountModel| m.clone().into_iter().filter(|(_, c)| *c != 0);
        let rel = CountedRelation::from_sorted(3, nonzero(&mine));
        let mut merged = rel.clone();
        for (t, c) in nonzero(&theirs) {
            merged.update(&t, |was| was + c);
        }
        let mut expected: CountModel = nonzero(&mine).collect();
        for (t, c) in nonzero(&theirs) {
            let new = expected.get(&t).copied().unwrap_or(0) + c;
            if new == 0 {
                expected.remove(&t);
            } else {
                expected.insert(t, new);
            }
        }
        assert_counts_match_model(&merged, &expected, &mixed_tuple(&[1, 2, 0]));
        assert_counts_match_model(&rel, &nonzero(&mine).collect(), &mixed_tuple(&[1, 2, 0]));
    }
}
