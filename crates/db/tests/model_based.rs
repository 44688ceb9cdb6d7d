//! Model-based property tests: the persistent [`Database`] against a plain
//! `BTreeMap<Pred, BTreeSet<Vec<Value>>>` reference model, [`Relation`]
//! against a `BTreeSet<Vec<Value>>` and [`CountedRelation`] against a
//! `BTreeMap<Vec<Value>, i64>`, including snapshot semantics (old versions
//! must never observe later edits — the property the engine's backtracking
//! depends on).
//!
//! The models key by `Vec<Value>`, not by [`Tuple`], so their order is
//! `[Value]`'s lexicographic order and shares no code with `Tuple`'s
//! code-first comparison; the domain reaches the edges of that code's
//! encoding (integer byte widths, `i64::MIN`/`MAX`, escaped zero bytes,
//! symbols longer than a code holds).
//!
//! All three sit on the one persistent map in `td_db::ord`, so this is also
//! that structure's model suite: insert, overwrite, remove, ordered walk and
//! range probe, under sharing between versions — and the bulk edits,
//! `from_sorted` and runs of in-place `alter_mut`s, against the same models.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use td_core::{Pred, Value};
use td_db::ord::OrdMap;
use td_db::relation::for_each_with_prefix;
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

/// A tuple as the models hold it.
fn row(t: &Tuple) -> Vec<Value> {
    t.values().to_vec()
}

fn rows(ts: &[Tuple]) -> Vec<Vec<Value>> {
    ts.iter().map(row).collect()
}

type Model = BTreeMap<Pred, BTreeSet<Vec<Value>>>;

/// Size of the mixed domain; its first four values are a small core that
/// random edits hit often (see [`arb_code`]).
const MIXED: u8 = 19;

/// A mixed domain, so orderings cross the int/symbol boundary and compare
/// symbols by text, out to the edges of a tuple code's encoding: integers
/// of every magnitude width at both signs and the extremes, the empty
/// symbol, symbols with zero bytes (escaped in the encoding), and two of
/// 8 bytes or more that share a 7-byte prefix — all a code has room for
/// after a symbol's tag.
fn mixed(code: u8) -> Value {
    match code {
        0 => Value::Int(-1),
        1 => Value::Int(3),
        2 => Value::sym("a"),
        3 => Value::sym("ab"),
        4 => Value::Int(0),
        5 => Value::Int(1),
        6 => Value::Int(255),
        7 => Value::Int(-255),
        8 => Value::Int(256),
        9 => Value::Int(-256),
        10 => Value::Int(65_536),
        11 => Value::Int(-65_536),
        12 => Value::Int(i64::MIN),
        13 => Value::Int(i64::MAX),
        14 => Value::sym(""),
        15 => Value::sym("a\0"),
        16 => Value::sym("a\0b"),
        17 => Value::sym("abcdefgh"),
        _ => Value::sym("abcdefgzz"),
    }
}

/// A code of [`mixed`]: mostly the core four, so that edits meet the
/// tuples earlier edits made, and otherwise anything in the domain.
fn arb_code() -> impl Strategy<Value = u8> {
    proptest::strategy::Union::weighted(vec![(3, 0u8..4), (1, 0u8..MIXED)])
}

fn arb_codes(arity: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(arb_code(), arity)
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

/// True if `row` matches a binding pattern, read off the values alone.
fn row_matches(row: &[Value], pattern: &[Option<Value>]) -> bool {
    row.iter()
        .zip(pattern)
        .all(|(v, p)| p.is_none_or(|p| p == *v))
}

type CountModel = BTreeMap<Vec<Value>, i64>;

fn assert_counts_match_model(r: &CountedRelation, model: &CountModel, probe: &Tuple) {
    assert_eq!(r.len(), model.len());
    let mut entries = Vec::new();
    r.for_each(|t, c| entries.push((row(t), c)));
    let expected: Vec<(Vec<Value>, i64)> = model.iter().map(|(t, c)| (t.clone(), *c)).collect();
    assert_eq!(entries, expected, "entries, in order, with their counts");
    let members: Vec<Vec<Value>> = model
        .iter()
        .filter(|(_, c)| **c > 0)
        .map(|(t, _)| t.clone())
        .collect();
    assert_eq!(rows(&r.to_vec()), members);
    for pattern in patterns_from(probe) {
        let expected: Vec<Vec<Value>> = members
            .iter()
            .filter(|t| row_matches(t, &pattern))
            .cloned()
            .collect();
        assert_eq!(rows(&r.select(&pattern)), expected, "pattern {pattern:?}");
    }
}

fn assert_matches_model(db: &Database, model: &Model) {
    for i in 0..3u8 {
        let p = pred(i);
        let expected = model.get(&p).cloned().unwrap_or_default();
        let actual: Vec<Vec<Value>> = db
            .relation(p)
            .map(|r| rows(&r.to_vec()))
            .unwrap_or_default();
        assert_eq!(
            actual,
            expected.iter().cloned().collect::<Vec<_>>(),
            "relation {p} diverged"
        );
        // Membership queries agree too.
        for t in &expected {
            assert!(db.contains(p, &Tuple::new(t.clone())));
        }
    }
}

/// A tuple's code is a word inline beside its values; a symbol is one
/// word, so a value is two and the code costs a tuple nothing in its value
/// block.
#[test]
fn a_value_is_two_words_and_a_tuple_three() {
    assert_eq!(std::mem::size_of::<Value>(), 16);
    assert_eq!(std::mem::size_of::<Tuple>(), 24);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Tuple`'s order, equality and code against the order of its values
    /// alone, on tuples of arity 0 to 4 over the whole mixed domain.
    #[test]
    fn tuples_order_as_their_values(
        pairs in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..MIXED, 0..5),
                proptest::collection::vec(0u8..MIXED, 0..5),
            ),
            64,
        ),
    ) {
        for (a, b) in &pairs {
            let (a, b) = (mixed_tuple(a), mixed_tuple(b));
            // `a` is a prefix of `a` extended by `b`, and their codes tie
            // once `a` encodes in 8 bytes or more.
            let extended: Tuple = a.values().iter().chain(b.values()).copied().collect();
            for (a, b) in [(&a, &b), (&a, &extended), (&b, &extended)] {
                prop_assert_eq!(a.cmp(b), a.values().cmp(b.values()), "{:?} vs {:?}", a, b);
                prop_assert_eq!(a == b, a.values() == b.values());
                if a < b {
                    prop_assert!(a.code() <= b.code(), "{:?} vs {:?}", a, b);
                }
            }
        }
    }

    /// A prefix probe of every length, on all three sorted tuple sets, is
    /// the model's members carrying the prefix, in order. Arity 4 over the
    /// whole domain reaches prefixes that encode in well over 8 bytes, and
    /// the probes are taken from members as well as at random.
    #[test]
    fn prefix_probes_of_every_length_are_filtered_scans(
        members in proptest::collection::vec(proptest::collection::vec(0u8..MIXED, 4), 0..80),
        probes in proptest::collection::vec(
            (proptest::collection::vec(0u8..MIXED, 4), any::<u8>()),
            8,
        ),
    ) {
        let model: BTreeSet<Vec<Value>> = members.iter().map(|c| row(&mixed_tuple(c))).collect();
        let sorted: Vec<Tuple> = model.iter().cloned().map(Tuple::new).collect();
        let rel = sorted.iter().fold(Relation::new(4), |r, t| r.insert(t).0);
        let counted = CountedRelation::from_sorted(4, sorted.iter().map(|t| (t.clone(), 1)));
        let map = OrdMap::from_sorted(sorted.iter().map(|t| (t.clone(), ())));
        for (codes, pick) in probes {
            let probe = match sorted.len() {
                0 => mixed_tuple(&codes),
                n if pick % 2 == 0 => sorted[pick as usize % n].clone(),
                _ => mixed_tuple(&codes),
            };
            for len in 0..=4 {
                let prefix = &probe.values()[..len];
                let expected: Vec<&Vec<Value>> =
                    model.iter().filter(|r| r.starts_with(prefix)).collect();
                let values = || prefix.iter().copied();
                let (mut by_rel, mut by_counted, mut by_map) = (Vec::new(), Vec::new(), Vec::new());
                rel.for_each_with_prefix(values, |t| by_rel.push(row(t)));
                counted.for_each_with_prefix(values, |t| by_counted.push(row(t)));
                for_each_with_prefix(&map, values, |t, ()| by_map.push(row(t)));
                for got in [by_rel, by_counted, by_map] {
                    let got: Vec<&Vec<Value>> = got.iter().collect();
                    prop_assert_eq!(got, expected.clone(), "prefix {:?}", prefix);
                }
            }
        }
    }

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
                    let model_changed = model.entry(pred(p)).or_default().insert(row(&t));
                    prop_assert_eq!(changed, model_changed);
                    db = next;
                }
                Op::Del(p, vals) => {
                    let t = tuple(&vals);
                    let (next, changed) = db.delete(pred(p), &t).unwrap();
                    let model_changed = model
                        .get_mut(&pred(p))
                        .is_some_and(|s| s.remove(&row(&t)));
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
        ops in proptest::collection::vec((any::<bool>(), arb_codes(3)), 0..150),
        probe in arb_codes(3),
    ) {
        let mut rel = Relation::new(3);
        let mut model: BTreeSet<Vec<Value>> = BTreeSet::new();
        for (is_insert, codes) in &ops {
            let t = mixed_tuple(codes);
            let (next, changed) = if *is_insert { rel.insert(&t) } else { rel.remove(&t) };
            let model_changed =
                if *is_insert { model.insert(row(&t)) } else { model.remove(&row(&t)) };
            prop_assert_eq!(changed, model_changed);
            rel = next;
        }
        let sorted: Vec<Vec<Value>> = model.iter().cloned().collect();
        prop_assert_eq!(rel.len(), model.len());
        prop_assert_eq!(rows(&rel.to_vec()), sorted.clone());
        let mut walked = Vec::new();
        rel.for_each(|t| walked.push(row(t)));
        prop_assert_eq!(walked, sorted.clone());
        for pattern in patterns_from(&mixed_tuple(&probe)) {
            let expected: Vec<Vec<Value>> =
                sorted.iter().filter(|t| row_matches(t, &pattern)).cloned().collect();
            prop_assert_eq!(rows(&rel.select(&pattern)), expected, "pattern {:?}", pattern);
        }
        // Content identity is history-independent: the same set built in
        // sorted order, with no removals, is equal and digests equally.
        let sorted: Vec<Tuple> = sorted.into_iter().map(Tuple::new).collect();
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
        ops in proptest::collection::vec((arb_codes(2), -3i64..4, 0u8..5), 0..150),
        probe in arb_codes(2),
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
            let old = model.get(&row(&t)).copied().unwrap_or(0);
            let new = old + delta;
            if new == 0 {
                model.remove(&row(&t));
            } else {
                model.insert(row(&t), new);
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

    /// The bulk edits against `BTreeMap<Vec<Value>, i64>`: `from_sorted` builds
    /// what the `alter`s build, and a run of `alter_mut`s over a clone — as
    /// a sum, as a difference, and with an `f` that deletes where both
    /// sides hold the key — gives what the same `f` folded over the other
    /// side's entries with `alter` gives, with the right `len`, and leaves
    /// both operands as they were.
    #[test]
    fn bulk_edits_behave_like_the_fold_of_point_edits(
        mine in proptest::collection::vec((arb_codes(3), -3i64..4), 0..120),
        theirs in proptest::collection::vec((arb_codes(3), -3i64..4), 0..120),
    ) {
        let model_of = |ops: &[(Vec<u8>, i64)]| -> CountModel {
            ops.iter().map(|(codes, c)| (row(&mixed_tuple(codes)), *c)).collect()
        };
        let tuples_of = |model: &CountModel| -> Vec<(Tuple, i64)> {
            model.iter().map(|(t, c)| (Tuple::new(t.clone()), *c)).collect()
        };
        let by_alters = |model: &CountModel| {
            tuples_of(model).iter().fold(OrdMap::new(), |m, (t, c)| m.alter(t, |_| Some(*c)))
        };
        let entries = |m: &OrdMap<Tuple, i64>| {
            let mut out = Vec::new();
            m.for_each(|t, c| out.push((row(t), *c)));
            out
        };
        let (mine, theirs) = (model_of(&mine), model_of(&theirs));
        let a = by_alters(&mine);
        let b = OrdMap::from_sorted(tuples_of(&theirs));
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
            let folded = tuples_of(&theirs)
                .iter()
                .fold(a.clone(), |m, (t, c)| m.alter(t, |old| f(old, c)));
            prop_assert!(merged == folded);
            // Snapshot semantics: neither operand saw the edit.
            prop_assert_eq!(entries(&a), mine.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(entries(&b), theirs.clone().into_iter().collect::<Vec<_>>());
        }

        // The sum through `CountedRelation::update`, on a clone.
        let nonzero = |m: &CountModel| m.clone().into_iter().filter(|(_, c)| *c != 0);
        let rel = CountedRelation::from_sorted(3, nonzero(&mine).map(|(t, c)| (Tuple::new(t), c)));
        let mut merged = rel.clone();
        for (t, c) in nonzero(&theirs) {
            merged.update(&Tuple::new(t), |was| was + c);
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
