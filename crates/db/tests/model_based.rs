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
//! `from_sorted` and sorted runs of edits merged in place (`merge`), against
//! the same models, with the map's invariant check after every merge.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use td_core::{Pred, Value};
use td_db::ord::{OrdMap, B};
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

/// A symbol is one word, so a value is two. A tuple is its code and
/// four words of values: two values inline, or the shared slice of more,
/// the tag that tells them apart folded into the first value's tag — so an
/// empty slot of a node of tuples costs no more.
#[test]
fn a_value_is_two_words_and_a_tuple_five() {
    assert_eq!(std::mem::size_of::<Value>(), 16);
    assert_eq!(std::mem::size_of::<Tuple>(), 40);
    assert_eq!(std::mem::size_of::<Option<Tuple>>(), 40);
}

/// The hash a tuple's values have as a slice: what a tuple hashes as.
fn hash_of(values: &(impl std::hash::Hash + ?Sized)) -> u64 {
    use std::hash::{DefaultHasher, Hasher};
    let mut state = DefaultHasher::new();
    values.hash(&mut state);
    state.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tuples of arity 0 to 4, across the inline boundary at two, built
    /// every way the crate builds one — `Tuple::new`, `FromIterator`,
    /// `permuted`, `From<Vec>` — hold their values and agree with them on
    /// code, order, equality and hash, whichever way each was built.
    #[test]
    fn tuples_agree_with_their_values_however_built(
        rows in proptest::collection::vec(proptest::collection::vec(0u8..MIXED, 0..5), 1..12),
    ) {
        let built: Vec<(Vec<Value>, [Tuple; 4])> = rows
            .iter()
            .map(|codes| {
                let vals: Vec<Value> = codes.iter().map(|c| mixed(*c)).collect();
                let reversed: Tuple = vals.iter().rev().copied().collect();
                let order: Vec<usize> = (0..vals.len()).rev().collect();
                let ways = [
                    Tuple::new(vals.clone()),
                    vals.iter().copied().collect(),
                    reversed.permuted(&order),
                    Tuple::from(vals.clone()),
                ];
                (vals, ways)
            })
            .collect();
        for (vals, ways) in &built {
            for t in ways {
                prop_assert_eq!(t.values(), &vals[..]);
                prop_assert_eq!(t.arity(), vals.len());
                prop_assert_eq!(t.code(), Tuple::code_of(vals));
                prop_assert_eq!(hash_of(t), hash_of(&vals[..]));
            }
        }
        for (a_vals, a) in &built {
            for (b_vals, b) in &built {
                for (x, y) in a.iter().zip(b.iter().rev()) {
                    prop_assert_eq!(x.cmp(y), a_vals.cmp(b_vals));
                    prop_assert_eq!(x == y, a_vals == b_vals);
                }
            }
        }
    }

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
        let map: OrdMap<Tuple, ()> = OrdMap::from_sorted(sorted.iter().map(|t| (t.clone(), ())));
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
    /// in-place merges of runs of one edit by ±k: counts, membership,
    /// `select`, `len`, and snapshots that never observe later edits.
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
            let mut was = None;
            rel.merge(&mut [(t.clone(), delta)], |(_, n), entry| {
                was = Some(entry.map_or(0, |(_, c)| c));
                was.unwrap() + *n
            });
            prop_assert_eq!(was, Some(old));
            prop_assert_eq!(rel.count(&t), new);
            prop_assert_eq!(rel.contains(&t), new > 0);
        }
        assert_counts_match_model(&rel, &model, &probe);
        for (snap, snap_model) in &snapshots {
            assert_counts_match_model(snap, snap_model, &probe);
        }
    }

    /// The bulk edits against `BTreeMap<Vec<Value>, i64>`: `from_sorted` builds
    /// what single `set`s build, and one merge of the other side's entries
    /// into a clone — as a sum, as a difference, and with an `f` that
    /// deletes where both sides hold the key — gives what the same `f`
    /// folded over the other side's entries with `set` gives, with the
    /// right `len`, and leaves both operands as they were.
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
        let by_sets = |model: &CountModel| {
            tuples_of(model).iter().fold(OrdMap::new(), |m, (t, c)| with(&m, t, Some(*c)))
        };
        let entries = |m: &OrdMap<Tuple, i64>| {
            let mut out = Vec::new();
            m.for_each(|t, c| out.push((row(t), *c)));
            out
        };
        let (mine, theirs) = (model_of(&mine), model_of(&theirs));
        let a = by_sets(&mine);
        let b = OrdMap::from_sorted(tuples_of(&theirs));
        prop_assert!(b == by_sets(&theirs));
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
            let mut run = tuples_of(&theirs);
            merged.merge(&mut run, |(_, c), old| f(old.map(|(_, v)| v), c));
            merged.check_invariants();
            prop_assert_eq!(merged.len(), expected.len());
            prop_assert_eq!(entries(&merged), expected.into_iter().collect::<Vec<_>>());
            let folded = tuples_of(&theirs)
                .iter()
                .fold(a.clone(), |m, (t, c)| with(&m, t, f(m.get(t), c)));
            prop_assert!(merged == folded);
            // Snapshot semantics: neither operand saw the edit.
            prop_assert_eq!(entries(&a), mine.clone().into_iter().collect::<Vec<_>>());
            prop_assert_eq!(entries(&b), theirs.clone().into_iter().collect::<Vec<_>>());
        }

        // The sum through `CountedRelation::merge`, on a clone.
        let nonzero = |m: &CountModel| m.clone().into_iter().filter(|(_, c)| *c != 0);
        let rel = CountedRelation::from_sorted(3, nonzero(&mine).map(|(t, c)| (Tuple::new(t), c)));
        let mut merged = rel.clone();
        let mut run: Vec<(Tuple, i64)> = nonzero(&theirs).map(|(t, c)| (Tuple::new(t), c)).collect();
        merged.merge(&mut run, |(_, c), was| was.map_or(0, |(_, n)| n) + *c);
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

/// The sizes at which a map changes shape: one short of a full node, a
/// full node (the largest run), one past it (the first tree), and two full
/// nodes and one.
const EDGES: [usize; 4] = [B - 1, B, B + 1, 2 * B + 1];

/// The `k`-th key of the boundary runs: groups of three consecutive keys
/// share a first column, which is a small integer (a prefix encoded in
/// under 8 bytes) for even groups and a symbol longer than a code holds
/// (a prefix of 8 bytes or more) for odd ones, so prefix ranges start at,
/// end at and span node boundaries of every kind.
fn edge_row(k: usize) -> Vec<Value> {
    let g = k / 3;
    let first = match g % 2 {
        0 => Value::Int(g as i64),
        _ => Value::sym(&format!("a long prefix {g}")),
    };
    vec![first, Value::Int(k as i64)]
}

/// `m` holds exactly `model`: its walk, its length, and a lookup of every
/// key of the model and of one absent key between each two.
fn assert_holds(m: &OrdMap<Tuple, i64>, model: &CountModel, what: &str) {
    let mut walk = Vec::new();
    m.for_each(|t, c| walk.push((row(t), *c)));
    let want: Vec<(Vec<Value>, i64)> = model.clone().into_iter().collect();
    assert_eq!(walk, want, "{what}: walk");
    assert_eq!(m.len(), model.len(), "{what}: len");
    for (t, c) in model {
        assert_eq!(m.get(&Tuple::new(t.clone())), Some(c), "{what}: get {t:?}");
        let mut absent = t.clone();
        absent.push(Value::Int(0));
        assert_eq!(m.get(&Tuple::new(absent)), None, "{what}: get past {t:?}");
    }
}

/// `m` with the sorted `run` merged in: each key set to its count, or
/// removed at `None`; the invariants checked.
fn merge_run<const N: usize>(m: &mut OrdMap<Tuple, i64, N>, run: &[(Tuple, Option<i64>)]) {
    m.merge(&mut run.to_vec(), |(_, c), _| *c);
    m.check_invariants();
}

/// A clone of `m` with `t`'s entry set to `c`, `None` removing it: a
/// persistent edit, which leaves `m` as it was.
fn with<const N: usize>(
    m: &OrdMap<Tuple, i64, N>,
    t: &Tuple,
    c: Option<i64>,
) -> OrdMap<Tuple, i64, N> {
    let mut next = m.clone();
    next.set(t, c);
    next
}

/// Every operation of the map at [`EDGES`] entries, against
/// `BTreeMap<Vec<Value>, i64>`: insert, overwrite and remove through
/// `set` on a clone, and through merged runs — of one edit at a time, and of them
/// all — on a version nobody else holds and on one an older clone shares
/// (which must keep what it held); `from_sorted` and full walks; and prefix
/// probes of one and two columns, over short and long prefixes, against a
/// filter of the model.
#[test]
fn every_operation_at_the_node_size_edges_behaves_like_the_model() {
    for n in EDGES.into_iter().chain([3 * B, 5 * B + 2]) {
        let model: CountModel = (0..n).map(|k| (edge_row(k), k as i64)).collect();
        let tuples: Vec<(Tuple, i64)> = model
            .iter()
            .map(|(t, c)| (Tuple::new(t.clone()), *c))
            .collect();
        let what = |how: &str| format!("{n} entries, {how}");

        // Built five ways.
        let sorted = OrdMap::from_sorted(tuples.clone());
        assert_holds(&sorted, &model, &what("from_sorted"));
        let up = tuples
            .iter()
            .fold(OrdMap::new(), |m, (t, c)| with(&m, t, Some(*c)));
        assert_holds(&up, &model, &what("set, ascending"));
        let down = tuples
            .iter()
            .rev()
            .fold(OrdMap::new(), |m, (t, c)| with(&m, t, Some(*c)));
        assert_holds(&down, &model, &what("set, descending"));
        let mut alone = OrdMap::new();
        for (t, c) in &tuples {
            merge_run(&mut alone, &[(t.clone(), Some(*c))]);
        }
        assert_holds(&alone, &model, &what("merged one by one, unshared"));
        let (mut shared, mut kept) = (OrdMap::new(), Vec::new());
        for (i, (t, c)) in tuples.iter().enumerate() {
            kept.push(shared.clone());
            merge_run(&mut shared, &[(t.clone(), Some(*c))]);
            assert_eq!(kept[i].len(), i, "{}", what("an older clone"));
        }
        assert_holds(&shared, &model, &what("merged one by one, shared"));
        let mut whole = OrdMap::new();
        let run: Vec<(Tuple, Option<i64>)> =
            tuples.iter().map(|(t, c)| (t.clone(), Some(*c))).collect();
        merge_run(&mut whole, &run);
        assert_holds(&whole, &model, &what("merged in one run"));

        // Overwrite every entry, then remove every other one, each way.
        let overwritten: CountModel = model.iter().map(|(t, c)| (t.clone(), c + 100)).collect();
        let thinned: CountModel = overwritten
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, (t, c))| (t.clone(), *c))
            .collect();
        for (how, start) in [("on from_sorted", &sorted), ("on merges", &alone)] {
            let before = start.clone();
            let persistent = tuples.iter().fold(start.clone(), |m, (t, _)| {
                let c = m.get(t).map(|c| c + 100);
                with(&m, t, c)
            });
            assert_holds(
                &persistent,
                &overwritten,
                &what(&format!("overwrite {how}")),
            );
            let mut in_place = start.clone();
            let mut run = tuples.clone();
            in_place.merge(&mut run, |_, c| c.map(|(_, c)| c + 100));
            in_place.check_invariants();
            assert_holds(
                &in_place,
                &overwritten,
                &what(&format!("overwrite in place {how}")),
            );
            let mut unshared = persistent.clone();
            drop(persistent);
            let run: Vec<(Tuple, Option<i64>)> = (tuples.iter().step_by(2))
                .map(|(t, _)| (t.clone(), None))
                .collect();
            merge_run(&mut unshared, &run);
            assert_holds(
                &unshared,
                &thinned,
                &what(&format!("remove in place {how}")),
            );
            let removed = tuples
                .iter()
                .step_by(2)
                .fold(in_place.clone(), |m, (t, _)| with(&m, t, None));
            assert_holds(&removed, &thinned, &what(&format!("remove {how}")));
            assert_holds(&in_place, &overwritten, &what(&format!("kept {how}")));
            assert_holds(&before, &model, &what(&format!("the version edited {how}")));
        }
        for (i, m) in kept.iter().enumerate() {
            let prefix: CountModel = model.iter().take(i).map(|(t, c)| (t.clone(), *c)).collect();
            assert_holds(m, &prefix, &what(&format!("the clone kept at {i}")));
        }

        // Prefix probes: every group's first column, one past the last,
        // and every key as a full two-column prefix.
        for map in [&sorted, &up, &down, &alone, &shared, &whole] {
            let probe = |prefix: &[Value]| {
                let mut seen = Vec::new();
                for_each_with_prefix(
                    map,
                    || prefix.iter().copied(),
                    |t, c| seen.push((row(t), *c)),
                );
                let want: Vec<(Vec<Value>, i64)> = (model.iter())
                    .filter(|(t, _)| t.starts_with(prefix))
                    .map(|(t, c)| (t.clone(), *c))
                    .collect();
                assert_eq!(seen, want, "{}", what(&format!("prefix {prefix:?}")));
            };
            for k in (0..n + 3).step_by(3) {
                probe(&edge_row(k)[..1]);
            }
            for t in model.keys() {
                probe(t);
            }
            probe(&[]);
        }
    }
}

/// What a merged run does at one key: set its count (an overwrite with the
/// count it has is a no-op), or remove it (a no-op where it is absent).
fn arb_at() -> impl Strategy<Value = Option<i64>> {
    (0u8..4, 1i64..4).prop_map(|(k, c)| (k > 0).then_some(c))
}

/// A step: the edits of one run, by key (the first for a key counts), and
/// what else happens — 0: an older clone is kept first; 3: the run removes
/// every key the map holds instead, draining it.
type RunStep = (Vec<(Vec<u8>, Option<i64>)>, u8);

fn arb_run_steps() -> impl Strategy<Value = Vec<RunStep>> {
    let codes = proptest::collection::vec(0u8..MIXED, 3);
    let edits = proptest::collection::vec((codes, arb_at()), 0..70);
    proptest::collection::vec((edits, 0u8..8), 1..25)
}

/// Merged runs at `N` slots a node against the model, step by step: each
/// edit's `f` sees exactly the model's entry, once and in order, and after
/// every merge the map keeps its invariants and holds the model; every
/// clone kept along the way still holds what it held.
fn merged_runs_hold_the_model<const N: usize>(steps: &[RunStep]) {
    let mut m: OrdMap<Tuple, i64, N> = OrdMap::new();
    let mut model: CountModel = BTreeMap::new();
    let mut kept: Vec<(OrdMap<Tuple, i64, N>, CountModel)> = Vec::new();
    for (i, (edits, mode)) in steps.iter().enumerate() {
        let mut run: BTreeMap<Vec<Value>, Option<i64>> = BTreeMap::new();
        for (codes, at) in edits {
            run.entry(row(&mixed_tuple(codes))).or_insert(*at);
        }
        if *mode == 3 {
            run = model.keys().map(|k| (k.clone(), None)).collect();
        }
        if *mode == 0 {
            kept.push((m.clone(), model.clone()));
        }
        let mut edits: Vec<(Tuple, Option<i64>)> = run
            .iter()
            .map(|(r, at)| (Tuple::new(r.clone()), *at))
            .collect();
        let mut seen = Vec::new();
        m.merge(&mut edits, |(t, at), old| {
            seen.push((row(t), old.map(|(k, c)| (row(k), *c))));
            *at
        });
        let want: Vec<_> = (run.keys())
            .map(|r| (r.clone(), model.get(r).map(|c| (r.clone(), *c))))
            .collect();
        assert_eq!(seen, want, "step {i}: what each edit saw");
        for (r, at) in run {
            match at {
                Some(c) => model.insert(r, c),
                None => model.remove(&r),
            };
        }
        m.check_invariants();
        assert_holds_any(&m, &model, &format!("{N} slots, after step {i}"));
        if *mode == 3 {
            assert!(m.is_empty(), "drained");
        }
    }
    for (j, (old, held)) in kept.iter().enumerate() {
        old.check_invariants();
        assert_holds_any(old, held, &format!("{N} slots, the clone kept {j}th"));
    }
}

/// [`assert_holds`] at any node size.
fn assert_holds_any<const N: usize>(m: &OrdMap<Tuple, i64, N>, model: &CountModel, what: &str) {
    let mut walk = Vec::new();
    m.for_each(|t, c| walk.push((row(t), *c)));
    let want: Vec<(Vec<Value>, i64)> = model.clone().into_iter().collect();
    assert_eq!(walk, want, "{what}: walk");
    assert_eq!(m.len(), model.len(), "{what}: len");
    for (t, c) in model {
        assert_eq!(m.get(&Tuple::new(t.clone())), Some(c), "{what}: get {t:?}");
    }
}

proptest! {
    /// Random strictly increasing runs mixing inserts, overwrites, removals
    /// and no-ops, merged at 4 and at 16 slots a node into maps whose older
    /// clones are sometimes held: runs of up to 70 keys into a 4-slot leaf
    /// split it many times over in one merge, and every few runs one drains
    /// the map to empty.
    #[test]
    fn merged_runs_behave_like_the_model_at_four_and_sixteen_slots(steps in arb_run_steps()) {
        merged_runs_hold_the_model::<4>(&steps);
        merged_runs_hold_the_model::<B>(&steps);
    }
}
