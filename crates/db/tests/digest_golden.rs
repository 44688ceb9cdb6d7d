//! Golden digests, recorded at commit c2c97ae (relations = HAMT + treap)
//! before the storage layer was rebuilt on one ordered map.
//!
//! `Database::digest` and `relation_digest` are persisted — in WAL records,
//! snapshot headers, memo-table keys — so they must be a pure function of
//! content, stable across versions of this crate. The constants below are
//! what the old code produced for three fixed databases; any change to
//! tuple hashing, the per-relation XOR fold, or `contribution` breaks them.

use td_core::Pred;
use td_db::{tuple, Database, Tuple};

fn ints() -> Database {
    let mut db = Database::new();
    for a in 0..40i64 {
        let t = tuple!(a, (a * 7) % 11 - 5);
        db = db.insert(Pred::new("edge", 2), &t).unwrap().0;
    }
    for a in [i64::MIN, -1, 0, 1, i64::MAX] {
        db = db.insert(Pred::new("n", 1), &tuple!(a)).unwrap().0;
    }
    db
}

fn symbols() -> Database {
    let mut db = Database::new();
    for (w, t) in [("w1", "t1"), ("w1", "t2"), ("w2", "t1"), ("", "empty")] {
        db = db.insert(Pred::new("task", 2), &tuple!(w, t)).unwrap().0;
    }
    for s in ["alpha", "beta", "gamma", "a longer symbol with spaces"] {
        db = db.insert(Pred::new("item", 1), &tuple!(s)).unwrap().0;
    }
    db
}

fn mixed() -> Database {
    let mut db = Database::new().declare(Pred::new("never_filled", 3));
    for (acct, bal) in [("acct1", 100i64), ("acct2", 50), ("acct3", -7)] {
        db = db
            .insert(Pred::new("balance", 2), &tuple!(acct, bal))
            .unwrap()
            .0;
    }
    db = db
        .insert(Pred::new("audit", 3), &tuple!("acct1", "acct2", 30))
        .unwrap()
        .0;
    // A detour that nets to nothing: digests are history-independent.
    db = db
        .insert(Pred::new("audit", 3), &tuple!("x", "y", 0))
        .unwrap()
        .0;
    db = db
        .delete(Pred::new("audit", 3), &tuple!("x", "y", 0))
        .unwrap()
        .0;
    db.insert(Pred::new("open", 0), &Tuple::unit()).unwrap().0
}

fn check(db: &Database, whole: u128, rels: &[(Pred, u128)]) {
    assert_eq!(db.digest(), whole, "whole-db digest 0x{:032x}", db.digest());
    assert_eq!(db.digest_from_scratch(), whole);
    for (p, d) in rels {
        assert_eq!(
            db.relation_digest(*p),
            *d,
            "relation {p} digest 0x{:032x}",
            db.relation_digest(*p)
        );
    }
}

#[test]
fn int_database_digests_are_stable() {
    check(
        &ints(),
        0x3a29b0360baa17f96798ecb3f2169250,
        &[
            (Pred::new("edge", 2), 0xf90fa56885b77fffab829f32b7a719b6),
            (Pred::new("n", 1), 0xc326155e8e1d6806cc1a738145b18be6),
        ],
    );
}

#[test]
fn symbol_database_digests_are_stable() {
    check(
        &symbols(),
        0xd00a231d91a53611e5fed97cf37183e6,
        &[
            (Pred::new("task", 2), 0xbecef313abf9bb93c1ffdedb7215dce5),
            (Pred::new("item", 1), 0x6ec4d00e3a5c8d82240107a781645f03),
        ],
    );
}

#[test]
fn mixed_database_with_flag_digests_are_stable() {
    check(
        &mixed(),
        0x3a10c01a281b7370f40c81cc765246bb,
        &[
            (Pred::new("balance", 2), 0x74a3d732b5b69e6df09d5fc5d2a6e716),
            (Pred::new("audit", 3), 0x4ef50c16555416dcda9e18c219cd71b7),
            (Pred::new("open", 0), 0x00461b3ec8f9fbc1de0fc6cbbd39d01a),
            (Pred::new("never_filled", 3), 0),
        ],
    );
}
