//! OCC serializability differential: N concurrent conflicting clients
//! against one [`ConcurrentStore`] must produce a final state reachable by
//! *some* sequential order of the committed transactions — whether each
//! transaction validates against the relations it really read or against
//! the whole-database read set ([`ReadSet::whole_db`], the oracle: any
//! commit since the snapshot conflicts).
//!
//! The differential is direct: every commit's WAL seq is its claimed
//! serialization position, so we replay the committed operations in seq
//! order through a sequential model (a plain map of balances, no store, no
//! threads) and require (1) every committed transfer was valid *at its
//! position in that order* — the funds it withdrew were really there —
//! and (2) the model's final state equals the store's, digest included,
//! after a cold recovery. Under OCC churn (every client hits the same few
//! accounts) any lost update, write skew, or torn validation shows up as
//! either an overdraft in the replay or a diverging final state.
//!
//! Two further suites pin what the read-set refactor changed:
//! clients over **disjoint** relations commit with zero conflict retries
//! (the point of per-relation validation), and a commuting workload runs
//! to the **same final digest** under either read set.
//!
//! The last two run the engine itself with materialized views, as `td
//! --materialize serve` does: transfers guarded by a view over a relation
//! other transactions toggle serialize to their WAL order too, and a view
//! read on a snapshot that a later commit made stale conflicts on the base
//! relation under the view.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use td_core::{Goal, Pred, Value};
use td_db::{Database, Delta, DeltaOp, ReadSet, Tuple};
use td_engine::{Engine, EngineConfig, Outcome};
use td_store::{ConcurrentStore, Store, TxDecision, TxOptions};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("td-store-occ").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const BALANCE: &str = "balance";
const OPENING: i64 = 100;

fn pred() -> Pred {
    Pred::new(BALANCE, 2)
}

fn acct(i: usize) -> Value {
    Value::sym(&format!("acct{i}"))
}

fn row(i: usize, bal: i64) -> Tuple {
    Tuple::new(vec![acct(i), Value::Int(bal)])
}

fn genesis(accounts: usize) -> Database {
    let mut db = Database::new().declare(pred());
    for i in 0..accounts {
        db = db.insert(pred(), &row(i, OPENING)).unwrap().0;
    }
    db
}

/// Read one balance out of a snapshot.
fn balance_of(db: &Database, i: usize) -> i64 {
    let rel = db.relation(pred()).expect("declared");
    let name = acct(i);
    rel.to_vec()
        .iter()
        .find_map(|t| {
            let v = t.values();
            if v[0] == name {
                match v[1] {
                    Value::Int(b) => Some(b),
                    _ => None,
                }
            } else {
                None
            }
        })
        .expect("every account has exactly one balance row")
}

/// The transfer delta a banking client produces against its snapshot.
fn transfer_delta(db: &Database, from: usize, to: usize, amt: i64) -> Option<Delta> {
    let bf = balance_of(db, from);
    if bf < amt {
        return None;
    }
    let bt = balance_of(db, to);
    let mut d = Delta::new();
    d.push(DeltaOp::Del(pred(), row(from, bf)));
    d.push(DeltaOp::Ins(pred(), row(from, bf - amt)));
    d.push(DeltaOp::Del(pred(), row(to, bt)));
    d.push(DeltaOp::Ins(pred(), row(to, bt + amt)));
    Some(d)
}

/// The read set of [`transfer_delta`]: it consults only the balance
/// relation (both the overdraft test and the two current-balance reads).
fn transfer_reads() -> ReadSet {
    let mut rs = ReadSet::new();
    rs.record(pred());
    rs
}

/// One client's scripted operation.
#[derive(Clone, Copy, Debug)]
struct Op {
    from: usize,
    to: usize,
    amt: i64,
}

fn arb_ops(accounts: usize) -> impl Strategy<Value = Vec<Vec<Op>>> {
    // 2–4 clients × 1–6 ops over few accounts: heavy deliberate conflict.
    proptest::collection::vec(
        proptest::collection::vec(
            (0..accounts, 0..accounts, 1i64..60).prop_map(|(from, to, amt)| Op { from, to, amt }),
            1..7,
        ),
        2..5,
    )
}

/// What a transfer declares it read, by name.
type ReadRule = (&'static str, fn() -> ReadSet);

/// The relation a transfer did read, and the whole-database read set the
/// differential holds it against.
const READ_SETS: [ReadRule; 2] = [
    ("read-set", transfer_reads),
    ("whole-db", ReadSet::whole_db),
];

/// Run the scripted clients concurrently, every transfer validated against
/// `reads()`, then check the WAL-order serializability differential
/// end-to-end (dense seqs, no overdraft in replay, conservation,
/// cold-recovery digest equality). Panics on any violation; returns the
/// recovered final digest.
fn run_and_check_banking(
    ops: &[Vec<Op>],
    dir: &std::path::Path,
    (validation, reads): ReadRule,
) -> u128 {
    let accounts = 3;
    let cs = ConcurrentStore::open_or_init(dir, &genesis(accounts))
        .unwrap()
        .with_options(TxOptions {
            max_attempts: 200,
            backoff: std::time::Duration::from_micros(10),
        });
    // Run every client concurrently; collect (seq, op) for commits.
    let workers: Vec<_> = ops
        .iter()
        .cloned()
        .map(|script| {
            let cs = cs.clone();
            std::thread::spawn(move || {
                let mut committed = Vec::new();
                for op in script {
                    let r = cs
                        .transaction(|db| {
                            if op.from == op.to {
                                return Ok::<_, String>(TxDecision::Abort(()));
                            }
                            match transfer_delta(db, op.from, op.to, op.amt) {
                                Some(d) => Ok(TxDecision::commit(d, reads(), ())),
                                None => Ok(TxDecision::Abort(())),
                            }
                        })
                        .expect("transaction never errors under a 200-retry budget");
                    if let Some(seq) = r.seq {
                        committed.push((seq, op));
                    }
                }
                committed
            })
        })
        .collect();
    let mut committed: Vec<(u64, Op)> = Vec::new();
    for w in workers {
        committed.extend(w.join().unwrap());
    }
    committed.sort_by_key(|(seq, _)| *seq);
    // Seqs are the claimed serial order: dense and unique from 0 (the
    // opening balances live in the snapshot, not the WAL).
    for (i, (seq, _)) in committed.iter().enumerate() {
        assert_eq!(*seq, i as u64, "commit seqs must be dense");
    }
    // Differential replay: the committed ops, in WAL order, through a
    // sequential model. Every op must be valid at its position.
    let mut model: BTreeMap<usize, i64> = (0..accounts).map(|i| (i, OPENING)).collect();
    for (seq, op) in &committed {
        let bf = model[&op.from];
        assert!(
            bf >= op.amt,
            "seq {seq}: committed transfer of {} from acct{} holding {bf} — \
             not serializable in WAL order [{validation}]",
            op.amt,
            op.from
        );
        *model.get_mut(&op.from).unwrap() -= op.amt;
        *model.get_mut(&op.to).unwrap() += op.amt;
    }
    // Conservation, then exact state equality against a cold recovery.
    assert_eq!(model.values().sum::<i64>(), accounts as i64 * OPENING);
    let head_digest = cs.snapshot().digest();
    let store = cs.close().unwrap();
    drop(store);
    let recovered = Store::open(dir).unwrap();
    assert_eq!(recovered.db().digest(), head_digest);
    let mut expected = Database::new().declare(pred());
    for (i, bal) in &model {
        expected = expected.insert(pred(), &row(*i, *bal)).unwrap().0;
    }
    assert_eq!(
        recovered.db().digest(),
        expected.digest(),
        "recovered state diverges from the sequential replay [{validation}]"
    );
    drop(recovered);
    head_digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full differential, under both read sets: the contended banking
    /// history serializes to its WAL order whether validation is
    /// per-relation (every client reads `balance`, so this exercises real
    /// read-set conflicts) or whole-database.
    #[test]
    fn concurrent_clients_serialize_to_their_wal_order(
        ops in arb_ops(3),
        case in 0u64..1_000_000,
    ) {
        for rule in READ_SETS {
            let dir = temp_dir(&format!(
                "case_{case}_{}_{}",
                rule.0,
                std::process::id()
            ));
            run_and_check_banking(&ops, &dir, rule);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Clients over **disjoint** relations: with per-relation validation their
/// commits cannot invalidate each other, so every transaction lands on its
/// first attempt — zero conflicts, zero retries. (Under the whole-db
/// read set this same workload conflicts constantly; `commit_gates.rs`
/// gates that gap, this test pins the zero.)
#[test]
fn disjoint_relation_clients_commit_without_retries() {
    let clients = 4;
    let per = 25;
    let dir = temp_dir(&format!("disjoint_{}", std::process::id()));
    let mut db = Database::new();
    for c in 0..clients {
        db = db.declare(Pred::new(&format!("rel{c}"), 1));
    }
    let cs = ConcurrentStore::open_or_init(&dir, &db).unwrap();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let cs = cs.clone();
            std::thread::spawn(move || {
                let p = Pred::new(&format!("rel{c}"), 1);
                for i in 0..per {
                    let r = cs
                        .transaction(|snap| {
                            // Read-modify-write confined to this client's
                            // own relation.
                            let n = snap.relation(p).map_or(0, |r| r.len()) as i64;
                            let mut d = Delta::new();
                            d.push(DeltaOp::Ins(p, Tuple::new(vec![Value::Int(n)])));
                            let mut reads = ReadSet::new();
                            reads.record(p);
                            Ok::<_, String>(TxDecision::commit(d, reads, ()))
                        })
                        .expect("no retry budget needed");
                    assert_eq!(r.attempts, 1, "client {c} op {i} was forced to retry");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = cs.stats();
    assert_eq!(stats.conflicts, 0, "disjoint relations cannot conflict");
    assert_eq!(stats.commits, (clients * per) as u64);
    assert!(cs.conflict_attribution().is_empty());
    let store = cs.close().unwrap();
    assert_eq!(store.db().total_tuples(), clients * per);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Differential between the two read sets on a commuting workload:
/// transfers small enough that no interleaving can overdraw always commit,
/// and their effects commute (each is a ±amt on two accounts' running
/// balances), so the final database is schedule-independent — read-set and
/// whole-db validation must reach the identical digest.
#[test]
fn read_set_and_whole_db_validation_agree_on_commuting_history() {
    // 3 clients × 10 ops, amt 1, opening 100: max drain per account is 30.
    let ops: Vec<Vec<Op>> = (0..3)
        .map(|c| {
            (0..10)
                .map(|i| Op {
                    from: (c + i) % 3,
                    to: (c + i + 1) % 3,
                    amt: 1,
                })
                .collect()
        })
        .collect();
    let mut digests = Vec::new();
    for rule in READ_SETS {
        let dir = temp_dir(&format!("differential_{}_{}", rule.0, std::process::id()));
        digests.push(run_and_check_banking(&ops, &dir, rule));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(
        digests[0], digests[1],
        "the two read sets disagree on a schedule-independent history"
    );
}

// --- transactions that read materialized views ------------------------

/// Banking where a transfer is guarded by a view: both accounts must be
/// `active`, which reads `balance` and negates `frozen`, a relation other
/// transactions toggle.
const GUARDED: &str = "base balance/2. base frozen/1.\n\
    active(A) <- balance(A, B) * not frozen(A).\n\
    transfer(Amt, From, To) <- active(From) * active(To)\n\
        * balance(From, BF) * BF >= Amt * del.balance(From, BF)\n\
        * NF is BF - Amt * ins.balance(From, NF)\n\
        * balance(To, BT) * del.balance(To, BT) * NT is BT + Amt * ins.balance(To, NT).\n\
    freeze(A) <- ins.frozen(A).\n\
    thaw(A) <- del.frozen(A).\n";

/// A `td --materialize serve` engine over `src`, and a store at `dir` whose
/// head carries the engine's views from the start, as the server's does.
fn materialized(src: &str, dir: &std::path::Path, genesis: &Database) -> (Engine, ConcurrentStore) {
    let program = td_parser::parse_program(src).unwrap().program;
    let config = EngineConfig {
        materialize: true,
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(program, config);
    let cs = ConcurrentStore::open_or_init(dir, genesis)
        .unwrap()
        .with_options(TxOptions {
            max_attempts: 200,
            backoff: std::time::Duration::from_micros(10),
        });
    let mat = engine.materializer().expect("the program has a view");
    cs.with_head(|head| mat.derive(head));
    (engine, cs)
}

/// What the server's transaction closure decides for `goal` on `db`:
/// commit a success's delta against its read set, abort a failure.
fn solve(engine: &Engine, goal: &Goal, db: &Database) -> Result<TxDecision<()>, String> {
    match engine.solve(goal, db).map_err(|e| e.to_string())? {
        Outcome::Success(sol) if sol.delta.is_empty() => Ok(TxDecision::ReadOnly(())),
        Outcome::Success(sol) => Ok(TxDecision::commit(sol.delta, sol.reads, ())),
        Outcome::Failure { .. } => Ok(TxDecision::Abort(())),
    }
}

/// One client's scripted operation on the guarded bank.
#[derive(Clone, Copy, Debug)]
enum Guarded {
    Transfer(Op),
    /// Freeze (`true`) or thaw an account.
    Toggle(usize, bool),
}

impl Guarded {
    fn goal(self) -> String {
        match self {
            Guarded::Transfer(Op { from, to, amt }) => {
                format!("transfer({amt}, acct{from}, acct{to})")
            }
            Guarded::Toggle(i, true) => format!("freeze(acct{i})"),
            Guarded::Toggle(i, false) => format!("thaw(acct{i})"),
        }
    }
}

fn arb_guarded(accounts: usize) -> impl Strategy<Value = Vec<Vec<Guarded>>> {
    // One op in four freezes or thaws `a`; the rest move `amt` from `a`.
    let op =
        (0..4u8, 0..accounts, 0..accounts, 1i64..60).prop_map(|(kind, a, b, amt)| match kind {
            0 => Guarded::Toggle(a, amt % 2 == 0),
            _ => Guarded::Transfer(Op {
                from: a,
                to: b,
                amt,
            }),
        });
    proptest::collection::vec(proptest::collection::vec(op, 1..7), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The WAL-order differential for transfers guarded by a materialized
    /// view while other clients freeze and thaw accounts: every committed
    /// transfer had both accounts active and the funds at its position in
    /// the WAL order, the recovered state is the sequential replay's, and
    /// the views were built once, on the head, and maintained from there.
    #[test]
    fn view_guarded_transfers_serialize_to_their_wal_order(
        scripts in arb_guarded(3),
        case in 0u64..1_000_000,
    ) {
        let accounts = 3;
        let dir = temp_dir(&format!("guarded_{case}_{}", std::process::id()));
        let (engine, cs) = materialized(GUARDED, &dir, &genesis(accounts));
        let workers: Vec<_> = scripts
            .iter()
            .cloned()
            .map(|script| {
                let (engine, cs) = (engine.clone(), cs.clone());
                std::thread::spawn(move || {
                    let mut committed = Vec::new();
                    for op in script {
                        let goal = td_parser::parse_goal(&op.goal(), engine.program()).unwrap().goal;
                        let r = cs
                            .transaction(|db| solve(&engine, &goal, db))
                            .expect("transaction never errors under a 200-retry budget");
                        if let Some(seq) = r.seq {
                            committed.push((seq, op));
                        }
                    }
                    committed
                })
            })
            .collect();
        let mut committed: Vec<(u64, Guarded)> = Vec::new();
        for w in workers {
            committed.extend(w.join().unwrap());
        }
        committed.sort_by_key(|(seq, _)| *seq);
        let mut balances: BTreeMap<usize, i64> = (0..accounts).map(|i| (i, OPENING)).collect();
        let mut frozen = BTreeSet::new();
        for (i, (seq, op)) in committed.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64, "commit seqs must be dense");
            match *op {
                Guarded::Transfer(Op { from, to, amt }) => {
                    prop_assert!(
                        !frozen.contains(&from) && !frozen.contains(&to) && balances[&from] >= amt,
                        "seq {}: {:?} committed against {:?}, frozen {:?}", seq, op, balances, frozen
                    );
                    *balances.get_mut(&from).unwrap() -= amt;
                    *balances.get_mut(&to).unwrap() += amt;
                }
                Guarded::Toggle(i, true) => {
                    frozen.insert(i);
                }
                Guarded::Toggle(i, false) => {
                    frozen.remove(&i);
                }
            }
        }
        let mat = engine.materializer().unwrap();
        prop_assert_eq!(mat.rebuilds(), 1);
        let head_digest = cs.snapshot().digest();
        drop(cs.close().unwrap());
        let recovered = Store::open(&dir).unwrap();
        let mut expected = Database::new();
        for (i, bal) in &balances {
            expected = expected.insert(pred(), &row(*i, *bal)).unwrap().0;
        }
        for i in &frozen {
            expected = expected.insert(Pred::new("frozen", 1), &Tuple::new(vec![acct(*i)])).unwrap().0;
        }
        prop_assert_eq!(recovered.db().digest(), head_digest);
        prop_assert_eq!(recovered.db().digest(), expected.digest());
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// T1 reads a view on its snapshot and writes; T2 deletes a base tuple the
/// view's answer rested on and commits first. T1's probe charged the base
/// relations under the view to its read set, so it conflicts on `edge`,
/// runs again on the new head and answers as the view now does there.
#[test]
fn a_view_read_on_a_stale_snapshot_conflicts_on_the_relation_under_it() {
    const SRC: &str = "base edge/2. base log/1.\n\
        path(X, Y) <- edge(X, Y).\n\
        path(X, Z) <- edge(X, Y) * path(Y, Z).\n\
        note <- path(1, 3) * ins.log(reached).\n\
        note <- ins.log(cut).\n";
    let dir = temp_dir(&format!("stale_view_{}", std::process::id()));
    let edge = Pred::new("edge", 2);
    let mut genesis = Database::new();
    for (x, y) in [(1, 2), (2, 3)] {
        let t = Tuple::new(vec![Value::Int(x), Value::Int(y)]);
        genesis = genesis.insert(edge, &t).unwrap().0;
    }
    let (engine, cs) = materialized(SRC, &dir, &genesis);
    let goal = |src: &str| td_parser::parse_goal(src, engine.program()).unwrap().goal;
    let (note, cut) = (goal("note"), goal("del.edge(2, 3)"));
    let mut attempts = 0;
    let t1 = cs
        .transaction(|snapshot| {
            attempts += 1;
            let decision = solve(&engine, &note, snapshot);
            if attempts == 1 {
                let t2 = cs.transaction(|db| solve(&engine, &cut, db)).unwrap();
                assert_eq!(t2.seq, Some(0));
            }
            decision
        })
        .unwrap();
    assert_eq!((t1.attempts, t1.seq), (2, Some(1)));
    assert_eq!(
        cs.conflict_attribution().into_iter().collect::<Vec<_>>(),
        vec![(edge, 1)]
    );
    let head = cs.snapshot();
    let log = |what: &str| head.contains(Pred::new("log", 1), &Tuple::new(vec![Value::sym(what)]));
    assert!(log("cut") && !log("reached"), "{head}");
    assert_eq!(engine.materializer().unwrap().rebuilds(), 1);
    drop(cs.close().unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
