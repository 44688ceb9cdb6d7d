//! What a running server does per request, counted exactly.
//!
//! Timings of `td serve` are noisy; what it *does* is not. One client
//! drives a fixed script against a real server process and reads `stats`
//! and the size of `wal.tdl` before and after each part, so a change that
//! makes a request commit twice, group differently, write more log bytes
//! or intern more symbols fails here, whatever the clock says:
//! - transfers on the paper's banking program (`corpus/example_2_2_banking.td`):
//!   one WAL record and one group per committing request, and the log
//!   bytes of each commit;
//! - events on the events lab program (tdbench's `workloads/events_lab.td`,
//!   read as it is): an event that completes k matches costs 1 + k records
//!   and groups (its append, then one trigger commit per match), every
//!   matched trigger fires once, and the constants the script brings are
//!   the only symbols interned.
//!
//! Allocations per commit are pinned the way `tests/step_allocations.rs`
//! pins them per step: this binary counts its own heap allocations, per
//! thread, around `ConcurrentStore::transaction` and its group commit, on
//! one thread. The bound is the measured value + 10 %, with that value
//! beside it; a failure means a commit started allocating something it did
//! not before. A debug and a released build count the same, 21.0 a commit
//! (`cargo test -p td-cli --test serve_counts`, with `--release` in CI).

// `interned` is `cli.rs`'s; this file reads all of `stats`.
#[allow(dead_code)]
#[path = "support/serve.rs"]
mod serve;

use serve::{serve_dir, spawn_serve, stop_serve};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use td_core::{Pred, Value};
use td_db::{Database, Delta, DeltaOp, ReadSet, Tuple};
use td_store::{ConcurrentStore, TxDecision};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A file of the workspace, by its path from the root.
fn in_tree(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// The counters of one `stats` reply that this file pins.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counts {
    commits: u64,
    groups: u64,
    durable: u64,
    interned_syms: u64,
    triggers_matched: u64,
    triggers_fired: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, before: Counts) -> Counts {
        Counts {
            commits: self.commits - before.commits,
            groups: self.groups - before.groups,
            durable: self.durable - before.durable,
            interned_syms: self.interned_syms - before.interned_syms,
            triggers_matched: self.triggers_matched - before.triggers_matched,
            triggers_fired: self.triggers_fired - before.triggers_fired,
        }
    }
}

fn counts(client: &mut td_serve::Client) -> Counts {
    let line = client.stats().unwrap();
    let field = |key: &str| -> u64 {
        let value = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='));
        let value = value.unwrap_or_else(|| panic!("no `{key}` in {line}"));
        value.parse().unwrap()
    };
    Counts {
        commits: field("commits"),
        groups: field("groups"),
        durable: field("durable"),
        interned_syms: field("interned_syms"),
        triggers_matched: field("triggers_matched"),
        triggers_fired: field("triggers_fired"),
    }
}

/// `counts` once every trigger matched so far has fired, and two readings
/// agree: triggers run on the server's scheduler, after the `event` reply.
fn settled(client: &mut td_serve::Client) -> Counts {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let now = counts(client);
        if now.triggers_fired >= now.triggers_matched && counts(client) == now {
            return now;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "triggers never settled: {now:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("db").join("wal.tdl"))
        .unwrap()
        .len()
}

/// Ten transfers, one committing request each: ten records in ten groups,
/// 112 WAL bytes each (a record carries its sequence number, the post-state
/// digest and the two-op delta of each balance it rewrites), and nothing
/// interned.
#[test]
fn a_committing_request_writes_one_record_in_one_group() {
    const N: u64 = 10;
    let dir = serve_dir("counts_banking");
    let (server, mut client) = spawn_serve(&[], &in_tree("corpus/example_2_2_banking.td"), &dir);
    let (before, wal_before) = (counts(&mut client), wal_bytes(&dir));
    for i in 0..N {
        let reply = client.request("run transfer(1, acct1, acct2)").unwrap();
        assert!(reply.starts_with("ok "), "transfer {i}: {reply}");
    }
    let moved = counts(&mut client) - before;
    let per_commit = (wal_bytes(&dir) - wal_before) as f64 / N as f64;
    stop_serve(server, client);
    std::fs::remove_dir_all(&dir).unwrap();
    let want = Counts {
        commits: N,
        groups: N,
        durable: N,
        ..Counts::default()
    };
    assert_eq!(moved, want);
    assert_eq!(per_commit, 112.0, "WAL bytes per commit");
}

/// The events lab: a `sample` completes no match, a `result` completes one
/// for every earlier `sample` of its key inside the window. An event that
/// completes k matches costs 1 + k records in 1 + k groups, and each match
/// fires its trigger once. The script's fresh constants (`sK`, `qK`) are
/// what it interns.
#[test]
fn an_event_commits_itself_and_one_trigger_per_match() {
    let dir = serve_dir("counts_events");
    let lab = in_tree("crates/bench/src/bin/tdbench/workloads/events_lab.td");
    let (server, mut client) = spawn_serve(&[], &lab, &dir);
    let start = settled(&mut client);
    let mut at = 1_000;
    // (samples of key k before its result, matches the result completes)
    let script = [(1, 1), (0, 0), (2, 2), (1, 1), (3, 3)];
    let mut total = Counts::default();
    for (k, (samples, matches)) in script.into_iter().enumerate() {
        for _ in 0..samples {
            let before = settled(&mut client);
            let reply = client
                .request(&format!("event sample(s{k}) at {at}"))
                .unwrap();
            assert!(reply.starts_with("ok "), "{reply}");
            let moved = settled(&mut client) - before;
            assert_eq!(
                (moved.durable, moved.groups, moved.triggers_matched),
                (1, 1, 0)
            );
            at += 1;
        }
        let before = settled(&mut client);
        let reply = client
            .request(&format!("event result(s{k}, q{k}) at {at}"))
            .unwrap();
        assert!(reply.starts_with("ok "), "{reply}");
        let moved = settled(&mut client) - before;
        assert_eq!(
            (moved.durable, moved.groups, moved.commits),
            (1 + matches, 1 + matches, 1 + matches),
            "result {k} completing {matches} matches"
        );
        assert_eq!(
            (moved.triggers_matched, moved.triggers_fired),
            (matches, matches)
        );
        at += 1_000;
        total.triggers_matched += moved.triggers_matched;
    }
    let moved = settled(&mut client) - start;
    stop_serve(server, client);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!((moved.triggers_matched, moved.triggers_fired), (7, 7));
    assert_eq!(total.triggers_matched, 7);
    // s0..s4 and q0..q4.
    assert_eq!(moved.interned_syms, 10);
}

/// Allocations of one commit through `ConcurrentStore::transaction` — the
/// snapshot, the closure's delta, validation, the WAL record and its group
/// commit — on one thread, averaged over 200 transfers between two
/// accounts.
#[test]
fn a_commit_allocates_what_it_writes() {
    /// Measured at 21.0 when it was set; 28.0 while the group-commit leader
    /// cloned each delta and replayed it onto the store's own copy of the
    /// database, and 38.0 before a delta was replayed onto one copy of the
    /// database, edited in place, and before tuples of at most two values
    /// were held inline.
    const BOUND: f64 = 23.1;
    const N: u64 = 200;
    let dir = serve_dir("counts_allocations");
    let balance = Pred::new("balance", 2);
    let row = |acct: &str, amount: i64| Tuple::new(vec![Value::sym(acct), Value::Int(amount)]);
    let initial = Database::new().declare(balance);
    let initial = initial.insert(balance, &row("acct1", 1_000_000)).unwrap().0;
    let initial = initial.insert(balance, &row("acct2", 1_000_000)).unwrap().0;
    let cs = ConcurrentStore::open_or_init(&dir.join("db"), &initial).unwrap();
    let transfer = |i: u64| {
        let (from, to) = if i.is_multiple_of(2) {
            ("acct1", "acct2")
        } else {
            ("acct2", "acct1")
        };
        cs.transaction(|db| {
            let amount = |acct: &str| {
                let found = db
                    .relation(balance)
                    .unwrap()
                    .select(&[Some(Value::sym(acct)), None]);
                found[0].values()[1].as_int().unwrap()
            };
            let (a, b) = (amount(from), amount(to));
            let mut delta = Delta::new();
            delta.push(DeltaOp::Del(balance, row(from, a)));
            delta.push(DeltaOp::Ins(balance, row(from, a - 1)));
            delta.push(DeltaOp::Del(balance, row(to, b)));
            delta.push(DeltaOp::Ins(balance, row(to, b + 1)));
            let mut reads = ReadSet::new();
            reads.record(balance);
            Ok::<_, String>(TxDecision::commit(delta, reads, ()))
        })
        .unwrap();
    };
    // Warm-up: the first commits grow buffers once.
    (0..10).for_each(transfer);
    let before = allocations();
    (10..10 + N).for_each(transfer);
    let per_commit = (allocations() - before) as f64 / N as f64;
    drop(cs);
    std::fs::remove_dir_all(&dir).unwrap();
    println!("allocations per commit: {per_commit:.1} (bound {BOUND})");
    assert!(
        per_commit <= BOUND,
        "{per_commit:.1} allocations per commit"
    );
}
