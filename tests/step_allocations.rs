//! Allocations per machine step, pinned.
//!
//! A sequential step should allocate only what it creates: the tree nodes
//! on the rewritten path, the tuple an update stores and the relation nodes
//! it path-copies, a choicepoint's alternatives. A database snapshot is a
//! refcount, and so is a process-tree snapshot. This binary counts heap
//! allocations with its own global allocator — per thread, so the harness's
//! parallel tests do not pollute each other — around `Engine::solve` only
//! (parsing and loading excluded), and divides by the steps the solve
//! reports.
//!
//! The programs are tdbench's eight `search_mix` members, read from the
//! frozen workload files, and one top-down `datalog_views` question. Each
//! bound is the value measured when it was set plus 10 %, with that value
//! and the earlier ones beside it: before a call read its rule's body
//! through a variable offset instead of copying it renamed apart, and
//! before snapshots and trees became persistent. A bound that fails means a
//! step started allocating something it did not before — find it before
//! moving the number.
//!
//! `parse_program` of each member, which tdbench runs once per op, is
//! pinned the same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use transaction_datalog::prelude::{parse_program, Database, Engine, EngineConfig};

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

/// Allocations and steps of solving every goal of `source` in sequence,
/// each against the previous one's committed database, like `td run`.
fn solve_all(source: &str, subgoal_cache: bool) -> (u64, u64) {
    let parsed = parse_program(source).expect("workload parses");
    let schema = Database::with_schema_of(&parsed.program);
    let mut db = td_engine::load_init(&schema, &parsed.init).expect("init loads");
    let config = EngineConfig {
        subgoal_cache,
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(parsed.program.clone(), config);
    let (mut allocs, mut steps) = (0, 0);
    for goal in &parsed.goals {
        let before = allocations();
        let outcome = engine.solve(&goal.goal, &db).expect("workload solves");
        allocs += allocations() - before;
        steps += outcome.stats().steps;
        if let Some(sol) = outcome.solution() {
            db = sol.db.clone();
        }
    }
    (allocs, steps)
}

/// Allocations of parsing `source` with `parse_program`.
fn parse_allocations(source: &str) -> u64 {
    let before = allocations();
    let parsed = parse_program(source).expect("workload parses");
    let after = allocations();
    drop(parsed);
    after - before
}

/// A `search_mix` member: its workload file, whether tdbench runs it with
/// the subgoal cache, its weight in a tdbench round, and the bound on its
/// allocations per step.
struct Member {
    name: &'static str,
    source: &'static str,
    subgoal_cache: bool,
    weight: u64,
    bound: f64,
}

/// A `search_mix` member's workload file and the bound on the allocations
/// of parsing it.
struct Parse {
    name: &'static str,
    source: &'static str,
    bound: u64,
}

macro_rules! workload {
    ($name:literal) => {
        include_str!(concat!(
            "../crates/bench/src/bin/tdbench/workloads/search_",
            $name,
            ".td"
        ))
    };
}

macro_rules! member {
    ($name:literal, $cache:expr, $weight:expr, $bound:expr) => {
        Member {
            name: $name,
            source: workload!($name),
            subgoal_cache: $cache,
            weight: $weight,
            bound: $bound,
        }
    };
}

/// Names, cache flags and weights as in tdbench's `catalogue.rs`. Each
/// comment gives the value measured when the bound was set, then the value
/// before rule bodies were shared, then the value before persistent
/// snapshots.
const MEMBERS: [Member; 8] = [
    member!("labflow", false, 11, 6.31),    // 5.74; was 7.85, 22.39
    member!("agents", false, 16, 4.55),     // 4.14; was 6.63, 18.21
    member!("network", false, 8, 5.06),     // 4.60; was 5.68, 18.44
    member!("transfers", false, 128, 3.07), // 2.79; was 4.37, 12.10
    member!("minsky", false, 6, 3.20),      // 2.91; was 6.00, 23.38
    member!("qbf", false, 5, 1.63),         // 1.48; was 3.91, 12.54
    member!("refute", false, 1, 2.66),      // 2.42; was 5.70, 15.80
    member!("protocol", true, 8, 3.47),     // 3.15; was 5.36, 17.17
];

/// Round-weighted allocations per step over the eight members, each member
/// counted as often as a tdbench round runs it: 3.25 when set; 5.40 before
/// rule bodies were shared, 16.30 before persistent snapshots.
const ROUND_BOUND: f64 = 3.58;

#[test]
fn search_mix_steps_allocate_within_their_bounds() {
    let (mut round_allocs, mut round_steps) = (0, 0);
    let mut report = String::new();
    let mut over = Vec::new();
    for m in &MEMBERS {
        let (allocs, steps) = solve_all(m.source, m.subgoal_cache);
        assert!(steps > 0, "{}: no steps", m.name);
        let per_step = allocs as f64 / steps as f64;
        report.push_str(&format!(
            "{:>10}: {allocs} allocations / {steps} steps = {per_step:.2} (bound {})\n",
            m.name, m.bound
        ));
        if per_step > m.bound {
            over.push(m.name);
        }
        round_allocs += m.weight * allocs;
        round_steps += m.weight * steps;
    }
    let round = round_allocs as f64 / round_steps as f64;
    report.push_str(&format!(
        "     round: {round:.2} per step (bound {ROUND_BOUND})\n"
    ));
    println!("{report}");
    assert!(over.is_empty(), "over their bounds: {over:?}\n{report}");
    assert!(round <= ROUND_BOUND, "round over its bound\n{report}");
}

/// The `datalog_views` program over its complete binary tree of 256 nodes,
/// as tdbench builds it (without the seeded `blocked` facts, which `path`
/// does not read).
fn views_tree_source() -> String {
    let mut src = String::from(include_str!(
        "../crates/bench/src/bin/tdbench/workloads/datalog_views.td"
    ));
    src.push_str("init epoch(0).\n");
    for child in 2..=256 {
        src.push_str(&format!("init edge({}, {child}).\n", child / 2));
    }
    src.push_str("?- path(1, 200).\n");
    src
}

#[test]
fn a_top_down_view_question_allocates_within_its_bound() {
    let (allocs, steps) = solve_all(&views_tree_source(), false);
    let per_step = allocs as f64 / steps as f64;
    println!("path(1, 200): {allocs} allocations / {steps} steps = {per_step:.2}");
    // 0.26 when set; 2.90 before rule bodies were shared, 13.19 before
    // persistent snapshots.
    assert!(per_step <= 0.29, "{per_step:.2} per step");
}

macro_rules! parse {
    ($name:literal, $bound:expr) => {
        Parse {
            name: $name,
            source: workload!($name),
            bound: $bound,
        }
    };
}

/// `parse_program` of each `search_mix` member, which tdbench runs once per
/// op. Each comment gives the value measured when the bound was set, then
/// the value before tokens borrowed the source and names were interned
/// once.
const PARSES: [Parse; 8] = [
    parse!("labflow", 132),  // 120; was 513
    parse!("agents", 174),   // 158; was 800
    parse!("network", 62),   // 56; was 227
    parse!("transfers", 67), // 61; was 299
    parse!("minsky", 153),   // 139; was 644
    parse!("qbf", 119),      // 108; was 500
    parse!("refute", 62),    // 56; was 259
    parse!("protocol", 48),  // 44; was 184
];

#[test]
fn search_mix_programs_parse_within_their_bounds() {
    let mut report = String::new();
    let mut over = Vec::new();
    for p in &PARSES {
        // The first parse interns the program's names for good; every later
        // one, like each op of a tdbench round, finds them interned.
        parse_allocations(p.source);
        let allocs = parse_allocations(p.source);
        report.push_str(&format!(
            "{:>10}: {allocs} allocations (bound {})\n",
            p.name, p.bound
        ));
        if allocs > p.bound {
            over.push(p.name);
        }
    }
    println!("{report}");
    assert!(over.is_empty(), "over their bounds: {over:?}\n{report}");
}
