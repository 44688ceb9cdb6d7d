//! Allocations per machine step, pinned.
//!
//! A sequential step should allocate only what it creates. The solver owns
//! one database and one process tree and edits both in place: a call
//! copies its rule's template into the solver's node arena, a few words a
//! node in a buffer that is warm after the first steps, and a choicepoint
//! holds positions in the undo logs and in the arena's trail, no database
//! and no tree. What is left is the copy of a relation an update makes
//! when another version shares it, a choicepoint's alternatives (the
//! tuples a query matches), the logs and stacks growing to their depth,
//! and the database and arena of the first `iso` block a solve enters
//! (later blocks reuse a finished block's solver). A tuple of at most two
//! values allocates nothing (docs/ARCHITECTURE.md, "What a step
//! allocates, and what backtracking costs"). This binary counts heap
//! allocations with its own global allocator — per thread, so the
//! harness's parallel tests do not pollute each other — around
//! `Engine::solve` only (parsing and loading excluded), and divides by the
//! steps the solve reports.
//!
//! The programs are tdbench's eight `search_mix` members, read from the
//! frozen workload files, and one top-down `datalog_views` question. Each
//! bound is the value measured when it was set plus 10 %, with that value
//! and the earlier ones beside it: before the solver owned its tree as an
//! arena (a released build; a debug build counted more then), before the
//! solver edited its one tree in place, before updates edited its one
//! database in place and small tuples were held inline, before a call read
//! its rule's body through a variable offset instead of copying it renamed
//! apart, and before snapshots and trees became persistent. A debug build
//! counts what a released one does: its check of every rewind hashes the
//! live nodes and allocates nothing. A bound that fails means a step
//! started allocating something it did not before — find it before moving
//! the number.
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
/// comment gives the value measured when the bound was set, then the
/// released build's value before the solver owned its tree as an arena
/// (the debug build's in parentheses), before the tree was edited in
/// place, before updates were edits in place and small tuples inline,
/// before relations were B-trees (treaps: a node per tuple), before rule
/// bodies were shared, and before persistent snapshots.
const MEMBERS: [Member; 8] = [
    member!("labflow", false, 11, 1.43), // 1.30; was 1.48 (4.57), 2.26, 3.55, 5.74, 7.85, 22.39
    member!("agents", false, 16, 2.83),  // 2.57; was 2.95 (5.02), 2.96, 3.29, 4.14, 6.63, 18.21
    member!("network", false, 8, 1.44),  // 1.31; was 1.55 (5.15), 3.05, 3.62, 4.60, 5.68, 18.44
    member!("transfers", false, 128, 2.27), // 2.06; was 2.42 (2.50), 2.08, 2.62, 2.79, 4.37, 12.10
    member!("minsky", false, 6, 1.13),   // 1.03; was 1.20 (3.71), 2.32, 2.58, 2.91, 6.00, 23.38
    member!("qbf", false, 5, 0.56),      // 0.51; was 0.54 (0.93), 1.20, 1.38, 1.48, 3.91, 12.54
    member!("refute", false, 1, 0.75),   // 0.68; was 0.92 (2.64), 1.76, 2.03, 2.42, 5.70, 15.80
    member!("protocol", true, 8, 1.42),  // 1.29; was 1.73 (4.26), 2.22, 2.52, 3.15, 5.36, 17.17
];

/// Round-weighted allocations per step over the eight members, each member
/// counted as often as a tdbench round runs it: 1.44 when set; 1.71
/// released and 3.32 debug before the solver owned its tree as an arena,
/// 2.17 before the tree was edited in place, 2.65 before updates were
/// edits in place and small tuples inline, 3.25 before relations were
/// B-trees, 5.40 before rule bodies were shared, 16.30 before persistent
/// snapshots.
const ROUND_BOUND: f64 = 1.58;

#[test]
fn search_mix_steps_allocate_within_their_bounds() {
    let (mut round_allocs, mut round_steps) = (0, 0);
    let mut report = String::new();
    let mut over = Vec::new();
    for m in &MEMBERS {
        let (allocs, steps) = solve_all(m.source, m.subgoal_cache);
        assert!(steps > 0, "{}: no steps", m.name);
        let per_step = allocs as f64 / steps as f64;
        let bound = m.bound;
        report.push_str(&format!(
            "{:>10}: {allocs} allocations / {steps} steps = {per_step:.2} (bound {bound})\n",
            m.name
        ));
        if per_step > bound {
            over.push(m.name);
        }
        round_allocs += m.weight * allocs;
        round_steps += m.weight * steps;
    }
    let (round, bound) = (round_allocs as f64 / round_steps as f64, ROUND_BOUND);
    report.push_str(&format!(
        "     round: {round:.2} per step (bound {bound})\n"
    ));
    println!("{report}");
    assert!(over.is_empty(), "over their bounds: {over:?}\n{report}");
    assert!(round <= bound, "round over its bound\n{report}");
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
    // 0.27 when set; 0.28 before the solver owned its tree as an arena,
    // 0.26 before the tree was edited in place, and before that once
    // updates were edits in place; 2.90 before rule bodies were shared,
    // 13.19 before persistent snapshots.
    assert!(per_step <= 0.30, "{per_step:.2} per step");
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
/// the value before tuples of at most two values were held inline, and
/// before tokens borrowed the source and names were interned once.
const PARSES: [Parse; 8] = [
    parse!("labflow", 124),  // 113; was 120, 513
    parse!("agents", 166),   // 151; was 158, 800
    parse!("network", 59),   // 54; was 56, 227
    parse!("transfers", 64), // 58; was 61, 299
    parse!("minsky", 143),   // 130; was 139, 644
    parse!("qbf", 119),      // 108; was 108, 500
    parse!("refute", 58),    // 53; was 56, 259
    parse!("protocol", 46),  // 42; was 44, 184
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
