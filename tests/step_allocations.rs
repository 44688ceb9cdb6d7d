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
//! and the one before the change that set it (PR 25) beside it. A bound
//! that fails means a step started allocating something it did not before —
//! find it before moving the number.

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

macro_rules! member {
    ($name:literal, $cache:expr, $weight:expr, $bound:expr) => {
        Member {
            name: $name,
            source: include_str!(concat!(
                "../crates/bench/src/bin/tdbench/workloads/search_",
                $name,
                ".td"
            )),
            subgoal_cache: $cache,
            weight: $weight,
            bound: $bound,
        }
    };
}

/// Names, cache flags and weights as in tdbench's `catalogue.rs`. Each
/// comment gives the value measured when the bound was set (PR 25), then the
/// value before PR 25.
const MEMBERS: [Member; 8] = [
    member!("labflow", false, 11, 8.64),    // 7.85; was 22.39
    member!("agents", false, 16, 7.30),     // 6.63; was 18.21
    member!("network", false, 8, 6.25),     // 5.68; was 18.44
    member!("transfers", false, 128, 4.81), // 4.37; was 12.10
    member!("minsky", false, 6, 6.60),      // 6.00; was 23.38
    member!("qbf", false, 5, 4.30),         // 3.91; was 12.54
    member!("refute", false, 1, 6.27),      // 5.70; was 15.80
    member!("protocol", true, 8, 5.90),     // 5.36; was 17.17
];

/// Round-weighted allocations per step over the eight members, each member
/// counted as often as a tdbench round runs it: 5.40 when set; 16.30 before
/// PR 25.
const ROUND_BOUND: f64 = 5.94;

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
    // 2.90 when set; 13.19 before PR 25.
    assert!(per_step <= 3.19, "{per_step:.2} per step");
}
