//! `datalog_views`: "update an edge, then ask" over recursive views
//! (`path/2`, `open/2` with negation) of a 256-node tree, through three
//! evaluators: the materialized engine, the plain top-down engine, and the
//! bottom-up `datalog::query` / `magic::answer` pair. Each evaluator evolves
//! its own copy of the database, so the materialized views are
//! maintained through the engine's own transactions, as under
//! `td --materialize`. Fixpoints and delta maintenance, not interleaving
//! search: merging the evaluators shows here and not on `search_mix`.
//!
//! The ops of one round are fixed at set-up (`plan`) and every round replays
//! them, so an op does the same work each time round and its floor
//! (`stats::Floor`) is its cost.

use crate::catalogue::views::{BLOCKED, BOTTOMUP_OPS, NODES, QUERIES, SOURCE};
use crate::inproc::{self, Phase, Stretch};
use crate::stats::Rng;
use crate::trace::{ratio, Tracer};
use crate::{probes, set_up_repeatedly, Ctx, Report};
use std::collections::BTreeSet;
use std::time::Instant;
use td_core::{Atom, Pred, Program, Term, Value};
use td_db::{Database, Tuple};
use td_engine::{datalog, load_init, magic, Engine, EngineConfig};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Evaluator {
    Materialized,
    TopDown,
    BottomUp,
}

impl Evaluator {
    fn name(self) -> &'static str {
        match self {
            Evaluator::Materialized => "mat",
            Evaluator::TopDown => "topdown",
            Evaluator::BottomUp => "bottomup",
        }
    }
}

/// The harness's own model of one evaluator's graph: the full tree minus at
/// most one edge, named by its child.
#[derive(Clone, Copy, Default)]
struct Model {
    missing: Option<u64>,
}

impl Model {
    /// Naive reachability: walk up from `y`; it is below `x` unless the
    /// walk crosses the missing edge first.
    fn path(self, x: u64, y: u64) -> bool {
        let mut cur = y;
        while cur > x {
            if self.missing == Some(cur) {
                return false;
            }
            cur /= 2;
        }
        cur == x && x != y
    }

    fn descendants(self, x: u64) -> Vec<u64> {
        (x + 1..=NODES).filter(|&y| self.path(x, y)).collect()
    }
}

/// What an op asks once its update is in.
#[derive(Clone, PartialEq, Debug)]
enum Asks {
    /// Engine ops: ground questions `view(x, y)`.
    Ground(Vec<(&'static str, u64, u64)>),
    /// The bottom-up op: every `open` and every `path` descendant of a node.
    Below(u64),
}

/// One op of the round.
#[derive(Clone, PartialEq, Debug)]
struct Planned {
    evaluator: Evaluator,
    /// The tree edge this op removes, by child node; it restores the one
    /// its evaluator's previous op removed.
    remove: u64,
    asks: Asks,
}

/// The round. Its content does not depend on the seed, so that a round
/// costs the same whatever the seed (a top-down question costs from
/// microseconds to milliseconds, by the subtree it searches and by the edge
/// that is missing when it is asked): each engine removes every tree edge
/// once, always followed by the same [`QUERIES`] questions; the bottom-up
/// evaluator removes [`BOTTOMUP_OPS`] leaf edges and asks below one node of
/// each of the top levels of the tree. The seed shuffles the order of the
/// ops, and with it the edge each op restores. An evaluator's edges are all
/// different, so that edge is never the one the op removes, and from the
/// second round on every round does the same work.
fn plan(seed: u64) -> Vec<Planned> {
    let mut content = Rng::new(CONTENT);
    let mut plan = Vec::new();
    for evaluator in [Evaluator::Materialized, Evaluator::TopDown] {
        for remove in 2..=NODES {
            let asks = (0..QUERIES).map(|q| question(q, &mut content)).collect();
            plan.push(Planned {
                evaluator,
                remove,
                asks: Asks::Ground(asks),
            });
        }
    }
    // Nodes above NODES / 2 have no child, but for the parent of the last.
    let mut leaves: Vec<u64> = (NODES / 2 + 1..NODES).collect();
    content.shuffle(&mut leaves);
    for (depth, &remove) in leaves[..BOTTOMUP_OPS].iter().enumerate() {
        // Subtrees of 255, 127, 63, … nodes.
        let level = 1u64 << depth;
        plan.push(Planned {
            evaluator: Evaluator::BottomUp,
            remove,
            asks: Asks::Below(level + content.below(level)),
        });
    }
    Rng::new(seed).shuffle(&mut plan);
    plan
}

/// Seed of what a round holds and of the blocked nodes, whatever the run's
/// seed.
const CONTENT: u64 = 0x9E57;

/// The `q`-th of `QUERIES` kinds of ground question: half climb from `y` to
/// an ancestor (mostly reachable), half pair it with any smaller node
/// (mostly not); the first half ask `path`, the second `open`.
fn question(q: usize, rng: &mut Rng) -> (&'static str, u64, u64) {
    let y = 2 + rng.below(NODES - 1);
    let x = if q.is_multiple_of(2) {
        (y >> (1 + rng.below(3))).max(1)
    } else {
        1 + rng.below(y - 1)
    };
    (if q < QUERIES / 2 { "path" } else { "open" }, x, y)
}

struct World {
    program: Program,
    blocked: BTreeSet<u64>,
    mat: Engine,
    plain: Engine,
    /// Database and model per evaluator, indexed by `Evaluator as usize`.
    dbs: [Database; 3],
    models: [Model; 3],
    plan: Vec<Planned>,
    /// Rounds begun; see `next_epoch`.
    epoch: u64,
}

fn init_facts() -> (String, BTreeSet<u64>) {
    let mut src = String::from(SOURCE);
    src.push_str("init epoch(0).\n");
    for child in 2..=NODES {
        src.push_str(&format!("init edge({}, {child}).\n", child / 2));
    }
    let mut rng = Rng::new(CONTENT ^ 0xB10C);
    let mut blocked = BTreeSet::new();
    while blocked.len() < BLOCKED {
        blocked.insert(1 + rng.below(NODES));
    }
    for b in &blocked {
        src.push_str(&format!("init blocked({b}).\n"));
    }
    (src, blocked)
}

fn set_up(seed: u64) -> Result<World, String> {
    let (src, blocked) = init_facts();
    let parsed = td_parser::parse_program(&src).map_err(|e| e.to_string())?;
    let db = load_init(&Database::with_schema_of(&parsed.program), &parsed.init)
        .map_err(|e| e.to_string())?;
    let mat = Engine::with_config(
        parsed.program.clone(),
        EngineConfig::default().with_materialize(),
    );
    if mat.materializer().is_none() {
        return Err("datalog_views.td has no materializable predicate".into());
    }
    let world = World {
        plain: Engine::new(parsed.program.clone()),
        mat,
        program: parsed.program,
        blocked,
        dbs: [db.clone(), db.clone(), db],
        models: [Model::default(); 3],
        plan: plan(seed),
        epoch: 0,
    };
    // Build the initial views now, so the first measured op pays for
    // maintenance like every later one.
    let mut tr = Tracer::new(false, 0, Instant::now());
    if !world.ask(Evaluator::Materialized, "path", 1, NODES, &mut tr)? {
        return Err("the root does not reach the last node of the tree".into());
    }
    Ok(world)
}

impl World {
    fn slot(e: Evaluator) -> usize {
        e as usize
    }

    /// One ground question through an engine; returns whether the answer
    /// equals the model's.
    fn ask(
        &self,
        e: Evaluator,
        view: &'static str,
        x: u64,
        y: u64,
        tr: &mut Tracer,
    ) -> Result<bool, String> {
        let (engine, span) = match e {
            Evaluator::Materialized => (&self.mat, "mat.query"),
            _ => (&self.plain, "topdown.query"),
        };
        let text = format!("{view}({x}, {y})");
        let s = tr.enter("parser", "parse_goal");
        let goal = td_parser::parse_goal(&text, &self.program).map_err(|e| e.to_string())?;
        tr.exit(s);
        let s = tr.enter("engine", span);
        let outcome = engine
            .solve(&goal.goal, &self.dbs[Self::slot(e)])
            .map_err(|e| format!("{text}: {e}"))?;
        tr.exit(s);
        let model = self.models[Self::slot(e)];
        let expect = model.path(x, y) && (view == "path" || !self.blocked.contains(&y));
        Ok(outcome.is_success() == expect)
    }

    /// Mark the materialized engine's database with the number of the round
    /// about to start. The materializer keeps the views of the database
    /// versions it has seen, by content digest; without the mark a round
    /// would revisit the versions of the round before and find every view
    /// ready-made, where a database that evolves maintains them.
    fn next_epoch(&mut self) -> Result<(), String> {
        let text = format!("del.epoch({}) * ins.epoch({})", self.epoch, self.epoch + 1);
        self.epoch += 1;
        let goal = td_parser::parse_goal(&text, &self.program).map_err(|e| e.to_string())?;
        let slot = Self::slot(Evaluator::Materialized);
        let outcome = self
            .mat
            .solve(&goal.goal, &self.dbs[slot])
            .map_err(|e| format!("{text}: {e}"))?;
        let sol = outcome.solution().ok_or_else(|| format!("{text} failed"))?;
        self.dbs[slot] = sol.db.clone();
        Ok(())
    }

    /// One op of the round: its update, then its questions.
    fn op(&mut self, planned: &Planned, tr: &mut Tracer) -> Result<bool, String> {
        let e = planned.evaluator;
        let removed = planned.remove;
        let restored = self.models[Self::slot(e)].missing.replace(removed);
        match &planned.asks {
            Asks::Ground(questions) => self.engine_op(e, removed, restored, questions, tr),
            Asks::Below(x) => self.bottom_up_op(removed, restored, *x, tr),
        }
    }

    fn engine_op(
        &mut self,
        e: Evaluator,
        removed: u64,
        restored: Option<u64>,
        questions: &[(&'static str, u64, u64)],
        tr: &mut Tracer,
    ) -> Result<bool, String> {
        let mut text = format!("del.edge({}, {removed})", removed / 2);
        if let Some(c) = restored {
            text.push_str(&format!(" * ins.edge({}, {c})", c / 2));
        }
        let (engine, span) = match e {
            Evaluator::Materialized => (&self.mat, "mat.update"),
            _ => (&self.plain, "topdown.update"),
        };
        let s = tr.enter("parser", "parse_goal");
        let goal = td_parser::parse_goal(&text, &self.program).map_err(|e| e.to_string())?;
        tr.exit(s);
        let s = tr.enter("engine", span);
        let outcome = engine
            .solve(&goal.goal, &self.dbs[Self::slot(e)])
            .map_err(|e| format!("{text}: {e}"))?;
        tr.exit(s);
        let Some(sol) = outcome.solution() else {
            return Ok(false);
        };
        self.dbs[Self::slot(e)] = sol.db.clone();
        let mut right = true;
        for &(view, x, y) in questions {
            right &= self.ask(e, view, x, y, tr)?;
        }
        Ok(right)
    }

    fn bottom_up_op(
        &mut self,
        removed: u64,
        restored: Option<u64>,
        x: u64,
        tr: &mut Tracer,
    ) -> Result<bool, String> {
        let e = Evaluator::BottomUp;
        let edge = Pred::new("edge", 2);
        let tuple = |c: u64| Tuple::new(vec![Value::Int((c / 2) as i64), Value::Int(c as i64)]);
        let db = &mut self.dbs[Self::slot(e)];
        let s = tr.enter("db", "delete");
        *db = db
            .delete(edge, &tuple(removed))
            .map_err(|e| e.to_string())?
            .0;
        tr.exit(s);
        if let Some(c) = restored {
            let s = tr.enter("db", "insert");
            *db = db.insert(edge, &tuple(c)).map_err(|e| e.to_string())?.0;
            tr.exit(s);
        }
        let model = self.models[Self::slot(e)];
        let below = model.descendants(x);
        let answers = |tuples: Vec<Tuple>, expect: Vec<u64>| {
            let got: Vec<Value> = tuples.iter().map(|t| t.values()[1]).collect();
            let want: Vec<Value> = expect.iter().map(|&y| Value::Int(y as i64)).collect();
            got == want
        };
        let query = |view: &str| Atom::new(view, vec![Term::int(x as i64), Term::var(0)]);
        let s = tr.enter("engine", "datalog_query");
        let open = datalog::query(&self.program, db, &query("open")).map_err(|e| e.to_string())?;
        tr.exit(s);
        let s = tr.enter("engine", "magic_answer");
        let (path, _) =
            magic::answer(&self.program, db, &query("path")).map_err(|e| e.to_string())?;
        tr.exit(s);
        let open_expect = below
            .iter()
            .copied()
            .filter(|y| !self.blocked.contains(y))
            .collect();
        Ok(answers(open, open_expect) && answers(path, below))
    }
}

/// Run whole rounds for one stretch.
fn drive(world: &mut World, stretch: &Stretch) -> Result<Phase, String> {
    let plan = world.plan.clone();
    inproc::drive(stretch, plan.len(), |i, tr, req| {
        if i == 0 {
            world.next_epoch()?;
        }
        let root = tr.request(req, plan[i].evaluator.name());
        let right = world.op(&plan[i], tr)?;
        tr.exit(root);
        Ok(right)
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut world, setups) = set_up_repeatedly(|| set_up(ctx.seed), |_| Ok(()))?;
    if !ctx.trace {
        let round: Vec<&'static str> = world.plan.iter().map(|p| p.evaluator.name()).collect();
        inproc::untraced(ctx, &mut report, &setups, &round, |stretch| {
            drive(&mut world, stretch)
        })?;
        return Ok(report);
    }
    let mat = world.mat.materializer().expect("checked in set_up").clone();
    let before = (
        mat.probes(),
        mat.rebuilds(),
        mat.maintained_ops(),
        mat.maintain_ns(),
    );
    let sum = inproc::traced(ctx, &mut report, |stretch| drive(&mut world, stretch))?;
    // The materializer's own counters, over the whole traced run.
    let probed = mat.probes() - before.0;
    let rebuilt = mat.rebuilds() - before.1;
    let maintained = mat.maintained_ops() - before.2;
    let maintain_ns = mat.maintain_ns() - before.3;
    report.set(
        "engine.mat_apply_us_per_delta",
        ratio(maintain_ns as f64 / 1e3, maintained as f64),
        maintained,
    );
    report.set(
        "engine.mat_probe_ratio",
        ratio((probed - rebuilt) as f64, probed as f64),
        probed,
    );
    for (metric, span) in [
        ("engine.topdown_query_us", "topdown.query"),
        ("engine.mat_requery_us", "mat.query"),
        ("engine.datalog_eval_us", "datalog_query"),
        ("engine.magic_query_us", "magic_answer"),
    ] {
        report.set(metric, sum.mean_us(span), sum.count(span));
    }
    probes::run(ctx, &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_is_a_tree_minus_one_edge() {
        let full = Model::default();
        assert!(full.path(1, 256) && full.path(2, 5) && full.path(64, 128));
        assert!(!full.path(2, 7) && !full.path(5, 5) && !full.path(5, 2));
        assert_eq!(full.descendants(1).len(), 255);
        assert_eq!(full.descendants(64), vec![128, 129, 256]);
        // Without the edge 2 -> 5, node 5's subtree hangs loose.
        let cut = Model { missing: Some(5) };
        assert!(!cut.path(1, 5) && !cut.path(2, 11) && cut.path(5, 11) && cut.path(2, 4));
    }

    #[test]
    fn every_evaluator_agrees_with_the_model() {
        let mut world = set_up(1).unwrap();
        let mut tr = Tracer::new(false, 0, Instant::now());
        let plan = world.plan.clone();
        // The bottom-up ops and the first few of each engine.
        let mut left = [6, 6, usize::MAX];
        for planned in plan.iter().chain(&plan) {
            let slot = World::slot(planned.evaluator);
            if left[slot] > 0 {
                left[slot] -= 1;
                assert!(world.op(planned, &mut tr).unwrap(), "{planned:?}");
            }
        }
    }

    #[test]
    fn the_seed_orders_the_round_and_nothing_else() {
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4));
        let key = |p: &Planned| (p.evaluator as usize, p.remove);
        let sorted = |mut plan: Vec<Planned>| {
            plan.sort_by_key(key);
            plan
        };
        let round = sorted(plan(3));
        assert_eq!(round, sorted(plan(4)));
        let removes = |e| -> Vec<u64> {
            let of_e = round.iter().filter(|p| p.evaluator == e);
            of_e.map(|p| p.remove).collect()
        };
        let every_edge: Vec<u64> = (2..=NODES).collect();
        assert_eq!(removes(Evaluator::Materialized), every_edge);
        assert_eq!(removes(Evaluator::TopDown), every_edge);
        let leaves = removes(Evaluator::BottomUp);
        assert_eq!(leaves.len(), BOTTOMUP_OPS);
        assert!(leaves.windows(2).all(|w| w[0] < w[1]));
        assert!(leaves.iter().all(|&c| c > NODES / 2 && c < NODES));
        let mut below: Vec<u32> = round
            .iter()
            .filter_map(|p| match p.asks {
                Asks::Below(x) => Some(x.ilog2()),
                Asks::Ground(_) => None,
            })
            .collect();
        below.sort_unstable();
        assert_eq!(below, (0..BOTTOMUP_OPS as u32).collect::<Vec<_>>());
    }
}
