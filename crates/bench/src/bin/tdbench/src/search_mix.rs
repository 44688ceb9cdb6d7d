//! `search_mix`: the whole `td run` path — `parse_program`, `load_init`,
//! `Engine::solve` per goal — over eight frozen paper programs. No store,
//! no server: a change to the kernel, a driver or the db shows here, and a
//! change to the commit path must not.

use crate::catalogue::{SearchMember, PER_LAYER, SEARCH_MEMBERS};
use crate::inproc::{self, Phase, Stretch};
use crate::stats::Rng;
use crate::trace::{ratio, Tracer};
use crate::{probes, set_up_repeatedly, Ctx, Report};
use std::time::{Duration, Instant};
use td_db::Database;
use td_engine::{load_init, Engine, EngineConfig};

/// Engine counters of one or many solves.
#[derive(Default, Clone)]
struct Totals {
    solves: u64,
    solve: Duration,
    steps: u64,
    backtracks: u64,
    db_ops: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        self.solves += other.solves;
        self.solve += other.solve;
        self.steps += other.steps;
        self.backtracks += other.backtracks;
        self.db_ops += other.db_ops;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// What one program run did, for the oracle and the engine counters.
struct MemberRun {
    executable: bool,
    totals: Totals,
}

fn run_member(m: &SearchMember, tr: &mut Tracer, req: u64) -> Result<MemberRun, String> {
    let root = tr.request(req, m.name);
    let s = tr.enter("parser", "parse_program");
    let parsed = td_parser::parse_program(m.source).map_err(|e| format!("{}: {e}", m.name))?;
    tr.exit(s);
    let s = tr.enter("db", "with_schema_of");
    let schema = Database::with_schema_of(&parsed.program);
    tr.exit(s);
    let s = tr.enter("engine", "load_init");
    let mut db = load_init(&schema, &parsed.init).map_err(|e| format!("{}: {e}", m.name))?;
    tr.exit(s);
    let s = tr.enter("engine", "with_config");
    let config = EngineConfig {
        subgoal_cache: m.subgoal_cache,
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(parsed.program.clone(), config);
    tr.exit(s);
    let mut run = MemberRun {
        executable: true,
        totals: Totals::default(),
    };
    for goal in &parsed.goals {
        let s = tr.enter("engine", "solve");
        let started = Instant::now();
        let outcome = engine
            .solve(&goal.goal, &db)
            .map_err(|e| format!("{}: {e}", m.name))?;
        let solve = started.elapsed();
        tr.exit(s);
        let st = outcome.stats();
        run.totals.add(&Totals {
            solves: 1,
            solve,
            steps: st.steps,
            backtracks: st.backtracks,
            db_ops: st.db_ops,
            cache_hits: st.cache_hits,
            cache_misses: st.cache_misses,
        });
        match outcome.solution() {
            Some(sol) => db = sol.db.clone(),
            None => run.executable = false,
        }
    }
    tr.exit(root);
    Ok(run)
}

/// The oracle: a member's verdict and step count equal the catalogue's.
fn matches_catalogue(m: &SearchMember, run: &MemberRun) -> bool {
    run.executable == m.executable && run.totals.steps == m.steps
}

/// One round: every member `weight` times, in an order fixed by the seed.
fn round_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = SEARCH_MEMBERS
        .iter()
        .enumerate()
        .flat_map(|(i, m)| std::iter::repeat_n(i, m.weight as usize))
        .collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

/// Run whole rounds for one stretch, adding each run's counters to its
/// member's entry in `members`.
fn drive(order: &[usize], members: &mut [Totals], stretch: &Stretch) -> Result<Phase, String> {
    inproc::drive(stretch, order.len(), |i, tr, req| {
        let m = &SEARCH_MEMBERS[order[i]];
        let run = run_member(m, tr, req)?;
        members[order[i]].add(&run.totals);
        Ok(matches_catalogue(m, &run))
    })
}

/// Set-up: fix the round order and run every member once against the
/// catalogue, which also faults in code and interner.
fn set_up(seed: u64) -> Result<(Vec<usize>, Vec<String>), String> {
    let order = round_order(seed);
    let mut tr = Tracer::new(false, 0, Instant::now());
    let mut wrong = Vec::new();
    for m in &SEARCH_MEMBERS {
        let run = run_member(m, &mut tr, 0)?;
        if !matches_catalogue(m, &run) {
            wrong.push(format!(
                "{}: executable={} steps={}, catalogue says executable={} steps={}",
                m.name, run.executable, run.totals.steps, m.executable, m.steps
            ));
        }
    }
    Ok((order, wrong))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let ((order, wrong), setups) = set_up_repeatedly(|| set_up(ctx.seed), |_| Ok(()))?;
    report.violations = wrong;
    let mut untraced = vec![Totals::default(); SEARCH_MEMBERS.len()];
    if !ctx.trace {
        let round: Vec<&'static str> = order.iter().map(|&m| SEARCH_MEMBERS[m].name).collect();
        inproc::untraced(ctx, &mut report, &setups, &round, |stretch| {
            drive(&order, &mut untraced, stretch)
        })?;
        return Ok(report);
    }
    // The engine counters come from the traced stretches only.
    let mut members = untraced.clone();
    inproc::traced(ctx, &mut report, |stretch| {
        let totals = if stretch.traced {
            &mut members
        } else {
            &mut untraced
        };
        drive(&order, totals, stretch)
    })?;
    let mut all = Totals::default();
    for (m, t) in SEARCH_MEMBERS.iter().zip(&members) {
        let name = PER_LAYER
            .iter()
            .map(|l| l.name)
            .find(|n| n.strip_prefix("engine.solve_us.") == Some(m.name))
            .expect("catalogue test: every member has a solve metric");
        let solve_us = ratio(t.solve.as_secs_f64() * 1e6, t.solves as f64);
        report.set(name, solve_us, t.solves);
        all.add(t);
    }
    let per_solve = |count: u64| ratio(count as f64, all.solves as f64);
    report.set("engine.steps_per_solve", per_solve(all.steps), all.solves);
    report.set(
        "engine.backtracks_per_solve",
        per_solve(all.backtracks),
        all.solves,
    );
    report.set("engine.db_ops_per_solve", per_solve(all.db_ops), all.solves);
    report.set(
        "engine.steps_per_s",
        ratio(all.steps as f64, all.solve.as_secs_f64()),
        all.solves,
    );
    let lookups = all.cache_hits + all.cache_misses;
    report.set(
        "engine.cache_hit_ratio",
        ratio(all.cache_hits as f64, lookups as f64),
        lookups,
    );
    probes::run(ctx, &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_member_matches_its_catalogue_entry() {
        let (_, wrong) = set_up(1).unwrap();
        assert!(wrong.is_empty(), "{wrong:?}");
    }

    #[test]
    fn round_order_is_a_seeded_permutation_of_the_weights() {
        let a = round_order(3);
        assert_eq!(a, round_order(3));
        assert_ne!(a, round_order(4));
        for (i, m) in SEARCH_MEMBERS.iter().enumerate() {
            assert_eq!(a.iter().filter(|&&x| x == i).count(), m.weight as usize);
        }
    }
}
