//! `SearchBackend::Parallel`: [`crate::Engine::solve`] on the
//! explicit-state search ([`crate::search`]).
//!
//! TD's `|` is *semantic* concurrency: processes interleave at
//! elementary-step granularity and the engine must find whether **some**
//! interleaving succeeds. That search — not the object-level processes —
//! is what the worker threads share. This entry point takes the search in
//! the sequential machine's order (successor 0 first) and stops at the
//! first success, or — in deterministic mode — at the label-minimal one,
//! which *is* the sequential machine's first witness: same answer, final
//! database and delta as `SearchBackend::Sequential` (golden tests rely on
//! this).
//!
//! The step budget is shared: each configuration expansion counts as one
//! step against `EngineConfig::max_steps`. That is a coarser unit than the
//! sequential machine's elementary step, so budgets are comparable but not
//! identical across backends.

use crate::config::EngineError;
use crate::engine::{Outcome, Solution};
use crate::search::{Found, Search, Stop};
use crate::trace::{SpanPhase, Trace, TraceEvent};
use td_core::Goal;
use td_db::Database;

/// Run `search` — the engine's kernel, observer, worker count, step budget
/// and stopping rule — for one committed execution of `goal`. The hot path
/// emits no per-probe events; the registry absorbs the workers' merged
/// batch once, after they join.
pub(crate) fn solve(
    search: Search<'_>,
    goal: &Goal,
    db: &Database,
) -> Result<Outcome, EngineError> {
    if let Some(o) = &search.obs {
        o.emit(None, || TraceEvent::SpanEnter {
            phase: SpanPhase::Solve,
            detail: goal.to_string(),
        });
    }
    let Found {
        mut successes,
        fault,
        exhausted,
        work,
    } = search.run(goal, db);
    let stats = work.stats;
    if let Some(o) = &search.obs {
        o.registry
            .absorb(search.kernel.program, &stats, &work.local);
        o.registry.add_counter("worker_claims", work.claims);
        o.registry.add_counter("worker_steals", work.steals);
        o.emit(None, || TraceEvent::SpanExit {
            phase: SpanPhase::Solve,
            detail: format!("workers={} steps={}", search.workers, stats.steps),
        });
    }
    if let Some(e) = fault {
        return Err(e);
    }
    let best = successes.pop();
    // A budget hit invalidates a deterministic run even when a success was
    // found: without exhausting the (pruned) space, the recorded witness is
    // not yet *proven* minimal, and returning it would silently break the
    // same-witness-as-sequential contract. Fast mode keeps any success it
    // found — any witness is valid there.
    if exhausted && (search.stop == Stop::Minimal || best.is_none()) {
        return Err(EngineError::StepBudget { steps: stats.steps });
    }
    Ok(match best {
        Some(w) => Outcome::Success(Box::new(Solution {
            delta: w.delta(),
            db: w.cfg.db,
            answer: w.cfg.answer,
            reads: work.reads,
            stats,
            trace: Trace { events: Vec::new() },
        })),
        None => Outcome::Failure { stats },
    })
}

#[cfg(test)]
mod tests {
    use crate::config::{EngineConfig, EngineError, SearchBackend};
    use crate::engine::{load_init, Engine};
    use td_db::Database;
    use td_parser::parse_program;

    fn backends(threads: usize, deterministic: bool) -> (EngineConfig, EngineConfig) {
        (
            EngineConfig::default(),
            EngineConfig::default().with_backend(SearchBackend::Parallel {
                threads,
                deterministic,
            }),
        )
    }

    fn setup(src: &str) -> (td_core::Program, Database, Vec<td_core::Goal>) {
        let parsed = parse_program(src).expect("test program parses");
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).expect("init loads");
        let goals = parsed.goals.iter().map(|g| g.goal.clone()).collect();
        (parsed.program, db, goals)
    }

    const TRANSFER: &str = "
        base bal/2.
        init bal(a, 10). init bal(b, 0).
        move(F, T, N) <- bal(F, X) * X >= N * del.bal(F, X)
            * Y is X - N * ins.bal(F, Y)
            * bal(T, Z) * del.bal(T, Z) * W is Z + N * ins.bal(T, W).
        ?- move(a, b, 4) | move(a, b, 6).
    ";

    #[test]
    fn parallel_agrees_on_success() {
        let (program, db, goals) = setup(TRANSFER);
        let (seq_cfg, par_cfg) = backends(4, false);
        let seq = Engine::with_config(program.clone(), seq_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let par = Engine::with_config(program, par_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        assert!(seq.is_success());
        assert!(par.is_success());
        assert!(seq
            .solution()
            .unwrap()
            .db
            .same_content(&par.solution().unwrap().db));
    }

    #[test]
    fn parallel_agrees_on_failure() {
        let src = "
            base flag/1.
            init flag(up).
            toggle <- del.flag(up) * ins.flag(down).
            ?- toggle * flag(up).
        ";
        let (program, db, goals) = setup(src);
        let (seq_cfg, par_cfg) = backends(4, false);
        let seq = Engine::with_config(program.clone(), seq_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let par = Engine::with_config(program, par_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        assert!(!seq.is_success());
        assert!(!par.is_success());
    }

    #[test]
    fn deterministic_mode_matches_sequential_witness() {
        // Several distinct successful executions with different answers
        // and different deltas: the deterministic parallel backend must
        // report exactly the sequential engine's first witness.
        let src = "
            base item/1.
            init item(1). init item(2). init item(3).
            take(X) <- item(X) * del.item(X).
            ?- take(X) | take(Y).
        ";
        let (program, db, goals) = setup(src);
        let (seq_cfg, par_cfg) = backends(4, true);
        let seq = Engine::with_config(program.clone(), seq_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let par = Engine::with_config(program, par_cfg)
            .solve(&goals[0], &db)
            .unwrap();
        let (s, p) = (seq.solution().unwrap(), par.solution().unwrap());
        assert_eq!(s.answer, p.answer);
        assert_eq!(s.delta.ops(), p.delta.ops());
        assert!(s.db.same_content(&p.db));
    }

    #[test]
    fn parallel_step_budget_errors_not_fails() {
        let src = "
            base n/1.
            init n(0).
            spin <- n(X) * del.n(X) * Y is X + 1 * ins.n(Y) * spin.
            ?- spin.
        ";
        let (program, db, goals) = setup(src);
        let cfg =
            EngineConfig::default()
                .with_max_steps(200)
                .with_backend(SearchBackend::Parallel {
                    threads: 4,
                    deterministic: false,
                });
        let got = Engine::with_config(program, cfg).solve(&goals[0], &db);
        assert!(matches!(got, Err(EngineError::StepBudget { .. })));
    }

    #[test]
    fn single_worker_parallel_backend_works() {
        let (program, db, goals) = setup(TRANSFER);
        let cfg = EngineConfig::default().with_backend(SearchBackend::Parallel {
            threads: 1,
            deterministic: false,
        });
        let got = Engine::with_config(program, cfg)
            .solve(&goals[0], &db)
            .unwrap();
        assert!(got.is_success());
    }
}
