//! Differential tests: the incremental materializer must be invisible in
//! every result — a materialized probe answers exactly what the lazy
//! unfolding would have, and delta-driven maintenance keeps the views in
//! lockstep with the database the search actually holds.
//!
//! Three layers of agreement, mirroring `cache_equivalence.rs`:
//!
//! 1. **Executability** — on any goal, the materialized engine (sequential
//!    and deterministic-parallel) reports the same success/failure as the
//!    plain sequential engine.
//! 2. **Final-state sets** — the explicit-state decider computes the same
//!    set of reachable final databases with and without the materializer
//!    (both directions, by content).
//! 3. **Witness identity** — the materialized engines report exactly the
//!    plain sequential engine's first witness: same answer substitution,
//!    same delta, same final database. A probe is a pure-query macro-step
//!    (no bindings, no delta), so even the committed path is unchanged.
//!
//! Those fix one rule set and generate goals. The guarantee under them —
//! a predicate gets a view only if the view answers what a call would — is
//! a property of *rules*, so one more suite generates rule sets
//! (`rule_sets_answer_alike_with_and_without_views`).
//!
//! The generated goal space churns base relations with ins/del (kept
//! acyclic so plain top-down recursion terminates), interleaves ground
//! derived queries and absence tests, and wraps subgoals in iso blocks so
//! rollback re-keying is exercised alongside forward maintenance.

mod common;

use common::{assert_same_witness, chain_closure, corpus_files};
use proptest::prelude::*;
use transaction_datalog::prelude::{
    parse_goal, parse_program, Atom, Database, Engine, EngineConfig, Goal, Pred, Program,
    SearchBackend, Term, Tuple, Value,
};

/// Reachability over an integer DAG: the canonical materializable shape
/// (one non-recursive rule, one recursive SCC) plus a negation-consuming
/// predicate, on a schema the churn generator can mutate.
const FIXTURE: &str = "base edge/2. base blocked/1.
    init edge(1, 2). init edge(2, 3). init edge(3, 4).
    path(X, Y) <- edge(X, Y).
    path(X, Z) <- edge(X, Y) * path(Y, Z).
    open(X, Y) <- path(X, Y) * not blocked(Y).";

fn fixture() -> (Program, Database) {
    let parsed = parse_program(FIXTURE).expect("fixture parses");
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).expect("init loads");
    (parsed.program, db)
}

fn plain(program: &Program) -> Engine {
    Engine::with_config(
        program.clone(),
        EngineConfig::default().with_max_steps(200_000),
    )
}

fn materialized(program: &Program) -> Engine {
    Engine::with_config(
        program.clone(),
        EngineConfig::default()
            .with_max_steps(200_000)
            .with_materialize(),
    )
}

fn materialized_parallel(program: &Program, threads: usize) -> Engine {
    Engine::with_config(
        program.clone(),
        EngineConfig::default()
            .with_max_steps(200_000)
            .with_materialize()
            .with_backend(SearchBackend::Parallel {
                threads,
                deterministic: true,
            }),
    )
}

/// Generated goal space: base churn (insertions only ever add forward
/// edges `i < j`, keeping the graph acyclic so plain top-down terminates),
/// ground derived queries and absence tests, all under every TD connective
/// including isolation (whose internal rollbacks exercise re-keying).
fn arb_churn_goal(depth: u32) -> impl Strategy<Value = Goal> {
    let pair = || (1i64..6, 1i64..6);
    let leaf = prop_oneof![
        (1i64..5).prop_flat_map(|i| {
            ((i + 1)..6).prop_map(move |j| Goal::ins("edge", vec![Term::int(i), Term::int(j)]))
        }),
        pair().prop_map(|(i, j)| Goal::del("edge", vec![Term::int(i), Term::int(j)])),
        (1i64..6).prop_map(|i| Goal::ins("blocked", vec![Term::int(i)])),
        (1i64..6).prop_map(|i| Goal::del("blocked", vec![Term::int(i)])),
        pair().prop_map(|(i, j)| Goal::atom("path", vec![Term::int(i), Term::int(j)])),
        pair().prop_map(|(i, j)| Goal::atom("open", vec![Term::int(i), Term::int(j)])),
        pair()
            .prop_map(|(i, j)| Goal::NotAtom(Atom::new("path", vec![Term::int(i), Term::int(j)]))),
        pair().prop_map(|(i, j)| Goal::atom("edge", vec![Term::int(i), Term::int(j)])),
        Just(Goal::True),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Goal::seq),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::par),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Goal::choice),
            inner.prop_map(Goal::iso),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn materialized_sequential_reports_the_plain_witness(g in arb_churn_goal(3)) {
        let (p, db) = fixture();
        let baseline = plain(&p).solve(&g, &db).unwrap();
        let engine = materialized(&p);
        prop_assert!(engine.materializer().is_some(), "fixture must compile");
        // Twice on one engine from one handle: the second run probes the
        // states the first left on `db`, the strongest maintenance test.
        for run in 0..2 {
            let got = engine.solve(&g, &db).unwrap();
            assert_same_witness(&baseline, &got, &format!("materialized seq run={run}"));
        }
    }

    #[test]
    fn materialized_deterministic_parallel_reports_the_plain_witness(g in arb_churn_goal(3)) {
        let (p, db) = fixture();
        let baseline = plain(&p).solve(&g, &db).unwrap();
        let par = materialized_parallel(&p, 4).solve(&g, &db).unwrap();
        assert_same_witness(&baseline, &par, "materialized 4-thread deterministic");
    }

    #[test]
    fn decider_final_state_sets_agree_with_and_without_materializer(g in arb_churn_goal(2)) {
        let (p, db) = fixture();
        let cfg = td_engine::decider::DeciderConfig::default();
        let bare = td_engine::decider::final_states(&p, &g, &db, cfg).unwrap();
        let engine = materialized(&p);
        prop_assert!(engine.materializer().is_some(), "fixture must compile");
        // One worker, then four filling the slots of shared versions.
        for engine in [&engine, &materialized_parallel(&p, 4)] {
            let viewed = engine.final_states(&g, &db, cfg).unwrap();
            for d in &bare {
                prop_assert!(
                    viewed.iter().any(|t| t.same_content(d)),
                    "final state lost under materialization"
                );
            }
            for d in &viewed {
                prop_assert!(
                    bare.iter().any(|t| t.same_content(d)),
                    "materialization invented a final state"
                );
            }
        }
        let pd = td_engine::decider::decide(&p, &g, &db, cfg).unwrap();
        let md = engine.decide(&g, &db, cfg).unwrap();
        prop_assert_eq!(pd.executable, md.executable);
    }
}

/// The three constants every generated rule, fact and call draws from: two
/// integers, so `<` and `is` have something to compute, and a symbol, so
/// they have something to fault on.
const DOMAIN: [&str; 3] = ["1", "2", "a"];

/// A rule variable (two draws in three) or a constant of [`DOMAIN`].
fn arb_term() -> impl Strategy<Value = &'static str> {
    (0usize..9).prop_map(|i| ["X", "Y", "Z", "X", "Y", "Z", "1", "2", "a"][i])
}

/// `name(t, …)`, every argument drawn on its own.
fn arb_atom(name: &'static str, arity: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_term(), arity)
        .prop_map(move |ts| format!("{name}({})", ts.join(", ")))
}

/// One rule over `e/2`, `t/3`, `n/1`, `b/1` and the views `p/1`, `q/1`: a
/// body of one to four literals — positive atoms (base ones three times as
/// often), base `not`, `=`, `<`, `is` — under a head drawn independently of
/// it, so parameter-only and partly bound heads, unbound `not`s and
/// builtins, and aliases bound later all occur. One body in four is three
/// atoms that share variables — one with a variable twice, one with a
/// constant — so that entered at any of them the compiler has a choice of
/// which to probe next, and by how many columns.
fn arb_rule(head: BoxedStrategy<String>) -> impl Strategy<Value = String> {
    let base = || {
        prop_oneof![
            arb_atom("e", 2),
            arb_atom("t", 3),
            arb_atom("n", 1),
            arb_atom("b", 1)
        ]
    };
    let literal = prop_oneof![
        base(),
        base(),
        base(),
        prop_oneof![arb_atom("p", 1), arb_atom("q", 1)],
        base().prop_map(|a| format!("not {a}")),
        (arb_term(), arb_term()).prop_map(|(a, b)| format!("{a} = {b}")),
        (arb_term(), arb_term()).prop_map(|(a, b)| format!("{a} < {b}")),
        (arb_term(), arb_term(), arb_term()).prop_map(|(c, a, b)| format!("{c} is {a} + {b}")),
    ];
    // At least three rules in four open with a base atom, as written rules
    // do: few of the others bind what their `not`s and builtins read.
    let first = prop_oneof![base(), base(), base(), literal.clone()];
    let drawn = (first, proptest::collection::vec(literal.clone(), 0..3))
        .prop_map(|(first, rest)| std::iter::once(first).chain(rest).collect::<Vec<String>>());
    let var = || (0usize..3).prop_map(|i| ["X", "Y", "Z"][i]);
    let joined = (
        (var(), var(), 0usize..3),
        prop_oneof![arb_atom("e", 2), arb_atom("p", 1), arb_atom("q", 1)],
        proptest::collection::vec(literal, 0..2),
        0usize..6,
    )
        .prop_map(|((v, w, c), mid, test, order)| {
            let atoms = [
                format!("t({v}, {v}, {w})"),
                mid,
                format!("e({w}, {})", DOMAIN[c]),
            ];
            let (i, j) = (order / 2, (order / 2 + 1 + order % 2) % 3);
            let body = [i, j, 3 - i - j].map(|k| atoms[k].clone());
            body.into_iter().chain(test).collect::<Vec<String>>()
        });
    (
        head,
        prop_oneof![drawn.clone(), drawn.clone(), drawn, joined],
    )
        .prop_map(|(head, body)| format!("{head} <- {}.", body.join(" * ")))
}

/// Two to four rules: one for `p`, one for `q` (bodies may call both), the
/// others for either or for the binary `r`.
fn arb_rule_set() -> impl Strategy<Value = Vec<String>> {
    let any_head = prop_oneof![arb_atom("p", 1), arb_atom("q", 1), arb_atom("r", 2)];
    (
        arb_rule(arb_atom("p", 1).boxed()),
        arb_rule(arb_atom("q", 1).boxed()),
        proptest::collection::vec(arb_rule(any_head.boxed()), 0..3),
    )
        .prop_map(|(p, q, mut more)| {
            more.extend([p, q]);
            more
        })
}

/// A ground base atom: `(relation, argument, argument, argument)`, each
/// relation taking as many as it has columns.
fn arb_fact() -> impl Strategy<Value = String> {
    (0usize..5, 0usize..3, 0usize..3, 0usize..3).prop_map(|(rel, x, y, z)| match rel {
        0 => format!("e({}, {})", DOMAIN[x], DOMAIN[y]),
        1 | 2 => format!("t({}, {}, {})", DOMAIN[x], DOMAIN[y], DOMAIN[z]),
        3 => format!("n({})", DOMAIN[x]),
        _ => format!("b({})", DOMAIN[x]),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The selection rule itself under fuzz: over random *rule sets*, every
    /// ground call of every view predicate answers the same with and
    /// without the materializer, on the initial database and behind a
    /// random `ins`/`del` maintained from it. Where the plain engine gives
    /// no verdict — it flounders, faults on `a < 2`, or loops into its step
    /// budget — a view does not reproduce that (docs/INCREMENTAL.md, "What
    /// a view does not reproduce"): a call on a materialized predicate never
    /// errs, it answers what the rules derive bottom-up, the faulting
    /// instance being no derivation. And on the same rule sets the two
    /// one-shot evaluators, `datalog::query` and `magic::answer`, agree.
    #[test]
    fn rule_sets_answer_alike_with_and_without_views(
        rules in arb_rule_set(),
        init in proptest::collection::vec(arb_fact(), 0..9),
        change in (any::<bool>(), arb_fact()),
    ) {
        let facts: Vec<String> = init.iter().map(|f| format!("init {f}.")).collect();
        let source = format!("base e/2. base t/3. base n/1. base b/1.\n{}\n{}", facts.join(" "), rules.join("\n"));
        let parsed = parse_program(&source).unwrap_or_else(|e| panic!("{}", e.render(&source)));
        let program = &parsed.program;
        let db = Database::with_schema_of(program);
        let db = td_engine::load_init(&db, &parsed.init).expect("init loads");
        let config = EngineConfig::default().with_max_steps(400);
        let plain = Engine::with_config(program.clone(), config.clone());
        let mat = Engine::with_config(program.clone(), config.with_materialize());
        let update = format!("{}.{}", if change.0 { "ins" } else { "del" }, change.1);
        let update = parse_goal(&update, program).expect("update parses").goal;
        let after = plain.solve(&update, &db).unwrap().solution().expect("updates succeed").db.clone();
        let value = |c: &str| c.parse().map_or_else(|_| Term::sym(c), Term::int);
        let calls: Vec<Atom> = DOMAIN
            .iter()
            .flat_map(|x| {
                let binary = DOMAIN.iter().map(move |y| Atom::new("r", vec![value(x), value(y)]));
                binary.chain(["p", "q"].map(|v| Atom::new(v, vec![value(x)])))
            })
            .filter(|call| program.is_derived(call.pred))
            .collect();
        // The initial database first, which seeds its views; then each call
        // behind the update, which maintains them.
        for (prefix, at) in [(None, &db), (Some(&update), &after)] {
            for call in &calls {
                let goal = Goal::seq(prefix.cloned().into_iter().chain([Goal::Atom(call.clone())]).collect());
                let expected = plain.solve(&goal, &db).map(|o| o.is_success());
                let got = || mat.solve(&goal, &db).map(|o| o.is_success());
                let viewed = mat.materializer().is_some_and(|m| m.is_materialized(call.pred));
                match expected {
                    Ok(verdict) => prop_assert_eq!(got(), Ok(verdict), "{}\n?- {}", source, goal),
                    Err(_) if viewed => {
                        let bottom_up = td_engine::datalog::evaluate(program, at).unwrap().holds(call);
                        prop_assert_eq!(got(), Ok(bottom_up), "{}\n?- {}", source, goal);
                    }
                    // Unfolded on both sides, but through different
                    // sub-calls once one of them is a probe: no claim, so
                    // no second run into the budget (a left-recursive call
                    // costs it squared, the goal growing by a body a step).
                    Err(_) => {}
                }
            }
            // A view's rules, and those of everything it reads, are live:
            // there the magic-sets rewrite of a call (bound, half bound or
            // open) derives what the whole fixpoint holds for it — the two
            // one-shot runs enter the same rules, each tuple of a round
            // first, guarded and unguarded.
            let viewed = |call: &Atom| mat.materializer().is_some_and(|m| m.is_materialized(call.pred));
            let open = calls.iter().flat_map(|call| {
                (0..call.args.len()).map(|free| {
                    let mut call = call.clone();
                    call.args[free] = Term::var(0);
                    call
                })
            });
            for query in calls.iter().cloned().chain(open).filter(viewed) {
                let whole = td_engine::datalog::query(program, at, &query).unwrap();
                let magic = td_engine::magic::answer(program, at, &query).unwrap().0;
                prop_assert_eq!(magic, whole, "{}\n?- {}", source, query);
            }
        }
    }
}

/// Deterministic regression: an isolated block whose branch mutates the
/// graph and then fails must leave no trace in the materialized views —
/// the follow-up absence test probes the rolled-back state, and the
/// re-applied insertion then flips the same query to true.
#[test]
fn isolation_rollback_probes_the_rolled_back_state() {
    let (p, db) = fixture();
    let ins45 = Goal::ins("edge", vec![Term::int(4), Term::int(5)]);
    let path15 = Goal::atom("path", vec![Term::int(1), Term::int(5)]);
    let fail = Goal::choice(vec![]);
    let g = Goal::seq(vec![
        // Seed the initial state's views first (the store is lazy until a
        // probe lands), so the updates below maintain rather than rebuild.
        Goal::atom("path", vec![Term::int(1), Term::int(4)]),
        Goal::iso(Goal::choice(vec![
            Goal::seq(vec![ins45.clone(), path15.clone(), fail]),
            Goal::True,
        ])),
        Goal::NotAtom(Atom::new("path", vec![Term::int(1), Term::int(5)])),
        ins45,
        path15,
    ]);
    let baseline = plain(&p).solve(&g, &db).unwrap();
    assert!(baseline.is_success(), "fixture goal must be executable");
    let engine = materialized(&p);
    let got = engine.solve(&g, &db).unwrap();
    assert_same_witness(&baseline, &got, "rollback churn");
    let m = engine.materializer().expect("fixture must compile");
    assert!(m.probes() > 0, "derived queries must hit the views");
    assert!(
        m.maintained_ops() > 0,
        "committed deltas must be maintained"
    );
}

/// Ins/del-heavy churn threaded across goals like `td run`: one warm
/// materializer maintains its states through a long transaction sequence,
/// and every witness stays identical to the plain engine's.
#[test]
fn churn_sequence_threads_identical_state() {
    let (p, db) = fixture();
    let plain_engine = plain(&p);
    let mat_engine = materialized(&p);
    let goals = [
        Goal::seq(vec![
            Goal::ins("edge", vec![Term::int(4), Term::int(5)]),
            Goal::atom("path", vec![Term::int(1), Term::int(5)]),
        ]),
        Goal::seq(vec![
            Goal::del("edge", vec![Term::int(2), Term::int(3)]),
            Goal::NotAtom(Atom::new("path", vec![Term::int(1), Term::int(5)])),
        ]),
        Goal::seq(vec![
            Goal::ins("blocked", vec![Term::int(5)]),
            Goal::ins("edge", vec![Term::int(2), Term::int(3)]),
            Goal::atom("path", vec![Term::int(1), Term::int(5)]),
            Goal::NotAtom(Atom::new("open", vec![Term::int(1), Term::int(5)])),
        ]),
        Goal::seq(vec![
            Goal::del("blocked", vec![Term::int(5)]),
            Goal::atom("open", vec![Term::int(1), Term::int(5)]),
        ]),
    ];
    let mut plain_db = db.clone();
    let mut mat_db = db;
    for (i, g) in goals.iter().enumerate() {
        let a = plain_engine.solve(g, &plain_db).unwrap();
        let b = mat_engine.solve(g, &mat_db).unwrap();
        assert_same_witness(&a, &b, &format!("churn goal {i}"));
        assert!(a.is_success(), "churn goal {i} must be executable");
        plain_db = a.solution().unwrap().db.clone();
        mat_db = b.solution().unwrap().db.clone();
    }
    let m = mat_engine.materializer().expect("fixture must compile");
    assert!(m.probes() > 0);
    assert!(m.maintained_ops() > 0);
    // The exact work of this fixed sequence: the counts tdbench's
    // `engine.mat_*` metrics are computed from, and the evidence that a
    // change to the evaluator still does the same joins. (The last goal's
    // `del.blocked(5)` lands on the content of the first goal's result. That
    // version is gone and its views with it, so the op is maintained like
    // any other; while views were kept by content digest it was skipped, and
    // the last two counts read 3 and 24. While every `ins`/`del` was
    // maintained as it happened, the third goal's two ops were two passes,
    // and `delta_tuples` read 28: `ins.blocked(5)` took `open(_, 5)` away
    // only for `ins.edge(2, 3)` to bring back the paths the second goal had
    // cut. One pass over the transaction's net events makes none of those
    // intermediate moves.)
    let counted: Vec<(&str, u64)> = m
        .counters()
        .into_iter()
        .filter(|(k, _)| ["probes", "rebuilds", "maintained_ops", "delta_tuples"].contains(k))
        .collect();
    assert_eq!(
        counted,
        [
            ("probes", 3),
            ("rebuilds", 1),
            ("maintained_ops", 4),
            ("delta_tuples", 8)
        ]
    );
}

/// Every corpus goal: the materialized sequential engine and the
/// materialized deterministic-parallel engine reproduce the plain
/// sequential witness exactly. Programs without a materializable fragment
/// simply run with `materializer() == None` — the flag must be a no-op
/// there, which this sweep also checks.
#[test]
fn corpus_materialized_matches_plain() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_program(&src)
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
        let db = Database::with_schema_of(&parsed.program);
        let mut db = td_engine::load_init(&db, &parsed.init).unwrap();
        let plain_engine = plain(&parsed.program);
        let mat_engine = materialized(&parsed.program);
        let par_engine = materialized_parallel(&parsed.program, 4);
        for (i, g) in parsed.goals.iter().enumerate() {
            let baseline = plain_engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{} goal {i}: {e}", path.display()));
            let seq = mat_engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{} goal {i} (mat): {e}", path.display()));
            assert_same_witness(
                &baseline,
                &seq,
                &format!("{} goal {i} (materialized seq)", path.display()),
            );
            let par = par_engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{} goal {i} (mat par): {e}", path.display()));
            assert_same_witness(
                &baseline,
                &par,
                &format!("{} goal {i} (materialized 4t det)", path.display()),
            );
            if let Some(sol) = baseline.solution() {
                db = sol.db.clone();
            }
        }
    }
}

/// A version's views live as long as a handle to the version does, however
/// far the lineage has moved on: seed the root by a probe, keep its handle,
/// push 5 000 effective updates through the same engine from it — every one
/// to content not seen before — and the root's views are still the ones that
/// probe built. (While views were kept in a store of the last 4 096
/// versions, the root had been evicted by then and the second probe rebuilt
/// it: `rebuilds == 2`.) Nothing asks in between, so nothing is maintained
/// until the last version is probed, and then all 5 000 ops in one pass
/// from the root. (While each op was maintained as it happened,
/// `maintained_ops` read 5 000 before that probe.)
#[test]
fn a_kept_version_keeps_its_views_however_long_the_lineage() {
    let (p, root) = fixture();
    let engine = materialized(&p);
    let m = engine.materializer().expect("fixture must compile");
    let query = Goal::atom("path", vec![Term::int(1), Term::int(4)]);
    assert!(engine.executable(&query, &root).unwrap());
    // 2 501 edges off to the side come, then all but two go, oldest first.
    let side = |i: i64| vec![Term::int(1000 + 2 * i), Term::int(1001 + 2 * i)];
    let ops = (0..2_501).map(|i| Goal::ins("edge", side(i)));
    let ops = ops.chain((0..2_499).map(|i| Goal::del("edge", side(i))));
    let mut db = root.clone();
    for op in ops {
        db = engine
            .solve(&op, &db)
            .unwrap()
            .solution()
            .unwrap()
            .db
            .clone();
    }
    assert_eq!(m.maintained_ops(), 0, "no probe, no pass");
    assert!(engine.executable(&query, &db).unwrap() && !db.same_content(&root));
    assert_eq!(m.maintained_ops(), 5_000, "every op, in the one pass");
    assert!(engine.executable(&query, &root).unwrap());
    assert_eq!(m.rebuilds(), 1, "the root's views were kept with the root");
}

/// The named counters of `engine`'s materializer.
fn counted(engine: &Engine, key: &str) -> u64 {
    let m = engine.materializer().expect("fixture must compile");
    m.counters().into_iter().find(|c| c.0 == key).unwrap().1
}

/// A transaction's updates are maintained together, when its result is
/// first asked about: one pass over the net events, not one per op.
#[test]
fn one_transaction_makes_one_pass() {
    let (p, db) = fixture();
    let engine = materialized(&p);
    let goal = |text: &str| parse_goal(text, &p).unwrap().goal;
    let run = |text: &str, db: &Database| {
        let out = engine.solve(&goal(text), db).unwrap();
        out.solution().expect("succeeds").db.clone()
    };
    let counts = || {
        (
            counted(&engine, "maintained_ops"),
            counted(&engine, "delta_tuples"),
        )
    };
    let db = run("path(1, 4)", &db);
    // An edge taken away and put back within one transaction, then asked
    // about in it: the pass finds no event, and no view tuple moves.
    let db = run("del.edge(1, 2) * ins.edge(1, 2) * path(1, 2)", &db);
    assert_eq!(counts(), (2, 0));
    // tdbench's shape: an edge cut, another added, then a question. Cutting
    // 3 → 4 and adding 2 → 4 takes `path(3, 4)` and `open(3, 4)` away and
    // keeps the paths into 4 from 1 and 2. Maintained op by op, the cut
    // would take those two too (with their `open`s) for the addition to
    // bring them back: ten moves where one pass makes two.
    let db = run("del.edge(3, 4) * ins.edge(2, 4)", &db);
    assert_eq!(counts(), (2, 0), "nothing asked yet");
    assert!(engine.executable(&goal("path(1, 4)"), &db).unwrap());
    assert!(!engine.executable(&goal("path(3, 4)"), &db).unwrap());
    assert_eq!(counts(), (4, 2));
    assert_eq!(counted(&engine, "rebuilds"), 1);
}

/// The fixture's views over nodes 1 to 5, read off the stored `edge` and
/// `blocked` tuples by Warshall's closure — an oracle that shares no code
/// with either engine: `(path, open)`, each sorted.
fn fixture_model(db: &Database) -> [Vec<(i64, i64)>; 2] {
    let int = |i: usize| Value::Int(i as i64 + 1);
    let has = |name: &str, ix: &[usize]| {
        let t = Tuple::new(ix.iter().map(|&i| int(i)).collect());
        db.contains(Pred::new(name, ix.len() as u32), &t)
    };
    let mut c = [[false; 5]; 5];
    for (i, j) in (0..25).map(|x| (x / 5, x % 5)) {
        c[i][j] = has("edge", &[i, j]);
    }
    for (k, i, j) in (0..125).map(|x| (x / 25, x / 5 % 5, x % 5)) {
        c[i][j] |= c[i][k] && c[k][j];
    }
    let pairs = |keep: &dyn Fn(usize, usize) -> bool| {
        (0..25)
            .map(|x| (x / 5, x % 5))
            .filter(|&(i, j)| c[i][j] && keep(i, j))
            .map(|(i, j)| (i as i64 + 1, j as i64 + 1))
            .collect()
    };
    [pairs(&|_, _| true), pairs(&|_, j| !has("blocked", &[j]))]
}

/// Editing a state in place never changes a version someone still holds.
/// Random transactions through the engine, some of their results kept the
/// way a choicepoint keeps them and probed only after descendants of theirs
/// were maintained — from them, or past them from an older ancestor — and
/// every probed version's views against the model and the plain engine.
#[test]
fn kept_versions_keep_their_views_while_descendants_are_edited_in_place() {
    let (p, root) = fixture();
    let (plain, engine) = (plain(&p), materialized(&p));
    let m = engine.materializer().expect("fixture must compile");
    let views = [Pred::new("path", 2), Pred::new("open", 2)];
    let check = |db: &Database, what: &str| {
        let model = fixture_model(db);
        for (view, expect) in views.iter().zip(&model) {
            let got: Vec<(i64, i64)> = (m.facts(db, *view).iter())
                .map(|t| match t.values() {
                    [Value::Int(x), Value::Int(y)] => (*x, *y),
                    other => panic!("{other:?}"),
                })
                .collect();
            assert_eq!(&got, expect, "{view} at {what}");
            for (x, y) in expect.iter().take(3) {
                let call = Goal::atom(view.name.as_str(), vec![Term::int(*x), Term::int(*y)]);
                assert!(plain.executable(&call, db).unwrap(), "{call} at {what}");
            }
        }
    };
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    check(&root, "the root");
    let mut db = root;
    let mut kept: Vec<(usize, Database)> = Vec::new();
    for step in 0..300 {
        // One to three updates; an inserted edge points forward, so plain
        // top-down terminates.
        let updates: Vec<Goal> = (0..1 + rng(3))
            .map(|_| {
                let (i, j) = (1 + rng(4) as i64, rng(5) as i64 + 1);
                match rng(6) {
                    0 => Goal::ins("blocked", vec![Term::int(j)]),
                    1 => Goal::del("blocked", vec![Term::int(j)]),
                    2 | 3 => Goal::del("edge", vec![Term::int(i), Term::int(j)]),
                    _ => {
                        let j = j.max(i + 1);
                        Goal::ins("edge", vec![Term::int(i), Term::int(j)])
                    }
                }
            })
            .collect();
        let out = engine.solve(&Goal::seq(updates), &db).unwrap();
        db = out.solution().expect("updates succeed").db.clone();
        if rng(3) == 0 {
            kept.push((step, db.clone()));
        }
        if kept.len() > 6 {
            let (at, old) = kept.swap_remove(rng(kept.len() as u64) as usize);
            check(&old, &format!("kept step {at}"));
        }
        if rng(4) != 0 {
            check(&db, &format!("step {step}"));
        }
    }
    for (at, old) in &kept {
        check(old, &format!("kept step {at}"));
    }
    assert_eq!(m.rebuilds(), 1, "every version maintained from another");
    assert!(m.maintained_ops() > 150, "{}", m.maintained_ops());
}

/// Two materializing engines with different rules over one database value,
/// their solves interleaved from the same handles: each finds its own views
/// on a version, never the other's, and answers as its own plain engine.
#[test]
fn two_programs_over_one_database_value_keep_their_views_apart() {
    let (forward, db) = fixture();
    // The same schema and the same view names, read the other way round.
    let backward = parse_program(
        "base edge/2. base blocked/1.
         path(X, Y) <- edge(Y, X).
         path(X, Z) <- edge(Y, X) * path(Y, Z).
         open(X, Y) <- path(X, Y) * not blocked(X).",
    )
    .expect("parses")
    .program;
    let engines = [
        (plain(&forward), materialized(&forward)),
        (plain(&backward), materialized(&backward)),
    ];
    let ground = |view: &str, x: i64, y: i64| Goal::atom(view, vec![Term::int(x), Term::int(y)]);
    let updates = [
        Goal::True,
        Goal::ins("edge", vec![Term::int(4), Term::int(5)]),
        Goal::ins("blocked", vec![Term::int(1)]),
        Goal::del("edge", vec![Term::int(2), Term::int(3)]),
    ];
    let mut db = db;
    for (round, update) in updates.iter().enumerate() {
        // The update goes through one engine, the questions through both.
        let through = &engines[round % 2].1;
        db = through
            .solve(update, &db)
            .unwrap()
            .solution()
            .unwrap()
            .db
            .clone();
        for (x, y) in [(1, 4), (4, 1), (1, 5), (5, 1), (3, 2), (2, 3)] {
            for view in ["path", "open"] {
                for (plain, mat) in &engines {
                    let q = ground(view, x, y);
                    let expect = plain.executable(&q, &db).unwrap();
                    assert_eq!(
                        mat.executable(&q, &db).unwrap(),
                        expect,
                        "{q} in round {round}"
                    );
                }
            }
        }
    }
    for (_, mat) in &engines {
        let m = mat.materializer().expect("both compile");
        assert!(m.probes() > 0 && m.state_hits() > 0 && m.maintained_ops() > 0);
    }
}

/// Total wall time of `k` solves of `goal` on `db`.
fn time_solves(engine: &Engine, goal: &Goal, db: &Database, k: usize) -> std::time::Duration {
    let start = std::time::Instant::now();
    for _ in 0..k {
        assert!(engine.executable(goal, db).unwrap());
    }
    start.elapsed()
}

/// EXPERIMENTS.md E18 fixture: a 256-node chain whose closure views were
/// seeded on the initial state and then maintained through a small base
/// delta pushed through the engine — not rebuilt on the post state — with
/// one warm lap of the ground end-to-end reachability query on each engine.
/// Returns `(plain, materialized, query, post-delta db)`.
fn warm_chain() -> (Engine, Engine, Goal, Database) {
    const NODES: usize = 256;
    let (program, db) = chain_closure(NODES, 0);
    let query = Goal::atom(
        "path",
        vec![Term::sym("n0"), Term::sym(&format!("n{}", NODES - 1))],
    );
    let plain = Engine::new(program.clone());
    let mat = Engine::with_config(program, EngineConfig::default().with_materialize());

    assert!(mat.executable(&query, &db).unwrap());
    let churn = Goal::seq(vec![
        Goal::ins("e", vec![Term::sym("n0"), Term::sym("n2")]),
        query.clone(),
    ]);
    let sol = mat.solve(&churn, &db).unwrap();
    let db = sol.solution().expect("churn goal succeeds").db.clone();
    let m = mat.materializer().expect("chain program materializes");
    assert!(m.maintained_ops() > 0, "the delta must be maintained");

    assert!(mat.executable(&query, &db).unwrap());
    assert!(plain.executable(&query, &db).unwrap());
    (plain, mat, query, db)
}

/// E18, structural half: warm re-queries are state-hit probes — the views
/// are neither cold nor rebuilt.
#[test]
fn warm_materialized_requery_is_a_state_hit() {
    let (_, mat, query, db) = warm_chain();
    let m = mat.materializer().unwrap();
    let (probes, state_hits, rebuilds) = (m.probes(), m.state_hits(), m.rebuilds());
    time_solves(&mat, &query, &db, 200);
    assert!(
        m.probes() > probes && m.state_hits() > state_hits && m.rebuilds() == rebuilds,
        "warm re-queries must be answered by state-hit probes \
         (probes={}, state_hits={}, rebuilds={})",
        m.probes(),
        m.state_hits(),
        m.rebuilds()
    );
}

/// E18, timing half: those probes are at least 5x faster than the uncached
/// top-down search. The margin is wide by construction (an index lookup
/// against a walk of the whole chain; ~500x measured), so a failure means
/// the probe path regressed — wrong gating, cold states on every query,
/// maintenance falling back to rebuilds — not noise. Still a wall-clock
/// ratio, so like the other load gates it runs in release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore = "load gate: run with --release")]
fn warm_materialized_requery_beats_topdown() {
    let (plain, mat, query, db) = warm_chain();
    let t_mat = time_solves(&mat, &query, &db, 200);
    let t_plain = time_solves(&plain, &query, &db, 200);
    assert!(
        t_mat * 5 <= t_plain,
        "materialized warm re-query must be >= 5x faster than uncached \
         top-down: materialized {t_mat:?}, top-down {t_plain:?}"
    );
}

/// A rule-dependency chain far deeper than any thread stack is for:
/// compiling it is a walk over the call graph (`td_core::analysis::sccs`,
/// an explicit-stack Tarjan), so it must not recurse once per predicate.
/// On the half-megabyte stack below, a recursive walk overflows — which
/// aborts the test binary — well before 20 000 frames.
#[test]
fn deep_rule_chain_compiles_on_a_small_stack() {
    const N: usize = 20_000;
    let mut source = String::from("base e/1.\n");
    for i in 0..N {
        source.push_str(&format!("p{i}(X) <- p{}(X).\n", i + 1));
    }
    source.push_str(&format!("p{N}(X) <- e(X).\n"));
    let program = parse_program(&source).unwrap().program;
    let views = std::thread::Builder::new()
        .stack_size(512 << 10)
        .spawn(move || {
            let mat = td_engine::Materializer::compile(&program).expect("a chain materializes");
            mat.materialized_preds().len()
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(views, N + 1);
}
