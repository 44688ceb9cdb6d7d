//! Magic-sets transformation for the Datalog core.
//!
//! §6 of the paper notes that insert-free TD "is essentially classical
//! Datalog … As such, well-known optimization techniques (such as magic
//! sets or tabling) can be applied." This module supplies the magic-sets
//! side of that remark as a pure program rewrite: given a Datalog-evaluable
//! program (see [`crate::datalog::is_datalog`]) and a query atom with some
//! arguments bound, [`rewrite`] produces a program whose bottom-up
//! evaluation only derives facts *relevant* to the query. It has no
//! evaluator of its own — [`answer`] hands the rewritten program to
//! [`crate::datalog::evaluate`].
//!
//! The rewriting is the textbook one with left-to-right sideways
//! information passing:
//!
//! * predicates are *adorned* with a bound/free pattern (`path@bf`);
//! * each adorned rule is guarded by a `magic@path@bf(..)` magic atom over
//!   its bound head arguments;
//! * each derived body atom contributes a magic rule that passes the
//!   bindings available to its left;
//! * the query seeds `magic@path@bf(..)` with its bound constants.
//!
//! The generated names contain `@`, which the lexer rejects, so they cannot
//! collide with a predicate of the source program.
//!
//! [`answer`] returns the same tuples as [`crate::datalog::query`], usually
//! after far fewer derivations (the benchmark E11 measures the difference).

use crate::datalog::{self, Lit, NotDatalog};
use std::collections::{HashSet, VecDeque};
use td_core::{Atom, Goal, Pred, Program, Rule, Term, Var};
use td_db::{Database, Tuple};

/// A bound/free adornment, one flag per argument position.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Adornment(pub Vec<bool>);

impl Adornment {
    fn suffix(&self) -> String {
        self.0.iter().map(|b| if *b { 'b' } else { 'f' }).collect()
    }

    fn of_atom(atom: &Atom, bound: &HashSet<Var>) -> Adornment {
        Adornment(
            atom.args
                .iter()
                .map(|t| match t {
                    Term::Val(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .collect(),
        )
    }
}

/// The rewritten program plus the name of the adorned query predicate.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    pub program: Program,
    /// The adorned predicate holding the query's answers.
    pub answer_pred: Pred,
    /// The magic seed fact's predicate.
    pub magic_seed: Pred,
}

fn adorned_name(pred: Pred, ad: &Adornment) -> String {
    format!("{}@{}", pred.name, ad.suffix())
}

fn magic_name(pred: Pred, ad: &Adornment) -> String {
    format!("magic@{}@{}", pred.name, ad.suffix())
}

fn bound_args(atom: &Atom, ad: &Adornment) -> Vec<Term> {
    atom.args
        .iter()
        .zip(&ad.0)
        .filter(|(_, b)| **b)
        .map(|(t, _)| *t)
        .collect()
}

/// Rewrite `program` for `query`. Errors if the program is not
/// Datalog-evaluable.
pub fn rewrite(program: &Program, query: &Atom) -> Result<MagicProgram, NotDatalog> {
    datalog::is_datalog(program)?;
    if !program.is_derived(query.pred) {
        return Err(NotDatalog {
            reason: format!("query predicate `{}` has no rules", query.pred),
        });
    }

    let query_ad = Adornment::of_atom(query, &HashSet::new());
    let mut builder = Program::builder();
    for p in program.base_preds() {
        builder = builder.base_pred(p.name.as_str(), p.arity);
    }

    // Worklist of adorned derived predicates to process.
    let mut seen: HashSet<(Pred, Adornment)> = HashSet::new();
    let mut queue: VecDeque<(Pred, Adornment)> = VecDeque::new();
    queue.push_back((query.pred, query_ad.clone()));
    seen.insert((query.pred, query_ad.clone()));

    while let Some((pred, ad)) = queue.pop_front() {
        let magic_pred_name = magic_name(pred, &ad);
        let adorned_pred_name = adorned_name(pred, &ad);
        for &rid in program.rules_for(pred) {
            let rule = program.rule(rid);
            // Bound head variables seed the sideways information passing.
            let mut bound: HashSet<Var> = rule
                .head
                .args
                .iter()
                .zip(&ad.0)
                .filter(|(_, b)| **b)
                .filter_map(|(t, _)| t.as_var())
                .collect();

            let guard = Atom::new(&magic_pred_name, bound_args(&rule.head, &ad));
            let mut new_body: Vec<Goal> = vec![Goal::Atom(guard)];
            for lit in datalog::flatten_rule(rule)?.body {
                new_body.push(match lit {
                    Lit::Atom(a) if program.is_derived(a.pred) => {
                        let sub_ad = Adornment::of_atom(&a, &bound);
                        if seen.insert((a.pred, sub_ad.clone())) {
                            queue.push_back((a.pred, sub_ad.clone()));
                        }
                        // Magic rule: m_q^ad(bound args of a) <- the body so far.
                        let m_head =
                            Atom::new(&magic_name(a.pred, &sub_ad), bound_args(&a, &sub_ad));
                        builder = builder.rule(Rule::new(m_head, Goal::seq(new_body.clone())));
                        bound.extend(a.vars());
                        // Rewritten occurrence: the adorned predicate.
                        Goal::Atom(Atom::new(&adorned_name(a.pred, &sub_ad), a.args))
                    }
                    Lit::Atom(a) => {
                        bound.extend(a.vars());
                        Goal::Atom(a)
                    }
                    // Absence test: a filter; binds nothing.
                    Lit::NegAtom(a) => Goal::NotAtom(a),
                    Lit::Builtin(op, ts) => {
                        bound.extend(ts.iter().filter_map(Term::as_var));
                        Goal::Builtin(op, ts)
                    }
                });
            }

            let new_head = Atom::new(&adorned_pred_name, rule.head.args.clone());
            builder = builder.rule(Rule::new(new_head, Goal::seq(new_body)));
        }
    }

    // Seed: the query's bound constants.
    let seed_args = bound_args(query, &query_ad);
    debug_assert!(seed_args.iter().all(Term::is_ground));
    let seed_head = Atom::new(&magic_name(query.pred, &query_ad), seed_args);
    builder = builder.derived_fact(seed_head.clone());

    let answer_pred = Pred::new(&adorned_name(query.pred, &query_ad), query.pred.arity);
    let magic_seed = seed_head.pred;
    let program = builder.build_unchecked();
    Ok(MagicProgram {
        program,
        answer_pred,
        magic_seed,
    })
}

/// Statistics of a magic evaluation, for comparison against the naive
/// fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MagicStats {
    /// Facts derived by the rewritten program.
    pub derivations: u64,
    /// Facts in the rewritten fixpoint.
    pub facts: usize,
}

/// Answer `query` over `db` using the magic-sets rewriting. Returns the
/// same answers as [`datalog::query`] plus evaluation statistics.
pub fn answer(
    program: &Program,
    db: &Database,
    query: &Atom,
) -> Result<(Vec<Tuple>, MagicStats), NotDatalog> {
    let magic = rewrite(program, query)?;
    let fix = datalog::evaluate(&magic.program, db)?;
    let answers = fix.matching(&Atom {
        pred: magic.answer_pred,
        args: query.args.clone(),
    });
    Ok((
        answers,
        MagicStats {
            derivations: fix.derivations,
            facts: fix.len(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::load_init;
    use td_parser::parse_program;

    fn setup(src: &str) -> (Program, Database) {
        let parsed = parse_program(src).unwrap();
        let db = Database::with_schema_of(&parsed.program);
        let db = load_init(&db, &parsed.init).unwrap();
        (parsed.program, db)
    }

    fn chain(n: usize) -> String {
        let mut src = String::from(
            "base e/2.\npath(X, Y) <- e(X, Y).\npath(X, Z) <- e(X, Y) * path(Y, Z).\n",
        );
        for i in 0..n {
            src.push_str(&format!("init e(n{i}, n{}).\n", i + 1));
        }
        src
    }

    #[test]
    fn magic_answers_match_naive_on_bound_free() {
        let (p, db) = setup(&chain(12));
        let query = Atom::new("path", vec![Term::sym("n3"), Term::var(0)]);
        let naive = datalog::query(&p, &db, &query).unwrap();
        let (magic, _) = answer(&p, &db, &query).unwrap();
        assert_eq!(naive, magic);
        assert_eq!(magic.len(), 9, "n3 reaches n4..n12");
    }

    #[test]
    fn magic_answers_match_naive_on_bound_bound() {
        let (p, db) = setup(&chain(8));
        for (a, b, expect) in [("n0", "n8", true), ("n5", "n2", false)] {
            let query = Atom::new("path", vec![Term::sym(a), Term::sym(b)]);
            let (magic, _) = answer(&p, &db, &query).unwrap();
            assert_eq!(!magic.is_empty(), expect, "path({a},{b})");
        }
    }

    #[test]
    fn magic_derives_fewer_facts_on_selective_queries() {
        let (p, db) = setup(&chain(30));
        let query = Atom::new("path", vec![Term::sym("n27"), Term::var(0)]);
        let naive_fix = datalog::evaluate(&p, &db).unwrap();
        let (_, stats) = answer(&p, &db, &query).unwrap();
        assert!(
            stats.derivations < naive_fix.derivations,
            "magic {} vs naive {}",
            stats.derivations,
            naive_fix.derivations
        );
        // The naive fixpoint has O(n²) path facts; magic only the suffix.
        assert!(stats.facts * 4 < naive_fix.len() + 10);
    }

    #[test]
    fn all_free_query_still_correct() {
        let (p, db) = setup(&chain(5));
        let query = Atom::new("path", vec![Term::var(0), Term::var(1)]);
        let naive = datalog::query(&p, &db, &query).unwrap();
        let (magic, _) = answer(&p, &db, &query).unwrap();
        assert_eq!(naive, magic);
        assert_eq!(magic.len(), 15); // 5+4+3+2+1
    }

    #[test]
    fn mutual_recursion_rewrites_correctly() {
        let src = "
            base start/1. base e/2.
            init start(a). init e(a, b). init e(b, a).
            even(X) <- start(X).
            even(X) <- odd(Y) * e(Y, X).
            odd(X) <- even(Y) * e(Y, X).
        ";
        let (p, db) = setup(src);
        let query = Atom::new("odd", vec![Term::sym("b")]);
        let naive = datalog::query(&p, &db, &query).unwrap();
        let (magic, _) = answer(&p, &db, &query).unwrap();
        assert_eq!(naive, magic);
        assert_eq!(magic.len(), 1);
    }

    #[test]
    fn builtins_survive_the_rewriting() {
        let src = "
            base n/1.
            init n(1). init n(2). init n(5).
            bigpair(X, Y) <- n(X) * n(Y) * X < Y.
        ";
        let (p, db) = setup(src);
        let query = Atom::new("bigpair", vec![Term::int(1), Term::var(0)]);
        let naive = datalog::query(&p, &db, &query).unwrap();
        let (magic, _) = answer(&p, &db, &query).unwrap();
        assert_eq!(naive, magic);
        assert_eq!(magic.len(), 2);
    }

    #[test]
    fn adorned_names_cannot_collide_with_source_predicates() {
        // `path_bf` and `m_path_bf` are names a source program may use; the
        // rewritten program must not read their stored tuples as answers.
        let src = "
            base e/2. base path_bf/2. base m_path_bf/1.
            init e(a, b). init e(b, c). init path_bf(a, zzz). init m_path_bf(c).
            path(X, Y) <- e(X, Y).
            path(X, Z) <- e(X, Y) * path(Y, Z).
        ";
        let (p, db) = setup(src);
        let query = Atom::new("path", vec![Term::sym("a"), Term::var(0)]);
        let naive = datalog::query(&p, &db, &query).unwrap();
        let (magic, _) = answer(&p, &db, &query).unwrap();
        assert_eq!(naive.len(), 2, "a reaches b and c");
        assert_eq!(naive, magic);
    }

    /// A bound-free query on a right-recursive rule probes `edge` by its
    /// second column, i.e. through the arrangement `edge[1, 0]`, which is
    /// Ω(|edge|) to build. The database version keeps it: on a 4 095-edge
    /// tree two queries on one handle and a third on the version one
    /// `insert` later build it once between them.
    #[test]
    fn a_second_query_on_a_version_builds_no_arrangement() {
        let mut src = String::from(
            "base edge/2.\npath(X, Y) <- edge(X, Y).\npath(X, Z) <- edge(X, Y) * path(Y, Z).\n",
        );
        for child in 2..=4096 {
            src.push_str(&format!("init edge({}, {child}).\n", child / 2));
        }
        let (p, db) = setup(&src);
        let (edge, order) = (Pred::new("edge", 2), [1, 0]);
        let below = |db: &Database, x: i64| {
            let query = Atom::new("path", vec![Term::int(x), Term::var(0)]);
            answer(&p, db, &query).unwrap().0
        };
        assert!(db.arrangements().next().is_none());
        // Node 300 heads a complete subtree four levels deep.
        assert_eq!(below(&db, 300).len(), 2 + 4 + 8);
        let built: *const _ = db
            .arranged(edge, &order)
            .expect("the first query builds it");
        assert_eq!(below(&db, 301).len(), 2 + 4 + 8);
        assert!(std::ptr::eq(built, db.arranged(edge, &order).unwrap()));
        assert_eq!(db.arrangements().count(), 1);
        // The next version has it before any query asks, moved by the tuple.
        let (next, _) = db.insert(edge, &td_db::tuple!(4096, 5000)).unwrap();
        let carried: *const _ = next.arranged(edge, &order).expect("carried, not rebuilt");
        assert_eq!(next.arranged(edge, &order).unwrap().len(), 4096);
        assert_eq!(
            below(&next, 2048),
            [td_db::tuple!(2048, 4096), td_db::tuple!(2048, 5000)]
        );
        assert!(std::ptr::eq(carried, next.arranged(edge, &order).unwrap()));
        let mut fresh: Vec<_> = next.relation(edge).unwrap().to_vec();
        fresh = fresh.iter().map(|t| t.permuted(&order)).collect();
        fresh.sort();
        let mut kept = Vec::new();
        (next.arranged(edge, &order).unwrap()).for_each(|t, ()| kept.push(t.clone()));
        assert_eq!(kept, fresh);
    }

    #[test]
    fn non_datalog_programs_rejected() {
        let (p, db) = setup("base t/0. r <- ins.t.");
        let query = Atom::prop("r");
        assert!(answer(&p, &db, &query).is_err());
    }

    #[test]
    fn unknown_query_pred_rejected() {
        let (p, db) = setup("base e/2. path(X, Y) <- e(X, Y).");
        let query = Atom::new("e", vec![Term::var(0), Term::var(1)]);
        // Base predicate query: rewrite refuses (use datalog::query).
        assert!(rewrite(&p, &query).is_err());
        let _ = db;
    }
}
