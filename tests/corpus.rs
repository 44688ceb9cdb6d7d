//! Golden tests over the `.td` corpus: every file in `corpus/` parses,
//! classifies, executes successfully, and its committed run is entailed by
//! the declarative semantics. These are the paper's own examples as
//! standalone programs a user can run with `td run corpus/<file>.td`.

use transaction_datalog::prelude::*;
use transaction_datalog::workflow::{double_claims, LoanConfig, RepeatProtocol, Scenario};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "td"))
        .collect();
    files.sort();
    assert!(files.len() >= 7, "corpus should have the paper's examples");
    files
}

#[test]
fn every_corpus_file_parses_and_runs() {
    for path in corpus_files() {
        let src = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_program(&src)
            .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.render(&src)));
        assert!(
            !parsed.goals.is_empty(),
            "{}: corpus files declare goals",
            path.display()
        );
        let db = Database::with_schema_of(&parsed.program);
        let mut db = td_engine::load_init(&db, &parsed.init).unwrap();
        let engine = Engine::new(parsed.program.clone());
        for g in &parsed.goals {
            let out = engine
                .solve(&g.goal, &db)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let sol = out
                .solution()
                .unwrap_or_else(|| panic!("{}: goal failed", path.display()));
            // Differential check against the declarative semantics.
            assert!(
                td_engine::entail::entails_via_delta(&parsed.program, &db, &sol.delta, &g.goal)
                    .unwrap(),
                "{}: committed run not entailed",
                path.display()
            );
            db = sol.db.clone();
        }
    }
}

#[test]
fn corpus_fragments_match_their_headers() {
    // Spot-check the classification of the two fragment-sensitive files.
    let check = |name: &str, expect: Fragment| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("corpus")
            .join(name);
        let src = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_program(&src).unwrap();
        let rep = FragmentReport::classify(&parsed.program, &parsed.goals[0].goal);
        assert_eq!(rep.fragment, expect, "{name}");
    };
    check("example_3_2_simulation.td", Fragment::Full);
    check("iterated_protocol.td", Fragment::FullyBounded);
    check("example_3_1_workflow.td", Fragment::Nonrecursive);
}

#[test]
fn section_2_overview_reaches_the_papers_final_state() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join("section_2_overview.td");
    let src = std::fs::read_to_string(&path).unwrap();
    let parsed = parse_program(&src).unwrap();
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    let engine = Engine::new(parsed.program.clone());
    let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
    assert_eq!(out.solution().unwrap().db.to_string(), "{c, d}");
}

#[test]
fn example_3_3_audit_has_no_double_claims() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join("example_3_3_agents.td");
    let src = std::fs::read_to_string(&path).unwrap();
    let parsed = parse_program(&src).unwrap();
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    let engine = Engine::new(parsed.program.clone());
    let out = engine.solve(&parsed.goals[0].goal, &db).unwrap();
    let delta = out.solution().unwrap().delta.clone();
    assert_eq!(double_claims(&delta), 0);
}

/// A corpus file and the generator that writes the same paper example must
/// agree: the same rules, the same init database and the same first goal.
fn assert_generator_matches_corpus(name: &str, scenario: Scenario) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    let parsed = parse_program(&src).unwrap();
    let rules = |p: &Program| p.rules().iter().map(Rule::to_string).collect::<Vec<_>>();
    assert_eq!(rules(&parsed.program), rules(&scenario.program), "{name}");
    let db = Database::with_schema_of(&parsed.program);
    let db = td_engine::load_init(&db, &parsed.init).unwrap();
    assert_eq!(db.digest(), scenario.db.digest(), "{name}: init database");
    assert_eq!(parsed.goals[0].goal, scenario.goal, "{name}: first goal");
}

#[test]
fn loan_applications_matches_its_generator() {
    let scenario = LoanConfig::new(&[300, 800, 450], 1000).compile();
    assert_generator_matches_corpus("loan_applications.td", scenario);
}

#[test]
fn iterated_protocol_matches_its_generator() {
    let scenario = RepeatProtocol::new(2, 3).compile();
    assert_generator_matches_corpus("iterated_protocol.td", scenario);
}
