//! The paper's motivating application: high-throughput genome-laboratory
//! workflows (§1, §3; LabFlow [26]).
//!
//! Runs three scenarios end to end:
//! 1. the Example 3.1 workflow (tasks + sub-workflow) over several samples;
//! 2. an agent-constrained run (Example 3.3): two qualified machines shared
//!    by all instances;
//! 3. the iterated protocol of [26]: re-run an experiment until the result
//!    is conclusive.
//!
//! ```sh
//! cargo run --example genome_lab
//! ```

use std::collections::BTreeSet;
use td_core::Pred;
use transaction_datalog::workflow::{
    audit, AgentScenarioConfig, LabFlowConfig, RepeatProtocol, WorkflowSpec,
};

fn main() {
    // -- 1. Example 3.1 over three DNA samples ---------------------------
    let spec = WorkflowSpec::example_3_1();
    let samples: Vec<String> = (1..=3).map(|i| format!("sample{i}")).collect();
    let scenario = spec.compile(&samples);
    println!("--- Example 3.1 workflow ---\n{}", scenario.source);
    let out = scenario.run().expect("no fault");
    let sol = out.solution().expect("workflow completes");
    let done = sol.db.relation(Pred::new("done", 2)).unwrap().to_vec();
    let items: BTreeSet<_> = done.iter().map(|t| t.values()[0]).collect();
    println!(
        "completed {} task executions over {} samples ({} engine steps)\n",
        done.len(),
        items.len(),
        sol.stats.steps
    );
    println!("--- committed updates ---\n{}\n", sol.delta);
    let violations = audit(&spec, &sol.delta);
    println!("audit against the spec: {} violations\n", violations.len());
    assert!(violations.is_empty());

    // -- 2. Example 3.3: shared agents ------------------------------------
    let cfg = AgentScenarioConfig::universal_pool(
        WorkflowSpec::example_3_1(),
        samples.clone(),
        2, // two machines for three concurrent samples
    );
    let scenario = cfg.compile();
    let out = scenario.run().expect("no fault");
    let sol = out.solution().expect("completes under agent contention");
    println!("--- Example 3.3: 3 samples, 2 agents ---");
    println!("final db: {}", sol.db);
    println!("(agents acquired and released atomically via iso {{ … }})\n");

    // -- 3. LabFlow pipeline + iterated protocol --------------------------
    let pipeline = LabFlowConfig::new(4, 5).compile();
    let out = pipeline.run().expect("no fault");
    let sol = out.solution().expect("pipeline drains");
    println!("--- LabFlow pipeline: 4 samples x 5 stages ---");
    println!(
        "insert-only history: {} result tuples, {} engine steps",
        sol.db
            .relation(Pred::new("result", 2))
            .map(|r| r.len())
            .unwrap_or(0),
        sol.stats.steps
    );

    let protocol = RepeatProtocol::new(3, 4).compile();
    let out = protocol.run().expect("no fault");
    let sol = out.solution().expect("protocol concludes");
    println!("\n--- iterated protocol (repeat until conclusive, [26]) ---");
    println!("final db: {}", sol.db);
}
