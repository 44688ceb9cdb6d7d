//! # td-workflow — workflow modeling over Transaction Datalog
//!
//! This crate reproduces §3 of the paper: specifying and simulating
//! production workflows in TD, with examples drawn from a high-throughput
//! genome laboratory. Every generator emits genuine `.td` source (the same
//! rule shapes the paper prints), wrapped in a runnable [`Scenario`].
//!
//! | module | paper artifact |
//! |---|---|
//! | [`spec`] | Example 3.1 — workflow of tasks + sub-workflows |
//! | [`simulate`] | Example 3.2 — unbounded instance spawning, environment process |
//! | [`agents`] | Example 3.3 — shared resources (qualified agents) |
//! | [`network`] | Example 3.4 — cooperating workflows synchronizing via the DB |
//! | [`banking`] | Examples 2.1–2.2 — nested banking transactions |
//! | [`labflow`] | §1/§6 + \[26\] — genome-lab pipeline & iterated protocol |
//! | [`metrics`] | §3 monitoring — anomaly detection over update logs |
//! | [`loan`] | §3's other motivating domain: loan applications with branching, review officers, funds ledger |

pub mod agents;
pub mod audit;
pub mod banking;
pub mod labflow;
pub mod loan;
pub mod metrics;
pub mod network;
pub mod scenario;
pub mod simulate;
pub mod spec;

pub use agents::{Agent, AgentScenarioConfig};
pub use audit::{audit, precedence_pairs, Violation};
pub use banking::{serializable_transfers, transfer_goal, Bank};
pub use labflow::{LabFlowConfig, RepeatProtocol};
pub use loan::{Application, LoanConfig};
pub use metrics::double_claims;
pub use network::{Pipeline, Ring, SyncPair};
pub use scenario::Scenario;
pub use simulate::{EnvironmentMode, SimulationConfig};
pub use spec::{Node, WorkflowSpec};
