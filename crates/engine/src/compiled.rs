//! What the engine compiles from a [`Program`], kept in the program's own
//! cell (`Program::compiled`): built once per `Program` value, shared by its
//! clones, and each part only when first asked for.
//!
//! * Each rule's body as a [`Template`], the one form both the machine's
//!   arena and the ground drivers' persistent trees are built from
//!   (docs/ARCHITECTURE.md, "A call copies a few words"). Built the first
//!   time the rule is unfolded.
//! * The program's one view circuit, its [`Materializer`], and beside it
//!   the [`is_datalog`] verdict `datalog` and `magic` check: an engine with
//!   `EngineConfig::materialize`, `datalog::query` and `td`'s refusal of
//!   `--materialize` all read the one circuit.

use crate::datalog::{is_datalog, NotDatalog};
use crate::incremental::{Materializer, NotMaterializable};
use crate::tree::Template;
use std::sync::{Arc, OnceLock};
use td_core::{Program, RuleId};

pub(crate) struct Compiled {
    datalog: OnceLock<Result<(), NotDatalog>>,
    /// Filled by [`Materializer::of`].
    pub(crate) circuit: OnceLock<Result<Arc<Materializer>, NotMaterializable>>,
    bodies: Box<[OnceLock<Option<Template>>]>,
}

impl Compiled {
    /// `program`'s compiled parts, the cell filled on the first call.
    pub(crate) fn of(program: &Program) -> &Compiled {
        let compiled = program.compiled().get_or_init(|| {
            Box::new(Compiled {
                datalog: OnceLock::new(),
                circuit: OnceLock::new(),
                bodies: (0..program.len()).map(|_| OnceLock::new()).collect(),
            })
        });
        (compiled.downcast_ref()).expect("a program's cell holds what the engine compiled")
    }

    /// The template of `rule`'s body (`None`: the body is `()`). `program`
    /// must be the program this was compiled from.
    pub(crate) fn body(&self, program: &Program, rule: RuleId) -> Option<&Template> {
        let body = || Template::new(&program.rule(rule).body, program);
        self.bodies[rule.0 as usize].get_or_init(body).as_ref()
    }

    /// `program`'s [`is_datalog`] verdict, decided on the first call.
    pub(crate) fn datalog(&self, program: &Program) -> &Result<(), NotDatalog> {
        self.datalog.get_or_init(|| is_datalog(program))
    }
}
