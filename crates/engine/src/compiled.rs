//! What the engine compiles from a [`Program`], kept in the program's own
//! cell (`Program::compiled`): built once per `Program` value, shared by its
//! clones, and each part only when first asked for.
//!
//! * Each rule's body as a process tree, its *template*: an unfolding reads
//!   it at the offset its fresh variables start from (`crate::tree`), so a
//!   call builds nothing. Built the first time the rule is unfolded.
//! * [`crate::datalog::query`]'s [`Views`]: the program's `is_datalog`
//!   verdict and its views' circuit. Compiled the first time `query` asks;
//!   building templates does not compile them.

use crate::datalog::Views;
use crate::tree::{make_node, PTree};
use std::sync::OnceLock;
use td_core::{Program, RuleId};

pub(crate) struct Compiled {
    views: OnceLock<Views>,
    bodies: Box<[OnceLock<Option<PTree>>]>,
}

impl Compiled {
    /// `program`'s compiled parts, the cell filled on the first call.
    pub(crate) fn of(program: &Program) -> &Compiled {
        let compiled = program.compiled().get_or_init(|| {
            Box::new(Compiled {
                views: OnceLock::new(),
                bodies: (0..program.len()).map(|_| OnceLock::new()).collect(),
            })
        });
        (compiled.downcast_ref()).expect("a program's cell holds what the engine compiled")
    }

    /// The template of `rule`'s body (`None`: the body is `()`), read at
    /// offset 0. `program` must be the program this was compiled from.
    pub(crate) fn body(&self, program: &Program, rule: RuleId) -> Option<&PTree> {
        let body = || make_node(&program.rule(rule).body, program);
        self.bodies[rule.0 as usize].get_or_init(body).as_ref()
    }

    /// `program`'s views, compiled on the first call.
    pub(crate) fn views(&self, program: &Program) -> &Views {
        self.views.get_or_init(|| Views::compile(program))
    }
}
