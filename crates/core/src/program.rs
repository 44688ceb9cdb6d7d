//! Programs (rulebases) and their builder.
//!
//! A [`Program`] is a rulebase plus the declaration of which predicates are
//! *base* (database) relations. The split matters semantically: base atoms
//! are tuple tests and `ins`/`del` targets; derived atoms are calls that
//! unfold into rule bodies. Construction goes through [`ProgramBuilder`],
//! which validates the program (see [`crate::validate`]).

use crate::atom::{Atom, Pred};
use crate::error::CoreResult;
use crate::goal::Goal;
use crate::rule::{Rule, RuleId};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A validated TD program.
///
/// Programs are immutable once built and cheap to share (`Clone` is `Arc`
/// clones internally where it matters); the engine holds one per execution.
#[derive(Clone, Debug)]
pub struct Program {
    rules: Arc<Vec<Rule>>,
    by_head: Arc<HashMap<Pred, Arc<[RuleId]>>>,
    base: Arc<BTreeSet<Pred>>,
    events: Arc<BTreeSet<Pred>>,
    /// See [`Program::compiled`].
    compiled: Arc<OnceLock<Box<dyn Any + Send + Sync>>>,
}

impl Program {
    /// Start building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// All rules, in declaration order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rule with the given id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    /// Ids of the rules whose head predicate is `pred` (declaration order).
    pub fn rules_for(&self, pred: Pred) -> &[RuleId] {
        self.rule_ids(pred).map_or(&[], |ids| ids)
    }

    /// [`Program::rules_for`] as a shared slice, for whoever keeps it beside
    /// a call instead of looking the predicate up again; `None` when no
    /// rule defines `pred`.
    pub fn rule_ids(&self, pred: Pred) -> Option<&Arc<[RuleId]>> {
        self.by_head.get(&pred)
    }

    /// The declared base (database) predicates.
    pub fn base_preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.base.iter().copied()
    }

    /// Is `pred` a declared base predicate?
    pub fn is_base(&self, pred: Pred) -> bool {
        self.base.contains(&pred)
    }

    /// Is `pred` defined by at least one rule?
    pub fn is_derived(&self, pred: Pred) -> bool {
        self.by_head.contains_key(&pred)
    }

    /// The declared event relations, as *stored* predicates: an
    /// `event e/n.` declaration stores tuples of arity `n + 1`, the extra
    /// (last) column being the ingestion timestamp. Event predicates are
    /// also base predicates — rules may read them — but they are
    /// append-only: `ins`/`del` on them is rejected by validation, and new
    /// tuples arrive only through the server's event-ingestion surface.
    pub fn event_preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.events.iter().copied()
    }

    /// Is `pred` (in stored form, timestamp column included) a declared
    /// event relation?
    pub fn is_event(&self, pred: Pred) -> bool {
        self.events.contains(&pred)
    }

    /// Look up a declared event relation by name, returning its stored
    /// predicate (declared arity + 1).
    pub fn event_by_name(&self, name: crate::symbol::Symbol) -> Option<Pred> {
        self.events.iter().copied().find(|p| p.name == name)
    }

    /// The derived predicates (those with rules), in arbitrary order.
    pub fn derived_preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.by_head.keys().copied()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// What has been compiled from this program, by whoever compiles it
    /// (td-engine keeps its rule templates, its `is_datalog` verdict and the
    /// program's one view circuit here, which its engines and
    /// `datalog::query` all read): empty until the first compile, and one
    /// cell for this value and every clone of it. Another `Program` with the
    /// same rules has a cell of its own.
    pub fn compiled(&self) -> &OnceLock<Box<dyn Any + Send + Sync>> {
        &self.compiled
    }

    /// Render the program in concrete syntax, parseable by `td-parser`.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for p in self.events.iter() {
            out.push_str(&format!("event {}/{}.\n", p.name, p.arity - 1));
        }
        for p in self.base.iter() {
            if !self.events.contains(p) {
                out.push_str(&format!("base {}/{}.\n", p.name, p.arity));
            }
        }
        if !self.base.is_empty() && !self.rules.is_empty() {
            out.push('\n');
        }
        for r in self.rules.iter() {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

/// Builder for [`Program`]; validates on [`ProgramBuilder::build`].
#[derive(Default)]
pub struct ProgramBuilder {
    rules: Vec<Rule>,
    base: BTreeSet<Pred>,
    events: BTreeSet<Pred>,
}

impl ProgramBuilder {
    /// Declare a base (database) predicate.
    pub fn base_pred(mut self, name: &str, arity: u32) -> Self {
        self.base.insert(Pred::new(name, arity));
        self
    }

    /// Declare an event relation with its *declared* arity. The stored
    /// predicate gains a trailing timestamp column (`arity + 1`) and is
    /// registered as an append-only base relation.
    pub fn event_pred(mut self, name: &str, arity: u32) -> Self {
        let stored = Pred::new(name, arity + 1);
        self.base.insert(stored);
        self.events.insert(stored);
        self
    }

    /// Declare several base predicates at once.
    pub fn base_preds(mut self, preds: &[(&str, u32)]) -> Self {
        for (name, arity) in preds {
            self.base.insert(Pred::new(name, *arity));
        }
        self
    }

    /// Add a rule.
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Add a rule from head and body, computing the variable table.
    pub fn rule_parts(self, head: Atom, body: Goal) -> Self {
        self.rule(Rule::new(head, body))
    }

    /// Add a fact-like rule `head <- ()` for a derived predicate.
    pub fn derived_fact(self, head: Atom) -> Self {
        self.rule(Rule::new(head, Goal::True))
    }

    /// Validate and build the program.
    pub fn build(self) -> CoreResult<Program> {
        let by_head = by_head(&self.rules);
        let program = Program {
            rules: Arc::new(self.rules),
            by_head: Arc::new(by_head),
            base: Arc::new(self.base),
            events: Arc::new(self.events),
            compiled: Arc::default(),
        };
        crate::validate::validate(&program)?;
        Ok(program)
    }

    /// Build without validation. For tests that need to construct ill-formed
    /// programs, and for generated programs already known to be valid.
    pub fn build_unchecked(self) -> Program {
        let by_head = by_head(&self.rules);
        Program {
            rules: Arc::new(self.rules),
            by_head: Arc::new(by_head),
            base: Arc::new(self.base),
            events: Arc::new(self.events),
            compiled: Arc::default(),
        }
    }
}

/// The ids of each head predicate's rules, in declaration order.
fn by_head(rules: &[Rule]) -> HashMap<Pred, Arc<[RuleId]>> {
    let mut by_head: HashMap<Pred, Vec<RuleId>> = HashMap::new();
    for (i, r) in rules.iter().enumerate() {
        by_head
            .entry(r.head.pred)
            .or_default()
            .push(RuleId(u32::try_from(i).expect("rule count overflow")));
    }
    by_head
        .into_iter()
        .map(|(p, ids)| (p, ids.into()))
        .collect()
}

/// Collect every constant symbol/integer mentioned by the program (rules and
/// base declarations contribute nothing beyond rule terms). Together with the
/// initial database this forms the *active domain* — TD is safe: execution
/// never invents new constants (Theorem discussion, §4 of the paper).
pub fn program_constants(p: &Program) -> BTreeSet<crate::term::Value> {
    let mut out = BTreeSet::new();
    for r in p.rules() {
        let mut collect = |a: &Atom| {
            for t in &a.args {
                if let Some(v) = t.as_value() {
                    out.insert(v);
                }
            }
        };
        collect(&r.head);
        r.body.visit(&mut |g| match g {
            Goal::Atom(a) | Goal::NotAtom(a) | Goal::Ins(a) | Goal::Del(a) => {
                for t in &a.args {
                    if let Some(v) = t.as_value() {
                        out.insert(v);
                    }
                }
            }
            Goal::Builtin(_, ts) => {
                for t in ts {
                    if let Some(v) = t.as_value() {
                        out.insert(v);
                    }
                }
            }
            _ => {}
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn sample() -> Program {
        Program::builder()
            .base_pred("p", 1)
            .base_pred("q", 1)
            .rule_parts(
                Atom::new("r", vec![Term::var(0)]),
                Goal::seq(vec![
                    Goal::atom("p", vec![Term::var(0)]),
                    Goal::del("p", vec![Term::var(0)]),
                    Goal::ins("q", vec![Term::var(0)]),
                ]),
            )
            .build()
            .expect("valid program")
    }

    #[test]
    fn classification_of_predicates() {
        let p = sample();
        assert!(p.is_base(Pred::new("p", 1)));
        assert!(p.is_base(Pred::new("q", 1)));
        assert!(!p.is_base(Pred::new("r", 1)));
        assert!(p.is_derived(Pred::new("r", 1)));
        assert!(!p.is_derived(Pred::new("p", 1)));
    }

    #[test]
    fn rules_for_returns_declaration_order() {
        let p = Program::builder()
            .base_pred("b", 0)
            .rule_parts(Atom::prop("a"), Goal::prop("b"))
            .rule_parts(Atom::prop("a"), Goal::ins("b", vec![]))
            .build()
            .unwrap();
        let ids = p.rules_for(Pred::new("a", 0));
        assert_eq!(ids, &[RuleId(0), RuleId(1)]);
        assert_eq!(p.rule(ids[0]).body, Goal::prop("b"));
    }

    #[test]
    fn rules_for_unknown_pred_is_empty() {
        let p = sample();
        assert!(p.rules_for(Pred::new("nope", 7)).is_empty());
    }

    #[test]
    fn to_source_lists_base_then_rules() {
        let p = sample();
        let src = p.to_source();
        assert!(src.starts_with("base p/1.\nbase q/1.\n"));
        assert!(src.contains("r(X0) <- p(X0) * del.p(X0) * ins.q(X0).\n"));
    }

    #[test]
    fn program_constants_collects_all() {
        let p = Program::builder()
            .base_pred("p", 2)
            .rule_parts(
                Atom::prop("go"),
                Goal::seq(vec![
                    Goal::atom("p", vec![Term::sym("a"), Term::int(3)]),
                    Goal::Builtin(crate::goal::Builtin::Lt, vec![Term::int(3), Term::int(5)]),
                ]),
            )
            .build()
            .unwrap();
        let consts = program_constants(&p);
        assert!(consts.contains(&crate::term::Value::sym("a")));
        assert!(consts.contains(&crate::term::Value::Int(3)));
        assert!(consts.contains(&crate::term::Value::Int(5)));
        assert_eq!(consts.len(), 3);
    }

    #[test]
    fn event_preds_are_base_with_timestamp_column() {
        let p = Program::builder()
            .event_pred("sample", 1)
            .base_pred("done", 1)
            .build()
            .unwrap();
        let stored = Pred::new("sample", 2);
        assert!(p.is_event(stored));
        assert!(p.is_base(stored), "event relations are readable like base");
        assert_eq!(
            p.event_by_name(crate::symbol::Symbol::intern("sample")),
            Some(stored)
        );
        assert_eq!(p.event_preds().collect::<Vec<_>>(), vec![stored]);
        let src = p.to_source();
        assert!(src.contains("event sample/1.\n"), "got: {src}");
        assert!(src.contains("base done/1.\n"));
        assert!(!src.contains("base sample/2."), "stored form must not leak");
    }

    #[test]
    fn empty_program_builds() {
        let p = Program::builder().build().unwrap();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }
}
