//! One-pass 128-bit configuration fingerprints.
//!
//! Every driver memoizes configurations `(process tree, database)` up to
//! variable renaming: the machine's failure memo and the explicit-state
//! search's claim table; and the subgoal cache keys answer sets by
//! `(subgoal, database)` the same way ([`fingerprint_goal`]). [`fingerprint`]
//! identifies a configuration without building anything: it walks the tree once,
//! resolves each term through the caller's bindings, numbers the unbound
//! variables by first occurrence as it meets them, and feeds a prefix-free
//! encoding of what it sees into two independently seeded 64-bit lanes,
//! finished with [`Database::digest`]. Two configurations get the same
//! fingerprint iff their resolved trees are α-equivalent and their
//! databases have equal digests — up to a 2⁻¹²⁸-per-pair collision, the
//! identity the database half of the key has always rested on.
//!
//! Fingerprints are per-process and per-solve: symbols are fed by interner
//! id and the tables keyed by them are never persisted, so the mixer below
//! is not a frozen format.

use crate::tree::{Item, Preorder};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use td_core::{Atom, Goal, Term, Value, Var};
use td_db::Database;

/// A set of fingerprints, each used as its own hash.
pub(crate) type FpSet = HashSet<u128, BuildHasherDefault<FpHasher>>;
/// A map keyed by fingerprints, each used as its own hash.
pub(crate) type FpMap<V> = HashMap<u128, V, BuildHasherDefault<FpHasher>>;

/// The hasher of [`FpSet`]/[`FpMap`]: a fingerprint is already uniformly
/// mixed, so its low lane *is* the table hash. (The search's claim table
/// and the subgoal cache pick their shard from the high lane, so a shard's
/// keys still spread over all of its buckets.)
#[derive(Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint tables are keyed by u128 only");
    }

    fn write_u128(&mut self, fp: u128) {
        self.0 = fp as u64;
    }
}

// Node tags, in the low byte of a node's first word. A tree's regions
// share the tags of `Goal::Seq`/`Par`: the fingerprint is that of the goal
// the tree renders to.
const TRUE: u64 = 0;
const FAIL: u64 = 1;
const ATOM: u64 = 2;
const NOT_ATOM: u64 = 3;
const INS: u64 = 4;
const DEL: u64 = 5;
const BUILTIN: u64 = 6;
const SEQ: u64 = 7;
const PAR: u64 = 8;
const ISO: u64 = 9;
const CHOICE: u64 = 10;
const VAR: u64 = 11;
const SYM: u64 = 12;
const INT: u64 = 13;

/// Folded 64×64→128 multiply: both halves of the product, xored.
fn fold(x: u64, k: u64) -> u64 {
    let p = u128::from(x) * u128::from(k);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The two hash lanes plus the walk's view of the bindings.
struct Walk<'v, R> {
    a: u64,
    b: u64,
    resolve: R,
    /// Unbound variables met so far; a variable's number is its index.
    vars: &'v mut Vec<Var>,
}

impl<'v, R: Fn(Term) -> Term> Walk<'v, R> {
    /// A walk with no words fed yet; `vars` is cleared.
    fn new(resolve: R, vars: &'v mut Vec<Var>) -> Self {
        vars.clear();
        let (a, b) = (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);
        Walk {
            a,
            b,
            resolve,
            vars,
        }
    }

    /// The two lanes, finished with `db`'s digest.
    fn finish(&mut self, db: &Database) -> u128 {
        let digest = db.digest();
        self.word(digest as u64);
        self.word((digest >> 64) as u64);
        u128::from(self.b) << 64 | u128::from(self.a)
    }

    fn word(&mut self, w: u64) {
        self.a = fold(self.a ^ w, 0x9e37_79b9_7f4a_7c15);
        self.b = fold(self.b ^ w, 0xc2b2_ae3d_27d4_eb4f);
    }

    /// A tag with a count (or id) above it.
    fn node(&mut self, tag: u64, n: usize) {
        self.word(tag | (n as u64) << 8);
    }

    /// One node of a tree's pre-order walk: a region's tag and child
    /// count come before its children.
    fn item(&mut self, item: Item) {
        match item {
            Item::Leaf(action, off) => self.goal(action.goal(), off),
            Item::Region(seq, n) => self.node(if seq { SEQ } else { PAR }, n),
        }
    }

    /// A leaf's goal, its terms read at offset `off`.
    fn goal(&mut self, goal: &Goal, off: u32) {
        match goal {
            Goal::True => self.word(TRUE),
            Goal::Fail => self.word(FAIL),
            Goal::Atom(a) => self.atom(ATOM, a, off),
            Goal::NotAtom(a) => self.atom(NOT_ATOM, a, off),
            Goal::Ins(a) => self.atom(INS, a, off),
            Goal::Del(a) => self.atom(DEL, a, off),
            Goal::Builtin(op, ts) => {
                self.node(BUILTIN | (*op as u64) << 56, ts.len());
                ts.iter().for_each(|t| self.term(t.offset(off)));
            }
            Goal::Seq(gs) => self.goals(SEQ, gs, off),
            Goal::Par(gs) => self.goals(PAR, gs, off),
            Goal::Choice(gs) => self.goals(CHOICE, gs, off),
            Goal::Iso(g) => {
                self.word(ISO);
                self.goal(g, off);
            }
        }
    }

    fn goals(&mut self, tag: u64, gs: &[Goal], off: u32) {
        self.node(tag, gs.len());
        gs.iter().for_each(|g| self.goal(g, off));
    }

    fn atom(&mut self, tag: u64, a: &Atom, off: u32) {
        self.node(tag, a.pred.name.id() as usize);
        self.word(u64::from(a.pred.arity) | (a.args.len() as u64) << 32);
        a.args.iter().for_each(|t| self.term(t.offset(off)));
    }

    fn term(&mut self, t: Term) {
        match (self.resolve)(t) {
            Term::Var(v) => {
                let n = self.vars.iter().position(|w| *w == v).unwrap_or_else(|| {
                    self.vars.push(v);
                    self.vars.len() - 1
                });
                self.node(VAR, n);
            }
            Term::Val(Value::Sym(s)) => self.node(SYM, s.id() as usize),
            Term::Val(Value::Int(i)) => {
                self.word(INT);
                self.word(i as u64);
            }
        }
    }
}

/// The 128-bit identity of the configuration `(tree under resolve, db)`,
/// up to renaming of the variables `resolve` leaves unbound. The machine
/// passes its trail's `resolve` and its arena, the ground drivers the
/// identity and a persistent tree: both walks feed the same words. `vars`
/// is the caller's numbering scratch (cleared here), so a steady-state
/// call allocates nothing.
pub(crate) fn fingerprint(
    tree: &impl Preorder,
    resolve: impl Fn(Term) -> Term,
    db: &Database,
    vars: &mut Vec<Var>,
) -> u128 {
    let mut walk = Walk::new(resolve, vars);
    tree.walk(&mut |item| walk.item(item));
    let fp = walk.finish(db);
    #[cfg(test)]
    tests::record(tests::Log::configs, || tree.goal(), &walk.resolve, db, fp);
    fp
}

/// The same identity for a subgoal, `(goal under resolve, db)` — the
/// subgoal cache's key. `vars` ends holding the variables `resolve` leaves
/// unbound, numbered by first occurrence: the caller-side variables a
/// cached answer binds, in its order.
pub(crate) fn fingerprint_goal(
    goal: &Goal,
    resolve: impl Fn(Term) -> Term,
    db: &Database,
    vars: &mut Vec<Var>,
) -> u128 {
    let mut walk = Walk::new(resolve, vars);
    walk.goal(goal, 0);
    let fp = walk.finish(db);
    #[cfg(test)]
    tests::record(tests::Log::subgoals, || goal.clone(), &walk.resolve, db, fp);
    fp
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::decider::{decide, DeciderConfig};
    use crate::engine::{load_init, Engine};
    use crate::tree::{make_node, to_goal, PTree};
    use crate::EngineConfig;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use td_core::{Bindings, Pred};
    use td_db::{tuple, Tuple};
    use td_parser::parse_program;

    /// The exact key a fingerprint stands for, the reference it must
    /// partition like: the α-renamed resolved goal (a configuration's is the
    /// goal its tree renders to) and the database digest.
    type ExactKey = (Goal, u128);

    /// Every `(exact key, fingerprint)` pair computed while the hook is on,
    /// one table per entry point.
    #[derive(Default)]
    pub(super) struct Log {
        configs: HashMap<ExactKey, u128>,
        subgoals: HashMap<ExactKey, u128>,
    }

    impl Log {
        pub(super) fn configs(&mut self) -> &mut HashMap<ExactKey, u128> {
            &mut self.configs
        }

        pub(super) fn subgoals(&mut self) -> &mut HashMap<ExactKey, u128> {
            &mut self.subgoals
        }
    }

    thread_local! {
        /// While `Some`, every [`fingerprint`] and [`fingerprint_goal`] call
        /// on this thread logs the exact key it stands for beside the
        /// fingerprint it returned.
        static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
    }

    /// `goal` with its variables renamed densely in first-occurrence order,
    /// so α-equivalent goals are structurally equal.
    fn canonical(goal: &Goal) -> Goal {
        let mut seen: Vec<Var> = Vec::new();
        goal.map_terms(&mut |t| match t {
            Term::Var(v) => {
                let n = seen.iter().position(|w| *w == v).unwrap_or_else(|| {
                    seen.push(v);
                    seen.len() - 1
                });
                Term::var(n as u32)
            }
            val => val,
        })
    }

    fn exact_key(goal: &Goal, resolve: &impl Fn(Term) -> Term, digest: u128) -> ExactKey {
        (canonical(&goal.map_terms(&mut |t| resolve(t))), digest)
    }

    /// The test-only hook in [`fingerprint`] and [`fingerprint_goal`]:
    /// equal exact keys must get equal fingerprints, checked in `table` as
    /// they arrive. `goal` is only rendered while the hook is on.
    pub(super) fn record(
        table: fn(&mut Log) -> &mut HashMap<ExactKey, u128>,
        goal: impl FnOnce() -> Goal,
        resolve: &impl Fn(Term) -> Term,
        db: &Database,
        fp: u128,
    ) {
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                let key = exact_key(&goal(), resolve, db.digest());
                if let Some(old) = table(log).insert(key.clone(), fp) {
                    assert_eq!(old, fp, "one exact key, two fingerprints: {key:?}");
                }
            }
        });
    }

    /// Run `f` with the hook on; return every `(exact key, fingerprint)`
    /// pair computed meanwhile.
    fn recorded(f: impl FnOnce()) -> Log {
        LOG.with(|log| *log.borrow_mut() = Some(Log::default()));
        f();
        LOG.with(|log| log.borrow_mut().take())
            .expect("hook was on")
    }

    /// The other half of "the partitions coincide": distinct exact keys
    /// differ on *each* 64-bit lane (`record` checked that equal keys
    /// agree).
    fn assert_lanes_injective(seen: &HashMap<ExactKey, u128>) {
        let low: HashSet<u64> = seen.values().map(|fp| *fp as u64).collect();
        let high: HashSet<u64> = seen.values().map(|fp| (*fp >> 64) as u64).collect();
        assert_eq!(low.len(), seen.len(), "two exact keys share a low lane");
        assert_eq!(high.len(), seen.len(), "two exact keys share a high lane");
    }

    /// The explicit-state search's budget here.
    fn budget() -> DeciderConfig {
        DeciderConfig {
            max_configs: 5_000,
            ..DeciderConfig::default()
        }
    }

    /// Drive the machine and the explicit-state search over one goal (one
    /// worker runs on this thread, where the hook listens).
    fn drive(program: &td_core::Program, goal: &Goal, db: &Database) -> Option<Database> {
        // A fault or a truncated space still leaves its keys in the log.
        let _ = decide(program, goal, db, budget());
        let outcome = Engine::new(program.clone()).solve(goal, db).ok()?;
        outcome.solution().map(|s| s.db.clone())
    }

    /// Every configuration the drivers memoize and every subgoal the cache
    /// is probed with, over the corpus run like `td run` and `td decide`,
    /// plain and with `--subgoal-cache` (one cached engine per file, so
    /// later goals probe earlier ones' entries).
    #[test]
    fn corpus_runs_partition_configurations_exactly_like_the_exact_key() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus/ exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "td"))
            .collect();
        files.sort();
        assert!(!files.is_empty());
        // One log over the whole corpus: programs share predicate names and
        // constants, so cross-program collisions are checked too.
        let log = recorded(|| {
            for file in &files {
                let source = std::fs::read_to_string(file).expect("corpus file reads");
                let parsed = parse_program(&source).expect("corpus parses");
                let schema = Database::with_schema_of(&parsed.program);
                let mut db = load_init(&schema, &parsed.init).expect("corpus init loads");
                let config = EngineConfig::default().with_subgoal_cache();
                let cached = Engine::with_config(parsed.program.clone(), config);
                for g in &parsed.goals {
                    let _ = cached.decide(&g.goal, &db, budget());
                    let _ = cached.solve(&g.goal, &db);
                    if let Some(next) = drive(&parsed.program, &g.goal, &db) {
                        db = next;
                    }
                }
            }
        });
        assert!(
            log.configs.len() > 1_000,
            "only {} configurations",
            log.configs.len()
        );
        assert_lanes_injective(&log.configs);
        assert!(
            log.subgoals.len() > 50,
            "only {} subgoals",
            log.subgoals.len()
        );
        assert_lanes_injective(&log.subgoals);
    }

    /// The machine's counters for `source`'s one goal, solved like `td run`
    /// from the initial database, and every configuration it fingerprinted.
    fn solve_recorded(source: &str) -> (crate::Stats, Log) {
        let parsed = parse_program(source).expect("parses");
        let schema = Database::with_schema_of(&parsed.program);
        let db = load_init(&schema, &parsed.init).expect("init loads");
        let engine = Engine::new(parsed.program);
        let mut stats = None;
        let log = recorded(|| {
            let outcome = engine.solve(&parsed.goals[0].goal, &db).expect("solves");
            stats = Some(outcome.stats());
        });
        (stats.expect("solved"), log)
    }

    /// While the failure memo is empty nothing can hit it, so a step
    /// fingerprints its configuration only once the configuration is
    /// refuted: a search that refutes nothing walks no tree at all.
    #[test]
    fn a_search_that_refutes_nothing_fingerprints_no_configuration() {
        let (stats, log) = solve_recorded(
            "base a/1. base b/1. init a(1). init a(2).
             ?- (a(X) * del.a(X) * ins.b(X)) | (a(Y) * Y > 1 * ins.b(Y)).",
        );
        assert!(stats.choicepoints > 0, "the search had choices: {stats:?}");
        assert_eq!(stats.memo_hits, 0);
        assert!(log.configs.is_empty(), "{:?}", log.configs.keys());
    }

    /// `(ins.a | ins.b) * fail`: the first refutation, of `fail` over
    /// `{a, b}`, happens while the memo is empty, so its key is computed
    /// when the step fails; the other interleaving reaches that
    /// configuration again and hits it. Step 2 (`ins.b` after `ins.a`) is
    /// never fingerprinted; the first step's key is computed when its
    /// choicepoint is exhausted. The counts are the eager memo's.
    #[test]
    fn a_refutation_made_while_the_memo_is_empty_is_recorded_and_hit() {
        let (stats, log) = solve_recorded("base a/0. base b/0. ?- (ins.a | ins.b) * fail.");
        assert_eq!((stats.steps, stats.memo_hits), (5, 1));
        let pred = |name| Pred::new(name, 0);
        let both = Database::new()
            .insert(pred("a"), &Tuple::unit())
            .and_then(|(db, _)| db.insert(pred("b"), &Tuple::unit()))
            .expect("inserts")
            .0;
        let refuted = (Goal::Fail, both.digest());
        assert!(
            log.configs.contains_key(&refuted),
            "{:?}",
            log.configs.keys()
        );
        // The start, `fail` over {a, b}, and `ins.a * fail` over {b}.
        assert_eq!(log.configs.len(), 3, "{:?}", log.configs.keys());
    }

    /// tdbench's `refute` member (examples 2.1-2.2, a transfer that
    /// cannot happen, in parallel with two that can): its first refutation
    /// happens deep in the first interleaving, while the memo is empty.
    /// Same steps and memo hits as an eager key gives, with far fewer
    /// configurations fingerprinted than steps taken.
    #[test]
    fn a_failure_heavy_search_keeps_its_counts_with_deferred_keys() {
        let (stats, log) = solve_recorded(
            "base balance/2.
             init balance(acct1, 30). init balance(acct2, 30). init balance(acct3, 30).
             withdraw(Amt, Acct) <- balance(Acct, Bal) * Bal >= Amt * del.balance(Acct, Bal)
                 * NB is Bal - Amt * ins.balance(Acct, NB).
             deposit(Amt, Acct) <- balance(Acct, Bal) * del.balance(Acct, Bal)
                 * NB is Bal + Amt * ins.balance(Acct, NB).
             transfer(Amt, From, To) <- withdraw(Amt, From) * deposit(Amt, To).
             ?- transfer(5, acct1, acct2) | transfer(5, acct2, acct1)
                | transfer(1000, acct3, acct1).",
        );
        assert_eq!((stats.steps, stats.memo_hits), (2255, 1328));
        assert!(!log.configs.is_empty());
        assert!((log.configs.len() as u64) < stats.steps);
    }

    /// `tests/kernel_equivalence.rs`'s goal space: every connective over
    /// ground flag updates, tests and absence tests.
    fn arb_flag_goal(depth: u32) -> impl Strategy<Value = Goal> {
        let leaf = prop_oneof![
            (0u8..4).prop_map(|i| Goal::ins(&format!("f{i}"), vec![])),
            (0u8..4).prop_map(|i| Goal::del(&format!("f{i}"), vec![])),
            (0u8..4).prop_map(|i| Goal::prop(&format!("f{i}"))),
            (0u8..4).prop_map(|i| Goal::NotAtom(Atom::prop(&format!("f{i}")))),
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

    /// Goals with variables, constants and every node kind, built with the
    /// raw constructors so leaves keep `True`s and nested compositions.
    fn arb_goal(depth: u32) -> impl Strategy<Value = Goal> {
        let term = || {
            prop_oneof![
                (0u32..4).prop_map(Term::var),
                (0u8..3).prop_map(|i| Term::sym(&format!("c{i}"))),
                (0i64..3).prop_map(Term::int),
            ]
        };
        let atom = || {
            (0u8..3, proptest::collection::vec(term(), 0..3))
                .prop_map(|(i, args)| Atom::new(&format!("p{i}"), args))
        };
        let leaf = prop_oneof![
            atom().prop_map(Goal::Atom),
            atom().prop_map(Goal::NotAtom),
            atom().prop_map(Goal::Ins),
            atom().prop_map(Goal::Del),
            (term(), term())
                .prop_map(|(a, b)| Goal::Builtin(td_core::goal::Builtin::Lt, vec![a, b])),
            (term(), term(), term())
                .prop_map(|(a, b, c)| Goal::Builtin(td_core::goal::Builtin::Add, vec![a, b, c])),
            Just(Goal::True),
            Just(Goal::Fail),
        ];
        leaf.prop_recursive(depth, 24, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Goal::Seq),
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Goal::Par),
                proptest::collection::vec(inner.clone(), 1..3).prop_map(Goal::Choice),
                inner.prop_map(Goal::iso),
            ]
        })
    }

    fn identity(t: Term) -> Term {
        t
    }

    fn node(g: &Goal) -> Option<PTree> {
        make_node(g, &td_core::Program::builder().build_unchecked())
    }

    fn fp(tree: &PTree, resolve: impl Fn(Term) -> Term, db: &Database) -> u128 {
        fingerprint(tree, resolve, db, &mut Vec::new())
    }

    /// One edit of a goal that the fingerprint must see.
    #[derive(Clone, Copy, Debug)]
    enum Edit {
        Term,
        /// One variable occurrence becomes another of the goal's variables.
        OtherVar,
        Pred,
        SeqPar,
        ChildOrder,
    }

    impl Edit {
        /// The edited node, if the edit applies to `g`'s root.
        fn at(self, g: &Goal) -> Option<Goal> {
            let renamed = |a: &Atom| Atom::new("elsewhere", a.args.clone());
            let swapped = |gs: &[Goal]| {
                let mut gs = gs.to_vec();
                gs.swap(0, 1);
                gs
            };
            match (self, g) {
                (Edit::Pred, Goal::Atom(a)) => Some(Goal::Atom(renamed(a))),
                (Edit::Pred, Goal::NotAtom(a)) => Some(Goal::NotAtom(renamed(a))),
                (Edit::Pred, Goal::Ins(a)) => Some(Goal::Ins(renamed(a))),
                (Edit::Pred, Goal::Del(a)) => Some(Goal::Del(renamed(a))),
                (Edit::SeqPar, Goal::Seq(gs)) => Some(Goal::Par(gs.clone())),
                (Edit::SeqPar, Goal::Par(gs)) => Some(Goal::Seq(gs.clone())),
                (Edit::ChildOrder, Goal::Seq(gs)) if gs.len() > 1 => Some(Goal::Seq(swapped(gs))),
                (Edit::ChildOrder, Goal::Par(gs)) if gs.len() > 1 => Some(Goal::Par(swapped(gs))),
                (Edit::ChildOrder, Goal::Choice(gs)) if gs.len() > 1 => {
                    Some(Goal::Choice(swapped(gs)))
                }
                _ => None,
            }
        }

        /// Apply the edit at the `nth` place (pre-order) it applies to,
        /// counting down; `None` left in `nth` means it was applied.
        fn apply(self, g: &Goal, nth: &mut Option<usize>) -> Goal {
            if let Edit::Term | Edit::OtherVar = self {
                return g.map_terms(&mut |t| match nth {
                    Some(0) => {
                        *nth = None;
                        match (self, t) {
                            (Edit::OtherVar, Term::Var(Var(i))) => Term::var((i + 1) % 4),
                            (Edit::OtherVar, val) => val,
                            // A constant no generated goal mentions.
                            _ => Term::sym("elsewhere"),
                        }
                    }
                    Some(n) => {
                        *n -= 1;
                        t
                    }
                    None => t,
                });
            }
            if let (Some(n), Some(edited)) = (nth.as_mut(), self.at(g)) {
                if *n == 0 {
                    *nth = None;
                    return edited;
                }
                *n -= 1;
            }
            let each = |gs: &[Goal], nth: &mut Option<usize>| -> Vec<Goal> {
                gs.iter().map(|c| self.apply(c, nth)).collect()
            };
            match g {
                Goal::Seq(gs) => Goal::Seq(each(gs, nth)),
                Goal::Par(gs) => Goal::Par(each(gs, nth)),
                Goal::Choice(gs) => Goal::Choice(each(gs, nth)),
                Goal::Iso(inner) => Goal::iso(self.apply(inner, nth)),
                leaf => leaf.clone(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn flag_goal_runs_partition_configurations_exactly_like_the_exact_key(
            g in arb_flag_goal(3),
        ) {
            let program = td_core::Program::builder()
                .base_preds(&[("f0", 0), ("f1", 0), ("f2", 0), ("f3", 0)])
                .build()
                .unwrap();
            let db = Database::with_schema_of(&program);
            let log = recorded(|| {
                drive(&program, &g, &db);
            });
            assert_lanes_injective(&log.configs);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Renaming variables apart, and reaching them through alias chains
        /// or bound values in a `Bindings`, is invisible.
        #[test]
        fn renaming_and_alias_chains_leave_the_fingerprint_unchanged(g in arb_goal(3)) {
            let Some(tree) = node(&g) else { return };
            let db = Database::new();
            let plain = fp(&tree, identity, &db);

            let renamed = g.map_terms(&mut |t| match t {
                Term::Var(Var(i)) => Term::var(90 - 7 * i),
                val => val,
            });
            let renamed = node(&renamed).expect("same shape");
            prop_assert_eq!(fp(&renamed, identity, &db), plain);
            // So is reading the tree at an offset.
            prop_assert_eq!(fp(&tree.at(13), identity, &db), plain);

            // X → X+10 → X+20 (unbound): the chain's end is what is numbered.
            let mut chains = Bindings::new();
            chains.alloc(30);
            for i in 0..4 {
                chains.bind(Var(i), Term::var(i + 10));
                chains.bind(Var(i + 10), Term::var(i + 20));
            }
            prop_assert_eq!(fp(&tree, |t| chains.resolve(t), &db), plain);

            // Binding a variable is substituting it.
            let mut bound = Bindings::new();
            bound.alloc(30);
            bound.bind(Var(1), Term::var(11));
            bound.bind(Var(11), Term::int(7));
            let substituted = g.map_terms(&mut |t| match t {
                Term::Var(Var(1)) => Term::int(7),
                other => other,
            });
            let substituted = node(&substituted).expect("same shape");
            prop_assert_eq!(
                fp(&tree, |t| bound.resolve(t), &db),
                fp(&substituted, identity, &db)
            );
        }

        /// Any one edit changes the fingerprint exactly when it changes the
        /// exact key (an edit can be a no-op: `Seq[(), a]` is `Par[(), a]`).
        #[test]
        fn one_edit_changes_the_fingerprint_iff_it_changes_the_exact_key(
            g in arb_goal(3),
            edit in prop_oneof![
                Just(Edit::Term),
                Just(Edit::OtherVar),
                Just(Edit::Pred),
                Just(Edit::SeqPar),
                Just(Edit::ChildOrder),
            ],
            place in 0usize..64,
        ) {
            // How many places the edit applies to: count down from far away.
            let mut probe = Some(usize::MAX);
            edit.apply(&g, &mut probe);
            let places = usize::MAX - probe.expect("never reached");
            if places == 0 {
                return;
            }
            let mut nth = Some(place % places);
            let edited = edit.apply(&g, &mut nth);
            prop_assert!(nth.is_none(), "edit applied");
            let (Some(t1), Some(t2)) = (node(&g), node(&edited)) else {
                return;
            };
            let db = Database::new();
            let same_key = exact_key(&to_goal(&t1), &identity, 0)
                == exact_key(&to_goal(&t2), &identity, 0);
            if matches!(edit, Edit::Term | Edit::Pred) {
                prop_assert!(!same_key, "a fresh name always changes the exact key");
            }
            prop_assert_eq!(fp(&t1, identity, &db) == fp(&t2, identity, &db), same_key);
        }

        #[test]
        fn the_database_is_part_of_the_fingerprint(g in arb_goal(2), n in 0i64..50) {
            let Some(tree) = node(&g) else { return };
            let pred = Pred::new("t", 1);
            let db = Database::new().declare(pred);
            let (db2, changed) = db.insert(pred, &tuple!(n)).unwrap();
            prop_assert!(changed);
            prop_assert_ne!(fp(&tree, identity, &db), fp(&tree, identity, &db2));
            let (db3, _) = db2.delete(pred, &tuple!(n)).unwrap();
            prop_assert_eq!(fp(&tree, identity, &db), fp(&tree, identity, &db3));
        }
    }
}
