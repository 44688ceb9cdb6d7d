//! One-pass 128-bit configuration fingerprints.
//!
//! Every driver memoizes configurations `(process tree, database)` up to
//! variable renaming: the machine's failure memo and the explicit-state
//! search's claim table. [`fingerprint`] identifies a
//! configuration without building anything: it walks the tree once,
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

use crate::tree::{Node, PTree};
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
/// picks its shard from the high lane, so a shard's keys still spread over
/// all of its buckets.)
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

// Node tags, in the low byte of a node's first word. `PTree::Seq`/`Par`
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

impl<R: Fn(Term) -> Term> Walk<'_, R> {
    fn word(&mut self, w: u64) {
        self.a = fold(self.a ^ w, 0x9e37_79b9_7f4a_7c15);
        self.b = fold(self.b ^ w, 0xc2b2_ae3d_27d4_eb4f);
    }

    /// A tag with a count (or id) above it.
    fn node(&mut self, tag: u64, n: usize) {
        self.word(tag | (n as u64) << 8);
    }

    /// A subtree whose parents add `base` to its offset.
    fn tree(&mut self, tree: &PTree, base: u32) {
        let off = base + tree.off;
        match &tree.node {
            Node::Lit(action) => self.goal(action.goal(), off),
            Node::Seq(cs) => {
                self.node(SEQ, cs.len());
                cs.iter().for_each(|c| self.tree(c, off));
            }
            Node::Par(cs) => {
                self.node(PAR, cs.len());
                cs.iter().for_each(|c| self.tree(c, off));
            }
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
/// passes its trail's `resolve`, the ground drivers the identity. `vars`
/// is the caller's numbering scratch (cleared here), so a steady-state
/// call allocates nothing.
pub(crate) fn fingerprint(
    tree: &PTree,
    resolve: impl Fn(Term) -> Term,
    db: &Database,
    vars: &mut Vec<Var>,
) -> u128 {
    vars.clear();
    let mut walk = Walk {
        a: 0x243f_6a88_85a3_08d3,
        b: 0x1319_8a2e_0370_7344,
        resolve,
        vars,
    };
    walk.tree(tree, 0);
    let digest = db.digest();
    walk.word(digest as u64);
    walk.word((digest >> 64) as u64);
    let fp = u128::from(walk.b) << 64 | u128::from(walk.a);
    #[cfg(test)]
    tests::record(tree, &walk.resolve, digest, fp);
    fp
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::cache::{canonical_goal, StateKey};
    use crate::decider::{decide, DeciderConfig};
    use crate::engine::{load_init, Engine};
    use crate::tree::{make_node, to_goal};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use td_core::{Bindings, Pred};
    use td_db::tuple;
    use td_parser::parse_program;

    thread_local! {
        /// While `Some`, every [`fingerprint`] call on this thread logs the
        /// exact key it replaces beside the fingerprint it returned.
        static LOG: RefCell<Option<HashMap<StateKey, u128>>> = const { RefCell::new(None) };
    }

    /// The key the drivers used before fingerprints: the α-renamed resolved
    /// goal the tree renders to, and the database digest.
    fn exact_key(tree: &PTree, resolve: &impl Fn(Term) -> Term, digest: u128) -> StateKey {
        let resolved = to_goal(tree).map_terms(&mut |t| resolve(t));
        (canonical_goal(&resolved), digest)
    }

    /// The test-only hook in [`fingerprint`]: equal exact keys must get
    /// equal fingerprints, checked here as they arrive.
    pub(in super::super) fn record(
        tree: &PTree,
        resolve: &impl Fn(Term) -> Term,
        digest: u128,
        fp: u128,
    ) {
        LOG.with(|log| {
            if let Some(seen) = log.borrow_mut().as_mut() {
                let key = exact_key(tree, resolve, digest);
                if let Some(old) = seen.insert(key.clone(), fp) {
                    assert_eq!(old, fp, "one exact key, two fingerprints: {key:?}");
                }
            }
        });
    }

    /// Run `f` with the hook on; return every `(exact key, fingerprint)`
    /// pair the drivers computed meanwhile.
    fn recorded(f: impl FnOnce()) -> HashMap<StateKey, u128> {
        LOG.with(|log| *log.borrow_mut() = Some(HashMap::new()));
        f();
        LOG.with(|log| log.borrow_mut().take())
            .expect("hook was on")
    }

    /// The other half of "the partitions coincide": distinct exact keys
    /// differ on *each* 64-bit lane (`record` checked that equal keys
    /// agree).
    fn assert_lanes_injective(seen: &HashMap<StateKey, u128>) {
        let low: HashSet<u64> = seen.values().map(|fp| *fp as u64).collect();
        let high: HashSet<u64> = seen.values().map(|fp| (*fp >> 64) as u64).collect();
        assert_eq!(low.len(), seen.len(), "two exact keys share a low lane");
        assert_eq!(high.len(), seen.len(), "two exact keys share a high lane");
    }

    /// Drive the machine and the explicit-state search over one goal (one
    /// worker runs on this thread, where the hook listens).
    fn drive(program: &td_core::Program, goal: &Goal, db: &Database) -> Option<Database> {
        let cfg = DeciderConfig {
            max_configs: 5_000,
            ..DeciderConfig::default()
        };
        // A fault or a truncated space still leaves its keys in the log.
        let _ = decide(program, goal, db, cfg);
        let outcome = Engine::new(program.clone()).solve(goal, db).ok()?;
        outcome.solution().map(|s| s.db.clone())
    }

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
        let seen = recorded(|| {
            for file in &files {
                let source = std::fs::read_to_string(file).expect("corpus file reads");
                let parsed = parse_program(&source).expect("corpus parses");
                let schema = Database::with_schema_of(&parsed.program);
                let mut db = load_init(&schema, &parsed.init).expect("corpus init loads");
                for g in &parsed.goals {
                    if let Some(next) = drive(&parsed.program, &g.goal, &db) {
                        db = next;
                    }
                }
            }
        });
        assert!(seen.len() > 1_000, "only {} keys recorded", seen.len());
        assert_lanes_injective(&seen);
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
            let seen = recorded(|| {
                drive(&program, &g, &db);
            });
            assert_lanes_injective(&seen);
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
            let same_key = exact_key(&t1, &identity, 0) == exact_key(&t2, &identity, 0);
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
