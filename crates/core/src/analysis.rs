//! Program analysis: dependency graphs, recursion, call positions.
//!
//! The paper's complexity results (§4–§5) hinge on *which* modeling features
//! a program uses: concurrent composition, recursion, recursion through
//! concurrent composition (unbounded process creation, Example 3.2), and
//! tail recursion (iteration, the genome protocol loop of \[26\]). This module
//! computes those facts; [`crate::fragment`] turns them into the paper's
//! sublanguage classification.

use crate::atom::Pred;
use crate::goal::Goal;
use crate::program::Program;
use std::collections::{HashMap, HashSet};

/// Where a call occurs inside a rule body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CallSite {
    /// The callee.
    pub pred: Pred,
    /// The call is the *last* action of the body (tail position): the final
    /// conjunct of the top-level serial chain, possibly inside a `Choice`
    /// branch, but not inside `Par` or `Iso`.
    pub tail: bool,
    /// The call occurs (anywhere) under a concurrent composition.
    pub in_par: bool,
    /// The call occurs (anywhere) under an isolation block.
    pub in_iso: bool,
}

/// Collect the calls to *derived* predicates in `goal`, with position flags.
/// `p` decides which atoms are calls (derived) vs tuple tests (base).
pub fn call_sites(p: &Program, goal: &Goal) -> Vec<CallSite> {
    let mut out = Vec::new();
    walk(p, goal, true, false, false, &mut out);
    out
}

fn walk(p: &Program, g: &Goal, tail: bool, in_par: bool, in_iso: bool, out: &mut Vec<CallSite>) {
    match g {
        Goal::Atom(a) if p.is_derived(a.pred) => {
            out.push(CallSite {
                pred: a.pred,
                tail: tail && !in_par && !in_iso,
                in_par,
                in_iso,
            });
        }
        Goal::Seq(gs) => {
            for (i, sub) in gs.iter().enumerate() {
                let last = i + 1 == gs.len();
                walk(p, sub, tail && last, in_par, in_iso, out);
            }
        }
        Goal::Par(gs) => {
            for sub in gs {
                walk(p, sub, false, true, in_iso, out);
            }
        }
        Goal::Iso(sub) => walk(p, sub, false, in_par, true, out),
        Goal::Choice(gs) => {
            for sub in gs {
                walk(p, sub, tail, in_par, in_iso, out);
            }
        }
        _ => {}
    }
}

/// The predicate dependency graph of a program: derived predicate → the
/// derived predicates its rules call.
#[derive(Clone, Debug)]
pub struct DepGraph {
    edges: HashMap<Pred, HashSet<Pred>>,
}

impl DepGraph {
    /// Build the graph from a program.
    pub fn of(p: &Program) -> DepGraph {
        let mut edges: HashMap<Pred, HashSet<Pred>> = HashMap::new();
        for pred in p.derived_preds() {
            edges.entry(pred).or_default();
        }
        for r in p.rules() {
            let entry = edges.entry(r.head.pred).or_default();
            for site in call_sites(p, &r.body) {
                entry.insert(site.pred);
            }
        }
        DepGraph { edges }
    }

    /// Successors of `pred` (empty for unknown predicates).
    pub fn callees(&self, pred: Pred) -> impl Iterator<Item = Pred> + '_ {
        self.edges
            .get(&pred)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// All nodes.
    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.edges.keys().copied()
    }

    /// Strongly connected components (Tarjan), in reverse topological order.
    pub fn sccs(&self) -> Vec<Vec<Pred>> {
        let mut nodes: Vec<Pred> = self.edges.keys().copied().collect();
        nodes.sort(); // determinism
        let index_of: HashMap<Pred, usize> =
            nodes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let adj: Vec<Vec<usize>> = nodes
            .iter()
            .map(|p| {
                let mut cs: Vec<usize> = self
                    .callees(*p)
                    .filter_map(|q| index_of.get(&q).copied())
                    .collect();
                cs.sort_unstable();
                cs
            })
            .collect();
        sccs(&adj)
            .into_iter()
            .map(|comp| comp.into_iter().map(|i| nodes[i]).collect())
            .collect()
    }

    /// The *recursive* predicates — members of a non-trivial SCC, or with a
    /// self-loop — each with the id of its component (its position in
    /// [`DepGraph::sccs`]): a call is recursive iff caller and callee are
    /// both here under one id. One Tarjan pass, however many calls are
    /// then looked up.
    pub fn recursive_components(&self) -> HashMap<Pred, usize> {
        let mut out = HashMap::new();
        for (id, comp) in self.sccs().into_iter().enumerate() {
            let p = comp[0];
            if comp.len() > 1 || self.edges.get(&p).is_some_and(|s| s.contains(&p)) {
                out.extend(comp.into_iter().map(|p| (p, id)));
            }
        }
        out
    }

    /// The set of recursive predicates (see [`DepGraph::recursive_components`]).
    pub fn recursive_preds(&self) -> HashSet<Pred> {
        self.recursive_components().into_keys().collect()
    }
}

/// Tarjan's strongly connected components of the graph `adj` (node `v`'s
/// successors are `adj[v]`), each sorted, emitted successors-first — for a
/// call graph, a valid bottom-up evaluation order. The depth-first walk
/// keeps its own stack, so a dependency chain of any length costs heap,
/// not thread stack.
pub fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: i64,
        lowlink: i64,
        on_stack: bool,
    }
    let n = adj.len();
    let mut st = vec![
        NodeState {
            index: -1,
            lowlink: -1,
            on_stack: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter: i64 = 0;

    for start in 0..n {
        if st[start].index != -1 {
            continue;
        }
        // Explicit DFS stack: (node, next-child-index).
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        st[start].index = counter;
        st[start].lowlink = counter;
        counter += 1;
        st[start].on_stack = true;
        stack.push(start);

        while let Some(&mut (v, ref mut ci)) = dfs.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if st[w].index == -1 {
                    st[w].index = counter;
                    st[w].lowlink = counter;
                    counter += 1;
                    st[w].on_stack = true;
                    stack.push(w);
                    dfs.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    st[parent].lowlink = st[parent].lowlink.min(st[v].lowlink);
                }
                if st[v].lowlink == st[v].index {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        st[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
}

/// Aggregate structural facts about a program + goal, consumed by the
/// fragment classifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureFacts {
    /// Some rule body contains `|`.
    pub par_in_rules: bool,
    /// The top-level goal contains `|`.
    pub par_in_goal: bool,
    /// The program has at least one recursive predicate.
    pub recursive: bool,
    /// Some recursive call occurs under a `|` in a rule body — the
    /// unbounded-process-creation pattern of Example 3.2.
    pub recursion_through_par: bool,
    /// Some recursive call occurs under `iso`.
    pub recursion_through_iso: bool,
    /// Every recursive call is in tail position (vacuously true when there is
    /// no recursion).
    pub tail_recursion_only: bool,
    /// Maximum syntactic width of any `|` in the program or goal.
    pub max_par_width: usize,
}

/// Compute [`StructureFacts`] for `program` with entry `goal`.
pub fn structure_facts(program: &Program, goal: &Goal) -> StructureFacts {
    let recursive = DepGraph::of(program).recursive_components();

    let mut par_in_rules = false;
    let mut recursion_through_par = false;
    let mut recursion_through_iso = false;
    let mut tail_recursion_only = true;
    let mut max_par_width = 0usize;

    let mut track_width = |g: &Goal| {
        g.visit(&mut |sub| {
            if let Goal::Par(branches) = sub {
                max_par_width = max_par_width.max(branches.len());
            }
        });
    };

    for r in program.rules() {
        if r.body.has_par() {
            par_in_rules = true;
        }
        track_width(&r.body);
        for site in call_sites(program, &r.body) {
            // A call is recursive iff callee and caller share a recursive
            // component.
            let callee = recursive.get(&site.pred);
            if callee.is_some() && callee == recursive.get(&r.head.pred) {
                if site.in_par {
                    recursion_through_par = true;
                }
                if site.in_iso {
                    recursion_through_iso = true;
                }
                if !site.tail {
                    tail_recursion_only = false;
                }
            }
        }
    }
    track_width(goal);

    StructureFacts {
        par_in_rules,
        par_in_goal: goal.has_par(),
        recursive: !recursive.is_empty(),
        recursion_through_par,
        recursion_through_iso,
        tail_recursion_only,
        max_par_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Term;

    fn prog(rules: Vec<(Atom, Goal)>, base: &[(&str, u32)]) -> Program {
        let mut b = Program::builder().base_preds(base);
        for (h, g) in rules {
            b = b.rule_parts(h, g);
        }
        b.build_unchecked()
    }

    #[test]
    fn call_sites_distinguish_tail_positions() {
        let p = prog(
            vec![
                (
                    Atom::prop("loop"),
                    Goal::seq(vec![Goal::prop("step"), Goal::prop("loop")]),
                ),
                (Atom::prop("step"), Goal::ins("t", vec![])),
            ],
            &[("t", 0)],
        );
        let r = &p.rules()[0];
        let sites = call_sites(&p, &r.body);
        assert_eq!(sites.len(), 2);
        let step = sites
            .iter()
            .find(|s| s.pred == Pred::new("step", 0))
            .unwrap();
        let rec = sites
            .iter()
            .find(|s| s.pred == Pred::new("loop", 0))
            .unwrap();
        assert!(!step.tail);
        assert!(rec.tail);
    }

    #[test]
    fn calls_inside_par_are_not_tail() {
        let p = prog(
            vec![
                (
                    Atom::prop("sim"),
                    Goal::par(vec![Goal::prop("work"), Goal::prop("sim")]),
                ),
                (Atom::prop("work"), Goal::ins("t", vec![])),
            ],
            &[("t", 0)],
        );
        let sites = call_sites(&p, &p.rules()[0].body);
        for s in &sites {
            assert!(s.in_par);
            assert!(!s.tail);
        }
    }

    #[test]
    fn choice_branches_preserve_tailness() {
        let p = prog(
            vec![(
                Atom::prop("loop"),
                Goal::choice(vec![Goal::prop("loop"), Goal::ins("t", vec![])]),
            )],
            &[("t", 0)],
        );
        let sites = call_sites(&p, &p.rules()[0].body);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].tail);
    }

    #[test]
    fn sccs_find_mutual_recursion() {
        let p = prog(
            vec![
                (Atom::prop("a"), Goal::prop("b")),
                (Atom::prop("b"), Goal::prop("a")),
                (Atom::prop("c"), Goal::prop("a")),
            ],
            &[],
        );
        let g = DepGraph::of(&p);
        let rec = g.recursive_preds();
        assert!(rec.contains(&Pred::new("a", 0)));
        assert!(rec.contains(&Pred::new("b", 0)));
        assert!(!rec.contains(&Pred::new("c", 0)));
    }

    #[test]
    fn self_loop_is_recursive() {
        let p = prog(vec![(Atom::prop("r"), Goal::prop("r"))], &[]);
        assert!(DepGraph::of(&p)
            .recursive_preds()
            .contains(&Pred::new("r", 0)));
    }

    #[test]
    fn nonrecursive_chain_has_no_recursive_preds() {
        let p = prog(
            vec![
                (Atom::prop("a"), Goal::prop("b")),
                (Atom::prop("b"), Goal::prop("c")),
                (Atom::prop("c"), Goal::ins("t", vec![])),
            ],
            &[("t", 0)],
        );
        assert!(DepGraph::of(&p).recursive_preds().is_empty());
    }

    #[test]
    fn facts_for_example_32_simulation_pattern() {
        // simulate <- workflow(W) | simulate   (unbounded process creation)
        let p = prog(
            vec![
                (
                    Atom::prop("simulate"),
                    Goal::par(vec![
                        Goal::atom("workflow", vec![Term::var(0)]),
                        Goal::prop("simulate"),
                    ]),
                ),
                (
                    Atom::new("workflow", vec![Term::var(0)]),
                    Goal::del("item", vec![Term::var(0)]),
                ),
            ],
            &[("item", 1)],
        );
        let f = structure_facts(&p, &Goal::prop("simulate"));
        assert!(f.recursive);
        assert!(f.recursion_through_par);
        assert!(f.par_in_rules);
        assert!(!f.tail_recursion_only);
        assert_eq!(f.max_par_width, 2);
    }

    /// `p0 <- p1, …, p(n-1) <- tail`: a ring when the last rule calls `p0`,
    /// a chain when it updates instead.
    fn linked(n: usize, ring: bool) -> Program {
        let name = |i: usize| format!("p{i}");
        let rules = (0..n)
            .map(|i| {
                let body = match i + 1 < n {
                    true => Goal::prop(&name(i + 1)),
                    false if ring => Goal::prop(&name(0)),
                    false => Goal::ins("t", vec![]),
                };
                (Atom::prop(&name(i)), body)
            })
            .collect();
        prog(rules, &[("t", 0)])
    }

    /// Classification is one pass over the call sites, whatever their
    /// number: a 20 000-predicate ring — one recursive call site per rule,
    /// each of which once re-ran Tarjan over the whole program (19 s at
    /// 8 000) — and a 20 000-rule chain have the facts of their 8-rule
    /// versions.
    #[test]
    fn facts_do_not_depend_on_the_length_of_a_ring_or_a_chain() {
        let goal = Goal::prop("p0");
        for ring in [true, false] {
            let small = structure_facts(&linked(8, ring), &goal);
            assert_eq!(small.recursive, ring);
            assert!(small.tail_recursion_only);
            assert_eq!(structure_facts(&linked(20_000, ring), &goal), small);
        }
    }

    #[test]
    fn facts_for_tail_recursive_iteration() {
        // loop <- step * loop  (bounded iteration; Example: repeat protocol)
        let p = prog(
            vec![
                (
                    Atom::prop("loop"),
                    Goal::seq(vec![Goal::prop("step"), Goal::prop("loop")]),
                ),
                (Atom::prop("step"), Goal::ins("t", vec![])),
            ],
            &[("t", 0)],
        );
        let f = structure_facts(&p, &Goal::prop("loop"));
        assert!(f.recursive);
        assert!(f.tail_recursion_only);
        assert!(!f.recursion_through_par);
        assert!(!f.par_in_rules);
        assert!(!f.par_in_goal);
    }

    #[test]
    fn goal_par_detected_separately_from_rules() {
        let p = prog(
            vec![(Atom::prop("t1"), Goal::ins("t", vec![]))],
            &[("t", 0)],
        );
        let goal = Goal::par(vec![Goal::prop("t1"), Goal::prop("t1")]);
        let f = structure_facts(&p, &goal);
        assert!(f.par_in_goal);
        assert!(!f.par_in_rules);
        assert!(!f.recursive);
    }

    #[test]
    fn non_tail_sequential_recursion_detected() {
        // r <- r * step  (head recursion; not tail)
        let p = prog(
            vec![
                (
                    Atom::prop("r"),
                    Goal::seq(vec![Goal::prop("r"), Goal::prop("step")]),
                ),
                (Atom::prop("step"), Goal::ins("t", vec![])),
            ],
            &[("t", 0)],
        );
        let f = structure_facts(&p, &Goal::prop("r"));
        assert!(f.recursive);
        assert!(!f.tail_recursion_only);
    }

    #[test]
    fn mutual_tail_recursion_counts_as_tail() {
        let p = prog(
            vec![
                (
                    Atom::prop("a"),
                    Goal::seq(vec![Goal::prop("s"), Goal::prop("b")]),
                ),
                (
                    Atom::prop("b"),
                    Goal::seq(vec![Goal::prop("s"), Goal::prop("a")]),
                ),
                (Atom::prop("s"), Goal::ins("t", vec![])),
            ],
            &[("t", 0)],
        );
        let f = structure_facts(&p, &Goal::prop("a"));
        assert!(f.recursive);
        assert!(f.tail_recursion_only);
    }

    #[test]
    fn call_to_recursive_pred_from_outside_scc_is_not_recursion() {
        // main <- loop (not itself recursive); loop <- loop.
        // The non-tail call main→loop must not break tail_recursion_only.
        let p = prog(
            vec![
                (
                    Atom::prop("main"),
                    Goal::seq(vec![Goal::prop("loop"), Goal::prop("after")]),
                ),
                (
                    Atom::prop("loop"),
                    Goal::choice(vec![Goal::prop("loop"), Goal::True]),
                ),
                (Atom::prop("after"), Goal::ins("t", vec![])),
            ],
            &[("t", 0)],
        );
        let f = structure_facts(&p, &Goal::prop("main"));
        assert!(f.recursive);
        assert!(f.tail_recursion_only, "main->loop is not a recursive call");
    }
}

#[cfg(test)]
mod scc_properties {
    use super::*;
    use crate::atom::Atom;
    use crate::goal::Goal;
    use crate::program::Program;
    use proptest::prelude::*;
    use std::collections::HashSet as StdSet;

    /// Build a program whose call graph is exactly `edges` over `n` props.
    fn graph_program(n: usize, edges: &StdSet<(usize, usize)>) -> Program {
        let mut b = Program::builder().base_pred("t", 0);
        for i in 0..n {
            let callees: Vec<Goal> = edges
                .iter()
                .filter(|(a, _)| *a == i)
                .map(|(_, c)| Goal::prop(&format!("g{c}")))
                .collect();
            let body = if callees.is_empty() {
                Goal::ins("t", vec![])
            } else {
                Goal::seq(callees)
            };
            b = b.rule_parts(Atom::prop(&format!("g{i}")), body);
        }
        b.build_unchecked()
    }

    /// Reference recursive-predicate computation: i is recursive iff there
    /// is a path i →⁺ i (DFS reachability).
    fn recursive_by_reachability(n: usize, edges: &StdSet<(usize, usize)>) -> StdSet<usize> {
        let reach = |from: usize| -> StdSet<usize> {
            let mut seen = StdSet::new();
            let mut stack: Vec<usize> = edges
                .iter()
                .filter(|(a, _)| *a == from)
                .map(|(_, b)| *b)
                .collect();
            while let Some(x) = stack.pop() {
                if seen.insert(x) {
                    stack.extend(edges.iter().filter(|(a, _)| *a == x).map(|(_, b)| *b));
                }
            }
            seen
        };
        (0..n).filter(|i| reach(*i).contains(i)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tarjan_recursive_preds_match_reachability(
            n in 1usize..8,
            raw_edges in proptest::collection::hash_set((0usize..8, 0usize..8), 0..20),
        ) {
            let edges: StdSet<(usize, usize)> = raw_edges
                .into_iter()
                .filter(|(a, b)| *a < n && *b < n)
                .collect();
            let p = graph_program(n, &edges);
            let got: StdSet<usize> = DepGraph::of(&p)
                .recursive_preds()
                .into_iter()
                .map(|pred| {
                    pred.name.as_str()[1..].parse::<usize>().expect("gN name")
                })
                .collect();
            let expected = recursive_by_reachability(n, &edges);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn sccs_partition_the_nodes(
            n in 1usize..8,
            raw_edges in proptest::collection::hash_set((0usize..8, 0usize..8), 0..20),
        ) {
            let edges: StdSet<(usize, usize)> = raw_edges
                .into_iter()
                .filter(|(a, b)| *a < n && *b < n)
                .collect();
            let p = graph_program(n, &edges);
            let sccs = DepGraph::of(&p).sccs();
            let mut seen = StdSet::new();
            for comp in &sccs {
                prop_assert!(!comp.is_empty());
                for pred in comp {
                    prop_assert!(seen.insert(*pred), "node in two SCCs");
                }
            }
            prop_assert_eq!(seen.len(), n);
        }
    }
}
