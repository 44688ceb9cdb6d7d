//! The shared small-step transition kernel.
//!
//! Bonner's TD semantics is *one* transition relation over configurations
//! `(process tree, database)`: elementary database operations (`p(t̄)`,
//! `ins.p`, `del.p`, `not p`), rule unfolding, `or`-choice, and isolation
//! entry — plus the subgoal-cache macro-step that replays a contiguous
//! subtransaction's answer set in one move. This module is the single
//! implementation of that relation; its two *drivers* only decide
//! **which** enabled action to take next:
//!
//! * [`crate::machine`] — strategy-ordered depth-first search with a
//!   choicepoint stack and a shared trail (lazy bindings);
//! * [`crate::search`] — the explicit-state search over ground
//!   configurations, one claim per fingerprinted configuration, on one
//!   worker or many; [`crate::decider`] and [`crate::parallel`] are its
//!   entry points (docs/ARCHITECTURE.md, "The explicit-state search").
//!
//! The search goes through [`Kernel::actions`], which enumerates every
//! enabled transition of a [`Config`] — frontier leaves left to right,
//! per-leaf alternatives in canonical order — as [`Successor`]s with
//! effects already applied (TD states are persistent, so applying is as
//! cheap as describing). The sequential machine keeps its trail-based
//! representation and takes one alternative at a time, so it does not step
//! through `actions` — but what a step *does* is the same code for both:
//! [`call_step`] decides how a derived call executes (materialized-view
//! probe, cached replay, or unfolding), [`update`] is the `ins`/`del`
//! step, [`replay_answer`] re-applies a cached answer's delta and
//! [`probe_subgoal`] probes the cache for an isolated block, each charging
//! its own [`Hooks`] accounting and maintaining the materializer itself.
//! `machine.rs` and [`Kernel::actions`] are their two callers.
//!
//! Both identify a configuration the same way — [`fingerprint`], one
//! pass over the tree under the driver's bindings plus the database
//! digest — so they agree on which configurations are "the same".
//!
//! Accounting is uniform: every kernel entry point takes [`Hooks`], and
//! charges unfolds, database ops, isolation entries and cache hit/miss
//! counters there, emitting per-probe observability events only when the
//! driver supplies an event sink (`parallel::solve` passes `None` and
//! reports aggregate worker spans instead).
//!
//! Invariants drivers may rely on are spelled out in
//! `docs/ARCHITECTURE.md`.

mod cache;
mod elem;
mod fingerprint;
mod ground;
mod subst;
mod unfold;

pub(crate) use cache::{bind_answer, call_step, probe_subgoal, replay_answer, CallStep, Probe};
pub(crate) use elem::{
    apply_update, bind_tuple, builtin_args, check_absent, eval_builtin, eval_ground_builtin,
    matching_tuples, resolve_atom, update, BuiltinOut,
};
pub(crate) use fingerprint::{fingerprint, FpMap, FpSet};
pub(crate) use ground::{Config, Kernel, Successor};
pub(crate) use subst::{
    apply_unification, apply_unification_n, num_vars_in_tree, subst_tree, unify_project,
};
pub(crate) use unfold::{unfold_trail, unify_head};

use crate::config::Stats;
use crate::obs::{LocalMetrics, Observer};
use td_db::ReadSet;

/// Driver-supplied accounting sinks for one kernel call.
///
/// The kernel charges the semantic cost of a transition here — `unfolds`,
/// `db_ops`, `iso_enters`, `cache_hits`/`cache_misses`, per-rule and
/// per-subgoal tallies — so every backend counts identically. Search cost
/// (steps, backtracks, choicepoints, queue depths) is scheduling, and
/// stays with the driver.
pub(crate) struct Hooks<'a> {
    pub stats: &'a mut Stats,
    pub local: &'a mut LocalMetrics,
    /// Per-probe event sink. `None` suppresses kernel-level event emission
    /// (`parallel::solve` reports aggregate worker spans instead).
    pub events: Option<&'a Observer>,
    /// Transaction read set: every relation this execution consults —
    /// base-predicate matches, absence tests, materialized probes, cached
    /// replays — lands here, on every explored branch. Unlike the delta
    /// chain it is **monotone**: drivers must never truncate it on
    /// backtracking, because "this branch read `p` and failed" is exactly
    /// as commit-relevant as a read on the committed path (if `p` changed,
    /// the failed branch might now succeed and change the witness).
    pub reads: &'a mut ReadSet,
}
