//! # cobra-core
//!
//! COBRA — **CO**mpression using a**B**st**RA**ction trees — the primary
//! contribution of Deutch, Moskovitch & Rinetzky (ICDE'19 demo; algorithm
//! from their SIGMOD'19 paper *Hypothetical Reasoning via Provenance
//! Abstraction*).
//!
//! Given provenance polynomials, a user-supplied **abstraction tree** over
//! (a subset of) the variables, and a bound on the provenance size, COBRA
//! chooses a **cut** of the tree — grouping the leaves below each cut node
//! into one meta-variable — that brings the polynomial's monomial count
//! under the bound while **maximizing the number of distinct variables**
//! (the degrees of freedom left for hypothetical reasoning).
//!
//! * [`tree`] — abstraction trees ([`AbstractionTree`]), built from specs
//!   or the compact text syntax; [`tree::paper_plans_tree`] is Fig. 2.
//! * [`cut`] — validated cuts, meta-variable substitutions, and full cut
//!   enumeration for the oracle.
//! * [`groups`] — the `(polynomial, context, exponent)` group analysis
//!   that makes the compressed size additive over cut nodes.
//! * [`planner`] — the **unified compression planner**: one
//!   [`CutPlanner`] interface (`plan` one bound, `plan_frontier` the whole
//!   Pareto curve) over a shared [`PlanContext`] of memoized cut
//!   statistics, implemented by [`ExactDp`] (the exact PTIME optimizer:
//!   bottom-up tree-knapsack dynamic programming) and [`Greedy`] (the
//!   agglomerative baseline).
//! * [`apply`] — applying a cut: variable renaming + monomial merging,
//!   plus the group-statistics fast path ([`apply::apply_cut_with_groups`])
//!   the frontier re-selection rides.
//! * [`brute`] — exhaustive search by real application, the correctness
//!   oracle for tests.
//! * [`budget`] — sweep budgets ([`SweepBudget`]: deadlines, scenario
//!   caps, cooperative cancellation) and exact partial results
//!   ([`SweepOutcome`]); every fold entry takes one.
//! * [`multi`] — multi-tree forests via coordinate descent (extension
//!   beyond the demo's single-tree setting), including the descent-built
//!   forest staircase ([`plan_forest_frontier`]) behind
//!   [`CobraSession::compress_forest_frontier`].
//! * [`hydrate`] — session persistence: snapshot a planned session
//!   (registry, tree, frontier, compiled engines) into one
//!   [`cobra_provenance::persist`] artifact and re-hydrate it — by mmap,
//!   zero-copy — into a session that answers bit-identically.
//! * [`assign`] — meta-variable defaults (group averages), scenario
//!   projection/expansion, result comparison and assignment-speedup
//!   measurement.
//! * [`scenario_set`] — lazily enumerated scenario families
//!   ([`ScenarioSet`]): cartesian factor grids, per-variable
//!   perturbations, and explicit lists, described in O(axes) memory.
//! * [`scenario`] — batched scenario sweeps over the compiled evaluation
//!   engine: many hypotheticals evaluated in one pass on both the full and
//!   the compressed provenance, with allocation-free grid binding and the
//!   one streaming span driver every sweep surface is built on, generic
//!   over a sealed [`Precision`] ([`Exact`], [`Approx`], [`Certified`]).
//! * [`folds`] — built-in O(1)-memory sweep aggregates ([`folds::MaxAbsError`],
//!   [`folds::ArgmaxImpact`], [`folds::Histogram`], [`folds::TopK`]), all
//!   mergeable ([`MergeFold`]) so the same fold runs sequentially or
//!   fanned across cores with bit-identical results.
//! * [`session`] — [`CobraSession`], the end-to-end pipeline of Fig. 4,
//!   including `compile_dag()`: algebraic compression of the compiled
//!   engines (shared-subterm DAG programs), composable with any cut.
//! * [`report`] — displayable compression reports.
//!
//! ## Which fold entry do I call?
//!
//! Streaming sweeps are two entries — on [`CobraSession`] and, one level
//! down, on [`CompiledComparison`] — times three precisions:
//!
//! | I want… | ordered closure fold, on the calling thread | [`MergeFold`] fanned across cores |
//! |---|---|---|
//! | exact `Rat` answers | [`fold::<Exact>`](CobraSession::fold) (sugar: [`sweep_fold`](CobraSession::sweep_fold)) | [`fold_par::<Exact>`](CobraSession::fold_par) |
//! | `f64` speed, 16 exact probes → [`F64Divergence`] | [`fold::<Approx>`](CobraSession::fold) (sugar: [`sweep_fold_f64`](CobraSession::sweep_fold_f64)) | [`fold_par::<Approx>`](CobraSession::fold_par) (sugar: [`sweep_fold_f64_par`](CobraSession::sweep_fold_f64_par)) |
//! | `f64` speed, sound bound on every scenario → [`F64ErrorBound`] | [`fold::<Certified>`](CobraSession::fold) (sugar: [`sweep_fold_f64_bounded`](CobraSession::sweep_fold_f64_bounded)) | [`fold_par::<Certified>`](CobraSession::fold_par) |
//!
//! All six take a `&`[`SweepBudget`] ([`SweepBudget::unlimited`] when
//! nothing should stop the sweep) and return the fold as a
//! [`SweepOutcome`] next to the precision's report; `fold_par` is
//! bit-identical to `fold` at any thread count. The materializing
//! [`sweep`](CobraSession::sweep) / [`sweep_f64`](CobraSession::sweep_f64)
//! are the ordered entry with an appending accumulator.
//!
//! ## Quick start
//!
//! ```
//! use cobra_core::CobraSession;
//!
//! let mut session = CobraSession::from_text(
//!     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
//! ).unwrap();
//! session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
//! session.set_bound(2);
//! let report = session.compress().unwrap();
//! assert_eq!(report.compressed_size, 2); // p1, v merged per month
//! ```

// The scenario surface (sweeps, sets, folds, the session) is the crate's
// public API contract: every exported item there must carry docs, and CI
// rejects broken intra-doc links (`cargo doc` with `-D warnings`).
#![warn(missing_docs)]

pub mod apply;
pub mod assign;
pub mod brute;
pub mod budget;
pub mod cut;
pub mod error;
pub mod folds;
pub mod groups;
pub mod hydrate;
pub mod multi;
pub mod planner;
pub mod report;
pub mod scenario;
pub mod scenario_set;
pub mod sensitivity;
pub mod session;
pub mod tree;

pub use apply::{apply_cut, apply_cuts, AppliedAbstraction};
pub use assign::{ResultComparison, ResultRow, SpeedupMeasurement};
pub use budget::{StopReason, SweepBudget, SweepOutcome};
pub use cut::{enumerate_cuts, Cut, MetaVar};
pub use error::{CoreError, Result};
pub use groups::GroupAnalysis;
pub use cobra_provenance::{
    DagOptions, DagStats, DeltaAction, DeltaError, DeltaOp, DeltaReport, PolyDelta,
};
pub use planner::{
    CutFrontier, CutPlanner, ExactDp, FrontierPoint, Greedy, NodeStats, ParetoPoint, PlanContext,
    PlanSnapshot, PlannedCut,
};
pub use folds::{MergeFold, SweepFold};
pub use scenario::{
    fold_program_sweep_par, Approx, Certified, CompiledComparison,
    ErrorShadow, Exact, F64Divergence, F64ErrorBound, F64ScenarioSweep, FoldItem, PairBinder,
    Precision, ScenarioSweep,
};
pub use scenario_set::{Axis, AxisOp, GridBuilder, RowBinder, ScenarioSet};
pub use sensitivity::{scenario_impacts, SensitivityReport};
pub use hydrate::{restore_session, restore_session_from_bytes, snapshot_session};
pub use multi::{
    forest_sweep, optimize_forest_descent, plan_forest_frontier, ForestFrontier,
    ForestFrontierPoint, ForestSolution,
};
pub use report::{frontier_table, CompressionReport, DagReport};
pub use session::{CobraSession, MetaSummaryRow, SessionInfo};
pub use tree::{AbstractionTree, NodeId, TreeSpec};
