//! The COBRA session: the end-to-end pipeline of the paper's Fig. 4.
//!
//! ```text
//! Provenance Engine → Provenance Polynomials ┐
//! Bound, Abstraction Trees ─────────────────→ Provenance Compression
//!                                             → Abstracted Polynomials
//! Meta-variables + Assignment ──────────────→ Results (+ speedup)
//! ```
//!
//! A [`CobraSession`] owns the variable registry, the input polynomials,
//! the user's valuation, trees and bound; [`compress`](CobraSession::compress)
//! runs the optimizer, after which meta-variables can be inspected
//! ([`meta_summary`](CobraSession::meta_summary), the paper's Fig. 5
//! screen) and scenarios evaluated ([`assign`](CobraSession::assign)).
//! With tracing enabled the session records the "under the hood" steps the
//! demonstration walks through (§4).
//!
//! ## Derived state
//!
//! A session's inputs are the polynomials' **monomial structure** and
//! **coefficients**, the registered **trees**, and the **selection** (the
//! bound plus the chosen frontier point, or a one-shot compression).
//! Everything else is derived from them, and one private function,
//! `CobraSession::invalidate`, is the only code that drops derived state:
//! its match over the mutation (`add_tree`, `set_bound`, a new selection,
//! a coefficient-only delta, a structural delta) is this table.
//!
//! | artifact | reads | on write: drop or patch | warm policy; persistence |
//! |---|---|---|---|
//! | flat full program | structure, coefficients | any delta: **patched** — the CSR rows of touched polynomials are spliced, and accumulated churn past a quarter of the program compacts by recompiling | built once, shared by every selection; persisted |
//! | full `f64` shadow | structure, coefficients | coefficient-only delta: **patched** — the touched rows re-convert from the patched program, the other coefficients are copied; structural delta: dropped, rebuilt lazily | shared by every selection; persisted as coefficients over the exact program's shape |
//! | full side's DAG twins | structure, coefficients | any delta: dropped, rebuilt lazily from the patched program | shared by every selection; re-derived, only the mode persists |
//! | tree plan: group analysis, Pareto frontier, node weights, invariant variables, DP tables | structure, trees | `add_tree`: dropped; structural delta: **replanned incrementally** (clean subtrees reuse their DP tables); coefficient-only delta: kept, since no coefficient is read — a re-hydrated plan, which carries no group analysis, analyzes its polynomials on the first one that has compressed rows to patch | persisted except the group analysis and DP tables |
//! | tree plan's meta-variable identities per frontier point | structure, trees | `add_tree`, structural delta: dropped (frontier indices shift) | kept for every point, so a re-selection reuses the identities its warm engines were compiled against; persisted (v3) with each warm entry |
//! | tree warm stash | structure, coefficients, trees | coefficient-only delta: **patched** — each entry records the touched polynomials it has not absorbed and is patched like the selection cells when re-selected, so re-installing a stashed point never costs a cold compile; structural delta, `add_tree`, or a coefficient-only delta to an entry whose meta-variables were never memoized (a v1 or v2 artifact's): dropped | flat compressed-side engines and their `f64` shadow: the applied abstraction re-derives cheaply from the point's cut; persisted |
//! | forest staircase and its warm stash | structure, coefficients, trees | any delta, `add_tree`: dropped — staircase sizes are measured by `apply_cuts`, which drops cancelled terms, so the forest plan reads coefficients | whole selection states: `apply_cuts` is the expensive step; not persisted |
//! | selection: cut, meta-variables, report | structure, trees, selection | `add_tree`, `set_bound`, a new selection: dropped (the outgoing frontier point is stashed warm first); structural delta: dropped, then re-derived by [`apply_delta`](CobraSession::apply_delta); coefficient-only delta: kept for frontier selections — a tree report is structural, so no coefficient moves it — and re-derived for one-shot compressions | persisted (v3) for frontier selections, as the bound: restoring re-selects it, which re-installs the selected point from the warm stash |
//! | selection cells: flat compressed engine and its `f64` shadow | structure, coefficients, trees, selection | dropped with the selection; coefficient-only delta on a tree frontier selection: **patched** — the touched polynomials' compressed rows are rebuilt from their slice of the group analysis and spliced into the compressed program (its shape arrays stay shared unless a merged coefficient cancels to zero or un-cancels), the `f64` shadow re-converts those rows, and the comparison pairs the patched full program; any other delta: dropped, rebuilt lazily | persisted (v3): the flat engines ride in the warm directory and come back installed |
//! | selection's applied polynomials, Higham shadow and DAG cells | structure, coefficients, trees, selection | dropped with the selection; any delta: dropped, rebuilt lazily from the cut and the patched engines | re-derived |
//!
//! The last column's persistence is [`crate::hydrate`]'s format v3: a
//! snapshot writes what the table calls state, and a restored session
//! re-selects its persisted bound through the warm stash, so it answers at
//! once and is a normal selection from then on.
//!
//! The DAG mode ([`compile_dag`](CobraSession::compile_dag)) is not an
//! input: every engine cell exists once per evaluation mode, flat and DAG,
//! and the mode only picks which group an evaluation reads — flipping it
//! drops nothing.
//!
//! The code follows the table's seams: `select` plans and selects,
//! `delta` absorbs provenance updates, `surface` evaluates; this module
//! holds the state, `invalidate` and the cell accessors.

mod delta;
mod select;
mod surface;

pub use surface::MetaSummaryRow;

use crate::apply::AppliedAbstraction;
use crate::cut::{Cut, MetaVar};
use crate::error::{CoreError, Result};
use crate::groups::GroupAnalysis;
use crate::multi::ForestFrontier;
use crate::planner::{CutFrontier, PlanSnapshot};
use crate::report::{CompressionReport, DagReport};
use crate::scenario::{CompiledComparison, ErrorShadow};
use crate::tree::AbstractionTree;
use cobra_provenance::{
    dag, BatchEvaluator, DagOptions, DagStats, DeltaReport, EvalProgram, PolySet, Valuation, Var,
    VarRegistry,
};
use cobra_util::{FxHashMap, FxHashSet, Rat};
use std::cell::OnceCell;

/// Cheap session statistics ([`CobraSession::info`]): everything here is
/// read off already-computed state — nothing compiles, plans, or
/// materializes polynomials.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionInfo {
    /// Registered abstraction trees.
    pub trees: usize,
    /// The current size bound, if one was set or selected.
    pub bound: Option<u64>,
    /// Planned frontier points (single-tree or forest), if planned.
    pub frontier_points: Option<usize>,
    /// Total monomials of the full provenance, when known without
    /// materializing polynomials.
    pub original_size: Option<u64>,
    /// Distinct variables of the full provenance, when known.
    pub original_vars: Option<usize>,
    /// Monomials of the current compression, if one is selected.
    pub compressed_size: Option<u64>,
    /// Distinct variables of the current compression, if selected.
    pub compressed_vars: Option<usize>,
    /// Stashed warm compressed-side engines.
    pub warm_engines: usize,
    /// True for re-hydrated sessions that have not yet decompiled their
    /// polynomials (the zero-copy cold path).
    pub hydrated: bool,
    /// Name of the `f64` lane kernel the session's sweeps resolve to
    /// (`COBRA_KERNEL`, runtime CPU detection — see
    /// [`cobra_util::kernel`]), as reported on monitoring surfaces.
    pub kernel: &'static str,
    /// True when algebraic DAG mode is armed
    /// ([`compile_dag`](CobraSession::compile_dag)).
    pub dag: bool,
    /// Shared-subterm slots across the *built* DAG engines (full +
    /// compressed side); `None` while no DAG engine has been built.
    pub dag_slots: Option<usize>,
}

/// An interactive COBRA session (Fig. 4).
pub struct CobraSession {
    pub(crate) reg: VarRegistry,
    /// The input polynomials. Eager for sessions built from parsed input;
    /// **lazy** for re-hydrated sessions ([`crate::hydrate`]), which carry
    /// a persisted full engine and decompile the polynomial set only when
    /// something actually needs it (a cold frontier selection's group
    /// analysis) — the zero-copy cold-start path never allocates it.
    pub(crate) polys: OnceCell<PolySet<Rat>>,
    pub(crate) base_valuation: Valuation<Rat>,
    pub(crate) trees: Vec<AbstractionTree>,
    /// The compact text each tree was parsed from (`None` for trees added
    /// programmatically) — what [`crate::hydrate`] persists so a restored
    /// session rebuilds identical trees.
    pub(crate) tree_texts: Vec<Option<String>>,
    pub(crate) bound: Option<u64>,
    /// Terms touched by deltas since the full program was last compiled
    /// from scratch: once the accumulated churn passes a fraction of the
    /// program, [`apply_delta`](CobraSession::apply_delta) compacts by
    /// recompiling instead of splicing another patch, bounding the local
    /// table's drift from first-occurrence order.
    pub(crate) delta_churn: usize,
    /// The full-side engines, compiled lazily (the flat exact program on
    /// first compression; the rest derive from it) and *shared* with every
    /// [`Compressed`] state — recompressing under a new bound only
    /// compiles the compressed side.
    pub(crate) full: PerMode<FullCells>,
    /// The current selection, if any.
    pub(crate) compressed: Option<Compressed>,
    /// The planned bound axis, populated by
    /// [`compress_frontier`](CobraSession::compress_frontier) or
    /// [`compress_forest_frontier`](CobraSession::compress_forest_frontier).
    pub(crate) plan: Option<Plan>,
    /// Algebraic DAG mode ([`compile_dag`](CobraSession::compile_dag)):
    /// picks the DAG cell group of every engine instead of the flat one.
    pub(crate) dag_mode: bool,
    pub(crate) trace: Vec<String>,
    pub(crate) trace_enabled: bool,
}

/// One cell group per evaluation mode: the flat engines and their
/// shared-subterm DAG rewrites. [`PerMode::get`] picks one by the
/// session's `dag_mode`.
#[derive(Default)]
pub(crate) struct PerMode<T> {
    pub(crate) flat: T,
    pub(crate) dag: T,
}

impl<T> PerMode<T> {
    fn get(&self, dag: bool) -> &T {
        if dag {
            &self.dag
        } else {
            &self.flat
        }
    }
}

/// The session-wide full-side engines of one evaluation mode.
#[derive(Default)]
pub(crate) struct FullCells {
    /// The exact engine: compiled from the polynomials (flat), or the DAG
    /// rewrite of the flat program.
    pub(crate) rat: OnceCell<BatchEvaluator<Rat>>,
    /// Its `f64` shadow for the timing fast path.
    pub(crate) f64: OnceCell<BatchEvaluator<f64>>,
}

/// A selection's compressed-side engines of one evaluation mode — and,
/// without the Higham shadow, what a tree plan keeps warm for a
/// de-selected frontier point.
#[derive(Clone, Default)]
pub(crate) struct CompCells {
    /// The exact comparison: the shared full engine plus the compressed
    /// side, compiled (flat) or rewritten (DAG) on first evaluation.
    pub(crate) engines: OnceCell<CompiledComparison>,
    /// `f64` shadow of the compressed engine, built on first use.
    pub(crate) f64: OnceCell<BatchEvaluator<f64>>,
    /// The Higham running-error shadows (|coefficient| programs plus
    /// per-polynomial γ factors) for the *bounded* `f64` sweeps. The DAG
    /// group's shadow carries slot-aware rounding-op counts (see
    /// [`EvalProgram::rounding_op_counts`]).
    pub(crate) shadow: OnceCell<ErrorShadow>,
}

/// The current selection: a cut (per tree), its meta-variables, and the
/// derived cells evaluation builds on first use.
pub(crate) struct Compressed {
    /// The meta-variable assignment and substitution of the chosen cut —
    /// always available without materializing the compressed polynomials
    /// (sweep projection, the Fig. 5 screen, and reports need only these).
    pub(crate) meta_vars: Vec<MetaVar>,
    pub(crate) substitution: FxHashMap<Var, Var>,
    /// The selection's report; [`CobraSession::report`] stamps the bound
    /// and speedup onto it.
    pub(crate) report: CompressionReport,
    /// For frontier selections: the selected cut, the recipe of the lazy
    /// group-statistics application. `None` for eagerly applied states,
    /// whose `applied` cell is pre-filled.
    pub(crate) lazy_cut: Option<Cut>,
    /// The applied abstraction (compressed polynomials included), built
    /// lazily for frontier selections — report-only bound sweeps never
    /// construct a polynomial.
    pub(crate) applied: OnceCell<AppliedAbstraction<Rat>>,
    pub(crate) cells: PerMode<CompCells>,
}

impl Compressed {
    /// The one constructor: a selection over `(monomials, variables)`
    /// before and after compression, with every engine cell empty and
    /// `applied` pre-filled when the caller already materialized it.
    fn new(
        (substitution, meta_vars): (FxHashMap<Var, Var>, Vec<MetaVar>),
        (original_size, original_vars): (u64, usize),
        (compressed_size, compressed_vars): (u64, usize),
        cuts: Vec<String>,
        lazy_cut: Option<Cut>,
        applied: Option<AppliedAbstraction<Rat>>,
    ) -> Compressed {
        Compressed {
            meta_vars,
            substitution,
            report: CompressionReport {
                bound: 0,
                original_size,
                compressed_size,
                original_vars,
                compressed_vars,
                cuts,
                speedup: None,
            },
            lazy_cut,
            applied: applied.map(OnceCell::from).unwrap_or_default(),
            cells: PerMode::default(),
        }
    }
}

/// The planned bound axis — a single tree's exact Pareto frontier or a
/// forest's descent staircase — with what both report and select by.
pub(crate) struct Plan {
    /// Distinct variables of the full provenance (for reports).
    pub(crate) original_vars: usize,
    /// Total monomials of the full provenance (for reports).
    pub(crate) original_size: u64,
    /// Frontier index currently materialized in `compressed`, if any.
    pub(crate) selected: Option<usize>,
    pub(crate) kind: PlanKind,
}

pub(crate) enum PlanKind {
    Tree(Box<TreePlan>),
    Forest(ForestPlan),
}

impl Plan {
    pub(crate) fn tree(&self) -> Option<&TreePlan> {
        match &self.kind {
            PlanKind::Tree(t) => Some(t),
            PlanKind::Forest(_) => None,
        }
    }

    fn tree_mut(&mut self) -> Option<&mut TreePlan> {
        match &mut self.kind {
            PlanKind::Tree(t) => Some(t),
            PlanKind::Forest(_) => None,
        }
    }

    /// The most expressive point whose size fits `bound`, or the
    /// infeasible-bound error.
    fn select_index(&self, bound: u64) -> Result<usize> {
        let (index, min_achievable) = match &self.kind {
            PlanKind::Tree(t) => (t.frontier.select_index(bound), t.frontier.min_size()),
            PlanKind::Forest(f) => (f.frontier.select_index(bound), f.frontier.min_size()),
        };
        index.ok_or(CoreError::InfeasibleBound { min_achievable })
    }
}

/// The memoized outcome of one exact frontier planning pass: the group
/// analysis and Pareto curve are bound-independent, so changing the bound
/// is an `O(log frontier)` re-selection plus one fast cut application.
pub(crate) struct TreePlan {
    /// The group analysis behind the plan. Filled eagerly by planning;
    /// left empty by re-hydration and recomputed only if a *cold*
    /// selection must materialize compressed polynomials or a
    /// coefficient-only delta must patch compressed rows — the warm and
    /// report-only paths never need it.
    pub(crate) analysis: OnceCell<GroupAnalysis>,
    /// Per-tree-node group weight (monomials abstracted at that node),
    /// copied out of the analysis so bound re-selection and persistence
    /// work without it.
    pub(crate) node_weight: Vec<u64>,
    pub(crate) frontier: CutFrontier,
    /// The set's distinct variables, memoized for the fast apply path.
    pub(crate) reserved: FxHashSet<Var>,
    /// Distinct non-tree variables (base-term and group-context vars):
    /// they survive every cut, so any selection's `compressed_vars` is
    /// this count plus the cut nodes that some group actually touches.
    pub(crate) invariant_vars: usize,
    /// The planner's per-node DP tables behind the frontier, kept so a
    /// structural delta replans only the root-to-leaf paths whose weights
    /// changed ([`PlanContext::new_incremental`](crate::planner::PlanContext::new_incremental)).
    /// `None` for re-hydrated sessions, which fall back to a fresh plan on
    /// their first delta.
    pub(crate) plan_snapshot: Option<PlanSnapshot>,
    /// Registry length when `reserved` was last brought up to date. The
    /// registry is append-only, so this is a perfect generation stamp:
    /// variables interned through `registry_mut` since then are folded
    /// into `reserved` before the next cut substitution, keeping user
    /// variables from aliasing a meta-variable that shares their name.
    pub(crate) reg_len_at_plan: usize,
    /// Memoized per-point meta-variable substitutions: re-selecting a
    /// frontier point must reuse the *same* meta-variable identities it
    /// minted the first time (fresh-naming on every selection would strand
    /// the warm engines compiled against the earlier identities).
    pub(crate) subs: FxHashMap<usize, (FxHashMap<Var, Var>, Vec<MetaVar>)>,
    /// Compiled flat engines of *previously* selected frontier points,
    /// stashed on de-selection so hopping back to a bound the session
    /// already explored re-installs them (cheap `Arc` clones) instead of
    /// decompiling, re-analyzing and recompiling.
    pub(crate) warm: FxHashMap<usize, WarmPoint>,
}

/// One tree warm-stash entry: the point's flat compressed engine, its
/// `f64` shadow if built, and the polynomials coefficient-only deltas
/// touched since they were stashed. Those are patched in when the point
/// is re-selected ([`CobraSession::warm_point`]), not on every delta,
/// which would cost one coefficient copy per point ever visited. The full
/// side is not kept: a re-selection pairs the point with the session's
/// current full engine.
#[derive(Clone)]
pub(crate) struct WarmPoint {
    pub(crate) compressed: BatchEvaluator<Rat>,
    pub(crate) f64: Option<BatchEvaluator<f64>>,
    /// Sorted, deduplicated polynomial indices not yet absorbed.
    pub(crate) stale: Vec<usize>,
}

/// The forest analogue of [`TreePlan`]: a staircase of coordinate-descent
/// solutions over the bound axis.
pub(crate) struct ForestPlan {
    pub(crate) frontier: ForestFrontier,
    /// Previously selected staircase points, stashed **whole** on
    /// de-selection (applied polynomials, meta-variable identities and any
    /// compiled engines ride along): hopping back to a bound the session
    /// already explored re-installs the state instead of re-applying the
    /// per-tree cuts and recompiling.
    pub(crate) warm: FxHashMap<usize, Compressed>,
}

/// A write to one of the session's inputs: the rows of the module-level
/// table, applied by [`CobraSession::invalidate`].
pub(crate) enum Mutation<'a> {
    AddTree,
    SetBound,
    /// A new selection replaces the current one (whose warm engines the
    /// caller has already stashed).
    Select,
    /// An applied delta: coefficient-only or structural, as its report
    /// says.
    Delta(&'a DeltaReport),
}

impl CobraSession {
    /// Starts a session over polynomials produced by any provenance engine
    /// (the registry must be the one the polynomials were built against).
    pub fn new(reg: VarRegistry, polys: PolySet<Rat>) -> CobraSession {
        CobraSession {
            reg,
            polys: OnceCell::from(polys),
            base_valuation: Valuation::with_default(Rat::ONE),
            trees: Vec::new(),
            tree_texts: Vec::new(),
            bound: None,
            delta_churn: 0,
            full: PerMode::default(),
            compressed: None,
            plan: None,
            dag_mode: false,
            trace: Vec::new(),
            trace_enabled: false,
        }
    }

    /// Parses polynomials from the text interchange format and starts a
    /// session (the "any provenance engine" entry point).
    pub fn from_text(polys: &str) -> Result<CobraSession> {
        let mut reg = VarRegistry::new();
        let set = cobra_provenance::parse_polyset(polys, &mut reg)
            .map_err(|e| CoreError::Session(format!("polynomial parse failed: {e}")))?;
        Ok(CobraSession::new(reg, set))
    }

    /// Drops or patches the derived state `mutation` invalidates — the
    /// module-level table, row by row, and the only code that drops
    /// derived state (selection's warm-stash moves aside). A structural
    /// delta replans the tree frontier here; re-deriving a dropped
    /// selection is the caller's.
    pub(crate) fn invalidate(&mut self, mutation: Mutation<'_>) {
        match mutation {
            Mutation::AddTree => {
                self.plan = None;
                self.compressed = None;
            }
            Mutation::SetBound | Mutation::Select => {
                self.compressed = None;
                if let Some(plan) = &mut self.plan {
                    plan.selected = None;
                }
            }
            Mutation::Delta(report) => {
                // The flat full program is spliced and its f64 shadow
                // patched, not dropped; the DAG twins re-derive lazily.
                let flat = self.patched_full_cells(report);
                self.full = PerMode {
                    flat,
                    dag: FullCells::default(),
                };
                match self.plan.as_mut().and_then(Plan::tree_mut) {
                    Some(plan) if !report.is_structural() => {
                        let touched = &report.coeff_polys;
                        // Compressed rows are rebuilt from the group
                        // analysis, which a re-hydrated plan builds on the
                        // first delta that has rows to patch.
                        let compiled = self.compressed.as_ref().is_some_and(|c| {
                            c.lazy_cut.is_some() && c.cells.flat.engines.get().is_some()
                        });
                        if compiled || !plan.warm.is_empty() {
                            let polys = Self::polys_of(&self.polys, &self.full.flat.rat);
                            plan.analysis.get_or_init(|| {
                                GroupAnalysis::analyze(polys, &self.trees[0])
                                    .expect("a planned session's polynomials re-analyze cleanly")
                            });
                        }
                        // Stashed points absorb the delta when re-selected;
                        // one whose meta-variables were never memoized (a
                        // v1 or v2 artifact's) is dropped.
                        let subs = &plan.subs;
                        plan.warm.retain(|idx, _| subs.contains_key(idx));
                        for warm in plan.warm.values_mut() {
                            warm.stale.extend(touched);
                            warm.stale.sort_unstable();
                            warm.stale.dedup();
                        }
                        // A frontier selection's cut, meta-variables and
                        // sizes read no coefficient: its flat engines are
                        // patched, the rest re-derives. A one-shot
                        // compression goes.
                        let frontier = self.compressed.take().filter(|c| c.lazy_cut.is_some());
                        if let Some(mut state) = frontier {
                            state.cells = PerMode {
                                flat: self.patched_cells(&state, touched),
                                dag: CompCells::default(),
                            };
                            let _ = state.applied.take();
                            self.compressed = Some(state);
                        }
                    }
                    _ => {
                        self.compressed = None;
                        // A tree frontier replans incrementally; forest
                        // staircases are descent-built over the whole set
                        // and have no incremental recipe.
                        self.sync_reserved_vars();
                        if let Some(PlanKind::Tree(old)) = self.plan.take().map(|p| p.kind) {
                            self.refresh_frontier_after_structural_delta(*old, report);
                        }
                    }
                }
            }
        }
    }

    /// The input polynomial set, decompiling a re-hydrated session's full
    /// engine on first use. An associated fn over the two cells (not
    /// `&self`) so callers holding `&mut self.reg` can still reach it.
    pub(crate) fn polys_of<'a>(
        cell: &'a OnceCell<PolySet<Rat>>,
        full: &OnceCell<BatchEvaluator<Rat>>,
    ) -> &'a PolySet<Rat> {
        cell.get_or_init(|| {
            full.get()
                .expect("a session without polynomials carries a full engine")
                .program()
                .decompile()
        })
    }

    /// The session-invariant exact engine over the full provenance in
    /// the given mode: compiled from the polynomials (flat), or the DAG
    /// rewrite of the flat engine.
    pub(crate) fn full_engine_in(&self, dag: bool) -> &BatchEvaluator<Rat> {
        self.full.get(dag).rat.get_or_init(|| {
            if dag {
                let flat = self.full_engine_in(false).program();
                BatchEvaluator::new(dag::rewrite(flat, &DagOptions::default()).program)
            } else {
                BatchEvaluator::compile(self.polynomials())
            }
        })
    }

    /// The `f64` shadow of [`full_engine_in`](Self::full_engine_in).
    pub(crate) fn full_f64_in(&self, dag: bool) -> &BatchEvaluator<f64> {
        self.full.get(dag).f64.get_or_init(|| {
            BatchEvaluator::new(self.full_engine_in(dag).program().to_f64_program())
        })
    }

    /// The exact compiled comparison of a selection in the given mode,
    /// built on first use: the session-invariant full side is shared (an
    /// `Arc` clone) and only the compressed side compiles — or, in DAG
    /// mode, rewrites the flat compressed program
    /// ([`cobra_provenance::dag::rewrite`]). The `Rat` path of a DAG
    /// program is bit-identical to the flat walk (rearrangement is exact
    /// in the ring), so arming the mode never changes an exact answer.
    fn engines_in<'a>(&'a self, state: &'a Compressed, dag: bool) -> &'a CompiledComparison {
        state.cells.get(dag).engines.get_or_init(|| {
            let full = self.full_engine_in(dag).clone();
            if !dag {
                let compressed = BatchEvaluator::compile(&self.applied(state).compressed);
                return CompiledComparison::from_engines(full, compressed);
            }
            let flat = self.engines_in(state, false);
            let compressed =
                dag::rewrite(flat.compressed.program(), &DagOptions::default()).program;
            // The flat engines ride along as probe twins: DAG programs
            // never lower to the fixed-point exact kernel, so the `f64`
            // sweeps' divergence probes evaluate the (bit-identical) flat
            // originals instead of paying a `Rat` slot walk per probe.
            CompiledComparison::from_engines(full, BatchEvaluator::new(compressed))
                .with_probe_twins(flat.full.clone(), flat.compressed.clone())
        })
    }

    /// The exact comparison every evaluation surface uses, in the armed
    /// mode.
    fn engines<'a>(&'a self, state: &'a Compressed) -> &'a CompiledComparison {
        self.engines_in(state, self.dag_mode)
    }

    /// The `f64` timing shadows in the armed mode: session-cached full
    /// side, per-selection compressed side, both derived from the exact
    /// programs of the same mode (so the `f64` path evaluates the slot
    /// structure the exact path does).
    pub(crate) fn f64_engines<'a>(
        &'a self,
        state: &'a Compressed,
    ) -> (&'a BatchEvaluator<f64>, &'a BatchEvaluator<f64>) {
        let compressed = state.cells.get(self.dag_mode).f64.get_or_init(|| {
            BatchEvaluator::new(self.engines(state).compressed.program().to_f64_program())
        });
        (self.full_f64_in(self.dag_mode), compressed)
    }

    /// The Higham running-error machinery for the bounded `f64` sweeps,
    /// built once per selection and mode on the first bounded sweep.
    pub(crate) fn error_shadow<'a>(&'a self, state: &'a Compressed) -> &'a ErrorShadow {
        state.cells.get(self.dag_mode).shadow.get_or_init(|| {
            let (full, compressed) = self.f64_engines(state);
            ErrorShadow::new(full, compressed)
        })
    }

    /// The applied abstraction of a selection, materialized on first
    /// access: eager selections fill it up front, frontier selections
    /// defer the group-statistics polynomial construction until something
    /// needs the compressed set (engine compilation,
    /// `compressed_polynomials`).
    fn applied<'a>(&'a self, state: &'a Compressed) -> &'a AppliedAbstraction<Rat> {
        state.applied.get_or_init(|| {
            let cut = state
                .lazy_cut
                .as_ref()
                .expect("an unfilled applied cell implies a frontier selection");
            let plan = self.plan.as_ref().and_then(Plan::tree);
            let plan = plan.expect("frontier selections keep their planning state");
            let polys = self.polynomials();
            let analysis = plan.analysis.get_or_init(|| {
                GroupAnalysis::analyze(polys, &self.trees[0])
                    .expect("a planned session's polynomials re-analyze cleanly")
            });
            let compressed = crate::apply::compress_polyset_with_groups(
                polys,
                &self.trees[0],
                analysis,
                cut,
                &state.meta_vars,
            );
            // The report counts structurally; a merged coefficient that
            // cancelled to zero is absent from the polynomials.
            debug_assert!(compressed.total_monomials() as u64 <= state.report.compressed_size);
            AppliedAbstraction {
                original_size: state.report.original_size as usize,
                compressed_size: compressed.total_monomials(),
                compressed,
                substitution: state.substitution.clone(),
                meta_vars: state.meta_vars.clone(),
            }
        })
    }

    pub(crate) fn compressed_state(&self) -> Result<&Compressed> {
        self.compressed
            .as_ref()
            .ok_or_else(|| CoreError::Session("compress must be called first".into()))
    }

    /// Enables step tracing (the demo's "under the hood" view).
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// The recorded trace.
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    fn log(&mut self, msg: impl FnOnce() -> String) {
        if self.trace_enabled {
            self.trace.push(msg());
        }
    }

    /// The variable registry.
    pub fn registry(&self) -> &VarRegistry {
        &self.reg
    }

    /// Mutable registry access (for building valuations by name).
    pub fn registry_mut(&mut self) -> &mut VarRegistry {
        &mut self.reg
    }

    /// The input polynomials (decompiled from the persisted engine on
    /// first access in a re-hydrated session).
    pub fn polynomials(&self) -> &PolySet<Rat> {
        Self::polys_of(&self.polys, &self.full.flat.rat)
    }

    /// Sets the default assignment of the provenance variables (the
    /// "original values"; defaults to the all-ones valuation meaning "no
    /// change").
    pub fn set_base_valuation(&mut self, val: Valuation<Rat>) {
        self.base_valuation = val;
    }

    /// The current base valuation.
    pub fn base_valuation(&self) -> &Valuation<Rat> {
        &self.base_valuation
    }

    /// Registers an abstraction tree.
    pub fn add_tree(&mut self, tree: AbstractionTree) {
        self.invalidate(Mutation::AddTree);
        self.trees.push(tree);
        self.tree_texts.push(None);
    }

    /// Parses and registers an abstraction tree from the compact text
    /// syntax (`Plans(Standard(p1,p2), …)`), remembering the source text
    /// so the session can be persisted ([`crate::hydrate`]).
    pub fn add_tree_text(&mut self, src: &str) -> Result<()> {
        let tree = AbstractionTree::parse(src, &mut self.reg)?;
        self.add_tree(tree);
        *self
            .tree_texts
            .last_mut()
            .expect("add_tree just pushed a slot") = Some(src.to_owned());
        Ok(())
    }

    /// The registered trees.
    pub fn trees(&self) -> &[AbstractionTree] {
        &self.trees
    }

    /// Sets the bound over the compressed provenance size.
    pub fn set_bound(&mut self, bound: u64) {
        self.invalidate(Mutation::SetBound);
        self.bound = Some(bound);
    }

    /// Cheap session statistics for monitoring surfaces: never compiles
    /// an engine, never materializes polynomials (a re-hydrated session
    /// reports from its persisted plan without decompiling anything).
    pub fn info(&self) -> SessionInfo {
        let plan = self.plan.as_ref();
        let (frontier_points, warm_engines) = match plan.map(|p| &p.kind) {
            Some(PlanKind::Tree(t)) => (Some(t.frontier.len()), t.warm.len()),
            Some(PlanKind::Forest(f)) => (Some(f.frontier.len()), f.warm.len()),
            None => (None, 0),
        };
        let (polys, compressed) = (self.polys.get(), self.compressed.as_ref());
        let full = self.full.dag.rat.get().map(|e| e.program());
        let comp = compressed.and_then(|c| c.cells.dag.engines.get());
        let programs = [full, comp.map(|e| e.compressed.program())];
        SessionInfo {
            trees: self.trees.len(),
            bound: self.bound,
            frontier_points,
            original_size: plan
                .map(|p| p.original_size)
                .or_else(|| polys.map(|p| p.total_monomials() as u64)),
            original_vars: plan
                .map(|p| p.original_vars)
                .or_else(|| polys.map(|p| p.distinct_vars().len())),
            compressed_size: compressed.map(|c| c.report.compressed_size),
            compressed_vars: compressed.map(|c| c.report.compressed_vars),
            warm_engines,
            hydrated: polys.is_none(),
            kernel: cobra_util::kernel::current().as_str(),
            dag: self.dag_mode,
            dag_slots: programs
                .into_iter()
                .flatten()
                .map(EvalProgram::num_slots)
                .reduce(|a, b| a + b),
        }
    }

    /// The current selection's compiled flat compressed program, if it
    /// has been built (engines compile on first evaluation, or come back
    /// installed with a restored selection) — for inspecting what a
    /// selection evaluates and whether a delta patched it in place
    /// ([`EvalProgram::shares_shape`]).
    pub fn compressed_program(&self) -> Option<&EvalProgram<Rat>> {
        let state = self.compressed.as_ref()?;
        state.cells.flat.engines.get().map(|e| e.compressed.program())
    }

    /// Forces every lazily compiled engine of the current selection —
    /// full and compressed, exact and `f64` — without evaluating
    /// anything, so a later request pays evaluation cost only.
    ///
    /// Engine compilation is otherwise deferred to the first evaluation,
    /// which makes the first request after `select_bound` pay the full
    /// compile latency. Long-lived services call this once at prepare
    /// time instead. A no-op for engines that already exist (including
    /// warm engines restored from a persisted artifact).
    pub fn warm_up(&self) -> Result<()> {
        let state = self.compressed_state()?;
        let _ = self.engines(state);
        let _ = self.f64_engines(state);
        Ok(())
    }

    /// Whether algebraic (DAG) compression is armed: when `true`, every
    /// evaluation surface — sweeps, folds, assignments, speedup
    /// measurements — runs the factored shared-subterm programs built by
    /// [`compile_dag`](Self::compile_dag) instead of the flat ones.
    pub fn dag_mode(&self) -> bool {
        self.dag_mode
    }

    /// Arms (or disarms) algebraic compression without requiring a
    /// selection: once armed, engines rewrite into DAG programs lazily
    /// as they are first built — the way a service prepares a session
    /// before any bound is chosen.
    /// [`compile_dag`](Self::compile_dag) additionally forces the
    /// rewrite of the current selection and reports its accounting.
    /// Disarming flips evaluation back to the (still cached) flat
    /// engines; nothing is rebuilt in either direction.
    pub fn set_dag_mode(&mut self, enable: bool) {
        self.dag_mode = enable;
    }

    /// Rewrites both compiled engines of the current selection — full and
    /// compressed — into shared-subterm DAG programs (the full
    /// three-pass pipeline of [`DagOptions::default`]: power-product CSE,
    /// shared-pair mining, Horner restructuring) and arms them for every
    /// subsequent evaluation. The rewrite has one configuration, so DAG
    /// engines already built for the current selection are reused: a
    /// repeated call only reads the accounting back.
    ///
    /// Algebraic compression composes with — it does not replace —
    /// cut-based abstraction: [`compress`](Self::compress) (or
    /// [`select_bound`](Self::select_bound)) shrinks the *provenance*,
    /// `compile_dag` then shrinks the *arithmetic* needed to evaluate it,
    /// by factoring repeated power products, shared monomial pairs and
    /// common-variable groups into slot rows evaluated once per scenario.
    /// Exact results are bit-identical to the flat programs'; `f64`
    /// sweeps carry slot-aware rounding certificates.
    ///
    /// ```
    /// use cobra_core::CobraSession;
    ///
    /// let mut session = CobraSession::from_text(
    ///     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3\n\
    ///      P2 = 208.8*p1*m1 + 42*v*m1 + 24.2*v*m3",
    /// )
    /// .unwrap();
    /// session.add_tree_text("Plans(Standard(p1, p2), v)").unwrap();
    /// session.set_bound(4);
    /// session.compress().unwrap();
    /// let report = session.compile_dag().unwrap();
    /// assert!(session.dag_mode());
    /// // Factoring never adds multiplies, and on shared-structure
    /// // workloads it removes many.
    /// assert!(report.op_ratio() >= 1.0);
    /// ```
    ///
    /// # Errors
    /// `Session` if no compression is selected yet (run
    /// [`compress`](Self::compress) or [`select_bound`](Self::select_bound)
    /// first).
    pub fn compile_dag(&mut self) -> Result<DagReport> {
        self.compressed_state()?;
        self.dag_mode = true;
        let state = self.compressed.as_ref().expect("checked above");
        let (flat, dag) = (self.engines_in(state, false), self.engines_in(state, true));
        let report = DagReport {
            full: Self::dag_stats(flat.full.program(), dag.full.program()),
            compressed: Self::dag_stats(flat.compressed.program(), dag.compressed.program()),
        };
        let _ = self.f64_engines(state);
        self.log(move || {
            format!(
                "compiled DAG programs: full {} → {} multiplies ({:.2}×), \
                 compressed {} → {} multiplies",
                report.full.flat_multiply_ops,
                report.full.dag_multiply_ops,
                report.op_ratio(),
                report.compressed.flat_multiply_ops,
                report.compressed.dag_multiply_ops,
            )
        });
        Ok(report)
    }

    /// Rewrite accounting for one side: flat program vs its DAG rewrite.
    fn dag_stats(flat: &EvalProgram<Rat>, dag: &EvalProgram<Rat>) -> DagStats {
        DagStats {
            num_polys: flat.num_polys(),
            num_slots: dag.num_slots(),
            flat_terms: flat.num_terms(),
            dag_terms: dag.num_terms(),
            flat_multiply_ops: flat.multiply_ops(),
            dag_multiply_ops: dag.multiply_ops(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_provenance::{Monomial, PolyDelta};

    pub(super) const PAPER_POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";

    pub(super) const FIG2_TREE: &str =
        "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

    pub(super) fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    pub(super) fn session_with_bound(bound: u64) -> CobraSession {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.set_bound(bound);
        s
    }

    pub(super) fn planned_paper_session() -> CobraSession {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.compress_frontier().unwrap();
        s
    }

    /// Rebuilds a session from scratch over `s`'s *current* polynomials —
    /// the reference every delta-patched session must match bit for bit.
    pub(super) fn fresh_rebuild(s: &CobraSession, bound: u64) -> CobraSession {
        let mut fresh = CobraSession::new(s.registry().clone(), s.polynomials().clone());
        fresh.add_tree_text(FIG2_TREE).unwrap();
        fresh.compress_frontier().unwrap();
        fresh.select_bound(bound).unwrap();
        fresh
    }

    #[test]
    fn recompression_reuses_the_full_side_program() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let first = s.abstraction().unwrap().compressed.clone();
        s.baseline_results().unwrap(); // force the lazy engine build
        let full_before: *const _ = s.engines(s.compressed.as_ref().unwrap()).full.program();
        s.set_bound(4);
        s.compress().unwrap();
        // engines are lazy now: nothing is compiled until evaluation…
        assert!(s
            .compressed
            .as_ref()
            .unwrap()
            .cells
            .flat
            .engines
            .get()
            .is_none());
        s.baseline_results().unwrap();
        let full_after: *const _ = s.engines(s.compressed.as_ref().unwrap()).full.program();
        // …and the full side is the same Arc'd program, not a recompilation
        assert_eq!(full_before, full_after);
        assert_ne!(
            first.total_monomials(),
            s.abstraction().unwrap().compressed.total_monomials()
        );
    }

    #[test]
    fn compile_dag_requires_a_selection() {
        let mut s = session_with_bound(6);
        assert!(matches!(s.compile_dag(), Err(CoreError::Session(_))));
        assert!(!s.dag_mode());
    }

    #[test]
    fn compile_dag_is_bit_identical_to_flat() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let m3 = s.registry_mut().var("m3");
        let b1 = s.registry_mut().var("b1");
        let scenarios: Vec<Valuation<Rat>> = (0..12)
            .map(|i: i128| {
                Valuation::with_default(Rat::ONE)
                    .bind(m3, Rat::ONE - Rat::new(i, 100))
                    .bind(b1, Rat::ONE + Rat::new(i, 50))
            })
            .collect();
        let flat_rows: Vec<_> = {
            let sweep = s.sweep(&scenarios).unwrap();
            sweep.comparisons().map(|c| c.rows.clone()).collect()
        };

        let report = s.compile_dag().unwrap();
        assert!(s.dag_mode());
        // Factoring never adds multiplies.
        assert!(report.full.dag_multiply_ops <= report.full.flat_multiply_ops);
        assert!(report.compressed.dag_multiply_ops <= report.compressed.flat_multiply_ops);
        // One rewrite configuration: a repeated call reads the same
        // accounting back from the DAG engines already built (holding a
        // handle on the first program keeps its allocation from being
        // recycled, so a rebuild could not land on the same address).
        let dag_program = |s: &CobraSession| {
            let state = s.compressed.as_ref().unwrap();
            state.cells.dag.engines.get().unwrap().compressed.clone()
        };
        let built = dag_program(&s);
        assert_eq!(s.compile_dag().unwrap(), report);
        assert!(std::ptr::eq(built.program(), dag_program(&s).program()));

        let dag_rows: Vec<_> = {
            let sweep = s.sweep(&scenarios).unwrap();
            sweep.comparisons().map(|c| c.rows.clone()).collect()
        };
        assert_eq!(flat_rows, dag_rows);
        // …and so are the single-assignment and meta paths.
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        assert_eq!(
            s.assign(&scenario).unwrap().rows[0].full,
            rat("454.1") + rat("0.8") * rat("451.15")
        );
        let info = s.info();
        assert!(info.dag);
        assert!(info.dag_slots.is_some());
    }

    #[test]
    fn compile_dag_survives_reselection_and_disables_cleanly() {
        let mut s = session_with_bound(14);
        s.compress_frontier().unwrap();
        s.select_bound(6).unwrap();
        s.compile_dag().unwrap();
        let m3 = s.registry_mut().var("m3");
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        // a bound hop builds a fresh Compressed: its DAG engines rebuild
        // against the new selection, never reusing stale slots
        s.select_bound(4).unwrap();
        assert!(s.dag_mode());
        let hopped = s.assign(&scenario).unwrap();
        let mut fresh = session_with_bound(4);
        fresh.compress().unwrap();
        assert_eq!(hopped.rows, fresh.assign(&scenario).unwrap().rows);
    }

    #[test]
    fn flipping_dag_mode_drops_nothing() {
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        s.compile_dag().unwrap();
        let state: *const Compressed = s.compressed.as_ref().unwrap();
        s.set_dag_mode(false);
        s.set_dag_mode(true);
        let same = s.compressed.as_ref().unwrap();
        assert!(std::ptr::eq(state, same));
        assert!(same.cells.flat.engines.get().is_some());
        assert!(same.cells.dag.engines.get().is_some());
        assert!(s.full.dag.rat.get().is_some());
    }

    #[test]
    fn report_on_a_restored_session_reads_plan_state() {
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        s.warm_up().unwrap(); // compile the full program the delta patches
        let p1 = s.polynomials().index_of("P1").unwrap();
        let (v, m3) = (s.registry_mut().var("v"), s.registry_mut().var("m3"));
        // removing every `v` term leaves a stale local in the patched
        // program the snapshot persists
        let mut delta = PolyDelta::new();
        delta.remove(p1, Monomial::from_pairs([(v, 1), (m3, 1)]));
        delta.remove(
            p1,
            Monomial::from_pairs([(v, 1), (s.registry().lookup("m1").unwrap(), 1)]),
        );
        s.apply_delta(&delta).unwrap();
        let bytes = crate::hydrate::snapshot_session(&s).unwrap();
        let mut restored = crate::hydrate::restore_session_from_bytes(&bytes).unwrap();
        let selected = restored.select_bound(6).unwrap();
        let report = restored.report(None).unwrap();
        // reporting never decompiles the zero-copy session…
        assert!(restored.info().hydrated);
        // …and counts the variables the provenance actually mentions
        s.select_bound(6).unwrap();
        assert_eq!(format!("{report:?}"), format!("{selected:?}"));
        assert_eq!(
            format!("{report:?}"),
            format!("{:?}", s.report(None).unwrap())
        );
    }
}
