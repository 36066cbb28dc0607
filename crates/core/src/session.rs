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

use crate::apply::AppliedAbstraction;
use crate::assign::{self, ResultComparison, SpeedupMeasurement};
use crate::budget::{SweepBudget, SweepOutcome};
use crate::cut::{Cut, MetaVar};
use crate::error::{CoreError, Result};
use crate::folds::MergeFold;
use crate::groups::GroupAnalysis;
use crate::multi::{
    optimize_forest_descent, optimize_single_tree, plan_forest_frontier, ForestFrontier,
};
use crate::planner::{CutFrontier, CutPlanner, ExactDp, PlanContext, PlanSnapshot};
use crate::report::{CompressionReport, DagReport};
use crate::scenario::{
    measure_sweep_speedup, Approx, Certified, CompiledComparison, ErrorShadow, Exact,
    F64Divergence, F64ErrorBound, F64ScenarioSweep, FoldItem, Precision, ScenarioSweep,
};
use crate::scenario_set::ScenarioSet;
use crate::tree::AbstractionTree;
use cobra_provenance::{
    dag, BatchEvaluator, DagOptions, DagStats, DeltaReport, EvalProgram, PolyDelta, PolySet,
    ProvenanceStats, Valuation, Var, VarRegistry,
};
use cobra_util::{par, FxHashMap, FxHashSet, Rat};
use std::cell::OnceCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Runs a sweep surface under `catch_unwind`, converting a `Rat` overflow
/// panic (reachable on adversarial coefficients near `i128::MAX`) — on
/// this thread, or already caught on a sweep worker and reported as
/// [`CoreError::WorkerPanicked`] — into the typed
/// [`CoreError::ExactOverflow`], so a long-lived session or server worker
/// survives it; any unrelated panic is resumed unchanged.
fn catch_exact_overflow<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(|e| match e {
            CoreError::WorkerPanicked(m) if m.contains("Rat overflow") => {
                CoreError::ExactOverflow(m)
            }
            other => other,
        }),
        Err(payload) => {
            let msg = par::panic_message(&payload);
            if msg.contains("Rat overflow") {
                Err(CoreError::ExactOverflow(msg))
            } else {
                resume_unwind(payload)
            }
        }
    }
}

/// One row of the meta-variable screen: the meta-variable, the original
/// variables it groups with their base values, and the default (average).
#[derive(Clone, Debug)]
pub struct MetaSummaryRow {
    /// Meta-variable name.
    pub name: String,
    /// `(leaf name, base value)` for each grouped variable.
    pub leaves: Vec<(String, Rat)>,
    /// Default value = average of the leaves' base values.
    pub default_value: Rat,
}

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
    /// Exact compiled engine over the full provenance. The input
    /// polynomials never change after construction, so this is compiled
    /// once per session (lazily, on first compression) and *shared* with
    /// every [`Compressed`] state — recompressing under a new bound only
    /// compiles the compressed side.
    pub(crate) full_rat: OnceCell<BatchEvaluator<Rat>>,
    /// `f64` shadow of the full-side engine for the timing fast path,
    /// likewise session-invariant and built on first use.
    pub(crate) full_f64: OnceCell<BatchEvaluator<f64>>,
    pub(crate) compressed: Option<Compressed>,
    /// The planner's frontier state (one planning pass over the whole
    /// bound axis), populated by
    /// [`compress_frontier`](CobraSession::compress_frontier) and
    /// invalidated when a tree is added.
    pub(crate) frontier: Option<FrontierState>,
    /// The forest sibling of `frontier`, populated by
    /// [`compress_forest_frontier`](CobraSession::compress_forest_frontier).
    pub(crate) forest: Option<ForestFrontierState>,
    /// Algebraic DAG mode ([`compile_dag`](CobraSession::compile_dag)):
    /// when armed, every evaluation surface resolves to the DAG-rewritten
    /// engines instead of the flat ones.
    pub(crate) dag_mode: bool,
    /// DAG rewrite of the session-invariant full-side exact engine, built
    /// lazily in armed mode and dropped whenever a delta patches the flat
    /// program it was rewritten from.
    pub(crate) dag_full_rat: OnceCell<BatchEvaluator<Rat>>,
    /// Its `f64` shadow (derived from the exact DAG program, so both
    /// paths share one slot structure).
    pub(crate) dag_full_f64: OnceCell<BatchEvaluator<f64>>,
    pub(crate) trace: Vec<String>,
    pub(crate) trace_enabled: bool,
}

pub(crate) struct Compressed {
    /// The meta-variable assignment and substitution of the chosen cut —
    /// always available without materializing the compressed polynomials
    /// (sweep projection, the Fig. 5 screen, and reports need only these).
    pub(crate) meta_vars: Vec<MetaVar>,
    pub(crate) substitution: FxHashMap<Var, Var>,
    pub(crate) original_size: usize,
    pub(crate) compressed_size: usize,
    pub(crate) compressed_vars: usize,
    pub(crate) cuts_display: Vec<String>,
    /// For frontier selections: the selected cut, the recipe of the lazy
    /// group-statistics application. `None` for `compress()`-built states,
    /// whose `applied` cell is pre-filled.
    pub(crate) lazy_cut: Option<Cut>,
    /// The applied abstraction (compressed polynomials included), built
    /// lazily for frontier selections — report-only bound sweeps never
    /// construct a polynomial.
    pub(crate) applied: OnceCell<AppliedAbstraction<Rat>>,
    /// Exact batched engines over the full and compressed provenance,
    /// compiled lazily on first evaluation: the full side shares the
    /// session's cached program (cheap `Arc` clone) and only the
    /// compressed side is compiled — so report-only compressions and
    /// frontier re-selections never pay for compilation.
    pub(crate) engines: OnceCell<CompiledComparison>,
    /// `f64` shadow of the compressed engine for the timing fast path,
    /// built lazily on the first speedup measurement (assign/sweep-only
    /// sessions never pay for the copy).
    pub(crate) comp_f64: OnceCell<BatchEvaluator<f64>>,
    /// The Higham running-error shadows (|coefficient| programs plus
    /// per-polynomial γ factors) for the *bounded* `f64` sweeps, derived
    /// from the `f64` engines on first use.
    pub(crate) err_shadow: OnceCell<ErrorShadow>,
    /// DAG-rewritten exact comparison (armed mode only), built lazily
    /// from the flat engines. A fresh cell on every `Compressed`
    /// construction is what guarantees delta updates can never serve
    /// stale slots: any path that rebuilds a selection rebuilds these.
    pub(crate) dag_engines: OnceCell<CompiledComparison>,
    /// `f64` shadow of the DAG compressed-side engine.
    pub(crate) dag_comp_f64: OnceCell<BatchEvaluator<f64>>,
    /// Higham shadows derived from the DAG `f64` engines (slot-aware
    /// rounding-op counts — see [`EvalProgram::rounding_op_counts`]).
    pub(crate) dag_err_shadow: OnceCell<ErrorShadow>,
}

impl Compressed {
    /// Wraps an eagerly applied abstraction (the `compress()` path).
    fn from_applied(applied: AppliedAbstraction<Rat>, cuts_display: Vec<String>) -> Compressed {
        let state = Compressed {
            meta_vars: applied.meta_vars.clone(),
            substitution: applied.substitution.clone(),
            original_size: applied.original_size,
            compressed_size: applied.compressed_size,
            compressed_vars: applied.distinct_vars(),
            cuts_display,
            lazy_cut: None,
            applied: OnceCell::new(),
            engines: OnceCell::new(),
            comp_f64: OnceCell::new(),
            err_shadow: OnceCell::new(),
            dag_engines: OnceCell::new(),
            dag_comp_f64: OnceCell::new(),
            dag_err_shadow: OnceCell::new(),
        };
        let _ = state.applied.set(applied);
        state
    }
}

/// The memoized outcome of one frontier planning pass: the group analysis
/// and Pareto curve are bound-independent, so changing the bound is an
/// `O(log frontier)` re-selection plus one fast cut application.
pub(crate) struct FrontierState {
    /// The group analysis behind the plan. Filled eagerly by
    /// [`CobraSession::compress_frontier`]; left empty by re-hydration and
    /// recomputed only if a *cold* selection must materialize compressed
    /// polynomials — the warm and report-only paths never need it.
    pub(crate) analysis: OnceCell<GroupAnalysis>,
    /// Per-tree-node group weight (monomials abstracted at that node),
    /// copied out of the analysis so bound re-selection and persistence
    /// work without it.
    pub(crate) node_weight: Vec<u64>,
    pub(crate) frontier: CutFrontier,
    /// Distinct variables of the full provenance (for reports).
    pub(crate) original_vars: usize,
    /// Total monomials of the full provenance (for reports).
    pub(crate) original_size: u64,
    /// The set's distinct variables, memoized for the fast apply path.
    pub(crate) reserved: FxHashSet<Var>,
    /// Distinct non-tree variables (base-term and group-context vars):
    /// they survive every cut, so any selection's `compressed_vars` is
    /// this count plus the cut nodes that some group actually touches.
    pub(crate) invariant_vars: usize,
    /// The planner's per-node DP tables behind the frontier, kept so a
    /// structural delta replans only the root-to-leaf paths whose weights
    /// changed ([`PlanContext::new_incremental`]). `None` for re-hydrated
    /// sessions, which fall back to a fresh plan on their first delta.
    pub(crate) plan_snapshot: Option<PlanSnapshot>,
    /// Registry length when `reserved` was last brought up to date. The
    /// registry is append-only, so this is a perfect generation stamp:
    /// variables interned through `registry_mut` since then are folded
    /// into `reserved` before the next cut substitution, keeping user
    /// variables from aliasing a meta-variable that shares their name.
    pub(crate) reg_len_at_plan: usize,
    /// Frontier index currently materialized in `compressed`, if any.
    pub(crate) selected: Option<usize>,
    /// Memoized per-point meta-variable substitutions: re-selecting a
    /// frontier point must reuse the *same* meta-variable identities it
    /// minted the first time (fresh-naming on every selection would strand
    /// the warm engines compiled against the earlier identities).
    pub(crate) subs: FxHashMap<usize, (FxHashMap<Var, Var>, Vec<MetaVar>)>,
    /// Compiled compressed-side engines of *previously* selected frontier
    /// points, stashed on de-selection so hopping back to a bound the
    /// session already explored re-installs its engines (cheap `Arc`
    /// clones) instead of decompiling, re-analyzing and recompiling.
    pub(crate) warm: FxHashMap<usize, WarmEngines>,
}

/// Engines kept warm for one de-selected frontier point.
pub(crate) struct WarmEngines {
    /// The exact compressed-side engine.
    pub(crate) rat: BatchEvaluator<Rat>,
    /// Its `f64` timing shadow, if it was ever built.
    pub(crate) f64: Option<BatchEvaluator<f64>>,
}

/// The forest analogue of [`FrontierState`]: a staircase of coordinate-
/// descent solutions over the bound axis, planned once by
/// [`CobraSession::compress_forest_frontier`].
pub(crate) struct ForestFrontierState {
    pub(crate) frontier: ForestFrontier,
    /// Distinct variables of the full provenance (for reports).
    pub(crate) original_vars: usize,
    /// Total monomials of the full provenance (for reports).
    pub(crate) original_size: u64,
    /// Frontier index currently materialized in `compressed`, if any.
    pub(crate) selected: Option<usize>,
    /// Previously selected staircase points, stashed **whole** on
    /// de-selection (applied polynomials, meta-variable identities and any
    /// compiled engines ride along): hopping back to a bound the session
    /// already explored re-installs the state instead of re-applying the
    /// per-tree cuts and recompiling — the forest analogue of
    /// [`FrontierState::warm`]. Forest deltas clear the whole state, so a
    /// stashed point can never outlive the polynomials it was built from.
    pub(crate) warm: FxHashMap<usize, Compressed>,
}

impl CobraSession {
    /// Starts a session over polynomials produced by any provenance engine
    /// (the registry must be the one the polynomials were built against).
    pub fn new(reg: VarRegistry, polys: PolySet<Rat>) -> CobraSession {
        let cell = OnceCell::new();
        let _ = cell.set(polys);
        CobraSession {
            reg,
            polys: cell,
            base_valuation: Valuation::with_default(Rat::ONE),
            trees: Vec::new(),
            tree_texts: Vec::new(),
            bound: None,
            delta_churn: 0,
            full_rat: OnceCell::new(),
            full_f64: OnceCell::new(),
            compressed: None,
            frontier: None,
            forest: None,
            dag_mode: false,
            dag_full_rat: OnceCell::new(),
            dag_full_f64: OnceCell::new(),
            trace: Vec::new(),
            trace_enabled: false,
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

    /// The session-invariant compiled engine over the full provenance
    /// (compiled on first use, shared by every compression).
    pub(crate) fn full_engine(&self) -> &BatchEvaluator<Rat> {
        self.full_rat.get_or_init(|| {
            BatchEvaluator::compile(Self::polys_of(&self.polys, &self.full_rat))
        })
    }

    /// The session-invariant `f64` shadow of the full engine.
    pub(crate) fn full_f64_engine(&self) -> &BatchEvaluator<f64> {
        self.full_f64
            .get_or_init(|| BatchEvaluator::new(self.full_engine().program().to_f64_program()))
    }

    /// The **flat** exact compiled comparison of a compression, built on
    /// first use: the session-invariant full side is shared (an `Arc`
    /// clone), only the compressed side compiles — and only when
    /// something actually evaluates.
    fn flat_engines<'a>(&'a self, state: &'a Compressed) -> &'a CompiledComparison {
        state.engines.get_or_init(|| {
            CompiledComparison::from_engines(
                self.full_engine().clone(),
                BatchEvaluator::compile(&self.applied(state).compressed),
            )
        })
    }

    /// The exact comparison every evaluation surface uses: the flat
    /// engines, or — with DAG mode armed
    /// ([`compile_dag`](Self::compile_dag)) — their shared-subterm DAG
    /// rewrites ([`cobra_provenance::dag::rewrite`]). The `Rat` path of a
    /// DAG program is bit-identical to the flat walk (rearrangement is
    /// exact in the ring), so arming the mode never changes an exact
    /// answer.
    fn engines<'a>(&'a self, state: &'a Compressed) -> &'a CompiledComparison {
        if !self.dag_mode {
            return self.flat_engines(state);
        }
        state.dag_engines.get_or_init(|| {
            let flat = self.flat_engines(state);
            let compressed =
                dag::rewrite(flat.compressed.program(), &DagOptions::default()).program;
            // The flat engines ride along as probe twins: DAG programs
            // never lower to the fixed-point exact kernel, so the `f64`
            // sweeps' divergence probes evaluate the (bit-identical) flat
            // originals instead of paying a `Rat` slot walk per probe.
            CompiledComparison::from_engines(
                self.dag_full_engine().clone(),
                BatchEvaluator::new(compressed),
            )
            .with_probe_twins(flat.full.clone(), flat.compressed.clone())
        })
    }

    /// The DAG rewrite of the session-invariant full engine (armed mode
    /// only), shared by every selection the way the flat full engine is.
    fn dag_full_engine(&self) -> &BatchEvaluator<Rat> {
        self.dag_full_rat.get_or_init(|| {
            let build = dag::rewrite(self.full_engine().program(), &DagOptions::default());
            BatchEvaluator::new(build.program)
        })
    }

    /// The applied abstraction of a compression, materialized on first
    /// access: `compress()` fills it eagerly, frontier selections defer
    /// the group-statistics polynomial construction until something needs
    /// the compressed set (engine compilation, `compressed_polynomials`).
    fn applied<'a>(&'a self, state: &'a Compressed) -> &'a AppliedAbstraction<Rat> {
        state.applied.get_or_init(|| {
            let cut = state
                .lazy_cut
                .as_ref()
                .expect("an unfilled applied cell implies a frontier selection");
            let frontier = self
                .frontier
                .as_ref()
                .expect("frontier selections keep their planning state");
            let polys = Self::polys_of(&self.polys, &self.full_rat);
            let analysis = frontier.analysis.get_or_init(|| {
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
            debug_assert_eq!(compressed.total_monomials(), state.compressed_size);
            AppliedAbstraction {
                original_size: state.original_size,
                compressed_size: state.compressed_size,
                compressed,
                substitution: state.substitution.clone(),
                meta_vars: state.meta_vars.clone(),
            }
        })
    }

    /// The `f64` timing shadows: session-cached full side, per-compression
    /// compressed side. In DAG mode both shadows derive from the exact DAG
    /// programs, so the `f64` path evaluates the identical slot structure
    /// the exact path does.
    pub(crate) fn f64_engines<'a>(
        &'a self,
        state: &'a Compressed,
    ) -> (&'a BatchEvaluator<f64>, &'a BatchEvaluator<f64>) {
        if !self.dag_mode {
            let full = self.full_f64_engine();
            let compressed = state.comp_f64.get_or_init(|| {
                BatchEvaluator::new(self.engines(state).compressed.program().to_f64_program())
            });
            return (full, compressed);
        }
        let full = self
            .dag_full_f64
            .get_or_init(|| BatchEvaluator::new(self.dag_full_engine().program().to_f64_program()));
        let compressed = state.dag_comp_f64.get_or_init(|| {
            BatchEvaluator::new(self.engines(state).compressed.program().to_f64_program())
        });
        (full, compressed)
    }

    /// The Higham running-error machinery for the bounded `f64` sweeps
    /// (|coefficient| shadow programs + per-polynomial γ factors), built
    /// once per compression on the first bounded sweep. DAG mode carries
    /// its own shadow: the slot-aware rounding-op counts certify the
    /// restructured evaluation, not the flat one.
    pub(crate) fn error_shadow<'a>(&'a self, state: &'a Compressed) -> &'a ErrorShadow {
        let cell = if self.dag_mode {
            &state.dag_err_shadow
        } else {
            &state.err_shadow
        };
        cell.get_or_init(|| {
            let (full, compressed) = self.f64_engines(state);
            ErrorShadow::new(full, compressed)
        })
    }

    /// Parses polynomials from the text interchange format and starts a
    /// session (the "any provenance engine" entry point).
    pub fn from_text(polys: &str) -> Result<CobraSession> {
        let mut reg = VarRegistry::new();
        let set = cobra_provenance::parse_polyset(polys, &mut reg).map_err(|e| {
            CoreError::Session(format!("polynomial parse failed: {e}"))
        })?;
        Ok(CobraSession::new(reg, set))
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
        Self::polys_of(&self.polys, &self.full_rat)
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
        self.compressed = None;
        self.frontier = None;
        self.forest = None;
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
        self.compressed = None;
        self.bound = Some(bound);
    }

    /// Runs the compression: the exact planner for a single tree,
    /// coordinate descent for a forest. This is the one-shot path — it
    /// re-derives the plan from scratch for the current bound. Sessions
    /// exploring many bounds should call
    /// [`compress_frontier`](Self::compress_frontier) once and then
    /// [`select_bound`](Self::select_bound) per bound.
    ///
    /// # Errors
    /// `Session` if trees/bound are missing; `InfeasibleBound` if no
    /// abstraction fits.
    pub fn compress(&mut self) -> Result<CompressionReport> {
        let bound = self
            .bound
            .ok_or_else(|| CoreError::Session("set_bound must be called first".into()))?;
        if self.trees.is_empty() {
            return Err(CoreError::Session("no abstraction tree registered".into()));
        }
        // Reserve user-interned variables *before* the optimizer interns
        // its meta-variables, so the stamp advance below never hides them
        // from a later `select_bound`.
        self.sync_reserved_vars();
        let full_stats = ProvenanceStats::compute(Self::polys_of(&self.polys, &self.full_rat));
        self.log(|| format!("input: {full_stats}"));
        let polys = Self::polys_of(&self.polys, &self.full_rat);
        let trees: Vec<&AbstractionTree> = self.trees.iter().collect();
        let (cuts, applied) = if trees.len() == 1 {
            let (sol, applied) = optimize_single_tree(polys, trees[0], bound, &mut self.reg)?;
            (sol.cuts, applied)
        } else {
            let sol = optimize_forest_descent(polys, &trees, bound, &mut self.reg, 32)?;
            let pairs: Vec<(&AbstractionTree, &crate::cut::Cut)> =
                trees.iter().copied().zip(sol.cuts.iter()).collect();
            let applied = crate::apply::apply_cuts(polys, &pairs, &mut self.reg);
            (sol.cuts, applied)
        };
        let cuts_display: Vec<String> = self
            .trees
            .iter()
            .zip(&cuts)
            .map(|(t, c)| format!("{}: {}", t.name(), c.display(t)))
            .collect();
        for line in &cuts_display {
            let line = line.clone();
            self.log(move || format!("chosen cut — {line}"));
        }
        self.log(|| {
            format!(
                "compressed {} → {} monomials",
                applied.original_size, applied.compressed_size
            )
        });
        let report = CompressionReport {
            bound,
            original_size: applied.original_size as u64,
            compressed_size: applied.compressed_size as u64,
            original_vars: full_stats.distinct_vars,
            compressed_vars: applied.distinct_vars(),
            cuts: cuts_display.clone(),
            speedup: None,
        };
        // Engines compile lazily on first evaluation; the full-side
        // program stays session-cached either way.
        self.compressed = Some(Compressed::from_applied(applied, cuts_display));
        // Any frontier selection no longer reflects the compressed state.
        // The meta-variables the one-shot path just interned are the
        // session's own, not user variables: advance the generation stamp
        // past them so a later `select_bound` aliases onto them (it must
        // reproduce this compression bit for bit) instead of reserving
        // them and minting fresh meta-variables.
        if let Some(frontier) = &mut self.frontier {
            frontier.selected = None;
            frontier.reg_len_at_plan = self.reg.len();
        }
        if let Some(forest) = &mut self.forest {
            forest.selected = None;
        }
        Ok(report)
    }

    /// Plans the **entire** size/expressiveness Pareto frontier in one
    /// pass (the exact planner's
    /// [`plan_frontier`](crate::planner::CutPlanner::plan_frontier)) and
    /// caches it: afterwards any bound resolves through
    /// [`select_bound`](Self::select_bound) in `O(log frontier)` plus one
    /// fast cut application — no re-analysis, no re-planning, no
    /// recompilation of the full side. The curve is bound-independent, so
    /// calling this again is free until a tree is added.
    ///
    /// This is the multi-budget exploration surface the COBRA demo's
    /// interactive bound slider needs: one planning pass, then sweeps at
    /// every budget.
    ///
    /// ```
    /// use cobra_core::CobraSession;
    ///
    /// let mut session = CobraSession::from_text(
    ///     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
    /// ).unwrap();
    /// session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
    /// let frontier = session.compress_frontier().unwrap();
    /// let budgets: Vec<(usize, u64)> = frontier
    ///     .points()
    ///     .iter()
    ///     .map(|p| (p.variables, p.size))
    ///     .collect();
    /// // k = 2 ({Standard, v}, size 4) is dominated by the k = 3 leaf
    /// // cut at the same size, so the frontier keeps the two points any
    /// // bound can actually select
    /// assert_eq!(budgets, [(1, 2), (3, 4)]);
    /// // changing the bound is a re-selection, not a recomputation
    /// let report = session.select_bound(2).unwrap();
    /// assert_eq!(report.compressed_size, 2);
    /// assert_eq!(session.select_bound(4).unwrap().compressed_size, 4);
    /// ```
    ///
    /// # Errors
    /// `Session` unless exactly one tree is registered (use
    /// [`compress_forest_frontier`](Self::compress_forest_frontier) for
    /// forests, or [`compress`](Self::compress) for a single bound).
    pub fn compress_frontier(&mut self) -> Result<&CutFrontier> {
        if self.trees.len() != 1 {
            return Err(CoreError::Session(format!(
                "compress_frontier requires exactly one abstraction tree, got {}; \
                 use compress_forest_frontier() for forests",
                self.trees.len()
            )));
        }
        if self.frontier.is_none() {
            let set = Self::polys_of(&self.polys, &self.full_rat);
            let tree = &self.trees[0];
            let analysis = GroupAnalysis::analyze(set, tree)?;
            let ctx = PlanContext::new(tree, &analysis);
            let frontier = ExactDp
                .plan_frontier(&ctx)
                .expect("the exact DP frontier always exists");
            // Keep the DP tables: structural deltas replan incrementally
            // against them instead of rebuilding the whole tree.
            let plan_snapshot = Some(ctx.snapshot());
            let full_stats = ProvenanceStats::compute(set);
            // The non-tree variables survive every cut: count them once so
            // selections can report `compressed_vars` without building the
            // compressed polynomials.
            let mut invariant: FxHashSet<Var> = FxHashSet::default();
            for group in &analysis.groups {
                invariant.extend(group.context.vars());
            }
            let polys: Vec<_> = set.iter().map(|(_, p)| p).collect();
            for &(poly, term) in &analysis.base_terms {
                invariant.extend(polys[poly as usize].terms()[term as usize].0.vars());
            }
            let original_size = set.total_monomials() as u64;
            let reserved = set.distinct_vars();
            let points = frontier.len();
            self.log(|| {
                format!(
                    "planned frontier: {points} points, sizes {}..={}",
                    frontier.min_size(),
                    frontier.points().last().map_or(0, |p| p.size)
                )
            });
            let node_weight = analysis.node_weight.clone();
            let analysis_cell = OnceCell::new();
            let _ = analysis_cell.set(analysis);
            self.frontier = Some(FrontierState {
                analysis: analysis_cell,
                node_weight,
                frontier,
                original_vars: full_stats.distinct_vars,
                original_size,
                reserved,
                invariant_vars: invariant.len(),
                plan_snapshot,
                reg_len_at_plan: self.reg.len(),
                selected: None,
                subs: FxHashMap::default(),
                warm: FxHashMap::default(),
            });
        }
        Ok(&self.frontier.as_ref().expect("just populated").frontier)
    }

    /// Plans a size/expressiveness staircase for a **forest** of
    /// abstraction trees by repeated coordinate descent
    /// ([`crate::multi::plan_forest_frontier`]) and caches it: afterwards
    /// any bound resolves through [`select_bound`](Self::select_bound)
    /// without re-planning. Descent is a heuristic, so the staircase is a
    /// frontier of *achieved* solutions rather than the exact Pareto
    /// curve a single tree gets.
    ///
    /// # Errors
    /// `Session` unless at least two trees are registered (single trees
    /// get the exact [`compress_frontier`](Self::compress_frontier)).
    pub fn compress_forest_frontier(&mut self) -> Result<&ForestFrontier> {
        if self.trees.len() < 2 {
            return Err(CoreError::Session(format!(
                "compress_forest_frontier requires a forest (>= 2 trees), got {}; \
                 use compress_frontier() for a single tree",
                self.trees.len()
            )));
        }
        if self.forest.is_none() {
            let set = Self::polys_of(&self.polys, &self.full_rat);
            let full_stats = ProvenanceStats::compute(set);
            let original_size = set.total_monomials() as u64;
            let trees: Vec<&AbstractionTree> = self.trees.iter().collect();
            let frontier = plan_forest_frontier(set, &trees, &mut self.reg, 32)?;
            let points = frontier.len();
            self.log(|| {
                format!(
                    "planned forest frontier: {points} points, sizes {}..={}",
                    frontier.min_size(),
                    frontier.points().last().map_or(0, |p| p.size)
                )
            });
            self.forest = Some(ForestFrontierState {
                frontier,
                original_vars: full_stats.distinct_vars,
                original_size,
                selected: None,
                warm: FxHashMap::default(),
            });
        }
        Ok(&self.forest.as_ref().expect("just populated").frontier)
    }

    /// Cheap session statistics for monitoring surfaces: never compiles
    /// an engine, never materializes polynomials (a re-hydrated session
    /// reports from its persisted plan without decompiling anything).
    pub fn info(&self) -> SessionInfo {
        let (frontier_points, original_size, original_vars, warm_engines) = match &self.frontier {
            Some(f) => (
                Some(f.frontier.len()),
                Some(f.original_size),
                Some(f.original_vars),
                f.warm.len(),
            ),
            None => match &self.forest {
                Some(f) => (
                    Some(f.frontier.len()),
                    Some(f.original_size),
                    Some(f.original_vars),
                    f.warm.len(),
                ),
                None => (
                    None,
                    self.polys.get().map(|p| p.total_monomials() as u64),
                    self.polys.get().map(|p| p.distinct_vars().len()),
                    0,
                ),
            },
        };
        SessionInfo {
            trees: self.trees.len(),
            bound: self.bound,
            frontier_points,
            original_size,
            original_vars,
            compressed_size: self.compressed.as_ref().map(|c| c.compressed_size as u64),
            compressed_vars: self.compressed.as_ref().map(|c| c.compressed_vars),
            warm_engines,
            hydrated: self.polys.get().is_none(),
            kernel: cobra_util::kernel::current().as_str(),
            dag: self.dag_mode,
            dag_slots: {
                let full = self.dag_full_rat.get().map(|e| e.program().num_slots());
                let comp = self
                    .compressed
                    .as_ref()
                    .and_then(|c| c.dag_engines.get())
                    .map(|e| e.compressed.program().num_slots());
                match (full, comp) {
                    (None, None) => None,
                    (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
                }
            },
        }
    }

    /// The cached forest staircase, if
    /// [`compress_forest_frontier`](Self::compress_forest_frontier) has
    /// run.
    ///
    /// # Errors
    /// `Session` if the forest frontier has not been planned.
    pub fn forest_frontier(&self) -> Result<&ForestFrontier> {
        self.forest.as_ref().map(|f| &f.frontier).ok_or_else(|| {
            CoreError::Session("compress_forest_frontier must be called first".into())
        })
    }

    /// The cached Pareto frontier, if [`compress_frontier`](Self::compress_frontier)
    /// has run.
    ///
    /// # Errors
    /// `Session` if the frontier has not been planned.
    pub fn frontier(&self) -> Result<&CutFrontier> {
        self.frontier
            .as_ref()
            .map(|f| &f.frontier)
            .ok_or_else(|| CoreError::Session("compress_frontier must be called first".into()))
    }

    /// Folds every variable interned since the frontier was planned (or
    /// last synced) into the plan's reserved set and advances the
    /// generation stamp. The registry is append-only, so its length is a
    /// perfect generation stamp for "what appeared since".
    fn sync_reserved_vars(&mut self) {
        if let Some(state) = self.frontier.as_mut() {
            let len = self.reg.len();
            if len > state.reg_len_at_plan {
                state
                    .reserved
                    .extend((state.reg_len_at_plan..len).map(|i| Var(i as u32)));
                state.reg_len_at_plan = len;
            }
        }
    }

    /// Re-selects the session's compression for a new bound against the
    /// cached frontier: an `O(log frontier)` lookup, then — only if the
    /// selected point actually changed — an `O(leaves)` meta-variable
    /// assignment plus a stats-derived report. The compressed polynomials
    /// themselves ([`crate::apply::apply_cut_with_groups`]'s group-statistics
    /// construction, no re-scan of the full provenance) and the
    /// compressed engine are built lazily on first evaluation. The result
    /// is **identical** to `set_bound(bound)` +
    /// [`compress`](Self::compress) (report, cut and sweep results;
    /// property-pinned in `tests/planner.rs`), at a fraction of the cost
    /// (the benchmark's `core.select.{cold,warm}_ms` and
    /// `select_bound_p50_ms` against `core.plan.frontier_ms`).
    ///
    /// Like every predicted size in the optimizer pipeline, the report's
    /// `compressed_size` comes from the additive group formula, which
    /// assumes merged coefficients never cancel to zero (always true for
    /// nonnegative provenance annotations; see [`crate::groups`]).
    ///
    /// # Errors
    /// `Session` if [`compress_frontier`](Self::compress_frontier) has
    /// not run; `InfeasibleBound` if even the coarsest frontier point
    /// exceeds `bound`.
    pub fn select_bound(&mut self, bound: u64) -> Result<CompressionReport> {
        if self.forest.is_some() {
            return self.select_bound_forest(bound);
        }
        // Variables interned through `registry_mut` since planning must be
        // treated as reserved, or a cut node sharing their name would alias
        // its meta-variable onto the caller's variable — and a sweep
        // binding that variable would silently perturb the compressed side
        // only.
        self.sync_reserved_vars();
        let state = self
            .frontier
            .as_ref()
            .ok_or_else(|| CoreError::Session("compress_frontier must be called first".into()))?;
        let Some(idx) = state.frontier.select_index(bound) else {
            return Err(CoreError::InfeasibleBound {
                min_achievable: state.frontier.min_size(),
            });
        };
        self.bound = Some(bound);
        if state.selected != Some(idx) || self.compressed.is_none() {
            let point = &state.frontier.points()[idx];
            let tree = &self.trees[0];
            // Disjoint field borrows: the frontier state is read-only here
            // while the registry takes the only mutable borrow.
            let (substitution, meta_vars) = match state.subs.get(&idx) {
                Some(pair) => pair.clone(),
                None => point.cut.substitution(tree, &mut self.reg, &state.reserved),
            };
            // The invariant (non-tree) variables survive every cut; a cut
            // node's meta-variable occurs iff some group touches it.
            let compressed_vars = state.invariant_vars
                + point
                    .cut
                    .nodes()
                    .iter()
                    .filter(|n| state.node_weight[n.index()] > 0)
                    .count();
            let cuts_display = vec![format!("{}: {}", tree.name(), point.cut.display(tree))];
            let lazy_cut = point.cut.clone();
            let (original_size, compressed_size) =
                (state.original_size as usize, point.size as usize);
            let prev_selected = state.selected;
            for line in &cuts_display {
                let line = line.clone();
                self.log(move || format!("selected cut — {line}"));
            }
            // Stash the outgoing selection's engines (cheap `Arc` clones)
            // so hopping back to its bound later skips recompilation.
            let stash = match (&self.compressed, prev_selected) {
                (Some(old), Some(old_idx)) if old_idx != idx => old.engines.get().map(|e| {
                    let warm = WarmEngines {
                        rat: e.compressed.clone(),
                        f64: old.comp_f64.get().cloned(),
                    };
                    (old_idx, warm)
                }),
                _ => None,
            };
            let full = self.full_rat.get().cloned();
            let next = Compressed {
                meta_vars,
                substitution,
                original_size,
                compressed_size,
                compressed_vars,
                cuts_display,
                lazy_cut: Some(lazy_cut),
                applied: OnceCell::new(),
                engines: OnceCell::new(),
                comp_f64: OnceCell::new(),
                err_shadow: OnceCell::new(),
                dag_engines: OnceCell::new(),
                dag_comp_f64: OnceCell::new(),
                dag_err_shadow: OnceCell::new(),
            };
            let fs = self.frontier.as_mut().expect("checked above");
            if let Some((old_idx, warm)) = stash {
                fs.warm.insert(old_idx, warm);
            }
            // Warm re-selection: pre-install the stashed engines so the
            // first evaluation after hopping back costs nothing.
            if let (Some(warm), Some(full)) = (fs.warm.get(&idx), full) {
                let _ = next
                    .engines
                    .set(CompiledComparison::from_engines(full, warm.rat.clone()));
                if let Some(f64_engine) = &warm.f64 {
                    let _ = next.comp_f64.set(f64_engine.clone());
                }
            }
            fs.selected = Some(idx);
            fs.subs
                .entry(idx)
                .or_insert_with(|| (next.substitution.clone(), next.meta_vars.clone()));
            // The substitution may have interned fresh meta-variable
            // names; advance the generation stamp past them so they are
            // never mistaken for user variables (name-addressing a
            // meta-variable via `registry_mut` must keep resolving to the
            // meta-variable itself).
            fs.reg_len_at_plan = self.reg.len();
            self.compressed = Some(next);
        }
        let state = self.frontier.as_ref().expect("checked above");
        let compressed = self.compressed.as_ref().expect("just selected");
        Ok(CompressionReport {
            bound,
            original_size: state.original_size,
            compressed_size: compressed.compressed_size as u64,
            original_vars: state.original_vars,
            compressed_vars: compressed.compressed_vars,
            cuts: compressed.cuts_display.clone(),
            speedup: None,
        })
    }

    /// Forest-staircase bound selection: resolves `bound` against the
    /// cached [`ForestFrontier`] and applies the selected per-tree cuts
    /// eagerly (forest applications have no lazy group recipe). Because
    /// that application is the expensive step, the outgoing selection —
    /// compressed polynomials, meta-variable identities and every compiled
    /// engine — is stashed in a per-point warm cache, so hopping back and
    /// forth along the staircase (the demo slider's access pattern)
    /// re-applies each cut at most once. Deltas clear the whole forest
    /// state, warm cache included, so no stale entry survives a mutation.
    fn select_bound_forest(&mut self, bound: u64) -> Result<CompressionReport> {
        let state = self
            .forest
            .as_ref()
            .expect("select_bound_forest is only called with forest state");
        let Some(idx) = state.frontier.select_index(bound) else {
            return Err(CoreError::InfeasibleBound {
                min_achievable: state.frontier.min_size(),
            });
        };
        self.bound = Some(bound);
        if state.selected != Some(idx) || self.compressed.is_none() {
            let cuts: Vec<Cut> = state.frontier.points()[idx].cuts.to_vec();
            let old_selected = state.selected;
            if let Some(old_idx) = old_selected {
                if old_idx != idx {
                    if let Some(old) = self.compressed.take() {
                        self.forest
                            .as_mut()
                            .expect("checked above")
                            .warm
                            .insert(old_idx, old);
                    }
                }
            }
            let warm = self.forest.as_mut().expect("checked above").warm.remove(&idx);
            if let Some(prev) = warm {
                self.log(move || format!("forest staircase warm hit — reinstalled point {idx}"));
                self.compressed = Some(prev);
            } else {
                let polys = Self::polys_of(&self.polys, &self.full_rat);
                let pairs: Vec<(&AbstractionTree, &Cut)> =
                    self.trees.iter().zip(cuts.iter()).collect();
                let applied = crate::apply::apply_cuts(polys, &pairs, &mut self.reg);
                let cuts_display: Vec<String> = self
                    .trees
                    .iter()
                    .zip(&cuts)
                    .map(|(t, c)| format!("{}: {}", t.name(), c.display(t)))
                    .collect();
                for line in &cuts_display {
                    let line = line.clone();
                    self.log(move || format!("selected forest cut — {line}"));
                }
                self.compressed = Some(Compressed::from_applied(applied, cuts_display));
            }
            self.forest.as_mut().expect("checked above").selected = Some(idx);
        }
        let state = self.forest.as_ref().expect("checked above");
        let compressed = self.compressed.as_ref().expect("just selected");
        Ok(CompressionReport {
            bound,
            original_size: state.original_size,
            compressed_size: compressed.compressed_size as u64,
            original_vars: state.original_vars,
            compressed_vars: compressed.compressed_vars,
            cuts: compressed.cuts_display.clone(),
            speedup: None,
        })
    }

    /// Applies a term-level delta to the session's polynomials **in
    /// place**, then patches — rather than rebuilds — every cache the
    /// delta touches, so a live session absorbs upstream provenance
    /// changes at `O(touched)` cost instead of a full
    /// regenerate → recompile → replan cycle:
    ///
    /// * the polynomial set is edited via [`PolySet::apply_delta`]
    ///   (atomic: an invalid delta leaves the session untouched);
    /// * the compiled full-side program is **spliced**: untouched CSR rows
    ///   are copied by range (coefficient-only deltas share every shape
    ///   array), and accumulated churn eventually triggers a compacting
    ///   recompile;
    /// * for planned frontiers, a structural delta re-analyzes only the
    ///   touched polynomials (groups never span polynomials) and replans
    ///   reusing the DP tables of every subtree whose weights did not
    ///   change; a coefficient-only delta keeps the analysis, frontier and
    ///   selection metadata entirely and drops just the compiled engines;
    /// * an active frontier selection is re-selected at its bound, a
    ///   one-shot [`compress`](Self::compress) state is re-derived, and a
    ///   forest staircase (descent-built over the whole set) is cleared
    ///   for replanning.
    ///
    /// Answers after a delta are **bit-identical** to a session rebuilt
    /// from scratch on the updated polynomials (pinned across kernels and
    /// thread counts in `tests/delta_diff.rs`).
    ///
    /// ```
    /// use cobra_core::{CobraSession, PolyDelta};
    /// use cobra_provenance::{Monomial, Valuation};
    /// use cobra_util::Rat;
    ///
    /// let mut session = CobraSession::from_text(
    ///     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
    /// ).unwrap();
    /// session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
    /// session.compress_frontier().unwrap();
    /// session.select_bound(2).unwrap();
    ///
    /// // a March price correction lands as a coefficient-only delta…
    /// let p1 = session.polynomials().index_of("P1").unwrap();
    /// let (p, m3) = {
    ///     let reg = session.registry_mut();
    ///     (reg.var("p1"), reg.var("m3"))
    /// };
    /// let march = Monomial::from_pairs([(p, 1), (m3, 1)]);
    /// let mut delta = PolyDelta::new();
    /// delta.set(p1, march.clone(), Rat::int(250));
    /// let report = session.apply_delta(&delta).unwrap();
    /// assert!(!report.is_structural());
    /// let all_ones = Valuation::with_default(Rat::ONE);
    /// assert_eq!(session.assign(&all_ones).unwrap().rows[0].full, Rat::int(525));
    ///
    /// // …while deleting the tuple entirely is structural: the session
    /// // re-analyzes, replans incrementally and re-selects its bound.
    /// let mut delta = PolyDelta::new();
    /// delta.remove(p1, march);
    /// assert!(session.apply_delta(&delta).unwrap().is_structural());
    /// assert_eq!(session.assign(&all_ones).unwrap().rows[0].full, Rat::int(275));
    /// ```
    ///
    /// # Errors
    /// `Delta` if the delta addresses a polynomial index outside the set
    /// (nothing is modified); `InfeasibleBound` if a structural delta
    /// grows the minimum achievable size past the currently selected
    /// bound (the polynomials and frontier are updated, the selection is
    /// cleared, and the session stays live — select a feasible bound).
    pub fn apply_delta(&mut self, delta: &PolyDelta<Rat>) -> Result<DeltaReport> {
        // Materialize first: re-hydrated sessions decompile their full
        // engine before it is patched out from under them.
        let _ = Self::polys_of(&self.polys, &self.full_rat);
        let report = self
            .polys
            .get_mut()
            .expect("just materialized")
            .apply_delta(delta)
            .map_err(|e| CoreError::Delta(e.to_string()))?;
        if report.is_noop() {
            return Ok(report);
        }
        self.log(|| {
            format!(
                "delta: {} terms touched ({} structural / {} coeff-only polys)",
                report.terms_touched,
                report.structural_polys.len(),
                report.coeff_polys.len()
            )
        });
        self.patch_full_engines(&report);
        if self.forest.is_some() {
            // Forest staircases are descent-built over the whole set;
            // there is no incremental recipe, so clear for replanning.
            self.forest = None;
            self.compressed = None;
            return Ok(report);
        }
        if self.frontier.is_some() {
            if report.is_structural() {
                let recompress = matches!(&self.compressed, Some(c) if c.lazy_cut.is_none());
                let reselect = matches!(&self.compressed, Some(c) if c.lazy_cut.is_some());
                self.compressed = None;
                self.refresh_frontier_after_structural_delta(&report)?;
                if recompress {
                    self.compress()?;
                } else if reselect {
                    let bound = self.bound.expect("a frontier selection records its bound");
                    self.select_bound(bound)?;
                }
            } else {
                // Coefficient-only: groups, weights, the frontier and the
                // selection metadata (cut, meta-variables, sizes) are all
                // untouched — only compiled / materialized caches are
                // stale.
                let state = self.frontier.as_mut().expect("checked above");
                state.warm.clear();
                match self.compressed.take() {
                    Some(c) if c.lazy_cut.is_some() => {
                        self.compressed = Some(Compressed {
                            meta_vars: c.meta_vars,
                            substitution: c.substitution,
                            original_size: c.original_size,
                            compressed_size: c.compressed_size,
                            compressed_vars: c.compressed_vars,
                            cuts_display: c.cuts_display,
                            lazy_cut: c.lazy_cut,
                            applied: OnceCell::new(),
                            engines: OnceCell::new(),
                            comp_f64: OnceCell::new(),
                            err_shadow: OnceCell::new(),
                            dag_engines: OnceCell::new(),
                            dag_comp_f64: OnceCell::new(),
                            dag_err_shadow: OnceCell::new(),
                        });
                    }
                    Some(_) => self.compress().map(|_| ())?,
                    None => {}
                }
            }
            return Ok(report);
        }
        if self.compressed.is_some() {
            // One-shot `compress()` state without a planned frontier:
            // re-derive it against the updated set (the full program above
            // was patched, not recompiled).
            self.compress()?;
        }
        Ok(report)
    }

    /// Patches the session-cached full-side engines after a delta:
    /// coefficient-only deltas overwrite coefficient ranges and share
    /// every shape array; structural deltas splice only the touched CSR
    /// rows. Accumulated churn past a quarter of the program triggers a
    /// compacting recompile, bounding local-table drift.
    fn patch_full_engines(&mut self, report: &DeltaReport) {
        self.delta_churn += report.terms_touched;
        if let Some(old) = self.full_rat.take() {
            let set = Self::polys_of(&self.polys, &self.full_rat);
            let threshold = (old.program().num_terms() / 4).max(64);
            let patched = if self.delta_churn >= threshold {
                self.delta_churn = 0;
                BatchEvaluator::compile(set)
            } else if report.is_structural() {
                BatchEvaluator::new(old.program().patched(set, &report.touched()))
            } else {
                BatchEvaluator::new(old.program().patched_coeffs(set, &report.touched()))
            };
            let _ = self.full_rat.set(patched);
        }
        // The f64 shadow re-derives lazily from the patched exact program,
        // and the DAG rewrites of the full side re-derive from that shadow's
        // exact source — both must drop with it.
        let _ = self.full_f64.take();
        let _ = self.dag_full_rat.take();
        let _ = self.dag_full_f64.take();
    }

    /// Refreshes a planned frontier after a structural delta: re-analyzes
    /// only the polynomials whose monomial set changed (groups never span
    /// polynomials), replans reusing every clean subtree's DP table, and
    /// recomputes the report statistics the way a fresh plan would. The
    /// current selection must already be cleared by the caller.
    fn refresh_frontier_after_structural_delta(&mut self, report: &DeltaReport) -> Result<()> {
        let set = Self::polys_of(&self.polys, &self.full_rat);
        let tree = &self.trees[0];
        let state = self
            .frontier
            .as_mut()
            .expect("structural refresh requires a planned frontier");
        let analysis = match state.analysis.get() {
            Some(prev) => prev.reanalyze_polys(set, tree, &report.structural_polys)?,
            // Re-hydrated cold state: nothing to patch, analyze afresh.
            None => GroupAnalysis::analyze(set, tree)?,
        };
        let ctx = match &state.plan_snapshot {
            Some(prev) => PlanContext::new_incremental(tree, &analysis, prev),
            None => PlanContext::new(tree, &analysis),
        };
        let frontier = ExactDp
            .plan_frontier(&ctx)
            .expect("the exact DP frontier always exists");
        let plan_snapshot = Some(ctx.snapshot());
        let mut invariant: FxHashSet<Var> = FxHashSet::default();
        for group in &analysis.groups {
            invariant.extend(group.context.vars());
        }
        let polys: Vec<_> = set.iter().map(|(_, p)| p).collect();
        for &(poly, term) in &analysis.base_terms {
            invariant.extend(polys[poly as usize].terms()[term as usize].0.vars());
        }
        state.node_weight = analysis.node_weight.clone();
        state.frontier = frontier;
        state.plan_snapshot = plan_snapshot;
        state.original_vars = ProvenanceStats::compute(set).distinct_vars;
        state.original_size = set.total_monomials() as u64;
        state.invariant_vars = invariant.len();
        let cell = OnceCell::new();
        let _ = cell.set(analysis);
        state.analysis = cell;
        // Deltas may introduce brand-new variables: everything the updated
        // set mentions is reserved, plus whatever the user interned since
        // the last generation stamp.
        state.reserved.extend(set.distinct_vars());
        let len = self.reg.len();
        if len > state.reg_len_at_plan {
            state
                .reserved
                .extend((state.reg_len_at_plan..len).map(|i| Var(i as u32)));
        }
        state.reg_len_at_plan = len;
        state.selected = None;
        // Frontier indices shifted: cached substitutions and warm engines
        // are keyed by index and compiled against the old set — drop both.
        state.subs.clear();
        state.warm.clear();
        Ok(())
    }

    pub(crate) fn compressed_state(&self) -> Result<&Compressed> {
        self.compressed
            .as_ref()
            .ok_or_else(|| CoreError::Session("compress must be called first".into()))
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
        let engines = self.engines(state);
        let report = DagReport {
            full: Self::dag_stats(self.full_engine().program(), engines.full.program()),
            compressed: Self::dag_stats(
                self.flat_engines(state).compressed.program(),
                engines.compressed.program(),
            ),
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

    /// The compressed polynomials (materialized on first access for
    /// frontier selections).
    pub fn compressed_polynomials(&self) -> Result<&PolySet<Rat>> {
        Ok(&self.applied(self.compressed_state()?).compressed)
    }

    /// The applied abstraction (substitution + meta-variables), with the
    /// compressed polynomials materialized on first access.
    pub fn abstraction(&self) -> Result<&AppliedAbstraction<Rat>> {
        Ok(self.applied(self.compressed_state()?))
    }

    /// The meta-variable screen (paper Fig. 5): every meta-variable with
    /// its grouped originals and the average default.
    pub fn meta_summary(&self) -> Result<Vec<MetaSummaryRow>> {
        let state = self.compressed_state()?;
        let fallback = self
            .base_valuation
            .default_value()
            .copied()
            .unwrap_or(Rat::ONE);
        Ok(state
            .meta_vars
            .iter()
            .map(|meta: &MetaVar| {
                let leaves: Vec<(String, Rat)> = meta
                    .leaves
                    .iter()
                    .map(|&l| {
                        (
                            self.reg.name(l).to_owned(),
                            self.base_valuation.get(l).unwrap_or(fallback),
                        )
                    })
                    .collect();
                let sum: Rat = leaves.iter().map(|(_, v)| *v).sum();
                MetaSummaryRow {
                    name: meta.name.clone(),
                    default_value: sum / Rat::int(leaves.len() as i64),
                    leaves,
                }
            })
            .collect())
    }

    /// Evaluates a single **leaf-level** scenario on both the full and the
    /// compressed provenance (the scenario is projected onto the
    /// meta-variables by group averaging) and returns the side-by-side
    /// results. Accepts anything convertible to a one-scenario
    /// [`ScenarioSet`] — typically `&Valuation<Rat>`.
    ///
    /// # Errors
    /// `Session` if `compress` has not run or the set does not contain
    /// exactly one scenario (use [`sweep`](Self::sweep) for families).
    pub fn assign(&self, scenario: impl Into<ScenarioSet>) -> Result<ResultComparison> {
        // A one-scenario sweep: the single-assignment screen runs through
        // the same compiled engine as the batched explorer.
        let set = scenario.into();
        if set.len() != 1 {
            return Err(CoreError::Session(format!(
                "assign takes exactly one scenario, got {}; use sweep for families",
                set.len()
            )));
        }
        Ok(self.sweep(set)?.comparison(0))
    }

    /// Evaluates a whole family of **leaf-level** scenarios in one
    /// compiled pass over both the full and the compressed provenance (the
    /// interactive explorer's bulk what-if screen). Accepts anything
    /// convertible to a [`ScenarioSet`]: grids and perturbation families
    /// stream straight into the batch kernels without materializing
    /// per-scenario valuations, flat `&[Valuation]` slices keep working.
    /// Results are exact and ordered like the set's enumeration.
    ///
    /// This **materializes** the O(scenarios × polys) result matrix. For
    /// families too large to hold (10⁶–10⁷-scenario grids), aggregate
    /// through [`sweep_fold`](Self::sweep_fold) instead, or trade
    /// exactness for lane-kernel speed with [`sweep_f64`](Self::sweep_f64).
    pub fn sweep(&self, scenarios: impl Into<ScenarioSet>) -> Result<ScenarioSweep> {
        let state = self.compressed_state()?;
        let set = scenarios.into();
        catch_exact_overflow(|| {
            Ok(self
                .engines(state)
                .sweep(&state.meta_vars, &self.base_valuation, &set))
        })
    }

    /// The **ordered** fold entry: streams a scenario family through both
    /// compiled engines in precision `P` ([`Exact`], [`Approx`] or
    /// [`Certified`] — see [`Precision`] for what each evaluates and
    /// reports) and folds each scenario's result rows into an
    /// accumulator on the calling thread, without ever materializing the
    /// result matrix: the aggregate hypothetical questions the paper
    /// motivates — worst-case abstraction error, argmax impact, outcome
    /// histograms — run over 10⁷-scenario grids in O(1) output memory
    /// ([`folds`](crate::folds) ships the common aggregates). `f`
    /// receives each scenario as a [`FoldItem`] in enumeration order; the
    /// rows it borrows are reused block buffers, so copy out whatever
    /// must outlive the call. This is [`CompiledComparison::fold`] over
    /// the session's cached engines, valuation and meta-variables.
    ///
    /// The sweep polls `budget` at block granularity, and an exhausted
    /// budget returns [`SweepOutcome::Partial`] whose fold is **exactly**
    /// the fold over the scenario prefix completed — graceful degradation
    /// without approximation; `P::Report` covers the same prefix. Pass
    /// `&SweepBudget::unlimited()` to run to completion.
    ///
    /// ```
    /// use cobra_core::folds::{self, MaxAbsError};
    /// use cobra_core::{Certified, CobraSession, Exact, ScenarioSet, SweepBudget};
    /// use cobra_util::Rat;
    ///
    /// let mut session = CobraSession::from_text(
    ///     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
    /// ).unwrap();
    /// session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
    /// session.set_bound(2);
    /// session.compress().unwrap();
    /// let m3 = session.registry_mut().var("m3");
    /// let grid = ScenarioSet::grid()
    ///     .axis([m3], (1..=100i64).map(Rat::int).collect::<Vec<_>>())
    ///     .build()
    ///     .unwrap();
    ///
    /// // Count the lossless scenarios with a plain closure fold…
    /// let unlimited = SweepBudget::unlimited();
    /// let (lossless, ()) = session
    ///     .fold::<Exact, _>(&grid, &unlimited, 0usize, |n, item| {
    ///         n + usize::from(item.full == item.compressed)
    ///     })
    ///     .unwrap();
    /// assert_eq!(lossless.into_fold(), 100); // m3 is outside the tree: all exact
    /// // …or plug in a built-in aggregate via `folds::step`.
    /// let worst = session.sweep_fold(&grid, MaxAbsError::new(), folds::step).unwrap();
    /// assert_eq!(worst.max_rel_error, 0.0);
    ///
    /// // Cap the sweep at 40 of the 100 scenarios and get the exact fold
    /// // over precisely that prefix; the session stays usable afterwards.
    /// let capped = SweepBudget::unlimited().with_scenario_cap(40);
    /// let (outcome, ()) = session
    ///     .fold::<Exact, _>(&grid, &capped, 0usize, |n, _| n + 1)
    ///     .unwrap();
    /// assert_eq!(outcome.scenarios_done(), Some(40));
    /// assert_eq!(*outcome.fold(), 40);
    ///
    /// // `f64` speed with a sound rounding bound on every scenario.
    /// let (outcome, bound) = session
    ///     .fold::<Certified, _>(&grid, &unlimited, 0usize, |n, _| n + 1)
    ///     .unwrap();
    /// assert_eq!(outcome.into_fold(), 100);
    /// assert_eq!(bound.scenarios, 100);
    /// assert!(bound.max_rel_bound < 1e-12); // tiny for well-conditioned inputs
    /// ```
    ///
    /// # Errors
    /// `Session` if `compress` has not run; `InfeasibleBudget` for a
    /// scenario cap of zero over a non-empty set; `ExactOverflow` when
    /// exact arithmetic (the [`Exact`] kernels, [`Approx`]'s probes)
    /// overflows `i128` — typed, and the session stays usable.
    pub fn fold<P: Precision, A>(
        &self,
        scenarios: impl Into<ScenarioSet>,
        budget: &SweepBudget,
        init: A,
        f: impl FnMut(A, FoldItem<'_, P::Num>) -> A,
    ) -> Result<(SweepOutcome<A>, P::Report)> {
        let state = self.compressed_state()?;
        let set = scenarios.into();
        catch_exact_overflow(move || {
            self.engines(state).fold::<P, A>(
                P::session_engines(self)?,
                (&state.meta_vars, &self.base_valuation),
                &set,
                budget,
                init,
                f,
            )
        })
    }

    /// The **mergeable** fold entry: [`fold`](Self::fold) fanned across
    /// cores ([`CompiledComparison::fold_par`] over the session's cached
    /// engines). The scenario family is split into contiguous per-worker
    /// spans, each worker thread owns its own binder, batch buffers and a
    /// replica of `fold` ([`MergeFold::init`]), and the partial
    /// accumulators merge back in ascending span order
    /// ([`MergeFold::merge`]) — so fold state **and** `P::Report` are
    /// **bit-identical** to `fold::<P, _>(set, budget, fold, folds::step)`
    /// at any thread count (`COBRA_THREADS`, or [`par::with_threads`] in
    /// tests), including the [`SweepOutcome::Partial`] prefix of an
    /// exhausted budget (property-pinned in `tests/robustness.rs`). This
    /// lifts the ordered entry's single-thread bind bottleneck: binding
    /// dominates compressed-side sweeps, and here it scales with cores.
    ///
    /// Any [`MergeFold`] plugs in, including tuple compositions (see the
    /// [`folds`](crate::folds) module example):
    ///
    /// ```
    /// use cobra_core::folds::{self, Histogram};
    /// use cobra_core::{Approx, CobraSession, ScenarioSet, SweepBudget};
    /// use cobra_util::Rat;
    ///
    /// let mut session = CobraSession::from_text(
    ///     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
    /// ).unwrap();
    /// session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
    /// session.set_bound(2);
    /// session.compress().unwrap();
    /// let m3 = session.registry_mut().var("m3");
    /// let rat = |s: &str| Rat::parse(s).unwrap();
    /// let grid = ScenarioSet::grid()
    ///     .axis([m3], [rat("0.8"), rat("0.9"), rat("1"), rat("1.1")])
    ///     .build()
    ///     .unwrap();
    ///
    /// // an outcome histogram on the `f64` fast path, fanned across cores
    /// let hist = || Histogram::new(0, 0.0, 2000.0, 8);
    /// let budget = SweepBudget::unlimited();
    /// let (par, par_div) = session.fold_par::<Approx, _>(&grid, &budget, hist()).unwrap();
    /// assert_eq!(par.fold().total(), grid.len() as u64);
    /// assert!(par_div.max_rel_divergence < 1e-12);
    /// // bit-identical to the ordered fold, divergence probes included
    /// let (seq, seq_div) = session.sweep_fold_f64(&grid, hist(), folds::step).unwrap();
    /// assert_eq!(par.fold().counts, seq.counts);
    /// assert_eq!(par_div.max_rel_divergence, seq_div.max_rel_divergence);
    /// ```
    ///
    /// # Errors
    /// As [`fold`](Self::fold), plus `WorkerPanicked` if a worker thread
    /// panicked mid-sweep (faults are isolated at span boundaries: the
    /// panic is caught, sibling workers are cancelled, and the session
    /// remains fully usable).
    pub fn fold_par<P: Precision, F: MergeFold + Send + Sync>(
        &self,
        scenarios: impl Into<ScenarioSet>,
        budget: &SweepBudget,
        fold: F,
    ) -> Result<(SweepOutcome<F>, P::Report)> {
        let state = self.compressed_state()?;
        let set = scenarios.into();
        // Workers catch their own panics at span boundaries, so an exact
        // overflow arrives as `WorkerPanicked`; the same guard as the
        // ordered entry remaps it.
        catch_exact_overflow(move || {
            self.engines(state).fold_par::<P, F>(
                P::session_engines(self)?,
                (&state.meta_vars, &self.base_valuation),
                &set,
                budget,
                fold,
            )
        })
    }

    /// Sugar for [`fold`](Self::fold)`::<`[`Exact`]`, _>` run to
    /// completion. Results are identical to [`sweep`](Self::sweep) —
    /// `sweep` *is* this fold with an appending accumulator.
    ///
    /// # Errors
    /// As [`fold`](Self::fold).
    pub fn sweep_fold<A>(
        &self,
        scenarios: impl Into<ScenarioSet>,
        init: A,
        f: impl FnMut(A, FoldItem<'_, Rat>) -> A,
    ) -> Result<A> {
        let (outcome, ()) = self.fold::<Exact, A>(scenarios, &SweepBudget::unlimited(), init, f)?;
        Ok(outcome.into_fold())
    }

    /// Sugar for [`fold`](Self::fold)`::<`[`Approx`]`, _>` run to
    /// completion: the **approximate `f64` fast path** (the benchmark's
    /// `f64_scenarios_per_s` against `core.sweep.exact_scenarios_per_s`
    /// is what it buys). The [`F64Divergence`] next to the
    /// fold is a measured spot check of the rounding (not a proven
    /// worst-case bound); exactness-critical sweeps should use
    /// [`sweep_fold`](Self::sweep_fold).
    ///
    /// # Errors
    /// As [`fold`](Self::fold).
    pub fn sweep_fold_f64<A>(
        &self,
        scenarios: impl Into<ScenarioSet>,
        init: A,
        f: impl FnMut(A, FoldItem<'_, f64>) -> A,
    ) -> Result<(A, F64Divergence)> {
        let (outcome, divergence) =
            self.fold::<Approx, A>(scenarios, &SweepBudget::unlimited(), init, f)?;
        Ok((outcome.into_fold(), divergence))
    }

    /// Sugar for [`fold`](Self::fold)`::<`[`Certified`]`, _>`: the `f64`
    /// fast path with a **sound per-scenario error bound** instead of the
    /// sampled divergence probe, for roughly one extra kernel pass per
    /// side.
    ///
    /// # Errors
    /// As [`fold`](Self::fold).
    pub fn sweep_fold_f64_bounded<A>(
        &self,
        scenarios: impl Into<ScenarioSet>,
        budget: SweepBudget,
        init: A,
        f: impl FnMut(A, FoldItem<'_, f64>) -> A,
    ) -> Result<(SweepOutcome<A>, F64ErrorBound)> {
        self.fold::<Certified, A>(scenarios, &budget, init, f)
    }

    /// Sugar for [`fold_par`](Self::fold_par)`::<`[`Approx`]`, _>` run to
    /// completion: the parallel `f64` fast path, with the divergence
    /// probes distributed to the workers whose spans contain them; at
    /// 10⁷ scenarios this is the fastest aggregate surface in the crate.
    ///
    /// # Errors
    /// As [`fold_par`](Self::fold_par).
    pub fn sweep_fold_f64_par<F: MergeFold + Send + Sync>(
        &self,
        scenarios: impl Into<ScenarioSet>,
        fold: F,
    ) -> Result<(F, F64Divergence)> {
        let (outcome, divergence) =
            self.fold_par::<Approx, F>(scenarios, &SweepBudget::unlimited(), fold)?;
        Ok((outcome.into_fold(), divergence))
    }

    /// Evaluates a scenario family approximately (`f64` lane kernel on
    /// both sides) and materializes the result matrix — the interactive
    /// default for large grids where exact rationals are too slow but
    /// per-scenario results are still wanted. Built on
    /// [`sweep_fold_f64`](Self::sweep_fold_f64) with an appending fold;
    /// the returned [`F64ScenarioSweep`] carries the measured
    /// exact-vs-approximate [`F64Divergence`] of the run.
    ///
    /// ```
    /// use cobra_core::{CobraSession, ScenarioSet};
    /// use cobra_util::Rat;
    ///
    /// let mut session = CobraSession::from_text(
    ///     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
    /// ).unwrap();
    /// session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
    /// session.set_bound(2);
    /// session.compress().unwrap();
    /// let m3 = session.registry_mut().var("m3");
    /// let rat = |s: &str| Rat::parse(s).unwrap();
    /// let grid = ScenarioSet::grid()
    ///     .axis([m3], [rat("0.8"), rat("1"), rat("1.2")])
    ///     .build()
    ///     .unwrap();
    ///
    /// let exact = session.sweep(&grid).unwrap();
    /// let approx = session.sweep_f64(&grid).unwrap();
    /// assert_eq!(approx.len(), exact.len());
    /// // the f64 shadow tracks the exact path to rounding error
    /// for i in 0..exact.len() {
    ///     for (e, a) in exact.full_row(i).iter().zip(approx.full_row(i)) {
    ///         assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs());
    ///     }
    /// }
    /// assert!(approx.divergence().max_rel_divergence < 1e-12);
    /// ```
    ///
    /// # Errors
    /// `Session` if `compress` has not run.
    pub fn sweep_f64(&self, scenarios: impl Into<ScenarioSet>) -> Result<F64ScenarioSweep> {
        let state = self.compressed_state()?;
        let set = scenarios.into();
        let n = set.len();
        let np = self.engines(state).full.program().num_polys();
        let init = (Vec::with_capacity(n * np), Vec::with_capacity(n * np));
        let ((full, compressed), divergence) =
            self.sweep_fold_f64(set, init, |(mut f, mut c), item| {
                f.extend_from_slice(item.full);
                c.extend_from_slice(item.compressed);
                (f, c)
            })?;
        Ok(F64ScenarioSweep {
            labels: self.engines(state).full.program().labels().to_vec(),
            num_scenarios: n,
            full,
            compressed,
            divergence,
        })
    }

    /// The full-provenance results under the session's base valuation
    /// (one `f64` per result tuple, label order) — the reference row
    /// impact folds compare against
    /// ([`folds::ArgmaxImpact::against`](crate::folds::ArgmaxImpact::against)).
    ///
    /// # Errors
    /// `Session` if `compress` has not run.
    pub fn baseline_results(&self) -> Result<Vec<f64>> {
        let state = self.compressed_state()?;
        let prog = self.engines(state).full.program();
        let row = prog
            .bind(&self.base_valuation)
            .expect("base valuation must be total");
        Ok(prog.eval_scenario(&row).iter().map(|r| r.to_f64()).collect())
    }

    /// Evaluates a single **meta-level** assignment directly (the user
    /// typed values into the Fig. 5 screen). The full provenance is
    /// evaluated under the expansion of the meta values to their leaves,
    /// so the comparison isolates compression loss (zero here by
    /// construction). Scenario-set levels resolve against the default
    /// meta-valuation (group averages over the base).
    ///
    /// # Errors
    /// `Session` if `compress` has not run or the set does not contain
    /// exactly one scenario.
    pub fn assign_meta(&self, meta_scenario: impl Into<ScenarioSet>) -> Result<ResultComparison> {
        let state = self.compressed_state()?;
        let set = meta_scenario.into();
        if set.len() != 1 {
            return Err(CoreError::Session(format!(
                "assign_meta takes exactly one scenario, got {}",
                set.len()
            )));
        }
        catch_exact_overflow(|| {
            let defaults =
                assign::default_meta_valuation(&state.meta_vars, &self.base_valuation);
            let meta_base = self.base_valuation.overridden_by(&defaults);
            let meta_val = meta_base.overridden_by(&set.scenario_valuation(0, &meta_base));
            let leaf_val = self
                .base_valuation
                .overridden_by(&assign::expand_to_leaves(&state.meta_vars, &meta_val));
            let engines = self.engines(state);
            let full_row = engines
                .full
                .program()
                .bind(&leaf_val)
                .expect("leaf valuation must be total");
            let meta_row = engines
                .compressed
                .program()
                .bind(&meta_val)
                .expect("meta valuation must be total");
            let full = engines.full.program().eval_scenario(&full_row);
            let compressed = engines.compressed.program().eval_scenario(&meta_row);
            Ok(crate::scenario::compare_rows(
                engines.full.program().labels(),
                full,
                compressed,
            ))
        })
    }

    /// Measures the assignment speedup (paper §4) on the `f64` fast path,
    /// for one scenario (a `&Valuation` converts) or a whole scenario
    /// family: both sides are evaluated by the same compiled batch engine,
    /// so the full-vs-compressed comparison isolates provenance size (the
    /// paper's variable) from evaluation machinery. Accepts anything
    /// convertible to a [`ScenarioSet`]; rows are bound once up front
    /// (timing covers evaluation only), best-of-`runs` after `warmup`
    /// rounds.
    pub fn measure_speedup(
        &self,
        scenarios: impl Into<ScenarioSet>,
        warmup: usize,
        runs: usize,
    ) -> Result<SpeedupMeasurement> {
        let state = self.compressed_state()?;
        let (full_f64, compressed_f64) = self.f64_engines(state);
        let set = scenarios.into();
        // Exact projection, f64 rows: the shadow programs share the exact
        // programs' variable numbering.
        let (full_rows, comp_rows) = self.engines(state).bind_rows(
            &state.meta_vars,
            &self.base_valuation,
            &set,
            |r| r.to_f64(),
        );
        Ok(measure_sweep_speedup(
            full_f64,
            compressed_f64,
            &full_rows,
            &comp_rows,
            warmup,
            runs,
        ))
    }

    /// A full report, optionally including a speedup measurement.
    pub fn report(&self, speedup: Option<SpeedupMeasurement>) -> Result<CompressionReport> {
        let state = self.compressed_state()?;
        Ok(CompressionReport {
            bound: self.bound.unwrap_or(0),
            original_size: state.original_size as u64,
            compressed_size: state.compressed_size as u64,
            original_vars: self.polynomials().distinct_vars().len(),
            compressed_vars: state.compressed_vars,
            cuts: state.cuts_display.clone(),
            speedup,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const PAPER_POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";

    const FIG2_TREE: &str =
        "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    fn session_with_bound(bound: u64) -> CobraSession {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.set_bound(bound);
        s
    }

    #[test]
    fn pipeline_end_to_end() {
        let mut s = session_with_bound(6);
        s.enable_trace();
        let report = s.compress().unwrap();
        assert_eq!(report.original_size, 14);
        assert_eq!(report.compressed_size, 6);
        assert!(report.cuts[0].contains("Business"));
        assert!(!s.trace().is_empty());
        // meta screen: 4 rows ({p1, p2, Special, Business} — the optimal
        // size-6 cut), Business groups b1,b2,e with default 1
        let metas = s.meta_summary().unwrap();
        assert_eq!(metas.len(), 4);
        let business = metas.iter().find(|m| m.name == "Business").unwrap();
        assert_eq!(business.leaves.len(), 3);
        assert_eq!(business.default_value, Rat::ONE);
    }

    #[test]
    fn missing_inputs_are_session_errors() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        assert!(matches!(s.compress(), Err(CoreError::Session(_))));
        s.set_bound(6);
        assert!(matches!(s.compress(), Err(CoreError::Session(_))));
        assert!(matches!(s.meta_summary(), Err(CoreError::Session(_))));
    }

    #[test]
    fn assign_reports_march_discount() {
        // the paper's first hypothetical: price of all plans −20% in March
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let m3 = s.registry_mut().var("m3");
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        let cmp = s.assign(&scenario).unwrap();
        // month variables are outside the tree → compression is lossless
        assert!(cmp.is_exact());
        // P1 = m1-part + 0.8 × m3-part = 454.1 + 0.8·451.15
        assert_eq!(cmp.rows[0].full, rat("454.1") + rat("0.8") * rat("451.15"));
    }

    #[test]
    fn assign_meta_is_always_internally_consistent() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let business = s.registry_mut().var("Business");
        let scenario = Valuation::new().bind(business, rat("1.1"));
        let cmp = s.assign_meta(&scenario).unwrap();
        // meta-level assignment has no projection loss by construction
        assert!(cmp.is_exact());
        assert_eq!(
            cmp.rows[1].full,
            (rat("77.9") + rat("52.2") + rat("69.7")) * rat("1.1")
                + (rat("80.5") + rat("56.5") + rat("100.65")) * rat("1.1")
        );
    }

    #[test]
    fn speedup_measurement_runs() {
        let mut s = session_with_bound(4);
        s.compress().unwrap();
        let m = s
            .measure_speedup(Valuation::with_default(Rat::ONE), 1, 3)
            .unwrap();
        assert_eq!(m.full_size, 14);
        assert_eq!(m.compressed_size, 4);
    }

    #[test]
    fn sweep_batches_many_scenarios_exactly() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let m3 = s.registry_mut().var("m3");
        let b1 = s.registry_mut().var("b1");
        let scenarios: Vec<Valuation<Rat>> = (0..20)
            .map(|i: i128| {
                Valuation::with_default(Rat::ONE)
                    .bind(m3, Rat::ONE - Rat::new(i, 100))
                    .bind(b1, Rat::ONE + Rat::new(i, 50))
            })
            .collect();
        let sweep = s.sweep(&scenarios).unwrap();
        assert_eq!(sweep.len(), 20);
        // every batched row equals the single-assignment path
        for (scenario, cmp) in scenarios.iter().zip(sweep.comparisons()) {
            let single = s.assign(scenario).unwrap();
            assert_eq!(single.rows, cmp.rows);
        }
        // scenario 0 leaves b1 at 1 → aligned, exact; later ones perturb
        // b1 alone inside the Business group → lossy
        assert!(sweep.comparison(0).is_exact());
        assert!(!sweep.comparison(10).is_exact());
    }

    #[test]
    fn grid_sweep_through_session_matches_assign() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let m3 = s.registry_mut().var("m3");
        let b1 = s.registry_mut().var("b1");
        let grid = ScenarioSet::grid()
            .axis([m3], (0..5).map(|i| Rat::ONE - Rat::new(i, 20)).collect::<Vec<_>>())
            .axis([b1], [rat("1"), rat("1.1")])
            .build()
            .unwrap();
        let sweep = s.sweep(&grid).unwrap();
        assert_eq!(sweep.len(), 10);
        for i in 0..grid.len() {
            let materialized = grid.scenario_valuation(i, s.base_valuation());
            let single = s.assign(&materialized).unwrap();
            assert_eq!(single.rows, sweep.comparison(i).rows, "scenario {i}");
        }
        // grids feed the timing path too
        let m = s.measure_speedup(&grid, 0, 1).unwrap();
        assert_eq!(m.full_size, 14);
    }

    #[test]
    fn sweep_fold_aggregates_without_materializing() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let m3 = s.registry_mut().var("m3");
        let b1 = s.registry_mut().var("b1");
        let grid = ScenarioSet::grid()
            .axis([m3], (0..5).map(|i| Rat::ONE - Rat::new(i, 20)).collect::<Vec<_>>())
            .axis([b1], [rat("1"), rat("1.1")])
            .build()
            .unwrap();
        let sweep = s.sweep(&grid).unwrap();
        // a max-rel-error fold over the stream equals the matrix statistic
        let max_rel = s
            .sweep_fold(&grid, 0.0f64, |acc: f64, item| {
                item.full
                    .iter()
                    .zip(item.compressed)
                    .map(|(f, c)| {
                        if f.is_zero() {
                            0.0
                        } else {
                            ((*f - *c).abs() / f.abs()).to_f64()
                        }
                    })
                    .fold(acc, f64::max)
            })
            .unwrap();
        assert_eq!(max_rel, sweep.max_rel_error());
        // built-in folds plug in through folds::step (MaxAbsError
        // aggregates in f64, so it matches the exact statistic to rounding)
        let worst = s
            .sweep_fold(&grid, crate::folds::MaxAbsError::new(), crate::folds::step)
            .unwrap();
        assert!((worst.max_rel_error - sweep.max_rel_error()).abs() < 1e-12);
        assert_eq!(worst.argmax_rel, Some(9));
        let impacts = s
            .sweep_fold(
                &grid,
                crate::folds::ArgmaxImpact::against(s.baseline_results().unwrap()),
                crate::folds::step,
            )
            .unwrap()
            .best();
        // the largest move is the deepest discount with b1 still at 1
        // (scenario 8): bumping b1 offsets part of the March discount
        assert_eq!(impacts.map(|(i, _)| i), Some(8));
    }

    #[test]
    fn sweep_f64_matches_exact_sweep_to_rounding() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let m3 = s.registry_mut().var("m3");
        let b1 = s.registry_mut().var("b1");
        let grid = ScenarioSet::grid()
            .axis([m3], (0..5).map(|i| Rat::ONE - Rat::new(i, 20)).collect::<Vec<_>>())
            .axis([b1], [rat("1"), rat("1.1")])
            .build()
            .unwrap();
        let exact = s.sweep(&grid).unwrap();
        let approx = s.sweep_f64(&grid).unwrap();
        assert_eq!(approx.len(), exact.len());
        assert_eq!(approx.num_polys(), exact.num_polys());
        assert_eq!(approx.labels(), exact.labels());
        for i in 0..exact.len() {
            for (e, a) in exact.full_row(i).iter().zip(approx.full_row(i)) {
                assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
            }
            for (e, a) in exact.compressed_row(i).iter().zip(approx.compressed_row(i)) {
                assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
            }
        }
        let div = approx.divergence();
        assert!(div.probed > 0);
        assert!(div.max_rel_divergence < 1e-12, "divergence {div:?}");
        // the lossy grid points show the same error signature in f64
        assert!((approx.max_rel_error() - exact.max_rel_error()).abs() < 1e-9);
        // streaming f64 fold agrees with the materialized f64 sweep
        let (count, div2) = s
            .sweep_fold_f64(&grid, 0usize, |n, item| {
                assert_eq!(item.full, approx.full_row(item.scenario));
                n + 1
            })
            .unwrap();
        assert_eq!(count, grid.len());
        assert_eq!(div2.probed, div.probed);
    }

    #[test]
    fn baseline_results_evaluate_the_base_valuation() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let base = s.baseline_results().unwrap();
        // all-ones base: P1 = 454.1 + 451.15, P2 = 199.8 + 237.65
        assert_eq!(base.len(), 2);
        assert!((base[0] - 905.25).abs() < 1e-9);
        assert!((base[1] - 437.45).abs() < 1e-9);
    }

    #[test]
    fn fold_surfaces_require_compression() {
        let s = CobraSession::from_text(PAPER_POLYS).unwrap();
        let scenario = Valuation::with_default(Rat::ONE);
        assert!(matches!(
            s.sweep_fold(&scenario, (), |(), _| ()),
            Err(CoreError::Session(_))
        ));
        assert!(matches!(
            s.sweep_fold_f64(&scenario, (), |(), _| ()),
            Err(CoreError::Session(_))
        ));
        assert!(matches!(s.sweep_f64(&scenario), Err(CoreError::Session(_))));
        assert!(matches!(s.baseline_results(), Err(CoreError::Session(_))));
    }

    #[test]
    fn assign_rejects_multi_scenario_sets() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let scenarios =
            [Valuation::with_default(Rat::ONE), Valuation::with_default(Rat::ONE)];
        assert!(matches!(s.assign(&scenarios[..]), Err(CoreError::Session(_))));
        assert!(matches!(
            s.assign_meta(&scenarios[..]),
            Err(CoreError::Session(_))
        ));
    }

    #[test]
    fn recompression_reuses_the_full_side_program() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let first = s.abstraction().unwrap().compressed.clone();
        s.baseline_results().unwrap(); // force the lazy engine build
        let full_before: *const _ =
            s.engines(s.compressed.as_ref().unwrap()).full.program();
        s.set_bound(4);
        s.compress().unwrap();
        // engines are lazy now: nothing is compiled until evaluation…
        assert!(s.compressed.as_ref().unwrap().engines.get().is_none());
        s.baseline_results().unwrap();
        let full_after: *const _ =
            s.engines(s.compressed.as_ref().unwrap()).full.program();
        // …and the full side is the same Arc'd program, not a recompilation
        assert_eq!(full_before, full_after);
        assert_ne!(first.total_monomials(), s.abstraction().unwrap().compressed.total_monomials());
    }

    #[test]
    fn batch_speedup_measurement_runs() {
        let mut s = session_with_bound(4);
        s.compress().unwrap();
        let scenarios: Vec<Valuation<Rat>> =
            (0..8).map(|_| Valuation::with_default(Rat::ONE)).collect();
        let m = s.measure_speedup(&scenarios, 1, 3).unwrap();
        assert_eq!(m.full_size, 14);
        assert_eq!(m.compressed_size, 4);
        assert!(m.full_time > Duration::ZERO);
    }

    #[test]
    fn frontier_selection_matches_fresh_compress() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        let frontier = s.compress_frontier().unwrap();
        assert_eq!(frontier.points().first().unwrap().size, 4);
        assert_eq!(frontier.points().last().unwrap().size, 14);
        for bound in 4..=14u64 {
            let selected = s.select_bound(bound).unwrap();
            let mut fresh = session_with_bound(bound);
            let compressed = fresh.compress().unwrap();
            assert_eq!(selected.bound, compressed.bound, "bound {bound}");
            assert_eq!(selected.original_size, compressed.original_size);
            assert_eq!(selected.compressed_size, compressed.compressed_size);
            assert_eq!(selected.original_vars, compressed.original_vars);
            assert_eq!(selected.compressed_vars, compressed.compressed_vars);
            assert_eq!(selected.cuts, compressed.cuts, "bound {bound}");
        }
    }

    #[test]
    fn select_bound_reuses_state_for_the_same_point() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.compress_frontier().unwrap();
        s.select_bound(6).unwrap();
        s.baseline_results().unwrap(); // force engine build
        let engines_before: *const _ = s.engines(s.compressed.as_ref().unwrap());
        // bound 7 selects the same frontier point (sizes 6 and 8 bracket it)
        let report = s.select_bound(7).unwrap();
        assert_eq!(report.bound, 7);
        assert_eq!(report.compressed_size, 6);
        let engines_after: *const _ = s.engines(s.compressed.as_ref().unwrap());
        assert_eq!(engines_before, engines_after, "same point ⇒ no rebuild");
        // a genuinely different point rebuilds
        s.select_bound(14).unwrap();
        assert!(s.compressed.as_ref().unwrap().engines.get().is_none());
    }

    #[test]
    fn frontier_errors_are_session_errors() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        // no tree yet
        assert!(matches!(s.compress_frontier(), Err(CoreError::Session(_))));
        assert!(matches!(s.frontier(), Err(CoreError::Session(_))));
        assert!(matches!(s.select_bound(6), Err(CoreError::Session(_))));
        s.add_tree_text(FIG2_TREE).unwrap();
        s.add_tree_text("Months(m1,m3)").unwrap();
        // forests are not frontier-plannable
        assert!(matches!(s.compress_frontier(), Err(CoreError::Session(_))));
        // single tree: infeasible bounds report the frontier minimum
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.compress_frontier().unwrap();
        assert!(matches!(
            s.select_bound(3),
            Err(CoreError::InfeasibleBound { min_achievable: 4 })
        ));
    }

    #[test]
    fn selected_session_sweeps_and_assigns() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.compress_frontier().unwrap();
        s.select_bound(6).unwrap();
        let m3 = s.registry_mut().var("m3");
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        let cmp = s.assign(&scenario).unwrap();
        assert!(cmp.is_exact());
        assert_eq!(cmp.rows[0].full, rat("454.1") + rat("0.8") * rat("451.15"));
        // re-selection under a different bound changes the outcome
        s.select_bound(4).unwrap();
        assert_eq!(s.meta_summary().unwrap().len(), 1); // {Plans}
    }

    #[test]
    fn multi_tree_session() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.add_tree_text("Months(m1,m3)").unwrap();
        s.set_bound(2);
        let report = s.compress().unwrap();
        assert_eq!(report.compressed_size, 2);
        assert_eq!(report.cuts.len(), 2);
    }

    #[test]
    fn forest_frontier_selection_matches_one_shot_compress() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        // needs a forest
        assert!(matches!(
            s.compress_forest_frontier(),
            Err(CoreError::Session(_))
        ));
        s.add_tree_text("Months(m1,m3)").unwrap();
        let sizes: Vec<u64> = s
            .compress_forest_frontier()
            .unwrap()
            .points()
            .iter()
            .map(|p| p.size)
            .collect();
        assert!(!sizes.is_empty());
        let min_size = s.forest_frontier().unwrap().min_size();
        assert!(matches!(
            s.select_bound(min_size - 1),
            Err(CoreError::InfeasibleBound { min_achievable }) if min_achievable == min_size
        ));
        for &bound in &sizes {
            let selected = s.select_bound(bound).unwrap();
            // the one-shot path must agree with the staircase selection
            let mut one_shot = CobraSession::from_text(PAPER_POLYS).unwrap();
            one_shot.add_tree_text(FIG2_TREE).unwrap();
            one_shot.add_tree_text("Months(m1,m3)").unwrap();
            one_shot.set_bound(bound);
            let compressed = one_shot.compress().unwrap();
            assert_eq!(selected.compressed_size, compressed.compressed_size);
            assert_eq!(selected.compressed_vars, compressed.compressed_vars);
            assert_eq!(selected.cuts.len(), 2);
        }
        // re-selecting the current point is a no-op
        let last = *sizes.last().unwrap();
        s.select_bound(last).unwrap();
        let before = s.compressed.as_ref().unwrap() as *const Compressed;
        s.select_bound(last).unwrap();
        assert!(std::ptr::eq(
            before,
            s.compressed.as_ref().unwrap() as *const Compressed
        ));
        // selected sessions sweep and assign like any other
        let m3 = s.registry_mut().var("m3");
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        assert!(s.assign(&scenario).unwrap().is_exact());
    }

    #[test]
    fn warm_reselection_is_bit_identical_and_skips_recompilation() {
        let mut s = session_with_bound(14);
        s.compress_frontier().unwrap();
        let m3 = s.registry_mut().var("m3");
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));

        s.select_bound(6).unwrap();
        let first = s.assign(&scenario).unwrap();
        // hop away (engines get built there too), then hop back
        s.select_bound(4).unwrap();
        let _ = s.assign(&scenario).unwrap();
        s.select_bound(6).unwrap();
        // warm re-selection pre-installed the stashed engines
        assert!(s.compressed.as_ref().unwrap().engines.get().is_some());
        let again = s.assign(&scenario).unwrap();
        assert_eq!(first.rows[0].full, again.rows[0].full);
        assert_eq!(first.rows[0].compressed, again.rows[0].compressed);
    }

    #[test]
    fn recompression_after_bound_change() {
        let mut s = session_with_bound(14);
        let r1 = s.compress().unwrap();
        assert_eq!(r1.compressed_size, 14); // leaf cut, no loss
        s.set_bound(4);
        let r2 = s.compress().unwrap();
        assert_eq!(r2.compressed_size, 4);
    }

    use cobra_provenance::Monomial;

    fn planned_paper_session() -> CobraSession {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.compress_frontier().unwrap();
        s
    }

    /// Rebuilds a session from scratch over `s`'s *current* polynomials —
    /// the reference every delta-patched session must match bit for bit.
    fn fresh_rebuild(s: &CobraSession, bound: u64) -> CobraSession {
        let mut fresh = CobraSession::new(s.registry().clone(), s.polynomials().clone());
        fresh.add_tree_text(FIG2_TREE).unwrap();
        fresh.compress_frontier().unwrap();
        fresh.select_bound(bound).unwrap();
        fresh
    }

    #[test]
    fn user_vars_interned_after_planning_never_alias_meta_vars() {
        // Regression: a variable interned through `registry_mut` *after*
        // planning, sharing a cut node's name, used to become that node's
        // meta-variable — so sweeping over the user's variable silently
        // perturbed the compressed side only and returned wrong rows.
        let mut s = planned_paper_session();
        let user_var = s.registry_mut().var("Business");
        s.select_bound(6).unwrap();
        let metas: Vec<Var> = s
            .compressed
            .as_ref()
            .unwrap()
            .meta_vars
            .iter()
            .map(|m| m.var)
            .collect();
        assert!(!metas.contains(&user_var), "meta-variable aliases a user variable");
        // Binding the user's variable moves neither side: identical to a
        // session that never interned it.
        let scenario = Valuation::with_default(Rat::ONE).bind(user_var, rat("17"));
        let cmp = s.assign(&scenario).unwrap();
        let mut clean = planned_paper_session();
        clean.select_bound(6).unwrap();
        let clean_cmp = clean.assign(Valuation::with_default(Rat::ONE)).unwrap();
        assert_eq!(cmp.rows, clean_cmp.rows);
    }

    #[test]
    fn meta_vars_stay_addressable_by_name_after_selection() {
        // The fix must not break name-addressing: interning a cut node's
        // name *after* selection resolves to the meta-variable itself.
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        let meta = s.registry_mut().var("Business");
        assert!(s
            .compressed
            .as_ref()
            .unwrap()
            .meta_vars
            .iter()
            .any(|m| m.var == meta));
        // …and assign_meta through that name stays internally consistent.
        let scenario = Valuation::new().bind(meta, rat("1.1"));
        assert!(s.assign_meta(&scenario).unwrap().is_exact());
    }

    #[test]
    fn reselection_with_reserved_name_keeps_meta_identities_stable() {
        // With "Business" reserved (user-interned), every selection of the
        // same frontier point must reuse the same fresh-named
        // meta-variable — otherwise warm engines compiled against the
        // first identities could never be rebound.
        let mut s = planned_paper_session();
        let _user = s.registry_mut().var("Business");
        s.select_bound(6).unwrap();
        let metas1: Vec<Var> = s.compressed.as_ref().unwrap().meta_vars.iter().map(|m| m.var).collect();
        let m3 = s.registry_mut().var("m3");
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        let first = s.assign(&scenario).unwrap();
        s.select_bound(4).unwrap();
        let _ = s.assign(&scenario).unwrap();
        s.select_bound(6).unwrap();
        let metas2: Vec<Var> = s.compressed.as_ref().unwrap().meta_vars.iter().map(|m| m.var).collect();
        assert_eq!(metas1, metas2);
        // the warm path reinstalled the stashed engines and answers match
        assert!(s.compressed.as_ref().unwrap().engines.get().is_some());
        assert_eq!(first.rows, s.assign(&scenario).unwrap().rows);
    }

    #[test]
    fn coeff_only_delta_patches_in_place_and_matches_fresh_rebuild() {
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        s.baseline_results().unwrap(); // force engines so the patch path runs
        let (p1v, m3) = {
            let reg = s.registry_mut();
            (reg.var("p1"), reg.var("m3"))
        };
        let idx = s.polynomials().index_of("P1").unwrap();
        let mut delta = PolyDelta::new();
        delta.set(idx, Monomial::from_pairs([(p1v, 1), (m3, 1)]), rat("250"));
        let report = s.apply_delta(&delta).unwrap();
        assert!(!report.is_structural());
        // selection metadata survived; only compiled caches were dropped
        let state = s.compressed.as_ref().unwrap();
        assert!(state.engines.get().is_none());
        assert_eq!(state.compressed_size, 6);
        assert!(s.frontier.as_ref().unwrap().selected.is_some());
        let fresh = fresh_rebuild(&s, 6);
        let b1 = s.registry_mut().var("b1");
        let scenarios: Vec<Valuation<Rat>> = (0..8)
            .map(|i: i128| {
                Valuation::with_default(Rat::ONE)
                    .bind(m3, Rat::ONE - Rat::new(i, 100))
                    .bind(b1, Rat::ONE + Rat::new(i, 50))
            })
            .collect();
        let patched = s.sweep(&scenarios).unwrap();
        let rebuilt = fresh.sweep(&scenarios).unwrap();
        for i in 0..scenarios.len() {
            assert_eq!(patched.comparison(i).rows, rebuilt.comparison(i).rows, "scenario {i}");
        }
    }

    #[test]
    fn structural_delta_replans_incrementally_and_matches_fresh_rebuild() {
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        let (b1, e, m1, m9) = {
            let reg = s.registry_mut();
            (reg.var("b1"), reg.var("e"), reg.var("m1"), reg.var("m9"))
        };
        let idx = s.polynomials().index_of("P2").unwrap();
        let mut delta = PolyDelta::new();
        // a September tuple appears (brand-new month variable)…
        delta.add(idx, Monomial::from_pairs([(b1, 1), (m9, 1)]), rat("3"));
        // …and a January tuple is deleted upstream
        delta.remove(idx, Monomial::from_pairs([(e, 1), (m1, 1)]));
        let report = s.apply_delta(&delta).unwrap();
        assert!(report.is_structural());
        // the session re-selected its bound against the refreshed frontier
        assert!(s.compressed.is_some());
        let fresh = fresh_rebuild(&s, 6);
        let curve: Vec<(usize, u64)> = s
            .frontier()
            .unwrap()
            .points()
            .iter()
            .map(|p| (p.variables, p.size))
            .collect();
        let fresh_curve: Vec<(usize, u64)> = fresh
            .frontier()
            .unwrap()
            .points()
            .iter()
            .map(|p| (p.variables, p.size))
            .collect();
        assert_eq!(curve, fresh_curve);
        let m3 = s.registry_mut().var("m3");
        let scenarios: Vec<Valuation<Rat>> = (0..8)
            .map(|i: i128| {
                Valuation::with_default(Rat::ONE)
                    .bind(m3, Rat::ONE - Rat::new(i, 100))
                    .bind(b1, Rat::ONE + Rat::new(i, 50))
                    .bind(m9, Rat::ONE + Rat::new(i, 25))
            })
            .collect();
        let patched = s.sweep(&scenarios).unwrap();
        let rebuilt = fresh.sweep(&scenarios).unwrap();
        for i in 0..scenarios.len() {
            assert_eq!(patched.comparison(i).rows, rebuilt.comparison(i).rows, "scenario {i}");
        }
    }

    #[test]
    fn one_shot_compress_state_recompresses_after_delta() {
        let mut s = session_with_bound(6);
        s.compress().unwrap();
        let (p1v, m3) = {
            let reg = s.registry_mut();
            (reg.var("p1"), reg.var("m3"))
        };
        let idx = s.polynomials().index_of("P1").unwrap();
        let mut delta = PolyDelta::new();
        delta.set(idx, Monomial::from_pairs([(p1v, 1), (m3, 1)]), rat("250"));
        s.apply_delta(&delta).unwrap();
        // the one-shot state was re-derived against the updated set
        let mut fresh = CobraSession::new(s.registry().clone(), s.polynomials().clone());
        fresh.add_tree_text(FIG2_TREE).unwrap();
        fresh.set_bound(6);
        fresh.compress().unwrap();
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        assert_eq!(
            s.assign(&scenario).unwrap().rows,
            fresh.assign(&scenario).unwrap().rows
        );
    }

    #[test]
    fn invalid_delta_is_rejected_atomically() {
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        let before = s.polynomials().clone();
        let v = s.registry_mut().var("p1");
        let mut delta = PolyDelta::new();
        delta.add(0, Monomial::var(v), rat("1"));
        delta.add(99, Monomial::var(v), rat("1")); // no such polynomial
        assert!(matches!(s.apply_delta(&delta), Err(CoreError::Delta(_))));
        assert_eq!(
            s.polynomials().total_monomials(),
            before.total_monomials()
        );
        // the selection is untouched and the session still answers
        assert!(s.assign(Valuation::with_default(Rat::ONE)).unwrap().is_exact());
    }

    #[test]
    fn exact_overflow_is_typed_and_survivable() {
        // 2^126: one addition away from leaving i128.
        const BIG: &str = "85070591730234615865843651857942052864";
        let mut s =
            CobraSession::from_text(&format!("P = {BIG}*a + {BIG}*b")).unwrap();
        s.add_tree_text("T(a,b)").unwrap();
        s.set_bound(2);
        s.compress().unwrap();
        let all_ones = [Valuation::with_default(Rat::ONE)];
        // the sequential exact surfaces surface the typed error…
        assert!(matches!(
            s.sweep(&all_ones[..]),
            Err(CoreError::ExactOverflow(_))
        ));
        assert!(matches!(
            s.sweep_fold(&all_ones[..], (), |(), _| ()),
            Err(CoreError::ExactOverflow(_))
        ));
        // …and so does the fanned-out engine (worker panic remapped)
        let unlimited = SweepBudget::unlimited();
        let worst = crate::folds::MaxAbsError::new;
        assert!(matches!(
            s.fold_par::<Exact, _>(&all_ones[..], &unlimited, worst()),
            Err(CoreError::ExactOverflow(_))
        ));
        // the approximate precision runs the same exact arithmetic in its
        // divergence probes: same typed error, ordered and fanned out
        assert!(matches!(
            s.sweep_fold_f64(&all_ones[..], (), |(), _| ()),
            Err(CoreError::ExactOverflow(_))
        ));
        assert!(matches!(
            s.sweep_fold_f64_par(&all_ones[..], worst()),
            Err(CoreError::ExactOverflow(_))
        ));
        // the certified precision runs no exact arithmetic at all
        assert!(s
            .sweep_fold_f64_bounded(&all_ones[..], unlimited.clone(), (), |(), _| ())
            .is_ok());
        assert!(s.fold_par::<Certified, _>(&all_ones[..], &unlimited, worst()).is_ok());
        // the session stays fully usable on non-overflowing scenarios
        let a = s.registry_mut().var("a");
        let safe = Valuation::with_default(Rat::ONE).bind(a, Rat::int(0));
        assert!(s.assign(&safe).unwrap().is_exact());
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
            state.dag_engines.get().unwrap().compressed.clone()
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
    fn forest_staircase_reuses_warm_selections() {
        let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
        s.add_tree_text(FIG2_TREE).unwrap();
        s.add_tree_text("Months(m1,m3)").unwrap();
        let sizes: Vec<u64> = s
            .compress_forest_frontier()
            .unwrap()
            .points()
            .iter()
            .map(|p| p.size)
            .collect();
        assert!(sizes.len() >= 2, "staircase too small to hop");
        let (lo, hi) = (sizes[0], *sizes.last().unwrap());
        let all_ones = Valuation::with_default(Rat::ONE);

        let first = s.select_bound(hi).unwrap();
        let first_rows = s.assign(&all_ones).unwrap().rows;
        s.select_bound(lo).unwrap();
        // the outgoing selection was stashed, not dropped
        assert_eq!(s.info().warm_engines, 1);
        let again = s.select_bound(hi).unwrap();
        // hopping back reinstalls the stash: identical report and engines
        assert_eq!(format!("{first:?}"), format!("{again:?}"));
        assert_eq!(s.assign(&all_ones).unwrap().rows, first_rows);
        // the low point is now the stashed one
        assert_eq!(s.info().warm_engines, 1);
    }
}
