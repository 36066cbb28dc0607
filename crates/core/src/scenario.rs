//! Batched scenario sweeps: many hypotheticals in one compiled pass.
//!
//! The interactive loop the paper demonstrates — "what if March prices
//! dropped 20%? what if business plans rose 10%? …" — evaluates the same
//! provenance under many valuations. Instead of re-walking the term lists
//! per scenario, this module compiles the full and compressed polynomial
//! sets once (via [`cobra_provenance::compile`]) and evaluates whole
//! scenario batches through the same engine, so full-vs-compressed numbers
//! are produced under identical evaluation machinery.
//!
//! Scenario *families* arrive as [`ScenarioSet`]s. Grid- and
//! perturbation-shaped sets are bound **allocation-free**: the
//! [`PairBinder`] caches the base scenario row for both programs once,
//! then each scenario is a row `memcpy` plus one write per override —
//! meta-variable group averages are maintained incrementally, so a
//! 10⁶-scenario grid streams through the lane-blocked kernel without ever
//! materializing a `Vec<Valuation>`.

use crate::assign::{self, ResultComparison, ResultRow, SpeedupMeasurement};
use crate::budget::{StopReason, SweepBudget, SweepOutcome};
use crate::cut::MetaVar;
use crate::error::{CoreError, Result};
use crate::folds::MergeFold;
use crate::scenario_set::{base_value, for_each_grid_digit, ScenarioSet};
use crate::session::CobraSession;
use cobra_provenance::compile::LANES;
use cobra_provenance::{
    BatchEvaluator, Coeff, EvalProgram, FixedScratch, LaneScratch, PolySet, Valuation, Var,
};
use cobra_util::kernel::{self, F64Kernel};
use cobra_util::timing::time_best_of;
use cobra_util::{faults, par, CancelToken, FxHashMap, FxHashSet, Rat};
use std::panic::resume_unwind;

/// Scenarios bound and evaluated per streamed block: a handful of lane
/// blocks, so peak transient memory stays O(block × row) regardless of the
/// set's cardinality while the batch kernel still gets full lanes.
const STREAM_BLOCK: usize = 16 * LANES;

/// Scenarios per streamed block, capped so the transient buffers stay
/// bounded regardless of program shape: the result buffers
/// (`block × num_polys` values per side) around 64k values, and the
/// scenario-row buffers (`block × num_locals` values per side) around a
/// million values even for 10⁵+-variable programs. Whenever the cap
/// allows it the block is a whole number of `f64` lane groups, so the
/// lane kernel sees no ragged tail inside a sweep.
fn stream_block(num_polys: usize, num_locals: usize) -> usize {
    let by_results = (1usize << 16) / num_polys.max(1);
    let by_rows = (1usize << 20) / num_locals.max(1);
    let block = by_results.min(by_rows).min(STREAM_BLOCK);
    if block >= LANES {
        (block / LANES) * LANES
    } else if block * 2 >= LANES {
        // A ragged block starves the SIMD lane kernels (their register
        // tiles cover only the leading multiple of the tile width, the
        // rest runs lane-at-a-time): at e.g. 1055 polynomials the result
        // cap would yield 62-lane blocks that measure *slower* under
        // AVX2 than the portable kernel. Within 2× of the memory caps,
        // rounding up to one full lane block is the better trade.
        LANES
    } else {
        block.max(1)
    }
}

/// Exact-vs-approximate probe scenarios per `f64` fold-sweep: evenly
/// spaced grid points re-evaluated on the exact engines to measure the
/// divergence of the `f64` fast path (see [`F64Divergence`]).
pub const F64_PROBES: usize = 16;

/// One streamed scenario handed to a fold: the scenario's index in the
/// set's enumeration order plus its full-side and compressed-side result
/// rows (one value per polynomial, in label order). The rows borrow the
/// engine's block buffers — copy out whatever the fold needs to keep.
#[derive(Debug)]
pub struct FoldItem<'a, C> {
    /// Index of the scenario in the [`ScenarioSet`] enumeration order.
    pub scenario: usize,
    /// Full-provenance results, in label order.
    pub full: &'a [C],
    /// Compressed-provenance results, in label order.
    pub compressed: &'a [C],
}

// Manual impls: the derive would demand `C: Copy`, but the fields are
// shared slices — items are freely copyable for any coefficient type
// (tuple folds hand the same item to each component).
impl<C> Clone for FoldItem<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for FoldItem<'_, C> {}

/// Measured divergence of an approximate (`f64`) fold-sweep from the
/// exact path: up to [`F64_PROBES`] evenly spaced scenarios are re-bound
/// and re-evaluated on the exact `Rat` engines, and the largest relative
/// deviation over both sides and all result tuples is recorded. This is
/// an *empirical spot check* of floating-point rounding (coefficients,
/// binding and evaluation all round), not a proven worst-case bound —
/// for SPJ-style provenance with well-scaled coefficients it sits at the
/// unit-roundoff scale (≈1e-16; `tests/fold_sweep.rs` and
/// `tests/engine_diff.rs` hold it under 1e-12 on random programs).
#[derive(Clone, Copy, Debug, Default)]
pub struct F64Divergence {
    /// Number of scenarios re-evaluated exactly.
    pub probed: usize,
    /// Largest relative deviation `|approx − exact| / |exact|` observed
    /// over the probes (both sides, every result tuple); 0 when nothing
    /// diverged, ∞ if the exact value was zero but the float was not.
    pub max_rel_divergence: f64,
}

impl F64Divergence {
    fn record(&mut self, exact: &[Rat], approx: &[f64]) {
        for (e, a) in exact.iter().zip(approx) {
            let d = assign::rel_error_f64(e.to_f64(), *a);
            self.max_rel_divergence = self.max_rel_divergence.max(d);
        }
    }

    /// Combines disjoint probe sets (parallel workers probe the scenarios
    /// falling in their own spans): counts add, maxima max — commutative,
    /// so the combined record is independent of the worker partition.
    fn merge(&mut self, other: F64Divergence) {
        self.probed += other.probed;
        self.max_rel_divergence = self.max_rel_divergence.max(other.max_rel_divergence);
    }
}

/// The evenly spaced probe indices of an `n`-scenario `f64` sweep:
/// up to [`F64_PROBES`] indices, deduplicated (`n` may be smaller).
fn f64_probe_indices(n: usize) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut p: Vec<usize> = (0..F64_PROBES.min(n))
        .map(|k| k * (n - 1) / (F64_PROBES.min(n) - 1).max(1))
        .collect();
    p.dedup();
    p
}

/// How far one parallel worker got through its contiguous scenario span
/// before completing it or hitting the budget — the bookkeeping that lets
/// interrupted parallel sweeps report an exact prefix.
#[derive(Clone, Copy, Debug, Default)]
struct SpanProgress {
    start: usize,
    /// First scenario of the span **not** folded (== `end` when the span
    /// completed).
    done: usize,
    end: usize,
    reason: Option<StopReason>,
}

/// A **sound** per-sweep rounding-error certificate for the `f64` fast
/// path, computed by the Higham-style shadow fold of the [`Certified`]
/// precision: alongside each block, the absolute-value shadow programs
/// ([`ErrorShadow`]) are evaluated on
/// the elementwise magnitudes of the same scenario rows, and
/// `γ_k · Σ|c|Π|x|^e` bounds each result's rounding error a priori.
///
/// The contract: for every swept scenario and polynomial, the true value
/// of the compiled polynomial **at the bound `f64` rows** differs from
/// the kernel's computed value by at most the recorded bound (coefficient
/// `Rat → f64` conversion included). Rounding suffered while *binding*
/// scenario rows is outside the certificate — the 16-sample
/// [`F64Divergence`] probe remains as the end-to-end empirical
/// complement. Unlike that probe, this bound covers **every** scenario,
/// not a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct F64ErrorBound {
    /// Scenarios covered by the certificate.
    pub scenarios: usize,
    /// Largest absolute rounding-error bound over all scenarios, result
    /// tuples and both sides.
    pub max_abs_bound: f64,
    /// Largest *relative* bound (`bound / |computed|`; 0 when both are
    /// zero, ∞ when a bound is positive at a zero computed value).
    pub max_rel_bound: f64,
    /// Earliest scenario index attaining `max_rel_bound`.
    pub argmax_rel: Option<usize>,
}

impl F64ErrorBound {
    fn record_scenario(&mut self, scenario: usize, abs_bound: f64, rel_bound: f64) {
        self.scenarios += 1;
        self.max_abs_bound = self.max_abs_bound.max(abs_bound);
        if self.argmax_rel.is_none() || rel_bound > self.max_rel_bound {
            self.max_rel_bound = rel_bound;
            self.argmax_rel = Some(scenario);
        }
    }

    /// Combines records over disjoint ascending scenario spans (`other`
    /// covers later scenarios): counts add, maxima max, and ties keep the
    /// earlier argmax — so the merged record is identical to sequential
    /// recording.
    fn merge(&mut self, other: F64ErrorBound) {
        self.scenarios += other.scenarios;
        self.max_abs_bound = self.max_abs_bound.max(other.max_abs_bound);
        if other.argmax_rel.is_some()
            && (self.argmax_rel.is_none() || other.max_rel_bound > self.max_rel_bound)
        {
            self.max_rel_bound = other.max_rel_bound;
            self.argmax_rel = other.argmax_rel;
        }
    }
}

/// The effective per-polynomial bound factor: `γ_k = k·u/(1−k·u)`
/// (Higham's a-priori constant, `u = 2⁻⁵³`), inflated once more by
/// `1/(1−γ_k)` because the Σ|c|Π|x| numerator is itself *computed* in
/// `f64` and may under-report by a `(1−γ_k)` factor. Saturates to ∞ when
/// `k·u` approaches 1 (astronomically long polynomials) — the bound is
/// then honest about knowing nothing.
fn gamma_eff(k: u32) -> f64 {
    let u = f64::EPSILON / 2.0;
    let ku = k as f64 * u;
    if ku >= 1.0 {
        return f64::INFINITY;
    }
    let g = ku / (1.0 - ku);
    if g >= 1.0 {
        f64::INFINITY
    } else {
        g / (1.0 - g)
    }
}

/// The Higham shadow of a full/compressed `f64` engine pair: the
/// absolute-coefficient twin programs
/// ([`EvalProgram::to_abs_program`]) plus per-polynomial `γ_k` factors
/// derived from [`EvalProgram::rounding_op_counts`]. Build it once per
/// compression (the session caches it) and pass it as part of
/// [`Certified`]'s engines; evaluating the shadow
/// roughly doubles the per-scenario kernel cost.
#[derive(Clone, Debug)]
pub struct ErrorShadow {
    full_abs: BatchEvaluator<f64>,
    comp_abs: BatchEvaluator<f64>,
    full_gamma: Vec<f64>,
    comp_gamma: Vec<f64>,
}

impl ErrorShadow {
    /// Builds the shadow for the `(full, compressed)` `f64` engines of a
    /// comparison (the same pair [`Approx`] and [`Certified`] evaluate
    /// through).
    pub fn new(full64: &BatchEvaluator<f64>, comp64: &BatchEvaluator<f64>) -> ErrorShadow {
        let gammas = |prog: &EvalProgram<f64>| -> Vec<f64> {
            prog.rounding_op_counts().into_iter().map(gamma_eff).collect()
        };
        ErrorShadow {
            full_abs: BatchEvaluator::new(full64.program().to_abs_program()),
            comp_abs: BatchEvaluator::new(comp64.program().to_abs_program()),
            full_gamma: gammas(full64.program()),
            comp_gamma: gammas(comp64.program()),
        }
    }

    /// Records one scenario's certificate given both sides' computed
    /// values and the abs-shadow values (all in label order).
    fn record(
        &self,
        bound: &mut F64ErrorBound,
        scenario: usize,
        full: &[f64],
        comp: &[f64],
        full_abs: &[f64],
        comp_abs: &[f64],
    ) {
        let mut abs_max = 0.0f64;
        let mut rel_max = 0.0f64;
        let mut side = |vals: &[f64], abs_vals: &[f64], gamma: &[f64]| {
            for ((&v, &a), &g) in vals.iter().zip(abs_vals).zip(gamma) {
                let b = g * a;
                abs_max = abs_max.max(b);
                let rel = if b == 0.0 {
                    0.0
                } else if v == 0.0 {
                    f64::INFINITY
                } else {
                    b / v.abs()
                };
                rel_max = rel_max.max(rel);
            }
        };
        side(full, full_abs, &self.full_gamma);
        side(comp, comp_abs, &self.comp_gamma);
        bound.record_scenario(scenario, abs_max, rel_max);
    }
}

/// The full-vs-compressed engines for one compression outcome, compiled
/// once and reusable across any number of sweeps. Cloning shares the
/// underlying programs (see [`BatchEvaluator`]), so a session-invariant
/// full-side program can be cached and paired with each new compression.
#[derive(Clone, Debug)]
pub struct CompiledComparison {
    /// Batched evaluator over the full provenance (exact coefficients).
    pub full: BatchEvaluator<Rat>,
    /// Batched evaluator over the compressed provenance.
    pub compressed: BatchEvaluator<Rat>,
    /// Optional exact-value twins the `f64` divergence probes evaluate
    /// instead of `full`/`compressed`. A shared-subterm DAG program
    /// (`num_slots > 0`) never lowers to the fixed-point exact kernel,
    /// so probing it directly pays a plain `Rat` walk per probe — enough
    /// to dwarf the whole `f64` sweep at provenance scale. Its flat twin
    /// produces bit-identical exact values (the DAG rewrite is exact in
    /// the ring) while staying fixed-point eligible, so DAG-mode sessions
    /// arm the flat pair here and the divergence record is unchanged.
    probe: Option<Box<(BatchEvaluator<Rat>, BatchEvaluator<Rat>)>>,
}

impl CompiledComparison {
    /// Compiles both sides.
    pub fn compile(full: &PolySet<Rat>, compressed: &PolySet<Rat>) -> CompiledComparison {
        CompiledComparison {
            full: BatchEvaluator::compile(full),
            compressed: BatchEvaluator::compile(compressed),
            probe: None,
        }
    }

    /// Pairs two already-compiled engines (e.g. a cached full-side program
    /// with a freshly compressed side).
    pub fn from_engines(
        full: BatchEvaluator<Rat>,
        compressed: BatchEvaluator<Rat>,
    ) -> CompiledComparison {
        CompiledComparison {
            full,
            compressed,
            probe: None,
        }
    }

    /// Arms exact probe twins for the `f64` divergence probes: a pair of
    /// engines whose exact values are bit-identical to `full`/`compressed`
    /// but which remain eligible for the fixed-point exact kernel (e.g.
    /// the flat originals of a DAG rewrite). The twins must share each
    /// side's polynomial count and local layout — probes bind the same
    /// scenario rows.
    ///
    /// # Panics
    /// Panics when a twin's shape diverges from the engine it probes for.
    #[must_use]
    pub fn with_probe_twins(
        mut self,
        full: BatchEvaluator<Rat>,
        compressed: BatchEvaluator<Rat>,
    ) -> CompiledComparison {
        self.assert_mirrored_by("probe twin", full.program(), compressed.program());
        self.probe = Some(Box::new((full, compressed)));
        self
    }

    /// The exact programs the divergence probes evaluate: the armed probe
    /// twins, or the engines themselves when none are armed.
    fn probe_programs(&self) -> (&EvalProgram<Rat>, &EvalProgram<Rat>) {
        match &self.probe {
            Some(twins) => (twins.0.program(), twins.1.program()),
            None => (self.full.program(), self.compressed.program()),
        }
    }

    /// Evaluates every scenario of `set` on both sides and materializes
    /// the result matrix: [`fold`](Self::fold)`::<Exact>` with an
    /// appending accumulator, so the only O(scenarios) memory is the
    /// returned matrix itself. Scenarios are leaf-level, merged over
    /// `base` and projected onto `metas` by group averaging, exactly like
    /// [`CobraSession::assign`](crate::session::CobraSession::assign).
    ///
    /// # Panics
    /// Same conditions as [`fold`](Self::fold).
    pub fn sweep(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
    ) -> ScenarioSweep {
        let n = set.len();
        let np = self.full.program().num_polys();
        let init = (
            Vec::with_capacity(n * np),
            Vec::with_capacity(n * np),
        );
        let append = |(mut f, mut c): (Vec<Rat>, Vec<Rat>), item: FoldItem<'_, Rat>| {
            f.extend_from_slice(item.full);
            c.extend_from_slice(item.compressed);
            (f, c)
        };
        let (outcome, ()) = self
            .fold::<Exact, _>((), (metas, base), set, &SweepBudget::unlimited(), init, append)
            .expect("unlimited budgets cannot fail");
        let (full, compressed) = outcome.into_fold();
        ScenarioSweep {
            labels: self.full.program().labels().to_vec(),
            num_scenarios: n,
            full,
            compressed,
        }
    }

    /// The **ordered** fold entry: streams the scenarios of `set` through
    /// both sides in precision `P` and folds each scenario's result rows
    /// into an accumulator, on the calling thread, in enumeration order.
    /// Scenarios are bound in blocks by the allocation-free
    /// [`PairBinder`] (merged over `base`, projected onto `metas`), each
    /// block is evaluated through the batch kernels (which fan a block
    /// across cores), and `f` receives every scenario as a [`FoldItem`]
    /// borrowing the reused block buffers; peak transient memory is
    /// O(block × row) regardless of the set's cardinality.
    ///
    /// `engines` is what `P` evaluates through besides this exact pair,
    /// and the sweep returns `P::Report` next to the fold — see
    /// [`Precision`]. `budget` is polled at **block granularity**
    /// (deadline, token) and its scenario cap deterministically clamps
    /// the swept range, so an exhausted budget returns
    /// [`SweepOutcome::Partial`] — the exact fold over the scenario
    /// prefix completed, never a torn state, with the report covering
    /// exactly that prefix. [`SweepBudget::unlimited`] runs to completion
    /// at one branch per ~10³-scenario block.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`] when the budget is statically
    /// unsatisfiable (scenario cap 0 over a non-empty set).
    ///
    /// # Panics
    /// Panics if the two programs' polynomial counts differ, if the
    /// shapes of `engines` do not mirror the exact programs, under the
    /// [`PairBinder`] totality rules (grids need a total `base`), or when
    /// exact arithmetic overflows `i128` (the session entries turn that
    /// into [`CoreError::ExactOverflow`]).
    pub fn fold<'a, P: Precision, A>(
        &'a self,
        engines: P::Engines<'a>,
        (metas, base): (&'a [MetaVar], &'a Valuation<Rat>),
        set: &'a ScenarioSet,
        budget: &'a SweepBudget,
        init: A,
        f: impl FnMut(A, FoldItem<'_, P::Num>) -> A,
    ) -> Result<(SweepOutcome<A>, P::Report)> {
        budget.validate(set.len())?;
        self.assert_aligned();
        P::check(self, engines);
        let plan = driver::Plan::<P>::new(self, engines, (metas, base), set, budget);
        Ok(driver::ordered(plan, init, f))
    }

    /// The **mergeable** fold entry: [`fold`](Self::fold) with binding
    /// and evaluation fanned across cores. The scenario range is split
    /// into contiguous per-worker spans
    /// ([`cobra_util::par::try_par_owned_spans`]); each worker owns a
    /// [`PairBinder`], block buffers, kernel scratch and a replica of
    /// `fold` ([`MergeFold::init`]), polls `budget` between its blocks,
    /// and the partial accumulators and reports merge back in ascending
    /// span order ([`MergeFold::merge`]).
    ///
    /// Fold state and `P::Report` are **bit-identical** to
    /// [`fold`](Self::fold)`(…, fold, folds::step)` under the same budget
    /// at any thread count (`COBRA_THREADS` or
    /// [`cobra_util::par::with_threads`]; one thread runs inline),
    /// [`SweepOutcome::Partial`] prefixes included: workers accept
    /// disjoint ascending spans, evaluation is per-scenario
    /// deterministic, and the [`MergeFold`] laws make the ordered merge
    /// equal to one sequential pass.
    ///
    /// # Errors
    /// [`CoreError::InfeasibleBudget`] for statically unsatisfiable
    /// budgets; [`CoreError::WorkerPanicked`] when a worker panicked — it
    /// is caught at its span boundary, its siblings are cancelled, and
    /// the process and the engines stay usable.
    ///
    /// # Panics
    /// Same shape and binder conditions as [`fold`](Self::fold).
    pub fn fold_par<'a, P: Precision, F: MergeFold + Send + Sync>(
        &'a self,
        engines: P::Engines<'a>,
        (metas, base): (&'a [MetaVar], &'a Valuation<Rat>),
        set: &'a ScenarioSet,
        budget: &'a SweepBudget,
        fold: F,
    ) -> Result<(SweepOutcome<F>, P::Report)> {
        budget.validate(set.len())?;
        self.assert_aligned();
        P::check(self, engines);
        let plan = driver::Plan::<P>::new(self, engines, (metas, base), set, budget);
        driver::spans(&plan, fold)
            .map_err(|payload| CoreError::WorkerPanicked(par::panic_message(&payload)))
    }

    /// Panics unless both sides answer the same result tuples.
    fn assert_aligned(&self) {
        assert_eq!(
            self.full.program().num_polys(),
            self.compressed.program().num_polys(),
            "polynomial sets must align"
        );
    }

    /// Panics unless the `(full, compressed)` programs `what` names
    /// mirror this comparison's, output for output and local for local —
    /// the condition for evaluating them on the scenario rows bound for
    /// this comparison.
    fn assert_mirrored_by<C: Coeff>(
        &self,
        what: &str,
        full: &EvalProgram<C>,
        compressed: &EvalProgram<C>,
    ) {
        let sides = [
            ("full", self.full.program(), full),
            ("compressed", self.compressed.program(), compressed),
        ];
        for (side, exact, twin) in sides {
            assert_eq!(
                twin.num_polys(),
                exact.num_polys(),
                "{what} must mirror the {side} program's outputs"
            );
            assert_eq!(
                twin.num_locals(),
                exact.num_locals(),
                "{what} must share the {side} program's local layout"
            );
        }
    }

    /// Projects and binds every scenario of `set` into materialized
    /// full/compressed row pairs, mapping each value through `map` — the
    /// shared project-and-bind loop behind both the exact sweep and the
    /// `f64` timing path
    /// ([`CobraSession::measure_speedup`](crate::session::CobraSession::measure_speedup)).
    /// `map` is typically the identity (exact rows) or `Rat::to_f64`
    /// (timing rows; the `f64` shadow programs share this program's
    /// variable numbering, so the rows bind directly).
    ///
    /// Unlike [`sweep`](Self::sweep), this deliberately materializes
    /// O(set × locals) row memory: timing paths bind once up front so the
    /// measured runs cover evaluation only. Use `sweep` for result
    /// computation over very large grids.
    pub fn bind_rows<C: Coeff>(
        &self,
        metas: &[MetaVar],
        base: &Valuation<Rat>,
        set: &ScenarioSet,
        map: impl Fn(&Rat) -> C,
    ) -> (Vec<Vec<C>>, Vec<Vec<C>>) {
        let mut binder = PairBinder::new(self, metas, base, set);
        let mut frow = vec![Rat::ZERO; self.full.program().num_locals()];
        let mut crow = vec![Rat::ZERO; self.compressed.program().num_locals()];
        let mut full_rows = Vec::with_capacity(set.len());
        let mut comp_rows = Vec::with_capacity(set.len());
        for i in 0..set.len() {
            binder.bind_pair_into(i, &mut frow, &mut crow);
            full_rows.push(frow.iter().map(&map).collect());
            comp_rows.push(crow.iter().map(&map).collect());
        }
        (full_rows, comp_rows)
    }
}

/// Results of a batched scenario sweep, stored flat: the labels once and
/// one `num_polys`-wide row of exact values per scenario per side —
/// O(scenarios × polynomials) memory with no per-scenario `String`s.
#[derive(Clone, Debug, Default)]
pub struct ScenarioSweep {
    labels: Vec<String>,
    num_scenarios: usize,
    /// Scenario-major full-provenance values (`num_scenarios × num_polys`).
    full: Vec<Rat>,
    /// Scenario-major compressed-provenance values.
    compressed: Vec<Rat>,
}

impl ScenarioSweep {
    /// Number of scenarios evaluated.
    pub fn len(&self) -> usize {
        self.num_scenarios
    }

    /// True iff no scenario was evaluated.
    pub fn is_empty(&self) -> bool {
        self.num_scenarios == 0
    }

    /// Number of result tuples per scenario.
    pub fn num_polys(&self) -> usize {
        self.labels.len()
    }

    /// Result-tuple labels, shared by every scenario.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Full-provenance results of one scenario, in label order.
    pub fn full_row(&self, scenario: usize) -> &[Rat] {
        let np = self.labels.len();
        &self.full[scenario * np..(scenario + 1) * np]
    }

    /// Compressed-provenance results of one scenario, in label order.
    pub fn compressed_row(&self, scenario: usize) -> &[Rat] {
        let np = self.labels.len();
        &self.compressed[scenario * np..(scenario + 1) * np]
    }

    /// Materializes the side-by-side comparison of one scenario.
    pub fn comparison(&self, scenario: usize) -> ResultComparison {
        compare_rows(
            &self.labels,
            self.full_row(scenario).to_vec(),
            self.compressed_row(scenario).to_vec(),
        )
    }

    /// Iterates materialized comparisons in scenario order.
    pub fn comparisons(&self) -> impl ExactSizeIterator<Item = ResultComparison> + '_ {
        (0..self.num_scenarios).map(|s| self.comparison(s))
    }

    /// Largest relative error over every scenario and result tuple.
    pub fn max_rel_error(&self) -> f64 {
        self.full
            .iter()
            .zip(&self.compressed)
            .map(|(f, c)| assign::rel_error_value(f, c))
            .fold(0.0, f64::max)
    }

    /// Largest relative error within one scenario.
    pub fn scenario_max_rel_error(&self, scenario: usize) -> f64 {
        self.full_row(scenario)
            .iter()
            .zip(self.compressed_row(scenario))
            .map(|(f, c)| assign::rel_error_value(f, c))
            .fold(0.0, f64::max)
    }

    /// True iff compression introduced no error in any scenario.
    pub fn is_exact(&self) -> bool {
        self.full == self.compressed
    }
}

/// Results of an **approximate** batched sweep
/// ([`CobraSession::sweep_f64`](crate::session::CobraSession::sweep_f64)):
/// the `f64` sibling of [`ScenarioSweep`], stored flat (labels once, one
/// `num_polys`-wide row per scenario per side) with the measured
/// [`F64Divergence`] of the fast path attached.
#[derive(Clone, Debug, Default)]
pub struct F64ScenarioSweep {
    pub(crate) labels: Vec<String>,
    pub(crate) num_scenarios: usize,
    pub(crate) full: Vec<f64>,
    pub(crate) compressed: Vec<f64>,
    pub(crate) divergence: F64Divergence,
}

impl F64ScenarioSweep {
    /// Number of scenarios evaluated.
    pub fn len(&self) -> usize {
        self.num_scenarios
    }

    /// True iff no scenario was evaluated.
    pub fn is_empty(&self) -> bool {
        self.num_scenarios == 0
    }

    /// Number of result tuples per scenario.
    pub fn num_polys(&self) -> usize {
        self.labels.len()
    }

    /// Result-tuple labels, shared by every scenario.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Full-provenance results of one scenario, in label order.
    pub fn full_row(&self, scenario: usize) -> &[f64] {
        let np = self.labels.len();
        &self.full[scenario * np..(scenario + 1) * np]
    }

    /// Compressed-provenance results of one scenario, in label order.
    pub fn compressed_row(&self, scenario: usize) -> &[f64] {
        let np = self.labels.len();
        &self.compressed[scenario * np..(scenario + 1) * np]
    }

    /// The exact-vs-approximate divergence probe of the sweep.
    pub fn divergence(&self) -> F64Divergence {
        self.divergence
    }

    /// Largest relative full-vs-compressed error over every scenario and
    /// result tuple (the abstraction's worst case over the family, in
    /// floating point).
    pub fn max_rel_error(&self) -> f64 {
        self.full
            .iter()
            .zip(&self.compressed)
            .map(|(f, c)| assign::rel_error_f64(*f, *c))
            .fold(0.0, f64::max)
    }
}

/// The one-sided sibling of [`CompiledComparison::fold_par`]: streams
/// every scenario of `set` through a **single** compiled exact engine,
/// fanned across cores, for consumers that evaluate one polynomial set
/// without a full/compressed pair
/// ([`sensitivity::scenario_impacts`](crate::sensitivity::scenario_impacts)
/// ranks grid points through it). It is the same span driver run over a
/// comparison whose compressed side is empty, so each [`FoldItem`]
/// carries the program's result row as `full` and an **empty**
/// `compressed` — full-side folds
/// ([`ArgmaxImpact`](crate::folds::ArgmaxImpact),
/// [`Histogram`](crate::folds::Histogram),
/// [`TopK`](crate::folds::TopK)) run unchanged, while error folds that
/// zip both sides stay at their identity. Results are bit-identical to
/// evaluating the scenarios one by one, at any thread count.
///
/// # Panics
/// Panics if a scenario merged over `base` is not total over the program
/// (give `base` a default). A worker panic is resumed on the caller.
pub fn fold_program_sweep_par<F: MergeFold + Send + Sync>(
    evaluator: &BatchEvaluator<Rat>,
    base: &Valuation<Rat>,
    set: &ScenarioSet,
    fold: F,
) -> F {
    let one_sided = CompiledComparison::from_engines(
        evaluator.clone(),
        BatchEvaluator::compile(&PolySet::default()),
    );
    let budget = SweepBudget::unlimited();
    let plan = driver::Plan::<Exact>::new(&one_sided, (), (&[], base), set, &budget);
    match driver::spans(&plan, fold) {
        Ok((outcome, ())) => outcome.into_fold(),
        Err(payload) => resume_unwind(payload),
    }
}

/// The arithmetic a fold sweep runs in — the one axis on which the fold
/// entries ([`CompiledComparison::fold`] / [`CompiledComparison::fold_par`]
/// and their [`CobraSession`] twins) are generic. Sealed; the three
/// precisions are:
///
/// | precision | rows a fold sees | `Engines` | `Report` |
/// |---|---|---|---|
/// | [`Exact`] | `Rat`, exact kernels | `()` | `()` |
/// | [`Approx`] | `f64`, lane kernels | `(full, compressed)` `f64` shadow engines | [`F64Divergence`]: up to [`F64_PROBES`] scenarios re-run exactly |
/// | [`Certified`] | `f64`, lane kernels | the same pair plus the [`ErrorShadow`] | [`F64ErrorBound`]: a sound bound for every scenario |
///
/// The hidden items are the per-block hooks the span driver calls; they
/// are monomorphised into its one block loop.
pub trait Precision: driver::Sealed + Sized {
    /// The number type of the result rows handed to the fold.
    type Num: Coeff;
    /// The engines the precision evaluates through besides the exact
    /// pair of the [`CompiledComparison`].
    type Engines<'a>: Copy + Send + Sync;
    /// What the sweep reports about its own accuracy next to the fold,
    /// covering exactly the scenarios folded.
    type Report: Default + Send + std::fmt::Debug;

    /// Span-owned kernel scratch, probe/shadow buffers and the report
    /// accumulator.
    #[doc(hidden)]
    type Scratch: Send;
    /// The cached engines of a session's current selection.
    #[doc(hidden)]
    fn session_engines(session: &CobraSession) -> Result<Self::Engines<'_>>;
    /// Panics unless `engines` mirror the shapes of `cmp`.
    #[doc(hidden)]
    fn check(_: &CompiledComparison, _: Self::Engines<'_>) {}
    #[doc(hidden)]
    fn scratch(plan: &driver::Plan<'_, Self>) -> Self::Scratch;
    /// Binds scenario `i` into one row per side.
    #[doc(hidden)]
    fn bind(binder: &mut PairBinder<'_>, i: usize, full: &mut [Self::Num], comp: &mut [Self::Num]);
    /// Evaluates the first `width` bound rows of the lane's block.
    #[doc(hidden)]
    fn eval(plan: &driver::Plan<'_, Self>, lane: &mut driver::Lane<'_, Self>, width: usize);
    /// Accounts scenario `i` (row `k` of the evaluated block) in the
    /// report before the fold sees it.
    #[doc(hidden)]
    fn observe(_: &driver::Plan<'_, Self>, _: &mut driver::Lane<'_, Self>, _i: usize, _k: usize) {}
    /// Merges a finished span's report into `report`; spans arrive in
    /// ascending order.
    #[doc(hidden)]
    fn absorb(report: &mut Self::Report, span: Self::Scratch);
}

/// Exact rational arithmetic on both sides: `Rat` rows through the exact
/// kernels (scaled-`i128` fixed point where it fits, the plain `Rat` walk
/// otherwise). Nothing to report — the answers are the answers.
pub struct Exact;

/// The approximate `f64` fast path: scenarios bind directly as `f64` rows
/// ([`PairBinder::bind_pair_into_f64`]) and run through the lane kernels
/// at a fraction of the exact cost. Up to [`F64_PROBES`] evenly spaced
/// scenarios of the **whole** set are additionally re-bound and
/// re-evaluated on the exact engines (the armed probe twins under DAG
/// mode), and the [`F64Divergence`] reports the largest deviation seen.
pub struct Approx;

/// The `f64` fast path with a **sound rounding certificate** instead of
/// sampled probes: the [`ErrorShadow`]'s absolute-value twin programs are
/// evaluated alongside every block (≈2× kernel cost) and the
/// [`F64ErrorBound`] bounds the rounding error of *every* folded scenario
/// a priori. Runs no exact arithmetic at all.
pub struct Certified;

/// The one sweep engine: a block loop (`run_span`) generic over the
/// [`Precision`] and an item sink, run once on the calling thread for
/// ordered folds and once per worker span for mergeable ones.
mod driver {
    use super::*;

    pub trait Sealed {}
    impl Sealed for Exact {}
    impl Sealed for Approx {}
    impl Sealed for Certified {}

    /// One sweep, fixed on the calling thread before any span starts and
    /// shared by all of them.
    pub struct Plan<'a, P: Precision> {
        cmp: &'a CompiledComparison,
        engines: P::Engines<'a>,
        metas: &'a [MetaVar],
        base: &'a Valuation<Rat>,
        set: &'a ScenarioSet,
        budget: &'a SweepBudget,
        /// Scenarios to sweep: the set's length clamped by the scenario cap.
        n_target: usize,
        block: usize,
        /// Result tuples per scenario on the full and on the compressed
        /// side — equal for comparisons, zero compressed for one-sided
        /// program sweeps.
        np: usize,
        npc: usize,
        /// Set by [`ordered`], which fans each block across cores inside
        /// the batch kernels; span workers already own a core each, so
        /// they run the serial kernels with scratch they keep across
        /// blocks.
        fan_out: bool,
        /// Kernel overrides are thread-local: both choices are resolved
        /// here and handed to every worker.
        use_fixed: bool,
        kern: F64Kernel,
    }

    impl<'a, P: Precision> Plan<'a, P> {
        pub fn new(
            cmp: &'a CompiledComparison,
            engines: P::Engines<'a>,
            (metas, base): (&'a [MetaVar], &'a Valuation<Rat>),
            set: &'a ScenarioSet,
            budget: &'a SweepBudget,
        ) -> Plan<'a, P> {
            let n_target = budget.scenario_cap().map_or(set.len(), |c| c.min(set.len()));
            let (full, comp) = (cmp.full.program(), cmp.compressed.program());
            let np = full.num_polys();
            let locals = full.num_locals().max(comp.num_locals());
            Plan {
                cmp,
                engines,
                metas,
                base,
                set,
                budget,
                n_target,
                block: stream_block(np, locals).min(n_target.max(1)),
                np,
                npc: comp.num_polys(),
                fan_out: false,
                use_fixed: kernel::exact_fixed_enabled(),
                kern: kernel::current(),
            }
        }

        /// Classifies a finished sweep: a dynamic stop wins, then a
        /// scenario cap (`n_target < n`), otherwise the sweep is complete.
        fn outcome<T>(&self, fold: T, done: usize, stop: Option<StopReason>) -> SweepOutcome<T> {
            let reason = if done < self.n_target {
                stop.unwrap_or(StopReason::Cancelled)
            } else if self.n_target < self.set.len() {
                StopReason::ScenarioCap
            } else {
                return SweepOutcome::Complete(fold);
            };
            SweepOutcome::Partial {
                fold,
                scenarios_done: done,
                reason,
            }
        }
    }

    /// What one span owns while it streams: a binder, one block of rows
    /// and results per side, and the precision's scratch.
    pub struct Lane<'a, P: Precision> {
        binder: PairBinder<'a>,
        full_rows: Vec<Vec<P::Num>>,
        comp_rows: Vec<Vec<P::Num>>,
        full_out: Vec<P::Num>,
        comp_out: Vec<P::Num>,
        scratch: P::Scratch,
    }

    impl<'a, P: Precision> Lane<'a, P> {
        fn new(plan: &Plan<'a, P>) -> Lane<'a, P> {
            let (full, comp) = (plan.cmp.full.program(), plan.cmp.compressed.program());
            Lane {
                binder: PairBinder::new(plan.cmp, plan.metas, plan.base, plan.set),
                full_rows: vec![vec![P::Num::zero(); full.num_locals()]; plan.block],
                comp_rows: vec![vec![P::Num::zero(); comp.num_locals()]; plan.block],
                full_out: vec![P::Num::zero(); plan.block * plan.np],
                comp_out: vec![P::Num::zero(); plan.block * plan.npc],
                scratch: P::scratch(plan),
            }
        }
    }

    /// The block loop: binds, evaluates and emits scenarios `range` in
    /// enumeration order, polling `abort` (a sibling worker panicked) and
    /// the budget's dynamic limits before every block.
    fn run_span<P: Precision>(
        plan: &Plan<'_, P>,
        lane: &mut Lane<'_, P>,
        range: std::ops::Range<usize>,
        abort: Option<&CancelToken>,
        mut sink: impl FnMut(FoldItem<'_, P::Num>),
    ) -> SpanProgress {
        let mut span = SpanProgress {
            start: range.start,
            done: range.start,
            end: range.end,
            reason: None,
        };
        let (np, npc) = (plan.np, plan.npc);
        let check = plan.budget.has_dynamic_limits();
        while span.done < range.end {
            faults::point(faults::Site::Block);
            if abort.is_some_and(CancelToken::is_cancelled) {
                span.reason = Some(StopReason::Cancelled);
                break;
            }
            if check {
                if let Some(reason) = plan.budget.stop_reason() {
                    span.reason = Some(reason);
                    break;
                }
            }
            let start = span.done;
            let width = plan.block.min(range.end - start);
            for k in 0..width {
                let (frow, crow) = (&mut lane.full_rows[k], &mut lane.comp_rows[k]);
                P::bind(&mut lane.binder, start + k, frow, crow);
            }
            P::eval(plan, lane, width);
            for k in 0..width {
                P::observe(plan, lane, start + k, k);
                sink(FoldItem {
                    scenario: start + k,
                    full: &lane.full_out[k * np..(k + 1) * np],
                    compressed: &lane.comp_out[k * npc..(k + 1) * npc],
                });
            }
            span.done = start + width;
        }
        span
    }

    /// An ordered closure fold: the driver run once over `0..n_target` on
    /// the calling thread.
    pub fn ordered<P: Precision, A>(
        mut plan: Plan<'_, P>,
        init: A,
        mut f: impl FnMut(A, FoldItem<'_, P::Num>) -> A,
    ) -> (SweepOutcome<A>, P::Report) {
        plan.fan_out = true;
        let plan = &plan;
        let mut report = P::Report::default();
        let mut lane = Lane::new(plan);
        let mut acc = Some(init);
        let span = run_span(plan, &mut lane, 0..plan.n_target, None, |item| {
            let before = acc.take().expect("the accumulator is put back after every item");
            acc = Some(f(before, item));
        });
        P::absorb(&mut report, lane.scratch);
        let fold = acc.expect("the accumulator is put back after every item");
        (plan.outcome(fold, span.done, span.reason), report)
    }

    /// A [`MergeFold`]: the driver under [`par::try_par_owned_spans`],
    /// one lane and one fold replica per worker span. The partials merge
    /// in ascending span order while the covered prefix stays contiguous
    /// and complete: every completed span is absorbed, the first
    /// interrupted span contributes its own completed prefix and ends the
    /// merge, and everything after it is discarded — exactly the state of
    /// one ordered pass over `0..done`, the bit-identity contract of
    /// [`SweepOutcome::Partial`].
    pub fn spans<P: Precision, F: MergeFold + Send + Sync>(
        plan: &Plan<'_, P>,
        mut fold: F,
    ) -> std::result::Result<(SweepOutcome<F>, P::Report), par::WorkerPanic> {
        let mut report = P::Report::default();
        if plan.n_target == 0 {
            // Nothing to sweep: no worker, so no binder is built (and its
            // totality rules do not apply) — as the parallel sweeps
            // always behaved; the ordered fold builds its one lane anyway.
            return Ok((plan.outcome(fold, 0, None), report));
        }
        let abort = CancelToken::new();
        let partials = par::try_par_owned_spans(
            plan.n_target,
            1,
            &abort,
            || (Lane::new(plan), fold.init(), SpanProgress::default()),
            |(lane, replica, span), range| {
                *span = run_span(plan, lane, range, Some(&abort), |item| replica.accept(item));
            },
        )?;
        let (mut done, mut stop) = (0, None);
        for (lane, replica, span) in partials {
            if span.start != done {
                break; // unreachable by construction; belt and braces
            }
            fold.merge(replica);
            P::absorb(&mut report, lane.scratch);
            done = span.done;
            if span.done < span.end {
                stop = span.reason;
                break;
            }
        }
        Ok((plan.outcome(fold, done, stop), report))
    }

    impl Precision for Exact {
        type Num = Rat;
        type Engines<'a> = ();
        type Report = ();
        type Scratch = FixedScratch;

        fn session_engines(_: &CobraSession) -> Result<()> {
            Ok(())
        }

        fn scratch(_: &Plan<'_, Exact>) -> FixedScratch {
            FixedScratch::new()
        }

        fn bind(binder: &mut PairBinder<'_>, i: usize, full: &mut [Rat], comp: &mut [Rat]) {
            binder.bind_pair_into(i, full, comp);
        }

        fn eval(plan: &Plan<'_, Exact>, lane: &mut Lane<'_, Exact>, width: usize) {
            let scratch = &mut lane.scratch;
            let sides = [
                (&plan.cmp.full, &lane.full_rows, &mut lane.full_out, plan.np),
                (&plan.cmp.compressed, &lane.comp_rows, &mut lane.comp_out, plan.npc),
            ];
            for (engine, rows, out, np) in sides {
                let (rows, out) = (&rows[..width], &mut out[..width * np]);
                if plan.fan_out {
                    engine.eval_batch_exact_into(rows, out);
                } else {
                    engine.eval_batch_exact_serial_with(plan.use_fixed, rows, out, scratch);
                }
            }
        }

        fn absorb(_: &mut (), _: FixedScratch) {}
    }

    /// Evaluates both `f64` sides of a block — the step [`Approx`] and
    /// [`Certified`] share.
    fn eval_f64_block<P: Precision>(
        plan: &Plan<'_, P>,
        (full64, comp64): (&BatchEvaluator<f64>, &BatchEvaluator<f64>),
        (full_rows, comp_rows): (&[Vec<f64>], &[Vec<f64>]),
        (full_out, comp_out): (&mut [f64], &mut [f64]),
        lanes: &mut LaneScratch,
    ) {
        for (engine, rows, out) in [(full64, full_rows, full_out), (comp64, comp_rows, comp_out)] {
            if plan.fan_out {
                engine.eval_batch_fast_into(rows, out);
            } else {
                engine.eval_batch_fast_serial_with(plan.kern, rows, out, lanes);
            }
        }
    }

    /// [`Approx`]'s span state: lane-kernel scratch plus everything the
    /// exact divergence probes need.
    pub struct ApproxScratch {
        lanes: LaneScratch,
        /// Probe indices over the **full** set length, and the cursor of
        /// the first one this span has not passed yet.
        probes: Vec<usize>,
        next_probe: usize,
        full_row: Vec<Rat>,
        comp_row: Vec<Rat>,
        out: Vec<Rat>,
        fixed: FixedScratch,
        divergence: F64Divergence,
    }

    impl Precision for Approx {
        type Num = f64;
        type Engines<'a> = (&'a BatchEvaluator<f64>, &'a BatchEvaluator<f64>);
        type Report = F64Divergence;
        type Scratch = ApproxScratch;

        fn session_engines(session: &CobraSession) -> Result<Self::Engines<'_>> {
            Ok(session.f64_engines(session.compressed_state()?))
        }

        fn check(cmp: &CompiledComparison, (full64, comp64): Self::Engines<'_>) {
            cmp.assert_mirrored_by("f64 shadow", full64.program(), comp64.program());
        }

        fn scratch(plan: &Plan<'_, Approx>) -> ApproxScratch {
            // Probes evaluate the armed twins (flat originals in DAG mode)
            // so they stay fixed-point eligible — see `probe_programs`.
            let (probe_full, probe_comp) = plan.cmp.probe_programs();
            ApproxScratch {
                lanes: LaneScratch::new(),
                probes: f64_probe_indices(plan.set.len()),
                next_probe: 0,
                full_row: vec![Rat::ZERO; probe_full.num_locals()],
                comp_row: vec![Rat::ZERO; probe_comp.num_locals()],
                out: vec![Rat::ZERO; plan.np],
                fixed: FixedScratch::new(),
                divergence: F64Divergence::default(),
            }
        }

        fn bind(binder: &mut PairBinder<'_>, i: usize, full: &mut [f64], comp: &mut [f64]) {
            binder.bind_pair_into_f64(i, full, comp);
        }

        fn eval(plan: &Plan<'_, Approx>, lane: &mut Lane<'_, Approx>, width: usize) {
            let n = width * plan.np;
            eval_f64_block(
                plan,
                plan.engines,
                (&lane.full_rows[..width], &lane.comp_rows[..width]),
                (&mut lane.full_out[..n], &mut lane.comp_out[..n]),
                &mut lane.scratch.lanes,
            );
        }

        fn observe(plan: &Plan<'_, Approx>, lane: &mut Lane<'_, Approx>, i: usize, k: usize) {
            let s = &mut lane.scratch;
            loop {
                match s.probes.get(s.next_probe) {
                    // A span's cursor starts at 0: its first scenario
                    // skips the probes that fell to earlier spans.
                    Some(&probe) if probe < i => s.next_probe += 1,
                    Some(&probe) if probe == i => break,
                    _ => return,
                }
            }
            s.next_probe += 1;
            s.divergence.probed += 1;
            lane.binder.bind_pair_into(i, &mut s.full_row, &mut s.comp_row);
            let at = k * plan.np..(k + 1) * plan.np;
            // Probes follow the exact-kernel dispatch too: at provenance
            // scale a plain `Rat` walk per probe would dwarf the whole
            // `f64` sweep it is spot-checking.
            let (probe_full, probe_comp) = plan.cmp.probe_programs();
            let sides = [
                (probe_full, &s.full_row, &lane.full_out),
                (probe_comp, &s.comp_row, &lane.comp_out),
            ];
            for (program, row, approx) in sides {
                program.eval_scenario_exact_with(plan.use_fixed, row, &mut s.out, &mut s.fixed);
                s.divergence.record(&s.out, &approx[at.clone()]);
            }
        }

        fn absorb(report: &mut F64Divergence, span: ApproxScratch) {
            report.merge(span.divergence);
        }
    }

    /// [`Certified`]'s span state: lane-kernel scratch plus the Higham
    /// shadow's magnitude rows and results.
    pub struct CertifiedScratch {
        lanes: LaneScratch,
        abs_full_rows: Vec<Vec<f64>>,
        abs_comp_rows: Vec<Vec<f64>>,
        abs_full_out: Vec<f64>,
        abs_comp_out: Vec<f64>,
        bound: F64ErrorBound,
    }

    impl Precision for Certified {
        type Num = f64;
        type Engines<'a> = (
            &'a BatchEvaluator<f64>,
            &'a BatchEvaluator<f64>,
            &'a ErrorShadow,
        );
        type Report = F64ErrorBound;
        type Scratch = CertifiedScratch;

        fn session_engines(session: &CobraSession) -> Result<Self::Engines<'_>> {
            let state = session.compressed_state()?;
            let (full64, comp64) = session.f64_engines(state);
            Ok((full64, comp64, session.error_shadow(state)))
        }

        fn check(cmp: &CompiledComparison, (full64, comp64, _): Self::Engines<'_>) {
            cmp.assert_mirrored_by("f64 shadow", full64.program(), comp64.program());
        }

        fn scratch(plan: &Plan<'_, Certified>) -> CertifiedScratch {
            let (full, comp) = (plan.cmp.full.program(), plan.cmp.compressed.program());
            CertifiedScratch {
                lanes: LaneScratch::new(),
                abs_full_rows: vec![vec![0.0; full.num_locals()]; plan.block],
                abs_comp_rows: vec![vec![0.0; comp.num_locals()]; plan.block],
                abs_full_out: vec![0.0; plan.block * plan.np],
                abs_comp_out: vec![0.0; plan.block * plan.np],
                bound: F64ErrorBound::default(),
            }
        }

        fn bind(binder: &mut PairBinder<'_>, i: usize, full: &mut [f64], comp: &mut [f64]) {
            binder.bind_pair_into_f64(i, full, comp);
        }

        fn eval(plan: &Plan<'_, Certified>, lane: &mut Lane<'_, Certified>, width: usize) {
            let (full64, comp64, err) = plan.engines;
            let n = width * plan.np;
            let s = &mut lane.scratch;
            eval_f64_block(
                plan,
                (full64, comp64),
                (&lane.full_rows[..width], &lane.comp_rows[..width]),
                (&mut lane.full_out[..n], &mut lane.comp_out[..n]),
                &mut s.lanes,
            );
            let magnitudes = |abs_rows: &mut [Vec<f64>], rows: &[Vec<f64>]| {
                for (abs_row, row) in abs_rows.iter_mut().zip(rows) {
                    for (a, &x) in abs_row.iter_mut().zip(row) {
                        *a = x.abs();
                    }
                }
            };
            magnitudes(&mut s.abs_full_rows[..width], &lane.full_rows[..width]);
            magnitudes(&mut s.abs_comp_rows[..width], &lane.comp_rows[..width]);
            eval_f64_block(
                plan,
                (&err.full_abs, &err.comp_abs),
                (&s.abs_full_rows[..width], &s.abs_comp_rows[..width]),
                (&mut s.abs_full_out[..n], &mut s.abs_comp_out[..n]),
                &mut s.lanes,
            );
        }

        fn observe(plan: &Plan<'_, Certified>, lane: &mut Lane<'_, Certified>, i: usize, k: usize) {
            let s = &mut lane.scratch;
            let at = k * plan.np..(k + 1) * plan.np;
            plan.engines.2.record(
                &mut s.bound,
                i,
                &lane.full_out[at.clone()],
                &lane.comp_out[at.clone()],
                &s.abs_full_out[at.clone()],
                &s.abs_comp_out[at],
            );
        }

        fn absorb(report: &mut F64ErrorBound, span: CertifiedScratch) {
            report.merge(span.bound);
        }
    }
}

/// The canonical leaf/meta valuation pair for one scenario: the scenario
/// merged over the base, and its projection onto the meta-variables by
/// group averaging. Every assignment and timing path shares this rule.
pub(crate) fn project_pair(
    metas: &[MetaVar],
    base: &Valuation<Rat>,
    scenario: &Valuation<Rat>,
) -> (Valuation<Rat>, Valuation<Rat>) {
    let leaf_val = base.overridden_by(scenario);
    let meta_val = leaf_val.overridden_by(&assign::project_scenario(metas, &leaf_val));
    (leaf_val, meta_val)
}

/// Pairs full and compressed result values by position into a
/// [`ResultComparison`].
///
/// # Panics
/// Panics unless both value vectors have exactly one entry per label —
/// the full and compressed polynomial sets must align.
pub(crate) fn compare_rows(
    labels: &[String],
    full: Vec<Rat>,
    compressed: Vec<Rat>,
) -> ResultComparison {
    assert_eq!(labels.len(), full.len(), "polynomial sets must align");
    assert_eq!(labels.len(), compressed.len(), "polynomial sets must align");
    ResultComparison {
        rows: labels
            .iter()
            .zip(full.into_iter().zip(compressed))
            .map(|(label, (full, compressed))| ResultRow {
                label: label.clone(),
                full,
                compressed,
            })
            .collect(),
    }
}

/// Where an override lands on the compressed side.
#[derive(Clone, Copy, Debug)]
enum CompTarget {
    /// The variable survives compression: write its local directly (or
    /// nothing, if the compressed program never mentions it).
    Direct(Option<u32>),
    /// The variable is a grouped leaf: fold its delta into the group
    /// average (index into the binder's group plans).
    Group(u32),
    /// The variable *is* a meta-variable: leaf-level scenarios cannot set
    /// metas directly — the group-average projection always wins, exactly
    /// like the materialized path.
    Ignore,
}

/// One override slot of a grid axis (or perturbation family), resolved
/// against both programs once at binder construction. The `f64` shadow of
/// the base value rides along so the approximate bind path never touches
/// `Rat` arithmetic per scenario.
#[derive(Clone, Copy, Debug)]
struct PairSlot {
    full_local: Option<u32>,
    target: CompTarget,
    base_val: Rat,
    base_val_f64: f64,
}

/// A touched meta-variable group: its compressed-side local plus the
/// base-valuation sum over its leaves, so per-scenario averages are
/// `(base_sum + Σ deltas) / count` — bit-identical to re-averaging.
#[derive(Clone, Copy, Debug)]
struct GroupPlan {
    comp_local: Option<u32>,
    base_sum: Rat,
    base_sum_f64: f64,
    count: usize,
}

/// Binds [`ScenarioSet`] scenarios into full/compressed scenario-row pairs
/// with the meta-variable projection applied — the allocation-free heart
/// of the sweep. Explicit (materialized) sets fall back to the classic
/// merge-project-bind per scenario; grids and perturbations reuse cached
/// base rows and touch only their overrides.
pub struct PairBinder<'a> {
    set: &'a ScenarioSet,
    metas: &'a [MetaVar],
    base: &'a Valuation<Rat>,
    full: &'a EvalProgram<Rat>,
    comp: &'a EvalProgram<Rat>,
    base_full_row: Vec<Rat>,
    base_comp_row: Vec<Rat>,
    /// Override slots per axis (grids) or one flat list (perturbations).
    slots: Vec<Vec<PairSlot>>,
    groups: Vec<GroupPlan>,
    /// Per-scenario group-delta accumulator (zeroed on every bind).
    scratch: Vec<Rat>,
    /// `f64` shadows of the cached base rows and the group scratch, built
    /// lazily on the first [`bind_pair_into_f64`](Self::bind_pair_into_f64)
    /// call — exact-only sweeps never pay for the copies.
    f64_ready: bool,
    base_full_row_f64: Vec<f64>,
    base_comp_row_f64: Vec<f64>,
    scratch_f64: Vec<f64>,
    /// Exact scratch rows for the explicit-set `f64` path (explicit
    /// scenarios are merged and projected exactly, then converted).
    explicit_full_scratch: Vec<Rat>,
    explicit_comp_scratch: Vec<Rat>,
}

impl<'a> PairBinder<'a> {
    /// Prepares a binder for `set` against a compiled engine pair.
    ///
    /// # Panics
    /// For grid/perturbation sets, panics if `base` does not cover every
    /// program variable (explicit sets defer the totality check to each
    /// scenario, matching the materialized path).
    pub fn new(
        engines: &'a CompiledComparison,
        metas: &'a [MetaVar],
        base: &'a Valuation<Rat>,
        set: &'a ScenarioSet,
    ) -> PairBinder<'a> {
        let full = engines.full.program();
        let comp = engines.compressed.program();
        let mut binder = PairBinder {
            set,
            metas,
            base,
            full,
            comp,
            base_full_row: Vec::new(),
            base_comp_row: Vec::new(),
            slots: Vec::new(),
            groups: Vec::new(),
            scratch: Vec::new(),
            f64_ready: false,
            base_full_row_f64: Vec::new(),
            base_comp_row_f64: Vec::new(),
            scratch_f64: Vec::new(),
            explicit_full_scratch: Vec::new(),
            explicit_comp_scratch: Vec::new(),
        };
        if set.explicit().is_some() {
            return binder; // per-scenario merge path needs no plan
        }
        binder.base_full_row = full.bind(base).expect("leaf valuation must be total");
        let base_meta = base.overridden_by(&assign::project_scenario(metas, base));
        binder.base_comp_row = comp
            .bind(&base_meta)
            .expect("meta valuation must be total");

        let meta_vars: FxHashSet<Var> = metas.iter().map(|m| m.var).collect();
        let mut leaf_group: FxHashMap<Var, usize> = FxHashMap::default();
        for (g, meta) in metas.iter().enumerate() {
            for &leaf in &meta.leaves {
                leaf_group.insert(leaf, g);
            }
        }
        let mut group_slot: FxHashMap<usize, u32> = FxHashMap::default();
        let mut plan_slot = |binder: &mut PairBinder<'a>, v: Var| {
            // Grouped-leaf membership wins over meta-var identity: a cut
            // at a leaf keeps the leaf's own variable as its (one-leaf)
            // meta, and the projection then passes overrides through as
            // the trivial average — exactly the materialized semantics.
            let target = if let Some(&g) = leaf_group.get(&v) {
                let slot = *group_slot.entry(g).or_insert_with(|| {
                    let meta = &metas[g];
                    let base_sum: Rat =
                        meta.leaves.iter().map(|&l| base_value(base, l)).sum();
                    binder.groups.push(GroupPlan {
                        comp_local: comp.local_of(meta.var),
                        base_sum,
                        base_sum_f64: base_sum.to_f64(),
                        count: meta.leaves.len(),
                    });
                    (binder.groups.len() - 1) as u32
                });
                CompTarget::Group(slot)
            } else if meta_vars.contains(&v) {
                CompTarget::Ignore
            } else {
                CompTarget::Direct(comp.local_of(v))
            };
            let base_val = base_value(base, v);
            PairSlot {
                full_local: full.local_of(v),
                target,
                base_val,
                base_val_f64: base_val.to_f64(),
            }
        };
        if let Some(axes) = set.axes() {
            let planned: Vec<Vec<PairSlot>> = axes
                .iter()
                .map(|axis| {
                    axis.vars()
                        .iter()
                        .map(|&v| plan_slot(&mut binder, v))
                        .collect()
                })
                .collect();
            binder.slots = planned;
        } else if let Some((vars, _, _)) = set.perturbation() {
            let planned: Vec<PairSlot> = vars.iter().map(|&v| plan_slot(&mut binder, v)).collect();
            binder.slots = vec![planned];
        }
        binder.scratch = vec![Rat::ZERO; binder.groups.len()];
        binder
    }

    /// Binds scenario `i` into the two row buffers.
    ///
    /// # Panics
    /// Panics if `i >= set.len()`, a buffer width mismatches its program,
    /// or (explicit sets) the merged valuation is not total.
    pub fn bind_pair_into(&mut self, i: usize, full_row: &mut [Rat], comp_row: &mut [Rat]) {
        if let Some(scenarios) = self.set.explicit() {
            let (leaf_val, meta_val) = project_pair(self.metas, self.base, &scenarios[i]);
            self.full
                .bind_into(&leaf_val, full_row)
                .expect("leaf valuation must be total");
            self.comp
                .bind_into(&meta_val, comp_row)
                .expect("meta valuation must be total");
            return;
        }
        assert!(i < self.set.len(), "scenario index {i} out of range");
        full_row.copy_from_slice(&self.base_full_row);
        comp_row.copy_from_slice(&self.base_comp_row);
        if let Some(axes) = self.set.axes() {
            for d in &mut self.scratch {
                *d = Rat::ZERO;
            }
            let slots = &self.slots;
            let scratch = &mut self.scratch;
            for_each_grid_digit(axes, i, |j, digit| {
                let axis = &axes[j];
                let level = axis.levels()[digit];
                for s in &slots[j] {
                    let new = axis.op().apply(s.base_val, level);
                    if let Some(fl) = s.full_local {
                        full_row[fl as usize] = new;
                    }
                    match s.target {
                        CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                        CompTarget::Direct(None) | CompTarget::Ignore => {}
                        CompTarget::Group(g) => scratch[g as usize] += new - s.base_val,
                    }
                }
            });
            for (plan, delta) in self.groups.iter().zip(&self.scratch) {
                if let Some(cl) = plan.comp_local {
                    comp_row[cl as usize] =
                        (plan.base_sum + *delta) / Rat::int(plan.count as i64);
                }
            }
        } else if let Some((_, delta, op)) = self.set.perturbation() {
            let s = self.slots[0][i];
            let new = op.apply(s.base_val, delta);
            if let Some(fl) = s.full_local {
                full_row[fl as usize] = new;
            }
            match s.target {
                CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                CompTarget::Direct(None) | CompTarget::Ignore => {}
                CompTarget::Group(g) => {
                    let plan = &self.groups[g as usize];
                    if let Some(cl) = plan.comp_local {
                        comp_row[cl as usize] = (plan.base_sum + (new - s.base_val))
                            / Rat::int(plan.count as i64);
                    }
                }
            }
        }
    }

    /// Builds the lazily initialized `f64` shadows of the cached base
    /// rows (grid/perturbation sets) or the exact scratch rows (explicit
    /// sets).
    fn ensure_f64(&mut self) {
        if self.f64_ready {
            return;
        }
        self.f64_ready = true;
        if self.set.explicit().is_some() {
            self.explicit_full_scratch = vec![Rat::ZERO; self.full.num_locals()];
            self.explicit_comp_scratch = vec![Rat::ZERO; self.comp.num_locals()];
        } else {
            self.base_full_row_f64 = self.base_full_row.iter().map(|r| r.to_f64()).collect();
            self.base_comp_row_f64 = self.base_comp_row.iter().map(|r| r.to_f64()).collect();
            self.scratch_f64 = vec![0.0; self.groups.len()];
        }
    }

    /// Binds scenario `i` into two **`f64`** row buffers — the
    /// bind path of the [`Approx`] and [`Certified`] precisions.
    /// Grid and perturbation overrides are resolved in floating point
    /// against cached `f64` base rows (one write per override, group
    /// averages included), so per-scenario work involves no `Rat`
    /// arithmetic at all; explicit scenarios are merged and projected
    /// exactly, then converted. The rows bind against the `f64` shadow
    /// programs, which share the exact programs' variable numbering.
    ///
    /// # Panics
    /// Same conditions as [`bind_pair_into`](Self::bind_pair_into).
    pub fn bind_pair_into_f64(&mut self, i: usize, full_row: &mut [f64], comp_row: &mut [f64]) {
        self.ensure_f64();
        if self.set.explicit().is_some() {
            let mut frow = std::mem::take(&mut self.explicit_full_scratch);
            let mut crow = std::mem::take(&mut self.explicit_comp_scratch);
            self.bind_pair_into(i, &mut frow, &mut crow);
            for (slot, r) in full_row.iter_mut().zip(&frow) {
                *slot = r.to_f64();
            }
            for (slot, r) in comp_row.iter_mut().zip(&crow) {
                *slot = r.to_f64();
            }
            self.explicit_full_scratch = frow;
            self.explicit_comp_scratch = crow;
            return;
        }
        assert!(i < self.set.len(), "scenario index {i} out of range");
        full_row.copy_from_slice(&self.base_full_row_f64);
        comp_row.copy_from_slice(&self.base_comp_row_f64);
        if let Some(axes) = self.set.axes() {
            for d in &mut self.scratch_f64 {
                *d = 0.0;
            }
            let slots = &self.slots;
            let scratch = &mut self.scratch_f64;
            for_each_grid_digit(axes, i, |j, digit| {
                let axis = &axes[j];
                let level = axis.levels()[digit].to_f64();
                for s in &slots[j] {
                    let new = axis.op().apply_f64(s.base_val_f64, level);
                    if let Some(fl) = s.full_local {
                        full_row[fl as usize] = new;
                    }
                    match s.target {
                        CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                        CompTarget::Direct(None) | CompTarget::Ignore => {}
                        CompTarget::Group(g) => {
                            scratch[g as usize] += new - s.base_val_f64
                        }
                    }
                }
            });
            for (plan, delta) in self.groups.iter().zip(&self.scratch_f64) {
                if let Some(cl) = plan.comp_local {
                    comp_row[cl as usize] =
                        (plan.base_sum_f64 + *delta) / plan.count as f64;
                }
            }
        } else if let Some((_, delta, op)) = self.set.perturbation() {
            let s = self.slots[0][i];
            let new = op.apply_f64(s.base_val_f64, delta.to_f64());
            if let Some(fl) = s.full_local {
                full_row[fl as usize] = new;
            }
            match s.target {
                CompTarget::Direct(Some(cl)) => comp_row[cl as usize] = new,
                CompTarget::Direct(None) | CompTarget::Ignore => {}
                CompTarget::Group(g) => {
                    let plan = &self.groups[g as usize];
                    if let Some(cl) = plan.comp_local {
                        comp_row[cl as usize] = (plan.base_sum_f64
                            + (new - s.base_val_f64))
                            / plan.count as f64;
                    }
                }
            }
        }
    }
}

/// Times a batched sweep over the full and the compressed provenance on
/// the `f64` fast path — the engine-level half of
/// [`CobraSession::measure_speedup`](crate::CobraSession::measure_speedup).
/// Reported durations cover the *whole batch* (binding excluded,
/// evaluation only), best-of-`runs` after `warmup` rounds.
pub(crate) fn measure_sweep_speedup(
    full: &BatchEvaluator<f64>,
    compressed: &BatchEvaluator<f64>,
    full_rows: &[Vec<f64>],
    comp_rows: &[Vec<f64>],
    warmup: usize,
    runs: usize,
) -> SpeedupMeasurement {
    let (_, full_time) = time_best_of(warmup, runs, || {
        std::hint::black_box(full.eval_batch_fast(full_rows).num_scenarios())
    });
    let (_, compressed_time) = time_best_of(warmup, runs, || {
        std::hint::black_box(compressed.eval_batch_fast(comp_rows).num_scenarios())
    });
    SpeedupMeasurement {
        full_time,
        compressed_time,
        full_size: full.program().num_terms(),
        compressed_size: compressed.program().num_terms(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_cut;
    use crate::assign::uniform_scenario;
    use crate::cut::Cut;
    use crate::tree::paper_plans_tree;
    use cobra_provenance::{parse_polyset, VarRegistry};

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    fn setup() -> (
        VarRegistry,
        PolySet<Rat>,
        crate::apply::AppliedAbstraction<Rat>,
    ) {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        let set = parse_polyset(src, &mut reg).unwrap();
        let cut = Cut::from_names(&tree, &["Business", "Special", "Standard"]).unwrap();
        let applied = apply_cut(&set, &tree, &cut, &mut reg);
        (reg, set, applied)
    }

    #[test]
    fn sweep_matches_single_scenario_evaluation() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let m3 = reg.var("m3");
        let scenarios = vec![
            uniform_scenario(&b_vars, rat("1.1")),
            Valuation::with_default(Rat::ONE).bind(m3, rat("0.8")),
            uniform_scenario(&[b_vars[0]], rat("1.3")),
        ];
        let sweep = engines.sweep(&applied.meta_vars, &base, &ScenarioSet::from(&scenarios));
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep.num_polys(), 2);
        for (scenario, cmp) in scenarios.iter().zip(sweep.comparisons()) {
            let leaf_val = base.overridden_by(scenario);
            let meta_val = leaf_val
                .overridden_by(&assign::project_scenario(&applied.meta_vars, &leaf_val));
            let expected = ResultComparison::evaluate(
                &set,
                &leaf_val,
                &applied.compressed,
                &meta_val,
            );
            assert_eq!(cmp.rows, expected.rows);
        }
        // aligned scenarios are exact, the misaligned third one is not
        assert!(sweep.comparison(0).is_exact());
        assert!(sweep.comparison(1).is_exact());
        assert!(!sweep.comparison(2).is_exact());
        assert!(!sweep.is_exact());
        assert!(sweep.max_rel_error() > 0.0);
        assert_eq!(sweep.scenario_max_rel_error(0), 0.0);
        assert!(sweep.scenario_max_rel_error(2) > 0.0);
    }

    #[test]
    fn grid_sweep_is_bit_identical_to_materialized_sweep() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let y1 = reg.var("y1");
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("1"), rat("1.25")])
            .axis(b_vars, [rat("0.9"), rat("1.1")])
            // y1 alone inside the Special group: a lossy, partial touch
            .scale_axis([y1], [rat("1"), rat("1.05")])
            .build()
            .unwrap();
        assert_eq!(grid.len(), 12);
        let by_grid = engines.sweep(&applied.meta_vars, &base, &grid);
        let flat = grid.materialize(&base);
        let by_vec = engines.sweep(&applied.meta_vars, &base, &ScenarioSet::from(flat));
        assert_eq!(by_grid.len(), by_vec.len());
        for i in 0..by_grid.len() {
            assert_eq!(by_grid.full_row(i), by_vec.full_row(i), "scenario {i}");
            assert_eq!(
                by_grid.compressed_row(i),
                by_vec.compressed_row(i),
                "scenario {i}"
            );
        }
        // uniform business change is exact; scaling b1 alone inside the
        // group is lossy — the grid must reproduce both regimes
        assert!(by_grid.comparison(0).is_exact());
        assert!(!by_grid.is_exact());
    }

    #[test]
    fn perturbation_sweep_matches_materialized() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let vars: Vec<Var> = ["b1", "m3", "p1", "v"].iter().map(|n| reg.var(n)).collect();
        let perturb = ScenarioSet::perturb_each(vars, rat("0.125"));
        let by_set = engines.sweep(&applied.meta_vars, &base, &perturb);
        let flat = perturb.materialize(&base);
        let by_vec = engines.sweep(&applied.meta_vars, &base, &ScenarioSet::from(flat));
        for i in 0..by_set.len() {
            assert_eq!(by_set.full_row(i), by_vec.full_row(i), "scenario {i}");
            assert_eq!(by_set.compressed_row(i), by_vec.compressed_row(i), "scenario {i}");
        }
    }

    #[test]
    fn bind_rows_matches_sweep_rows() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("0.9"), rat("1")])
            .build()
            .unwrap();
        let (full_rows, comp_rows) = engines.bind_rows(&applied.meta_vars, &base, &grid, |r| *r);
        assert_eq!(full_rows.len(), 3);
        let full_batch = engines.full.eval_batch(&full_rows);
        let comp_batch = engines.compressed.eval_batch(&comp_rows);
        let sweep = engines.sweep(&applied.meta_vars, &base, &grid);
        for i in 0..3 {
            assert_eq!(full_batch.row(i), sweep.full_row(i));
            assert_eq!(comp_batch.row(i), sweep.compressed_row(i));
        }
        // f64 mapping binds against the shadow programs directly
        let (f64_rows, _) = engines.bind_rows(&applied.meta_vars, &base, &grid, |r| r.to_f64());
        assert_eq!(f64_rows[0].len(), engines.full.program().num_locals());
    }

    #[test]
    fn sweep_fold_streams_in_enumeration_order() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("1"), rat("1.25")])
            .axis(b_vars, [rat("0.9"), rat("1.1")])
            .build()
            .unwrap();
        let sweep = engines.sweep(&applied.meta_vars, &base, &grid);
        // an appending fold reproduces the materialized sweep bit for bit,
        // and scenarios arrive strictly in enumeration order
        let (order, rows) = engines
            .fold::<Exact, _>(
                (),
                (&applied.meta_vars, &base),
                &grid,
                &SweepBudget::unlimited(),
                (Vec::new(), Vec::new()),
                |(mut order, mut rows): (Vec<usize>, Vec<Rat>), item| {
                    order.push(item.scenario);
                    rows.extend_from_slice(item.full);
                    rows.extend_from_slice(item.compressed);
                    (order, rows)
                },
            )
            .unwrap()
            .0
            .into_fold();
        assert_eq!(order, (0..grid.len()).collect::<Vec<_>>());
        for i in 0..grid.len() {
            let np = sweep.num_polys();
            assert_eq!(&rows[2 * i * np..(2 * i + 1) * np], sweep.full_row(i));
            assert_eq!(
                &rows[(2 * i + 1) * np..(2 * i + 2) * np],
                sweep.compressed_row(i)
            );
        }
    }

    #[test]
    fn f64_fold_tracks_exact_path_and_records_divergence() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let full64 = BatchEvaluator::new(engines.full.program().to_f64_program());
        let comp64 = BatchEvaluator::new(engines.compressed.program().to_f64_program());
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let y1 = reg.var("y1");
        let b_vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let grid = ScenarioSet::grid()
            .axis([m3], [rat("0.8"), rat("1"), rat("1.25")])
            .scale_axis(b_vars, [rat("0.9"), rat("1.1")])
            .shift_axis([y1], [rat("0"), rat("0.125")])
            .build()
            .unwrap();
        let exact = engines.sweep(&applied.meta_vars, &base, &grid);
        let (approx, div) = engines
            .fold::<Approx, _>(
                (&full64, &comp64),
                (&applied.meta_vars, &base),
                &grid,
                &SweepBudget::unlimited(),
                Vec::new(),
                |mut rows: Vec<(Vec<f64>, Vec<f64>)>, item| {
                    rows.push((item.full.to_vec(), item.compressed.to_vec()));
                    rows
                },
            )
            .unwrap();
        let approx = approx.into_fold();
        assert_eq!(approx.len(), grid.len());
        assert!(div.probed > 0 && div.probed <= grid.len());
        assert!(div.max_rel_divergence < 1e-12, "divergence {div:?}");
        for (i, (full, comp)) in approx.iter().enumerate() {
            for (e, a) in exact.full_row(i).iter().zip(full) {
                assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
            }
            for (e, a) in exact.compressed_row(i).iter().zip(comp) {
                assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
            }
        }
    }

    #[test]
    fn f64_fold_handles_explicit_and_perturbation_sets() {
        let (mut reg, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let full64 = BatchEvaluator::new(engines.full.program().to_f64_program());
        let comp64 = BatchEvaluator::new(engines.compressed.program().to_f64_program());
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let b1 = reg.var("b1");
        let explicit = [
            Valuation::with_default(Rat::ONE).bind(m3, rat("0.8")),
            Valuation::with_default(Rat::ONE).bind(b1, rat("1.3")),
        ];
        let perturb = ScenarioSet::perturb_each([m3, b1], rat("0.25"));
        for family in [ScenarioSet::from(&explicit[..]), perturb] {
            let exact = engines.sweep(&applied.meta_vars, &base, &family);
            let (approx, div) = engines
                .fold::<Approx, _>(
                    (&full64, &comp64),
                    (&applied.meta_vars, &base),
                    &family,
                    &SweepBudget::unlimited(),
                    Vec::new(),
                    |mut rows: Vec<Vec<f64>>, item| {
                        rows.push(item.full.to_vec());
                        rows
                    },
                )
                .unwrap();
            let approx = approx.into_fold();
            assert_eq!(div.probed, family.len().min(16));
            for (i, full) in approx.iter().enumerate() {
                for (e, a) in exact.full_row(i).iter().zip(full) {
                    assert!((e.to_f64() - a).abs() <= 1e-9 * e.to_f64().abs().max(1.0));
                }
            }
        }
    }

    #[test]
    fn empty_sweep() {
        let (_, set, applied) = setup();
        let engines = CompiledComparison::compile(&set, &applied.compressed);
        let sweep = engines.sweep(
            &applied.meta_vars,
            &Valuation::with_default(Rat::ONE),
            &ScenarioSet::from(Vec::new()),
        );
        assert!(sweep.is_empty());
        assert!(sweep.is_exact());
        assert_eq!(sweep.max_rel_error(), 0.0);
    }

    #[test]
    fn sweep_speedup_reports_batch_sizes() {
        let (_, set, applied) = setup();
        let full = BatchEvaluator::new(
            cobra_provenance::EvalProgram::compile(&set).to_f64_program(),
        );
        let compressed = BatchEvaluator::new(
            cobra_provenance::EvalProgram::compile(&applied.compressed).to_f64_program(),
        );
        let full_rows: Vec<Vec<f64>> =
            (0..16).map(|_| vec![1.0; full.program().num_locals()]).collect();
        let comp_rows: Vec<Vec<f64>> = (0..16)
            .map(|_| vec![1.0; compressed.program().num_locals()])
            .collect();
        let m = measure_sweep_speedup(&full, &compressed, &full_rows, &comp_rows, 1, 3);
        assert_eq!(m.full_size, 14);
        assert_eq!(m.compressed_size, 6);
        assert!(m.speedup_percent() <= 100.0);
    }
}
