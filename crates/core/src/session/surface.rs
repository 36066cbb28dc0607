//! The evaluation surface: assignments, sweeps, folds and their sugar,
//! all over the engines of the current selection.

use super::CobraSession;
use crate::apply::AppliedAbstraction;
use crate::assign::{self, ResultComparison, SpeedupMeasurement};
use crate::budget::{SweepBudget, SweepOutcome};
use crate::cut::MetaVar;
use crate::error::{CoreError, Result};
use crate::folds::MergeFold;
use crate::scenario::{
    measure_sweep_speedup, Approx, Certified, Exact, F64Divergence, F64ErrorBound,
    F64ScenarioSweep, FoldItem, Precision, ScenarioSweep,
};
use crate::scenario_set::ScenarioSet;
use cobra_provenance::PolySet;
use cobra_util::{par, Rat};
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

impl CobraSession {
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
    /// must outlive the call. This is
    /// [`CompiledComparison::fold`](crate::scenario::CompiledComparison::fold)
    /// over the session's cached engines, valuation and meta-variables.
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
    /// cores
    /// ([`CompiledComparison::fold_par`](crate::scenario::CompiledComparison::fold_par)
    /// over the session's cached engines). The scenario family is split
    /// into contiguous per-worker spans, each worker thread owns its own
    /// binder, batch buffers and a replica of `fold` ([`MergeFold::init`]),
    /// and the partial accumulators merge back in ascending span order
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
        Ok(prog
            .eval_scenario(&row)
            .iter()
            .map(|r| r.to_f64())
            .collect())
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
            let defaults = assign::default_meta_valuation(&state.meta_vars, &self.base_valuation);
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
        let (full_rows, comp_rows) =
            self.engines(state)
                .bind_rows(&state.meta_vars, &self.base_valuation, &set, |r| r.to_f64());
        Ok(measure_sweep_speedup(
            full_f64,
            compressed_f64,
            &full_rows,
            &comp_rows,
            warmup,
            runs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{rat, session_with_bound, PAPER_POLYS};
    use super::*;
    use cobra_provenance::Valuation;
    use std::time::Duration;

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
            .axis(
                [m3],
                (0..5)
                    .map(|i| Rat::ONE - Rat::new(i, 20))
                    .collect::<Vec<_>>(),
            )
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
            .axis(
                [m3],
                (0..5)
                    .map(|i| Rat::ONE - Rat::new(i, 20))
                    .collect::<Vec<_>>(),
            )
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
            .axis(
                [m3],
                (0..5)
                    .map(|i| Rat::ONE - Rat::new(i, 20))
                    .collect::<Vec<_>>(),
            )
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
        let scenarios = [
            Valuation::with_default(Rat::ONE),
            Valuation::with_default(Rat::ONE),
        ];
        assert!(matches!(
            s.assign(&scenarios[..]),
            Err(CoreError::Session(_))
        ));
        assert!(matches!(
            s.assign_meta(&scenarios[..]),
            Err(CoreError::Session(_))
        ));
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
    fn exact_overflow_is_typed_and_survivable() {
        // 2^126: one addition away from leaving i128.
        const BIG: &str = "85070591730234615865843651857942052864";
        let mut s = CobraSession::from_text(&format!("P = {BIG}*a + {BIG}*b")).unwrap();
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
        assert!(s
            .fold_par::<Certified, _>(&all_ones[..], &unlimited, worst())
            .is_ok());
        // the session stays fully usable on non-overflowing scenarios
        let a = s.registry_mut().var("a");
        let safe = Valuation::with_default(Rat::ONE).bind(a, Rat::int(0));
        assert!(s.assign(&safe).unwrap().is_exact());
    }
}
