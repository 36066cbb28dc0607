//! Delta updates: a live session absorbs upstream provenance changes by
//! patching what the derived-state table says to patch and dropping the
//! rest.

use super::{select::plan_tree, CobraSession, Mutation, TreePlan};
use crate::error::{CoreError, Result};
use crate::groups::GroupAnalysis;
use cobra_provenance::{BatchEvaluator, DeltaAction, DeltaReport, PolyDelta};
use cobra_util::Rat;

impl CobraSession {
    /// Applies a term-level delta to the session's polynomials **in
    /// place**, then patches — rather than rebuilds — every cache the
    /// delta touches, so a live session absorbs upstream provenance
    /// changes at `O(touched)` cost instead of a full
    /// regenerate → recompile → replan cycle:
    ///
    /// * the polynomial set is edited via
    ///   [`PolySet::apply_delta`](cobra_provenance::PolySet::apply_delta);
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
    /// thread counts in `tests/delta_diff.rs`, and op by op in
    /// `tests/session_model.rs`).
    ///
    /// **Atomicity.** Every validation error leaves the session
    /// untouched: the delta is checked in full — polynomial indices, and
    /// every monomial it adds or sets against every registered tree —
    /// before the first edit. The one documented exception is
    /// `InfeasibleBound`, which is not a validation error: the delta was
    /// applied, and only re-deriving the selection failed.
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
    /// `Delta` if the delta addresses a polynomial index outside the set,
    /// or adds or sets a monomial that mentions two leaves of one
    /// registered tree (nothing is modified); `InfeasibleBound` if a
    /// structural delta grows the minimum achievable size past the
    /// currently selected bound (the polynomials and frontier are
    /// updated, the selection is cleared, and the session stays live —
    /// select a feasible bound).
    pub fn apply_delta(&mut self, delta: &PolyDelta<Rat>) -> Result<DeltaReport> {
        // Materialize first: re-hydrated sessions decompile their full
        // engine before it is patched out from under them.
        let _ = self.polynomials();
        self.check_delta_against_trees(delta)?;
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
        // What the table drops, re-derive eagerly: a one-shot compression
        // recompresses, a frontier selection a structural delta dropped
        // re-selects its bound. Forest staircases are cleared outright.
        let forest = self.plan.as_ref().is_some_and(|p| p.tree().is_none());
        let one_shot = self
            .compressed
            .as_ref()
            .filter(|_| !forest)
            .map(|c| c.lazy_cut.is_none());
        self.invalidate(Mutation::Delta(&report));
        if one_shot == Some(true) {
            self.compress()?;
        } else if one_shot.is_some() && report.is_structural() {
            self.select_bound(self.bound.expect("a frontier selection records its bound"))?;
        }
        Ok(report)
    }

    /// Rejects a delta that would leave the trees' setting: every
    /// monomial it adds or sets may mention at most one leaf of each
    /// registered tree — the precondition of [`GroupAnalysis::analyze`].
    fn check_delta_against_trees(&self, delta: &PolyDelta<Rat>) -> Result<()> {
        let edits = delta.ops().iter();
        for op in edits.filter(|op| !matches!(op.action, DeltaAction::Remove)) {
            // An out-of-range index is `PolySet::apply_delta`'s to reject.
            let Some(poly) = self.polynomials().label(op.poly) else {
                continue;
            };
            for tree in &self.trees {
                let mut leaves = op.monomial.vars().filter(|&v| tree.contains_var(v));
                if let (Some(a), Some(b)) = (leaves.next(), leaves.next()) {
                    return Err(CoreError::Delta(format!(
                        "a term of {poly} mentions two leaves of tree {} ({} and {}); \
                         each term may mention at most one leaf per tree",
                        tree.name(),
                        self.reg.name(a),
                        self.reg.name(b)
                    )));
                }
            }
        }
        Ok(())
    }

    /// The flat full-side program patched for a delta, if one was
    /// compiled: coefficient-only deltas overwrite coefficient ranges and
    /// share every shape array; structural deltas splice only the touched
    /// CSR rows. Accumulated churn past a quarter of the program triggers
    /// a compacting recompile, bounding local-table drift.
    pub(super) fn patch_full_engines(
        &mut self,
        report: &DeltaReport,
    ) -> Option<BatchEvaluator<Rat>> {
        self.delta_churn += report.terms_touched;
        let old = self.full.flat.rat.get()?;
        let set = Self::polys_of(&self.polys, &self.full.flat.rat);
        let compact = self.delta_churn >= (old.program().num_terms() / 4).max(64);
        Some(if compact {
            self.delta_churn = 0;
            BatchEvaluator::compile(set)
        } else if report.is_structural() {
            BatchEvaluator::new(old.program().patched(set, &report.touched()))
        } else {
            BatchEvaluator::new(old.program().patched_coeffs(set, &report.touched()))
        })
    }

    /// Replans a tree frontier after a structural delta: re-analyzes only
    /// the polynomials whose monomial set changed (groups never span
    /// polynomials), replans reusing every clean subtree's DP table, and
    /// recomputes the report statistics the way a fresh plan does. The
    /// new plan starts with no selection, meta-variable identities or
    /// warm engines — frontier indices shifted.
    pub(super) fn refresh_frontier_after_structural_delta(
        &mut self,
        old: TreePlan,
        report: &DeltaReport,
    ) {
        let (set, tree) = (self.polynomials(), &self.trees[0]);
        let analysis = match old.analysis.get() {
            Some(prev) => prev.reanalyze_polys(set, tree, &report.structural_polys),
            // Re-hydrated cold state: nothing to patch, analyze afresh.
            None => GroupAnalysis::analyze(set, tree),
        };
        // Only a term spanning two leaves fails analysis, and
        // `apply_delta` rejects those before the first edit.
        let analysis = analysis.expect("a checked delta keeps every term in the tree's setting");
        let plan = plan_tree(set, tree, analysis, Some(old), self.reg.len());
        self.plan = Some(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        fresh_rebuild, planned_paper_session, rat, session_with_bound, FIG2_TREE,
    };
    use super::*;
    use cobra_provenance::{Monomial, Valuation, Var};

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
        assert!(state.cells.flat.engines.get().is_none());
        assert_eq!(state.report.compressed_size, 6);
        assert!(s.plan.as_ref().unwrap().selected.is_some());
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
            assert_eq!(
                patched.comparison(i).rows,
                rebuilt.comparison(i).rows,
                "scenario {i}"
            );
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
            assert_eq!(
                patched.comparison(i).rows,
                rebuilt.comparison(i).rows,
                "scenario {i}"
            );
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
        let sizes = |s: &CobraSession| -> Vec<u64> {
            s.frontier()
                .unwrap()
                .points()
                .iter()
                .map(|p| p.size)
                .collect()
        };
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        let before = s.polynomials().clone();
        let frontier_before = sizes(&s);
        let report_before = format!("{:?}", s.select_bound(6).unwrap());
        let v = s.registry_mut().var("p1");
        let mut bad_index = PolyDelta::new();
        bad_index.add(0, Monomial::var(v), rat("1"));
        bad_index.add(99, Monomial::var(v), rat("1")); // no such polynomial
                                                       // A term mentioning two leaves of the tree (p1 and p2 under
                                                       // Standard) is outside the single-tree setting.
        let [p1, p2, m1]: [Var; 3] = ["p1", "p2", "m1"].map(|n| s.registry_mut().var(n));
        let mut spanning = PolyDelta::new();
        spanning.set(0, Monomial::from_pairs([(p1, 1), (m1, 1)]), rat("300"));
        spanning.add(
            0,
            Monomial::from_pairs([(p1, 1), (p2, 1), (m1, 1)]),
            rat("1000"),
        );
        for delta in [bad_index, spanning] {
            assert!(matches!(s.apply_delta(&delta), Err(CoreError::Delta(_))));
            assert_eq!(s.polynomials(), &before);
            assert_eq!(sizes(&s), frontier_before);
            // the selection is untouched and the session still answers
            assert_eq!(format!("{:?}", s.select_bound(6).unwrap()), report_before);
            assert!(s
                .assign(Valuation::with_default(Rat::ONE))
                .unwrap()
                .is_exact());
        }
        // The first bound the old frontier would serve from stale state:
        // the all-ones scenario must stay exact there too.
        s.select_bound(4).unwrap();
        assert!(s
            .assign(Valuation::with_default(Rat::ONE))
            .unwrap()
            .is_exact());
    }
}
