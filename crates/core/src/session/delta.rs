//! Delta updates: a live session absorbs upstream provenance changes by
//! patching what the derived-state table says to patch and dropping the
//! rest.

use super::{
    select::plan_tree, CobraSession, CompCells, Compressed, FullCells, Mutation, Plan, TreePlan,
    WarmPoint,
};
use crate::apply::GroupCompressor;
use crate::cut::{Cut, MetaVar};
use crate::error::{CoreError, Result};
use crate::groups::GroupAnalysis;
use crate::scenario::CompiledComparison;
use cobra_provenance::{BatchEvaluator, DeltaAction, DeltaReport, PolyDelta, PolySet, Polynomial};
use cobra_util::Rat;
use std::cell::OnceCell;

/// Polynomial `p` of a delta-touched set (indices were validated).
fn poly_at(set: &PolySet<Rat>, p: usize) -> &Polynomial<Rat> {
    set.poly(p).expect("touched index in range")
}

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
    ///   recompile; its `f64` shadow re-converts only the touched rows;
    /// * a **coefficient-only** delta on a single tree's frontier
    ///   selection goes through the abstraction: a compressed coefficient
    ///   is the sum of its members', so the touched polynomials'
    ///   compressed rows are rebuilt from their own slice of the group
    ///   analysis and spliced into the compressed program and its `f64`
    ///   shadow the same way. The analysis, frontier, selection and report
    ///   are kept — a tree report is structural and reads no coefficient —
    ///   and warm-stashed frontier points absorb the delta when next
    ///   selected. The cost is `O(touched)` plus one coefficient-array copy
    ///   per program: the `Rat` and `f64` programs of the full and the
    ///   compressed side; the following [`warm_up`](Self::warm_up) has
    ///   nothing left to build;
    /// * a structural delta re-analyzes only the touched polynomials of a
    ///   planned frontier (groups never span polynomials), replans reusing
    ///   the DP tables of every subtree whose weights did not change, and
    ///   re-selects the active bound;
    /// * a one-shot [`compress`](Self::compress) state is re-derived, and a
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

    /// The flat full-side cells patched for a delta, if the exact program
    /// was compiled: the touched polynomials' rows are replaced
    /// ([`patched`](cobra_provenance::EvalProgram::patched):
    /// coefficient-only deltas share every shape array, structural ones
    /// splice) and the `f64` shadow re-converts only those rows.
    /// Accumulated churn past a quarter of the program triggers a
    /// compacting recompile instead, bounding local-table drift; the
    /// shadow then re-derives lazily, as after a structural delta.
    pub(super) fn patched_full_cells(&mut self, report: &DeltaReport) -> FullCells {
        self.delta_churn += report.terms_touched;
        let Some(old) = self.full.flat.rat.get() else {
            return FullCells::default();
        };
        let set = Self::polys_of(&self.polys, &self.full.flat.rat);
        let touched = report.touched();
        let rat = if self.delta_churn >= (old.program().num_terms() / 4).max(64) {
            self.delta_churn = 0;
            BatchEvaluator::compile(set)
        } else {
            let rows: Vec<_> = touched.iter().map(|&p| (p, poly_at(set, p))).collect();
            BatchEvaluator::new(old.program().patched(&rows))
        };
        let f64 = (self.full.flat.f64.get())
            .and_then(|prev| rat.program().patched_f64(prev.program(), &touched));
        FullCells {
            rat: rat.into(),
            f64: f64
                .map(|p| BatchEvaluator::new(p).into())
                .unwrap_or_default(),
        }
    }

    /// A frontier selection's flat cells patched for a coefficient-only
    /// delta to the polynomials `touched` ([`patched_point`]); empty —
    /// rebuilt lazily — when nothing was compiled.
    ///
    /// [`patched_point`]: Self::patched_point
    pub(super) fn patched_cells(&self, state: &Compressed, touched: &[usize]) -> CompCells {
        let cut = state.lazy_cut.as_ref().expect("a frontier selection");
        let flat = &state.cells.flat;
        let point = (flat.engines.get()).map(|engines| {
            let f64 = flat.f64.get();
            self.patched_point(&engines.compressed, f64, cut, &state.meta_vars, touched)
        });
        point.map(|p| self.point_cells(p)).unwrap_or_default()
    }

    /// The flat compressed engine and `f64` shadow of the tree frontier
    /// point with `cut` and `meta_vars`, patched for a coefficient-only
    /// delta to the polynomials `touched`. Groups never span polynomials,
    /// so each touched polynomial's compressed row is rebuilt from its own
    /// slice of the group analysis by the same constructor a fresh apply
    /// uses ([`GroupCompressor`]) and replaced in the compressed program
    /// ([`patched`](cobra_provenance::EvalProgram::patched): the shape
    /// arrays stay shared unless a merged coefficient cancelled to zero or
    /// un-cancelled); the `f64` shadow re-converts those rows, or is left
    /// to rebuild lazily after a splice.
    pub(super) fn patched_point(
        &self,
        compressed: &BatchEvaluator<Rat>,
        f64: Option<&BatchEvaluator<f64>>,
        cut: &Cut,
        meta_vars: &[MetaVar],
        touched: &[usize],
    ) -> WarmPoint {
        let plan = self.plan.as_ref().and_then(Plan::tree);
        let analysis = (plan.and_then(|p| p.analysis.get()))
            .expect("a delta with compressed rows to patch analyzes the plan first");
        let compressor = GroupCompressor::new(&self.trees[0], analysis, cut, meta_vars);
        let set = self.polynomials();
        let rebuilt: Vec<_> = (touched.iter())
            .map(|&p| (p, compressor.poly(p, poly_at(set, p))))
            .collect();
        let rows: Vec<_> = rebuilt.iter().map(|(p, poly)| (*p, poly)).collect();
        let program = compressed.program().patched(&rows);
        let f64 = f64.and_then(|prev| program.patched_f64(prev.program(), touched));
        WarmPoint {
            compressed: BatchEvaluator::new(program),
            f64: f64.map(BatchEvaluator::new),
            stale: Vec::new(),
        }
    }

    /// A frontier point's flat cells: its compressed engine and `f64`
    /// shadow, paired with the session's full engine. The Higham shadow
    /// rebuilds lazily.
    pub(super) fn point_cells(&self, point: WarmPoint) -> CompCells {
        let full = self.full_engine_in(false).clone();
        CompCells {
            engines: CompiledComparison::from_engines(full, point.compressed).into(),
            f64: point.f64.map(OnceCell::from).unwrap_or_default(),
            shadow: OnceCell::new(),
        }
    }

    /// The tree warm-stash entry of frontier point `idx`, with the
    /// coefficient-only deltas it has not absorbed yet patched in
    /// ([`patched_point`](Self::patched_point)).
    pub(crate) fn warm_point(&self, idx: usize) -> Option<WarmPoint> {
        let plan = self.plan.as_ref().and_then(Plan::tree)?;
        let warm = plan.warm.get(&idx)?;
        if warm.stale.is_empty() {
            return Some(warm.clone());
        }
        let cut = &plan.frontier.points()[idx].cut;
        let (_, meta_vars) = (plan.subs.get(&idx))
            .expect("a stashed point was selected, so its meta-variables are memoized");
        let f64 = warm.f64.as_ref();
        Some(self.patched_point(&warm.compressed, f64, cut, meta_vars, &warm.stale))
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

    /// The flat compressed engines of the current selection.
    fn selected_cells(s: &CobraSession) -> &CompCells {
        &s.compressed.as_ref().unwrap().cells.flat
    }

    /// The compressed rows of `s`'s current selection, as the program
    /// holds them: decompiled polynomials, then `f64` answers on a grid.
    fn compressed_rows(s: &CobraSession, grid: &[Valuation<Rat>]) -> (PolySet<Rat>, Vec<u64>) {
        let cells = selected_cells(s);
        let exact = cells
            .engines
            .get()
            .unwrap()
            .compressed
            .program()
            .decompile();
        let sweep = s.sweep_f64(grid).unwrap();
        let bits = (0..grid.len())
            .flat_map(|i| {
                sweep
                    .compressed_row(i)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect();
        (exact, bits)
    }

    fn grid(s: &mut CobraSession) -> Vec<Valuation<Rat>> {
        let (m3, b1) = (s.registry_mut().var("m3"), s.registry_mut().var("b1"));
        (0..8)
            .map(|i: i128| {
                Valuation::with_default(Rat::ONE)
                    .bind(m3, Rat::ONE - Rat::new(i, 100))
                    .bind(b1, Rat::ONE + Rat::new(i, 50))
            })
            .collect()
    }

    /// A coefficient-only delta to P1's March Standard term.
    fn march_price(s: &mut CobraSession, price: &str) {
        let (p1v, m3) = (s.registry_mut().var("p1"), s.registry_mut().var("m3"));
        let idx = s.polynomials().index_of("P1").unwrap();
        let mut delta = PolyDelta::new();
        delta.set(idx, Monomial::from_pairs([(p1v, 1), (m3, 1)]), rat(price));
        assert!(!s.apply_delta(&delta).unwrap().is_structural());
    }

    #[test]
    fn coeff_only_delta_patches_in_place_and_matches_fresh_rebuild() {
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        s.warm_up().unwrap(); // compile the engines the delta patches
        let before = selected_cells(&s).engines.get().unwrap().compressed.clone();
        let full_before = s.full_engine_in(false).clone();
        march_price(&mut s, "250");
        // Selection metadata survived, and the engines were patched in
        // place: the compressed program shares every shape array with its
        // predecessor, and so do both f64 shadows with their programs.
        assert_eq!(s.compressed.as_ref().unwrap().report.compressed_size, 6);
        assert!(s.plan.as_ref().unwrap().selected.is_some());
        let cells = selected_cells(&s);
        let patched = cells.engines.get().expect("patched, not dropped").clone();
        let shadow = cells
            .f64
            .get()
            .expect("the f64 shadow is patched too")
            .clone();
        assert!(patched.compressed.program().shares_shape(before.program()));
        assert!(!std::ptr::eq(
            patched.compressed.program(),
            before.program()
        ));
        assert!(shadow.program().shares_shape(patched.compressed.program()));
        let full = s.full_engine_in(false);
        assert!(full.program().shares_shape(full_before.program()));
        assert!(std::ptr::eq(patched.full.program(), full.program()));
        assert!(s.full_f64_in(false).program().shares_shape(full.program()));
        // warm_up has nothing left to build.
        let full_f64: *const _ = s.full_f64_in(false).program();
        s.warm_up().unwrap();
        let cells = selected_cells(&s);
        assert!(std::ptr::eq(
            cells.engines.get().unwrap().compressed.program(),
            patched.compressed.program()
        ));
        assert!(std::ptr::eq(
            cells.f64.get().unwrap().program(),
            shadow.program()
        ));
        assert!(std::ptr::eq(s.full_f64_in(false).program(), full_f64));

        let fresh = fresh_rebuild(&s, 6);
        fresh.warm_up().unwrap();
        let grid = grid(&mut s);
        assert_eq!(compressed_rows(&s, &grid), compressed_rows(&fresh, &grid));
        let patched = s.sweep(&grid).unwrap();
        let rebuilt = fresh.sweep(&grid).unwrap();
        for i in 0..grid.len() {
            assert_eq!(
                patched.comparison(i).rows,
                rebuilt.comparison(i).rows,
                "scenario {i}"
            );
        }
    }

    #[test]
    fn a_stashed_point_absorbs_coeff_only_deltas_when_reselected() {
        let mut s = planned_paper_session();
        s.select_bound(6).unwrap();
        s.warm_up().unwrap();
        let stashed = selected_cells(&s).engines.get().unwrap().compressed.clone();
        s.select_bound(4).unwrap(); // stashes the size-6 point
        s.warm_up().unwrap();
        march_price(&mut s, "250");
        march_price(&mut s, "260");
        let plan = s.plan.as_ref().and_then(Plan::tree).unwrap();
        let point = plan.frontier.select_index(6).unwrap();
        assert_eq!(
            plan.warm[&point].stale,
            [0],
            "absorbed only when re-selected"
        );
        // Hopping back re-installs the stash entry, patched: its program
        // keeps the stashed shape arrays and nothing compiles.
        s.select_bound(6).unwrap();
        let cells = selected_cells(&s);
        let installed = cells.engines.get().expect("re-installed warm").clone();
        assert!(cells.f64.get().is_some());
        assert!(installed
            .compressed
            .program()
            .shares_shape(stashed.program()));
        assert!(std::ptr::eq(
            installed.full.program(),
            s.full_engine_in(false).program()
        ));
        let fresh = fresh_rebuild(&s, 6);
        fresh.warm_up().unwrap();
        let grid = grid(&mut s);
        assert_eq!(compressed_rows(&s, &grid), compressed_rows(&fresh, &grid));
        let scenario = &grid[3];
        assert_eq!(
            s.assign(scenario).unwrap().rows,
            fresh.assign(scenario).unwrap().rows
        );
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
