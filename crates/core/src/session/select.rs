//! Planning and selection: the one-shot optimizer, the frontier and
//! staircase planners, and bound selection against them.

use super::{CobraSession, Compressed, ForestPlan, Mutation, Plan, PlanKind, TreePlan, WarmPoint};
use crate::apply::apply_cuts;
use crate::assign::SpeedupMeasurement;
use crate::cut::Cut;
use crate::error::{CoreError, Result};
use crate::groups::GroupAnalysis;
use crate::multi::{optimize_forest_descent, plan_forest_frontier, ForestFrontier};
use crate::planner::{CutFrontier, CutPlanner, ExactDp, PlanContext};
use crate::report::CompressionReport;
use crate::tree::AbstractionTree;
use cobra_provenance::{PolySet, ProvenanceStats, Var};
use cobra_util::{FxHashSet, Rat};

/// `tree: cut` per tree — the report's cut column.
fn cuts_display(trees: &[AbstractionTree], cuts: &[Cut]) -> Vec<String> {
    trees
        .iter()
        .zip(cuts)
        .map(|(t, c)| format!("{}: {}", t.name(), c.display(t)))
        .collect()
}

/// Plans the exact frontier of `analysis`, with the statistics reports
/// and re-selection read off the plan. `prev` is the plan a structural
/// delta replaces: its DP tables are reused for every subtree whose
/// weights did not change, and its reserved variables carry over.
pub(super) fn plan_tree(
    set: &PolySet<Rat>,
    tree: &AbstractionTree,
    analysis: GroupAnalysis,
    prev: Option<TreePlan>,
    reg_len: usize,
) -> Plan {
    let ctx = match prev.as_ref().and_then(|p| p.plan_snapshot.as_ref()) {
        Some(snapshot) => PlanContext::new_incremental(tree, &analysis, snapshot),
        None => PlanContext::new(tree, &analysis),
    };
    let frontier = ExactDp
        .plan_frontier(&ctx)
        .expect("the exact DP frontier always exists");
    let mut reserved = set.distinct_vars();
    let original_vars = reserved.len();
    reserved.extend(prev.into_iter().flat_map(|p| p.reserved));
    Plan {
        original_vars,
        original_size: set.total_monomials() as u64,
        selected: None,
        kind: PlanKind::Tree(Box::new(TreePlan {
            node_weight: analysis.node_weight.clone(),
            // Counted once, so selections can report `compressed_vars`
            // without building the compressed polynomials.
            invariant_vars: invariant_vars(set, &analysis),
            // Keep the DP tables: structural deltas replan incrementally
            // against them instead of rebuilding the whole tree.
            plan_snapshot: Some(ctx.snapshot()),
            analysis: analysis.into(),
            frontier,
            reserved,
            reg_len_at_plan: reg_len,
            subs: Default::default(),
            warm: Default::default(),
        })),
    }
}

/// Distinct non-tree variables of `set` (base-term and group-context
/// variables): they survive every cut.
fn invariant_vars(set: &PolySet<Rat>, analysis: &GroupAnalysis) -> usize {
    let mut invariant: FxHashSet<Var> = FxHashSet::default();
    for group in &analysis.groups {
        invariant.extend(group.context.vars());
    }
    for &(poly, term) in &analysis.base_terms {
        let poly = set.poly(poly as usize).expect("analyzed polynomial");
        invariant.extend(poly.terms()[term as usize].0.vars());
    }
    invariant.len()
}

/// The structural variable count of `cut`: the invariant variables plus
/// the meta-variable of every cut node some group touches — reading no
/// coefficient, like the size the planner bounds.
fn structural_vars(invariant_vars: usize, node_weight: &[u64], cut: &Cut) -> usize {
    invariant_vars
        + (cut.nodes().iter())
            .filter(|n| node_weight[n.index()] > 0)
            .count()
}

impl CobraSession {
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
        let unset = || CoreError::Session("set_bound must be called first".into());
        let bound = self.bound.ok_or_else(unset)?;
        if self.trees.is_empty() {
            return Err(CoreError::Session("no abstraction tree registered".into()));
        }
        // Reserve user-interned variables *before* the optimizer interns
        // its meta-variables, so the stamp advance below never hides them
        // from a later `select_bound`.
        self.sync_reserved_vars();
        let full_stats = ProvenanceStats::compute(self.polynomials());
        self.log(|| format!("input: {full_stats}"));
        let polys = Self::polys_of(&self.polys, &self.full.flat.rat);
        // One tree reports structurally, as `select_bound` does; a
        // forest's descent measures the applied polynomials.
        let (cuts, structural) = if let [tree] = &self.trees[..] {
            let analysis = GroupAnalysis::analyze(polys, tree)?;
            let cut = ExactDp.plan(&PlanContext::new(tree, &analysis), bound)?.cut;
            let invariant = invariant_vars(polys, &analysis);
            let vars = structural_vars(invariant, &analysis.node_weight, &cut);
            let size = analysis.compressed_size(cut.nodes());
            (vec![cut], Some((size, vars)))
        } else {
            let trees: Vec<&AbstractionTree> = self.trees.iter().collect();
            let cuts = optimize_forest_descent(polys, &trees, bound, &mut self.reg, 32)?.cuts;
            (cuts, None)
        };
        let vars = full_stats.distinct_vars;
        let state = self.apply_selection(&cuts, vars, structural, "chosen cut");
        let (original, compressed) = (state.report.original_size, state.report.compressed_size);
        self.log(|| format!("compressed {original} → {compressed} monomials"));
        // Engines compile lazily on first evaluation; the full-side
        // program stays session-cached either way.
        self.invalidate(Mutation::Select);
        self.compressed = Some(state);
        // The meta-variables the one-shot path just interned are the
        // session's own, not user variables: advance the generation stamp
        // past them so a later `select_bound` aliases onto them (it must
        // reproduce this compression bit for bit) instead of reserving
        // them and minting fresh meta-variables.
        let len = self.reg.len();
        if let Some(plan) = self.plan.as_mut().and_then(Plan::tree_mut) {
            plan.reg_len_at_plan = len;
        }
        self.report(None)
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
        if self.plan.is_none() {
            let (set, tree) = (self.polynomials(), &self.trees[0]);
            let analysis = GroupAnalysis::analyze(set, tree)?;
            self.plan = Some(plan_tree(set, tree, analysis, None, self.reg.len()));
            let frontier = self.frontier()?;
            let (points, min) = (frontier.len(), frontier.min_size());
            let max = frontier.points().last().map_or(0, |p| p.size);
            self.log(|| format!("planned frontier: {points} points, sizes {min}..={max}"));
        }
        self.frontier()
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
        if self.plan.is_none() {
            let set = Self::polys_of(&self.polys, &self.full.flat.rat);
            let trees: Vec<&AbstractionTree> = self.trees.iter().collect();
            let frontier = plan_forest_frontier(set, &trees, &mut self.reg, 32)?;
            let (points, min) = (frontier.len(), frontier.min_size());
            let max = frontier.points().last().map_or(0, |p| p.size);
            self.log(|| format!("planned forest frontier: {points} points, sizes {min}..={max}"));
            let set = self.polynomials();
            self.plan = Some(Plan {
                original_vars: set.distinct_vars().len(),
                original_size: set.total_monomials() as u64,
                selected: None,
                kind: PlanKind::Forest(ForestPlan {
                    frontier,
                    warm: Default::default(),
                }),
            });
        }
        self.forest_frontier()
    }

    /// The cached forest staircase, if
    /// [`compress_forest_frontier`](Self::compress_forest_frontier) has
    /// run.
    ///
    /// # Errors
    /// `Session` if the forest frontier has not been planned.
    pub fn forest_frontier(&self) -> Result<&ForestFrontier> {
        match self.plan.as_ref().map(|p| &p.kind) {
            Some(PlanKind::Forest(f)) => Ok(&f.frontier),
            _ => Err(CoreError::Session(
                "compress_forest_frontier must be called first".into(),
            )),
        }
    }

    /// The cached Pareto frontier, if [`compress_frontier`](Self::compress_frontier)
    /// has run.
    ///
    /// # Errors
    /// `Session` if the frontier has not been planned.
    pub fn frontier(&self) -> Result<&CutFrontier> {
        let plan = self.plan.as_ref().and_then(Plan::tree);
        let err = || CoreError::Session("compress_frontier must be called first".into());
        plan.map(|p| &p.frontier).ok_or_else(err)
    }

    /// Folds every variable interned since the frontier was planned (or
    /// last synced) into the plan's reserved set and advances the
    /// generation stamp. The registry is append-only, so its length is a
    /// perfect generation stamp for "what appeared since".
    pub(crate) fn sync_reserved_vars(&mut self) {
        let len = self.reg.len();
        if let Some(plan) = self.plan.as_mut().and_then(Plan::tree_mut) {
            plan.reserved
                .extend((plan.reg_len_at_plan..len).map(|i| Var(i as u32)));
            plan.reg_len_at_plan = len;
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
    /// `compressed_size` and `compressed_vars` are structural: the
    /// additive group formula, which reads no coefficient (see
    /// [`CompressionReport::compressed_size`]).
    ///
    /// Against a forest staircase
    /// ([`compress_forest_frontier`](Self::compress_forest_frontier)) the
    /// selected per-tree cuts are applied eagerly (forest applications
    /// have no lazy group recipe). Because that application is the
    /// expensive step, the outgoing selection — compressed polynomials,
    /// meta-variable identities and every compiled engine — is stashed
    /// whole, so hopping back and forth along the staircase (the demo
    /// slider's access pattern) re-applies each cut at most once.
    ///
    /// # Errors
    /// `Session` if [`compress_frontier`](Self::compress_frontier) has
    /// not run; `InfeasibleBound` if even the coarsest frontier point
    /// exceeds `bound`.
    pub fn select_bound(&mut self, bound: u64) -> Result<CompressionReport> {
        // Variables interned through `registry_mut` since planning must be
        // treated as reserved, or a cut node sharing their name would alias
        // its meta-variable onto the caller's variable — and a sweep
        // binding that variable would silently perturb the compressed side
        // only.
        self.sync_reserved_vars();
        let unplanned = || CoreError::Session("compress_frontier must be called first".into());
        let plan = self.plan.as_ref().ok_or_else(unplanned)?;
        let idx = plan.select_index(bound)?;
        let (prev, tree) = (plan.selected, plan.tree().is_some());
        let original = (plan.original_size, plan.original_vars);
        self.bound = Some(bound);
        if prev != Some(idx) || self.compressed.is_none() {
            let next = if tree {
                self.select_tree_point(idx, prev, original)
            } else {
                self.select_forest_point(idx, prev, original.1)
            };
            self.invalidate(Mutation::Select);
            self.compressed = Some(next);
            self.plan.as_mut().expect("checked above").selected = Some(idx);
        }
        self.report(None)
    }

    /// The selection of tree frontier point `idx`: the outgoing point's
    /// engines are stashed warm, and the incoming point's pre-installed if
    /// it was selected before.
    fn select_tree_point(
        &mut self,
        idx: usize,
        prev: Option<usize>,
        original: (u64, usize),
    ) -> Compressed {
        let Some(PlanKind::Tree(plan)) = self.plan.as_mut().map(|p| &mut p.kind) else {
            unreachable!("called for tree plans only")
        };
        // Stash the outgoing selection's engines (cheap `Arc` clones) so
        // hopping back to its bound later skips recompilation.
        if let (Some(old_idx), Some(old)) = (prev.filter(|&old| old != idx), &self.compressed) {
            if let Some(engines) = old.cells.flat.engines.get() {
                let warm = WarmPoint {
                    compressed: engines.compressed.clone(),
                    f64: old.cells.flat.f64.get().cloned(),
                    stale: Vec::new(),
                };
                plan.warm.insert(old_idx, warm);
            }
        }
        let point = &plan.frontier.points()[idx];
        // Re-selecting a point reuses the meta-variable identities it
        // minted the first time: its warm engines were compiled against
        // them.
        let (tree, reserved) = (&self.trees[0], &plan.reserved);
        let (substitution, meta_vars) = (plan.subs.entry(idx))
            .or_insert_with(|| point.cut.substitution(tree, &mut self.reg, reserved))
            .clone();
        // The substitution may have interned fresh meta-variable names;
        // advance the generation stamp past them so they are never
        // mistaken for user variables (name-addressing a meta-variable via
        // `registry_mut` must keep resolving to the meta-variable itself).
        plan.reg_len_at_plan = self.reg.len();
        let vars = structural_vars(plan.invariant_vars, &plan.node_weight, &point.cut);
        let mut next = Compressed::new(
            (substitution, meta_vars),
            original,
            (point.size, vars),
            cuts_display(&self.trees, std::slice::from_ref(&point.cut)),
            Some(point.cut.clone()),
            None,
        );
        // Warm re-selection: pre-install the stashed engines so the first
        // evaluation after hopping back costs nothing. The stash keeps
        // what was installed, so the arrays an absorbed delta replaced are
        // freed.
        if let Some(point) = self.warm_point(idx) {
            let plan = self.plan.as_mut().and_then(Plan::tree_mut);
            plan.expect("a tree plan").warm.insert(idx, point.clone());
            next.cells.flat = self.point_cells(point);
        }
        self.log_cuts("selected cut", &next.report.cuts);
        next
    }

    /// The selection of forest staircase point `idx`. Forest cuts are
    /// applied eagerly (there is no lazy group recipe), and because that
    /// application is the expensive step, the outgoing selection is
    /// stashed **whole** — compressed polynomials, meta-variable
    /// identities and every compiled engine — so hopping back and forth
    /// along the staircase (the demo slider's access pattern) re-applies
    /// each cut at most once.
    fn select_forest_point(
        &mut self,
        idx: usize,
        prev: Option<usize>,
        original_vars: usize,
    ) -> Compressed {
        let Some(PlanKind::Forest(plan)) = self.plan.as_mut().map(|p| &mut p.kind) else {
            unreachable!("called for forest plans only")
        };
        if let Some(old_idx) = prev.filter(|&old| old != idx) {
            if let Some(old) = self.compressed.take() {
                plan.warm.insert(old_idx, old);
            }
        }
        if let Some(warm) = plan.warm.remove(&idx) {
            self.log(move || format!("forest staircase warm hit — reinstalled point {idx}"));
            return warm;
        }
        let cuts = plan.frontier.points()[idx].cuts.clone();
        self.apply_selection(&cuts, original_vars, None, "selected forest cut")
    }

    /// The selection of one cut per tree, applied eagerly (the one-shot
    /// and forest paths) and traced under `verb`. Its report carries the
    /// `structural` `(size, variables)` of a single tree's cut, or else
    /// what the applied polynomials measure.
    fn apply_selection(
        &mut self,
        cuts: &[Cut],
        original_vars: usize,
        structural: Option<(u64, usize)>,
        verb: &str,
    ) -> Compressed {
        let polys = Self::polys_of(&self.polys, &self.full.flat.rat);
        let pairs: Vec<_> = self.trees.iter().zip(cuts).collect();
        let applied = apply_cuts(polys, &pairs, &mut self.reg);
        let sub = (applied.substitution.clone(), applied.meta_vars.clone());
        let original = (applied.original_size as u64, original_vars);
        let compressed =
            structural.unwrap_or_else(|| (applied.compressed_size as u64, applied.distinct_vars()));
        let cuts = cuts_display(&self.trees, cuts);
        let state = Compressed::new(sub, original, compressed, cuts, None, Some(applied));
        self.log_cuts(verb, &state.report.cuts);
        state
    }

    /// Traces each `tree: cut` line of a new selection.
    fn log_cuts(&mut self, verb: &str, cuts: &[String]) {
        for line in cuts {
            self.log(|| format!("{verb} — {line}"));
        }
    }

    /// A full report of the current selection, optionally including a
    /// speedup measurement.
    pub fn report(&self, speedup: Option<SpeedupMeasurement>) -> Result<CompressionReport> {
        let mut report = self.compressed_state()?.report.clone();
        (report.bound, report.speedup) = (self.bound.unwrap_or(0), speedup);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{
        planned_paper_session, rat, session_with_bound, FIG2_TREE, PAPER_POLYS,
    };
    use super::*;
    use cobra_provenance::Valuation;

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

    /// `U·x` cancels under the cut `{U, c}`: both paths report the
    /// structural size the planner bounded, and both hold the two terms
    /// that survive.
    #[test]
    fn cancelling_group_members_report_structural_sizes_on_both_paths() {
        const POLYS: &str = "P = 2*a*x - 2*b*x + 3*c*x + 5*y";
        const TREE: &str = "T(U(a,b),c)";
        let mut selected = CobraSession::from_text(POLYS).unwrap();
        selected.add_tree_text(TREE).unwrap();
        selected.compress_frontier().unwrap();
        let from_frontier = selected.select_bound(3).unwrap();
        let mut one_shot = CobraSession::from_text(POLYS).unwrap();
        one_shot.add_tree_text(TREE).unwrap();
        one_shot.set_bound(3);
        let compressed = one_shot.compress().unwrap();
        assert_eq!(format!("{from_frontier:?}"), format!("{compressed:?}"));
        // x, y, U and c
        assert_eq!(
            (compressed.compressed_size, compressed.compressed_vars),
            (3, 4)
        );
        let all_ones = Valuation::with_default(Rat::ONE);
        assert_eq!(
            selected.assign(&all_ones).unwrap().rows,
            one_shot.assign(&all_ones).unwrap().rows
        );
        for s in [&selected, &one_shot] {
            assert_eq!(s.compressed_polynomials().unwrap().total_monomials(), 2);
        }
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
        assert!(s
            .compressed
            .as_ref()
            .unwrap()
            .cells
            .flat
            .engines
            .get()
            .is_none());
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
        assert!(s
            .compressed
            .as_ref()
            .unwrap()
            .cells
            .flat
            .engines
            .get()
            .is_some());
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
        assert!(
            !metas.contains(&user_var),
            "meta-variable aliases a user variable"
        );
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
        let metas1: Vec<Var> = s
            .compressed
            .as_ref()
            .unwrap()
            .meta_vars
            .iter()
            .map(|m| m.var)
            .collect();
        let m3 = s.registry_mut().var("m3");
        let scenario = Valuation::with_default(Rat::ONE).bind(m3, rat("0.8"));
        let first = s.assign(&scenario).unwrap();
        s.select_bound(4).unwrap();
        let _ = s.assign(&scenario).unwrap();
        s.select_bound(6).unwrap();
        let metas2: Vec<Var> = s
            .compressed
            .as_ref()
            .unwrap()
            .meta_vars
            .iter()
            .map(|m| m.var)
            .collect();
        assert_eq!(metas1, metas2);
        // the warm path reinstalled the stashed engines and answers match
        assert!(s
            .compressed
            .as_ref()
            .unwrap()
            .cells
            .flat
            .engines
            .get()
            .is_some());
        assert_eq!(first.rows, s.assign(&scenario).unwrap().rows);
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
