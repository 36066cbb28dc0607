//! Multi-tree forests — the full-paper generalization (extension).
//!
//! The demonstration restricts to a single abstraction tree, where the
//! problem is PTIME. With several trees the interactions between cuts make
//! the problem NP-hard in general (SIGMOD'19 \[4\]), so we provide a
//! **coordinate-descent** heuristic: fix the cuts of all trees but one,
//! substitute them into the provenance, and re-optimize the remaining tree
//! exactly with the single-tree planner ([`crate::planner::ExactDp`]);
//! iterate until a fixpoint. Each step is exact given the others, so the
//! objective `(Σ variables, −size)` improves lexicographically and the
//! process terminates. The brute-force forest search
//! ([`crate::brute::optimize_forest`]) serves as the oracle on small
//! instances.

use crate::apply::{apply_cuts, AppliedAbstraction};
use crate::cut::Cut;
use crate::error::{CoreError, Result};
use crate::groups::GroupAnalysis;
use crate::planner::{CutPlanner, ExactDp, PlanContext};
use crate::scenario::{CompiledComparison, ScenarioSweep};
use crate::scenario_set::ScenarioSet;
use crate::tree::AbstractionTree;
use cobra_provenance::{Coeff, PolySet, Valuation, VarRegistry};
use cobra_util::Rat;

/// Output of the coordinate-descent forest optimizer.
#[derive(Clone, Debug)]
pub struct ForestSolution {
    /// One cut per tree, in input order.
    pub cuts: Vec<Cut>,
    /// Total variables across all cuts (Σ |cutᵢ|).
    pub variables: usize,
    /// Measured compressed size with all cuts applied.
    pub size: u64,
    /// Number of improvement rounds until the fixpoint.
    pub rounds: usize,
}

/// Coordinate-descent optimization over a forest of abstraction trees.
///
/// # Errors
/// [`CoreError::InfeasibleBound`] if even the all-roots abstraction
/// exceeds `bound`; [`CoreError::MonomialSpansTree`] if some monomial
/// mentions two leaves of one tree.
pub fn optimize_forest_descent<C: Coeff>(
    set: &PolySet<C>,
    trees: &[&AbstractionTree],
    bound: u64,
    reg: &mut VarRegistry,
    max_rounds: usize,
) -> Result<ForestSolution> {
    assert!(!trees.is_empty(), "forest must contain at least one tree");
    // Start from the coarsest abstraction: every tree cut at its root.
    let mut cuts: Vec<Cut> = trees.iter().map(|t| Cut::root(t)).collect();
    let pairs: Vec<(&AbstractionTree, &Cut)> =
        trees.iter().copied().zip(cuts.iter()).collect();
    let mut size = apply_cuts(set, &pairs, reg).compressed_size as u64;
    if size > bound {
        return Err(CoreError::InfeasibleBound {
            min_achievable: size,
        });
    }

    let mut rounds = 0usize;
    for _ in 0..max_rounds {
        rounds += 1;
        let mut improved = false;
        for i in 0..trees.len() {
            // Substitute every other tree's current cut.
            let others: Vec<(&AbstractionTree, &Cut)> = trees
                .iter()
                .copied()
                .zip(cuts.iter())
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, pair)| pair)
                .collect();
            let substituted = if others.is_empty() {
                set.clone()
            } else {
                apply_cuts(set, &others, reg).compressed
            };
            // Exact single-tree optimization on the substituted set,
            // through the unified planner.
            let analysis = GroupAnalysis::analyze(&substituted, trees[i])?;
            let sol = ExactDp.plan(&PlanContext::new(trees[i], &analysis), bound)?;
            let better = sol.variables > cuts[i].len()
                || (sol.variables == cuts[i].len() && sol.size < size);
            if better {
                // Confirm with a real application (guards the cost model).
                let mut candidate = cuts.clone();
                candidate[i] = sol.cut.clone();
                let pairs: Vec<(&AbstractionTree, &Cut)> =
                    trees.iter().copied().zip(candidate.iter()).collect();
                let measured = apply_cuts(set, &pairs, reg).compressed_size as u64;
                if measured <= bound && (sol.variables > cuts[i].len() || measured < size) {
                    cuts = candidate;
                    size = measured;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    Ok(ForestSolution {
        variables: cuts.iter().map(Cut::len).sum(),
        cuts,
        size,
        rounds,
    })
}

/// One point of a forest's expressiveness/size trade-off curve: a total
/// cut cardinality across all trees, the measured compressed size, and
/// the witness cuts (one per tree, input order).
#[derive(Clone, Debug)]
pub struct ForestFrontierPoint {
    /// Σ |cutᵢ| across the forest.
    pub variables: usize,
    /// Measured compressed size with all cuts applied.
    pub size: u64,
    /// One witness cut per tree, in input order.
    pub cuts: Vec<Cut>,
}

/// The forest generalization of [`CutFrontier`](crate::planner::CutFrontier):
/// a staircase of coordinate-descent solutions in strictly increasing
/// `variables` **and** `size`, so any bound resolves in `O(log n)` without
/// re-running the descent. Unlike the single-tree frontier the points are
/// heuristic (the forest problem is NP-hard), but selection against them
/// is exactly as cheap.
#[derive(Clone, Debug, Default)]
pub struct ForestFrontier {
    points: Vec<ForestFrontierPoint>,
}

impl ForestFrontier {
    /// Number of frontier points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the frontier has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points in ascending `variables` (and `size`) order.
    pub fn points(&self) -> &[ForestFrontierPoint] {
        &self.points
    }

    /// The most expressive point whose size fits `bound`, as an index into
    /// [`points`](Self::points). `None` if even the coarsest point exceeds
    /// the bound.
    pub fn select_index(&self, bound: u64) -> Option<usize> {
        let feasible = self.points.partition_point(|p| p.size <= bound);
        feasible.checked_sub(1)
    }

    /// The smallest size on the curve (reported for infeasible bounds).
    pub fn min_size(&self) -> u64 {
        self.points.first().map_or(0, |p| p.size)
    }
}

/// Plans a forest's whole bound axis in one pass: repeated
/// [`optimize_forest_descent`] runs at decreasing bounds (each run's bound
/// is one below the previous solution's size, so every distinct attainable
/// size is visited once), Pareto-filtered into a [`ForestFrontier`]. The
/// session's `select_bound` then serves any forest bound as a staircase
/// lookup — the multi-tree sibling of
/// [`plan_frontier`](crate::planner::CutPlanner::plan_frontier).
///
/// # Errors
/// [`CoreError::MonomialSpansTree`] if some monomial mentions two leaves
/// of one tree; descent errors other than an infeasible bound propagate.
pub fn plan_forest_frontier<C: Coeff>(
    set: &PolySet<C>,
    trees: &[&AbstractionTree],
    reg: &mut VarRegistry,
    max_rounds: usize,
) -> Result<ForestFrontier> {
    let mut raw: Vec<ForestFrontierPoint> = Vec::new();
    let mut bound = set.total_monomials() as u64;
    loop {
        match optimize_forest_descent(set, trees, bound, reg, max_rounds) {
            Ok(sol) => {
                let next = sol.size.checked_sub(1);
                raw.push(ForestFrontierPoint {
                    variables: sol.variables,
                    size: sol.size,
                    cuts: sol.cuts,
                });
                match next {
                    Some(b) if b > 0 => bound = b,
                    _ => break,
                }
            }
            Err(CoreError::InfeasibleBound { .. }) => break,
            Err(e) => return Err(e),
        }
    }
    // Visited in strictly decreasing size; flip to ascending and keep only
    // points that strictly gain expressiveness, so selection's "last point
    // with size ≤ bound" is also the most expressive feasible one.
    raw.reverse();
    let mut points: Vec<ForestFrontierPoint> = Vec::new();
    for p in raw {
        if points
            .last()
            .is_none_or(|l: &ForestFrontierPoint| p.variables > l.variables)
        {
            points.push(p);
        }
    }
    Ok(ForestFrontier { points })
}

/// Batched full-vs-compressed sweep for a forest application: multi-tree
/// sessions run their scenario exploration through the same compiled
/// engine as single-tree ones (meta-variables from every tree project at
/// once). Accepts anything convertible to a
/// [`ScenarioSet`] — grids stream without materializing valuations. To
/// aggregate huge families without the result matrix, or under a budget,
/// call [`CompiledComparison::fold`] / [`CompiledComparison::fold_par`]
/// on the same compiled pair with `(&applied.meta_vars, base)`.
pub fn forest_sweep(
    set: &PolySet<Rat>,
    applied: &AppliedAbstraction<Rat>,
    base: &Valuation<Rat>,
    scenarios: impl Into<ScenarioSet>,
) -> ScenarioSweep {
    let engines = CompiledComparison::compile(set, &applied.compressed);
    engines.sweep(&applied.meta_vars, base, &scenarios.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::paper_plans_tree;
    use cobra_provenance::parse_polyset;
    use cobra_util::Rat;

    fn setup() -> (VarRegistry, AbstractionTree, PolySet<Rat>) {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        let set = parse_polyset(src, &mut reg).unwrap();
        (reg, tree, set)
    }

    #[test]
    fn single_tree_descent_matches_dp() {
        let (mut reg, tree, set) = setup();
        for bound in [4u64, 6, 8, 14] {
            let sol =
                optimize_forest_descent(&set, &[&tree], bound, &mut reg, 10).unwrap();
            let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
            let exact = ExactDp.plan(&PlanContext::new(&tree, &analysis), bound).unwrap();
            assert_eq!(sol.variables, exact.variables, "bound {bound}");
            assert_eq!(sol.size, exact.size, "bound {bound}");
        }
    }

    #[test]
    fn two_tree_descent_matches_brute_force() {
        let (mut reg, plans, set) = setup();
        let months = AbstractionTree::parse("M(m1,m3)", &mut reg).unwrap();
        for bound in [2u64, 4, 6, 7, 10, 14] {
            let descent =
                optimize_forest_descent(&set, &[&plans, &months], bound, &mut reg, 20)
                    .unwrap();
            let brute = crate::brute::optimize_forest(
                &set,
                &[&plans, &months],
                bound,
                &mut reg,
                1_000_000,
            )
            .unwrap();
            // The heuristic must be feasible and match the oracle's
            // variable count on these small, well-behaved instances.
            assert!(descent.size <= bound, "bound {bound}");
            assert_eq!(
                descent.variables, brute.variables,
                "bound {bound}: descent {descent:?} vs brute {brute:?}"
            );
        }
    }

    #[test]
    fn forest_frontier_is_a_strict_staircase() {
        let (mut reg, plans, set) = setup();
        let months = AbstractionTree::parse("M(m1,m3)", &mut reg).unwrap();
        let frontier =
            plan_forest_frontier(&set, &[&plans, &months], &mut reg, 20).unwrap();
        assert!(!frontier.is_empty());
        let points = frontier.points();
        for pair in points.windows(2) {
            assert!(pair[0].size < pair[1].size, "sizes strictly ascend");
            assert!(
                pair[0].variables < pair[1].variables,
                "variables strictly ascend"
            );
        }
        // Every point's achieved solution matches a fresh descent at its
        // own size bound.
        for point in points {
            let sol = optimize_forest_descent(
                &set,
                &[&plans, &months],
                point.size,
                &mut reg,
                20,
            )
            .unwrap();
            assert_eq!(sol.variables, point.variables);
            assert_eq!(sol.size, point.size);
            assert_eq!(point.cuts.len(), 2);
        }
        // Selection resolves like the single-tree staircase.
        let coarsest = points[0].size;
        assert_eq!(frontier.min_size(), coarsest);
        assert!(frontier.select_index(coarsest.saturating_sub(1)).is_none());
        assert_eq!(frontier.select_index(coarsest), Some(0));
        assert_eq!(
            frontier.select_index(u64::MAX),
            Some(frontier.len() - 1)
        );
    }

    #[test]
    fn forest_sweep_runs_compiled_comparison() {
        let (mut reg, plans, set) = setup();
        let months = AbstractionTree::parse("M(m1,m3)", &mut reg).unwrap();
        let sol =
            optimize_forest_descent(&set, &[&plans, &months], 4, &mut reg, 20).unwrap();
        let pairs: Vec<(&AbstractionTree, &Cut)> = [&plans, &months]
            .into_iter()
            .zip(sol.cuts.iter())
            .collect();
        let applied = apply_cuts(&set, &pairs, &mut reg);
        let base = Valuation::with_default(Rat::ONE);
        let m3 = reg.var("m3");
        let scenarios = vec![
            Valuation::with_default(Rat::ONE).bind(m3, Rat::parse("0.8").unwrap()),
            Valuation::with_default(Rat::ONE),
        ];
        let sweep = forest_sweep(&set, &applied, &base, &scenarios);
        assert_eq!(sweep.len(), 2);
        // the all-ones scenario is always exact (defaults project losslessly)
        assert!(sweep.comparison(1).is_exact());
        // batched results match the scalar comparison path
        for (scenario, cmp) in scenarios.iter().zip(sweep.comparisons()) {
            let leaf_val = base.overridden_by(scenario);
            let meta_val = leaf_val.overridden_by(&crate::assign::project_scenario(
                &applied.meta_vars,
                &leaf_val,
            ));
            let expected = crate::assign::ResultComparison::evaluate(
                &set,
                &leaf_val,
                &applied.compressed,
                &meta_val,
            );
            assert_eq!(cmp.rows, expected.rows);
        }
    }

    #[test]
    fn infeasible_forest_bound() {
        let (mut reg, plans, set) = setup();
        let months = AbstractionTree::parse("M(m1,m3)", &mut reg).unwrap();
        assert!(matches!(
            optimize_forest_descent(&set, &[&plans, &months], 1, &mut reg, 10),
            Err(CoreError::InfeasibleBound { min_achievable: 2 })
        ));
    }

    use crate::tree::AbstractionTree;
}
