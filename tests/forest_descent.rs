//! Property tests for the multi-tree coordinate-descent optimizer
//! (extension beyond the demo's single-tree setting): feasibility, parity
//! with the exact single-tree DP when the forest has one tree, and parity
//! with the brute-force forest oracle on small two-tree instances.

use cobra::core::{
    brute, optimize_forest_descent, AbstractionTree, CutPlanner, ExactDp, GroupAnalysis,
    PlanContext,
};
use cobra::provenance::{Monomial, PolySet, Polynomial, VarRegistry};
use cobra::util::Rat;
use proptest::prelude::*;

/// Builds a two-tree workload: monomials are `coeff · leafA · leafB`
/// with one leaf from each tree (the general shape of the telephony and
/// TPC-H parameterizations).
fn two_tree_workload(
    picks: &[(usize, usize, usize, i64)],
) -> (VarRegistry, AbstractionTree, AbstractionTree, PolySet<Rat>) {
    let mut reg = VarRegistry::new();
    let tree_a = AbstractionTree::parse("A(a0,a1,A2(a2,a3))", &mut reg).unwrap();
    let tree_b = AbstractionTree::parse("B(B1(b0,b1),b2)", &mut reg).unwrap();
    let a_leaves = tree_a.leaves().to_vec();
    let b_leaves = tree_b.leaves().to_vec();
    let mut polys = vec![Polynomial::zero(); 2];
    for &(poly, la, lb, coeff) in picks {
        polys[poly % 2].add_term(
            Monomial::from_pairs([
                (a_leaves[la % a_leaves.len()], 1),
                (b_leaves[lb % b_leaves.len()], 1),
            ]),
            Rat::int(coeff.max(1)),
        );
    }
    let set = PolySet::from_entries(
        polys
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("P{i}"), p)),
    );
    (reg, tree_a, tree_b, set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn descent_single_tree_equals_dp(
        picks in proptest::collection::vec((0usize..2, 0usize..4, 0usize..3, 1i64..50), 1..16),
        divisor in 1u64..5,
    ) {
        let (mut reg, tree_a, _, set) = two_tree_workload(&picks);
        let analysis = GroupAnalysis::analyze(&set, &tree_a).expect("one leaf per tree");
        let bound = (analysis.total_monomials() / divisor).max(1);
        let exact = ExactDp.plan(&PlanContext::new(&tree_a, &analysis), bound);
        let descent = optimize_forest_descent(&set, &[&tree_a], bound, &mut reg, 16);
        match (exact, descent) {
            (Ok(e), Ok(d)) => {
                prop_assert_eq!(e.variables, d.variables);
                prop_assert_eq!(e.size, d.size);
            }
            (Err(_), Err(_)) => {}
            (e, d) => return Err(TestCaseError::fail(format!("{e:?} vs {d:?}"))),
        }
    }

    #[test]
    fn descent_feasible_and_close_to_forest_oracle(
        picks in proptest::collection::vec((0usize..2, 0usize..4, 0usize..3, 1i64..50), 1..16),
        divisor in 1u64..6,
    ) {
        let (mut reg, tree_a, tree_b, set) = two_tree_workload(&picks);
        let full = set.total_monomials() as u64;
        let bound = (full / divisor).max(1);
        let descent =
            optimize_forest_descent(&set, &[&tree_a, &tree_b], bound, &mut reg, 32);
        let oracle = brute::optimize_forest(&set, &[&tree_a, &tree_b], bound, &mut reg, 100_000);
        match (descent, oracle) {
            (Ok(d), Ok(o)) => {
                prop_assert!(d.size <= bound, "descent must respect the bound");
                // heuristic never beats the oracle and, on these small
                // instances, should not trail it by more than one variable
                prop_assert!(d.variables <= o.variables);
                prop_assert!(
                    o.variables - d.variables <= 1,
                    "descent {} vs oracle {} (bound {})",
                    d.variables,
                    o.variables,
                    bound
                );
            }
            (Err(_), Err(_)) => {}
            (d, o) => return Err(TestCaseError::fail(format!("{d:?} vs {o:?}"))),
        }
    }
}
