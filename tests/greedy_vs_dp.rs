//! Ablation A1's correctness side: the greedy agglomerative baseline is
//! feasible but *strictly suboptimal* on a constructed witness, while the
//! DP is exactly optimal everywhere (property-tested on synthetic
//! workloads against the brute-force oracle elsewhere).

use cobra::core::{AbstractionTree, CutPlanner, ExactDp, Greedy, GroupAnalysis, PlanContext};
use cobra::datagen::synthetic::{generate, SyntheticConfig};
use cobra::provenance::{parse_polyset, VarRegistry};
use proptest::prelude::*;

/// The trap: merging A has the better savings-per-variable ratio (2.0 vs
/// 1.5), but the bound only requires the savings that merging B alone
/// provides. Greedy commits to A first and is forced to merge both
/// (2 variables); the DP keeps A split (3 variables).
#[test]
fn greedy_is_strictly_suboptimal_on_ratio_trap() {
    let mut reg = VarRegistry::new();
    let tree = AbstractionTree::parse("T(A(a1,a2), B(b1,b2,b3))", &mut reg).unwrap();
    let set = parse_polyset(
        "P = 1*c1*a1 + 1*c1*a2 + 1*c2*a1 + 1*c2*a2 \
           + 1*c3*b1 + 1*c3*b2 + 1*c4*b2 + 1*c4*b3 + 1*c5*b1 + 1*c5*b3",
        &mut reg,
    )
    .unwrap();
    let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
    assert_eq!(analysis.total_monomials(), 10);

    let bound = 7; // requires saving ≥ 3: merging B alone saves exactly 3
    let greedy = Greedy
        .plan(&PlanContext::new(&tree, &analysis), bound)
        .unwrap();
    let exact = ExactDp
        .plan(&PlanContext::new(&tree, &analysis), bound)
        .unwrap();
    assert_eq!(exact.variables, 3, "DP keeps a1, a2, B");
    assert_eq!(exact.size, 7);
    assert_eq!(greedy.variables, 2, "greedy merged both subtrees");
    assert!(greedy.size <= bound);
    assert!(greedy.variables < exact.variables, "witnessed gap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On random synthetic workloads: greedy is always feasible when the
    /// DP is, never exceeds the optimum, and both agree with the size
    /// formula.
    #[test]
    fn greedy_feasible_and_dominated_by_dp(
        leaves in 2usize..20,
        seed in 0u64..500,
        divisor in 1u64..6,
    ) {
        let synthetic = generate(SyntheticConfig {
            leaves,
            max_children: 4,
            polynomials: 2,
            contexts: 3,
            density: 0.5,
            seed,
        });
        let analysis = GroupAnalysis::analyze(&synthetic.set, &synthetic.tree)
            .expect("single-leaf monomials");
        let bound = (analysis.total_monomials() / divisor).max(1);
        match (
            Greedy.plan(&PlanContext::new(&synthetic.tree, &analysis), bound),
            ExactDp.plan(&PlanContext::new(&synthetic.tree, &analysis), bound),
        ) {
            (Ok(greedy), Ok(exact)) => {
                prop_assert!(greedy.size <= bound);
                prop_assert!(greedy.variables <= exact.variables);
                prop_assert_eq!(
                    analysis.compressed_size(greedy.cut.nodes()),
                    greedy.size
                );
            }
            (Err(_), Err(_)) => {} // both infeasible: consistent
            (greedy, exact) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility disagreement: greedy {greedy:?} vs dp {exact:?}"
                )));
            }
        }
    }
}
