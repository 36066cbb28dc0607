//! Property test: the DP optimizer is exactly optimal.
//!
//! Random abstraction trees and polynomial sets; the DP's answer must
//! match the brute-force enumeration (maximal cut cardinality under the
//! bound, minimal size among those) for every feasible bound, and the
//! claimed size must match a real application of the cut.

use cobra::core::{
    apply_cut, enumerate_cuts, CoreError, CutPlanner, ExactDp, GroupAnalysis, PlanContext,
};
use cobra::core::{AbstractionTree, TreeSpec};
use cobra::provenance::{Monomial, PolySet, Polynomial, VarRegistry};
use cobra::util::Rat;
use proptest::prelude::*;

/// Random tree spec (depth ≤ 3, arity ≤ 3) with globally unique names.
fn tree_strategy() -> impl Strategy<Value = TreeSpec> {
    tree_spec_inner(3)
        .prop_map(|spec| {
            let mut inner = 0usize;
            let mut leaves = 0usize;
            relabel(&spec, &mut inner, &mut leaves)
        })
        .prop_filter("at least 2 leaves", |s| count_leaves(s) >= 2)
}

fn tree_spec_inner(depth: usize) -> BoxedStrategy<TreeSpec> {
    if depth == 0 {
        Just(TreeSpec::leaf("x")).boxed()
    } else {
        prop_oneof![
            2 => Just(TreeSpec::leaf("x")),
            3 => proptest::collection::vec(tree_spec_inner(depth - 1), 2..4)
                .prop_map(|children| TreeSpec::node("n", children)),
        ]
        .boxed()
    }
}

fn relabel(spec: &TreeSpec, inner: &mut usize, leaves: &mut usize) -> TreeSpec {
    match spec {
        TreeSpec::Leaf(_) => {
            let s = TreeSpec::leaf(format!("x{leaves}"));
            *leaves += 1;
            s
        }
        TreeSpec::Node(_, children) => {
            let name = format!("n{inner}");
            *inner += 1;
            TreeSpec::node(
                name,
                children.iter().map(|c| relabel(c, inner, leaves)).collect(),
            )
        }
    }
}

fn count_leaves(spec: &TreeSpec) -> usize {
    match spec {
        TreeSpec::Leaf(_) => 1,
        TreeSpec::Node(_, children) => children.iter().map(count_leaves).sum(),
    }
}

/// Random polynomial set over the tree's leaves plus two context vars.
fn polyset_for(
    tree: &AbstractionTree,
    reg: &mut VarRegistry,
    picks: &[(usize, usize, usize, i64)],
) -> PolySet<Rat> {
    let contexts = [reg.var("ctx0"), reg.var("ctx1")];
    let leaves = tree.leaves().to_vec();
    let mut polys = vec![Polynomial::zero(); 2];
    for &(poly, ctx, leaf, coeff) in picks {
        let leaf = leaves[leaf % leaves.len()];
        let m = Monomial::from_pairs([(contexts[ctx % 2], 1), (leaf, 1)]);
        polys[poly % 2].add_term(m, Rat::int(coeff.max(1)));
    }
    PolySet::from_entries(
        polys
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("P{i}"), p)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dp_matches_brute_force(
        spec in tree_strategy(),
        picks in proptest::collection::vec(
            (0usize..2, 0usize..2, 0usize..16, 1i64..100),
            1..24
        ),
    ) {
        let mut reg = VarRegistry::new();
        let tree = AbstractionTree::build(&spec, &mut reg).expect("unique names");
        let set = polyset_for(&tree, &mut reg, &picks);
        let analysis = GroupAnalysis::analyze(&set, &tree).expect("one leaf per monomial");
        let cuts = enumerate_cuts(&tree, 50_000).expect("small tree");
        let full = analysis.total_monomials();

        for bound in 0..=full + 1 {
            let dp = ExactDp.plan(&PlanContext::new(&tree, &analysis), bound);
            // oracle: evaluate every cut by real application
            let mut best: Option<(usize, u64)> = None;
            for cut in &cuts {
                let mut reg2 = reg.clone();
                let applied = apply_cut(&set, &tree, cut, &mut reg2);
                let size = applied.compressed_size as u64;
                if size <= bound {
                    let cand = (cut.len(), size);
                    let better = match best {
                        None => true,
                        Some((bk, bs)) => cand.0 > bk || (cand.0 == bk && cand.1 < bs),
                    };
                    if better {
                        best = Some(cand);
                    }
                }
            }
            match (dp, best) {
                (Ok(sol), Some((k, size))) => {
                    prop_assert_eq!(sol.variables, k, "bound {}", bound);
                    prop_assert_eq!(sol.size, size, "bound {}", bound);
                    // the DP's cut really has that size
                    let mut reg3 = reg.clone();
                    let applied = apply_cut(&set, &tree, &sol.cut, &mut reg3);
                    prop_assert_eq!(applied.compressed_size as u64, sol.size);
                }
                (Err(CoreError::InfeasibleBound { min_achievable }), None) => {
                    prop_assert!(min_achievable > bound);
                }
                (dp, best) => {
                    return Err(TestCaseError::fail(format!(
                        "bound {bound}: dp {dp:?} vs oracle {best:?}"
                    )));
                }
            }
        }
    }
}
