//! Brute-force optimizer — the test oracle for [`ExactDp`](crate::planner::ExactDp).
//!
//! Enumerates every cut (or every combination of cuts for a forest),
//! measures the true compressed size by actually applying the abstraction,
//! and picks the maximal-cardinality feasible cut. Exponential; only for
//! small trees and the correctness test-suite.

use crate::apply::apply_cut;
use crate::cut::{enumerate_cuts, Cut};
use crate::error::{CoreError, Result};
use crate::tree::AbstractionTree;
use cobra_provenance::{Coeff, PolySet, VarRegistry};

/// Output of the brute-force search.
#[derive(Clone, Debug)]
pub struct BruteSolution {
    /// Best cut per tree (singleton for the single-tree problem).
    pub cuts: Vec<Cut>,
    /// Total variables across the cuts.
    pub variables: usize,
    /// True compressed size (measured by application, not by formula).
    pub size: u64,
}

/// Exhaustive single-tree optimum: max `|cut|` with measured size ≤
/// `bound`; ties by smaller size.
pub fn optimize_single<C: Coeff>(
    set: &PolySet<C>,
    tree: &AbstractionTree,
    bound: u64,
    reg: &mut VarRegistry,
    limit: usize,
) -> Result<BruteSolution> {
    let cuts = enumerate_cuts(tree, limit)?;
    let mut best: Option<BruteSolution> = None;
    let mut min_size = u64::MAX;
    for cut in cuts {
        let applied = apply_cut(set, tree, &cut, reg);
        let size = applied.compressed_size as u64;
        min_size = min_size.min(size);
        if size > bound {
            continue;
        }
        let candidate = BruteSolution {
            variables: cut.len(),
            cuts: vec![cut],
            size,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                candidate.variables > b.variables
                    || (candidate.variables == b.variables && candidate.size < b.size)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.ok_or(CoreError::InfeasibleBound {
        min_achievable: min_size,
    })
}

/// Exhaustive forest optimum: tries the cartesian product of cuts across
/// all trees. `limit` bounds the **total** number of combinations.
pub fn optimize_forest<C: Coeff>(
    set: &PolySet<C>,
    trees: &[&AbstractionTree],
    bound: u64,
    reg: &mut VarRegistry,
    limit: usize,
) -> Result<BruteSolution> {
    let per_tree: Vec<Vec<Cut>> = trees
        .iter()
        .map(|t| enumerate_cuts(t, limit))
        .collect::<Result<_>>()?;
    let combos: usize = per_tree.iter().map(Vec::len).product();
    if combos > limit {
        return Err(CoreError::TooManyCuts { limit });
    }

    let mut indices = vec![0usize; trees.len()];
    let mut best: Option<BruteSolution> = None;
    let mut min_size = u64::MAX;
    loop {
        let cuts: Vec<(&AbstractionTree, &Cut)> = trees
            .iter()
            .zip(per_tree.iter().zip(&indices))
            .map(|(&t, (tree_cuts, &i))| (t, &tree_cuts[i]))
            .collect();
        let applied = crate::apply::apply_cuts(set, &cuts, reg);
        let size = applied.compressed_size as u64;
        min_size = min_size.min(size);
        if size <= bound {
            let variables = indices
                .iter()
                .zip(&per_tree)
                .map(|(&i, cuts)| cuts[i].len())
                .sum();
            let candidate = BruteSolution {
                cuts: indices
                    .iter()
                    .zip(&per_tree)
                    .map(|(&i, cuts)| cuts[i].clone())
                    .collect(),
                variables,
                size,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    candidate.variables > b.variables
                        || (candidate.variables == b.variables && candidate.size < b.size)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        // advance the odometer
        let mut t = 0;
        loop {
            if t == indices.len() {
                return best.ok_or(CoreError::InfeasibleBound {
                    min_achievable: min_size,
                });
            }
            indices[t] += 1;
            if indices[t] < per_tree[t].len() {
                break;
            }
            indices[t] = 0;
            t += 1;
        }
    }
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
    fn brute_matches_known_optima() {
        let (mut reg, tree, set) = setup();
        // 4 variables at size 6: {p1, p2, Special, Business} — p2 is free
        // because it occurs in no polynomial.
        let sol = optimize_single(&set, &tree, 6, &mut reg, 10_000).unwrap();
        assert_eq!(sol.variables, 4);
        assert_eq!(sol.size, 6);
        let sol = optimize_single(&set, &tree, 100, &mut reg, 10_000).unwrap();
        assert_eq!(sol.variables, 11);
        assert!(matches!(
            optimize_single(&set, &tree, 1, &mut reg, 10_000),
            Err(CoreError::InfeasibleBound { min_achievable: 4 })
        ));
    }

    #[test]
    fn forest_search_uses_both_trees() {
        let (mut reg, plans, set) = setup();
        let months = AbstractionTree::parse("M(m1,m3)", &mut reg).unwrap();
        // bound 2: must collapse both trees completely (2 polynomials × 1)
        let sol =
            optimize_forest(&set, &[&plans, &months], 2, &mut reg, 100_000).unwrap();
        assert_eq!(sol.size, 2);
        assert_eq!(sol.variables, 2); // {Plans} + {M}
        // bound 7: merging the two months halves the provenance (7
        // monomials), letting the plans tree stay at its 11 leaves —
        // 11 + 1 = 12 variables.
        let sol =
            optimize_forest(&set, &[&plans, &months], 7, &mut reg, 100_000).unwrap();
        assert_eq!(sol.variables, 12);
        assert_eq!(sol.size, 7);
    }

    use crate::tree::AbstractionTree;
}
