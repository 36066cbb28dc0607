//! Group analysis for the single-tree optimization problem.
//!
//! In the single-tree setting each monomial mentions **at most one** leaf
//! of the abstraction tree (paper §2, last paragraph). Write a monomial as
//! `coeff · context · leaf^exp` where *context* collects the non-tree
//! variables. Under a cut, two monomials merge iff they belong to the same
//! **group** — same polynomial, same context, same exponent — and their
//! leaves fall under the same cut node.
//!
//! Consequently the compressed size decomposes additively:
//!
//! ```text
//! size(cut) = base + Σ_{v ∈ cut} w(v)
//! w(v)      = #groups touching at least one leaf in subtree(v)
//! ```
//!
//! where `base` counts monomials without tree variables. This module
//! computes the groups and the node weights `w(v)`; [`ExactDp`](crate::planner::ExactDp) runs the
//! knapsack over them.
//!
//! The additive formula counts one monomial per `(group, cut node)` pair
//! and reads no coefficient. With mixed-sign coefficients a merged
//! coefficient can **cancel to zero**, and the materialized compressed set
//! is then smaller than the formula; reports keep the formula's count (see
//! [`CompressionReport::compressed_size`](crate::CompressionReport::compressed_size)),
//! and the materialized set never exceeds it.

use crate::error::{CoreError, Result};
use crate::tree::{AbstractionTree, NodeId};
use cobra_provenance::{Coeff, Monomial, PolySet};
use cobra_util::FxHashMap;

/// One group: the set of leaf positions (indices into the tree's flat leaf
/// order) whose monomials share `(polynomial, context, exponent)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// Index of the polynomial within the analyzed set.
    pub poly: u32,
    /// Exponent of the tree variable in this group's monomials.
    pub exponent: u32,
    /// The shared context monomial (the non-tree factors).
    pub context: Monomial,
    /// Leaf positions present (sorted, deduplicated).
    pub leaf_positions: Vec<u32>,
    /// For each leaf position (aligned with `leaf_positions`): the index of
    /// the member monomial in its polynomial's canonical term list. Together
    /// with `context` this is enough to rebuild the compressed provenance
    /// for any cut directly from the analysis
    /// ([`crate::apply::apply_cut_with_groups`]) — the shared cut
    /// statistics the planner rides, computed once instead of re-derived
    /// per algorithm.
    pub term_indices: Vec<u32>,
}

/// The result of analysing a polynomial set against one tree.
#[derive(Clone, Debug)]
pub struct GroupAnalysis {
    /// Monomials mentioning no tree variable: they survive any cut
    /// unchanged.
    pub base_monomials: u64,
    /// The base monomials themselves as `(polynomial index, term index)`
    /// references into the analyzed set (in set order) — lets a compressed
    /// set be rebuilt from the analysis without re-scanning the input.
    pub base_terms: Vec<(u32, u32)>,
    /// All groups, in a deterministic canonical order.
    pub groups: Vec<Group>,
    /// `w(v)` per node (indexed by `NodeId`): the number of groups whose
    /// leaves intersect the node's subtree.
    pub node_weight: Vec<u64>,
}

impl GroupAnalysis {
    /// Analyses `set` against `tree`.
    ///
    /// # Errors
    /// [`CoreError::MonomialSpansTree`] if some monomial mentions two
    /// distinct leaves of the tree (outside the single-tree setting).
    pub fn analyze<C: Coeff>(set: &PolySet<C>, tree: &AbstractionTree) -> Result<GroupAnalysis> {
        let mut base_terms: Vec<(u32, u32)> = Vec::new();
        // (poly, context, exponent) → (leaf position, term index) members
        let mut groups: FxHashMap<(u32, Monomial, u32), Vec<(u32, u32)>> = FxHashMap::default();
        for (poly_idx, (label, poly)) in set.iter().enumerate() {
            for (term_idx, (monomial, _)) in poly.iter().enumerate() {
                let mut tree_var = None;
                for v in monomial.vars() {
                    if let Some(leaf) = tree.leaf_of_var(v) {
                        if let Some((prev_var, _)) = tree_var {
                            let pv: cobra_provenance::Var = prev_var;
                            return Err(CoreError::MonomialSpansTree {
                                poly: label.to_owned(),
                                vars: (format!("Var({})", pv.0), format!("Var({})", v.0)),
                            });
                        }
                        tree_var = Some((v, leaf));
                    }
                }
                match tree_var {
                    None => base_terms.push((poly_idx as u32, term_idx as u32)),
                    Some((v, leaf)) => {
                        let (context, exp) = monomial.without(v);
                        let pos = tree.leaf_range(leaf).start as u32;
                        let entry = groups
                            .entry((poly_idx as u32, context, exp))
                            .or_default();
                        // canonical polynomials cannot repeat a leaf within
                        // a group, so a plain push keeps entries unique
                        entry.push((pos, term_idx as u32));
                    }
                }
            }
        }

        let mut out_groups = Vec::with_capacity(groups.len());
        for ((poly, context, exponent), mut members) in groups {
            members.sort_unstable_by_key(|&(pos, _)| pos);
            debug_assert!(members.windows(2).all(|w| w[0].0 != w[1].0));
            out_groups.push(Group {
                poly,
                exponent,
                context,
                leaf_positions: members.iter().map(|&(pos, _)| pos).collect(),
                term_indices: members.iter().map(|&(_, idx)| idx).collect(),
            });
        }
        // Deterministic order (hash map iteration order is not); the
        // context disambiguates groups sharing the same leaf set.
        out_groups.sort_unstable_by(|a, b| {
            (a.poly, a.exponent, &a.leaf_positions, &a.context)
                .cmp(&(b.poly, b.exponent, &b.leaf_positions, &b.context))
        });

        let node_weight = compute_node_weights(tree, &out_groups);
        Ok(GroupAnalysis {
            base_monomials: base_terms.len() as u64,
            base_terms,
            groups: out_groups,
            node_weight,
        })
    }

    /// Re-analyses only the polynomials listed in `touched` (sorted
    /// indices into `set`), reusing this analysis's groups and base terms
    /// for every other polynomial — the incremental sibling of
    /// [`analyze`](Self::analyze) behind `CobraSession::apply_delta`.
    ///
    /// Sound because groups never span polynomials: a group is keyed by
    /// `(polynomial, context, exponent)` and its `term_indices` reference
    /// that polynomial's canonical term list alone, so a delta to one
    /// polynomial cannot perturb another's groups. Only the touched
    /// polynomials pay the context-hashing cost; the merged result —
    /// canonical group order, base-term order, node weights — is
    /// **identical** to a fresh `analyze(set, tree)`.
    ///
    /// # Errors
    /// [`CoreError::MonomialSpansTree`] if a touched monomial now mentions
    /// two distinct leaves of the tree.
    pub fn reanalyze_polys<C: Coeff>(
        &self,
        set: &PolySet<C>,
        tree: &AbstractionTree,
        touched: &[usize],
    ) -> Result<GroupAnalysis> {
        let mut is_touched = vec![false; set.len()];
        for &p in touched {
            is_touched[p] = true;
        }
        // Keep everything belonging to untouched polynomials.
        let mut base_terms: Vec<(u32, u32)> = self
            .base_terms
            .iter()
            .filter(|&&(p, _)| !is_touched[p as usize])
            .copied()
            .collect();
        let mut out_groups: Vec<Group> = self
            .groups
            .iter()
            .filter(|g| !is_touched[g.poly as usize])
            .cloned()
            .collect();

        // Re-classify the touched polynomials exactly like `analyze`.
        let mut groups: FxHashMap<(u32, Monomial, u32), Vec<(u32, u32)>> = FxHashMap::default();
        for &poly_idx in touched {
            let label = set.label(poly_idx).expect("touched index in range");
            let poly = set.poly(poly_idx).expect("touched index in range");
            for (term_idx, (monomial, _)) in poly.iter().enumerate() {
                let mut tree_var = None;
                for v in monomial.vars() {
                    if let Some(leaf) = tree.leaf_of_var(v) {
                        if let Some((prev_var, _)) = tree_var {
                            let pv: cobra_provenance::Var = prev_var;
                            return Err(CoreError::MonomialSpansTree {
                                poly: label.to_owned(),
                                vars: (format!("Var({})", pv.0), format!("Var({})", v.0)),
                            });
                        }
                        tree_var = Some((v, leaf));
                    }
                }
                match tree_var {
                    None => base_terms.push((poly_idx as u32, term_idx as u32)),
                    Some((v, leaf)) => {
                        let (context, exp) = monomial.without(v);
                        let pos = tree.leaf_range(leaf).start as u32;
                        groups
                            .entry((poly_idx as u32, context, exp))
                            .or_default()
                            .push((pos, term_idx as u32));
                    }
                }
            }
        }
        for ((poly, context, exponent), mut members) in groups {
            members.sort_unstable_by_key(|&(pos, _)| pos);
            debug_assert!(members.windows(2).all(|w| w[0].0 != w[1].0));
            out_groups.push(Group {
                poly,
                exponent,
                context,
                leaf_positions: members.iter().map(|&(pos, _)| pos).collect(),
                term_indices: members.iter().map(|&(_, idx)| idx).collect(),
            });
        }
        // Restore the global canonical orders `analyze` produces.
        base_terms.sort_unstable();
        out_groups.sort_unstable_by(|a, b| {
            (a.poly, a.exponent, &a.leaf_positions, &a.context)
                .cmp(&(b.poly, b.exponent, &b.leaf_positions, &b.context))
        });

        let node_weight = compute_node_weights(tree, &out_groups);
        Ok(GroupAnalysis {
            base_monomials: base_terms.len() as u64,
            base_terms,
            groups: out_groups,
            node_weight,
        })
    }

    /// Polynomial `p`'s base terms and groups: both lists are sorted by
    /// polynomial, and groups never span polynomials, so each
    /// polynomial's share of the analysis is one slice of each.
    pub(crate) fn of_poly(&self, p: usize) -> (&[(u32, u32)], &[Group]) {
        let (before, upto) = (|q: u32| (q as usize) < p, |q: u32| q as usize <= p);
        let base = self.base_terms.partition_point(|&(q, _)| before(q))
            ..self.base_terms.partition_point(|&(q, _)| upto(q));
        let groups = self.groups.partition_point(|g| before(g.poly))
            ..self.groups.partition_point(|g| upto(g.poly));
        (&self.base_terms[base], &self.groups[groups])
    }

    /// The exact compressed size for a cut, via the additive formula.
    pub fn compressed_size(&self, cut_nodes: &[NodeId]) -> u64 {
        self.base_monomials
            + cut_nodes
                .iter()
                .map(|&n| self.node_weight[n.index()])
                .sum::<u64>()
    }

    /// Total monomials in the analyzed set (base + one per group member).
    pub fn total_monomials(&self) -> u64 {
        self.base_monomials
            + self
                .groups
                .iter()
                .map(|g| g.leaf_positions.len() as u64)
                .sum::<u64>()
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// For each node, the number of groups intersecting its subtree's leaves.
///
/// Each group contributes 1 to every ancestor of each of its leaves,
/// deduplicated per group with a stamp array — `O(Σ leaves·depth)` total.
fn compute_node_weights(tree: &AbstractionTree, groups: &[Group]) -> Vec<u64> {
    let mut weight = vec![0u64; tree.num_nodes()];
    let mut stamp = vec![u32::MAX; tree.num_nodes()];
    // leaf position → leaf NodeId
    let leaf_nodes = tree.leaf_nodes_under(tree.root()).to_vec();
    for (gi, group) in groups.iter().enumerate() {
        let gi = gi as u32;
        for &pos in &group.leaf_positions {
            let mut cur = Some(leaf_nodes[pos as usize]);
            while let Some(node) = cur {
                if stamp[node.index()] == gi {
                    break; // this ancestor already counted for the group
                }
                stamp[node.index()] = gi;
                weight[node.index()] += 1;
                cur = tree.parent(node);
            }
        }
    }
    weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::paper_plans_tree;
    use cobra_provenance::{Polynomial, VarRegistry};
    use cobra_util::Rat;

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    /// Example 2's P1/P2 from the paper.
    fn paper_setup() -> (VarRegistry, AbstractionTree, PolySet<Rat>) {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        let set = cobra_provenance::parse_polyset(src, &mut reg).unwrap();
        (reg, tree, set)
    }

    use crate::tree::AbstractionTree;

    #[test]
    fn paper_example_groups() {
        let (_, tree, set) = paper_setup();
        let a = GroupAnalysis::analyze(&set, &tree).unwrap();
        assert_eq!(a.base_monomials, 0);
        assert_eq!(a.total_monomials(), 14);
        // groups: (P1, m1), (P1, m3), (P2, m1), (P2, m3)
        assert_eq!(a.num_groups(), 4);
        for g in &a.groups {
            let expected = if g.poly == 0 { 4 } else { 3 };
            assert_eq!(g.leaf_positions.len(), expected);
            assert_eq!(g.exponent, 1);
        }
    }

    #[test]
    fn paper_example_weights_match_cut_sizes() {
        let (_, tree, set) = paper_setup();
        let a = GroupAnalysis::analyze(&set, &tree).unwrap();
        let root = tree.root();
        // S5 = {Plans}: every group touches the root → size 4 (paper: P1
        // compresses to 2 monomials, P2 to 2).
        assert_eq!(a.compressed_size(&[root]), 4);
        // S1 = {Business, Special, Standard}: P1 touches Standard (p1) and
        // Special (f1,y1,v) in both months → 4; P2 touches Business in both
        // months → 2; total 6.
        let s1: Vec<NodeId> = ["Business", "Special", "Standard"]
            .iter()
            .map(|n| tree.node_by_name(n).unwrap())
            .collect();
        assert_eq!(a.compressed_size(&s1), 6);
        // Leaf cut: no compression → 14.
        let leaves: Vec<NodeId> = tree
            .node_ids()
            .filter(|&id| tree.is_leaf(id))
            .collect();
        assert_eq!(a.compressed_size(&leaves), 14);
    }

    #[test]
    fn base_monomials_counted() {
        let mut reg = VarRegistry::new();
        let tree = AbstractionTree::parse("T(a,b)", &mut reg).unwrap();
        let m = reg.var("m");
        let a_var = reg.lookup("a").unwrap();
        let set = PolySet::from_entries([(
            "P".to_owned(),
            Polynomial::from_terms([
                (Monomial::var(m), rat("1")),              // base
                (Monomial::one(), rat("2")),               // base (constant)
                (Monomial::from_pairs([(a_var, 1)]), rat("3")), // group
            ]),
        )]);
        let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
        assert_eq!(analysis.base_monomials, 2);
        assert_eq!(analysis.num_groups(), 1);
        assert_eq!(analysis.compressed_size(&[tree.root()]), 3);
    }

    #[test]
    fn exponents_separate_groups() {
        let mut reg = VarRegistry::new();
        let tree = AbstractionTree::parse("T(a,b)", &mut reg).unwrap();
        let a_var = reg.lookup("a").unwrap();
        let b_var = reg.lookup("b").unwrap();
        // a² and b do NOT merge under {T}: exponents differ.
        let set = PolySet::from_entries([(
            "P".to_owned(),
            Polynomial::from_terms([
                (Monomial::from_pairs([(a_var, 2)]), rat("1")),
                (Monomial::from_pairs([(b_var, 1)]), rat("1")),
            ]),
        )]);
        let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
        assert_eq!(analysis.num_groups(), 2);
        assert_eq!(analysis.compressed_size(&[tree.root()]), 2);
    }

    #[test]
    fn polynomials_do_not_merge_across_labels() {
        let mut reg = VarRegistry::new();
        let tree = AbstractionTree::parse("T(a,b)", &mut reg).unwrap();
        let a_var = reg.lookup("a").unwrap();
        let b_var = reg.lookup("b").unwrap();
        let p = Polynomial::from_terms([(Monomial::var(a_var), rat("1"))]);
        let q = Polynomial::from_terms([(Monomial::var(b_var), rat("1"))]);
        let set = PolySet::from_entries([("P".to_owned(), p), ("Q".to_owned(), q)]);
        let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
        // two groups: same context (1) and exponent but different polys
        assert_eq!(analysis.num_groups(), 2);
        assert_eq!(analysis.compressed_size(&[tree.root()]), 2);
    }

    #[test]
    fn spanning_monomial_rejected() {
        let mut reg = VarRegistry::new();
        let tree = AbstractionTree::parse("T(a,b)", &mut reg).unwrap();
        let a_var = reg.lookup("a").unwrap();
        let b_var = reg.lookup("b").unwrap();
        let set = PolySet::from_entries([(
            "P".to_owned(),
            Polynomial::from_terms([(
                Monomial::from_pairs([(a_var, 1), (b_var, 1)]),
                rat("1"),
            )]),
        )]);
        assert!(matches!(
            GroupAnalysis::analyze(&set, &tree),
            Err(CoreError::MonomialSpansTree { .. })
        ));
    }

    #[test]
    fn reanalysis_matches_fresh_analysis_after_deltas() {
        use cobra_provenance::PolyDelta;
        let (mut reg, tree, mut set) = paper_setup();
        let before = GroupAnalysis::analyze(&set, &tree).unwrap();
        // Structural churn in P1 (drop a member, add one with a new
        // context) plus a new base monomial in P2.
        let p1 = reg.lookup("p1").unwrap();
        let m1 = reg.lookup("m1").unwrap();
        let b1 = reg.lookup("b1").unwrap();
        let m9 = reg.var("m9");
        let k = reg.var("k");
        let mut delta = PolyDelta::new();
        delta.remove(0, Monomial::from_pairs([(p1, 1), (m1, 1)]));
        delta.add(0, Monomial::from_pairs([(b1, 1), (m9, 1)]), rat("5"));
        delta.add(1, Monomial::var(k), rat("2"));
        let report = set.apply_delta(&delta).unwrap();
        assert_eq!(report.structural_polys, vec![0, 1]);

        let incremental = before
            .reanalyze_polys(&set, &tree, &report.touched())
            .unwrap();
        let fresh = GroupAnalysis::analyze(&set, &tree).unwrap();
        assert_eq!(incremental.base_terms, fresh.base_terms);
        assert_eq!(incremental.groups, fresh.groups);
        assert_eq!(incremental.node_weight, fresh.node_weight);
        assert_eq!(incremental.base_monomials, fresh.base_monomials);
    }

    #[test]
    fn reanalysis_reports_spanning_monomials() {
        use cobra_provenance::PolyDelta;
        let (reg, tree, mut set) = paper_setup();
        let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
        let p1 = reg.lookup("p1").unwrap();
        let b1 = reg.lookup("b1").unwrap();
        let mut delta = PolyDelta::new();
        delta.add(0, Monomial::from_pairs([(p1, 1), (b1, 1)]), rat("1"));
        let report = set.apply_delta(&delta).unwrap();
        assert!(matches!(
            analysis.reanalyze_polys(&set, &tree, &report.touched()),
            Err(CoreError::MonomialSpansTree { .. })
        ));
    }

    #[test]
    fn weights_are_monotone_up_the_tree() {
        let (_, tree, set) = paper_setup();
        let a = GroupAnalysis::analyze(&set, &tree).unwrap();
        for id in tree.node_ids() {
            if let Some(parent) = tree.parent(id) {
                assert!(
                    a.node_weight[parent.index()] >= a.node_weight[id.index()],
                    "w(parent) must dominate w(child)"
                );
            }
            let child_sum: u64 = tree
                .children(id)
                .iter()
                .map(|c| a.node_weight[c.index()])
                .sum();
            if !tree.is_leaf(id) {
                assert!(a.node_weight[id.index()] <= child_sum);
            }
        }
    }
}
