//! Applying an abstraction: compressing the provenance.
//!
//! "For every node in the chosen cut, all of its descendant leaves are
//! replaced by a single metavariable … distinct monomials may become
//! identical, in which case they are compactly represented by a single
//! monomial (by summing their coefficients)" (paper §1).

use crate::cut::{Cut, MetaVar};
use crate::groups::GroupAnalysis;
use crate::tree::AbstractionTree;
use cobra_provenance::{Coeff, Monomial, PolySet, Polynomial, Var, VarRegistry};
use cobra_util::{FxHashMap, FxHashSet};

/// The result of applying one cut to a polynomial set.
#[derive(Clone, Debug)]
pub struct AppliedAbstraction<C: Coeff> {
    /// The compressed polynomials (same labels, merged monomials).
    pub compressed: PolySet<C>,
    /// Leaf → meta-variable substitution (identity entries omitted).
    pub substitution: FxHashMap<Var, Var>,
    /// The introduced meta-variables with their grouped leaves, in cut
    /// order — the content of the paper's Fig. 5 screen.
    pub meta_vars: Vec<MetaVar>,
    /// Monomial count before compression.
    pub original_size: usize,
    /// Monomial count after compression.
    pub compressed_size: usize,
}

impl<C: Coeff> AppliedAbstraction<C> {
    /// Size reduction ratio `compressed / original` (1.0 = no reduction).
    pub fn compression_ratio(&self) -> f64 {
        if self.original_size == 0 {
            1.0
        } else {
            self.compressed_size as f64 / self.original_size as f64
        }
    }

    /// Number of distinct variables in the compressed provenance — the
    /// paper's expressiveness measure over the *result* (meta-variables
    /// plus untouched variables that still occur).
    pub fn distinct_vars(&self) -> usize {
        self.compressed.distinct_vars().len()
    }
}

/// Applies `cut` to `set`: renames leaves to meta-variables and merges.
///
/// Meta-variable names are taken from the cut nodes, avoiding collisions
/// with any variable occurring in `set` or in the tree.
///
/// ```
/// use cobra_core::{apply_cut, Cut, tree::AbstractionTree};
/// use cobra_provenance::{parse_polyset, VarRegistry};
///
/// let mut reg = VarRegistry::new();
/// let tree = AbstractionTree::parse("T(a, b)", &mut reg).unwrap();
/// let set = parse_polyset("P = 2*a*x + 3*b*x", &mut reg).unwrap();
/// let out = apply_cut(&set, &tree, &Cut::root(&tree), &mut reg);
/// // a and b merge into T: 2·T·x + 3·T·x = 5·T·x
/// assert_eq!(out.compressed_size, 1);
/// assert_eq!(
///     out.compressed.display(&reg).to_string().trim(),
///     "P = 5*x*T"
/// );
/// ```
pub fn apply_cut<C: Coeff>(
    set: &PolySet<C>,
    tree: &AbstractionTree,
    cut: &Cut,
    reg: &mut VarRegistry,
) -> AppliedAbstraction<C> {
    let reserved = set.distinct_vars();
    let (substitution, meta_vars) = cut.substitution(tree, reg, &reserved);
    let compressed = set.rename_vars(|v| substitution.get(&v).copied().unwrap_or(v));
    AppliedAbstraction {
        original_size: set.total_monomials(),
        compressed_size: compressed.total_monomials(),
        compressed,
        substitution,
        meta_vars,
    }
}

/// Applies `cut` using the shared cut statistics of a [`GroupAnalysis`]
/// instead of re-walking the full polynomial set: each group contributes
/// exactly one output monomial `context · meta^exp` per cut node its
/// leaves fall under, with the member coefficients summed, and base
/// monomials pass through via their recorded term references. This is the
/// planner's fast application path — `O(group members + output)` with no
/// re-hash of the input — and produces a result **equal** to
/// [`apply_cut`] (property-pinned in `tests/planner.rs` and below).
///
/// `reserved` must be the set's distinct variables
/// ([`PolySet::distinct_vars`]); callers that apply many cuts of the same
/// session (the frontier re-selection path) compute it once.
pub fn apply_cut_with_groups<C: Coeff>(
    set: &PolySet<C>,
    tree: &AbstractionTree,
    analysis: &GroupAnalysis,
    cut: &Cut,
    reserved: &FxHashSet<Var>,
    reg: &mut VarRegistry,
) -> AppliedAbstraction<C> {
    let (substitution, meta_vars) = cut.substitution(tree, reg, reserved);
    let compressed = compress_polyset_with_groups(set, tree, analysis, cut, &meta_vars);
    AppliedAbstraction {
        original_size: set.total_monomials(),
        compressed_size: compressed.total_monomials(),
        compressed,
        substitution,
        meta_vars,
    }
}

/// The polynomial-construction half of [`apply_cut_with_groups`]: builds
/// the compressed set from the shared group statistics and an
/// already-computed meta-variable assignment, one [`GroupCompressor::poly`]
/// per polynomial.
pub(crate) fn compress_polyset_with_groups<C: Coeff>(
    set: &PolySet<C>,
    tree: &AbstractionTree,
    analysis: &GroupAnalysis,
    cut: &Cut,
    meta_vars: &[MetaVar],
) -> PolySet<C> {
    let compressor = GroupCompressor::new(tree, analysis, cut, meta_vars);
    PolySet::from_entries(
        set.iter()
            .enumerate()
            .map(|(p, (label, poly))| (label.to_owned(), compressor.poly(p, poly))),
    )
}

/// The one constructor of compressed polynomials from group statistics,
/// for one cut: the whole-set application maps it over every polynomial, and
/// a coefficient-only delta rebuilds the touched polynomials with it, so a
/// patched compressed row is bit-identical to a rebuilt one by
/// construction — same members, same addition order, same overflow
/// behaviour. Pure — needs no registry — which is what lets the session
/// defer it until something actually evaluates.
pub(crate) struct GroupCompressor<'a> {
    analysis: &'a GroupAnalysis,
    meta_vars: &'a [MetaVar],
    /// Leaf position → index of the covering cut node (cut validity
    /// guarantees exactly one).
    cover: Vec<u32>,
}

impl<'a> GroupCompressor<'a> {
    /// `meta_vars` must be the output of [`Cut::substitution`] for `cut`,
    /// i.e. aligned with `cut.nodes()`.
    pub(crate) fn new(
        tree: &AbstractionTree,
        analysis: &'a GroupAnalysis,
        cut: &Cut,
        meta_vars: &'a [MetaVar],
    ) -> GroupCompressor<'a> {
        debug_assert_eq!(meta_vars.len(), cut.nodes().len());
        let mut cover = vec![u32::MAX; tree.num_leaves()];
        for (ci, &node) in cut.nodes().iter().enumerate() {
            for slot in &mut cover[tree.leaf_range(node)] {
                *slot = ci as u32;
            }
        }
        GroupCompressor {
            analysis,
            meta_vars,
            cover,
        }
    }

    /// The compressed form of `poly`, polynomial `p` of the analyzed set:
    /// each group contributes one monomial `context · meta^exp` per cut
    /// node its leaves fall under, with the member coefficients summed,
    /// and base monomials pass through. A sum that cancels to zero is
    /// dropped.
    pub(crate) fn poly<C: Coeff>(&self, p: usize, poly: &Polynomial<C>) -> Polynomial<C> {
        let (base_terms, groups) = self.analysis.of_poly(p);
        let src = poly.terms();
        let mut out: Vec<(Monomial, C)> = base_terms
            .iter()
            .map(|&(_, term)| src[term as usize].clone())
            .collect();
        for group in groups {
            // Cut nodes cover contiguous leaf ranges and the group's
            // positions are sorted, so members of the same cut node form
            // runs.
            let mut i = 0;
            while i < group.leaf_positions.len() {
                let node_idx = self.cover[group.leaf_positions[i] as usize] as usize;
                let mut coeff = src[group.term_indices[i] as usize].1.clone();
                let mut j = i + 1;
                while j < group.leaf_positions.len()
                    && self.cover[group.leaf_positions[j] as usize] as usize == node_idx
                {
                    coeff = coeff.add(&src[group.term_indices[j] as usize].1);
                    j += 1;
                }
                let meta = self.meta_vars[node_idx].var;
                out.push((group.context.mul_power(meta, group.exponent), coeff));
                i = j;
            }
        }
        Polynomial::from_terms(out)
    }
}

/// Applies several cuts (one per tree of a forest) in sequence.
pub fn apply_cuts<C: Coeff>(
    set: &PolySet<C>,
    cuts: &[(&AbstractionTree, &Cut)],
    reg: &mut VarRegistry,
) -> AppliedAbstraction<C> {
    let original_size = set.total_monomials();
    let mut substitution: FxHashMap<Var, Var> = FxHashMap::default();
    let mut meta_vars = Vec::new();
    let mut reserved = set.distinct_vars();
    for (tree, cut) in cuts {
        let (subst, metas) = cut.substitution(tree, reg, &reserved);
        // meta vars of earlier trees are reserved for later ones
        reserved.extend(metas.iter().map(|m| m.var));
        substitution.extend(subst);
        meta_vars.extend(metas);
    }
    let compressed = set.rename_vars(|v| substitution.get(&v).copied().unwrap_or(v));
    AppliedAbstraction {
        compressed_size: compressed.total_monomials(),
        original_size,
        compressed,
        substitution,
        meta_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::paper_plans_tree;
    use cobra_provenance::{parse_polyset, Monomial};
    use cobra_util::Rat;

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    fn paper_set(reg: &mut VarRegistry) -> PolySet<Rat> {
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        parse_polyset(src, reg).unwrap()
    }

    /// Example 4 verbatim: S1 on P1 yields
    /// `208.8·St·m1 + 240·St·m3 + 245.3·Sp·m1 + 211.15·Sp·m3`.
    #[test]
    fn example4_s1_coefficients() {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let set = paper_set(&mut reg);
        let cut = Cut::from_names(&tree, &["Business", "Special", "Standard"]).unwrap();
        let out = apply_cut(&set, &tree, &cut, &mut reg);
        let p1 = out.compressed.get("P1").unwrap();
        assert_eq!(p1.num_terms(), 4);
        let st = reg.lookup("Standard").unwrap();
        let sp = reg.lookup("Special").unwrap();
        let m1 = reg.lookup("m1").unwrap();
        let m3 = reg.lookup("m3").unwrap();
        assert_eq!(
            p1.coeff_of(&Monomial::from_pairs([(st, 1), (m1, 1)])),
            rat("208.8")
        );
        assert_eq!(
            p1.coeff_of(&Monomial::from_pairs([(st, 1), (m3, 1)])),
            rat("240")
        );
        assert_eq!(
            p1.coeff_of(&Monomial::from_pairs([(sp, 1), (m1, 1)])),
            rat("245.3") // 127.4 + 75.9 + 42
        );
        assert_eq!(
            p1.coeff_of(&Monomial::from_pairs([(sp, 1), (m3, 1)])),
            rat("211.15") // 114.45 + 72.5 + 24.2
        );
        // "four different variables": St, Sp, m1, m3
        assert_eq!(p1.vars().len(), 4);
    }

    /// Example 4's S5: P1 compresses to two monomials over three variables.
    /// The paper prints `466.1·Plans·m1` but the Example 2 coefficients sum
    /// to `454.1` (208.8+127.4+75.9+42) — a typo in the paper; the m3
    /// coefficient `451.15` matches exactly.
    #[test]
    fn example4_s5_coefficients() {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let set = paper_set(&mut reg);
        let out = apply_cut(&set, &tree, &Cut::root(&tree), &mut reg);
        let p1 = out.compressed.get("P1").unwrap();
        assert_eq!(p1.num_terms(), 2);
        assert_eq!(p1.vars().len(), 3); // Plans, m1, m3
        let plans = reg.lookup("Plans").unwrap();
        let m1 = reg.lookup("m1").unwrap();
        let m3 = reg.lookup("m3").unwrap();
        assert_eq!(
            p1.coeff_of(&Monomial::from_pairs([(plans, 1), (m1, 1)])),
            rat("454.1")
        );
        assert_eq!(
            p1.coeff_of(&Monomial::from_pairs([(plans, 1), (m3, 1)])),
            rat("451.15")
        );
    }

    #[test]
    fn sizes_match_group_analysis_for_all_cuts() {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let set = paper_set(&mut reg);
        let analysis = crate::groups::GroupAnalysis::analyze(&set, &tree).unwrap();
        for cut in crate::cut::enumerate_cuts(&tree, 1_000).unwrap() {
            let out = apply_cut(&set, &tree, &cut, &mut reg);
            assert_eq!(
                out.compressed_size as u64,
                analysis.compressed_size(cut.nodes()),
                "cut {}",
                cut.display(&tree)
            );
        }
    }

    #[test]
    fn group_apply_equals_rename_apply_for_all_cuts() {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let set = paper_set(&mut reg);
        let analysis = crate::groups::GroupAnalysis::analyze(&set, &tree).unwrap();
        let reserved = set.distinct_vars();
        for cut in crate::cut::enumerate_cuts(&tree, 1_000).unwrap() {
            let mut reg_a = reg.clone();
            let mut reg_b = reg.clone();
            let slow = apply_cut(&set, &tree, &cut, &mut reg_a);
            let fast =
                apply_cut_with_groups(&set, &tree, &analysis, &cut, &reserved, &mut reg_b);
            assert_eq!(fast.compressed, slow.compressed, "cut {}", cut.display(&tree));
            assert_eq!(fast.substitution, slow.substitution);
            assert_eq!(fast.meta_vars, slow.meta_vars);
            assert_eq!(fast.original_size, slow.original_size);
            assert_eq!(fast.compressed_size, slow.compressed_size);
        }
    }

    #[test]
    fn group_apply_passes_base_terms_through() {
        let mut reg = VarRegistry::new();
        let tree = crate::tree::AbstractionTree::parse("T(a,b)", &mut reg).unwrap();
        let set = cobra_provenance::parse_polyset(
            "P = 2*a*x + 3*b*x + 5*x + 7",
            &mut reg,
        )
        .unwrap();
        let analysis = crate::groups::GroupAnalysis::analyze(&set, &tree).unwrap();
        let reserved = set.distinct_vars();
        let cut = Cut::root(&tree);
        let fast =
            apply_cut_with_groups(&set, &tree, &analysis, &cut, &reserved, &mut reg.clone());
        let slow = apply_cut(&set, &tree, &cut, &mut reg);
        // 2aT x + 3bT x merge to 5*x*T; the tree-free 5*x and 7 survive
        assert_eq!(fast.compressed_size, 3);
        assert_eq!(fast.compressed, slow.compressed);
    }

    #[test]
    fn leaf_cut_is_identity() {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let set = paper_set(&mut reg);
        let out = apply_cut(&set, &tree, &Cut::leaves(&tree), &mut reg);
        assert_eq!(out.compressed, set);
        assert!(out.substitution.is_empty());
        assert_eq!(out.compression_ratio(), 1.0);
    }

    #[test]
    fn multi_tree_application() {
        // Second tree grouping the month variables into a quarter.
        let mut reg = VarRegistry::new();
        let plans = paper_plans_tree(&mut reg);
        let set = paper_set(&mut reg);
        let months = crate::tree::AbstractionTree::parse("Q1(m1,m2,m3)", &mut reg).unwrap();
        let pcut = Cut::root(&plans);
        let mcut = Cut::root(&months);
        let out = apply_cuts(&set, &[(&plans, &pcut), (&months, &mcut)], &mut reg);
        // P1: all monomials collapse to Plans·Q1 → 1 monomial; same for P2.
        assert_eq!(out.compressed_size, 2);
        let p1 = out.compressed.get("P1").unwrap();
        let plans_v = reg.lookup("Plans").unwrap();
        let q1 = reg.lookup("Q1").unwrap();
        assert_eq!(
            p1.coeff_of(&Monomial::from_pairs([(plans_v, 1), (q1, 1)])),
            rat("905.25") // 454.1 + 451.15
        );
        assert_eq!(out.meta_vars.len(), 2);
    }
}
