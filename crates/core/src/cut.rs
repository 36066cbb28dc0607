//! Cuts of an abstraction tree (paper §2, Example 4).
//!
//! "An abstraction is … represented by a cut in the tree separating the
//! root from all leaves": an antichain of nodes such that every leaf has
//! exactly one ancestor-or-self in the set. Applying the cut replaces each
//! leaf by the meta-variable of its covering node.

use crate::error::{CoreError, Result};
use crate::tree::{AbstractionTree, NodeId};
use cobra_provenance::{Var, VarRegistry};
use cobra_util::{FxHashMap, FxHashSet};

/// A validated cut: a set of node ids (sorted for canonical equality).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cut {
    nodes: Vec<NodeId>,
}

impl Cut {
    /// Builds a cut from node ids, validating against the tree.
    pub fn new(tree: &AbstractionTree, mut nodes: Vec<NodeId>) -> Result<Cut> {
        nodes.sort_unstable();
        nodes.dedup();
        if let Some(n) = nodes.iter().find(|n| n.index() >= tree.num_nodes()) {
            return Err(CoreError::InvalidCut(format!(
                "node #{} is outside a tree of {} nodes",
                n.0,
                tree.num_nodes()
            )));
        }
        // Every leaf must be covered exactly once. Count covering nodes per
        // leaf position via each cut node's leaf range.
        let mut cover = vec![0u32; tree.num_leaves()];
        for &n in &nodes {
            for c in &mut cover[tree.leaf_range(n)] {
                *c += 1;
            }
        }
        if let Some(pos) = cover.iter().position(|&c| c != 1) {
            let leaf = tree.leaves()[pos];
            let kind = if cover[pos] == 0 { "uncovered" } else { "covered more than once" };
            return Err(CoreError::InvalidCut(format!(
                "leaf #{pos} (Var({})) is {kind}",
                leaf.0
            )));
        }
        Ok(Cut { nodes })
    }

    /// Builds a cut from node names, e.g. the paper's
    /// `S1 = {Business, Special, Standard}`.
    pub fn from_names(tree: &AbstractionTree, names: &[&str]) -> Result<Cut> {
        let nodes = names
            .iter()
            .map(|n| tree.node_by_name(n))
            .collect::<Result<Vec<_>>>()?;
        Cut::new(tree, nodes)
    }

    /// The cut at the root: everything collapses to one meta-variable
    /// (paper's `S5 = {Plans}`) — the coarsest abstraction.
    pub fn root(tree: &AbstractionTree) -> Cut {
        Cut {
            nodes: vec![tree.root()],
        }
    }

    /// The cut at the leaves: the identity abstraction (no compression).
    pub fn leaves(tree: &AbstractionTree) -> Cut {
        let mut nodes: Vec<NodeId> = tree
            .node_ids()
            .filter(|&id| tree.is_leaf(id))
            .collect();
        nodes.sort_unstable();
        Cut { nodes }
    }

    /// The cut's nodes (sorted).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes — the expressiveness contribution of this tree
    /// ("the number of distinct variable names it defines").
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the cut has no nodes (never valid for a non-empty tree).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Human-readable node-name set, e.g. `{Business, Special, Standard}`.
    pub fn display(&self, tree: &AbstractionTree) -> String {
        let names: Vec<&str> = self.nodes.iter().map(|&n| tree.node_name(n)).collect();
        format!("{{{}}}", names.join(", "))
    }

    /// The leaf → meta-variable substitution this cut induces.
    ///
    /// Cutting at a leaf keeps its variable. Inner nodes get a variable
    /// named after the node; if that name is already used by a variable in
    /// `reserved` (variables occurring in the polynomials or as tree
    /// leaves), a fresh suffixed name is chosen instead to avoid accidental
    /// merges with pre-existing variables.
    ///
    /// Returns `(substitution, meta info per cut node)`.
    pub fn substitution(
        &self,
        tree: &AbstractionTree,
        reg: &mut VarRegistry,
        reserved: &FxHashSet<Var>,
    ) -> (FxHashMap<Var, Var>, Vec<MetaVar>) {
        let vars: Vec<Var> = (self.nodes.iter())
            .map(|&node| match tree.leaf_var(node) {
                Some(v) => v, // cut at a leaf: identity
                None => {
                    let name = tree.node_name(node).to_owned();
                    let candidate = reg.var(&name);
                    if reserved.contains(&candidate) || tree.contains_var(candidate) {
                        reg.fresh(&name)
                    } else {
                        candidate
                    }
                }
            })
            .collect();
        self.substitution_with(tree, reg, &vars)
            .expect("freshly chosen meta-variables are valid")
    }

    /// The substitution of [`substitution`](Self::substitution) with the
    /// meta-variables already chosen, one per cut node in order — how a
    /// persisted selection reproduces the identities it was compiled
    /// against. `None` unless there is one registered variable per node,
    /// each leaf node keeps its own variable, and no inner node's
    /// variable is a leaf of the tree.
    pub fn substitution_with(
        &self,
        tree: &AbstractionTree,
        reg: &VarRegistry,
        vars: &[Var],
    ) -> Option<(FxHashMap<Var, Var>, Vec<MetaVar>)> {
        if vars.len() != self.nodes.len() {
            return None;
        }
        let mut subst = FxHashMap::default();
        let mut metas = Vec::with_capacity(self.nodes.len());
        for (&node, &var) in self.nodes.iter().zip(vars) {
            let valid = match tree.leaf_var(node) {
                Some(leaf) => var == leaf,
                None => var.index() < reg.len() && !tree.contains_var(var),
            };
            if !valid {
                return None;
            }
            let leaves = tree.leaves_under(node);
            for &leaf in leaves {
                if leaf != var {
                    subst.insert(leaf, var);
                }
            }
            metas.push(MetaVar {
                node,
                var,
                name: reg.name(var).to_owned(),
                leaves: leaves.to_vec(),
            });
        }
        Some((subst, metas))
    }
}

/// One meta-variable introduced by a cut, with the leaves it abstracts —
/// the information shown on the paper's meta-variable assignment screen
/// (Fig. 5).
#[derive(Clone, Debug, PartialEq)]
pub struct MetaVar {
    /// The cut node.
    pub node: NodeId,
    /// The meta-variable (for leaf cuts: the leaf's own variable).
    pub var: Var,
    /// The meta-variable's name.
    pub name: String,
    /// The variables this meta-variable groups (itself for leaf cuts).
    pub leaves: Vec<Var>,
}

/// Enumerates **all** cuts of the tree (for the brute-force oracle).
///
/// The number of cuts can be exponential in the tree size; enumeration
/// aborts with [`CoreError::TooManyCuts`] beyond `limit`.
pub fn enumerate_cuts(tree: &AbstractionTree, limit: usize) -> Result<Vec<Cut>> {
    fn rec(
        tree: &AbstractionTree,
        node: NodeId,
        limit: usize,
    ) -> Result<Vec<Vec<NodeId>>> {
        let mut out = vec![vec![node]];
        if !tree.is_leaf(node) {
            // cartesian product of child cuts
            let mut product: Vec<Vec<NodeId>> = vec![Vec::new()];
            for &c in tree.children(node) {
                let child_cuts = rec(tree, c, limit)?;
                let mut next = Vec::new();
                for base in &product {
                    for cc in &child_cuts {
                        let mut v = base.clone();
                        v.extend_from_slice(cc);
                        next.push(v);
                        if next.len() + out.len() > limit {
                            return Err(CoreError::TooManyCuts { limit });
                        }
                    }
                }
                product = next;
            }
            out.extend(product);
        }
        Ok(out)
    }
    let raw = rec(tree, tree.root(), limit)?;
    raw.into_iter()
        .map(|nodes| Cut::new(tree, nodes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::paper_plans_tree;

    #[test]
    fn paper_cuts_validate() {
        let mut reg = VarRegistry::new();
        let t = paper_plans_tree(&mut reg);
        for (names, k) in [
            (vec!["Business", "Special", "Standard"], 3), // S1
            (vec!["SB", "e", "f1", "f2", "Y", "v", "Standard"], 7), // S2
            (vec!["b1", "b2", "e", "Special", "Standard"], 5), // S3
            (vec!["SB", "e", "F", "Y", "v", "p1", "p2"], 7), // S4
            (vec!["Plans"], 1),                           // S5
        ] {
            let cut = Cut::from_names(&t, &names).unwrap();
            assert_eq!(cut.len(), k, "{names:?}");
        }
    }

    #[test]
    fn invalid_cuts_rejected() {
        let mut reg = VarRegistry::new();
        let t = paper_plans_tree(&mut reg);
        // missing coverage of Standard's leaves
        assert!(matches!(
            Cut::from_names(&t, &["Business", "Special"]),
            Err(CoreError::InvalidCut(_))
        ));
        // double coverage: Business covers e
        assert!(matches!(
            Cut::from_names(&t, &["Business", "e", "Special", "Standard"]),
            Err(CoreError::InvalidCut(_))
        ));
        // overlapping ancestor pair
        assert!(matches!(
            Cut::from_names(&t, &["Plans", "Business"]),
            Err(CoreError::InvalidCut(_))
        ));
        assert!(matches!(
            Cut::from_names(&t, &["Nope"]),
            Err(CoreError::UnknownNode(_))
        ));
    }

    #[test]
    fn root_and_leaf_cuts() {
        let mut reg = VarRegistry::new();
        let t = paper_plans_tree(&mut reg);
        assert_eq!(Cut::root(&t).len(), 1);
        let leaves = Cut::leaves(&t);
        assert_eq!(leaves.len(), 11);
        // both are valid cuts
        Cut::new(&t, Cut::root(&t).nodes().to_vec()).unwrap();
        Cut::new(&t, leaves.nodes().to_vec()).unwrap();
    }

    #[test]
    fn substitution_maps_leaves_to_meta() {
        let mut reg = VarRegistry::new();
        let t = paper_plans_tree(&mut reg);
        let cut = Cut::from_names(&t, &["Business", "Special", "Standard"]).unwrap();
        let (subst, metas) = cut.substitution(&t, &mut reg, &FxHashSet::default());
        assert_eq!(metas.len(), 3);
        // all 11 leaves are substituted (no cut node is a leaf)
        assert_eq!(subst.len(), 11);
        let business = reg.lookup("Business").unwrap();
        let b1 = reg.lookup("b1").unwrap();
        let e = reg.lookup("e").unwrap();
        assert_eq!(subst[&b1], business);
        assert_eq!(subst[&e], business);
        // meta info lists grouped leaves
        let m = metas.iter().find(|m| m.name == "Business").unwrap();
        assert_eq!(m.leaves.len(), 3);
    }

    #[test]
    fn substitution_keeps_leaf_cut_identity() {
        let mut reg = VarRegistry::new();
        let t = paper_plans_tree(&mut reg);
        let cut = Cut::from_names(&t, &["SB", "e", "F", "Y", "v", "p1", "p2"]).unwrap(); // S4
        let (subst, metas) = cut.substitution(&t, &mut reg, &FxHashSet::default());
        let v = reg.lookup("v").unwrap();
        assert!(!subst.contains_key(&v), "leaf cut keeps its variable");
        assert_eq!(metas.iter().filter(|m| m.leaves.len() == 1).count(), 4); // e, v, p1, p2
    }

    #[test]
    fn substitution_avoids_reserved_collision() {
        let mut reg = VarRegistry::new();
        // a polynomial variable already named "Business"
        let existing = reg.var("Business");
        let t = paper_plans_tree(&mut reg);
        let cut = Cut::from_names(&t, &["Business", "Special", "Standard"]).unwrap();
        let reserved: FxHashSet<Var> = [existing].into_iter().collect();
        let (_, metas) = cut.substitution(&t, &mut reg, &reserved);
        let m = metas.iter().find(|m| m.node == t.node_by_name("Business").unwrap()).unwrap();
        assert_ne!(m.var, existing);
        assert_eq!(m.name, "Business#1");
    }

    #[test]
    fn enumerate_counts_fig2_cuts() {
        let mut reg = VarRegistry::new();
        let t = paper_plans_tree(&mut reg);
        let cuts = enumerate_cuts(&t, 10_000).unwrap();
        // #cuts(v) = 1 + Π #cuts(children):
        // Standard: 1+1=2; Y: 2; F: 2; SB: 2; Special: 1+2·2·1=5;
        // Business: 1+2·1=3; Plans: 1+2·5·3=31.
        assert_eq!(cuts.len(), 31);
        // all distinct and valid
        let mut seen = std::collections::HashSet::new();
        for c in &cuts {
            assert!(seen.insert(c.nodes().to_vec()));
        }
    }

    #[test]
    fn enumerate_respects_limit() {
        let mut reg = VarRegistry::new();
        let t = paper_plans_tree(&mut reg);
        assert!(matches!(
            enumerate_cuts(&t, 10),
            Err(CoreError::TooManyCuts { limit: 10 })
        ));
    }
}
