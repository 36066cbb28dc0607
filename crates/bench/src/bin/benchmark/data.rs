//! Inputs: the three generators, cut to datasets, and the seeded
//! scenarios, deltas and grids every workload draws from them.
//!
//! A [`Dataset`] is what an analyst brings to one session: polynomials,
//! abstraction tree(s), and the names of the variables hypotheticals
//! move. Everything is addressed **by name**, because a session built
//! from text interns its own variable ids; [`Dataset::scenario`] and
//! friends resolve names against the session (or registry) they are
//! about to be used with.

use crate::surface::{
    self, AbstractionTree, Axis, CobraSession, InstrumentedTpch, Monomial, NodeId, PolyDelta,
    PolySet, Rat, ScenarioSet, SplitMix64, SyntheticConfig, TelephonyConfig, TpchQuery, Valuation,
    VarRegistry,
};

/// One grid axis: the variables it moves together and its factor range.
#[derive(Clone, Debug)]
pub struct AxisSpec {
    pub vars: Vec<String>,
    pub lo: Rat,
    pub hi: Rat,
}

/// One session's worth of input.
pub struct Dataset {
    /// Session id on the wire; also names temp artifacts.
    pub id: String,
    pub reg: VarRegistry,
    pub polys: PolySet<Rat>,
    /// Abstraction trees in the compact text syntax (two = a forest).
    pub trees: Vec<String>,
    /// Leaves of the first tree — what single-variable what-ifs perturb.
    pub leaves: Vec<String>,
    /// Variables outside every tree (months, contexts).
    pub others: Vec<String>,
    /// Axes of the large what-if grid.
    pub axes: Vec<AxisSpec>,
    /// The two size bounds sessions hop between, most permissive first.
    /// Clamp with [`feasible`] — a frontier's floor can sit above them.
    pub bounds: [u64; 2],
}

/// `bound`, raised to the frontier's floor when it sits below it.
pub fn feasible(bound: u64, min_size: u64) -> u64 {
    bound.max(min_size)
}

/// The compact text of `tree` (the syntax `add_tree_text` parses).
pub fn tree_text(tree: &AbstractionTree, reg: &VarRegistry) -> String {
    fn node(tree: &AbstractionTree, id: NodeId, reg: &VarRegistry, out: &mut String) {
        match tree.leaf_var(id) {
            Some(v) => out.push_str(reg.name(v)),
            None => {
                out.push_str(tree.node_name(id));
                out.push('(');
                for (i, &c) in tree.children(id).iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    node(tree, c, reg, out);
                }
                out.push(')');
            }
        }
    }
    let mut out = String::new();
    node(tree, tree.root(), reg, &mut out);
    out
}

fn leaf_names(tree: &AbstractionTree, reg: &VarRegistry) -> Vec<String> {
    tree.leaves()
        .iter()
        .map(|&v| reg.name(v).to_owned())
        .collect()
}

/// The leaves under the `i`-th child of the root, as one axis group.
fn child_group(tree: &AbstractionTree, reg: &VarRegistry, i: usize) -> Option<Vec<String>> {
    let child = *tree.children(tree.root()).get(i)?;
    Some(
        tree.leaves_under(child)
            .iter()
            .map(|&v| reg.name(v).to_owned())
            .collect(),
    )
}

fn rat(num: i128, den: i128) -> Rat {
    Rat::new(num, den)
}

fn tenth_axis(vars: Vec<String>) -> AxisSpec {
    AxisSpec {
        vars,
        lo: rat(9, 10),
        hi: rat(11, 10),
    }
}

/// The paper's two bounds at 1,055 zips, scaled to `zips`.
fn telephony_bounds(zips: usize) -> [u64; 2] {
    [94_600, 38_600].map(|b: u64| b * zips as u64 / 1055)
}

/// Telephony at `zips` zip codes (1,055 is the paper's 139,260
/// monomials): Fig. 2 tree, the explorer's three-axis grid (March,
/// business plans, standard plans).
pub fn telephony(seed: u64, customers: usize, zips: usize) -> Dataset {
    let config = TelephonyConfig {
        customers,
        zips,
        months: 12,
        seed,
    };
    let mut reg = VarRegistry::new();
    let polys = surface::telephony_polys(config, &mut reg);
    let names = |xs: &[&str]| xs.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    Dataset {
        id: "paper".into(),
        reg,
        polys,
        trees: vec![surface::FIG2_TREE.to_owned()],
        leaves: names(&[
            "p1", "p2", "f1", "f2", "y1", "y2", "y3", "v", "b1", "b2", "e",
        ]),
        others: (1..=12).map(|m| format!("m{m}")).collect(),
        axes: vec![
            AxisSpec {
                vars: names(&["m3"]),
                lo: rat(8, 10),
                hi: rat(12, 10),
            },
            tenth_axis(names(&["b1", "b2", "e"])),
            tenth_axis(names(&["p1", "p2"])),
        ],
        bounds: telephony_bounds(zips),
    }
}

fn fraction_bounds(total: usize) -> [u64; 2] {
    // The paper's two bounds as shares of the full size (94,600 and
    // 38,600 of 139,260).
    [total as u64 * 68 / 100, total as u64 * 28 / 100]
}

/// One `synthetic::generate` input. The grid moves the even-numbered
/// leaves against the odd-numbered ones: two axes whatever the seed
/// makes of the random tree (a grid whose size followed the tree's
/// top-level split would make per-scenario numbers incomparable across
/// seeds), and cutting across every subtree, so the abstraction's error
/// on it is not zero.
pub fn synthetic(id: &str, config: SyntheticConfig) -> Dataset {
    let syn = surface::synthetic(config);
    let leaves = leaf_names(&syn.tree, &syn.reg);
    let pick =
        |parity: usize| -> Vec<String> { leaves.iter().skip(parity).step_by(2).cloned().collect() };
    let (a, b) = (pick(0), pick(1));
    Dataset {
        id: id.to_owned(),
        trees: vec![tree_text(&syn.tree, &syn.reg)],
        others: syn
            .context_vars
            .iter()
            .map(|&v| syn.reg.name(v).to_owned())
            .collect(),
        axes: vec![tenth_axis(a), tenth_axis(b)],
        bounds: fraction_bounds(syn.set.total_monomials()),
        leaves,
        polys: syn.set,
        reg: syn.reg,
    }
}

/// The trees and variable names every TPC-H query dataset shares.
pub struct TpchShape {
    trees: Vec<String>,
    leaves: Vec<String>,
    others: Vec<String>,
    axes: Vec<AxisSpec>,
}

impl TpchShape {
    /// Geography and time trees over `inst`'s registry (both trees only
    /// name variables the instrumentation already interned).
    pub fn new(inst: &InstrumentedTpch) -> TpchShape {
        let mut reg = inst.reg.clone();
        let geo = surface::tpch_geography_tree(&mut reg);
        let time = surface::tpch_time_tree(&mut reg);
        let axes = [(&geo, 0), (&geo, 2), (&time, 0)]
            .into_iter()
            .filter_map(|(tree, i)| child_group(tree, &reg, i))
            .map(tenth_axis)
            .collect();
        TpchShape {
            trees: vec![tree_text(&geo, &reg), tree_text(&time, &reg)],
            leaves: leaf_names(&geo, &reg),
            others: leaf_names(&time, &reg),
            axes,
        }
    }
}

/// One captured TPC-H query as a forest dataset.
pub fn tpch_query(
    inst: &InstrumentedTpch,
    shape: &TpchShape,
    query: &TpchQuery,
    polys: PolySet<Rat>,
) -> Dataset {
    Dataset {
        id: query.name.to_owned(),
        reg: inst.reg.clone(),
        bounds: fraction_bounds(polys.total_monomials()),
        polys,
        trees: shape.trees.clone(),
        leaves: shape.leaves.clone(),
        others: shape.others.clone(),
        axes: shape.axes.clone(),
    }
}

/// A what-if as the wire carries it: variable name → factor.
pub type Bindings = Vec<(String, Rat)>;

/// A factor in `[0.900, 1.100]`, three decimals.
fn factor(rng: &mut SplitMix64) -> Rat {
    rat(900 + rng.gen_range(201) as i128, 1000)
}

impl Dataset {
    /// `n` single-variable perturbations (one scenario each), drawn over
    /// the tree leaves and, one time in four, the off-tree variables.
    pub fn perturbations(&self, rng: &mut SplitMix64, n: usize) -> Bindings {
        (0..n)
            .map(|_| {
                let pool = if !self.others.is_empty() && rng.gen_range(4) == 0 {
                    &self.others
                } else {
                    &self.leaves
                };
                (rng.choose(pool).clone(), factor(rng))
            })
            .collect()
    }

    /// One exact what-if: two distinct leaves and one off-tree variable
    /// move.
    pub fn assignment(&self, rng: &mut SplitMix64) -> Bindings {
        let first = rng.gen_index(self.leaves.len());
        let mut out = vec![(self.leaves[first].clone(), factor(rng))];
        if self.leaves.len() > 1 {
            let second = (first + 1 + rng.gen_index(self.leaves.len() - 1)) % self.leaves.len();
            out.push((self.leaves[second].clone(), factor(rng)));
        }
        if !self.others.is_empty() {
            out.push((rng.choose(&self.others).clone(), factor(rng)));
        }
        out
    }

    /// A tree-aligned what-if: every leaf of a tree moves by the same
    /// factor (uniform inside every possible cut group). In a forest the
    /// off-tree names are the second tree's leaves and move together
    /// too; otherwise one of them moves alone. Compressed must equal
    /// full exactly.
    pub fn aligned(&self, rng: &mut SplitMix64) -> Bindings {
        let f = factor(rng);
        let mut out: Bindings = self.leaves.iter().map(|l| (l.clone(), f)).collect();
        let g = factor(rng);
        if self.trees.len() > 1 {
            out.extend(self.others.iter().map(|o| (o.clone(), g)));
        } else if !self.others.is_empty() {
            out.push((rng.choose(&self.others).clone(), g));
        }
        out
    }

    /// 16 coefficient edits (`set`), as `(poly index, monomial, original
    /// coefficient)` — scale the original by a fresh factor per round so
    /// no round is a no-op and the original can be put back.
    pub fn delta_targets(&self, rng: &mut SplitMix64) -> Vec<(usize, Monomial, Rat)> {
        let mut out: Vec<(usize, Monomial, Rat)> = Vec::new();
        while out.len() < 16.min(self.polys.total_monomials()) {
            let p = rng.gen_index(self.polys.len());
            let terms = self.polys.poly(p).expect("index in range").terms();
            if terms.is_empty() {
                continue;
            }
            let (m, c) = &terms[rng.gen_index(terms.len())];
            if !out.iter().any(|(q, n, _)| *q == p && n == m) {
                out.push((p, m.clone(), *c));
            }
        }
        out
    }
}

/// Resolves `bindings` against `reg` into a default-one valuation.
pub fn valuation(reg: &mut VarRegistry, bindings: &[(String, Rat)]) -> Valuation<Rat> {
    let mut val = Valuation::with_default(Rat::ONE);
    for (name, f) in bindings {
        val.set(reg.var(name), *f);
    }
    val
}

/// One scenario per binding — the server's reading of a sweep request.
pub fn perturbation_set(reg: &mut VarRegistry, bindings: &[(String, Rat)]) -> ScenarioSet {
    ScenarioSet::from_valuations(
        bindings
            .iter()
            .map(|(name, f)| Valuation::with_default(Rat::ONE).bind(reg.var(name), *f))
            .collect(),
    )
}

/// The dataset's what-if grid with `steps[i]` levels on axis `i`,
/// resolved against `session`'s registry.
pub fn grid(session: &mut CobraSession, axes: &[AxisSpec], steps: &[usize]) -> ScenarioSet {
    let reg = session.registry_mut();
    let mut builder = ScenarioSet::grid();
    for (axis, &n) in axes.iter().zip(steps) {
        let vars: Vec<_> = axis.vars.iter().map(|name| reg.var(name)).collect();
        builder = builder.push(Axis::linspace(vars, axis.lo, axis.hi, n));
    }
    builder.build().expect("dataset axes are disjoint")
}

/// The delta of `round`: every target's coefficient set to its original
/// times `(100 + round) / 100`. Round 0 restores the originals.
pub fn delta(targets: &[(usize, Monomial, Rat)], round: u64) -> PolyDelta<Rat> {
    let scale = rat(100 + (round % 50) as i128, 100);
    let mut delta = PolyDelta::new();
    for (p, m, c) in targets {
        delta.set(*p, m.clone(), *c * scale);
    }
    delta
}

/// [`delta`] for a session whose registry is `reg`: a session built
/// from text numbers its variables in its own order, so the monomials
/// are carried over by name.
pub fn delta_in(
    ds: &Dataset,
    reg: &mut VarRegistry,
    targets: &[(usize, Monomial, Rat)],
    round: u64,
) -> PolyDelta<Rat> {
    let renamed: Vec<_> = targets
        .iter()
        .map(|(p, m, c)| (*p, m.rename(|v| reg.var(ds.reg.name(v))), *c))
        .collect();
    delta(&renamed, round)
}

/// The same delta as wire ops: `(poly label, "coeff*var*var")`.
pub fn delta_wire(
    ds: &Dataset,
    targets: &[(usize, Monomial, Rat)],
    round: u64,
) -> Vec<(String, String)> {
    let scale = rat(100 + (round % 50) as i128, 100);
    targets
        .iter()
        .map(|(p, m, c)| {
            let mut term = (*c * scale).to_string();
            for (v, e) in m.iter() {
                term.push('*');
                term.push_str(ds.reg.name(v));
                if e > 1 {
                    term.push_str(&format!("^{e}"));
                }
            }
            (ds.polys.label(*p).expect("index in range").to_owned(), term)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_text_round_trips_through_the_parser() {
        let ds = synthetic(
            "t",
            SyntheticConfig {
                leaves: 12,
                max_children: 3,
                polynomials: 2,
                contexts: 2,
                density: 0.5,
                seed: 5,
            },
        );
        let mut reg = VarRegistry::new();
        let tree = AbstractionTree::parse(&ds.trees[0], &mut reg).unwrap();
        assert_eq!(tree_text(&tree, &reg), ds.trees[0]);
        assert_eq!(tree.num_leaves(), 12);
        assert_eq!(ds.axes.len(), 2);
    }

    #[test]
    fn scenarios_follow_the_seed() {
        let ds = telephony(3, 2_000, 20);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (ds.perturbations(&mut rng, 8), ds.assignment(&mut rng))
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_eq!(ds.bounds, [94_600 * 20 / 1055, 38_600 * 20 / 1055]);
    }

    #[test]
    fn wire_delta_mirrors_the_in_memory_delta() {
        let ds = telephony(3, 2_000, 20);
        let targets = ds.delta_targets(&mut SplitMix64::new(9));
        assert_eq!(targets.len(), 16);
        let wire = delta_wire(&ds, &targets, 7);
        let mut reg = ds.reg.clone();
        let mut patched = ds.polys.clone();
        surface::polyset_apply_delta(&mut patched, &delta(&targets, 7)).unwrap();
        for ((label, term), (p, m, _)) in wire.iter().zip(&targets) {
            assert_eq!(ds.polys.label(*p), Some(label.as_str()));
            let parsed = surface::parse_polyset(&format!("T = {term}"), &mut reg).unwrap();
            let (pm, pc) = &parsed.poly(0).unwrap().terms()[0];
            assert_eq!(pm, m);
            assert_eq!(*pc, patched.poly(*p).unwrap().coeff_of(m));
        }
        // round 0 puts the originals back
        surface::polyset_apply_delta(&mut patched, &delta(&targets, 0)).unwrap();
        assert_eq!(patched, ds.polys);
    }
}
