//! Hypothetical scenarios — the "what if" side of the demonstration.
//!
//! A scenario is a multiplicative change to a set of provenance
//! variables: "what if the ppm of all plans decreased by 20% on March?"
//! is `m3 ↦ 0.8`; "what if the business plans increased by 10%?" is
//! `{b1, b2, e} ↦ 1.1` (paper §2, Example 1).
//!
//! Beyond the four single scenarios the demo walks through, this module
//! emits scenario **grids** ([`telephony_grid`],
//! [`telephony_scenario_set`]): cartesian products of the demo's factor
//! axes, described as [`ScenarioSet`]s in O(axes) memory so sweeps of
//! 10⁵+ scenarios never materialize per-scenario valuations.

use cobra_core::scenario_set::{Axis, ScenarioSet};
use cobra_provenance::{Valuation, Var, VarRegistry};
use cobra_util::Rat;

/// A named multiplicative what-if scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Short identifier.
    pub name: &'static str,
    /// Human-readable description (as phrased in the paper).
    pub description: &'static str,
    /// `(variable name, factor)` pairs; all other variables stay at 1.
    pub factors: Vec<(&'static str, Rat)>,
}

impl Scenario {
    /// Builds the leaf-level valuation (default 1 elsewhere), registering
    /// any missing variables.
    pub fn valuation(&self, reg: &mut VarRegistry) -> Valuation<Rat> {
        let mut val = Valuation::with_default(Rat::ONE);
        for (name, factor) in &self.factors {
            val.set(reg.var(name), *factor);
        }
        val
    }

    /// The variables this scenario moves, registering any missing ones.
    pub fn vars(&self, reg: &mut VarRegistry) -> Vec<Var> {
        self.factors.iter().map(|(name, _)| reg.var(name)).collect()
    }

    /// The scenario as one grid axis: its variable group swept over
    /// `levels` instead of pinned at the single demo factor. Composing
    /// axes from several scenarios yields the explorer's grid.
    pub fn axis(&self, reg: &mut VarRegistry, levels: impl IntoIterator<Item = Rat>) -> Axis {
        Axis::new(self.vars(reg), levels)
    }
}

fn rat(s: &str) -> Rat {
    Rat::parse(s).expect("scenario factor literal")
}

/// §2 Example 1: "what if the price per minute of all plans are decreased
/// by 20% on March?"
pub fn march_discount() -> Scenario {
    Scenario {
        name: "march-20pct-off",
        description: "ppm of all plans decreased by 20% in March",
        factors: vec![("m3", rat("0.8"))],
    }
}

/// §2 Example 1: "what if the ppm in the business calling plans are
/// increased by 10%?" — aligned with the `Business` subtree of Fig. 2,
/// so compression under any cut at or below `Business` loses nothing.
pub fn business_increase() -> Scenario {
    Scenario {
        name: "business-up-10pct",
        description: "ppm of business plans (SB1, SB2, E) increased by 10%",
        factors: vec![
            ("b1", rat("1.1")),
            ("b2", rat("1.1")),
            ("e", rat("1.1")),
        ],
    }
}

/// A tree-misaligned variant: only SB1 changes. Once `b1` is merged into
/// `SB` or `Business`, the compressed provenance can only approximate
/// this scenario — the loss the demo lets the audience observe.
pub fn sb1_only_increase() -> Scenario {
    Scenario {
        name: "sb1-only-up-10pct",
        description: "ppm of SB1 alone increased by 10% (not expressible after grouping)",
        factors: vec![("b1", rat("1.1"))],
    }
}

/// §4: "prices are usually changed uniformly during each quarter" — a
/// Q1-uniform change, aligned with the quarters tree.
pub fn q1_uniform_discount() -> Scenario {
    Scenario {
        name: "q1-uniform-5pct-off",
        description: "ppm decreased by 5% across the first quarter",
        factors: vec![
            ("m1", rat("0.95")),
            ("m2", rat("0.95")),
            ("m3", rat("0.95")),
        ],
    }
}

/// All telephony scenarios in demonstration order.
pub fn telephony_scenarios() -> Vec<Scenario> {
    vec![
        march_discount(),
        business_increase(),
        sb1_only_increase(),
        q1_uniform_discount(),
    ]
}

/// The demonstration catalogue as a named [`ScenarioSet`] — the four
/// single scenarios behind one sweepable surface (labels preserved).
pub fn telephony_scenario_set(reg: &mut VarRegistry) -> ScenarioSet {
    ScenarioSet::named(
        telephony_scenarios()
            .into_iter()
            .map(|s| (s.name, s.valuation(reg))),
    )
}

/// The explorer's scenario **grid**: the demo's three disjoint factor
/// groups — the March month (`m3`), the business plans (`b1, b2, e`) and
/// the standard plans (`p1, p2`) — each swept over `steps` evenly spaced
/// factors (March ±20%, plans ±10%), giving `steps³` scenarios described
/// in O(1) memory. `steps = 47` yields a 103 823-scenario grid.
pub fn telephony_grid(reg: &mut VarRegistry, steps: usize) -> ScenarioSet {
    telephony_grid_steps(reg, [steps; 3])
}

/// [`telephony_grid`] with a per-axis step count — the knob the streaming
/// fold-sweep experiments turn to reach 10⁶–10⁷ scenarios (`[100; 3]` is
/// a 10⁶-point grid, `[220; 3]` ≈ 1.06 × 10⁷) while the description stays
/// three axes. Zero steps on any axis empties the grid.
pub fn telephony_grid_steps(reg: &mut VarRegistry, steps: [usize; 3]) -> ScenarioSet {
    let rat = |s: &str| Rat::parse(s).expect("grid bound literal");
    ScenarioSet::grid()
        .push(Axis::linspace(
            march_discount().vars(reg),
            rat("0.8"),
            rat("1.2"),
            steps[0],
        ))
        .push(Axis::linspace(
            business_increase().vars(reg),
            rat("0.9"),
            rat("1.1"),
            steps[1],
        ))
        .push(Axis::linspace(
            [reg.var("p1"), reg.var("p2")],
            rat("0.9"),
            rat("1.1"),
            steps[2],
        ))
        .build()
        .expect("telephony grid axes are disjoint")
}

/// [`telephony_grid_steps`] with a **fourth factor axis** — the special
/// plans (`y1, y2, y3, f1, f2, v`, the full `Special` subtree of Fig. 2)
/// swept ±10% — so grids reach 10⁸⁺ scenarios while staying an O(axes)
/// description (`[100; 4]` is a 10⁸-point family) and every axis still
/// moves a whole tree group (compression stays lossless across the
/// grid). This is the scale knob for the parallel fold-combine engines
/// (`fold_par::<P>` and its sugar), whose per-worker streaming makes such
/// families tractable.
pub fn telephony_grid4(reg: &mut VarRegistry, steps: [usize; 4]) -> ScenarioSet {
    let rat = |s: &str| Rat::parse(s).expect("grid bound literal");
    let special: Vec<Var> = ["y1", "y2", "y3", "f1", "f2", "v"]
        .iter()
        .map(|n| reg.var(n))
        .collect();
    ScenarioSet::grid()
        .push(Axis::linspace(
            march_discount().vars(reg),
            rat("0.8"),
            rat("1.2"),
            steps[0],
        ))
        .push(Axis::linspace(
            business_increase().vars(reg),
            rat("0.9"),
            rat("1.1"),
            steps[1],
        ))
        .push(Axis::linspace(
            [reg.var("p1"), reg.var("p2")],
            rat("0.9"),
            rat("1.1"),
            steps[2],
        ))
        .push(Axis::linspace(special, rat("0.9"), rat("1.1"), steps[3]))
        .build()
        .expect("telephony grid axes are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valuations_bind_factors_with_unit_default() {
        let mut reg = VarRegistry::new();
        let val = march_discount().valuation(&mut reg);
        let m3 = reg.lookup("m3").unwrap();
        assert_eq!(val.get(m3), Some(rat("0.8")));
        assert_eq!(val.get(reg.var("other")), Some(Rat::ONE));
    }

    #[test]
    fn business_scenario_is_uniform_over_group() {
        let mut reg = VarRegistry::new();
        let val = business_increase().valuation(&mut reg);
        for name in ["b1", "b2", "e"] {
            assert_eq!(val.get(reg.lookup(name).unwrap()), Some(rat("1.1")));
        }
    }

    #[test]
    fn scenario_set_carries_catalogue_labels() {
        let mut reg = VarRegistry::new();
        let set = telephony_scenario_set(&mut reg);
        assert_eq!(set.len(), 4);
        assert_eq!(set.label(0), Some("march-20pct-off"));
        let m3 = reg.lookup("m3").unwrap();
        let base = Valuation::with_default(Rat::ONE);
        assert_eq!(set.scenario_valuation(0, &base).get(m3), Some(rat("0.8")));
    }

    #[test]
    fn telephony_grid_steps_sets_per_axis_cardinality() {
        let mut reg = VarRegistry::new();
        let grid = telephony_grid_steps(&mut reg, [2, 3, 4]);
        assert_eq!(grid.len(), 24);
        // a 10⁷-scale grid is still three axes of O(steps) levels
        let huge = telephony_grid_steps(&mut VarRegistry::new(), [220, 220, 220]);
        assert_eq!(huge.len(), 10_648_000);
        assert_eq!(huge.axes().unwrap().len(), 3);
    }

    #[test]
    fn telephony_grid4_reaches_1e8_in_four_axes() {
        let mut reg = VarRegistry::new();
        let grid = telephony_grid4(&mut reg, [2, 3, 4, 5]);
        assert_eq!(grid.len(), 120);
        let axes = grid.axes().unwrap();
        assert_eq!(axes.len(), 4);
        assert_eq!(axes[3].vars().len(), 6); // the whole Special group moves together
        let huge = telephony_grid4(&mut VarRegistry::new(), [100; 4]);
        assert_eq!(huge.len(), 100_000_000);
        assert_eq!(huge.axes().unwrap().len(), 4);
    }

    #[test]
    fn telephony_grid_scales_as_steps_cubed() {
        let mut reg = VarRegistry::new();
        let grid = telephony_grid(&mut reg, 5);
        assert_eq!(grid.len(), 125);
        let axes = grid.axes().unwrap();
        assert_eq!(axes.len(), 3);
        assert_eq!(axes[0].levels().first(), Some(&rat("0.8")));
        assert_eq!(axes[0].levels().last(), Some(&rat("1.2")));
        assert_eq!(axes[1].vars().len(), 3); // b1, b2, e move together
        // a 10^5+ grid is still just three axes
        let big = telephony_grid(&mut VarRegistry::new(), 47);
        assert_eq!(big.len(), 103_823);
    }

    #[test]
    fn scenario_axis_reuses_the_factor_group() {
        let mut reg = VarRegistry::new();
        let axis = business_increase().axis(&mut reg, [rat("0.9"), rat("1.1")]);
        assert_eq!(axis.vars().len(), 3);
        assert_eq!(axis.levels().len(), 2);
    }

    #[test]
    fn scenario_catalogue_is_distinctly_named() {
        let all = telephony_scenarios();
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
