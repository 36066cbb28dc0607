//! Meta-variable assignment and full-vs-compressed evaluation.
//!
//! After compression "the user may input valuation to the compressed
//! polynomials' variables, and the system generates the query results
//! under the scenario given by the assignment" (paper §3). Defaults are
//! "average over the abstracted variables' values" (Fig. 5), and the
//! system reports the result deltas and the **assignment speedup**.

use crate::cut::MetaVar;
use cobra_provenance::{Coeff, PolySet, Valuation, Var};
use cobra_util::timing::speedup_percent;
use cobra_util::Rat;
use std::time::Duration;

/// The default meta-valuation: each meta-variable gets the **average** of
/// its grouped leaves' values under `base` (paper Fig. 5). Leaves missing
/// from `base` use its default (or 1 if none).
pub fn default_meta_valuation(metas: &[MetaVar], base: &Valuation<Rat>) -> Valuation<Rat> {
    let fallback = base.default_value().copied().unwrap_or(Rat::ONE);
    let mut out = Valuation::with_default(fallback);
    for meta in metas {
        let sum: Rat = meta
            .leaves
            .iter()
            .map(|&l| base.get(l).unwrap_or(fallback))
            .sum();
        let avg = sum / Rat::int(meta.leaves.len() as i64);
        out.set(meta.var, avg);
    }
    out
}

/// Projects a *leaf-level* scenario onto the meta-variables: each meta
/// takes the average of the scenario over its leaves. When the scenario is
/// uniform within every group (it "respects the abstraction"), this
/// projection is lossless and the compressed result is exact.
pub fn project_scenario(metas: &[MetaVar], scenario: &Valuation<Rat>) -> Valuation<Rat> {
    default_meta_valuation(metas, scenario)
}

/// Expands a meta-valuation back to the leaves (every leaf inherits its
/// meta-variable's value). The pair `(project, expand)` captures exactly
/// the degrees of freedom lost to the abstraction.
pub fn expand_to_leaves(metas: &[MetaVar], meta_val: &Valuation<Rat>) -> Valuation<Rat> {
    let fallback = meta_val.default_value().copied().unwrap_or(Rat::ONE);
    let mut out = Valuation::with_default(fallback);
    for meta in metas {
        let v = meta_val.get(meta.var).unwrap_or(fallback);
        for &leaf in &meta.leaves {
            out.set(leaf, v);
        }
    }
    out
}

/// One row of the side-by-side result view (paper Fig. 3: "the query
/// result using the full provenance compared with the result using the
/// compressed provenance").
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// Result-tuple label (e.g. the zip code).
    pub label: String,
    /// Value from the full provenance under the leaf-level scenario.
    pub full: Rat,
    /// Value from the compressed provenance under the meta scenario.
    pub compressed: Rat,
}

impl ResultRow {
    /// Absolute error introduced by the compression.
    pub fn abs_error(&self) -> Rat {
        (self.full - self.compressed).abs()
    }

    /// Relative error (|Δ| / |full|), 0 for a zero baseline.
    pub fn rel_error(&self) -> f64 {
        rel_error_value(&self.full, &self.compressed)
    }
}

/// Relative error of a full/compressed value pair (|Δ| / |full|, 0 for a
/// doubly-zero pair, ∞ for a zero baseline) — shared by [`ResultRow`] and
/// the flat sweep storage.
pub(crate) fn rel_error_value(full: &Rat, compressed: &Rat) -> f64 {
    if full.is_zero() {
        if compressed.is_zero() {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((*full - *compressed).abs() / full.abs()).to_f64()
    }
}

/// The `f64` sibling of [`rel_error_value`], with the same zero
/// conventions — one definition shared by the divergence probe, the
/// approximate sweep statistics, and the error folds, so the convention
/// cannot silently diverge between them.
pub(crate) fn rel_error_f64(reference: f64, other: f64) -> f64 {
    if reference == 0.0 {
        if other == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((reference - other) / reference).abs()
    }
}

/// Full-vs-compressed comparison across all result tuples.
#[derive(Clone, Debug, Default)]
pub struct ResultComparison {
    /// Per-tuple rows, in the polynomial set's order.
    pub rows: Vec<ResultRow>,
}

impl ResultComparison {
    /// Evaluates `full` under `leaf_val` and `compressed` under `meta_val`
    /// and pairs the results by position.
    ///
    /// # Panics
    /// Panics if either valuation lacks a binding (give them defaults) —
    /// assignment screens always provide totals.
    pub fn evaluate(
        full: &PolySet<Rat>,
        leaf_val: &Valuation<Rat>,
        compressed: &PolySet<Rat>,
        meta_val: &Valuation<Rat>,
    ) -> ResultComparison {
        let f = full.eval(leaf_val).expect("leaf valuation must be total");
        let c = compressed
            .eval(meta_val)
            .expect("meta valuation must be total");
        assert_eq!(f.len(), c.len(), "polynomial sets must align");
        ResultComparison {
            rows: f
                .into_iter()
                .zip(c)
                .map(|((label, full), (_, compressed))| ResultRow {
                    label,
                    full,
                    compressed,
                })
                .collect(),
        }
    }

    /// Largest relative error over all rows.
    pub fn max_rel_error(&self) -> f64 {
        self.rows.iter().map(ResultRow::rel_error).fold(0.0, f64::max)
    }

    /// Mean relative error over all rows.
    pub fn mean_rel_error(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(ResultRow::rel_error).sum::<f64>() / self.rows.len() as f64
    }

    /// True iff compression introduced no error at all.
    pub fn is_exact(&self) -> bool {
        self.rows.iter().all(|r| r.full == r.compressed)
    }
}

/// Timing of one scenario assignment on full vs. compressed provenance —
/// the paper's "assignment speedup" read-out.
#[derive(Clone, Copy, Debug)]
pub struct SpeedupMeasurement {
    /// Time to evaluate the full provenance.
    pub full_time: Duration,
    /// Time to evaluate the compressed provenance.
    pub compressed_time: Duration,
    /// Monomials in the full provenance.
    pub full_size: usize,
    /// Monomials in the compressed provenance.
    pub compressed_size: usize,
}

impl SpeedupMeasurement {
    /// The paper's speedup figure: `(t_full − t_comp) / t_full × 100`.
    pub fn speedup_percent(&self) -> f64 {
        speedup_percent(self.full_time, self.compressed_time)
    }
}

/// A scenario assigning `factor` to every variable in `vars` (and 1, i.e.
/// "unchanged", elsewhere) — the paper's "what if the ppm of the business
/// calling plans are increased by 10%" style of hypothetical.
pub fn uniform_scenario(vars: &[Var], factor: Rat) -> Valuation<Rat> {
    let mut val = Valuation::with_default(Rat::ONE);
    for &v in vars {
        val.set(v, factor);
    }
    val
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_cut;
    use crate::cut::Cut;
    use crate::tree::paper_plans_tree;
    use cobra_provenance::{parse_polyset, VarRegistry};

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    fn setup() -> (
        VarRegistry,
        crate::tree::AbstractionTree,
        PolySet<Rat>,
        crate::apply::AppliedAbstraction<Rat>,
    ) {
        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let src = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";
        let set = parse_polyset(src, &mut reg).unwrap();
        let cut = Cut::from_names(&tree, &["Business", "Special", "Standard"]).unwrap();
        let applied = apply_cut(&set, &tree, &cut, &mut reg);
        (reg, tree, set, applied)
    }

    #[test]
    fn default_meta_values_are_averages() {
        let (mut reg, _, _, applied) = setup();
        let b1 = reg.var("b1");
        let b2 = reg.var("b2");
        let e = reg.var("e");
        let base = Valuation::with_default(Rat::ONE)
            .bind(b1, rat("1.2"))
            .bind(b2, rat("0.9"))
            .bind(e, rat("0.6"));
        let metas = default_meta_valuation(&applied.meta_vars, &base);
        let business = reg.lookup("Business").unwrap();
        assert_eq!(metas.get(business), Some(rat("0.9"))); // (1.2+0.9+0.6)/3
        // untouched groups default to the average of all-ones = 1
        let standard = reg.lookup("Standard").unwrap();
        assert_eq!(metas.get(standard), Some(Rat::ONE));
    }

    #[test]
    fn aligned_scenario_is_exact() {
        // "business plans +10%" groups exactly under the Business node, so
        // the compressed result must equal the full result.
        let (mut reg, _, set, applied) = setup();
        let vars = ["b1", "b2", "e"].map(|n| reg.var(n));
        let scenario = uniform_scenario(&vars, rat("1.1"));
        let meta = project_scenario(&applied.meta_vars, &scenario);
        let cmp = ResultComparison::evaluate(&set, &scenario, &applied.compressed, &meta);
        assert!(cmp.is_exact());
        assert_eq!(cmp.max_rel_error(), 0.0);
        // P2 grows by exactly 10%
        let p2_row = &cmp.rows[1];
        assert_eq!(p2_row.label, "P2");
        let original: Rat = rat("77.9") + rat("80.5") + rat("52.2") + rat("56.5")
            + rat("69.7")
            + rat("100.65");
        assert_eq!(p2_row.full, original * rat("1.1"));
    }

    #[test]
    fn misaligned_scenario_incurs_bounded_error() {
        // "only SB1 (b1) +10%" cannot be expressed once b1 merged into
        // Business; the meta gets the group average (1.1+1+1)/3.
        let (mut reg, _, set, applied) = setup();
        let b1 = reg.var("b1");
        let scenario = uniform_scenario(&[b1], rat("1.1"));
        let meta = project_scenario(&applied.meta_vars, &scenario);
        let cmp = ResultComparison::evaluate(&set, &scenario, &applied.compressed, &meta);
        assert!(!cmp.is_exact());
        // P1 has no business plans → still exact there
        assert_eq!(cmp.rows[0].full, cmp.rows[0].compressed);
        assert!(cmp.rows[1].rel_error() > 0.0);
        assert!(cmp.max_rel_error() < 0.1, "error stays small");
        assert!(cmp.mean_rel_error() <= cmp.max_rel_error());
    }

    #[test]
    fn expand_project_round_trip_on_aligned_scenarios() {
        let (reg, _, _, applied) = setup();
        let business = reg.lookup("Business").unwrap();
        let meta = Valuation::with_default(Rat::ONE).bind(business, rat("0.8"));
        let leaves = expand_to_leaves(&applied.meta_vars, &meta);
        let b2 = reg.lookup("b2").unwrap();
        assert_eq!(leaves.get(b2), Some(rat("0.8")));
        // projecting back recovers the meta value exactly
        let back = project_scenario(&applied.meta_vars, &leaves);
        assert_eq!(back.get(business), Some(rat("0.8")));
    }

    #[test]
    fn zero_baseline_relative_error() {
        let row = ResultRow {
            label: "x".into(),
            full: Rat::ZERO,
            compressed: Rat::ZERO,
        };
        assert_eq!(row.rel_error(), 0.0);
        let row2 = ResultRow {
            label: "y".into(),
            full: Rat::ZERO,
            compressed: Rat::ONE,
        };
        assert!(row2.rel_error().is_infinite());
    }
}
