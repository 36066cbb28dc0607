//! Compression reports: the information COBRA's UI surfaces (paper §3) —
//! provenance sizes, expressiveness, the chosen cut, assignment speedup,
//! and the planner's whole size/expressiveness frontier — as displayable
//! structures.

use crate::assign::SpeedupMeasurement;
use crate::planner::CutFrontier;
use crate::tree::AbstractionTree;
use cobra_provenance::DagStats;
use cobra_util::table::thousands;
use cobra_util::Table;
use std::fmt;

/// Summary of one compression run.
#[derive(Clone, Debug)]
pub struct CompressionReport {
    /// The user's bound on the provenance size.
    pub bound: u64,
    /// Monomials before compression.
    pub original_size: u64,
    /// Monomials after compression, counted **structurally** for a single
    /// tree: the base monomials plus one per group and cut node the group
    /// touches — the size the planner bounds, read off the group analysis
    /// without a coefficient. A merged coefficient that cancels to zero
    /// still counts here, though the compressed polynomials omit it, so
    /// both selection paths (`select_bound` and `compress`) report the same
    /// size for the same cut and no coefficient-only delta moves it. A
    /// forest's descent planner measures its applied polynomials instead.
    pub compressed_size: u64,
    /// Distinct variables before compression.
    pub original_vars: usize,
    /// Distinct variables after compression, by the same structural rule
    /// as `compressed_size`: the non-tree variables plus the meta-variable
    /// of every cut node some group touches, whether or not its merged
    /// coefficients cancel.
    pub compressed_vars: usize,
    /// Human-readable cut description per tree, e.g.
    /// `Plans: {Business, Special, Standard}`.
    pub cuts: Vec<String>,
    /// Optional assignment-speedup measurement.
    pub speedup: Option<SpeedupMeasurement>,
}

impl CompressionReport {
    /// `compressed / original` size ratio.
    pub fn ratio(&self) -> f64 {
        if self.original_size == 0 {
            1.0
        } else {
            self.compressed_size as f64 / self.original_size as f64
        }
    }

    /// Renders as a two-column table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["metric", "value"]).numeric();
        t.row(["bound".to_owned(), thousands(self.bound)]);
        t.row([
            "provenance size (full)".to_owned(),
            thousands(self.original_size),
        ]);
        t.row([
            "provenance size (compressed)".to_owned(),
            thousands(self.compressed_size),
        ]);
        t.row(["size ratio".to_owned(), format!("{:.3}", self.ratio())]);
        t.row([
            "distinct variables (full)".to_owned(),
            self.original_vars.to_string(),
        ]);
        t.row([
            "distinct variables (compressed)".to_owned(),
            self.compressed_vars.to_string(),
        ]);
        for cut in &self.cuts {
            t.row(["cut".to_owned(), cut.clone()]);
        }
        if let Some(s) = &self.speedup {
            t.row([
                "assignment time (full)".to_owned(),
                format!("{:.3} ms", s.full_time.as_secs_f64() * 1e3),
            ]);
            t.row([
                "assignment time (compressed)".to_owned(),
                format!("{:.3} ms", s.compressed_time.as_secs_f64() * 1e3),
            ]);
            t.row([
                "assignment speedup".to_owned(),
                format!("{:.0}%", s.speedup_percent()),
            ]);
        }
        t
    }
}

impl fmt::Display for CompressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Summary of one [`compile_dag`](crate::CobraSession::compile_dag) run:
/// the per-side rewrite accounting of the algebraic compression, in the
/// units the benchmark reports (static multiplies per scenario).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagReport {
    /// Rewrite statistics of the full-provenance program.
    pub full: DagStats,
    /// Rewrite statistics of the compressed-side program.
    pub compressed: DagStats,
}

impl DagReport {
    /// The full-side op-reduction factor (`flat / dag` multiplies) — the
    /// benchmark's `provenance.dag.op_ratio`.
    pub fn op_ratio(&self) -> f64 {
        self.full.op_ratio()
    }

    /// Renders as a two-column table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["metric", "value"]).numeric();
        for (side, stats) in [("full", &self.full), ("compressed", &self.compressed)] {
            t.row([
                format!("slots ({side})"),
                thousands(stats.num_slots as u64),
            ]);
            t.row([
                format!("terms ({side})"),
                format!(
                    "{} → {}",
                    thousands(stats.flat_terms as u64),
                    thousands(stats.dag_terms as u64)
                ),
            ]);
            t.row([
                format!("multiplies ({side})"),
                format!(
                    "{} → {} ({:.2}×)",
                    thousands(stats.flat_multiply_ops),
                    thousands(stats.dag_multiply_ops),
                    stats.op_ratio()
                ),
            ]);
        }
        t
    }
}

impl fmt::Display for DagReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Renders a planner [`CutFrontier`] as the bound-sweep table the demo's
/// interactive slider walks: one row per selectable point with its
/// expressiveness, minimal size, and witness cut.
pub fn frontier_table(frontier: &CutFrontier, tree: &AbstractionTree) -> Table {
    let mut t = Table::new(["variables", "min size", "cut"]).numeric();
    for point in frontier.points() {
        t.row([
            point.variables.to_string(),
            thousands(point.size),
            point.cut.display(tree),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_table_renders_every_point() {
        use crate::groups::GroupAnalysis;
        use crate::planner::{CutPlanner, ExactDp, PlanContext};
        use crate::tree::paper_plans_tree;
        use cobra_provenance::VarRegistry;

        let mut reg = VarRegistry::new();
        let tree = paper_plans_tree(&mut reg);
        let set = cobra_provenance::parse_polyset(
            "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
            &mut reg,
        )
        .unwrap();
        let analysis = GroupAnalysis::analyze(&set, &tree).unwrap();
        let frontier = ExactDp
            .plan_frontier(&PlanContext::new(&tree, &analysis))
            .unwrap();
        let rendered = frontier_table(&frontier, &tree).to_string();
        for point in frontier.points() {
            assert!(rendered.contains(&point.variables.to_string()));
        }
        assert!(rendered.contains("{Plans}"));
    }

    #[test]
    fn report_renders_all_rows() {
        let r = CompressionReport {
            bound: 94_600,
            original_size: 139_260,
            compressed_size: 88_620,
            original_vars: 23,
            compressed_vars: 19,
            cuts: vec!["Plans: {SB, e, F, Y, v, p1, p2}".to_owned()],
            speedup: None,
        };
        let s = r.to_string();
        assert!(s.contains("139,260"));
        assert!(s.contains("88,620"));
        assert!(s.contains("{SB, e, F, Y, v, p1, p2}"));
        assert!((r.ratio() - 0.6364).abs() < 1e-3);
    }

    #[test]
    fn dag_report_renders_both_sides() {
        let stats = |flat_ops: u64, dag_ops: u64| DagStats {
            num_polys: 2,
            num_slots: 3,
            flat_terms: 14,
            dag_terms: 17,
            flat_multiply_ops: flat_ops,
            dag_multiply_ops: dag_ops,
        };
        let r = DagReport {
            full: stats(278_520, 139_524),
            compressed: stats(100, 80),
        };
        assert!((r.op_ratio() - 278_520.0 / 139_524.0).abs() < 1e-9);
        let s = r.to_string();
        assert!(s.contains("multiplies (full)"));
        assert!(s.contains("278,520"));
        assert!(s.contains("multiplies (compressed)"));
    }

    #[test]
    fn empty_original_ratio_is_one() {
        let r = CompressionReport {
            bound: 0,
            original_size: 0,
            compressed_size: 0,
            original_vars: 0,
            compressed_vars: 0,
            cuts: vec![],
            speedup: None,
        };
        assert_eq!(r.ratio(), 1.0);
    }
}
