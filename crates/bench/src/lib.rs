//! Shared harness for the experiment reproduction.
//!
//! Each paper table (E1–E8) and ablation (A1–A4) has a function in the
//! `experiments` binary; this library holds the workload builders and
//! formatting helpers they share.

use cobra_core::tree::AbstractionTree;
use cobra_datagen::telephony::{Telephony, TelephonyConfig};
use cobra_provenance::{PolySet, VarRegistry};
use cobra_util::Rat;

/// The bounds §4 of the paper reports, with the sizes it states.
pub const PAPER_FULL_SIZE: u64 = 139_260;
/// (bound, expected compressed size, reported speedup %)
pub const PAPER_BOUNDS: [(u64, u64, f64); 2] = [(94_600, 88_620, 47.0), (38_600, 37_980, 79.0)];

/// A telephony workload ready for compression experiments.
pub struct TelephonyWorkload {
    pub reg: VarRegistry,
    pub polys: PolySet<Rat>,
    pub tree: AbstractionTree,
    pub config: TelephonyConfig,
}

/// Builds the telephony workload at a given customer count via the
/// verified direct path (identical to the engine output; see
/// `tests/paper_example.rs` and the datagen equality test).
pub fn telephony_workload(customers: usize) -> TelephonyWorkload {
    let config = TelephonyConfig::with_customers(customers);
    let mut reg = VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    let tree = Telephony::plans_tree(&mut reg);
    TelephonyWorkload {
        reg,
        polys,
        tree,
        config,
    }
}

/// Scales one of the paper's 1M-customer bounds to a smaller zip count
/// (the bounds are per-zip budgets in disguise: every zip contributes the
/// same `plans × months` monomials, and the paper's scale has 1055 zips).
pub fn scale_bound(bound_at_paper_scale: u64, zips: usize) -> u64 {
    bound_at_paper_scale * zips as u64 / 1055
}

/// Formats a measured-vs-paper pair with the deviation.
pub fn versus(measured: f64, paper: f64, unit: &str) -> String {
    format!("{measured:.0}{unit} (paper: {paper:.0}{unit})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builder_produces_fig2_tree() {
        let w = telephony_workload(1_000);
        assert_eq!(w.tree.num_leaves(), 11);
        assert!(w.polys.total_monomials() > 0);
        assert_eq!(w.config.zips, 1055);
    }

    #[test]
    fn bound_scaling_round_trips_at_paper_scale() {
        assert_eq!(scale_bound(94_600, 1055), 94_600);
        assert_eq!(scale_bound(38_600, 211), 7_720);
    }
}
