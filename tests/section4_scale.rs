//! Experiment E3: the §4 numbers.
//!
//! "The provenance size of the polynomials generated by our running
//! example using a database of one million customers … is 139,260. If we
//! set the bound … to 94,600 the compressed provenance … is of size
//! 88,620 … while setting the bound to 38,600 results in provenance
//! polynomials of size 37,980."
//!
//! These factor as 1055 zips × {11 plans, 7 groups, 3 groups} × 12
//! months; the scale-invariant structure is asserted at reduced scale on
//! every push, and the full-scale run lives in the `experiments` binary
//! (EXPERIMENTS.md) plus an `#[ignore]`d test here for direct execution.

use cobra::core::{CutPlanner, ExactDp, GroupAnalysis, PlanContext};
use cobra::datagen::telephony::{Telephony, TelephonyConfig};
use cobra::provenance::VarRegistry;

/// Scaled-down §4: with full (zip, plan, month) coverage the sizes follow
/// the same closed forms as the paper's 1M-customer run.
#[test]
fn section4_structure_at_reduced_scale() {
    let zips = 50usize;
    let months = 12u32;
    let config = TelephonyConfig {
        customers: zips * 11 * 2, // ≥ zips × plans ⇒ full coverage
        zips,
        months,
        seed: 99,
    };
    let mut reg = VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    let tree = Telephony::plans_tree(&mut reg);
    let analysis = GroupAnalysis::analyze(&polys, &tree).unwrap();

    let full = analysis.total_monomials();
    assert_eq!(full, (zips * 11 * months as usize) as u64);

    // The paper's bounds scale linearly with zips: 94,600/1055 ≈ 89.7
    // monomials per zip and 38,600/1055 ≈ 36.6.
    let bound_a = (zips as u64) * 94_600 / 1055;
    let bound_b = (zips as u64) * 38_600 / 1055;
    let sol_a = ExactDp
        .plan(&PlanContext::new(&tree, &analysis), bound_a)
        .unwrap();
    assert_eq!(sol_a.size, (zips * 7 * months as usize) as u64); // S4-like cut
    assert_eq!(sol_a.variables, 7);
    let sol_b = ExactDp
        .plan(&PlanContext::new(&tree, &analysis), bound_b)
        .unwrap();
    assert_eq!(sol_b.size, (zips * 3 * months as usize) as u64); // S1 cut
    assert_eq!(sol_b.variables, 3);
}

/// The exact full-scale numbers (runs in ~seconds in release; ignored in
/// default debug runs — `cargo test --release -- --ignored` executes it).
#[test]
#[ignore = "full 1M-customer scale; run with --release -- --ignored"]
fn section4_exact_numbers_at_full_scale() {
    let config = TelephonyConfig::paper_scale();
    let mut reg = VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    assert_eq!(polys.total_monomials(), 139_260);
    let tree = Telephony::plans_tree(&mut reg);
    let analysis = GroupAnalysis::analyze(&polys, &tree).unwrap();
    let sol_a = ExactDp
        .plan(&PlanContext::new(&tree, &analysis), 94_600)
        .unwrap();
    assert_eq!(sol_a.size, 88_620);
    let sol_b = ExactDp
        .plan(&PlanContext::new(&tree, &analysis), 38_600)
        .unwrap();
    assert_eq!(sol_b.size, 37_980);
}

/// Coverage drops gracefully below the full-coverage threshold: fewer
/// customers ⇒ missing (zip, plan) pairs ⇒ strictly smaller provenance.
#[test]
fn sparse_coverage_shrinks_provenance() {
    let config = TelephonyConfig {
        customers: 40, // < zips × plans
        zips: 20,
        months: 6,
        seed: 3,
    };
    let mut reg = VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    assert!(polys.total_monomials() < 20 * 11 * 6);
    // exactly customers × months monomials when every (zip, plan) holds
    // at most one customer
    assert_eq!(polys.total_monomials(), 40 * 6);
}

/// The round-robin placement guarantees full coverage exactly at
/// `customers = zips × plans`.
#[test]
fn coverage_threshold_is_tight() {
    let zips = 10usize;
    for (customers, expect_full) in [(zips * 11 - 1, false), (zips * 11, true)] {
        let config = TelephonyConfig {
            customers,
            zips,
            months: 2,
            seed: 1,
        };
        let mut reg = VarRegistry::new();
        let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
        let full = zips * 11 * 2;
        if expect_full {
            assert_eq!(polys.total_monomials(), full);
        } else {
            assert!(polys.total_monomials() < full);
        }
    }
}
