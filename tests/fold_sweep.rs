//! Integration coverage for the streaming fold-sweep surface (ISSUE 3):
//! property tests pinning `sweep_fold` with an appending fold bit-identical
//! to the materializing `ScenarioSweep` path on random grids, the `f64`
//! fast path within rounding of the exact one (divergence probes
//! included), and the built-in folds wired through a real session.

use cobra::core::folds::{self, ArgmaxImpact, Histogram, MaxAbsError, SweepFold, TopK};
use cobra::core::{
    forest_sweep, CobraSession, CompiledComparison, Exact, ScenarioSet, SweepBudget,
};
use cobra::util::Rat;
use proptest::prelude::*;

const PAPER_POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";

const FIG2_TREE: &str =
    "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

fn rat(s: &str) -> Rat {
    Rat::parse(s).unwrap()
}

fn compressed_session(bound: u64) -> CobraSession {
    let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
    s.add_tree_text(FIG2_TREE).unwrap();
    s.set_bound(bound);
    s.compress().unwrap();
    s
}

/// Random levels for one axis: 0..=3 levels drawn from a small exact set.
fn levels_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-20i128..40, 1i128..5), 0..4)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `sweep_fold` with an appending fold reproduces `ScenarioSweep`
    /// bit-identically on random grids — the fold engine IS the sweep
    /// engine, across level sets, ops and axis groups (aligned group,
    /// partial group, tree-external variable).
    #[test]
    fn append_fold_reproduces_scenario_sweep(
        m3_levels in levels_strategy(),
        business_levels in levels_strategy(),
        y1_levels in levels_strategy(),
        scale_y1 in 0u8..2,
    ) {
        let scale_y1 = scale_y1 == 1;
        let mut s = compressed_session(6);
        let m3 = s.registry_mut().var("m3");
        let b_vars = ["b1", "b2", "e"].map(|n| s.registry_mut().var(n));
        let y1 = s.registry_mut().var("y1");
        let mut builder = ScenarioSet::grid()
            .axis([m3], m3_levels)
            .axis(b_vars, business_levels);
        builder = if scale_y1 {
            builder.scale_axis([y1], y1_levels)
        } else {
            builder.axis([y1], y1_levels)
        };
        let grid = builder.build().unwrap();
        let sweep = s.sweep(&grid).unwrap();
        let np = sweep.num_polys();
        let (order, full, comp) = s
            .sweep_fold(
                &grid,
                (Vec::new(), Vec::new(), Vec::new()),
                |(mut order, mut full, mut comp): (Vec<usize>, Vec<Rat>, Vec<Rat>), item| {
                    order.push(item.scenario);
                    full.extend_from_slice(item.full);
                    comp.extend_from_slice(item.compressed);
                    (order, full, comp)
                },
            )
            .unwrap();
        prop_assert_eq!(order, (0..grid.len()).collect::<Vec<_>>());
        for i in 0..grid.len() {
            prop_assert_eq!(&full[i * np..(i + 1) * np], sweep.full_row(i), "scenario {}", i);
            prop_assert_eq!(
                &comp[i * np..(i + 1) * np],
                sweep.compressed_row(i),
                "scenario {}",
                i
            );
        }
    }

    /// The `f64` fast path tracks the exact path to floating-point
    /// rounding on random grids, and the divergence probe observes it.
    #[test]
    fn f64_sweep_tracks_exact_within_rounding(
        m3_levels in levels_strategy(),
        business_levels in levels_strategy(),
    ) {
        let mut s = compressed_session(6);
        let m3 = s.registry_mut().var("m3");
        let b_vars = ["b1", "b2", "e"].map(|n| s.registry_mut().var(n));
        let grid = ScenarioSet::grid()
            .axis([m3], m3_levels)
            .scale_axis(b_vars, business_levels)
            .build()
            .unwrap();
        let exact = s.sweep(&grid).unwrap();
        let approx = s.sweep_f64(&grid).unwrap();
        prop_assert_eq!(approx.len(), exact.len());
        for i in 0..exact.len() {
            for (e, a) in exact.full_row(i).iter().zip(approx.full_row(i)) {
                let e = e.to_f64();
                prop_assert!((e - a).abs() <= 1e-9 * e.abs().max(1.0));
            }
            for (e, a) in exact.compressed_row(i).iter().zip(approx.compressed_row(i)) {
                let e = e.to_f64();
                prop_assert!((e - a).abs() <= 1e-9 * e.abs().max(1.0));
            }
        }
        let div = approx.divergence();
        prop_assert_eq!(div.probed, grid.len().min(16));
        prop_assert!(div.max_rel_divergence < 1e-12);
    }
}

#[test]
fn built_in_folds_agree_with_materialized_statistics() {
    let mut s = compressed_session(6);
    let m3 = s.registry_mut().var("m3");
    let b_vars = ["b1", "b2", "e"].map(|n| s.registry_mut().var(n));
    let y1 = s.registry_mut().var("y1");
    let grid = ScenarioSet::grid()
        .axis([m3], [rat("0.8"), rat("0.9"), rat("1"), rat("1.1")])
        .axis(b_vars, [rat("0.9"), rat("1"), rat("1.1")])
        .scale_axis([y1], [rat("1"), rat("1.05")]) // lossy partial touch
        .build()
        .unwrap();
    let sweep = s.sweep(&grid).unwrap();

    // MaxAbsError ≈ the matrix statistic (fold aggregates in f64)
    let worst = s.sweep_fold(&grid, MaxAbsError::new(), folds::step).unwrap();
    assert!((worst.max_rel_error - sweep.max_rel_error()).abs() < 1e-12);
    let argmax = worst.argmax_rel.unwrap();
    assert!(sweep.scenario_max_rel_error(argmax) > 0.0);

    // ArgmaxImpact matches a brute-force scan of the materialized sweep
    let base = s.baseline_results().unwrap();
    let best = s
        .sweep_fold(&grid, ArgmaxImpact::against(base.clone()), folds::step)
        .unwrap()
        .best()
        .unwrap();
    let brute: (usize, f64) = (0..sweep.len())
        .map(|i| {
            let impact: f64 = sweep
                .full_row(i)
                .iter()
                .zip(&base)
                .map(|(f, b)| (f.to_f64() - b).abs())
                .sum();
            (i, impact)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert_eq!(best.0, brute.0);
    assert!((best.1 - brute.1).abs() < 1e-9);

    // Histogram covers every scenario exactly once
    let hist = s
        .sweep_fold(&grid, Histogram::new(0, 700.0, 1100.0, 16), folds::step)
        .unwrap();
    assert_eq!(hist.total(), grid.len() as u64);

    // TopK returns the k largest P1 values, best first, matching a sort
    let top = s.sweep_fold(&grid, TopK::new(0, 5), folds::step).unwrap().finish();
    let mut all: Vec<(usize, f64)> = (0..sweep.len())
        .map(|i| (i, sweep.full_row(i)[0].to_f64()))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    assert_eq!(top, all[..5].to_vec());

    // …and the same folds run unchanged on the approximate stream
    let (worst64, div) = s
        .sweep_fold_f64(&grid, MaxAbsError::new(), folds::step)
        .unwrap();
    assert!((worst64.max_rel_error - worst.max_rel_error).abs() < 1e-9);
    assert!(div.max_rel_divergence < 1e-12);
}

#[test]
fn forest_sweep_fold_matches_forest_sweep() {
    let mut reg = cobra::provenance::VarRegistry::new();
    let set = cobra::provenance::parse_polyset(PAPER_POLYS, &mut reg).unwrap();
    let plans = cobra::core::AbstractionTree::parse(FIG2_TREE, &mut reg).unwrap();
    let months = cobra::core::AbstractionTree::parse("Months(m1,m3)", &mut reg).unwrap();
    let sol = cobra::core::optimize_forest_descent(&set, &[&plans, &months], 4, &mut reg, 16)
        .unwrap();
    let pairs: Vec<_> = [&plans, &months].into_iter().zip(sol.cuts.iter()).collect();
    let applied = cobra::core::apply_cuts(&set, &pairs, &mut reg);
    let base = cobra::provenance::Valuation::with_default(Rat::ONE);
    let m3 = reg.var("m3");
    let b1 = reg.var("b1");
    let grid = ScenarioSet::grid()
        .axis([m3], [rat("0.8"), rat("1"), rat("1.2")])
        .scale_axis([b1], [rat("1"), rat("1.1")])
        .build()
        .unwrap();
    let sweep = forest_sweep(&set, &applied, &base, &grid);
    let rows = CompiledComparison::compile(&set, &applied.compressed)
        .fold::<Exact, _>(
            (),
            (&applied.meta_vars, &base),
            &grid,
            &SweepBudget::unlimited(),
            Vec::new(),
            |mut acc: Vec<(Vec<Rat>, Vec<Rat>)>, item| {
                acc.push((item.full.to_vec(), item.compressed.to_vec()));
                acc
            },
        )
        .unwrap()
        .0
        .into_fold();
    assert_eq!(rows.len(), sweep.len());
    for (i, (full, comp)) in rows.iter().enumerate() {
        assert_eq!(full.as_slice(), sweep.full_row(i));
        assert_eq!(comp.as_slice(), sweep.compressed_row(i));
    }
}
