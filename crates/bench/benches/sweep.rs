//! Benchmarks for the sweep surfaces: experiment E5's bound sweep (the
//! full expressiveness/size Pareto frontier and optimization at a range
//! of bounds — the interactive loop of the demonstration) and experiment
//! E10's streaming fold-sweeps (exact vs approximate `f64` aggregation
//! over a 10⁵-scenario grid in O(1) output memory).

use cobra_bench::telephony_workload;
use cobra_core::folds::{self, ArgmaxImpact, MaxAbsError};
use cobra_core::{dp, pareto_frontier, CobraSession, Exact, GroupAnalysis, SweepBudget};
use cobra_datagen::scenarios;
use cobra_datagen::telephony::Telephony;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for customers in [10_000usize, 100_000] {
        let w = telephony_workload(customers);
        let analysis = GroupAnalysis::analyze(&w.polys, &w.tree).expect("telephony");
        group.bench_with_input(
            BenchmarkId::new("pareto_frontier", customers),
            &(&w, &analysis),
            |b, (w, analysis)| {
                b.iter(|| pareto_frontier(&w.tree, analysis));
            },
        );
        let full = analysis.total_monomials();
        group.bench_with_input(
            BenchmarkId::new("optimize_8_bounds", customers),
            &(&w, &analysis),
            |b, (w, analysis)| {
                b.iter(|| {
                    for divisor in [1u64, 2, 3, 4, 6, 8, 12, 24] {
                        let bound = (full / divisor).max(1);
                        std::hint::black_box(dp::optimize(&w.tree, analysis, bound).ok());
                    }
                });
            },
        );
    }
    group.finish();
}

/// E10: streaming fold-sweeps over the paper example's 47³-scenario grid
/// — the exact `Rat` fold vs the approximate `f64` lane-kernel fold, both
/// aggregating max-error + argmax-impact without a result matrix.
fn bench_fold_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fold_sweep");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(5));

    let t = Telephony::paper_example();
    let polys = t.revenue_polyset();
    let mut session = CobraSession::new(t.reg, polys);
    session
        .add_tree_text(
            "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))",
        )
        .expect("Fig. 2 tree");
    session.set_bound(6);
    session.compress().expect("feasible");
    let grid = scenarios::telephony_grid(session.registry_mut(), 47);
    let base = session.baseline_results().expect("compressed");

    group.bench_with_input(
        BenchmarkId::new("exact_rat", grid.len()),
        &(&session, &grid),
        |b, (session, grid)| {
            b.iter(|| {
                session
                    .sweep_fold(*grid, MaxAbsError::new(), folds::step)
                    .expect("compressed")
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("f64_lane_kernel", grid.len()),
        &(&session, &grid, &base),
        |b, (session, grid, base)| {
            b.iter(|| {
                session
                    .sweep_fold_f64(
                        *grid,
                        (MaxAbsError::new(), ArgmaxImpact::against((*base).clone())),
                        |(w, a), item| (folds::step(w, item), folds::step(a, item)),
                    )
                    .expect("compressed")
            });
        },
    );
    // The parallel fold-combine engines (MergeFold replicas fanned across
    // workers, merged in span order). On a single-core container these
    // measure the fan-out overhead (≈1×); on multi-core hardware the
    // scaling curve via COBRA_THREADS — see experiment E11.
    let threads = cobra_util::par::num_threads();
    group.bench_with_input(
        BenchmarkId::new(format!("exact_rat_par_t{threads}"), grid.len()),
        &(&session, &grid),
        |b, (session, grid)| {
            b.iter(|| {
                session
                    .fold_par::<Exact, _>(*grid, &SweepBudget::unlimited(), MaxAbsError::new())
                    .expect("compressed")
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new(format!("f64_lane_kernel_par_t{threads}"), grid.len()),
        &(&session, &grid, &base),
        |b, (session, grid, base)| {
            b.iter(|| {
                session
                    .sweep_fold_f64_par(
                        *grid,
                        (MaxAbsError::new(), ArgmaxImpact::against((*base).clone())),
                    )
                    .expect("compressed")
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_fold_sweep);
criterion_main!(benches);
