//! Cross-engine differential suite (ISSUE 4): the sweep surfaces —
//! materialized exact (`sweep`), streamed exact (`sweep_fold`), parallel
//! exact (`fold_par::<Exact>`), per-scenario (`assign`), and the `f64`
//! variants — must agree on random `ScenarioSet`s. Exact engines are
//! pinned **bit-identical** to each other at 1, 2 and 8 worker threads
//! (via `par::with_threads`, which scopes the override to this test's
//! thread so concurrently running tests cannot race on `COBRA_THREADS`);
//! `f64` engines are pinned bit-identical across thread counts and within
//! divergence bounds of the exact ones.

use cobra::core::folds::{self, ArgmaxImpact, Histogram, MaxAbsError, MergeFold, SweepFold, TopK};
use cobra::core::scenario::FoldItem;
use cobra::core::{
    fold_program_sweep_par, forest_sweep, CobraSession, CompiledComparison, Exact, ScenarioSet,
    SweepBudget,
};
use cobra::provenance::{BatchEvaluator, Coeff, Valuation};
use cobra::util::par::with_threads;
use cobra::util::Rat;
use proptest::prelude::*;

const PAPER_POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";

const FIG2_TREE: &str =
    "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

/// The worker-thread counts every equivalence below is pinned under:
/// the serial path, the smallest genuine split, and an oversubscribed
/// fan-out (more workers than this container has cores).
const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

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

/// The unbudgeted parallel exact fold — `fold_par::<Exact>` to completion.
fn par_exact<F: MergeFold + Send + Sync>(s: &CobraSession, set: &ScenarioSet, fold: F) -> F {
    let (outcome, ()) = s.fold_par::<Exact, _>(set, &SweepBudget::unlimited(), fold).unwrap();
    outcome.into_fold()
}

/// A differential collector: records every scenario's index and both
/// result rows in the fold's native coefficient type `C`, so exact
/// streams compare as `Rat` (bit-identical, not "close") and `f64`
/// streams as `f64`. Merge appends — lawful because the engines merge
/// partials in ascending span order.
#[derive(Clone, Debug, PartialEq)]
struct Collect<C> {
    rows: Vec<(usize, Vec<C>, Vec<C>)>,
}

impl<C> Collect<C> {
    fn new() -> Collect<C> {
        Collect { rows: Vec::new() }
    }
}

impl<K: Coeff> SweepFold for Collect<K> {
    type Output = Vec<(usize, Vec<K>, Vec<K>)>;

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        let cast = |xs: &[C]| -> Vec<K> {
            xs.iter()
                .map(|x| {
                    (x as &dyn std::any::Any)
                        .downcast_ref::<K>()
                        .expect("collector used on a stream of its own coefficient type")
                        .clone()
                })
                .collect()
        };
        self.rows
            .push((item.scenario, cast(item.full), cast(item.compressed)));
    }

    fn finish(self) -> Self::Output {
        self.rows
    }
}

impl<K: Coeff> MergeFold for Collect<K> {
    fn init(&self) -> Collect<K> {
        Collect::new()
    }

    fn merge(&mut self, later: Collect<K>) {
        self.rows.extend(later.rows);
    }
}

/// Random levels for one axis: 0..=3 exact rational levels.
fn levels_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-20i128..40, 1i128..5), 0..4)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

/// A random family over the paper variables: a grid (with a lossy
/// partial-group axis), a perturbation family, or an explicit list —
/// all three binder code paths.
fn family_strategy() -> impl Strategy<Value = u8> {
    0u8..3
}

fn build_family(
    s: &mut CobraSession,
    shape: u8,
    m3_levels: Vec<Rat>,
    business_levels: Vec<Rat>,
    y1_levels: Vec<Rat>,
) -> ScenarioSet {
    let m3 = s.registry_mut().var("m3");
    let b_vars = ["b1", "b2", "e"].map(|n| s.registry_mut().var(n));
    let y1 = s.registry_mut().var("y1");
    match shape {
        0 => ScenarioSet::grid()
            .axis([m3], m3_levels)
            .scale_axis(b_vars, business_levels)
            // y1 alone inside the Special group: lossy partial touch
            .axis([y1], y1_levels)
            .build()
            .unwrap(),
        1 => ScenarioSet::perturb_each(
            [m3, b_vars[0], y1],
            m3_levels.first().copied().unwrap_or(Rat::new(1, 8)),
        ),
        _ => {
            let scenarios: Vec<Valuation<Rat>> = m3_levels
                .iter()
                .zip(y1_levels.iter().chain(std::iter::repeat(&Rat::ONE)))
                .map(|(&m, &y)| {
                    Valuation::with_default(Rat::ONE).bind(m3, m).bind(y1, y)
                })
                .collect();
            ScenarioSet::from_valuations(scenarios)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// sweep ≡ sweep_fold ≡ fold_par::<Exact> ≡ per-scenario assign, bit
    /// for bit, on random families for 1/2/8 worker threads.
    #[test]
    fn exact_engines_agree_at_all_thread_counts(
        shape in family_strategy(),
        m3_levels in levels_strategy(),
        business_levels in levels_strategy(),
        y1_levels in levels_strategy(),
    ) {
        let mut s = compressed_session(6);
        let family = build_family(&mut s, shape, m3_levels, business_levels, y1_levels);
        let n = family.len();

        // Engine 1: the materialized sweep.
        let sweep = s.sweep(&family).unwrap();
        prop_assert_eq!(sweep.len(), n);

        // Engine 2: the sequential fold engine with an appending closure.
        let folded = s
            .sweep_fold(&family, Vec::new(), |mut acc: Vec<(usize, Vec<Rat>, Vec<Rat>)>, item| {
                acc.push((item.scenario, item.full.to_vec(), item.compressed.to_vec()));
                acc
            })
            .unwrap();
        prop_assert_eq!(folded.len(), n);
        for (i, full, comp) in &folded {
            prop_assert_eq!(full.as_slice(), sweep.full_row(*i), "fold scenario {}", i);
            prop_assert_eq!(comp.as_slice(), sweep.compressed_row(*i), "fold scenario {}", i);
        }

        // Engine 3: the parallel fold engine at every thread count.
        for threads in THREAD_MATRIX {
            let par = with_threads(threads, || par_exact(&s, &family, Collect::<Rat>::new()))
                .finish();
            prop_assert_eq!(&par, &folded, "threads {}", threads);
        }

        // Engine 4: the per-scenario assignment screen.
        let base = s.base_valuation().clone();
        for i in 0..n {
            let cmp = s.assign(family.scenario_valuation(i, &base)).unwrap();
            prop_assert_eq!(cmp.rows.len(), sweep.num_polys());
            for (p, row) in cmp.rows.iter().enumerate() {
                prop_assert_eq!(row.full, sweep.full_row(i)[p], "assign scenario {}", i);
                prop_assert_eq!(
                    row.compressed,
                    sweep.compressed_row(i)[p],
                    "assign scenario {}",
                    i
                );
            }
        }
    }

    /// Every built-in fold (and their tuple composition) produces the
    /// same aggregate — including argmax/top-k indices — sequentially and
    /// in parallel at 1/2/8 threads, on both the exact and f64 streams.
    #[test]
    fn built_in_folds_agree_at_all_thread_counts(
        m3_levels in levels_strategy(),
        business_levels in levels_strategy(),
        y1_levels in levels_strategy(),
    ) {
        let mut s = compressed_session(6);
        let family = build_family(&mut s, 0, m3_levels, business_levels, y1_levels);
        let base = s.baseline_results().unwrap();
        let proto = (
            MaxAbsError::new(),
            ArgmaxImpact::against(base),
            TopK::new(0, 3),
        );
        let hist_proto = Histogram::new(1, 0.0, 1000.0, 8);

        let (seq_w, seq_a, seq_t) = s
            .sweep_fold(&family, proto.init(), folds::step)
            .unwrap()
            .finish();
        let seq_h = s.sweep_fold(&family, hist_proto.init(), folds::step).unwrap();
        let ((seq64_w, seq64_a, seq64_t), seq64_div) = {
            let (fold, div) = s
                .sweep_fold_f64(&family, proto.init(), folds::step)
                .unwrap();
            (fold.finish(), div)
        };

        for threads in THREAD_MATRIX {
            let (w, a, t) =
                with_threads(threads, || par_exact(&s, &family, proto.init())).finish();
            prop_assert_eq!(w.max_abs_error, seq_w.max_abs_error, "threads {}", threads);
            prop_assert_eq!(w.argmax_abs, seq_w.argmax_abs, "threads {}", threads);
            prop_assert_eq!(w.max_rel_error, seq_w.max_rel_error, "threads {}", threads);
            prop_assert_eq!(w.argmax_rel, seq_w.argmax_rel, "threads {}", threads);
            prop_assert_eq!(a, seq_a, "threads {}", threads);
            prop_assert_eq!(&t, &seq_t, "threads {}", threads);

            let h = with_threads(threads, || par_exact(&s, &family, hist_proto.init()));
            prop_assert_eq!(&h.counts, &seq_h.counts, "threads {}", threads);
            prop_assert_eq!(h.underflow, seq_h.underflow, "threads {}", threads);
            prop_assert_eq!(h.overflow, seq_h.overflow, "threads {}", threads);

            let (par64, div) = with_threads(threads, || {
                s.sweep_fold_f64_par(&family, proto.init()).unwrap()
            });
            let (w64, a64, t64) = par64.finish();
            prop_assert_eq!(w64.max_abs_error, seq64_w.max_abs_error, "threads {}", threads);
            prop_assert_eq!(w64.argmax_abs, seq64_w.argmax_abs, "threads {}", threads);
            prop_assert_eq!(a64, seq64_a, "threads {}", threads);
            prop_assert_eq!(&t64, &seq64_t, "threads {}", threads);
            prop_assert_eq!(div.probed, seq64_div.probed, "threads {}", threads);
            prop_assert_eq!(
                div.max_rel_divergence,
                seq64_div.max_rel_divergence,
                "threads {}",
                threads
            );
        }
    }

    /// The parallel f64 engine is bit-identical to the sequential f64
    /// engine at every thread count, and both stay within divergence
    /// bounds of the exact engines.
    #[test]
    fn f64_engines_agree_and_track_exact(
        shape in family_strategy(),
        m3_levels in levels_strategy(),
        business_levels in levels_strategy(),
        y1_levels in levels_strategy(),
    ) {
        let mut s = compressed_session(6);
        let family = build_family(&mut s, shape, m3_levels, business_levels, y1_levels);
        let n = family.len();
        let exact = s.sweep(&family).unwrap();

        let (seq, seq_div) = s
            .sweep_fold_f64(&family, Collect::<f64>::new(), folds::step)
            .unwrap();
        let seq = seq.finish();
        prop_assert_eq!(seq.len(), n);
        for threads in THREAD_MATRIX {
            let (par, div) = with_threads(threads, || {
                s.sweep_fold_f64_par(&family, Collect::<f64>::new()).unwrap()
            });
            prop_assert_eq!(&par.finish(), &seq, "threads {}", threads);
            prop_assert_eq!(div.probed, seq_div.probed, "threads {}", threads);
            prop_assert_eq!(
                div.max_rel_divergence,
                seq_div.max_rel_divergence,
                "threads {}",
                threads
            );
        }
        // f64 within divergence bounds of exact (both sides, every tuple)
        prop_assert!(seq_div.max_rel_divergence < 1e-12);
        for (i, full, comp) in &seq {
            for (e, a) in exact.full_row(*i).iter().zip(full) {
                let e = e.to_f64();
                prop_assert!((e - a).abs() <= 1e-9 * e.abs().max(1.0));
            }
            for (e, a) in exact.compressed_row(*i).iter().zip(comp) {
                let e = e.to_f64();
                prop_assert!((e - a).abs() <= 1e-9 * e.abs().max(1.0));
            }
        }
    }

    /// The single-engine fold: fold_program_sweep_par ≡ evaluating the
    /// scenarios one by one on the sparse polynomials, at 1/2/8 threads,
    /// bit for bit (the item's compressed side is empty by contract).
    #[test]
    fn single_engine_folds_agree_at_all_thread_counts(
        m3_levels in levels_strategy(),
        y1_levels in levels_strategy(),
    ) {
        let mut reg = cobra::provenance::VarRegistry::new();
        let set = cobra::provenance::parse_polyset(PAPER_POLYS, &mut reg).unwrap();
        let evaluator = BatchEvaluator::compile(&set);
        let base = Valuation::with_default(Rat::ONE);
        let grid = ScenarioSet::grid()
            .axis([reg.var("m3")], m3_levels)
            .scale_axis([reg.var("y1")], y1_levels)
            .build()
            .unwrap();
        let seq: Vec<(usize, Vec<Rat>)> = (0..grid.len())
            .map(|i| {
                let val = base.overridden_by(&grid.scenario_valuation(i, &base));
                (i, set.eval(&val).unwrap().into_iter().map(|(_, v)| v).collect())
            })
            .collect();
        for threads in THREAD_MATRIX {
            let par = with_threads(threads, || {
                fold_program_sweep_par(&evaluator, &base, &grid, Collect::<Rat>::new())
            })
            .finish();
            prop_assert_eq!(par.len(), seq.len(), "threads {}", threads);
            for ((pi, pfull, pcomp), (si, sfull)) in par.iter().zip(&seq) {
                prop_assert_eq!(pi, si, "threads {}", threads);
                prop_assert_eq!(pfull, sfull, "threads {}", threads);
                prop_assert!(pcomp.is_empty(), "single-engine compressed side is empty");
            }
        }
    }
}

#[test]
fn forest_parallel_fold_matches_forest_sweep() {
    let mut reg = cobra::provenance::VarRegistry::new();
    let set = cobra::provenance::parse_polyset(PAPER_POLYS, &mut reg).unwrap();
    let plans = cobra::core::AbstractionTree::parse(FIG2_TREE, &mut reg).unwrap();
    let months = cobra::core::AbstractionTree::parse("Months(m1,m3)", &mut reg).unwrap();
    let sol = cobra::core::optimize_forest_descent(&set, &[&plans, &months], 4, &mut reg, 16)
        .unwrap();
    let pairs: Vec<_> = [&plans, &months].into_iter().zip(sol.cuts.iter()).collect();
    let applied = cobra::core::apply_cuts(&set, &pairs, &mut reg);
    let base = Valuation::with_default(Rat::ONE);
    let m3 = reg.var("m3");
    let b1 = reg.var("b1");
    let grid = ScenarioSet::grid()
        .axis([m3], [rat("0.8"), rat("1"), rat("1.2")])
        .scale_axis([b1], [rat("1"), rat("1.1")])
        .build()
        .unwrap();
    let sweep = forest_sweep(&set, &applied, &base, &grid);
    for threads in THREAD_MATRIX {
        let rows = with_threads(threads, || {
            CompiledComparison::compile(&set, &applied.compressed)
                .fold_par::<Exact, _>(
                    (),
                    (&applied.meta_vars, &base),
                    &grid,
                    &SweepBudget::unlimited(),
                    Collect::<Rat>::new(),
                )
                .unwrap()
        })
        .0
        .into_fold()
        .finish();
        assert_eq!(rows.len(), sweep.len());
        for (i, full, comp) in &rows {
            assert_eq!(full.as_slice(), sweep.full_row(*i), "threads {threads}");
            assert_eq!(comp.as_slice(), sweep.compressed_row(*i), "threads {threads}");
        }
    }
}

/// The crafted-ties regression of the ISSUE satellite, end to end: a grid
/// engineered so several scenarios attain the same extremum. Argmax and
/// top-k winners must be the lowest scenario indices at every thread
/// count — merge-order independence observed through the real engines.
#[test]
fn argmax_and_topk_ties_resolve_identically_in_parallel() {
    let mut s = compressed_session(6);
    let m3 = s.registry_mut().var("m3");
    let y1 = s.registry_mut().var("y1");
    // m3 revisits the same level: scenarios with bit-identical results at
    // different indices, spread across parallel span boundaries.
    let grid = ScenarioSet::grid()
        .axis([m3], [rat("1.2"), rat("1"), rat("1.2"), rat("1.2"), rat("0.9")])
        .axis([y1], [rat("1"), rat("1"), rat("1")]) // triples every tie
        .build()
        .unwrap();
    assert_eq!(grid.len(), 15);

    let base = s.baseline_results().unwrap();
    let seq = s
        .sweep_fold(
            &grid,
            (ArgmaxImpact::against(base.clone()), TopK::new(0, 4)),
            folds::step,
        )
        .unwrap();
    let (seq_best, seq_top) = (seq.0.best(), seq.1.clone().finish());
    // scenarios 0..3 (m3=1.2, y1=1) all tie for the biggest move; the
    // lowest index must win, and top-4 must keep indices in order
    assert_eq!(seq_best.map(|(i, _)| i), Some(0));
    assert_eq!(
        seq_top.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
        vec![0, 1, 2, 6]
    );
    for threads in THREAD_MATRIX {
        let (best, top) = with_threads(threads, || {
            par_exact(
                &s,
                &grid,
                (ArgmaxImpact::against(base.clone()), TopK::new(0, 4)),
            )
        });
        assert_eq!(best.best(), seq_best, "threads {threads}");
        assert_eq!(top.finish(), seq_top, "threads {threads}");
    }
}
