//! Cross-kernel differential suite (ISSUE 8): the explicit batch kernels
//! — portable scalar, AVX2 and the scaled-`i128` fixed-point exact
//! kernel — are pinned against each other and against the generic
//! term-walk reference on random programs × random scenario grids.
//!
//! The contracts under test:
//!
//! * `scalar` ≡ `auto` (AVX2 wherever the CPU has it) **bit-identical**
//!   for every `f64` batch surface, at 1 and 4 worker threads
//!   (`par::with_threads` × `kernel::with_target`, both scoped to this
//!   test's thread so concurrently running tests cannot race on the env
//!   variables);
//! * the scaled-`i128` exact kernel is **representation-identical** to
//!   the plain `Rat` walk wherever it completes, and its per-scenario
//!   overflow fallback is unobservable through the public batch API —
//!   including at magnitudes straddling the `i128` overflow boundary.

use cobra::core::folds::{self, MergeFold, SweepFold};
use cobra::core::scenario::FoldItem;
use cobra::core::{CobraSession, Exact, ScenarioSet, SweepBudget};
use cobra::provenance::{
    compile_f64, parse_polyset, BatchEvaluator, Coeff, FixedScratch, VarRegistry,
};
use cobra::util::kernel::{self, KernelTarget};
use cobra::util::par::with_threads;
use cobra::util::Rat;
use proptest::prelude::*;

/// Worker-thread counts the kernel equivalences are pinned under: the
/// serial path and a genuine multi-worker fan-out.
const THREAD_MATRIX: [usize; 2] = [1, 4];

/// Every dispatch target; all must stay bit-identical on the `f64` path.
const IDENTICAL_TARGETS: [KernelTarget; 2] = [KernelTarget::Auto, KernelTarget::Scalar];

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

/// The differential collector from `tests/engine_diff.rs`: records every
/// scenario's index and both result rows in the fold's native coefficient
/// type, so exact streams compare as `Rat` and `f64` streams bit for bit.
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

// ---------------------------------------------------------------------
// Random programs and grids
// ---------------------------------------------------------------------

const VAR_POOL: [&str; 5] = ["a", "b", "c", "d", "w"];

/// One random term: numerator, denominator, and factors as
/// `(variable index, exponent)` pairs. Exponents up to 3 exercise the
/// square-and-multiply `pow` chains, not just plain multiplies.
type TermSpec = (i128, i128, Vec<(u8, u8)>);

fn term_strategy() -> impl Strategy<Value = TermSpec> {
    (
        -500i128..500,
        1i128..40,
        proptest::collection::vec((0u8..5, 1u8..4), 0..4),
    )
}

/// Renders a random term list as the text interchange format, so the
/// suite drives the same parse → compile pipeline as every engine.
fn render_polyset(polys: &[Vec<TermSpec>]) -> String {
    let mut out = String::new();
    for (i, terms) in polys.iter().enumerate() {
        out.push_str(&format!("P{i} = 0"));
        for (num, den, factors) in terms {
            out.push_str(if *num < 0 { " - " } else { " + " });
            out.push_str(&format!("{}/{}", num.abs(), den));
            for (v, e) in factors {
                out.push_str(&format!("*{}^{}", VAR_POOL[*v as usize], e));
            }
        }
        out.push('\n');
    }
    out
}

fn polyset_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(term_strategy(), 1..7), 1..4)
        .prop_map(|polys| render_polyset(&polys))
}

/// A pool of exact scenario values; rows index into it round-robin so
/// one strategy covers any program width.
fn rat_pool_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-60i128..60, 1i128..8), 8..20)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

fn rat_rows(pool: &[Rat], n: usize, width: usize) -> Vec<Vec<Rat>> {
    (0..n)
        .map(|k| (0..width).map(|v| pool[(k * width + v) % pool.len()]).collect())
        .collect()
}

fn levels_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-20i128..40, 1i128..5), 1..4)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every dispatch target on the `f64` batch surface produces bits
    /// identical to the generic term-walk reference, per thread count.
    #[test]
    fn f64_kernels_match_reference_on_random_programs(
        src in polyset_strategy(),
        pool in rat_pool_strategy(),
        n in 1usize..80,
    ) {
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev = compile_f64(&set);
        let prog = ev.program();
        let (np, width) = (prog.num_polys(), prog.num_locals());
        let rows: Vec<Vec<f64>> = rat_rows(&pool, n, width)
            .into_iter()
            .map(|row| row.into_iter().map(|x| x.to_f64()).collect())
            .collect();

        // Reference: the generic per-scenario walk, no batch kernel.
        let mut reference = vec![0.0f64; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        let run = |t: KernelTarget, threads: usize| -> Vec<f64> {
            let mut out = vec![0.0f64; n * np];
            with_threads(threads, || {
                kernel::with_target(t, || ev.eval_batch_fast_into(&rows, &mut out))
            });
            out
        };

        for threads in THREAD_MATRIX {
            for t in IDENTICAL_TARGETS {
                let out = run(t, threads);
                for (slot, (&got, &want)) in out.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "target {} threads {} slot {} ({} vs {})",
                        t, threads, slot, got, want
                    );
                }
            }
        }
    }

    /// The exact batch surface is representation-identical to the plain
    /// `Rat` walk under every target and thread count — with the
    /// fixed-point kernel on (`Auto`) and off (`Scalar`) — and the raw
    /// fixed kernel agrees bit for bit wherever it completes.
    #[test]
    fn exact_fixed_kernel_matches_rat_on_random_programs(
        src in polyset_strategy(),
        pool in rat_pool_strategy(),
        n in 1usize..40,
    ) {
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
        let prog = ev.program();
        let (np, width) = (prog.num_polys(), prog.num_locals());
        let rows = rat_rows(&pool, n, width);

        let mut reference = vec![Rat::ZERO; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        for threads in THREAD_MATRIX {
            for t in [KernelTarget::Auto, KernelTarget::Scalar] {
                let mut out = vec![Rat::ZERO; n * np];
                with_threads(threads, || {
                    kernel::with_target(t, || ev.eval_batch_exact_into(&rows, &mut out))
                });
                for (slot, (got, want)) in out.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        (got.numer(), got.denom()),
                        (want.numer(), want.denom()),
                        "target {} threads {} slot {}",
                        t, threads, slot
                    );
                }
            }
        }

        // The raw kernel, wherever it completes, is bit-identical too.
        if let Some(fp) = prog.fixed_program() {
            let mut scratch = FixedScratch::new();
            let mut out = vec![Rat::ZERO; np];
            for (k, row) in rows.iter().enumerate() {
                if fp.eval_scenario_into(prog, row, &mut out, &mut scratch) {
                    for (p, got) in out.iter().enumerate() {
                        let want = &reference[k * np + p];
                        prop_assert_eq!(
                            (got.numer(), got.denom()),
                            (want.numer(), want.denom()),
                            "scenario {} poly {}",
                            k, p
                        );
                    }
                }
            }
        }
    }

    /// Overflow-boundary property: at magnitudes where the fixed
    /// kernel's scaled intermediates (`coeff·S · (value·D)^e · D^pad`)
    /// straddle the `i128` limit, its per-scenario fallback to the `Rat`
    /// walk is silent — the public batch results never change, whether a
    /// scenario overflowed or not.
    #[test]
    fn fixed_kernel_overflow_fallback_is_silent(
        coeff_mag in 0u32..30,
        value_mags in proptest::collection::vec((0u32..9, 1i128..5, 0u8..2), 4..12),
        degree in 1u8..5,
    ) {
        // Cap the coefficient so the plain-Rat reference (which panics
        // on genuine i128 overflow of *canonical* values) stays in
        // range: coeff · value^degree ≲ 10³⁰. The fixed kernel's
        // headroom is far smaller — its intermediates carry the common
        // denominator scale D at full degree — so the sampled band still
        // produces both completing and overflowing scenarios.
        let max_mag = value_mags.iter().map(|&(m, _, _)| m).max().unwrap_or(0);
        let coeff_mag = coeff_mag.min(34u32.saturating_sub(max_mag * degree as u32 + 4));
        let src = format!(
            "P0 = {}*a^{} + 1/3*b\nP1 = 1/7*a*b",
            10i128.pow(coeff_mag),
            degree
        );
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
        let prog = ev.program();
        let (np, width) = (prog.num_polys(), prog.num_locals());

        let pool: Vec<Rat> = value_mags
            .into_iter()
            .map(|(mag, den, neg)| {
                let num = 10i128.pow(mag) * if neg == 1 { -1 } else { 1 };
                Rat::new(num, den)
            })
            .collect();
        let n = pool.len();
        let rows = rat_rows(&pool, n, width);

        let mut reference = vec![Rat::ZERO; n * np];
        for (k, row) in rows.iter().enumerate() {
            prog.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        // Raw kernel: any verdict is fine (overflow depends on the
        // sampled magnitudes) but completions must be bit-identical.
        let fp = prog.fixed_program();
        if let Some(fp) = fp {
            let mut scratch = FixedScratch::new();
            let mut out = vec![Rat::ZERO; np];
            for (k, row) in rows.iter().enumerate() {
                if fp.eval_scenario_into(prog, row, &mut out, &mut scratch) {
                    for (p, got) in out.iter().enumerate() {
                        let want = &reference[k * np + p];
                        prop_assert_eq!(
                            (got.numer(), got.denom()),
                            (want.numer(), want.denom()),
                            "scenario {} poly {}",
                            k, p
                        );
                    }
                }
            }
        }

        // Public path: mixed overflow/fallback batches still equal the
        // pure-Rat run bit for bit, at both thread counts.
        for threads in THREAD_MATRIX {
            let mut fixed_out = vec![Rat::ZERO; n * np];
            let mut rat_out = vec![Rat::ZERO; n * np];
            with_threads(threads, || {
                kernel::with_target(KernelTarget::Auto, || {
                    ev.eval_batch_exact_into(&rows, &mut fixed_out)
                });
                kernel::with_target(KernelTarget::Scalar, || {
                    ev.eval_batch_exact_into(&rows, &mut rat_out)
                });
            });
            prop_assert_eq!(&fixed_out, &rat_out, "threads {}", threads);
            prop_assert_eq!(&fixed_out, &reference, "threads {}", threads);
        }
    }

    /// The real sweep engines, end to end: exact folds are bit-identical
    /// with the fixed kernel on and off; `f64` folds are bit-identical
    /// across scalar/auto.
    #[test]
    fn session_sweeps_agree_across_kernel_targets(
        m3_levels in levels_strategy(),
        y1_levels in levels_strategy(),
    ) {
        let mut s = compressed_session(6);
        let m3 = s.registry_mut().var("m3");
        let y1 = s.registry_mut().var("y1");
        let grid = ScenarioSet::grid()
            .axis([m3], m3_levels)
            .axis([y1], y1_levels)
            .build()
            .unwrap();

        // Exact engines: plain-Rat reference vs fixed-kernel runs.
        let exact_ref = kernel::with_target(KernelTarget::Scalar, || {
            s.sweep_fold(&grid, Collect::<Rat>::new(), folds::step).unwrap()
        })
        .finish();
        for threads in THREAD_MATRIX {
            for t in [KernelTarget::Auto, KernelTarget::Scalar] {
                let seq = kernel::with_target(t, || {
                    s.sweep_fold(&grid, Collect::<Rat>::new(), folds::step).unwrap()
                })
                .finish();
                prop_assert_eq!(&seq, &exact_ref, "seq target {}", t);
                let par = with_threads(threads, || {
                    kernel::with_target(t, || {
                        s.fold_par::<Exact, _>(&grid, &SweepBudget::unlimited(), Collect::<Rat>::new())
                            .unwrap()
                    })
                })
                .0
                .into_fold()
                .finish();
                prop_assert_eq!(&par, &exact_ref, "par target {} threads {}", t, threads);
            }
        }

        // f64 engines: bit-identical across the targets.
        let f64_ref = kernel::with_target(KernelTarget::Scalar, || {
            s.sweep_fold_f64(&grid, Collect::<f64>::new(), folds::step).unwrap()
        })
        .0
        .finish();
        for threads in THREAD_MATRIX {
            for t in IDENTICAL_TARGETS {
                let (seq, _) = kernel::with_target(t, || {
                    s.sweep_fold_f64(&grid, Collect::<f64>::new(), folds::step).unwrap()
                });
                prop_assert_eq!(&seq.finish(), &f64_ref, "seq target {}", t);
                let (par, _) = with_threads(threads, || {
                    kernel::with_target(t, || {
                        s.sweep_fold_f64_par(&grid, Collect::<f64>::new()).unwrap()
                    })
                });
                prop_assert_eq!(&par.finish(), &f64_ref, "par target {} threads {}", t, threads);
            }
        }
    }
}

/// A crafted boundary: in `P0 = a⁴ + b` the fixed kernel evaluates `a`
/// at the row's common denominator scale `D`, so a huge denominator on
/// *b* pushes `(a·D)⁴` past `i128` even though the true value is tame
/// and plain `Rat` arithmetic never sees the blow-up. The kernel must
/// refuse that row, complete the benign one, and the public surface
/// must never show the difference.
#[test]
fn fixed_kernel_boundary_is_exact() {
    let mut reg = VarRegistry::new();
    let set = parse_polyset("P0 = 1*a^4 + 1*b", &mut reg).unwrap();
    let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
    let prog = ev.program();
    let fp = prog.fixed_program().expect("tiny program must lower");
    let mut scratch = FixedScratch::new();
    let mut out = vec![Rat::ZERO; 1];

    // D = 7: (3·7)⁴ is tiny, the kernel completes.
    let small = vec![Rat::new(3, 1), Rat::new(1, 7)];
    assert!(
        fp.eval_scenario_into(prog, &small, &mut out, &mut scratch),
        "D = 7 stays comfortably inside i128"
    );
    assert_eq!(out[0], Rat::new(568, 7)); // 3⁴ + 1/7

    // D = 10⁹: (10³·10⁹)⁴ = 10⁴⁸ ≫ i128::MAX, though a⁴ + b itself is
    // a perfectly representable rational.
    let big = vec![Rat::new(1000, 1), Rat::new(1, 1_000_000_000)];
    assert!(
        !fp.eval_scenario_into(prog, &big, &mut out, &mut scratch),
        "the scaled intermediate must overflow and demand the Rat fallback"
    );

    // The public batch surface hides the fallback entirely.
    let rows = vec![small, big];
    let mut fixed_out = vec![Rat::ZERO; 2];
    let mut rat_out = vec![Rat::ZERO; 2];
    kernel::with_target(KernelTarget::Auto, || {
        ev.eval_batch_exact_into(&rows, &mut fixed_out)
    });
    kernel::with_target(KernelTarget::Scalar, || {
        ev.eval_batch_exact_into(&rows, &mut rat_out)
    });
    assert_eq!(fixed_out, rat_out);
    assert_eq!(fixed_out[0], Rat::new(568, 7));
    assert_eq!(
        fixed_out[1],
        Rat::new(10i128.pow(21) + 1, 10i128.pow(9)) // 10¹² + 10⁻⁹
    );
}

/// `SessionInfo` reports the kernel the calling thread resolves —
/// the hook the server's `stats` reply rides.
#[test]
fn session_info_reports_resolved_kernel() {
    let s = compressed_session(6);
    let scalar = kernel::with_target(KernelTarget::Scalar, || s.info());
    assert_eq!(scalar.kernel, "scalar");
    let auto = kernel::with_target(KernelTarget::Auto, || s.info());
    if kernel::avx2_available() {
        assert_eq!(auto.kernel, "avx2");
    } else {
        assert_eq!(auto.kernel, "scalar");
    }
    // The container this suite gates in CI must actually exercise AVX2
    // somewhere; record the capability so a silent downgrade of the CI
    // runner fleet shows up as a test-log change, not silence.
    println!("kernel capability: avx2={}", kernel::avx2_available());
}

/// Pins the dispatch plumbing end to end on the `sweep` convenience
/// surface too (`rat` keeps the grid exactly representable).
#[test]
fn sweep_f64_matches_across_targets_end_to_end() {
    let mut s = compressed_session(6);
    let m3 = s.registry_mut().var("m3");
    let grid = ScenarioSet::grid()
        .axis([m3], [rat("0.5"), rat("0.75"), rat("1"), rat("1.25")])
        .build()
        .unwrap();
    let reference = kernel::with_target(KernelTarget::Scalar, || s.sweep_f64(&grid).unwrap());
    for t in IDENTICAL_TARGETS {
        let swept = kernel::with_target(t, || s.sweep_f64(&grid).unwrap());
        for i in 0..grid.len() {
            for (a, b) in swept.full_row(i).iter().zip(reference.full_row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "target {t} scenario {i}");
            }
            for (a, b) in swept
                .compressed_row(i)
                .iter()
                .zip(reference.compressed_row(i))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "target {t} scenario {i}");
            }
        }
    }
}
