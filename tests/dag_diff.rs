//! DAG differential suite (ISSUE 10): algebraic compression — the
//! shared-subterm DAG rewrite ([`cobra::provenance::dag`]) and its
//! session surface ([`cobra::core::CobraSession::compile_dag`]) — is
//! pinned against the flat programs it factors.
//!
//! The contracts under test:
//!
//! * on random polynomial sets, the rewritten program (CSE + pair
//!   mining + Horner, and the CSE-only profile) evaluates **identically**
//!   to the flat program on the exact (`Rat`) path — rearrangement is
//!   exact in the ring and `Rat` is canonical, so every numerator and
//!   denominator matches — through both the generic term walk and the
//!   batch kernels, at 1 and 4 worker threads;
//! * the rewrite only ever removes multiply work (`dag_multiply_ops ≤
//!   flat_multiply_ops`) and never changes the output row count;
//! * a DAG-armed session answers exact sweeps bit-identically to a flat
//!   twin under the kernel-target × thread matrix, and its `f64` sweeps
//!   stay within the **joint** Higham certificate of the flat twin's
//!   (each side is within its own sound bound of the true value, so the
//!   two runs differ by at most the sum of the bounds);
//! * slot programs are never stale: structural and coeff-only deltas
//!   applied to a DAG-armed session leave it bit-identical to a fresh
//!   flat rebuild of the patched polynomials;
//! * `compress()` + `compile_dag()` compose, survive a re-selection
//!   hop, and disarm cleanly back to the flat engines.

use cobra::core::folds::{self, MergeFold, SweepFold};
use cobra::core::scenario::FoldItem;
use cobra::core::{CobraSession, Exact, PolyDelta, ScenarioSet, SweepBudget};
use cobra::provenance::dag;
use cobra::provenance::{
    parse_polyset, BatchEvaluator, Coeff, DagOptions, Monomial, VarRegistry,
};
use cobra::util::kernel::{self, KernelTarget};
use cobra::util::par::with_threads;
use cobra::util::Rat;
use proptest::prelude::*;

/// Worker-thread counts the equivalences are pinned under.
const THREAD_MATRIX: [usize; 2] = [1, 4];

/// Kernel targets the equivalences are pinned under.
const KERNEL_MATRIX: [KernelTarget; 2] = [KernelTarget::Auto, KernelTarget::Scalar];

const PAPER_POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";

const FIG2_TREE: &str =
    "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

fn rat(s: &str) -> Rat {
    Rat::parse(s).unwrap()
}

/// A compressed flat session over the paper fixture.
fn flat_session(bound: u64) -> CobraSession {
    let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
    s.add_tree_text(FIG2_TREE).unwrap();
    s.set_bound(bound);
    s.compress().unwrap();
    s
}

/// The same compression with algebraic compression armed on top.
fn dag_session(bound: u64) -> CobraSession {
    let mut s = flat_session(bound);
    s.compile_dag().unwrap();
    s
}

/// The differential collector from `tests/kernel_diff.rs`: records every
/// scenario's index and both result rows in the fold's native
/// coefficient type.
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

type Rows<C> = Vec<(usize, Vec<C>, Vec<C>)>;

fn exact_rows_seq(s: &CobraSession, grid: &ScenarioSet, t: KernelTarget) -> Rows<Rat> {
    kernel::with_target(t, || {
        s.sweep_fold(grid, Collect::<Rat>::new(), folds::step).unwrap()
    })
    .finish()
}

fn exact_rows_par(
    s: &CobraSession,
    grid: &ScenarioSet,
    t: KernelTarget,
    threads: usize,
) -> Rows<Rat> {
    with_threads(threads, || {
        kernel::with_target(t, || {
            s.fold_par::<Exact, _>(grid, &SweepBudget::unlimited(), Collect::<Rat>::new())
                .unwrap()
        })
    })
    .0
    .into_fold()
    .finish()
}

/// A month × special-leaf grid over the paper fixture.
fn month_grid(s: &mut CobraSession, m3_levels: Vec<Rat>, y1_levels: Vec<Rat>) -> ScenarioSet {
    let m3 = s.registry_mut().var("m3");
    let y1 = s.registry_mut().var("y1");
    ScenarioSet::grid()
        .axis([m3], m3_levels)
        .axis([y1], y1_levels)
        .build()
        .unwrap()
}

fn levels_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-20i128..40, 1i128..5), 1..4)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

// ---------------------------------------------------------------------
// Random programs: the rewrite itself
// ---------------------------------------------------------------------

const VAR_POOL: [&str; 5] = ["a", "b", "c", "d", "w"];

/// One random term: numerator, denominator, and factors as
/// `(variable index, exponent)` pairs. Exponents up to 4 exercise the
/// power-product CSE (`x^e` splitting) and Horner restructuring, not
/// just plain multiplies.
type TermSpec = (i128, i128, Vec<(u8, u8)>);

fn term_strategy() -> impl Strategy<Value = TermSpec> {
    (
        -500i128..500,
        1i128..40,
        proptest::collection::vec((0u8..5, 1u8..5), 0..5),
    )
}

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
    proptest::collection::vec(proptest::collection::vec(term_strategy(), 1..10), 1..4)
        .prop_map(|polys| render_polyset(&polys))
}

fn rat_pool_strategy() -> impl Strategy<Value = Vec<Rat>> {
    proptest::collection::vec((-60i128..60, 1i128..8), 8..20)
        .prop_map(|pairs| pairs.into_iter().map(|(n, d)| Rat::new(n, d)).collect())
}

fn rat_rows(pool: &[Rat], n: usize, width: usize) -> Vec<Vec<Rat>> {
    (0..n)
        .map(|k| (0..width).map(|v| pool[(k * width + v) % pool.len()]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random programs, every rewrite profile produces a program
    /// that (a) evaluates identically to the flat walk on the exact
    /// path — generic walk and batch kernels, per thread count — and
    /// (b) never adds multiply work or changes the output row count.
    #[test]
    fn dag_rewrite_is_exact_on_random_programs(
        src in polyset_strategy(),
        pool in rat_pool_strategy(),
        n in 1usize..40,
    ) {
        let mut reg = VarRegistry::new();
        let set = parse_polyset(&src, &mut reg).unwrap();
        let ev: BatchEvaluator<Rat> = BatchEvaluator::compile(&set);
        let flat = ev.program();
        let (np, width) = (flat.num_polys(), flat.num_locals());
        let rows = rat_rows(&pool, n, width);

        let mut reference = vec![Rat::ZERO; n * np];
        for (k, row) in rows.iter().enumerate() {
            flat.eval_scenario_into(row, &mut reference[k * np..(k + 1) * np]);
        }

        for opts in [DagOptions::default(), DagOptions::cse_only()] {
            let build = dag::rewrite(flat, &opts);
            prop_assert_eq!(build.stats.num_polys, np);
            prop_assert!(
                build.stats.dag_multiply_ops <= build.stats.flat_multiply_ops,
                "rewrite must never add multiplies ({} > {})",
                build.stats.dag_multiply_ops, build.stats.flat_multiply_ops
            );
            prop_assert_eq!(build.program.num_polys(), np);
            prop_assert_eq!(build.program.num_locals(), width);
            prop_assert_eq!(build.program.multiply_ops(), build.stats.dag_multiply_ops);

            // Generic term walk, slot rows staged natively.
            let mut out = vec![Rat::ZERO; np];
            for (k, row) in rows.iter().enumerate() {
                build.program.eval_scenario_into(row, &mut out);
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

            // Batch kernels over the slot program, per target × threads.
            let dag_ev = BatchEvaluator::new(build.program);
            for threads in THREAD_MATRIX {
                for t in KERNEL_MATRIX {
                    let mut out = vec![Rat::ZERO; n * np];
                    with_threads(threads, || {
                        kernel::with_target(t, || dag_ev.eval_batch_exact_into(&rows, &mut out))
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

            // f64 twin of the slot program: every bit-identical dispatch
            // target agrees with the generic walk over the same slots.
            let dag_f64 = BatchEvaluator::new(dag_ev.program().to_f64_program());
            let f64_rows: Vec<Vec<f64>> = rows
                .iter()
                .map(|row| row.iter().map(|x| x.to_f64()).collect())
                .collect();
            let mut f64_ref = vec![0.0f64; n * np];
            for (k, row) in f64_rows.iter().enumerate() {
                dag_f64
                    .program()
                    .eval_scenario_into(row, &mut f64_ref[k * np..(k + 1) * np]);
            }
            for threads in THREAD_MATRIX {
                for t in KERNEL_MATRIX {
                    let mut out = vec![0.0f64; n * np];
                    with_threads(threads, || {
                        kernel::with_target(t, || {
                            dag_f64.eval_batch_fast_into(&f64_rows, &mut out)
                        })
                    });
                    for (slot, (&got, &want)) in out.iter().zip(&f64_ref).enumerate() {
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "f64 target {} threads {} slot {} ({} vs {})",
                            t, threads, slot, got, want
                        );
                    }
                }
            }
        }
    }

    /// A DAG-armed session answers exact sweeps bit-identically to a
    /// flat twin under the kernel × thread matrix, and its bounded `f64`
    /// sweeps stay within the joint Higham certificate of the twin's.
    #[test]
    fn dag_session_matches_flat_twin_on_random_grids(
        m3_levels in levels_strategy(),
        y1_levels in levels_strategy(),
        bound in 4u64..9,
    ) {
        let mut flat = flat_session(bound);
        let mut dagged = dag_session(bound);
        let grid = month_grid(&mut flat, m3_levels.clone(), y1_levels.clone());
        let dag_grid = month_grid(&mut dagged, m3_levels, y1_levels);

        // Exact path: bit-identical, sequential and parallel.
        let want = exact_rows_seq(&flat, &grid, KernelTarget::Scalar);
        for t in KERNEL_MATRIX {
            prop_assert_eq!(
                exact_rows_seq(&dagged, &dag_grid, t),
                want.clone(),
                "exact rows diverge (seq, target {})", t
            );
            for threads in THREAD_MATRIX {
                prop_assert_eq!(
                    exact_rows_par(&dagged, &dag_grid, t, threads),
                    want.clone(),
                    "exact rows diverge (par, target {}, {} threads)", t, threads
                );
            }
        }

        // f64 path: the slot programs reassociate, so rows may differ —
        // but each run carries a sound rounding certificate, so the two
        // differ by at most the sum of the certificates.
        let (dag_out, dag_bound) = dagged
            .sweep_fold_f64_bounded(
                &dag_grid,
                SweepBudget::unlimited(),
                Collect::<f64>::new(),
                folds::step,
            )
            .unwrap();
        let (flat_out, flat_bound) = flat
            .sweep_fold_f64_bounded(
                &grid,
                SweepBudget::unlimited(),
                Collect::<f64>::new(),
                folds::step,
            )
            .unwrap();
        let budget = dag_bound.max_abs_bound + flat_bound.max_abs_bound;
        let dag_rows = dag_out.into_fold().finish();
        let flat_rows = flat_out.into_fold().finish();
        prop_assert_eq!(dag_rows.len(), flat_rows.len());
        for ((i, d_full, d_comp), (j, f_full, f_comp)) in dag_rows.iter().zip(&flat_rows) {
            prop_assert_eq!(i, j);
            for (a, b) in d_full.iter().zip(f_full).chain(d_comp.iter().zip(f_comp)) {
                prop_assert!(
                    (a - b).abs() <= budget,
                    "scenario {}: dag {} vs flat {} exceeds joint certificate {}",
                    i, a, b, budget
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic: deltas, composition, disarm
// ---------------------------------------------------------------------

/// The oracle for delta interaction: a brand-new *flat* session over the
/// patched session's current polynomials (exact rows are bit-identical
/// between flat and DAG by construction, so a flat oracle pins both).
fn fresh_flat_rebuild(s: &CobraSession, bound: u64) -> CobraSession {
    let mut fresh = CobraSession::new(s.registry().clone(), s.polynomials().clone());
    fresh.add_tree_text(FIG2_TREE).unwrap();
    fresh.compress_frontier().unwrap();
    fresh.select_bound(bound).unwrap();
    fresh
}

fn paper_grid(s: &mut CobraSession) -> ScenarioSet {
    month_grid(s, vec![rat("0.5"), rat("1"), rat("1.25")], vec![rat("0.8"), rat("1.2")])
}

/// Slot programs are never stale: a structural delta (delete + insert)
/// and a coeff-only delta against a DAG-armed session both leave it
/// bit-identical to a fresh flat rebuild of the patched polynomials.
#[test]
fn deltas_never_leave_stale_slots() {
    let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
    s.add_tree_text(FIG2_TREE).unwrap();
    s.compress_frontier().unwrap();
    s.select_bound(6).unwrap();
    s.compile_dag().unwrap();
    let grid = paper_grid(&mut s);
    let baseline = exact_rows_seq(&s, &grid, KernelTarget::Auto);

    // Structural: delete one paper term, insert a brand-new monomial.
    let (vm3, p2m1) = {
        let v = s.registry().lookup("v").unwrap();
        let p2 = s.registry().lookup("p2").unwrap();
        let m1 = s.registry().lookup("m1").unwrap();
        let m3 = s.registry().lookup("m3").unwrap();
        (
            Monomial::from_pairs([(v, 1), (m3, 1)]),
            Monomial::from_pairs([(p2, 1), (m1, 1)]),
        )
    };
    let mut delta = PolyDelta::new();
    delta.remove(0, vm3);
    delta.set(0, p2m1.clone(), rat("33.3"));
    let report = s.apply_delta(&delta).unwrap();
    assert!(report.is_structural());
    assert!(s.dag_mode(), "deltas must not disarm DAG mode");
    let after_structural = exact_rows_seq(&s, &grid, KernelTarget::Auto);
    assert_ne!(after_structural, baseline, "the delta must be observable");
    let fresh = fresh_flat_rebuild(&s, 6);
    assert_eq!(
        after_structural,
        exact_rows_seq(&fresh, &grid, KernelTarget::Scalar),
        "stale slot values after a structural delta"
    );

    // Coeff-only: patches ride the in-place CSR path; the DAG engines
    // must still rebuild from the patched coefficients.
    let mut coeff = PolyDelta::new();
    coeff.set(0, p2m1, rat("44.4"));
    let report = s.apply_delta(&coeff).unwrap();
    assert!(!report.is_structural());
    let after_coeff = exact_rows_seq(&s, &grid, KernelTarget::Auto);
    let fresh = fresh_flat_rebuild(&s, 6);
    assert_eq!(
        after_coeff,
        exact_rows_seq(&fresh, &grid, KernelTarget::Scalar),
        "stale slot values after a coeff-only delta"
    );
}

/// `compress()` + `compile_dag()` compose: the report covers both the
/// full and compressed sides, the armed session survives a re-selection
/// hop to another bound, and disarming returns the flat engines — all
/// without changing a single exact row.
#[test]
fn compose_reselect_and_disarm() {
    let mut s = flat_session(6);
    let report = s.compile_dag().unwrap();
    assert_eq!(report.full.num_polys, 2);
    assert_eq!(report.compressed.num_polys, 2);
    assert!(report.full.dag_multiply_ops <= report.full.flat_multiply_ops);
    assert!(report.compressed.dag_multiply_ops <= report.compressed.flat_multiply_ops);
    assert!(report.op_ratio() >= 1.0);

    let grid = paper_grid(&mut s);
    let mut flat6 = flat_session(6);
    let grid6 = paper_grid(&mut flat6);
    assert_eq!(
        exact_rows_seq(&s, &grid, KernelTarget::Auto),
        exact_rows_seq(&flat6, &grid6, KernelTarget::Scalar)
    );

    // Hop to another bound: the frontier re-selection rebuilds the
    // compressed side; DAG mode stays armed and stays exact.
    s.compress_frontier().unwrap();
    s.select_bound(4).unwrap();
    assert!(s.dag_mode());
    let mut flat4 = CobraSession::from_text(PAPER_POLYS).unwrap();
    flat4.add_tree_text(FIG2_TREE).unwrap();
    flat4.compress_frontier().unwrap();
    flat4.select_bound(4).unwrap();
    let grid4 = paper_grid(&mut flat4);
    assert_eq!(
        exact_rows_seq(&s, &grid, KernelTarget::Auto),
        exact_rows_seq(&flat4, &grid4, KernelTarget::Scalar)
    );

    // Disarm: back on the flat engines, same rows.
    s.set_dag_mode(false);
    assert!(!s.dag_mode());
    assert_eq!(
        exact_rows_seq(&s, &grid, KernelTarget::Auto),
        exact_rows_seq(&flat4, &grid4, KernelTarget::Scalar)
    );
}
