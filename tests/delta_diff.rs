//! Delta differential suite (ISSUE 9): incremental provenance updates
//! through `CobraSession::apply_delta` are pinned **bit-identical** to a
//! fresh session rebuilt from the patched polynomials — on the Pareto
//! frontier curve, the exact (`Rat`) sweep rows, and the `f64` sweep
//! rows, across the kernel-target × worker-thread matrix
//! (`kernel::with_target` × `par::with_threads`, both scoped to this
//! test's thread).
//!
//! The edge cases the issue calls out are covered deterministically:
//!
//! * a long coeff-only churn stream that crosses the in-place CSR
//!   patching threshold and forces a compaction mid-stream;
//! * delete-then-reinsert of the same monomial, both inside a single
//!   delta (sequential semantics) and across two deltas (round-trip back
//!   to the baseline);
//! * deleting *every* term of a polynomial, leaving it zero.
//!
//! The companion overflow property pins the satellite-2 contract: `i128`
//! overflow in exact arithmetic is a typed `CoreError::ExactOverflow` —
//! raised exactly when the coefficient magnitudes predict it — and the
//! session stays live and answers afterwards.

use cobra::core::folds::{self, MergeFold, SweepFold};
use cobra::core::scenario::FoldItem;
use cobra::core::{Certified, CobraSession, CoreError, Exact, PolyDelta, ScenarioSet, SweepBudget};
use cobra::provenance::{Coeff, Monomial, Valuation, VarRegistry};
use cobra::util::kernel::{self, KernelTarget};
use cobra::util::par::with_threads;
use cobra::util::Rat;
use proptest::prelude::*;

/// Worker-thread counts the equivalences are pinned under.
const THREAD_MATRIX: [usize; 2] = [1, 4];

/// Kernel targets the equivalences are pinned under (`Auto` resolves to
/// the widest available batch kernel; `Scalar` forces the portable one).
const KERNEL_MATRIX: [KernelTarget; 2] = [KernelTarget::Auto, KernelTarget::Scalar];

const PAPER_POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 127.4*f1*m1 + 114.45*f1*m3 \
   + 75.9*y1*m1 + 72.5*y1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 77.9*b1*m1 + 80.5*b1*m3 + 52.2*e*m1 + 56.5*e*m3 + 69.7*b2*m1 + 100.65*b2*m3";

const FIG2_TREE: &str =
    "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

/// Tree leaves random deltas may touch: every monomial stays `leaf *
/// month`, so the stream never leaves the paper's single-tree setting.
const LEAVES: [&str; 11] = [
    "p1", "p2", "y1", "y2", "y3", "f1", "f2", "v", "b1", "b2", "e",
];
const MONTHS: [&str; 2] = ["m1", "m3"];

fn rat(s: &str) -> Rat {
    Rat::parse(s).unwrap()
}

/// A live session with a planned frontier and a selected bound — the
/// state `apply_delta` patches incrementally.
fn planned_session(bound: u64) -> CobraSession {
    let mut s = CobraSession::from_text(PAPER_POLYS).unwrap();
    s.add_tree_text(FIG2_TREE).unwrap();
    s.compress_frontier().unwrap();
    s.select_bound(bound).unwrap();
    s
}

/// The oracle: a brand-new session over the patched session's *current*
/// polynomials, taken through the full compress → plan → select
/// pipeline. Sharing the registry clone keeps `Var` ids aligned, so row
/// comparisons need no name translation.
fn fresh_rebuild(s: &CobraSession, bound: u64) -> CobraSession {
    let mut fresh = CobraSession::new(s.registry().clone(), s.polynomials().clone());
    fresh.add_tree_text(FIG2_TREE).unwrap();
    fresh.compress_frontier().unwrap();
    fresh.select_bound(bound).unwrap();
    fresh
}

/// The Pareto curve as `(variables, size)` pairs — the planner-level
/// surface the incremental replan must reproduce exactly.
fn curve(s: &CobraSession) -> Vec<(usize, u64)> {
    s.frontier()
        .unwrap()
        .points()
        .iter()
        .map(|p| (p.variables, p.size))
        .collect()
}

/// A small month × leaf scenario grid over variables that exist in the
/// shared registry regardless of what the delta stream did to the polys.
fn month_grid(reg: &VarRegistry) -> ScenarioSet {
    let m3 = reg.lookup("m3").unwrap();
    let y1 = reg.lookup("y1").unwrap();
    ScenarioSet::grid()
        .axis([m3], [rat("0.5"), rat("1"), rat("1.25")])
        .axis([y1], [rat("0.8"), rat("1.2")])
        .build()
        .unwrap()
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
type BitRows = Vec<(usize, Vec<u64>, Vec<u64>)>;

fn exact_rows_seq(s: &CobraSession, grid: &ScenarioSet, t: KernelTarget) -> Rows<Rat> {
    kernel::with_target(t, || {
        s.sweep_fold(grid, Collect::<Rat>::new(), folds::step).unwrap()
    })
    .finish()
}

fn exact_rows_par(s: &CobraSession, grid: &ScenarioSet, t: KernelTarget, threads: usize) -> Rows<Rat> {
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

fn bits(rows: Rows<f64>) -> BitRows {
    rows.into_iter()
        .map(|(i, full, compressed)| {
            (
                i,
                full.iter().map(|x| x.to_bits()).collect(),
                compressed.iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect()
}

fn f64_rows_seq(s: &CobraSession, grid: &ScenarioSet, t: KernelTarget) -> BitRows {
    let (fold, _) = kernel::with_target(t, || {
        s.sweep_fold_f64(grid, Collect::<f64>::new(), folds::step).unwrap()
    });
    bits(fold.finish())
}

fn f64_rows_par(s: &CobraSession, grid: &ScenarioSet, t: KernelTarget, threads: usize) -> BitRows {
    let (fold, _) = with_threads(threads, || {
        kernel::with_target(t, || s.sweep_fold_f64_par(grid, Collect::<f64>::new()).unwrap())
    });
    bits(fold.finish())
}

/// The core contract: the patched session and a fresh rebuild agree on
/// the frontier curve, the exact rows, and the `f64` rows (bit for bit),
/// under every kernel target × thread count in the matrix.
fn assert_matches_fresh(s: &CobraSession, bound: u64) {
    let fresh = fresh_rebuild(s, bound);
    assert_eq!(curve(s), curve(&fresh), "frontier curves diverge");

    let grid = month_grid(s.registry());
    let want_exact = exact_rows_seq(&fresh, &grid, KernelTarget::Scalar);
    let want_f64 = f64_rows_seq(&fresh, &grid, KernelTarget::Scalar);
    for t in KERNEL_MATRIX {
        assert_eq!(
            exact_rows_seq(s, &grid, t),
            want_exact,
            "exact rows diverge (seq, target {t})"
        );
        assert_eq!(
            f64_rows_seq(s, &grid, t),
            want_f64,
            "f64 rows diverge (seq, target {t})"
        );
        for threads in THREAD_MATRIX {
            assert_eq!(
                exact_rows_par(s, &grid, t, threads),
                want_exact,
                "exact rows diverge (par, target {t}, {threads} threads)"
            );
            assert_eq!(
                f64_rows_par(s, &grid, t, threads),
                want_f64,
                "f64 rows diverge (par, target {t}, {threads} threads)"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Random delta streams
// ---------------------------------------------------------------------

/// One random edit: `(poly, leaf, month, kind, numer, denom)`. Kinds 0–1
/// are `Set` (the workhorse), 2 is `Add`, 3 is `Remove`. Coefficients
/// stay positive so merged coefficients never cancel — the paper's
/// standing assumption.
type OpSpec = (usize, usize, usize, u8, i128, i128);

fn op_strategy() -> impl Strategy<Value = OpSpec> {
    (0usize..2, 0usize..11, 0usize..2, 0u8..4, 1i128..400, 1i128..30)
}

fn apply_ops(s: &mut CobraSession, ops: &[OpSpec]) {
    let mut delta = PolyDelta::new();
    for &(poly, leaf, month, kind, num, den) in ops {
        let leaf = s.registry().lookup(LEAVES[leaf]).unwrap();
        let month = s.registry().lookup(MONTHS[month]).unwrap();
        let mono = Monomial::from_pairs([(leaf, 1), (month, 1)]);
        match kind {
            3 => delta.remove(poly, mono),
            2 => delta.add(poly, mono, Rat::new(num, den)),
            _ => delta.set(poly, mono, Rat::new(num, den)),
        }
    }
    s.apply_delta(&delta).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random delta streams, applied in chunks to a live planned
    /// session, keep it bit-identical to a fresh rebuild after *every*
    /// chunk — mixed structural and coeff-only edits, inserts into
    /// polynomials that never had the monomial, and deletes of original
    /// paper terms.
    #[test]
    fn random_delta_streams_match_fresh_rebuild(
        ops in proptest::collection::vec(op_strategy(), 1..28),
        chunk_size in 1usize..10,
    ) {
        let mut s = planned_session(6);
        for chunk in ops.chunks(chunk_size) {
            apply_ops(&mut s, chunk);
            assert_matches_fresh(&s, 6);
        }
    }

    /// Satellite 2: `i128` overflow in exact sweep arithmetic is a typed
    /// `CoreError::ExactOverflow` — raised exactly when the magnitudes
    /// predict it — and the session keeps answering afterwards.
    ///
    /// Construction (parameterizing the unit test in `session.rs`):
    /// `P = c·a0 + … + c·a(k−1)` with `c = 2^e`, tree `T(a0,…)`, bound
    /// `k` — the selected cut is the leaf cut, so nothing merges at
    /// compression time and the only overflow site is the sweep-time sum
    /// `k·c`, which exceeds `i128` iff `c.checked_mul(k)` says so.
    #[test]
    fn exact_overflow_is_typed_exactly_when_predicted(
        e in 100u32..127,
        k in 2usize..6,
    ) {
        let c = 1i128 << e;
        let names: Vec<String> = (0..k).map(|i| format!("a{i}")).collect();
        let terms: Vec<String> = names.iter().map(|n| format!("{c}*{n}")).collect();
        let src = format!("P = {}", terms.join(" + "));
        let mut s = CobraSession::from_text(&src).unwrap();
        s.add_tree_text(&format!("T({})", names.join(","))).unwrap();
        s.set_bound(k as u64);
        s.compress().unwrap();

        let a0 = s.registry().lookup("a0").unwrap();
        let grid = ScenarioSet::grid().axis([a0], [Rat::ONE]).build().unwrap();
        let overflows = c.checked_mul(k as i128).is_none();

        let swept = s.sweep(&grid);
        let folded = s.sweep_fold(&grid, Collect::<Rat>::new(), folds::step);
        let unlimited = SweepBudget::unlimited();
        let par = with_threads(2, || {
            s.fold_par::<Exact, _>(&grid, &unlimited, Collect::<Rat>::new())
        });
        // The approximate precision re-runs its probes on the exact
        // engines, so it overflows exactly when they do.
        let approx = s.sweep_fold_f64(&grid, Collect::<f64>::new(), folds::step);
        let approx_par = with_threads(2, || s.sweep_fold_f64_par(&grid, Collect::<f64>::new()));
        if overflows {
            prop_assert!(matches!(swept, Err(CoreError::ExactOverflow(_))));
            prop_assert!(matches!(folded, Err(CoreError::ExactOverflow(_))));
            prop_assert!(matches!(par, Err(CoreError::ExactOverflow(_))));
            prop_assert!(matches!(approx, Err(CoreError::ExactOverflow(_))));
            prop_assert!(matches!(approx_par, Err(CoreError::ExactOverflow(_))));
        } else {
            prop_assert!(swept.is_ok());
            let want = Rat::new(c.checked_mul(k as i128).unwrap(), 1);
            let rows = folded.unwrap().finish();
            prop_assert_eq!(&rows[0].1, &vec![want]);
            prop_assert_eq!(&rows[0].2, &vec![want]);
            prop_assert_eq!(&par.unwrap().0.into_fold().finish(), &rows);
            prop_assert!(approx.is_ok());
            prop_assert!(approx_par.is_ok());
        }
        // The certified precision runs no exact arithmetic: always Ok.
        let certified = s.sweep_fold_f64_bounded(&grid, unlimited.clone(), (), |(), _| ());
        let certified_par = with_threads(2, || {
            s.fold_par::<Certified, _>(&grid, &unlimited, Collect::<f64>::new())
        });
        prop_assert!(certified.is_ok());
        prop_assert!(certified_par.is_ok());

        // Either way the session is live: zeroing all leaves but one
        // brings the sum back in range and the answer is exact.
        let mut val = Valuation::with_default(Rat::ONE);
        for name in &names[1..] {
            val.set(s.registry().lookup(name).unwrap(), Rat::ZERO);
        }
        let cmp = s.assign(&val).unwrap();
        prop_assert_eq!(cmp.rows[0].full, Rat::new(c, 1));
        prop_assert_eq!(cmp.rows[0].compressed, Rat::new(c, 1));
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------

/// A long coeff-only churn stream crosses the in-place patch threshold
/// (`(num_terms / 4).max(64)` touched terms) and forces a mid-stream
/// compaction of the CSR program — the recompiled engines must still
/// match a fresh rebuild exactly.
#[test]
fn compaction_trigger_still_matches_fresh_rebuild() {
    let mut s = planned_session(6);
    let targets: Vec<(usize, Monomial)> = (0..2)
        .flat_map(|p| {
            s.polynomials()
                .poly(p).unwrap()
                .terms()
                .iter()
                .map(|(m, _)| (p, m.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(targets.len(), 14, "paper fixture has 14 terms");

    // 3 rounds × 30 coeff-only edits = 90 touched terms, comfortably
    // past the compaction threshold of 64.
    for round in 0..3i128 {
        let mut delta = PolyDelta::<Rat>::new();
        for i in 0..30i128 {
            let (poly, mono) = &targets[(i as usize) % targets.len()];
            delta.set(*poly, mono.clone(), Rat::new(7 * round + i + 1, 3));
        }
        let report = s.apply_delta(&delta).unwrap();
        assert!(
            !report.is_structural(),
            "pure coeff churn must stay on the in-place patch path"
        );
        assert_matches_fresh(&s, 6);
    }
}

/// Delete-then-reinsert of the same monomial inside a single delta:
/// the ops apply sequentially, so the net effect is a round trip back to
/// the baseline coefficients — and the session must agree with both the
/// untouched baseline and a fresh rebuild.
#[test]
fn delete_then_reinsert_within_one_delta_round_trips() {
    let mut s = planned_session(6);
    let grid = month_grid(s.registry());
    let baseline_curve = curve(&s);
    let baseline_rows = exact_rows_seq(&s, &grid, KernelTarget::Auto);

    let p1m1 = {
        let p1 = s.registry().lookup("p1").unwrap();
        let m1 = s.registry().lookup("m1").unwrap();
        Monomial::from_pairs([(p1, 1), (m1, 1)])
    };
    let mut delta = PolyDelta::new();
    delta.remove(0, p1m1.clone());
    delta.set(0, p1m1, rat("208.8"));
    s.apply_delta(&delta).unwrap();

    assert_eq!(curve(&s), baseline_curve);
    assert_eq!(exact_rows_seq(&s, &grid, KernelTarget::Auto), baseline_rows);
    assert_matches_fresh(&s, 6);
}

/// The same round trip split across two deltas: the intermediate state
/// (term genuinely gone, engines spliced, plan re-selected) must match a
/// fresh rebuild, and the reinsert must land back on the baseline.
#[test]
fn delete_then_reinsert_across_deltas_round_trips() {
    let mut s = planned_session(6);
    let grid = month_grid(s.registry());
    let baseline_rows = exact_rows_seq(&s, &grid, KernelTarget::Auto);

    let vm3 = {
        let v = s.registry().lookup("v").unwrap();
        let m3 = s.registry().lookup("m3").unwrap();
        Monomial::from_pairs([(v, 1), (m3, 1)])
    };

    let mut delete = PolyDelta::new();
    delete.remove(0, vm3.clone());
    let report = s.apply_delta(&delete).unwrap();
    assert!(report.is_structural(), "a genuine delete is structural");
    assert_matches_fresh(&s, 6);
    assert_ne!(
        exact_rows_seq(&s, &grid, KernelTarget::Auto),
        baseline_rows,
        "the delete must be observable"
    );

    let mut reinsert = PolyDelta::new();
    reinsert.set(0, vm3, rat("24.2"));
    s.apply_delta(&reinsert).unwrap();
    assert_eq!(exact_rows_seq(&s, &grid, KernelTarget::Auto), baseline_rows);
    assert_matches_fresh(&s, 6);
}

/// Deleting every term of a polynomial leaves it identically zero — the
/// patched engines and the incremental replan must handle the empty
/// polynomial exactly like a fresh rebuild does.
#[test]
fn deleting_every_term_of_a_poly_still_matches_fresh_rebuild() {
    let mut s = planned_session(6);
    let p2_terms: Vec<Monomial> = s
        .polynomials()
        .poly(1).unwrap()
        .terms()
        .iter()
        .map(|(m, _)| m.clone())
        .collect();
    assert_eq!(p2_terms.len(), 6);

    let mut delta = PolyDelta::new();
    for mono in p2_terms {
        delta.remove(1, mono);
    }
    s.apply_delta(&delta).unwrap();
    assert!(s.polynomials().poly(1).unwrap().is_zero());
    assert_matches_fresh(&s, 6);
}
