//! Built-in streaming sweep folds: O(1)-memory aggregates over scenario
//! families.
//!
//! The fold entries
//! ([`CobraSession::fold`](crate::session::CobraSession::fold),
//! [`CompiledComparison::fold`](crate::scenario::CompiledComparison::fold))
//! hand each scenario's full/compressed result rows to a callback
//! instead of materializing the O(scenarios × polys) result matrix. The
//! aggregate questions the paper's analyst actually asks — *what is the
//! worst-case error of the abstraction? which scenario moves the results
//! most? how are the outcomes distributed?* — are folds over that
//! stream, and this module ships the common ones:
//!
//! * [`MaxAbsError`] — worst-case absolute/relative full-vs-compressed
//!   error over the family, with the offending scenario index.
//! * [`ArgmaxImpact`] — the scenario whose results move farthest from a
//!   baseline (`Σ_p |P_p(scenario) − P_p(base)|`).
//! * [`Histogram`] — fixed-range bucket counts of one result tuple.
//! * [`TopK`] — the `k` scenarios with the largest value of one result
//!   tuple, in O(k) memory.
//!
//! Every fold implements [`SweepFold`] and plugs into a fold sweep via
//! [`step`]; all of them work on both the exact (`Rat`) and approximate
//! (`f64`) streams. Each built-in additionally implements [`MergeFold`] —
//! a commutative merge of partial accumulators with ties broken toward
//! the lowest scenario index — so the same fold runs unchanged on the
//! mergeable entry
//! ([`CobraSession::fold_par`](crate::session::CobraSession::fold_par))
//! with results bit-identical to the ordered pass at any thread
//! count. Folds compose as tuples: `(MaxAbsError::new(), TopK::new(0, 5))`
//! is itself a `MergeFold` answering both questions in one pass.
//!
//! # Which entry do I call?
//!
//! | precision ([`Precision`](crate::scenario::Precision)) | ordered: any closure, or a [`SweepFold`] via [`step`] | mergeable: a [`MergeFold`] fanned across cores |
//! |---|---|---|
//! | [`Exact`](crate::scenario::Exact) | `fold::<Exact, _>(set, &budget, fold, folds::step)` | `fold_par::<Exact, _>(set, &budget, fold)` |
//! | [`Approx`](crate::scenario::Approx) | `fold::<Approx, _>(set, &budget, fold, folds::step)` | `fold_par::<Approx, _>(set, &budget, fold)` |
//! | [`Certified`](crate::scenario::Certified) | `fold::<Certified, _>(set, &budget, fold, folds::step)` | `fold_par::<Certified, _>(set, &budget, fold)` |
//!
//! The session's `sweep_fold`, `sweep_fold_f64`, `sweep_fold_f64_bounded`
//! and `sweep_fold_f64_par` are sugar over these for the common cases.
//!
//! # Example
//!
//! The worst-case abstraction error and the top scenarios of a grid,
//! computed in one streamed pass with no per-scenario storage:
//!
//! ```
//! use cobra_core::folds::{self, MaxAbsError, SweepFold, TopK};
//! use cobra_core::{CobraSession, Exact, ScenarioSet, SweepBudget};
//! use cobra_util::Rat;
//!
//! let mut session = CobraSession::from_text(
//!     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
//! ).unwrap();
//! session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
//! session.set_bound(2);
//! session.compress().unwrap();
//!
//! let m3 = session.registry_mut().var("m3");
//! let p1 = session.registry_mut().var("p1");
//! let rat = |s: &str| Rat::parse(s).unwrap();
//! let grid = ScenarioSet::grid()
//!     .axis([m3], [rat("0.8"), rat("1"), rat("1.2")])
//!     .axis([p1], [rat("1"), rat("1.1")])
//!     .build()
//!     .unwrap();
//!
//! // Worst-case error of the abstraction over all six scenarios:
//! let worst = session
//!     .sweep_fold(&grid, MaxAbsError::new(), folds::step)
//!     .unwrap()
//!     .finish();
//! // p1 moves alone inside the Standard group → some points are lossy.
//! assert!(worst.max_rel_error > 0.0);
//!
//! // The two highest-revenue scenarios for P1 (result tuple 0):
//! let top = session
//!     .sweep_fold(&grid, TopK::new(0, 2), folds::step)
//!     .unwrap()
//!     .finish();
//! assert_eq!(top.len(), 2);
//! assert!(top[0].1 >= top[1].1);
//! // The maximum sits at m3=1.2, p1=1.1 — the last grid point.
//! assert_eq!(top[0].0, grid.len() - 1);
//!
//! // Both questions in one pass fanned across cores — a tuple of folds is
//! // a `MergeFold` — bit-identical to the ordered folds above.
//! let (outcome, ()) = session
//!     .fold_par::<Exact, _>(
//!         &grid,
//!         &SweepBudget::unlimited(),
//!         (MaxAbsError::new(), TopK::new(0, 2)),
//!     )
//!     .unwrap();
//! let (par_worst, par_top) = outcome.into_fold();
//! assert_eq!(par_worst.max_rel_error, worst.max_rel_error);
//! assert_eq!(par_worst.argmax_rel, worst.argmax_rel);
//! assert_eq!(par_top.finish(), top);
//! ```

use crate::scenario::FoldItem;
use cobra_provenance::Coeff;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A streaming consumer of fold-sweep items: an online aggregate over
/// the per-scenario full/compressed result rows. Implementations must be
/// O(1) (or O(k)) in the number of scenarios — that is the entire point
/// of the fold surface.
///
/// Folds are generic over the coefficient type so the same aggregate
/// runs on the exact ([`Rat`](cobra_util::Rat)) and the approximate
/// (`f64`) stream; the built-ins aggregate in `f64` on both (error and
/// impact *statistics* are reported as floats everywhere in this crate).
pub trait SweepFold {
    /// What [`finish`](Self::finish) distills the stream into.
    type Output;

    /// Consumes one scenario's result rows (exact or approximate — the
    /// method is generic over the coefficient type, so one fold serves
    /// both streams).
    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>);

    /// Finalizes the aggregate.
    fn finish(self) -> Self::Output;
}

/// Adapter from the closure-shaped fold surface to [`SweepFold`]: pass
/// `folds::step` as the fold function and any `SweepFold` as the
/// accumulator — `sweep_fold(set, MaxAbsError::new(), folds::step)`.
pub fn step<C: Coeff, F: SweepFold>(mut fold: F, item: FoldItem<'_, C>) -> F {
    fold.accept(item);
    fold
}

/// A [`SweepFold`] whose partial accumulators can be **merged** — the
/// monoid structure the mergeable fold entries
/// ([`CobraSession::fold_par`](crate::session::CobraSession::fold_par),
/// [`CompiledComparison::fold_par`](crate::scenario::CompiledComparison::fold_par))
/// fan scenario blocks across worker threads with: every worker owns a
/// replica built by [`init`](Self::init), accepts its contiguous scenario
/// span in ascending order, and the partials are merged back **in
/// ascending span order**.
///
/// # Laws
///
/// For any split of an ascending item stream into consecutive runs,
/// accepting each run into a fresh `init()` replica and merging the
/// replicas in run order must equal accepting the whole stream into one
/// accumulator. The engines guarantee the deterministic ascending merge
/// order, so *ordered* monoids (e.g. an appending collector) are lawful;
/// every built-in fold is additionally **commutative** — ties between
/// equal aggregate values break toward the lowest scenario index, never
/// toward whichever partial merged first — so results are bit-identical
/// to the sequential fold at any thread count.
///
/// ```
/// use cobra_core::folds::{MergeFold, SweepFold, TopK};
/// use cobra_core::scenario::FoldItem;
///
/// // Split a stream across two replicas, merge, and get the sequential
/// // answer back — the contract the parallel sweeps rely on.
/// let proto = TopK::new(0, 2);
/// let (mut a, mut b) = (proto.init(), proto.init());
/// for (i, v) in [3.0, 9.0].iter().enumerate() {
///     let row = [*v];
///     a.accept(FoldItem { scenario: i, full: &row, compressed: &[] });
/// }
/// for (i, v) in [9.0, 4.0].iter().enumerate() {
///     let row = [*v];
///     b.accept(FoldItem { scenario: 2 + i, full: &row, compressed: &[] });
/// }
/// let mut merged = proto;
/// merged.merge(a);
/// merged.merge(b);
/// // the 9.0 tie breaks toward scenario 1, not the later replica's 2
/// assert_eq!(merged.finish(), vec![(1, 9.0), (2, 9.0)]);
/// ```
pub trait MergeFold: SweepFold + Sized {
    /// A fresh replica carrying this fold's *configuration* (baseline,
    /// range, `k`, …) but none of its observations — the identity element
    /// handed to each worker.
    fn init(&self) -> Self;

    /// Folds another replica's observations into `self`. The engines call
    /// this in ascending scenario order (`later` saw strictly later
    /// scenario indices), and the built-ins are insensitive to the order
    /// anyway.
    fn merge(&mut self, later: Self);
}

/// Pairs fold in lockstep: both components see every item, so one pass
/// answers two aggregate questions
/// (`fold_par::<Exact, _>(set, &budget, (MaxAbsError::new(), TopK::new(0, 5)))`).
impl<A: SweepFold, B: SweepFold> SweepFold for (A, B) {
    type Output = (A::Output, B::Output);

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        self.0.accept(item);
        self.1.accept(item);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish())
    }
}

impl<A: MergeFold, B: MergeFold> MergeFold for (A, B) {
    fn init(&self) -> Self {
        (self.0.init(), self.1.init())
    }

    fn merge(&mut self, later: Self) {
        self.0.merge(later.0);
        self.1.merge(later.1);
    }
}

/// Triples fold in lockstep, like the pair composition.
impl<A: SweepFold, B: SweepFold, C2: SweepFold> SweepFold for (A, B, C2) {
    type Output = (A::Output, B::Output, C2::Output);

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        self.0.accept(item);
        self.1.accept(item);
        self.2.accept(item);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish(), self.2.finish())
    }
}

impl<A: MergeFold, B: MergeFold, C2: MergeFold> MergeFold for (A, B, C2) {
    fn init(&self) -> Self {
        (self.0.init(), self.1.init(), self.2.init())
    }

    fn merge(&mut self, later: Self) {
        self.0.merge(later.0);
        self.1.merge(later.1);
        self.2.merge(later.2);
    }
}

/// True iff `(challenger_stat, challenger_at)` beats the incumbent under
/// the shared argmax rule: strictly larger statistic wins; equal
/// statistics break toward the **lowest scenario index**. The rule makes
/// every argmax-shaped fold merge-order independent — two partials
/// observing the same extremum agree on the winner no matter which side
/// of a span boundary (or merge tree) saw it.
fn argmax_beats(challenger: (f64, usize), incumbent: Option<(f64, usize)>) -> bool {
    match incumbent {
        None => true,
        Some((stat, at)) => {
            challenger.0 > stat || (challenger.0 == stat && challenger.1 < at)
        }
    }
}

/// Worst-case full-vs-compressed error over the family: the largest
/// absolute and relative deviations across every scenario and result
/// tuple, with the scenario indices where they occur — the paper's
/// "what is the worst-case error of the abstraction?" in one streamed
/// pass.
#[derive(Clone, Debug, Default)]
pub struct MaxAbsError {
    /// Largest `|full − compressed|` observed.
    pub max_abs_error: f64,
    /// Scenario index attaining [`max_abs_error`](Self::max_abs_error).
    pub argmax_abs: Option<usize>,
    /// Largest `|full − compressed| / |full|` observed (∞ if a zero full
    /// value meets a nonzero compressed one, matching
    /// [`ScenarioSweep::max_rel_error`](crate::scenario::ScenarioSweep::max_rel_error)).
    pub max_rel_error: f64,
    /// Scenario index attaining [`max_rel_error`](Self::max_rel_error).
    pub argmax_rel: Option<usize>,
}

impl MaxAbsError {
    /// An empty tracker (zero error, no argmax).
    pub fn new() -> MaxAbsError {
        MaxAbsError::default()
    }
}

impl SweepFold for MaxAbsError {
    type Output = MaxAbsError;

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        for (f, c) in item.full.iter().zip(item.compressed) {
            let (f, c) = (f.to_f64(), c.to_f64());
            let abs = (f - c).abs();
            if abs > self.max_abs_error {
                self.max_abs_error = abs;
                self.argmax_abs = Some(item.scenario);
            }
            let rel = crate::assign::rel_error_f64(f, c);
            if rel > self.max_rel_error {
                self.max_rel_error = rel;
                self.argmax_rel = Some(item.scenario);
            }
        }
    }

    fn finish(self) -> MaxAbsError {
        self
    }
}

impl MergeFold for MaxAbsError {
    fn init(&self) -> MaxAbsError {
        MaxAbsError::new()
    }

    fn merge(&mut self, later: MaxAbsError) {
        // An argmax of None means the replica never saw a nonzero error —
        // nothing to contribute (`accept` only records strictly positive
        // deviations). Equal errors break toward the lower scenario index,
        // exactly like the sequential first-wins update.
        if let Some(at) = later.argmax_abs {
            if argmax_beats(
                (later.max_abs_error, at),
                self.argmax_abs.map(|i| (self.max_abs_error, i)),
            ) {
                self.max_abs_error = later.max_abs_error;
                self.argmax_abs = Some(at);
            }
        }
        if let Some(at) = later.argmax_rel {
            if argmax_beats(
                (later.max_rel_error, at),
                self.argmax_rel.map(|i| (self.max_rel_error, i)),
            ) {
                self.max_rel_error = later.max_rel_error;
                self.argmax_rel = Some(at);
            }
        }
    }
}

/// The scenario whose results move farthest from a baseline: tracks
/// `argmax_i Σ_p |full_p(i) − base_p|` — "which scenario maximizes
/// impact?" over an unbounded stream. Construct it against the base
/// results (e.g.
/// [`CobraSession::baseline_results`](crate::session::CobraSession::baseline_results)).
#[derive(Clone, Debug)]
pub struct ArgmaxImpact {
    base: Vec<f64>,
    best: Option<(usize, f64)>,
}

impl ArgmaxImpact {
    /// Tracks impact against `base` results (one `f64` per result tuple,
    /// label order).
    pub fn against(base: Vec<f64>) -> ArgmaxImpact {
        ArgmaxImpact { base, best: None }
    }

    /// The winning `(scenario index, impact)` so far.
    pub fn best(&self) -> Option<(usize, f64)> {
        self.best
    }
}

impl SweepFold for ArgmaxImpact {
    type Output = Option<(usize, f64)>;

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        debug_assert_eq!(item.full.len(), self.base.len(), "baseline width");
        let impact: f64 = item
            .full
            .iter()
            .zip(&self.base)
            .map(|(f, b)| (f.to_f64() - b).abs())
            .sum();
        // Explicit tie-break (lowest scenario index wins) instead of
        // bare first-wins: on an ascending stream they coincide, and the
        // explicit rule makes the winner independent of how scenarios
        // were partitioned across parallel workers.
        if argmax_beats(
            (impact, item.scenario),
            self.best.map(|(i, b)| (b, i)),
        ) {
            self.best = Some((item.scenario, impact));
        }
    }

    fn finish(self) -> Option<(usize, f64)> {
        self.best
    }
}

impl MergeFold for ArgmaxImpact {
    fn init(&self) -> ArgmaxImpact {
        ArgmaxImpact {
            base: self.base.clone(),
            best: None,
        }
    }

    fn merge(&mut self, later: ArgmaxImpact) {
        // Release-mode check, matching Histogram/TopK: merging replicas
        // built against different baselines would compare incommensurate
        // impacts silently. O(num_polys) once per merge — merges are
        // O(workers), never per scenario.
        assert_eq!(self.base, later.base, "replicas must share the baseline");
        if let Some((at, impact)) = later.best {
            if argmax_beats((impact, at), self.best.map(|(i, b)| (b, i))) {
                self.best = Some((at, impact));
            }
        }
    }
}

/// Fixed-range histogram of one result tuple's **full-side** values over
/// the family: `buckets` equal-width bins spanning `[lo, hi)`, plus
/// underflow/overflow counters — the distribution of outcomes over a
/// 10⁷-scenario grid in O(buckets) memory.
#[derive(Clone, Debug)]
pub struct Histogram {
    poly: usize,
    lo: f64,
    hi: f64,
    /// Bin counts, in range order.
    pub counts: Vec<u64>,
    /// Scenarios whose value fell below `lo`.
    pub underflow: u64,
    /// Scenarios whose value fell at or above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// A histogram of result tuple `poly` over `[lo, hi)` with `buckets`
    /// equal-width bins.
    ///
    /// # Panics
    /// Panics if `buckets == 0` or `lo >= hi`.
    pub fn new(poly: usize, lo: f64, hi: f64, buckets: usize) -> Histogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            poly,
            lo,
            hi,
            counts: vec![0; buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Total scenarios observed (in-range + under + over).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

impl SweepFold for Histogram {
    type Output = Histogram;

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        let x = item.full[self.poly].to_f64();
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let k = self.counts.len();
            let bin = ((x - self.lo) / (self.hi - self.lo) * k as f64) as usize;
            self.counts[bin.min(k - 1)] += 1;
        }
    }

    fn finish(self) -> Histogram {
        self
    }
}

impl MergeFold for Histogram {
    fn init(&self) -> Histogram {
        Histogram::new(self.poly, self.lo, self.hi, self.counts.len())
    }

    fn merge(&mut self, later: Histogram) {
        assert_eq!(
            (self.poly, self.lo, self.hi, self.counts.len()),
            (later.poly, later.lo, later.hi, later.counts.len()),
            "histogram replicas must share their binning"
        );
        for (c, l) in self.counts.iter_mut().zip(&later.counts) {
            *c += l;
        }
        self.underflow += later.underflow;
        self.overflow += later.overflow;
    }
}

/// `f64` keyed by `total_cmp` so scenario values can live in a heap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &OrdF64) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &OrdF64) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The `k` scenarios with the largest **full-side** value of one result
/// tuple, tracked in a size-`k` min-heap — "which scenarios maximize
/// revenue?" over an unbounded stream in O(k) memory. Ties break toward
/// the earlier scenario.
#[derive(Clone, Debug)]
pub struct TopK {
    poly: usize,
    k: usize,
    /// Min-heap of `(value, Reverse(scenario))`: the root is the weakest
    /// kept entry, evicted when a stronger scenario arrives.
    heap: BinaryHeap<Reverse<(OrdF64, Reverse<usize>)>>,
}

impl TopK {
    /// Tracks the `k` largest values of result tuple `poly`.
    pub fn new(poly: usize, k: usize) -> TopK {
        TopK {
            poly,
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one `(value, scenario)` candidate to the heap under the
    /// total `(value desc, scenario asc)` order — shared by `accept` and
    /// `merge`, so selection is a pure top-`k` over that order and cannot
    /// depend on which worker (or in which order) a candidate arrived.
    fn offer(&mut self, entry: Reverse<(OrdF64, Reverse<usize>)>) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(weakest) = self.heap.peek() {
            if entry < *weakest {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }
}

impl SweepFold for TopK {
    type Output = Vec<(usize, f64)>;

    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        self.offer(Reverse((
            OrdF64(item.full[self.poly].to_f64()),
            Reverse(item.scenario),
        )));
    }

    /// The kept scenarios as `(scenario index, value)`, best first.
    fn finish(self) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = self
            .heap
            .into_iter()
            .map(|Reverse((OrdF64(v), Reverse(s)))| (s, v))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

impl MergeFold for TopK {
    fn init(&self) -> TopK {
        TopK::new(self.poly, self.k)
    }

    fn merge(&mut self, later: TopK) {
        assert_eq!(
            (self.poly, self.k),
            (later.poly, later.k),
            "top-k replicas must share their configuration"
        );
        for entry in later.heap {
            self.offer(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_util::Rat;

    fn item<'a>(scenario: usize, full: &'a [f64], comp: &'a [f64]) -> FoldItem<'a, f64> {
        FoldItem {
            scenario,
            full,
            compressed: comp,
        }
    }

    #[test]
    fn max_abs_error_tracks_both_statistics() {
        let mut fold = MaxAbsError::new();
        fold.accept(item(0, &[10.0, 2.0], &[10.0, 2.0]));
        fold.accept(item(1, &[10.0, 2.0], &[9.0, 2.1]));
        fold.accept(item(2, &[0.5, 2.0], &[0.1, 2.0]));
        let out = fold.finish();
        assert_eq!(out.max_abs_error, 1.0);
        assert_eq!(out.argmax_abs, Some(1));
        assert_eq!(out.max_rel_error, 0.8); // |0.5-0.1|/0.5
        assert_eq!(out.argmax_rel, Some(2));
    }

    #[test]
    fn max_abs_error_zero_full_is_infinite_rel() {
        let mut fold = MaxAbsError::new();
        fold.accept(item(7, &[0.0], &[0.25]));
        assert_eq!(fold.max_rel_error, f64::INFINITY);
        assert_eq!(fold.argmax_rel, Some(7));
        let mut exact = MaxAbsError::new();
        let zero = [Rat::ZERO];
        exact.accept(FoldItem {
            scenario: 0,
            full: &zero,
            compressed: &zero,
        });
        assert_eq!(exact.max_rel_error, 0.0);
    }

    #[test]
    fn argmax_impact_finds_largest_move() {
        let mut fold = ArgmaxImpact::against(vec![10.0, 5.0]);
        fold.accept(item(0, &[10.0, 5.0], &[]));
        fold.accept(item(1, &[12.0, 4.0], &[]));
        fold.accept(item(2, &[11.0, 5.5], &[]));
        assert_eq!(fold.best(), Some((1, 3.0)));
        assert_eq!(fold.finish(), Some((1, 3.0)));
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0, 0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, 10.0, -0.1, 5.0] {
            let row = [x];
            h.accept(item(0, &row, &[]));
        }
        assert_eq!(h.counts, vec![2, 1, 1, 0, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 7);
    }

    /// Splits `items` at every possible boundary into two replicas of
    /// `proto`, merges them both ways where the fold is commutative, and
    /// checks the merged result equals sequentially accepting everything.
    fn check_merge_law<F>(proto: &F, items: &[(usize, Vec<f64>, Vec<f64>)], expect: &F)
    where
        F: MergeFold + Clone + std::fmt::Debug + PartialEq,
    {
        for split in 0..=items.len() {
            let (mut a, mut b) = (proto.init(), proto.init());
            for (s, full, comp) in &items[..split] {
                a.accept(item(*s, full, comp));
            }
            for (s, full, comp) in &items[split..] {
                b.accept(item(*s, full, comp));
            }
            let mut ordered = proto.clone();
            ordered.merge(a.clone());
            ordered.merge(b.clone());
            assert_eq!(&ordered, expect, "split {split}");
            // the built-ins are commutative, not just ordered
            let mut reversed = proto.clone();
            reversed.merge(b);
            reversed.merge(a);
            assert_eq!(&reversed, expect, "reversed split {split}");
        }
    }

    #[test]
    fn max_abs_error_merge_matches_sequential_with_ties() {
        // scenarios 1 and 3 produce the *same* absolute error: the lowest
        // scenario index must win no matter where the split lands
        let items: Vec<(usize, Vec<f64>, Vec<f64>)> = vec![
            (0, vec![10.0], vec![10.0]),
            (1, vec![10.0], vec![9.0]),
            (2, vec![4.0], vec![4.5]),
            (3, vec![20.0], vec![19.0]),
        ];
        let mut expect = MaxAbsError::new();
        for (s, full, comp) in &items {
            expect.accept(item(*s, full, comp));
        }
        assert_eq!(expect.argmax_abs, Some(1)); // 1.0 first at scenario 1
        check_merge_law(&MaxAbsError::new(), &items, &expect);
        // merging two empty replicas stays empty
        let mut empty = MaxAbsError::new();
        empty.merge(MaxAbsError::new());
        assert_eq!(empty.argmax_abs, None);
        assert_eq!(empty.max_abs_error, 0.0);
    }

    impl PartialEq for MaxAbsError {
        fn eq(&self, other: &MaxAbsError) -> bool {
            self.max_abs_error == other.max_abs_error
                && self.argmax_abs == other.argmax_abs
                && self.max_rel_error == other.max_rel_error
                && self.argmax_rel == other.argmax_rel
        }
    }

    #[test]
    fn argmax_impact_ties_break_to_lowest_scenario_index() {
        // baseline 10: scenarios 1 and 2 both move by exactly 2.0
        let items: Vec<(usize, Vec<f64>, Vec<f64>)> = vec![
            (0, vec![10.0], vec![]),
            (1, vec![12.0], vec![]),
            (2, vec![8.0], vec![]),
            (3, vec![11.0], vec![]),
        ];
        let proto = ArgmaxImpact::against(vec![10.0]);
        let mut expect = proto.init();
        for (s, full, comp) in &items {
            expect.accept(item(*s, full, comp));
        }
        assert_eq!(expect.best(), Some((1, 2.0)));
        // even accepting the tied later scenario FIRST cannot steal the
        // argmax: the tie-break is by index, not arrival order
        let mut late_first = proto.init();
        late_first.accept(item(2, &[8.0], &[]));
        late_first.accept(item(1, &[12.0], &[]));
        assert_eq!(late_first.best(), Some((1, 2.0)));
        check_merge_law(&proto, &items, &expect);
    }

    impl PartialEq for ArgmaxImpact {
        fn eq(&self, other: &ArgmaxImpact) -> bool {
            self.base == other.base && self.best == other.best
        }
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let items: Vec<(usize, Vec<f64>, Vec<f64>)> = [0.5, 3.0, 11.0, -2.0, 7.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, vec![v], vec![]))
            .collect();
        let proto = Histogram::new(0, 0.0, 10.0, 5);
        let mut expect = proto.init();
        for (s, full, comp) in &items {
            expect.accept(item(*s, full, comp));
        }
        check_merge_law(&proto, &items, &expect);
    }

    impl PartialEq for Histogram {
        fn eq(&self, other: &Histogram) -> bool {
            self.counts == other.counts
                && self.underflow == other.underflow
                && self.overflow == other.overflow
        }
    }

    #[test]
    #[should_panic(expected = "binning")]
    fn histogram_merge_rejects_mismatched_binning() {
        Histogram::new(0, 0.0, 10.0, 5).merge(Histogram::new(0, 0.0, 10.0, 6));
    }

    #[test]
    fn top_k_merge_keeps_lowest_index_on_cross_replica_ties() {
        // three-way tie at 5.0 spanning any split point: the kept pair
        // must always be the two lowest scenario indices {1, 3}
        let items: Vec<(usize, Vec<f64>, Vec<f64>)> = [1.0, 5.0, 3.0, 5.0, 5.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, vec![v], vec![]))
            .collect();
        let proto = TopK::new(0, 2);
        let mut expect = proto.init();
        for (s, full, comp) in &items {
            expect.accept(item(*s, full, comp));
        }
        for split in 0..=items.len() {
            let (mut a, mut b) = (proto.init(), proto.init());
            for (s, full, comp) in &items[..split] {
                a.accept(item(*s, full, comp));
            }
            for (s, full, comp) in &items[split..] {
                b.accept(item(*s, full, comp));
            }
            let mut merged = proto.init();
            merged.merge(b); // commutative: later replica first
            merged.merge(a);
            assert_eq!(
                merged.finish(),
                vec![(1, 5.0), (3, 5.0)],
                "split {split}"
            );
        }
        assert_eq!(expect.finish(), vec![(1, 5.0), (3, 5.0)]);
    }

    #[test]
    fn tuple_folds_compose_and_merge() {
        let proto = (
            MaxAbsError::new(),
            ArgmaxImpact::against(vec![10.0]),
            TopK::new(0, 2),
        );
        let items: Vec<(usize, Vec<f64>, Vec<f64>)> = vec![
            (0, vec![10.0], vec![10.0]),
            (1, vec![13.0], vec![12.0]),
            (2, vec![6.0], vec![6.0]),
        ];
        let mut seq = proto.init();
        for (s, full, comp) in &items {
            seq.accept(item(*s, full, comp));
        }
        let (mut a, mut b) = (proto.init(), proto.init());
        a.accept(item(0, &items[0].1, &items[0].2));
        b.accept(item(1, &items[1].1, &items[1].2));
        b.accept(item(2, &items[2].1, &items[2].2));
        let mut merged = proto.init();
        merged.merge(a);
        merged.merge(b);
        let (worst, impact, top) = merged.finish();
        let (sworst, simpact, stop) = seq.finish();
        assert_eq!(worst.argmax_abs, sworst.argmax_abs);
        assert_eq!(worst.max_abs_error, sworst.max_abs_error);
        assert_eq!(impact, simpact);
        assert_eq!(impact, Some((2, 4.0))); // |6 − 10| beats |13 − 10|
        assert_eq!(top, stop);
    }

    #[test]
    fn top_k_keeps_largest_with_stable_ties() {
        let mut fold = TopK::new(0, 3);
        for (i, v) in [1.0, 5.0, 3.0, 5.0, 2.0, 4.0].iter().enumerate() {
            let row = [*v];
            fold.accept(item(i, &row, &[]));
        }
        let out = fold.finish();
        // ties (5.0 at scenarios 1 and 3) keep the earlier scenario first
        assert_eq!(out, vec![(1, 5.0), (3, 5.0), (5, 4.0)]);
        let empty = TopK::new(0, 0).finish();
        assert!(empty.is_empty());
    }
}
