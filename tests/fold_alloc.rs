//! The ISSUE 3 acceptance bar: a 10⁶-scenario grid **aggregates** through
//! `CobraSession::sweep_fold` in O(1) output memory.
//!
//! Where `tests/grid_alloc.rs` bounds the materializing sweep by its own
//! output matrix, the fold path has no output matrix at all: the entire
//! allocation budget for streaming 1,048,576 scenarios through both
//! compiled engines is a small constant (block row/result buffers plus
//! binder plans) — 2 MiB covers it with room to spare, while any
//! regression that materializes per-scenario valuations, rows, or results
//! costs hundreds of megabytes and fails immediately.
//!
//! The same test then re-runs the grid through the **parallel** fold
//! engine (`fold_par::<Exact>`, ISSUE 4) at 4 workers and proves its budget
//! is O(workers): each worker owns one set of bind/result block buffers
//! plus a fold replica, so the parallel pass costs a few worker-sized
//! constants — not O(scenarios), and not O(blocks) either (per-worker
//! scratch is reused across all of a worker's blocks).
//!
//! This file contains exactly one test so no concurrently running test
//! pollutes the allocation counter, and pins `COBRA_THREADS=1` for the
//! sequential phase (the parallel phase pins its worker count with the
//! race-free `par::with_threads` scope instead).

use cobra::core::folds::{self, MaxAbsError};
use cobra::core::scenario_set::Axis;
use cobra::core::{CobraSession, Exact, ScenarioSet, SweepBudget};
use cobra::util::Rat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A compact provenance whose exact sweep stays fast in debug builds:
/// grouping `a, b` into `AB` merges P1's two monomials, so the compressed
/// side both shrinks and exercises the meta-group projection.
const POLYS: &str = "P1 = 2*a*m + 3*b*m\nP2 = 5*c*m";
const TREE: &str = "T(AB(a,b), c)";

#[test]
fn million_scenario_grid_folds_within_constant_budget() {
    std::env::set_var("COBRA_THREADS", "1");
    let rat = |s: &str| Rat::parse(s).unwrap();
    let mut s = CobraSession::from_text(POLYS).unwrap();
    s.add_tree_text(TREE).unwrap();
    s.set_bound(2);
    s.compress().unwrap();

    // 32⁴ = 1,048,576 scenarios over four disjoint axes — an O(axes)
    // description of a grid whose materialized form would be gigabytes.
    let steps = 32usize;
    let vars = ["a", "b", "c", "m"].map(|n| s.registry_mut().var(n));
    let grid = ScenarioSet::grid()
        .push(Axis::linspace([vars[0]], rat("0.8"), rat("1.2"), steps))
        .push(Axis::linspace([vars[1]], rat("0.9"), rat("1.1"), steps))
        .push(Axis::linspace([vars[2]], rat("0.5"), rat("1.5"), steps))
        .push(Axis::linspace([vars[3]], rat("0.8"), rat("1.2"), steps))
        .build()
        .unwrap();
    let n = grid.len();
    assert!(n >= 1_000_000, "acceptance requires a 10^6+ grid, got {n}");

    // Warm-up at small scale: initializes the session's lazy engines and
    // faults in allocator metadata, so the measured run sees steady state.
    let small = ScenarioSet::grid()
        .push(Axis::linspace([vars[3]], rat("0.8"), rat("1.2"), 64 * 17))
        .build()
        .unwrap();
    let warm = s
        .sweep_fold(&small, MaxAbsError::new(), folds::step)
        .unwrap();
    assert_eq!(warm.max_rel_error, 0.0); // m is outside the tree

    let before = ALLOCATED.load(Ordering::SeqCst);
    let (count, worst) = s
        .sweep_fold(&grid, (0usize, MaxAbsError::new()), |(count, worst), item| {
            (count + 1, folds::step(worst, item))
        })
        .unwrap();
    let allocated = ALLOCATED.load(Ordering::SeqCst) - before;

    // Budget: 2 MiB TOTAL — there is no output matrix. The streamed
    // engine allocates block row/result buffers and binder plans once per
    // sweep (O(block × row), independent of n); materializing 10⁶
    // valuations, rows, or result pairs costs 100s of MB and fails here.
    let budget = 2 * 1024 * 1024;
    assert!(
        allocated <= budget,
        "fold sweep allocated {allocated} bytes over a {n}-scenario grid, \
         budget {budget}; a per-scenario materialization snuck in"
    );

    assert_eq!(count, n);
    // axis `a` moves alone inside the AB group → the grid contains lossy
    // points, and the fold saw them
    assert!(worst.max_rel_error > 0.0);
    assert!(worst.argmax_rel.is_some());

    // Spot-check the fold against the single-assignment path: the
    // worst-offender scenario really is lossy under assign too.
    let base = s.base_valuation().clone();
    let cmp = s
        .assign(grid.scenario_valuation(worst.argmax_rel.unwrap(), &base))
        .unwrap();
    assert!(cmp.max_rel_error() > 0.0);

    // ── Parallel phase: the same 10⁶-scenario grid through the
    // fold-combine engine at 4 workers. Budget: O(workers) — every worker
    // allocates its binder plans, block row/result buffers and one fold
    // replica exactly once, so 4 workers fit in 4 MiB with headroom while
    // any per-scenario (or per-block) allocation regression costs orders
    // of magnitude more and fails immediately.
    let workers = 4usize;
    let before = ALLOCATED.load(Ordering::SeqCst);
    let par_worst = cobra::util::par::with_threads(workers, || {
        s.fold_par::<Exact, _>(&grid, &SweepBudget::unlimited(), MaxAbsError::new())
            .unwrap()
            .0
            .into_fold()
    });
    let allocated = ALLOCATED.load(Ordering::SeqCst) - before;
    let budget = workers * 1024 * 1024;
    assert!(
        allocated <= budget,
        "parallel fold allocated {allocated} bytes over a {n}-scenario grid \
         at {workers} workers, budget {budget}; worker state is no longer \
         O(workers)"
    );

    // …and the parallel aggregate is bit-identical to the sequential one.
    assert_eq!(par_worst.max_abs_error, worst.max_abs_error);
    assert_eq!(par_worst.argmax_abs, worst.argmax_abs);
    assert_eq!(par_worst.max_rel_error, worst.max_rel_error);
    assert_eq!(par_worst.argmax_rel, worst.argmax_rel);
}
