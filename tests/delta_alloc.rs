//! A coefficient-only delta patches a warmed tree selection in place, and
//! this file pins that as **counts** (allocations, bytes), not timings:
//! 16 coefficient edits plus the `warm_up` after them, on a session of
//! 51,200 monomials compressed to 5,120, allocate the two sides' new
//! coefficient arrays — `Rat` and `f64`, full and compressed — plus what
//! the 16 touched polynomials' compressed rows take to rebuild. Nothing
//! else is rebuilt: no compressed polynomial set, no program shape, no
//! variable table. Re-deriving the compressed side instead (re-applying
//! the cut to every monomial, recompiling the compressed program and both
//! `f64` shadows) costs one allocation per compressed monomial and about a
//! megabyte more.
//!
//! One test, so no concurrently running test moves the counters.

use cobra::core::{CobraSession, PolyDelta};
use cobra::provenance::{Monomial, PolySet, Polynomial, VarRegistry};
use cobra::util::Rat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it touch no memory of the
// allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`; returns the allocations it made and the bytes they asked for.
fn measured(f: impl FnOnce()) -> (usize, usize) {
    let (allocations, bytes) = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    f();
    (
        ALLOCATIONS.load(Relaxed) - allocations,
        BYTES.load(Relaxed) - bytes,
    )
}

const POLYS: usize = 64;
const GROUPS: usize = 10;
const LEAVES_PER_GROUP: usize = 10;
const CONTEXTS: usize = 8;
const EDITS: usize = 16;

/// `P{p} = Σ c·l{i}·x{j}` over 100 leaves in ten groups `G{g}` of one tree
/// and 8 context variables: 64 × 800 = 51,200 monomials.
fn session() -> CobraSession {
    let mut reg = VarRegistry::new();
    let leaves: Vec<_> = (0..GROUPS * LEAVES_PER_GROUP)
        .map(|i| reg.var(&format!("l{i}")))
        .collect();
    let contexts: Vec<_> = (0..CONTEXTS).map(|j| reg.var(&format!("x{j}"))).collect();
    let mut set = PolySet::new();
    for p in 0..POLYS {
        let terms = leaves.iter().enumerate().flat_map(|(i, &leaf)| {
            contexts.iter().enumerate().map(move |(j, &x)| {
                let c = Rat::new(1 + ((p * 7 + i * 3 + j) % 97) as i128, 4);
                (Monomial::from_pairs([(leaf, 1), (x, 1)]), c)
            })
        });
        set.push(format!("P{p}"), Polynomial::from_terms(terms));
    }
    let groups: Vec<String> = (0..GROUPS)
        .map(|g| {
            let leaves: Vec<String> = (0..LEAVES_PER_GROUP)
                .map(|k| format!("l{}", g * LEAVES_PER_GROUP + k))
                .collect();
            format!("G{g}({})", leaves.join(","))
        })
        .collect();
    let mut s = CobraSession::new(reg, set);
    s.add_tree_text(&format!("T({})", groups.join(",")))
        .unwrap();
    s
}

#[test]
fn a_coefficient_delta_on_a_warm_selection_allocates_coefficients_only() {
    let mut s = session();
    let full = POLYS * GROUPS * LEAVES_PER_GROUP * CONTEXTS;
    assert_eq!(s.polynomials().total_monomials(), full);
    s.compress_frontier().unwrap();
    // the cut {G0, …, G9}: one term per group and context
    let compressed = POLYS * GROUPS * CONTEXTS;
    let report = s.select_bound(compressed as u64).unwrap();
    assert_eq!(report.compressed_size, compressed as u64);
    s.warm_up().unwrap();

    let mut delta = PolyDelta::new();
    for k in 0..EDITS {
        let p = k * (POLYS / EDITS);
        let leaf = s.registry().lookup(&format!("l{}", 6 * k)).unwrap();
        let x = s.registry().lookup(&format!("x{}", k % CONTEXTS)).unwrap();
        delta.set(
            p,
            Monomial::from_pairs([(leaf, 1), (x, 1)]),
            Rat::int(1000 + k as i64),
        );
    }
    let (allocations, bytes) = measured(|| {
        let report = s.apply_delta(&delta).unwrap();
        assert!(!report.is_structural());
        s.warm_up().unwrap();
    });

    let coefficients = (full + compressed) * (std::mem::size_of::<Rat>() + 8);
    let rebuilt = EDITS * GROUPS * CONTEXTS; // the touched compressed rows
    assert!(
        allocations <= 2 * rebuilt + 256,
        "{allocations} allocations for {EDITS} edits ({rebuilt} compressed terms rebuilt)"
    );
    // per rebuilt term: its monomial, and its place in the row being built
    // and in the canonicalised row
    assert!(
        bytes <= coefficients + 512 * rebuilt + 64 * 1024,
        "{bytes} bytes for {EDITS} edits; the coefficient arrays are {coefficients}"
    );
}
