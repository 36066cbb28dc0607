//! The cold path builds polynomials by accumulation, and this file pins
//! that as **counts** (allocations, live bytes), not timings:
//!
//! * the text parser makes about one allocation per term — the term's
//!   monomial — and twice the terms cost twice the allocations. Built by
//!   repeated `Polynomial::add`, the running sum was re-cloned per term:
//!   n²/2 monomial allocations, 134,504,464 for the 16,384 terms below.
//! * SQL `SUM` over n rows into d distinct monomials allocates O(n) in
//!   total (per-row work only; the clone-and-merge sum paid 2·d per row,
//!   8,140,007 for the rows below) and never holds more than a constant
//!   multiple of its d-term result beyond the scanned input — which is
//!   what keeps `peak_rss_mb` where it is: buffering the rows to sort them
//!   once at the end would be linear too, and would hold all n.
//!
//! One test, so no concurrently running test moves the counters.

use cobra::engine::{AggFunc, Database, Expr, Plan, Relation, Value};
use cobra::provenance::{parse_polyset, Monomial, Polynomial, VarRegistry};
use cobra::util::Rat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it touch no memory of the
// allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`; returns its result, the allocations it made and the most
/// bytes it held at once beyond what was live when it started.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    let allocations = ALLOCATIONS.load(Relaxed);
    let out = f();
    (
        out,
        ALLOCATIONS.load(Relaxed) - allocations,
        PEAK.load(Relaxed) - live,
    )
}

/// `P = 1.5*a0*b0 + 2.5*a0*b1 + …`: `terms` distinct monomials over
/// 128 × 128 variables, in the printer's order.
fn one_long_polynomial(terms: usize) -> String {
    let products: Vec<String> = (0..terms)
        .map(|i| format!("{}.5*a{}*b{}", i % 97 + 1, i / 128, i % 128))
        .collect();
    format!("P = {}\n", products.join(" + "))
}

#[test]
fn cold_path_sums_are_linear_in_allocations_and_bounded_in_live_bytes() {
    // ── the parser ───────────────────────────────────────────────────────
    let mut reg = VarRegistry::new();
    for i in 0..128 {
        reg.var(&format!("a{i}"));
        reg.var(&format!("b{i}"));
    }
    let (half, full) = (one_long_polynomial(8_192), one_long_polynomial(16_384));
    let (set, half_allocations, _) = measured(|| parse_polyset(&half, &mut reg).unwrap());
    assert_eq!(set.total_monomials(), 8_192);
    let (set, allocations, _) = measured(|| parse_polyset(&full, &mut reg).unwrap());
    assert_eq!(set.total_monomials(), 16_384);
    assert!(
        allocations <= 4 * 16_384,
        "{allocations} allocations to parse 16,384 terms"
    );
    assert!(
        allocations <= 2 * half_allocations + 64,
        "8,192 terms took {half_allocations} allocations, 16,384 took {allocations}"
    );

    // ── SUM ──────────────────────────────────────────────────────────────
    // 20,000 rows of one term each; the terms cycle over 200 monomials.
    let (rows, distinct) = (20_000usize, 200u32);
    let a = reg.lookup("a0").unwrap();
    let monomial = |i: u32| Monomial::from_pairs([(a, 1 + i % distinct)]);
    let table: Vec<Vec<Value>> = (0..rows as u32)
        .map(|i| {
            vec![Value::Poly(Polynomial::term(
                monomial(i),
                Rat::int(1 + (i % 7) as i64),
            ))]
        })
        .collect();
    // what one more copy of the input holds (a scan clones its table)
    let (copy, _, input_bytes) = measured(|| table.clone());
    drop(copy);
    let mut db = Database::new();
    db.insert("t", Relation::from_rows(["v"], table).unwrap());
    let plan = Plan::scan("t").aggregate(vec![], vec![(AggFunc::Sum, Expr::col("v"), "total")]);

    let (result, allocations, peak) = measured(|| db.execute(&plan).unwrap());
    let Value::Poly(total) = &result.rows()[0][0] else {
        panic!("SUM of polynomials is a polynomial");
    };
    assert_eq!(total.num_terms(), distinct as usize);
    let weight: i64 = (0..rows as i64).map(|i| 1 + i % 7).sum();
    let ones = cobra::provenance::Valuation::with_default(Rat::ONE);
    assert_eq!(total.eval(&ones), Ok(Rat::int(weight)));

    let (copy, _, result_bytes) = measured(|| total.clone());
    drop(copy);
    assert!(
        allocations <= 16 * rows,
        "{allocations} allocations to sum {rows} rows"
    );
    assert!(
        peak <= input_bytes + 8 * result_bytes + 64 * 1024,
        "SUM held {peak} bytes over a scan of {input_bytes} and a result of {result_bytes}"
    );
}
