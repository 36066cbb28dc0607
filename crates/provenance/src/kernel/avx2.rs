//! Explicit AVX2 lane kernels (x86-64 only, runtime-detected).
//!
//! Default `x86-64` builds guarantee only SSE2, so the auto-vectorized
//! [`scalar`](super::scalar) kernel runs 2-wide and round-trips its term
//! buffer through L1 on every factor. These kernels run 4-wide with lane
//! tiles **outer** and terms inner: both each term's running product and
//! the row accumulator live in `ymm` registers across the whole row, so
//! per term the only memory traffic is the factor lane vectors (plus the
//! L1-hot CSR metadata, re-streamed once per 16-lane tile) and `acc` is
//! stored once per tile instead of per term.
//!
//! Per lane, [`eval_block`] performs the identical
//! `term = c; term *= x_f; acc += term` sequence as the scalar kernel
//! (exponents through the shared [`pow_f64`] chain), so its results are
//! **bit-identical** — how lanes are grouped into tiles cannot matter,
//! because lanes never interact.

use crate::compile::EvalProgram;
use cobra_util::kernel::pow_f64;
use std::arch::x86_64::*;

/// Lanes per register tile: four 4-wide `ymm` term accumulators.
const TILE: usize = 16;

/// The mul+add AVX2 kernel — bit-identical to the scalar kernel.
///
/// # Safety
/// The CPU must support AVX2 (`cobra_util::kernel::avx2_available`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn eval_block(
    prog: &EvalProgram<f64>,
    width: usize,
    vals: &mut [f64],
    acc: &mut [f64],
    out: &mut [f64],
) {
    eval_block_impl(prog, width, vals, acc, out);
}

/// The body of [`eval_block`], one `#[inline(always)]` level below the
/// `#[target_feature]` entry. The level is load-bearing: folding it into
/// `eval_block` changes what rustc's depth-limited MIR inliner hands to
/// LLVM and, with that, the register allocation of the tile loops
/// (`objdump` on the benchmark binary; this form is instruction for
/// instruction what every recorded baseline ran).
#[inline(always)]
unsafe fn eval_block_impl(
    prog: &EvalProgram<f64>,
    width: usize,
    vals: &mut [f64],
    acc: &mut [f64],
    out: &mut [f64],
) {
    let np = prog.num_polys();
    let nl = prog.num_locals();
    // Slot rows of a DAG program run first, each staging its accumulator
    // as the extended lane vector `nl + s`. A slot row only references
    // strictly earlier lane vectors, so the raw-pointer reads below never
    // alias the one vector being written.
    let vp = vals.as_mut_ptr();
    for s in 0..prog.num_slots() {
        eval_row(prog, np + s, width, vp, acc);
        std::ptr::copy_nonoverlapping(acc.as_ptr(), vp.add((nl + s) * width), width);
    }
    for p in 0..np {
        eval_row(prog, p, width, vp, acc);
        for (lane, &a) in acc.iter().enumerate() {
            out[lane * np + p] = a;
        }
    }
}

/// One CSR row over the (possibly slot-extended) lane table, accumulated
/// into `acc` — lane tiles outer, terms inner, so the four `ymm`
/// accumulators live in registers across the **whole row** and `acc` is
/// written once per tile instead of round-tripped through L1 per term.
/// For a lane the terms still run in CSR order with the identical
/// `term = c; term *= x_f; acc += term` chain, so the interchange cannot
/// change a single rounding: bit-identity with the scalar kernel is
/// preserved. The payoff is largest for single-factor rows (DAG programs
/// after CSE: one coefficient×slot multiply per term), where the
/// accumulator traffic used to cost more than the term itself.
#[inline(always)]
unsafe fn eval_row(
    prog: &EvalProgram<f64>,
    row: usize,
    width: usize,
    vp: *const f64,
    acc: &mut [f64],
) {
    let terms = prog.poly_offsets[row] as usize..prog.poly_offsets[row + 1] as usize;
    // A *linear* row — every term exactly one factor, every exponent 1 —
    // is a dot product `Σ c_t · x_{v_t}`, the shape CSE leaves behind:
    // after the pair miner hoists shared products into slots, each DAG
    // output term is a single coefficient×slot multiply. Detecting it
    // here is one O(row) metadata scan per block (amortized over every
    // lane), and the specialized loop skips the per-term offset reads,
    // factor-loop control and exponent branches while performing the
    // identical per-lane multiply/add sequence — bit-identity holds.
    let linear = prog.term_offsets[terms.start..=terms.end]
        .windows(2)
        .all(|w| w[1] == w[0] + 1)
        && prog.exps[prog.term_offsets[terms.start] as usize
            ..prog.term_offsets[terms.end] as usize]
            .iter()
            .all(|&e| e == 1);
    if linear {
        return eval_row_linear(prog, terms, width, vp, acc);
    }
    let mut lane = 0;
    while lane + TILE <= width {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = a0;
        let mut a2 = a0;
        let mut a3 = a0;
        for t in terms.clone() {
            let c = prog.coeffs[t];
            let f0 = prog.term_offsets[t] as usize;
            let f1 = prog.term_offsets[t + 1] as usize;
            let mut t0 = _mm256_set1_pd(c);
            let mut t1 = t0;
            let mut t2 = t0;
            let mut t3 = t0;
            for f in f0..f1 {
                let base = prog.var_ids[f] as usize * width + lane;
                let (x0, x1, x2, x3) = load_tile(vp.add(base), prog.exps[f]);
                t0 = _mm256_mul_pd(t0, x0);
                t1 = _mm256_mul_pd(t1, x1);
                t2 = _mm256_mul_pd(t2, x2);
                t3 = _mm256_mul_pd(t3, x3);
            }
            a0 = _mm256_add_pd(a0, t0);
            a1 = _mm256_add_pd(a1, t1);
            a2 = _mm256_add_pd(a2, t2);
            a3 = _mm256_add_pd(a3, t3);
        }
        let ap = acc.as_mut_ptr().add(lane);
        _mm256_storeu_pd(ap, a0);
        _mm256_storeu_pd(ap.add(4), a1);
        _mm256_storeu_pd(ap.add(8), a2);
        _mm256_storeu_pd(ap.add(12), a3);
        lane += TILE;
    }
    // Ragged lanes, 4-wide first: a lone `ymm` accumulator covers all
    // but at most 3 lanes of a partial tile, so a 62-lane block
    // (1055-polynomial programs hit exactly this before the stream
    // rounding) is not mostly lane-at-a-time.
    while lane + 4 <= width {
        let mut a = _mm256_setzero_pd();
        for t in terms.clone() {
            let c = prog.coeffs[t];
            let f0 = prog.term_offsets[t] as usize;
            let f1 = prog.term_offsets[t + 1] as usize;
            let mut tv = _mm256_set1_pd(c);
            for f in f0..f1 {
                let base = prog.var_ids[f] as usize * width + lane;
                let x = load4(vp.add(base), prog.exps[f]);
                tv = _mm256_mul_pd(tv, x);
            }
            a = _mm256_add_pd(a, tv);
        }
        _mm256_storeu_pd(acc.as_mut_ptr().add(lane), a);
        lane += 4;
    }
    // Last <4 lanes: the identical per-lane chain in scalar form.
    for (off, slot) in acc[lane..width].iter_mut().enumerate() {
        let l = lane + off;
        let mut a = 0.0f64;
        for t in terms.clone() {
            let c = prog.coeffs[t];
            let f0 = prog.term_offsets[t] as usize;
            let f1 = prog.term_offsets[t + 1] as usize;
            let mut tv = c;
            for f in f0..f1 {
                let x = *vp.add(prog.var_ids[f] as usize * width + l);
                let e = prog.exps[f];
                tv *= if e == 1 { x } else { pow_f64(x, e) };
            }
            a += tv;
        }
        *slot = a;
    }
}

/// The dot-product specialization of [`eval_row`] for linear rows
/// (`Σ c_t · x_{v_t}`): term `t`'s lone factor sits at CSR position
/// `term_offsets[terms.start] + (t - terms.start)`, so the loop streams
/// `coeffs` and `var_ids` in lockstep with no per-term offset reads, no
/// factor-loop control and no exponent dispatch. Per lane the operation
/// chain is exactly the generic one — `term = c; term *= x; acc += term` —
/// so it stays bit-identical to the generic loop.
#[inline(always)]
unsafe fn eval_row_linear(
    prog: &EvalProgram<f64>,
    terms: std::ops::Range<usize>,
    width: usize,
    vp: *const f64,
    acc: &mut [f64],
) {
    let fbase = prog.term_offsets[terms.start] as usize;
    let vars = &prog.var_ids[fbase..fbase + terms.len()];
    let coeffs = &prog.coeffs[terms];
    let mut lane = 0;
    while lane + TILE <= width {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = a0;
        let mut a2 = a0;
        let mut a3 = a0;
        for (&c, &v) in coeffs.iter().zip(vars) {
            let p = vp.add(v as usize * width + lane);
            let x0 = _mm256_loadu_pd(p);
            let x1 = _mm256_loadu_pd(p.add(4));
            let x2 = _mm256_loadu_pd(p.add(8));
            let x3 = _mm256_loadu_pd(p.add(12));
            let cv = _mm256_set1_pd(c);
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(cv, x0));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(cv, x1));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(cv, x2));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(cv, x3));
        }
        let ap = acc.as_mut_ptr().add(lane);
        _mm256_storeu_pd(ap, a0);
        _mm256_storeu_pd(ap.add(4), a1);
        _mm256_storeu_pd(ap.add(8), a2);
        _mm256_storeu_pd(ap.add(12), a3);
        lane += TILE;
    }
    while lane + 4 <= width {
        let mut a = _mm256_setzero_pd();
        for (&c, &v) in coeffs.iter().zip(vars) {
            let x = _mm256_loadu_pd(vp.add(v as usize * width + lane));
            let cv = _mm256_set1_pd(c);
            a = _mm256_add_pd(a, _mm256_mul_pd(cv, x));
        }
        _mm256_storeu_pd(acc.as_mut_ptr().add(lane), a);
        lane += 4;
    }
    for (off, slot) in acc[lane..width].iter_mut().enumerate() {
        let l = lane + off;
        let mut a = 0.0f64;
        for (&c, &v) in coeffs.iter().zip(vars) {
            let x = *vp.add(v as usize * width + l);
            a += c * x;
        }
        *slot = a;
    }
}

/// Loads one 16-lane tile of a factor's lane vector, applying the
/// exponent through the register form of the shared [`pow_f64`] chain.
#[inline(always)]
unsafe fn load_tile(p: *const f64, e: u32) -> (__m256d, __m256d, __m256d, __m256d) {
    let x0 = _mm256_loadu_pd(p);
    let x1 = _mm256_loadu_pd(p.add(4));
    let x2 = _mm256_loadu_pd(p.add(8));
    let x3 = _mm256_loadu_pd(p.add(12));
    if e == 1 {
        (x0, x1, x2, x3)
    } else {
        (pow4(x0, e), pow4(x1, e), pow4(x2, e), pow4(x3, e))
    }
}

/// Loads one 4-lane vector of a factor's lane vector, applying the
/// exponent through the register form of the shared [`pow_f64`] chain.
#[inline(always)]
unsafe fn load4(p: *const f64, e: u32) -> __m256d {
    let x = _mm256_loadu_pd(p);
    if e == 1 {
        x
    } else {
        pow4(x, e)
    }
}

/// 4-wide [`pow_f64`]: the same LSB-first square-and-multiply chain per
/// lane, so exponentiation cannot break cross-kernel bit-identity.
#[inline(always)]
unsafe fn pow4(x: __m256d, e: u32) -> __m256d {
    let mut base = x;
    let mut e = e;
    let mut acc = _mm256_set1_pd(1.0);
    loop {
        if e & 1 == 1 {
            acc = _mm256_mul_pd(acc, base);
        }
        e >>= 1;
        if e == 0 {
            break;
        }
        base = _mm256_mul_pd(base, base);
    }
    acc
}
