//! Explicit batch kernels behind runtime dispatch.
//!
//! The lane-blocked `f64` evaluation loop of [`crate::compile`] exists in
//! two explicit flavours, selected per entry point by
//! [`cobra_util::kernel`] (`COBRA_KERNEL`, runtime
//! `is_x86_feature_detected!`), and the exact path has a fixed-point twin:
//!
//! * `scalar` — the portable kernel (LLVM auto-vectorizes its lane
//!   loops); the reference every other kernel is diffed against.
//! * `avx2` — an explicit 4-wide AVX2 kernel that keeps each term's
//!   running product in registers across a 16-lane tile instead of
//!   round-tripping a term buffer through L1. It performs the
//!   **identical per-lane multiply/add sequence** as the scalar kernel,
//!   so its results are bit-identical.
//! * [`FixedProgram`] — a scaled-`i128` fixed-point twin of the exact
//!   `Rat` path: one common coefficient scale per program, one common
//!   denominator per scenario, pure integer inner loops, and a
//!   **deterministic per-scenario fallback** to plain `Rat` arithmetic
//!   whenever any intermediate would overflow.
//!
//! Every kernel consumes the same transposed lane block (`vals[v·width +
//! lane]`) prepared here, and every `f64` path shares
//! [`cobra_util::kernel::pow_f64`]'s square-and-multiply chain, which is
//! what makes cross-kernel bit-identity hold by construction rather than
//! by accident (pinned in `tests/kernel_diff.rs`).

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
mod fixed;
pub(crate) mod scalar;

pub use fixed::{FixedProgram, FixedScratch};

use crate::compile::EvalProgram;
use cobra_util::kernel::F64Kernel;

/// Reusable transpose/accumulator buffers for the `f64` lane kernels —
/// per-worker scratch so a streaming sweep evaluates millions of blocks
/// without re-allocating the block-local vectors each time. Sized lazily
/// on first use; a scratch can be shared across programs (it grows to
/// the largest block seen).
#[derive(Debug, Default)]
pub struct LaneScratch {
    vals: Vec<f64>,
    term: Vec<f64>,
    acc: Vec<f64>,
}

impl LaneScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> LaneScratch {
        LaneScratch::default()
    }
}

/// Evaluates one lane block (`rows.len()` scenarios) of `prog` into
/// `out` with the resolved kernel `kern`, reusing `scratch`. Per
/// scenario both kernels perform the identical multiply/add sequence,
/// so results depend neither on how scenarios were grouped into blocks
/// nor on which kernel ran.
pub(crate) fn eval_lane_block(
    kern: F64Kernel,
    prog: &EvalProgram<f64>,
    rows: &[Vec<f64>],
    out: &mut [f64],
    scratch: &mut LaneScratch,
) {
    let np = prog.num_polys();
    let nl = prog.num_locals();
    let ns = prog.num_slots();
    let width = rows.len();
    debug_assert_eq!(out.len(), width * np);
    // Transpose the block: vals[v * width + lane], so one term's factor
    // reads a contiguous lane vector per variable. A DAG program gets
    // `num_slots` extra lane vectors after the scenario variables; the
    // kernels stage each slot row's accumulator there before the rows
    // that reference it run. Every slot is written below (scenario
    // values here, slot vectors inside the kernels), so resizing without
    // zeroing is sound.
    scratch.vals.resize((nl + ns) * width, 0.0);
    scratch.term.resize(width, 0.0);
    scratch.acc.resize(width, 0.0);
    let (vals, term, acc) = (
        &mut scratch.vals[..(nl + ns) * width],
        &mut scratch.term[..width],
        &mut scratch.acc[..width],
    );
    for (lane, row) in rows.iter().enumerate() {
        for (v, &x) in row.iter().enumerate() {
            vals[v * width + lane] = x;
        }
    }
    match kern {
        F64Kernel::Scalar => scalar::eval_block(prog, width, vals, term, acc, out),
        // SAFETY: dispatch only resolves to the AVX2 kernel after
        // `is_x86_feature_detected!` confirmed the CPU supports it
        // (`cobra_util::kernel::KernelTarget::resolve`).
        #[cfg(target_arch = "x86_64")]
        F64Kernel::Avx2 => unsafe { avx2::eval_block(prog, width, vals, acc, out) },
        // Non-x86-64 builds can never resolve to the AVX2 kernel
        // (detection returns false), but the arm must still compile.
        #[cfg(not(target_arch = "x86_64"))]
        F64Kernel::Avx2 => scalar::eval_block(prog, width, vals, term, acc, out),
    }
}
