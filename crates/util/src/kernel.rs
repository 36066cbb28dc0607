//! Batch-kernel dispatch: CPU-feature detection and the `COBRA_KERNEL`
//! override shared by every evaluation engine.
//!
//! The compiled `f64` batch kernel exists in two explicit flavours —
//! portable scalar (the auto-vectorized lane loops) and AVX2 — and the
//! exact path has a scaled-`i128` fixed-point twin. Which flavour runs is
//! decided **once per public entry point, on the calling thread**, by
//! [`current`]:
//!
//! 1. a [`with_target`] scope installed on the calling thread (race-free
//!    under concurrent tests, exactly like
//!    [`par::with_threads`](crate::par::with_threads)), then
//! 2. the `COBRA_KERNEL` environment variable (`auto` | `scalar`), then
//! 3. [`KernelTarget::Auto`].
//!
//! `Auto` on a CPU without AVX2 **silently resolves to scalar**, so the
//! same suite runs on any runner; tests that want to *assert* AVX2 ran
//! guard on [`avx2_available`]. The scalar and AVX2 kernels perform the
//! identical per-lane multiply/add sequence and are bit-identical by
//! construction — there is no kernel with a different rounding.
//!
//! ```
//! use cobra_util::kernel::{self, KernelTarget};
//!
//! // Scoped override: only dispatch decisions made by this thread see it.
//! let k = kernel::with_target(KernelTarget::Scalar, kernel::current);
//! assert_eq!(k, kernel::F64Kernel::Scalar);
//! ```

use std::cell::Cell;
use std::str::FromStr;

/// A *requested* dispatch target (what `COBRA_KERNEL` or a
/// [`with_target`] scope asks for). Resolution against the running CPU
/// happens in [`KernelTarget::resolve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelTarget {
    /// Pick the fastest kernel the CPU supports (AVX2 when available,
    /// else scalar).
    #[default]
    Auto,
    /// Force the portable scalar kernel and the plain `Rat` exact path
    /// (disables the scaled-`i128` fixed-point kernel too).
    Scalar,
}

impl KernelTarget {
    /// The canonical spelling accepted by `COBRA_KERNEL` and
    /// `cobra serve --kernel`.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelTarget::Auto => "auto",
            KernelTarget::Scalar => "scalar",
        }
    }

    /// Resolves this request against the running CPU: `Auto` without
    /// AVX2 silently degrades to [`F64Kernel::Scalar`].
    pub fn resolve(self) -> F64Kernel {
        match self {
            KernelTarget::Scalar => F64Kernel::Scalar,
            KernelTarget::Auto => {
                if avx2_available() {
                    F64Kernel::Avx2
                } else {
                    F64Kernel::Scalar
                }
            }
        }
    }

    /// Whether the exact path may use the scaled-`i128` fixed-point
    /// kernel under this target. `Scalar` pins the exact path to plain
    /// `Rat` arithmetic, giving tests a way to force (and diff against)
    /// the reference implementation.
    pub fn exact_fixed(self) -> bool {
        !matches!(self, KernelTarget::Scalar)
    }
}

impl std::fmt::Display for KernelTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelTarget {
    type Err = UnknownKernelTarget;

    fn from_str(s: &str) -> Result<KernelTarget, UnknownKernelTarget> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelTarget::Auto),
            "scalar" => Ok(KernelTarget::Scalar),
            _ => Err(UnknownKernelTarget(s.to_owned())),
        }
    }
}

/// Parse error for [`KernelTarget`]: the unrecognized input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownKernelTarget(pub String);

impl std::fmt::Display for UnknownKernelTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown kernel target {:?} (expected auto|scalar)",
            self.0
        )
    }
}

impl std::error::Error for UnknownKernelTarget {}

/// A *resolved* `f64` kernel — what actually runs after
/// [`KernelTarget::resolve`] checked the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum F64Kernel {
    /// Portable lane loops (LLVM auto-vectorized).
    Scalar,
    /// Explicit AVX2 mul+add — bit-identical to `Scalar`.
    Avx2,
}

impl F64Kernel {
    /// Human-readable name (reported by session/server stats).
    pub fn as_str(self) -> &'static str {
        match self {
            F64Kernel::Scalar => "scalar",
            F64Kernel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for F64Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Does the running CPU support AVX2?
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Does the running CPU support AVX2? (Not an x86-64 build: no.)
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}

/// Does the running CPU support FMA? A bare CPU probe for environment
/// records — no kernel uses fused multiply-add.
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// Does the running CPU support FMA? (Not an x86-64 build: no.)
#[cfg(not(target_arch = "x86_64"))]
pub fn fma_available() -> bool {
    false
}

thread_local! {
    /// Scoped target override installed by [`with_target`].
    static TARGET_OVERRIDE: Cell<Option<KernelTarget>> = const { Cell::new(None) };
}

/// The requested dispatch target. Resolution order: a [`with_target`]
/// scope on the calling thread, then `COBRA_KERNEL` (unparseable values
/// are ignored), then [`KernelTarget::Auto`].
pub fn target() -> KernelTarget {
    if let Some(t) = TARGET_OVERRIDE.with(Cell::get) {
        return t;
    }
    if let Ok(v) = std::env::var("COBRA_KERNEL") {
        if let Ok(t) = v.parse() {
            return t;
        }
    }
    KernelTarget::Auto
}

/// Runs `f` with [`target`] pinned to `t` **on the calling thread**
/// (nested scopes restore the previous value on exit, including on
/// panic). Unlike setting `COBRA_KERNEL`, this is race-free under
/// concurrent tests: every engine resolves its kernel on the thread that
/// entered it, before fanning work out to workers.
pub fn with_target<R>(t: KernelTarget, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelTarget>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TARGET_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TARGET_OVERRIDE.with(|c| c.replace(Some(t))));
    f()
}

/// The resolved `f64` kernel for the calling thread:
/// [`target`]`().`[`resolve`](KernelTarget::resolve)`()`.
pub fn current() -> F64Kernel {
    target().resolve()
}

/// Whether the exact path may use the scaled-`i128` fixed-point kernel
/// on the calling thread: [`target`]`().`
/// [`exact_fixed`](KernelTarget::exact_fixed)`()`.
pub fn exact_fixed_enabled() -> bool {
    target().exact_fixed()
}

/// `x`ⁿ by least-significant-bit-first binary exponentiation — the **one**
/// integer-power routine every `f64` evaluation path shares (the generic
/// scalar walk, the lane kernels, and the AVX2 kernels apply the same
/// square-and-multiply chain per lane), which is what makes exponentiated
/// programs bit-identical across kernels by construction.
#[inline]
pub fn pow_f64(x: f64, e: u32) -> f64 {
    match e {
        0 => 1.0,
        1 => x,
        _ => {
            let mut base = x;
            let mut e = e;
            let mut acc = 1.0f64;
            loop {
                if e & 1 == 1 {
                    acc *= base;
                }
                e >>= 1;
                if e == 0 {
                    break;
                }
                base *= base;
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_rejects() {
        for t in [KernelTarget::Auto, KernelTarget::Scalar] {
            assert_eq!(t.as_str().parse::<KernelTarget>().unwrap(), t);
        }
        assert_eq!(
            " Scalar ".parse::<KernelTarget>().unwrap(),
            KernelTarget::Scalar
        );
        // The retired forced-AVX2 and FMA spellings are rejected, not
        // remapped (case is folded before matching).
        for gone in ["avx2", "AVX2FMA", "avx2+fma", "fma", "neon"] {
            let err = gone.parse::<KernelTarget>().unwrap_err();
            assert!(err.to_string().contains("auto|scalar"), "{err}");
        }
    }

    #[test]
    fn with_target_scopes_and_restores() {
        let outer = target();
        let seen = with_target(KernelTarget::Scalar, || {
            assert_eq!(current(), F64Kernel::Scalar);
            assert!(!exact_fixed_enabled());
            with_target(KernelTarget::Auto, target)
        });
        assert_eq!(seen, KernelTarget::Auto);
        assert_eq!(target(), outer);
    }

    #[test]
    fn auto_resolves_to_avx2_iff_the_cpu_has_it() {
        let expect = if avx2_available() {
            F64Kernel::Avx2
        } else {
            F64Kernel::Scalar
        };
        assert_eq!(KernelTarget::Auto.resolve(), expect);
        assert_eq!(KernelTarget::Scalar.resolve(), F64Kernel::Scalar);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for e in 0u32..12 {
            for x in [0.0, 1.0, -1.5, 0.37, 2.0, -3.25] {
                let mut expect = 1.0f64;
                // Same LSB-first chain as pow_f64, written longhand.
                let (mut b, mut k) = (x, e);
                while k > 0 {
                    if k & 1 == 1 {
                        expect *= b;
                    }
                    k >>= 1;
                    if k > 0 {
                        b *= b;
                    }
                }
                assert_eq!(pow_f64(x, e).to_bits(), expect.to_bits(), "x={x} e={e}");
            }
        }
    }
}
