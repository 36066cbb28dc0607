//! # cobra-util
//!
//! Support substrate for the COBRA reproduction. Everything here is
//! deliberately dependency-free so that data generation and arithmetic are
//! bit-for-bit reproducible across toolchains:
//!
//! * [`rational`] — exact rational arithmetic ([`Rat`]) used for provenance
//!   coefficients, so the paper's numbers (e.g. `208.8 = 522 × 0.4`) are
//!   reproduced without floating-point drift.
//! * [`intern`] — string interning ([`Symbol`], [`Interner`]) backing
//!   provenance variable names.
//! * [`hash`] — an Fx-style fast hasher for hot hash maps keyed by small
//!   integers/monomials (see the Rust Performance Book's hashing chapter).
//! * [`par`] — structured data-parallel helpers (scoped threads) used by
//!   the compiled batch evaluation engine; the offline stand-in for rayon.
//!   Worker panics are caught at span boundaries
//!   ([`par::try_par_owned_spans`]) so a failing worker cancels its
//!   siblings instead of aborting the process.
//! * [`cancel`] — the cooperative [`CancelToken`] sweep budgets and the
//!   panic-isolation path share.
//! * [`faults`] — the fault-injection test hooks (`COBRA_FAULTS`,
//!   [`faults::with_faults`]) that keep the robustness promises exercised;
//!   compiled to near-no-ops when disarmed.
//! * [`kernel`] — batch-kernel dispatch: runtime AVX2 feature
//!   detection, the `COBRA_KERNEL` override ([`kernel::with_target`]),
//!   and the shared [`kernel::pow_f64`] exponentiation chain that keeps
//!   every `f64` evaluation path bit-identical.
//! * [`remap`] — registry-scoped dense `global → local` id remapping
//!   ([`DenseRemap`]) backing allocation-free scenario binding in the
//!   compiled evaluation engine.
//! * [`rng`] — SplitMix64, a tiny deterministic RNG for workload generation.
//! * [`timing`] — wall-clock measurement helpers for the speedup experiments.
//! * [`table`] — plain-text/markdown table rendering for experiment reports.
//! * [`arcslice`] — shared slices ([`ArcSlice`]) over arbitrary owners,
//!   letting compiled programs alias memory-mapped persistence artifacts.
//! * [`mmap`] — dependency-free read-only memory mapping ([`MmapFile`])
//!   with an aligned-buffer fallback.
//! * [`framed`] — `u32`-length-prefixed frame I/O for the sweep server's
//!   wire protocol.

pub mod arcslice;
pub mod cancel;
pub mod faults;
pub mod framed;
pub mod hash;
pub mod intern;
pub mod kernel;
pub mod mmap;
pub mod par;
pub mod rational;
pub mod remap;
pub mod rng;
pub mod table;
pub mod timing;

pub use arcslice::ArcSlice;
pub use cancel::CancelToken;
pub use kernel::{F64Kernel, KernelTarget};
pub use mmap::{AlignedBytes, MmapFile};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use intern::{Interner, Symbol};
pub use rational::{ParseRatError, Rat};
pub use remap::DenseRemap;
pub use rng::SplitMix64;
pub use table::Table;
pub use timing::{time_best_of, time_once, Stopwatch};
