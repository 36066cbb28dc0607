//! # cobra-provenance
//!
//! Provenance polynomials and the semiring provenance model they specialize.
//!
//! COBRA's input is "a multiset of provenance polynomials … generated by any
//! provenance engine" (paper §2). This crate defines that input precisely:
//!
//! * [`var`] — provenance variables ([`Var`]) and the [`VarRegistry`]
//!   mapping them to human-readable names (`p1`, `m3`, `Business`, …).
//! * [`monomial`] — products of variables with exponents, kept canonical.
//! * [`poly`] — polynomials over a generic coefficient ring ([`Coeff`]:
//!   exact [`cobra_util::Rat`] for correctness, `f64` for the timing
//!   experiments), with ring operations, variable renaming (the abstraction
//!   step) and evaluation.
//! * [`valuation`] — assignments of values to variables, sparse and dense
//!   (the dense form is the fast path benchmarked for "assignment speedup").
//! * [`compile`] — the compiled batch evaluation engine: a [`PolySet`]
//!   lowered once into a flat CSR [`EvalProgram`], then evaluated for many
//!   scenarios at a time by [`BatchEvaluator`] (parallel across scenarios,
//!   lane-blocked `f64` fast path, exact `Rat` path for correctness).
//! * [`delta`] — term-level delta updates ([`PolyDelta`]) patching a
//!   [`PolySet`] in `O(touched monomials)`, with a structural /
//!   coefficient-only report driving targeted cache invalidation — the
//!   mutation path behind `CobraSession::apply_delta`.
//! * [`dag`] — algebraic compression: a rewrite pass (power-product CSE,
//!   shared-pair mining, Horner restructuring) that factors a flat
//!   program into a shared-subterm DAG program whose slot rows every
//!   kernel evaluates natively — the op-reduction axis orthogonal to
//!   cut-based abstraction.
//! * [`kernel`] — the explicit batch kernels behind that engine: the
//!   portable auto-vectorized lane kernel, its runtime-detected AVX2
//!   twin, and a scaled-`i128` fixed-point kernel for the exact path,
//!   selected per call by [`cobra_util::kernel`] (`COBRA_KERNEL`).
//! * [`polyset`] — named collections of polynomials: the provenance-aware
//!   query result (one polynomial per result tuple), with size statistics.
//! * [`semiring`] — the Green et al. (PODS'07) provenance-semiring
//!   framework: ℕ, Boolean lineage, Why(X), Trio, tropical, and ℕ\[X\]
//!   how-provenance, plus semiring homomorphisms. This is the general model
//!   that provenance polynomials instantiate; `cobra-engine` evaluates
//!   K-relations over any of these.
//! * [`parse`] — a text format for polynomial sets so COBRA can ingest
//!   provenance from *any* engine, per the paper's architecture (Fig. 4).
//! * [`persist`] — versioned, checksummed flat-file persistence for
//!   compiled programs, with zero-copy (mmap-aliasing) reload — the disk
//!   tier of the sweep server's session store.

pub mod compile;
pub mod dag;
pub mod delta;
pub mod kernel;
pub mod monomial;
pub mod parse;
pub mod persist;
pub mod poly;
pub mod polyset;
pub mod semiring;
pub mod stats;
pub mod valuation;
pub mod var;

pub use compile::{compile_f64, BatchEvaluator, BatchResults, EvalProgram, LaneScratch};
pub use dag::{DagBuild, DagOptions, DagStats};
pub use delta::{DeltaAction, DeltaError, DeltaOp, DeltaReport, PolyDelta};
pub use kernel::{FixedProgram, FixedScratch};
pub use monomial::Monomial;
pub use parse::{parse_poly, parse_polyset, ParseError};
pub use persist::{
    ArtifactReader, ArtifactWriter, EvalProgramRef, LoadedArtifact, PersistCoeff, PersistError,
};
pub use poly::{Coeff, Polynomial};
pub use polyset::PolySet;
pub use semiring::{Semiring, SemiringHom};
pub use stats::ProvenanceStats;
pub use valuation::{DenseValuation, Valuation};
pub use var::{Var, VarRegistry};
