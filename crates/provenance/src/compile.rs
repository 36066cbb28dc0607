//! Compiled batch evaluation: CSR polynomial programs and scenario sweeps.
//!
//! COBRA's value proposition is that compressed provenance makes *repeated*
//! hypothetical evaluation cheap — the paper's headline metric is the
//! assignment speedup over many scenarios (§4). The tree-walking
//! [`Polynomial::eval_dense`](crate::Polynomial::eval_dense) path pays per-term pointer chasing (every
//! monomial is its own heap allocation) and a `powi` call per variable
//! occurrence on every scenario. This module lowers a whole [`PolySet`]
//! once into a flat **CSR program** and then amortizes that work across
//! arbitrarily many scenarios:
//!
//! * [`EvalProgram`] — contiguous coefficient / monomial-offset /
//!   variable-id / exponent arrays. Variables are remapped to a dense
//!   *local* index space (`0..num_locals`), so a scenario is a small flat
//!   table even when the global registry holds millions of variables.
//! * [`BatchEvaluator`] — evaluates many scenarios × many polynomials in
//!   one call, splitting scenarios across cores
//!   ([`cobra_util::par`]) and, on the `f64` fast path, blocking scenarios
//!   into SIMD-friendly lanes so the term loop vectorizes.
//!
//! The exact [`Rat`] path is retained for correctness
//! checks: `EvalProgram<Rat>` evaluation is term-for-term identical to
//! [`Polynomial::eval`](crate::Polynomial::eval). On the `f64` path the lane kernel performs the
//! same multiply/add sequence per scenario as `eval_dense`, so results are
//! bit-for-bit identical, not merely close.

use crate::kernel::{self, FixedProgram, FixedScratch};
use crate::monomial::Monomial;
use crate::poly::{Coeff, Polynomial};
use crate::polyset::PolySet;
use crate::valuation::Valuation;
use crate::var::Var;
use cobra_util::kernel::F64Kernel;
use cobra_util::{par, ArcSlice, DenseRemap, Rat};
use std::sync::{Arc, OnceLock};

pub use crate::kernel::LaneScratch;

/// Number of scenarios evaluated together by the `f64` lane kernels — one
/// parallel work item. 64 lanes keep the per-term working set (512 B per
/// accumulator vector) in L1 while the whole CSR program streams through
/// exactly once per block.
pub const LANES: usize = 64;


/// A [`PolySet`] lowered to flat CSR arrays for repeated evaluation.
///
/// Layout (all indices `u32`; a program is limited to 2³²−1 terms):
///
/// ```text
/// poly_offsets: [0 .. num_polys]  → term range of each polynomial
/// coeffs:       [0 .. num_terms]  → coefficient of each term
/// term_offsets: [0 .. num_terms]  → factor range of each term
/// var_ids:      [0 .. num_factors] → LOCAL variable id of each factor
/// exps:         [0 .. num_factors] → exponent of each factor
/// ```
///
/// The CSR arrays are [`ArcSlice`]s: normally backed by the `Vec`s the
/// compiler produced, but a program loaded from a persisted artifact
/// ([`crate::persist`]) aliases the memory-mapped file directly — no
/// re-allocation, cold-start cost is page faults.
///
/// ## Shared-subterm slots
///
/// A program produced by the DAG rewriter ([`crate::dag`]) carries
/// `num_slots > 0` extra CSR rows *after* the output rows: row
/// `num_polys + s` defines slot `s`, a named intermediate other rows
/// reference through the extended variable index space
/// `num_locals + s`. Slots are topologically ordered (a slot only
/// references earlier slots), so every evaluation path computes the
/// slot rows first and then the output rows — slots are just extra
/// lanes, and the observable surface (`num_polys`, `labels`, binding
/// width `num_locals`) is identical to the flat program's.
#[derive(Clone, Debug)]
pub struct EvalProgram<C: Coeff> {
    /// Result-tuple labels. Labels and the two variable tables are shared
    /// (`Arc`) by a program, its coefficient patches and its `f64` shadow.
    pub(crate) labels: Arc<[String]>,
    pub(crate) poly_offsets: ArcSlice<u32>,
    pub(crate) coeffs: ArcSlice<C>,
    pub(crate) term_offsets: ArcSlice<u32>,
    pub(crate) var_ids: ArcSlice<u32>,
    pub(crate) exps: ArcSlice<u32>,
    /// Local index → global variable.
    pub(crate) locals: Arc<[Var]>,
    /// Shared-subterm rows appended after the output rows (0 for a flat
    /// program; see the type-level docs).
    pub(crate) num_slots: usize,
    /// Global variable → local index: a registry-scoped dense table, so
    /// lookups are one indexed load and binding performs no hashing.
    pub(crate) local_of: Arc<DenseRemap>,
    /// Lazily-prepared fixed-point twin of an exact program (`None` once
    /// initialized if the program does not fit the fixed-point guards).
    /// Only meaningful for `C = Rat`; see
    /// [`fixed_program`](EvalProgram::fixed_program).
    fixed: OnceLock<Option<Arc<FixedProgram>>>,
}

impl<C: Coeff> EvalProgram<C> {
    /// Lowers a polynomial set. Variables are numbered in first-occurrence
    /// order (deterministic for a canonical set).
    pub fn compile(set: &PolySet<C>) -> EvalProgram<C> {
        let mut labels = Vec::with_capacity(set.len());
        let mut poly_offsets = Vec::with_capacity(set.len() + 1);
        let mut coeffs = Vec::new();
        let mut term_offsets = vec![0u32];
        let mut var_ids = Vec::new();
        let mut exps = Vec::new();
        let mut locals = Vec::new();
        let mut local_of = DenseRemap::new();

        poly_offsets.push(0);
        for (label, poly) in set.iter() {
            labels.push(label.to_owned());
            for (m, c) in poly.iter() {
                coeffs.push(c.clone());
                for (v, e) in m.iter() {
                    let (local, fresh) = local_of.get_or_insert(v.0);
                    if fresh {
                        locals.push(v);
                    }
                    var_ids.push(local);
                    exps.push(e);
                }
                term_offsets.push(
                    u32::try_from(var_ids.len())
                        .expect("EvalProgram limited to u32::MAX factors"),
                );
            }
            poly_offsets.push(
                u32::try_from(coeffs.len()).expect("EvalProgram limited to u32::MAX terms"),
            );
        }

        EvalProgram {
            labels: labels.into(),
            poly_offsets: poly_offsets.into(),
            coeffs: coeffs.into(),
            term_offsets: term_offsets.into(),
            var_ids: var_ids.into(),
            exps: exps.into(),
            locals: locals.into(),
            local_of: Arc::new(local_of),
            num_slots: 0,
            fixed: OnceLock::new(),
        }
    }

    /// A program over this one's labels and variable tables with the given
    /// CSR rows — the constructor the DAG rewriter ([`crate::dag`]) emits
    /// its slot rows through. The caller guarantees CSR consistency and
    /// topological slot order.
    pub(crate) fn with_rows(
        &self,
        poly_offsets: Vec<u32>,
        coeffs: Vec<C>,
        term_offsets: Vec<u32>,
        var_ids: Vec<u32>,
        exps: Vec<u32>,
        num_slots: usize,
    ) -> EvalProgram<C> {
        debug_assert_eq!(poly_offsets.len(), self.labels.len() + num_slots + 1);
        EvalProgram {
            labels: self.labels.clone(),
            poly_offsets: poly_offsets.into(),
            coeffs: coeffs.into(),
            term_offsets: term_offsets.into(),
            var_ids: var_ids.into(),
            exps: exps.into(),
            locals: self.locals.clone(),
            local_of: self.local_of.clone(),
            num_slots,
            fixed: OnceLock::new(),
        }
    }

    /// Reassembles a program from persisted parts: owned labels/locals and
    /// (possibly file-backed) CSR slices. The `local_of` remap is rebuilt
    /// from `locals`, which lists globals in local-index order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_persisted_parts(
        labels: Vec<String>,
        poly_offsets: ArcSlice<u32>,
        coeffs: ArcSlice<C>,
        term_offsets: ArcSlice<u32>,
        var_ids: ArcSlice<u32>,
        exps: ArcSlice<u32>,
        locals: Vec<Var>,
        num_slots: usize,
    ) -> EvalProgram<C> {
        let local_of: DenseRemap = locals.iter().map(|v| v.0).collect();
        EvalProgram {
            labels: labels.into(),
            poly_offsets,
            coeffs,
            term_offsets,
            var_ids,
            exps,
            locals: locals.into(),
            local_of: Arc::new(local_of),
            num_slots,
            fixed: OnceLock::new(),
        }
    }

    /// The CSR arrays in persistence order, for the [`crate::persist`]
    /// encoder: `(poly_offsets, coeffs, term_offsets, var_ids, exps)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn csr_parts(&self) -> (&[u32], &[C], &[u32], &[u32], &[u32]) {
        (
            &self.poly_offsets,
            &self.coeffs,
            &self.term_offsets,
            &self.var_ids,
            &self.exps,
        )
    }

    /// Reconstructs the canonical [`PolySet`] this program was compiled
    /// from. [`compile`](Self::compile) iterates the set in its canonical
    /// order, so `compile(&prog.decompile())` reproduces `prog`'s CSR
    /// arrays exactly — the property session re-hydration relies on to
    /// re-plan compressions from a persisted program alone.
    ///
    /// # Panics
    /// Panics on a DAG program (`num_slots > 0`): slot rows are a derived
    /// evaluation artifact, not part of any canonical set — decompile the
    /// flat source program instead.
    pub fn decompile(&self) -> PolySet<C> {
        assert_eq!(self.num_slots, 0, "cannot decompile a DAG program");
        let mut set = PolySet::new();
        for (p, label) in self.labels.iter().enumerate() {
            let terms = self.poly_offsets[p] as usize..self.poly_offsets[p + 1] as usize;
            let poly = Polynomial::from_terms(terms.map(|t| {
                let factors =
                    self.term_offsets[t] as usize..self.term_offsets[t + 1] as usize;
                let m = Monomial::from_pairs(
                    factors.map(|f| (self.locals[self.var_ids[f] as usize], self.exps[f])),
                );
                (m, self.coeffs[t].clone())
            }));
            set.push(label, poly);
        }
        set
    }

    /// This program with the rows of the polynomials in `rows` replaced —
    /// `(index, polynomial)` pairs, sorted by index and deduplicated: the
    /// one patch a delta applies to a compiled program, on the full side
    /// of a session and on its compressed side alike.
    ///
    /// * When every replaced row keeps its monomials — compared monomial
    ///   by monomial against the CSR row, not by count — only the
    ///   coefficient array is new. Labels, offsets, factor ids, exponents
    ///   and the variable tables are `O(1)` shared clones
    ///   ([`shares_shape`](Self::shares_shape)), and the result is the
    ///   program a fresh [`compile`](Self::compile) of the patched set
    ///   produces.
    /// * Otherwise the CSR rows of the other polynomials are spliced over
    ///   verbatim (straight `memcpy`s, no per-factor interning or hashing)
    ///   and the replaced rows are re-emitted from their canonical term
    ///   lists. New variables are appended to the local space *after*
    ///   every existing local, so the result can differ from a fresh
    ///   compile in local numbering — but local ids only select binding
    ///   slots. Per-term factor order still follows each monomial's
    ///   canonical order and per-polynomial term order the canonical term
    ///   list, so every evaluation path produces **bit-identical** answers
    ///   to the freshly compiled program, and
    ///   [`decompile`](Self::decompile) returns exactly the patched set.
    ///
    /// # Panics
    /// Panics on a polynomial index out of range, or on a DAG program
    /// (`num_slots > 0`) — deltas patch the flat program; DAG programs are
    /// rewritten from the patched flat source.
    pub fn patched(&self, rows: &[(usize, &Polynomial<C>)]) -> EvalProgram<C> {
        assert_eq!(self.num_slots, 0, "cannot patch a DAG program");
        debug_assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "patched rows must be sorted and deduplicated"
        );
        assert!(
            rows.last().is_none_or(|&(p, _)| p < self.num_polys()),
            "patched row out of range"
        );
        if rows.iter().all(|&(p, poly)| self.row_has_monomials(p, poly)) {
            let mut coeffs = self.coeffs.to_vec();
            for &(p, poly) in rows {
                let t0 = self.poly_offsets[p] as usize;
                for (k, (_, c)) in poly.iter().enumerate() {
                    coeffs[t0 + k] = c.clone();
                }
            }
            return EvalProgram {
                coeffs: coeffs.into(),
                fixed: OnceLock::new(),
                ..self.clone()
            };
        }
        let mut poly_offsets = Vec::with_capacity(self.poly_offsets.len());
        let mut coeffs: Vec<C> = Vec::with_capacity(self.coeffs.len());
        let mut term_offsets: Vec<u32> = Vec::with_capacity(self.term_offsets.len());
        let mut var_ids: Vec<u32> = Vec::with_capacity(self.var_ids.len());
        let mut exps: Vec<u32> = Vec::with_capacity(self.exps.len());
        let mut locals = self.locals.to_vec();
        let mut local_of = (*self.local_of).clone();

        poly_offsets.push(0);
        term_offsets.push(0);
        let mut rows = rows.iter().peekable();
        for p in 0..self.num_polys() {
            if let Some(&(_, poly)) = rows.next_if(|&&(q, _)| q == p) {
                // Re-emit the replaced polynomial from its canonical terms.
                for (m, c) in poly.iter() {
                    coeffs.push(c.clone());
                    for (v, e) in m.iter() {
                        let (local, fresh) = local_of.get_or_insert(v.0);
                        if fresh {
                            locals.push(v);
                        }
                        var_ids.push(local);
                        exps.push(e);
                    }
                    term_offsets.push(
                        u32::try_from(var_ids.len())
                            .expect("EvalProgram limited to u32::MAX factors"),
                    );
                }
            } else {
                // Splice the other rows: factor data verbatim, term
                // offsets rebased onto the new factor array.
                let t0 = self.poly_offsets[p] as usize;
                let t1 = self.poly_offsets[p + 1] as usize;
                coeffs.extend_from_slice(&self.coeffs[t0..t1]);
                let f0 = self.term_offsets[t0] as usize;
                let f1 = self.term_offsets[t1] as usize;
                let base = var_ids.len();
                var_ids.extend_from_slice(&self.var_ids[f0..f1]);
                exps.extend_from_slice(&self.exps[f0..f1]);
                for t in t0..t1 {
                    let rebased = base + (self.term_offsets[t + 1] as usize - f0);
                    term_offsets.push(
                        u32::try_from(rebased)
                            .expect("EvalProgram limited to u32::MAX factors"),
                    );
                }
            }
            poly_offsets.push(
                u32::try_from(coeffs.len()).expect("EvalProgram limited to u32::MAX terms"),
            );
        }

        EvalProgram {
            labels: self.labels.clone(),
            poly_offsets: poly_offsets.into(),
            coeffs: coeffs.into(),
            term_offsets: term_offsets.into(),
            var_ids: var_ids.into(),
            exps: exps.into(),
            locals: locals.into(),
            local_of: Arc::new(local_of),
            num_slots: 0,
            fixed: OnceLock::new(),
        }
    }

    /// [`patched`](Self::patched) for a coefficient-only delta to a whole
    /// set: the rows of the `touched` polynomials (sorted, deduplicated
    /// indices) read from `set`.
    ///
    /// # Panics
    /// Panics if `set`'s polynomial count differs, or a touched
    /// polynomial's monomial set changed (a structural delta routed down
    /// the coefficient-only path), or as [`patched`](Self::patched) does.
    pub fn patched_coeffs(&self, set: &PolySet<C>, touched: &[usize]) -> EvalProgram<C> {
        assert_eq!(
            set.len(),
            self.num_polys(),
            "patched set must keep the polynomial count"
        );
        let rows: Vec<_> = touched
            .iter()
            .map(|&p| (p, set.poly(p).expect("touched index in range")))
            .collect();
        let patched = self.patched(&rows);
        assert!(
            patched.shares_shape(self),
            "coefficient-only patch requires an unchanged monomial set"
        );
        patched
    }

    /// Whether CSR row `p` holds exactly `poly`'s monomials, in order.
    fn row_has_monomials(&self, p: usize, poly: &Polynomial<C>) -> bool {
        let terms = self.poly_offsets[p] as usize..self.poly_offsets[p + 1] as usize;
        terms.len() == poly.num_terms()
            && terms.zip(poly.iter()).all(|(t, (m, _))| {
                let factors = self.term_offsets[t] as usize..self.term_offsets[t + 1] as usize;
                factors.len() == m.num_vars()
                    && factors.zip(m.iter()).all(|(f, (v, e))| {
                        self.local_of.get(v.0) == Some(self.var_ids[f]) && self.exps[f] == e
                    })
            })
    }

    /// Whether `other` shares every shape array (offsets, factor ids,
    /// exponents) with this program — the same allocations, not equal
    /// copies: true of a coefficient-only [`patched`](Self::patched)
    /// program and its source, and of an exact program and its `f64`
    /// shadow.
    pub fn shares_shape<D: Coeff>(&self, other: &EvalProgram<D>) -> bool {
        fn same<T>(a: &ArcSlice<T>, b: &ArcSlice<T>) -> bool {
            a.as_ptr() == b.as_ptr() && a.len() == b.len()
        }
        same(&self.poly_offsets, &other.poly_offsets)
            && same(&self.term_offsets, &other.term_offsets)
            && same(&self.var_ids, &other.var_ids)
            && same(&self.exps, &other.exps)
    }

    /// Number of polynomials.
    pub fn num_polys(&self) -> usize {
        self.labels.len()
    }

    /// Number of shared-subterm slot rows (0 for a flat program).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of terms (monomials) across all rows, slot rows included.
    pub fn num_terms(&self) -> usize {
        self.coeffs.len()
    }

    /// Number of distinct variables referenced by the program.
    pub fn num_locals(&self) -> usize {
        self.locals.len()
    }

    /// Result-tuple labels, in program order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The global variables referenced, in local-index order.
    pub fn vars(&self) -> &[Var] {
        &self.locals
    }

    /// Local index of a global variable, if it occurs in the program.
    pub fn local_of(&self, v: Var) -> Option<u32> {
        self.local_of.get(v.0)
    }

    /// Compiles a sparse valuation into a scenario row (`num_locals`
    /// values, local-index order).
    ///
    /// # Errors
    /// Returns the first program variable the valuation does not cover.
    pub fn bind(&self, val: &Valuation<C>) -> Result<Vec<C>, Var> {
        let mut row = vec![C::zero(); self.num_locals()];
        self.bind_into(val, &mut row)?;
        Ok(row)
    }

    /// [`bind`](Self::bind) into a caller-provided row buffer — the
    /// allocation-free path scenario sweeps stream rows through.
    ///
    /// # Errors
    /// Returns the first program variable the valuation does not cover.
    ///
    /// # Panics
    /// Panics if `row.len() != num_locals()`.
    pub fn bind_into(&self, val: &Valuation<C>, row: &mut [C]) -> Result<(), Var> {
        assert_eq!(row.len(), self.num_locals(), "scenario row width");
        for (slot, &v) in row.iter_mut().zip(self.locals.iter()) {
            *slot = val.get(v).ok_or(v)?;
        }
        Ok(())
    }

    /// Evaluates every polynomial for one scenario row into `out`
    /// (`num_polys` values). Term-for-term the same operation order as
    /// [`Polynomial::eval_dense`](crate::Polynomial::eval_dense), so exact
    /// rings give identical results.
    ///
    /// # Panics
    /// Panics if `scenario.len() != num_locals()` or
    /// `out.len() != num_polys()`.
    pub fn eval_scenario_into(&self, scenario: &[C], out: &mut [C]) {
        assert_eq!(scenario.len(), self.num_locals(), "scenario row width");
        assert_eq!(out.len(), self.num_polys(), "output row width");
        if self.num_slots == 0 {
            for (p, slot) in out.iter_mut().enumerate() {
                *slot = self.eval_row(p, scenario);
            }
            return;
        }
        // DAG path: stage the slot values after the scenario values, in
        // the extended variable index space the slot rows were emitted
        // against, then evaluate the output rows over the staged table.
        let np = self.num_polys();
        let mut ext: Vec<C> = Vec::with_capacity(scenario.len() + self.num_slots);
        ext.extend_from_slice(scenario);
        for s in 0..self.num_slots {
            let v = self.eval_row(np + s, &ext);
            ext.push(v);
        }
        for (p, slot) in out.iter_mut().enumerate() {
            *slot = self.eval_row(p, &ext);
        }
    }

    /// One CSR row (output or slot) over a value table indexed by the
    /// extended variable space — term-for-term the operation order of the
    /// original flat walk, so flat programs are bit-unchanged.
    fn eval_row(&self, row: usize, vals: &[C]) -> C {
        let mut acc = C::zero();
        let terms = self.poly_offsets[row] as usize..self.poly_offsets[row + 1] as usize;
        for t in terms {
            let mut term = self.coeffs[t].clone();
            let factors = self.term_offsets[t] as usize..self.term_offsets[t + 1] as usize;
            for f in factors {
                let x = &vals[self.var_ids[f] as usize];
                term = term.mul(&x.pow(self.exps[f]));
            }
            acc = acc.add(&term);
        }
        acc
    }

    /// Static count of `f64` multiplications one scenario evaluation of
    /// this program performs, slot rows included: per factor one multiply
    /// into the running term plus the square-and-multiply chain of its
    /// exponent (`⌊log₂ e⌋` squarings and `popcount(e) − 1` odd-bit
    /// multiplies — the exact cost of the shared
    /// [`pow_f64`](cobra_util::kernel::pow_f64) chain). The DAG rewriter's
    /// op-reduction ratio is `flat.multiply_ops() / dag.multiply_ops()`.
    pub fn multiply_ops(&self) -> u64 {
        self.exps
            .iter()
            .map(|&e| {
                if e <= 1 {
                    1
                } else {
                    1 + (31 - e.leading_zeros()) as u64 + (e.count_ones() - 1) as u64
                }
            })
            .sum()
    }

    /// Evaluates every polynomial for one scenario row.
    pub fn eval_scenario(&self, scenario: &[C]) -> Vec<C> {
        let mut out = vec![C::zero(); self.num_polys()];
        self.eval_scenario_into(scenario, &mut out);
        out
    }
}

impl EvalProgram<Rat> {
    /// Converts an exact program into its `f64` counterpart (same shape and
    /// variable numbering, approximate coefficients).
    pub fn to_f64_program(&self) -> EvalProgram<f64> {
        let coeffs: Vec<f64> = self.coeffs.iter().map(|c| c.to_f64()).collect();
        self.with_f64_coeffs(coeffs.into())
    }

    /// The `f64` program over this program's shape with one coefficient
    /// per term: every shape array, label and variable table is shared.
    pub(crate) fn with_f64_coeffs(&self, coeffs: ArcSlice<f64>) -> EvalProgram<f64> {
        assert_eq!(coeffs.len(), self.coeffs.len(), "one coefficient per term");
        EvalProgram {
            labels: self.labels.clone(),
            poly_offsets: self.poly_offsets.clone(),
            coeffs,
            term_offsets: self.term_offsets.clone(),
            var_ids: self.var_ids.clone(),
            exps: self.exps.clone(),
            locals: self.locals.clone(),
            local_of: self.local_of.clone(),
            num_slots: self.num_slots,
            fixed: OnceLock::new(),
        }
    }

    /// The `f64` shadow of this program derived from `prev`, the shadow of
    /// the program this one was [`patched`](Self::patched) from: `prev`'s
    /// coefficients with the `touched` polynomials' rows re-converted
    /// (`Rat::to_f64` per coefficient, so bit-identical to
    /// [`to_f64_program`](Self::to_f64_program)). `touched` must name
    /// every row the patch replaced. `None` unless the patch kept every
    /// shape array ([`shares_shape`](Self::shares_shape)) — a spliced
    /// program needs a fresh conversion.
    pub fn patched_f64(
        &self,
        prev: &EvalProgram<f64>,
        touched: &[usize],
    ) -> Option<EvalProgram<f64>> {
        if !self.shares_shape(prev) {
            return None;
        }
        let mut coeffs = prev.coeffs.to_vec();
        for &p in touched {
            let terms = self.poly_offsets[p] as usize..self.poly_offsets[p + 1] as usize;
            for t in terms {
                coeffs[t] = self.coeffs[t].to_f64();
            }
        }
        Some(EvalProgram {
            coeffs: coeffs.into(),
            ..prev.clone()
        })
    }

    /// The scaled-`i128` fixed-point twin of this exact program, prepared
    /// lazily on first use and cached for the program's lifetime. `None`
    /// when the program does not fit the fixed-point guards (coefficient
    /// scale overflows `i128` or a term's degree exceeds the table cap) —
    /// such programs simply evaluate through the plain `Rat` kernel.
    /// DAG programs (`num_slots > 0`) never lower — their exact path is
    /// the slot-aware `Rat` walk, which keeps the fixed kernel's overflow
    /// pre-check sound without modelling staged slot magnitudes.
    pub fn fixed_program(&self) -> Option<&FixedProgram> {
        self.fixed
            .get_or_init(|| {
                if self.num_slots > 0 {
                    None
                } else {
                    FixedProgram::prepare(self).map(Arc::new)
                }
            })
            .as_deref()
    }

    /// One exact scenario through the kernel dispatch: the scaled
    /// fixed-point kernel when `use_fixed` (the caller's resolved
    /// [`exact_fixed_enabled`](cobra_util::kernel::exact_fixed_enabled)
    /// choice) and this program lowers, the plain `Rat` term walk
    /// otherwise — including the per-scenario overflow fallback, so the
    /// output is representation-identical either way. This is the
    /// single-row sibling of [`BatchEvaluator::eval_batch_exact_into`];
    /// the `f64` sweep engines use it for their divergence probes.
    ///
    /// # Panics
    /// Panics if `row.len() != num_locals()` or
    /// `out.len() != num_polys()`.
    pub fn eval_scenario_exact_with(
        &self,
        use_fixed: bool,
        row: &[Rat],
        out: &mut [Rat],
        scratch: &mut FixedScratch,
    ) {
        if use_fixed {
            if let Some(fp) = self.fixed_program() {
                if fp.eval_scenario_into(self, row, out, scratch) {
                    return;
                }
            }
        }
        self.eval_scenario_into(row, out);
    }
}

impl EvalProgram<f64> {
    /// The absolute-value shadow of this program: same shape and variable
    /// numbering, every coefficient replaced by its magnitude. Evaluated
    /// on the elementwise absolute values `|x|` of a scenario row it
    /// computes `Σ_j |c_j| Π |x|^e` per polynomial — the condition-number
    /// numerator a Higham-style a-priori rounding bound multiplies by
    /// `γ_k` (see [`rounding_op_counts`](Self::rounding_op_counts)).
    pub fn to_abs_program(&self) -> EvalProgram<f64> {
        EvalProgram {
            coeffs: self.coeffs.iter().map(|c| c.abs()).collect::<Vec<_>>().into(),
            ..self.clone()
        }
    }

    /// A per-polynomial upper bound `k_p` on the number of f64 roundings
    /// along any computation path of the evaluation kernels, for use in
    /// the standard a-priori bound `|computed − exact| ≤ γ_{k_p} · Σ_j
    /// |c_j| Π |x|^e` with `γ_k = k·u/(1−k·u)` (Higham, *Accuracy and
    /// Stability of Numerical Algorithms*, §3.1). Deliberately a safe
    /// overcount: `terms + 1` (the additions plus the one rounding each
    /// coefficient suffered when converted from its exact value) plus the
    /// worst term's factor cost, where a factor with exponent `e` is
    /// charged `2·bits(e) + 1` multiplications (covers both the `e == 1`
    /// fast path and `powi`'s square-and-multiply chain). An empty
    /// polynomial evaluates exactly and gets `k_p = 0`.
    ///
    /// On a DAG program the bound is computed over the slot graph: a slot
    /// row first receives its own `k_s` by the same per-row formula, and a
    /// factor referencing slot `s` with exponent `e` additionally inherits
    /// `e · k_s` (the slot's relative error enters once per multiplied
    /// copy, by the standard `(1+θ_a)(1+θ_b) = 1+θ_{a+b}` composition).
    /// Only the `num_polys` output-row bounds are returned, so the Higham
    /// shadow machinery is oblivious to whether a program is flat or DAG.
    pub fn rounding_op_counts(&self) -> Vec<u32> {
        let np = self.num_polys();
        let nl = self.num_locals();
        let mut slot_k = vec![0u32; self.num_slots];
        let row_k = |row: usize, slot_k: &[u32]| -> u32 {
            let terms = self.poly_offsets[row] as usize..self.poly_offsets[row + 1] as usize;
            let num_terms = terms.len() as u32;
            if num_terms == 0 {
                return 0;
            }
            let worst_term = terms
                .map(|t| {
                    let factors =
                        self.term_offsets[t] as usize..self.term_offsets[t + 1] as usize;
                    factors
                        .map(|f| {
                            let e = self.exps[f];
                            let chain = 2 * (32 - e.leading_zeros()) + 1;
                            let src = self.var_ids[f] as usize;
                            let inherited = if src >= nl {
                                e.saturating_mul(slot_k[src - nl])
                            } else {
                                0
                            };
                            chain.saturating_add(inherited)
                        })
                        .fold(0u32, u32::saturating_add)
                })
                .max()
                .unwrap_or(0);
            (num_terms + 1).saturating_add(worst_term)
        };
        for s in 0..self.num_slots {
            slot_k[s] = row_k(np + s, &slot_k);
        }
        (0..np).map(|p| row_k(p, &slot_k)).collect()
    }
}

/// Result matrix of a batch evaluation: `num_scenarios × num_polys`,
/// scenario-major.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchResults<C> {
    values: Vec<C>,
    num_polys: usize,
    num_scenarios: usize,
}

impl<C> BatchResults<C> {
    /// Number of evaluated scenarios.
    pub fn num_scenarios(&self) -> usize {
        self.num_scenarios
    }

    /// Number of polynomials per scenario.
    pub fn num_polys(&self) -> usize {
        self.num_polys
    }

    /// All results of one scenario, in program (label) order.
    pub fn row(&self, scenario: usize) -> &[C] {
        &self.values[scenario * self.num_polys..(scenario + 1) * self.num_polys]
    }

    /// One result value.
    pub fn get(&self, scenario: usize, poly: usize) -> &C {
        &self.values[scenario * self.num_polys + poly]
    }

    /// Iterates scenario rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[C]> {
        (0..self.num_scenarios).map(|s| self.row(s))
    }

    /// The flat scenario-major value buffer.
    pub fn into_values(self) -> Vec<C> {
        self.values
    }
}

/// Evaluates many scenarios × many polynomials in one call over a compiled
/// [`EvalProgram`], in parallel across scenarios.
///
/// The program is held behind an [`Arc`], so cloning an evaluator (e.g. to
/// cache a session-invariant full-provenance program across compressions)
/// shares the CSR arrays instead of copying them.
#[derive(Clone, Debug)]
pub struct BatchEvaluator<C: Coeff> {
    program: Arc<EvalProgram<C>>,
}

impl<C: Coeff + Send + Sync> BatchEvaluator<C> {
    /// Wraps a compiled program.
    pub fn new(program: EvalProgram<C>) -> BatchEvaluator<C> {
        BatchEvaluator {
            program: Arc::new(program),
        }
    }

    /// Wraps an already-shared program without copying it.
    pub fn from_shared(program: Arc<EvalProgram<C>>) -> BatchEvaluator<C> {
        BatchEvaluator { program }
    }

    /// Compiles and wraps in one step.
    pub fn compile(set: &PolySet<C>) -> BatchEvaluator<C> {
        Self::new(EvalProgram::compile(set))
    }

    /// The underlying program.
    pub fn program(&self) -> &EvalProgram<C> {
        &self.program
    }

    /// The shared handle to the underlying program.
    pub fn shared_program(&self) -> Arc<EvalProgram<C>> {
        Arc::clone(&self.program)
    }

    /// Binds many sparse valuations into scenario rows.
    ///
    /// # Errors
    /// Returns the first uncovered variable of the first offending scenario.
    pub fn bind_all(&self, vals: &[Valuation<C>]) -> Result<Vec<Vec<C>>, Var> {
        vals.iter().map(|v| self.program.bind(v)).collect()
    }

    /// Evaluates every scenario row (generic scalar kernel, parallel across
    /// scenarios). This is the exact path for `Rat` programs.
    ///
    /// # Panics
    /// Panics if any row's width differs from `num_locals()`.
    pub fn eval_batch(&self, scenarios: &[Vec<C>]) -> BatchResults<C> {
        let np = self.program.num_polys();
        let mut values = vec![C::zero(); scenarios.len() * np];
        self.eval_batch_into(scenarios, &mut values);
        BatchResults {
            values,
            num_polys: np,
            num_scenarios: scenarios.len(),
        }
    }

    /// [`eval_batch`](Self::eval_batch) into a caller-provided
    /// scenario-major output buffer (`scenarios.len() × num_polys`) —
    /// the allocation-free path block-streamed sweeps use.
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_into(&self, scenarios: &[Vec<C>], out: &mut [C]) {
        let np = self.program.num_polys();
        assert_eq!(out.len(), scenarios.len() * np, "output buffer size");
        if np > 0 {
            par::par_chunks_mut(out, np, |s, row| {
                self.program.eval_scenario_into(&scenarios[s], row);
            });
        }
    }

    /// [`eval_batch_into`](Self::eval_batch_into) **without** the internal
    /// scenario-parallel dispatch: a plain serial loop over the rows. The
    /// parallel fold engines call this from their own worker threads —
    /// each worker already owns a disjoint scenario span, so spawning
    /// nested threads per block would only oversubscribe the cores.
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_serial_into(&self, scenarios: &[Vec<C>], out: &mut [C]) {
        let np = self.program.num_polys();
        assert_eq!(out.len(), scenarios.len() * np, "output buffer size");
        if np == 0 {
            return;
        }
        for (row, out) in scenarios.iter().zip(out.chunks_exact_mut(np)) {
            self.program.eval_scenario_into(row, out);
        }
    }
}

impl BatchEvaluator<Rat> {
    /// [`eval_batch_into`](Self::eval_batch_into) through the exact-path
    /// kernel dispatch: scenarios whose intermediates fit the
    /// scaled-`i128` fixed-point kernel ([`FixedProgram`]) are evaluated
    /// in pure integer arithmetic, the rest fall back — per scenario,
    /// deterministically — to the generic `Rat` walk. Both kernels
    /// produce the identical canonical rationals, so the split is
    /// unobservable in the results. `COBRA_KERNEL=scalar` (or a scoped
    /// [`cobra_util::kernel::with_target`], resolved on the calling
    /// thread) disables the fixed kernel entirely.
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_exact_into(&self, scenarios: &[Vec<Rat>], out: &mut [Rat]) {
        let np = self.program.num_polys();
        assert_eq!(out.len(), scenarios.len() * np, "output buffer size");
        if np == 0 || scenarios.is_empty() {
            return;
        }
        let use_fixed = cobra_util::kernel::exact_fixed_enabled();
        // One chunk per worker: `par_chunks_mut` hands each thread a
        // contiguous run of chunks anyway, so finer chunking buys no
        // balance — it only multiplies the per-chunk [`FixedScratch`]
        // allocations, which the O(1)-allocation sweep budget forbids.
        let group = scenarios.len().div_ceil(par::num_threads().max(1)).max(1);
        par::par_chunks_mut(out, group * np, |ci, out| {
            let s0 = ci * group;
            let width = (scenarios.len() - s0).min(group);
            let mut scratch = FixedScratch::new();
            self.eval_batch_exact_serial_with(
                use_fixed,
                &scenarios[s0..s0 + width],
                out,
                &mut scratch,
            );
        });
    }

    /// [`eval_batch_exact_into`](Self::eval_batch_exact_into) **without**
    /// the internal scenario-parallel dispatch, reusing a caller-owned
    /// [`FixedScratch`] — the form the parallel fold engines call from
    /// their own worker threads. Resolves the kernel override on the
    /// calling thread; workers that inherited a resolved choice use
    /// [`eval_batch_exact_serial_with`](Self::eval_batch_exact_serial_with).
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_exact_serial_into(
        &self,
        scenarios: &[Vec<Rat>],
        out: &mut [Rat],
        scratch: &mut FixedScratch,
    ) {
        let use_fixed = cobra_util::kernel::exact_fixed_enabled();
        self.eval_batch_exact_serial_with(use_fixed, scenarios, out, scratch);
    }

    /// The exact serial kernel with an explicit, pre-resolved fixed-point
    /// enable flag. Thread-local kernel overrides do not propagate into
    /// spawned workers, so parallel engines resolve
    /// [`cobra_util::kernel::exact_fixed_enabled`] once on the calling
    /// thread and pass the choice down.
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_exact_serial_with(
        &self,
        use_fixed: bool,
        scenarios: &[Vec<Rat>],
        out: &mut [Rat],
        scratch: &mut FixedScratch,
    ) {
        let np = self.program.num_polys();
        assert_eq!(out.len(), scenarios.len() * np, "output buffer size");
        if np == 0 {
            return;
        }
        let fixed = if use_fixed {
            self.program.fixed_program()
        } else {
            None
        };
        for (row, out) in scenarios.iter().zip(out.chunks_exact_mut(np)) {
            if let Some(fp) = fixed {
                if fp.eval_scenario_into(&self.program, row, out, scratch) {
                    continue;
                }
            }
            self.program.eval_scenario_into(row, out);
        }
    }
}

impl BatchEvaluator<f64> {
    /// The `f64` fast path: scenarios are blocked into [`LANES`]-wide
    /// groups; within a block the CSR program is streamed **once** and
    /// every term is applied to all lanes before moving on, so each cache
    /// line of program data is touched once per block. Which lane kernel
    /// runs the block — portable auto-vectorized or explicit AVX2 — is
    /// resolved per call by [`cobra_util::kernel`] (`COBRA_KERNEL`,
    /// runtime CPU detection); every mul+add kernel performs the same
    /// per-scenario multiply/add sequence as the generic scalar walk (and
    /// as `eval_dense`), so results are bit-identical to per-scenario
    /// evaluation regardless of the kernel chosen.
    ///
    /// # Panics
    /// Panics if any row's width differs from `num_locals()`.
    pub fn eval_batch_fast(&self, scenarios: &[Vec<f64>]) -> BatchResults<f64> {
        let mut values = vec![0.0f64; scenarios.len() * self.program.num_polys()];
        self.eval_batch_fast_into(scenarios, &mut values);
        BatchResults {
            values,
            num_polys: self.program.num_polys(),
            num_scenarios: scenarios.len(),
        }
    }

    /// [`eval_batch_fast`](Self::eval_batch_fast) into a caller-provided
    /// scenario-major output buffer (`scenarios.len() × num_polys`) — the
    /// allocation-free path streaming fold-sweeps evaluate their blocks
    /// through.
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_fast_into(&self, scenarios: &[Vec<f64>], out: &mut [f64]) {
        let prog = &self.program;
        let np = prog.num_polys();
        let nl = prog.num_locals();
        assert_eq!(out.len(), scenarios.len() * np, "output buffer size");
        for row in scenarios {
            assert_eq!(row.len(), nl, "scenario row width");
        }
        if np == 0 || scenarios.is_empty() {
            return;
        }
        // Resolve the kernel on the calling thread (scoped overrides are
        // thread-local and would not be visible inside spawned workers).
        let kern = cobra_util::kernel::current();
        // One parallel chunk = one lane block of scenarios.
        par::par_chunks_mut(out, LANES * np, |block, out| {
            let s0 = block * LANES;
            let width = (scenarios.len() - s0).min(LANES);
            let mut scratch = LaneScratch::new();
            kernel::eval_lane_block(kern, prog, &scenarios[s0..s0 + width], out, &mut scratch);
        });
    }

    /// [`eval_batch_fast_into`](Self::eval_batch_fast_into) **without**
    /// the internal lane-block parallel dispatch: the same lane kernel
    /// run serially, reusing a caller-owned [`LaneScratch`] across
    /// blocks. The parallel fold engines call this from their own worker
    /// threads — each worker owns a disjoint scenario span and one
    /// scratch, so a 10⁷-scenario sweep performs O(workers) scratch
    /// allocations instead of O(blocks). Per scenario the multiply/add
    /// sequence is identical to
    /// [`eval_batch_fast_into`](Self::eval_batch_fast_into), so results
    /// are bit-identical regardless of which path (or worker) evaluated a
    /// scenario.
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_fast_serial_into(
        &self,
        scenarios: &[Vec<f64>],
        out: &mut [f64],
        scratch: &mut LaneScratch,
    ) {
        self.eval_batch_fast_serial_with(cobra_util::kernel::current(), scenarios, out, scratch);
    }

    /// The serial lane path with an explicit, pre-resolved kernel choice.
    /// Thread-local kernel overrides do not propagate into spawned
    /// workers, so parallel engines resolve
    /// [`cobra_util::kernel::current`] once on the calling thread and
    /// pass the [`F64Kernel`] down to every worker.
    ///
    /// # Panics
    /// Panics if `out.len() != scenarios.len() * num_polys()` or any row's
    /// width differs from `num_locals()`.
    pub fn eval_batch_fast_serial_with(
        &self,
        kern: F64Kernel,
        scenarios: &[Vec<f64>],
        out: &mut [f64],
        scratch: &mut LaneScratch,
    ) {
        let prog = &self.program;
        let np = prog.num_polys();
        let nl = prog.num_locals();
        assert_eq!(out.len(), scenarios.len() * np, "output buffer size");
        for row in scenarios {
            assert_eq!(row.len(), nl, "scenario row width");
        }
        if np == 0 || scenarios.is_empty() {
            return;
        }
        for (rows, out) in scenarios.chunks(LANES).zip(out.chunks_mut(LANES * np)) {
            kernel::eval_lane_block(kern, prog, rows, out, scratch);
        }
    }
}

/// Compiles the `f64` shadow of an exact set and wraps it for batching —
/// the usual entry point for timing experiments.
pub fn compile_f64(set: &PolySet<Rat>) -> BatchEvaluator<f64> {
    BatchEvaluator::new(EvalProgram::compile(set).to_f64_program())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use crate::poly::Polynomial;
    use crate::valuation::DenseValuation;
    use crate::var::VarRegistry;

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    fn sample() -> (VarRegistry, PolySet<Rat>) {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let z = reg.var("z");
        let mut set = PolySet::new();
        set.push(
            "P1",
            Polynomial::from_terms([
                (Monomial::from_pairs([(x, 2)]), rat("3")),
                (Monomial::from_pairs([(x, 1), (y, 1)]), rat("-1")),
                (Monomial::one(), rat("7")),
            ]),
        );
        set.push("Pzero", Polynomial::zero());
        set.push(
            "P2",
            Polynomial::from_terms([(Monomial::from_pairs([(z, 1)]), rat("2"))]),
        );
        (reg, set)
    }

    #[test]
    fn csr_shape_and_local_remap() {
        let (mut reg, set) = sample();
        // Widen the registry far beyond the program's variables: locals
        // must stay dense regardless.
        for i in 0..100 {
            reg.var(&format!("pad{i}"));
        }
        let prog = EvalProgram::compile(&set);
        assert_eq!(prog.num_polys(), 3);
        assert_eq!(prog.num_terms(), 4);
        assert_eq!(prog.num_locals(), 3);
        assert_eq!(prog.labels(), &["P1", "Pzero", "P2"]);
        let x = reg.lookup("x").unwrap();
        assert_eq!(prog.local_of(x), Some(0));
        assert_eq!(prog.local_of(reg.lookup("pad7").unwrap()), None);
    }

    #[test]
    fn scenario_eval_matches_sparse_eval() {
        let (mut reg, set) = sample();
        let x = reg.var("x");
        let y = reg.var("y");
        let val = Valuation::with_default(Rat::ONE)
            .bind(x, rat("2"))
            .bind(y, rat("5"));
        let prog = EvalProgram::compile(&set);
        let row = prog.bind(&val).unwrap();
        let out = prog.eval_scenario(&row);
        // 3·4 − 10 + 7 = 9; zero poly → 0; 2·1 = 2
        assert_eq!(out, vec![rat("9"), Rat::ZERO, rat("2")]);
        let expected = set.eval(&val).unwrap();
        for ((_, e), o) in expected.iter().zip(&out) {
            assert_eq!(e, o);
        }
    }

    #[test]
    fn bind_reports_missing_var() {
        let (mut reg, set) = sample();
        let x = reg.var("x");
        let y = reg.var("y");
        let prog = EvalProgram::compile(&set);
        let partial = Valuation::new().bind(x, rat("1")).bind(y, rat("1"));
        let z = reg.lookup("z").unwrap();
        assert_eq!(prog.bind(&partial), Err(z));
    }

    #[test]
    fn batch_matches_per_scenario_for_rat() {
        let (mut reg, set) = sample();
        let x = reg.var("x");
        let evaluator = BatchEvaluator::compile(&set);
        let vals: Vec<Valuation<Rat>> = (0..23)
            .map(|i| Valuation::with_default(Rat::ONE).bind(x, Rat::int(i)))
            .collect();
        let rows = evaluator.bind_all(&vals).unwrap();
        let batch = evaluator.eval_batch(&rows);
        assert_eq!(batch.num_scenarios(), 23);
        assert_eq!(batch.num_polys(), 3);
        for (s, val) in vals.iter().enumerate() {
            let expected = set.eval(val).unwrap();
            for (p, (_, e)) in expected.iter().enumerate() {
                assert_eq!(batch.get(s, p), e, "scenario {s} poly {p}");
            }
        }
    }

    #[test]
    fn fast_path_bit_identical_to_scalar() {
        let (mut reg, set) = sample();
        let x = reg.var("x");
        let y = reg.var("y");
        let set64 = set.to_f64_set();
        let evaluator = BatchEvaluator::compile(&set64);
        // 19 scenarios: exercises a full lane block plus a ragged tail.
        let rows: Vec<Vec<f64>> = (0..19)
            .map(|i| {
                let val = Valuation::with_default(1.0)
                    .bind(x, 0.1 + i as f64 * 0.37)
                    .bind(y, 1.7 - i as f64 * 0.11);
                evaluator.program().bind(&val).unwrap()
            })
            .collect();
        let fast = evaluator.eval_batch_fast(&rows);
        let scalar = evaluator.eval_batch(&rows);
        assert_eq!(fast, scalar, "lane kernel must be bit-identical");
        // ... and identical to the original eval_dense walk.
        let dense_reg_len = reg.len();
        for (s, row) in rows.iter().enumerate() {
            let mut dense = DenseValuation::from_valuation(
                &Valuation::with_default(1.0),
                dense_reg_len,
                1.0,
            );
            for (local, &v) in evaluator.program().vars().iter().enumerate() {
                dense.set(v, row[local]);
            }
            for (p, (_, value)) in set64.eval_dense(&dense).iter().enumerate() {
                assert_eq!(fast.get(s, p), value, "scenario {s} poly {p}");
            }
        }
    }

    #[test]
    fn empty_program_and_empty_batch() {
        let set: PolySet<Rat> = PolySet::new();
        let evaluator = BatchEvaluator::compile(&set);
        let batch = evaluator.eval_batch(&[]);
        assert_eq!(batch.num_scenarios(), 0);
        assert_eq!(batch.num_polys(), 0);
        let batch = evaluator.eval_batch(&[vec![], vec![]]);
        assert_eq!(batch.num_polys(), 0);
        let f = compile_f64(&set);
        assert_eq!(f.eval_batch_fast(&[vec![]]).num_polys(), 0);
    }

    #[test]
    fn abs_program_and_rounding_counts() {
        let (mut reg, set) = sample();
        let x = reg.var("x");
        let y = reg.var("y");
        let prog = EvalProgram::compile(&set).to_f64_program();
        let abs = prog.to_abs_program();
        // Same CSR shape, |coefficients|: at a non-negative point the abs
        // program evaluates the term-wise absolute sum.
        assert_eq!(abs.num_polys(), prog.num_polys());
        let val = Valuation::with_default(1.0).bind(x, 2.0).bind(y, 5.0);
        let row = abs.bind(&val).unwrap();
        // P1 = 3x² - xy + 7  →  |3|·4 + |-1|·10 + 7 = 29
        assert_eq!(abs.eval_scenario(&row), vec![29.0, 0.0, 2.0]);

        let k = prog.rounding_op_counts();
        assert_eq!(k.len(), 3);
        // The empty polynomial needs no rounding ops at all.
        assert_eq!(k[1], 0);
        // P1 (3 terms, worst term two factors) strictly dominates the
        // single-term single-factor P2; both are small positive counts.
        assert!(k[0] > k[2] && k[2] > 0);
    }

    #[test]
    fn decompile_round_trips_canonical_set() {
        let (mut reg, set) = sample();
        let prog = EvalProgram::compile(&set);
        let back = prog.decompile();
        // Recompiling the decompiled set reproduces the CSR arrays exactly
        // (canonical iteration order on both sides).
        let prog2 = EvalProgram::compile(&back);
        assert_eq!(prog.labels, prog2.labels);
        assert_eq!(prog.poly_offsets, prog2.poly_offsets);
        assert_eq!(prog.coeffs, prog2.coeffs);
        assert_eq!(prog.term_offsets, prog2.term_offsets);
        assert_eq!(prog.var_ids, prog2.var_ids);
        assert_eq!(prog.exps, prog2.exps);
        assert_eq!(prog.locals, prog2.locals);
        // And the decompiled set evaluates like the original.
        let x = reg.var("x");
        let y = reg.var("y");
        let val = Valuation::with_default(Rat::ONE)
            .bind(x, rat("2"))
            .bind(y, rat("5"));
        assert_eq!(set.eval(&val).unwrap(), back.eval(&val).unwrap());
    }

    #[test]
    fn higher_exponents_agree_between_paths() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let set = PolySet::from_entries([(
            "P".to_owned(),
            Polynomial::from_terms([(Monomial::from_pairs([(x, 4)]), rat("1"))]),
        )]);
        let set64 = set.to_f64_set();
        let evaluator = BatchEvaluator::compile(&set64);
        let rows: Vec<Vec<f64>> = (0..9).map(|i| vec![1.0 + i as f64 * 0.5]).collect();
        let fast = evaluator.eval_batch_fast(&rows);
        let scalar = evaluator.eval_batch(&rows);
        // Both use powi for e > 1, so even non-multilinear programs agree
        // bit-for-bit.
        assert_eq!(fast, scalar);
    }

    #[test]
    fn patched_program_answers_like_a_fresh_compile() {
        use crate::delta::PolyDelta;
        let (mut reg, mut set) = sample();
        let prog = EvalProgram::compile(&set);
        let x = reg.lookup("x").unwrap();
        let y = reg.lookup("y").unwrap();
        let w = reg.var("w"); // brand-new variable, unseen by `prog`
        let mut delta = PolyDelta::new();
        delta.remove(0, Monomial::from_pairs([(x, 2)]));
        delta.add(2, Monomial::from_pairs([(w, 1), (y, 2)]), rat("4.5"));
        delta.add(1, Monomial::var(x), rat("-3")); // Pzero grows a term
        let report = set.apply_delta(&delta).unwrap();
        assert!(report.is_structural());

        let touched = report.touched();
        let rows: Vec<_> = touched.iter().map(|&p| (p, set.poly(p).unwrap())).collect();
        let patched = prog.patched(&rows);
        let fresh = EvalProgram::compile(&set);
        // Same canonical set on both sides…
        assert_eq!(patched.decompile(), fresh.decompile());
        assert_eq!(patched.labels, fresh.labels);
        assert_eq!(patched.num_terms(), fresh.num_terms());
        // …and bit-identical answers, despite possibly different local
        // numbering (patched appends new locals after existing ones).
        let val = Valuation::with_default(Rat::ONE)
            .bind(x, rat("2"))
            .bind(y, rat("5"))
            .bind(w, rat("-0.25"));
        let row_p = patched.bind(&val).unwrap();
        let row_f = fresh.bind(&val).unwrap();
        assert_eq!(patched.eval_scenario(&row_p), fresh.eval_scenario(&row_f));
        // Original locals keep their slots: the patched program is a
        // superset extension of the old local space.
        for (i, &v) in prog.locals.iter().enumerate() {
            assert_eq!(patched.locals[i], v);
        }
    }

    #[test]
    fn coeff_only_patch_shares_every_shape_array() {
        use crate::delta::PolyDelta;
        let (reg, mut set) = sample();
        let prog = EvalProgram::compile(&set);
        let x = reg.lookup("x").unwrap();
        let y = reg.lookup("y").unwrap();
        let mut delta = PolyDelta::new();
        delta.set(0, Monomial::from_pairs([(x, 1), (y, 1)]), rat("9"));
        let report = set.apply_delta(&delta).unwrap();
        assert!(!report.is_structural());

        let patched = prog.patched_coeffs(&set, &report.touched());
        let fresh = EvalProgram::compile(&set);
        assert_eq!(patched.coeffs, fresh.coeffs);
        assert_eq!(patched.locals, fresh.locals);
        // Shape arrays are shared, not copied.
        assert_eq!(patched.term_offsets.as_ptr(), prog.term_offsets.as_ptr());
        assert_eq!(patched.var_ids.as_ptr(), prog.var_ids.as_ptr());
        let val = Valuation::with_default(Rat::ONE).bind(x, rat("3"));
        let row = patched.bind(&val).unwrap();
        assert_eq!(
            patched.eval_scenario(&row),
            fresh.eval_scenario(&fresh.bind(&val).unwrap())
        );
        // The f64 shadow re-converts the touched rows of its predecessor's.
        let shadow = prog.to_f64_program();
        let patched64 = patched.patched_f64(&shadow, &report.touched()).unwrap();
        assert_eq!(patched64.coeffs, patched.to_f64_program().coeffs);
        assert!(patched64.shares_shape(&shadow));
    }

    #[test]
    fn a_row_that_keeps_its_term_count_but_not_its_monomials_is_spliced() {
        let (reg, set) = sample();
        let prog = EvalProgram::compile(&set);
        let (x, z) = (reg.lookup("x").unwrap(), reg.lookup("z").unwrap());
        // P2 = 2·z becomes 2·x: one term before and after.
        let p2 = Polynomial::from_terms([(Monomial::var(x), rat("2"))]);
        let patched = prog.patched(&[(2, &p2)]);
        assert!(!patched.shares_shape(&prog));
        assert!(patched.patched_f64(&prog.to_f64_program(), &[2]).is_none());
        let mut expected = set.clone();
        *expected.poly_mut(2).unwrap() = p2;
        assert_eq!(patched.decompile(), expected);
        let val = Valuation::with_default(Rat::ONE)
            .bind(x, rat("3"))
            .bind(z, rat("5"));
        let fresh = EvalProgram::compile(&expected);
        assert_eq!(
            patched.eval_scenario(&patched.bind(&val).unwrap()),
            fresh.eval_scenario(&fresh.bind(&val).unwrap())
        );
    }
}
