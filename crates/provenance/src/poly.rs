//! Provenance polynomials over a generic coefficient ring.
//!
//! A [`Polynomial`] is a canonical sum of `(monomial, coefficient)` terms:
//! monomials strictly increasing in the canonical order, no zero
//! coefficients. The paper's provenance expressions (Example 2) are exactly
//! such polynomials with rational coefficients; the compression algorithm
//! only ever needs three operations from them — term iteration, variable
//! renaming with merge (the abstraction), and evaluation under a valuation.

use crate::monomial::Monomial;
use crate::valuation::{DenseValuation, Valuation};
use crate::var::{Var, VarRegistry};
use cobra_util::{FxHashSet, Rat};
use std::fmt;
use std::ops::{AddAssign, SubAssign};

/// Coefficient ring abstraction: exact rationals ([`Rat`]) for
/// paper-faithful arithmetic, `f64` for the valuation speed benchmarks.
pub trait Coeff: Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Addition.
    fn add(&self, other: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Integer power (used when evaluating exponentiated variables).
    fn pow(&self, exp: u32) -> Self;
    /// Is this the additive identity? (Zero terms are pruned.)
    fn is_zero(&self) -> bool;
    /// Conversion from an exact rational (for cross-representation tests
    /// and the Rat → f64 fast path).
    fn from_rat(r: Rat) -> Self;
    /// Lossy conversion to `f64` for reporting.
    fn to_f64(&self) -> f64;
}

impl Coeff for Rat {
    fn zero() -> Self {
        Rat::ZERO
    }
    fn one() -> Self {
        Rat::ONE
    }
    fn add(&self, other: &Self) -> Self {
        *self + *other
    }
    fn sub(&self, other: &Self) -> Self {
        *self - *other
    }
    fn mul(&self, other: &Self) -> Self {
        *self * *other
    }
    fn pow(&self, exp: u32) -> Self {
        Rat::pow(*self, exp)
    }
    fn is_zero(&self) -> bool {
        Rat::is_zero(*self)
    }
    fn from_rat(r: Rat) -> Self {
        r
    }
    fn to_f64(&self) -> f64 {
        Rat::to_f64(*self)
    }
}

impl Coeff for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn pow(&self, exp: u32) -> Self {
        // The shared square-and-multiply chain keeps this walk
        // bit-identical to every lane kernel (see `cobra_util::kernel`).
        cobra_util::kernel::pow_f64(*self, exp)
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn from_rat(r: Rat) -> Self {
        r.to_f64()
    }
    fn to_f64(&self) -> f64 {
        *self
    }
}

/// A polynomial in canonical form: terms sorted by monomial, no zero
/// coefficients, no duplicate monomials.
#[derive(Clone, PartialEq)]
pub struct Polynomial<C: Coeff> {
    terms: Vec<(Monomial, C)>,
}

impl<C: Coeff> Default for Polynomial<C> {
    fn default() -> Self {
        Polynomial { terms: Vec::new() }
    }
}

impl<C: Coeff> Polynomial<C> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant polynomial (zero terms if `c` is zero).
    pub fn constant(c: C) -> Self {
        if c.is_zero() {
            Self::zero()
        } else {
            Polynomial {
                terms: vec![(Monomial::one(), c)],
            }
        }
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Polynomial {
            terms: vec![(Monomial::var(v), C::one())],
        }
    }

    /// A single term `c · m`.
    pub fn term(m: Monomial, c: C) -> Self {
        if c.is_zero() {
            Self::zero()
        } else {
            Polynomial { terms: vec![(m, c)] }
        }
    }

    /// Builds from arbitrary terms, canonicalizing (sorting, merging
    /// duplicates, dropping zeros).
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, C)>) -> Self {
        let mut terms: Vec<(Monomial, C)> = terms.into_iter().collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(Monomial, C)> = Vec::with_capacity(terms.len());
        for (m, c) in terms {
            match out.last_mut() {
                Some((last_m, last_c)) if *last_m == m => *last_c = last_c.add(&c),
                _ => out.push((m, c)),
            }
        }
        out.retain(|(_, c)| !c.is_zero());
        Polynomial { terms: out }
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of monomials — the paper's provenance-size measure.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Maximum total degree over all terms (0 for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.iter().map(|(m, _)| m.degree()).max().unwrap_or(0)
    }

    /// Iterates `(monomial, coefficient)` terms in canonical order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &(Monomial, C)> {
        self.terms.iter()
    }

    /// The canonical term slice (monomials strictly increasing). Indices
    /// into this slice are stable for the lifetime of the polynomial —
    /// they are what `cobra_core`'s group analysis records as term
    /// references.
    pub fn terms(&self) -> &[(Monomial, C)] {
        &self.terms
    }

    /// The coefficient of `m` (zero if absent).
    pub fn coeff_of(&self, m: &Monomial) -> C {
        self.terms
            .binary_search_by(|(tm, _)| tm.cmp(m))
            .map(|i| self.terms[i].1.clone())
            .unwrap_or_else(|_| C::zero())
    }

    /// The set of distinct variables occurring in the polynomial.
    pub fn vars(&self) -> FxHashSet<Var> {
        let mut set = FxHashSet::default();
        for (m, _) in &self.terms {
            set.extend(m.vars());
        }
        set
    }

    /// Sum of two polynomials.
    pub fn add(&self, other: &Self) -> Self {
        // Merge two canonical term lists.
        let mut out = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let (ma, ca) = &self.terms[i];
            let (mb, cb) = &other.terms[j];
            match ma.cmp(mb) {
                std::cmp::Ordering::Less => {
                    out.push((ma.clone(), ca.clone()));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((mb.clone(), cb.clone()));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = ca.add(cb);
                    if !c.is_zero() {
                        out.push((ma.clone(), c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend(self.terms[i..].iter().cloned());
        out.extend(other.terms[j..].iter().cloned());
        Polynomial { terms: out }
    }

    /// Adds a single term in place (used by aggregation hot loops).
    pub fn add_term(&mut self, m: Monomial, c: C) {
        if c.is_zero() {
            return;
        }
        match self.terms.binary_search_by(|(tm, _)| tm.cmp(&m)) {
            Ok(i) => {
                let new = self.terms[i].1.add(&c);
                if new.is_zero() {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = new;
                }
            }
            Err(i) => self.terms.insert(i, (m, c)),
        }
    }

    /// Sets the coefficient of `m` to exactly `c`, inserting the term when
    /// absent and removing it when `c` is zero. Returns `true` iff the
    /// polynomial's *monomial set* changed (a term appeared or vanished) —
    /// the structural/coefficient-only distinction delta application
    /// reports upward so callers can invalidate only shape-dependent
    /// caches ([`crate::delta`]).
    pub fn set_term(&mut self, m: Monomial, c: C) -> bool {
        match self.terms.binary_search_by(|(tm, _)| tm.cmp(&m)) {
            Ok(i) => {
                if c.is_zero() {
                    self.terms.remove(i);
                    true
                } else {
                    self.terms[i].1 = c;
                    false
                }
            }
            Err(i) => {
                if c.is_zero() {
                    false
                } else {
                    self.terms.insert(i, (m, c));
                    true
                }
            }
        }
    }

    /// Difference of two polynomials.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// Additive inverse.
    pub fn neg(&self) -> Self {
        Polynomial {
            terms: self
                .terms
                .iter()
                .map(|(m, c)| (m.clone(), C::zero().sub(c)))
                .collect(),
        }
    }

    /// Product of two polynomials (distributes and re-canonicalizes).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                terms.push((ma.mul(mb), ca.mul(cb)));
            }
        }
        Self::from_terms(terms)
    }

    /// Multiplies every coefficient by a scalar.
    pub fn scale(&self, c: &C) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        Polynomial {
            terms: self
                .terms
                .iter()
                .map(|(m, k)| (m.clone(), k.mul(c)))
                .collect(),
        }
    }

    /// Multiplies every term by a monomial (no re-sort needed: `m ↦ m·x` is
    /// order-preserving only for the unit monomial, so we re-canonicalize).
    pub fn mul_monomial(&self, m: &Monomial) -> Self {
        if m.is_one() {
            return self.clone();
        }
        Self::from_terms(self.terms.iter().map(|(tm, c)| (tm.mul(m), c.clone())))
    }

    /// Renames variables (the abstraction substitution); terms whose
    /// monomials become identical merge by coefficient addition. This is
    /// COBRA's compression primitive.
    pub fn rename_vars(&self, mut f: impl FnMut(Var) -> Var) -> Self {
        Self::from_terms(
            self.terms
                .iter()
                .map(|(m, c)| (m.rename(&mut f), c.clone())),
        )
    }

    /// Full evaluation under a sparse valuation.
    ///
    /// # Errors
    /// Returns the missing variable if the valuation (with no default) does
    /// not cover some variable.
    pub fn eval(&self, val: &Valuation<C>) -> Result<C, Var> {
        let mut acc = C::zero();
        for (m, c) in &self.terms {
            let mut term = c.clone();
            for (v, e) in m.iter() {
                let x = val.get(v).ok_or(v)?;
                term = term.mul(&x.pow(e));
            }
            acc = acc.add(&term);
        }
        Ok(acc)
    }

    /// Full evaluation against a dense valuation (the benchmarked fast
    /// path: one slice index per variable occurrence).
    pub fn eval_dense(&self, val: &DenseValuation<C>) -> C {
        let mut acc = C::zero();
        for (m, c) in &self.terms {
            let mut term = c.clone();
            for (v, e) in m.iter() {
                term = term.mul(&val.get(v).pow(e));
            }
            acc = acc.add(&term);
        }
        acc
    }

    /// Partial evaluation: substitutes only the variables bound by `val`,
    /// leaving others symbolic. Returns a (possibly constant) polynomial.
    pub fn partial_eval(&self, val: &Valuation<C>) -> Self {
        Self::from_terms(self.terms.iter().map(|(m, c)| {
            let mut coeff = c.clone();
            let mut residue = Vec::new();
            for (v, e) in m.iter() {
                match val.get(v) {
                    Some(x) => coeff = coeff.mul(&x.pow(e)),
                    None => residue.push((v, e)),
                }
            }
            (Monomial::from_pairs(residue), coeff)
        }))
    }

    /// Substitutes a whole polynomial for a variable: `P[v ↦ R]`.
    ///
    /// Generalizes renaming (substitute a variable) and partial evaluation
    /// (substitute a constant); the interesting case for hypothetical
    /// reasoning is `v ↦ 1 + δ`, which re-expresses provenance in terms of
    /// a *deviation* variable `δ`.
    pub fn substitute(&self, v: Var, replacement: &Polynomial<C>) -> Self {
        let mut out = Polynomial::zero();
        for (m, c) in &self.terms {
            let e = m.exponent_of(v);
            if e == 0 {
                out.add_term(m.clone(), c.clone());
                continue;
            }
            let (rest, _) = m.without(v);
            // replacement^e, then shift by the residual monomial & coeff
            let mut power = Polynomial::constant(C::one());
            for _ in 0..e {
                power = power.mul(replacement);
            }
            let shifted = power.mul_monomial(&rest).scale(c);
            out = out.add(&shifted);
        }
        out
    }

    /// Formal partial derivative `∂P/∂v` — the sensitivity of the query
    /// result to the parameter `v` (an extension for hypothetical
    /// reasoning: ranks which parameters matter most for a scenario).
    pub fn derivative(&self, v: Var) -> Self {
        Self::from_terms(self.terms.iter().filter_map(|(m, c)| {
            let e = m.exponent_of(v);
            if e == 0 {
                return None;
            }
            let (rest, _) = m.without(v);
            let lowered = if e == 1 {
                rest
            } else {
                rest.mul(&Monomial::from_pairs([(v, e - 1)]))
            };
            Some((lowered, c.mul(&C::from_rat(cobra_util::Rat::int(e as i64)))))
        }))
    }

    /// Maps coefficients into another ring, dropping terms that become zero
    /// (e.g. exact `Rat` → `f64` for the timing experiments).
    pub fn map_coeff<D: Coeff>(&self, mut f: impl FnMut(&C) -> D) -> Polynomial<D> {
        Polynomial {
            terms: self
                .terms
                .iter()
                .filter_map(|(m, c)| {
                    let d = f(c);
                    (!d.is_zero()).then(|| (m.clone(), d))
                })
                .collect(),
        }
    }

    /// Renders with variable names from `reg`, e.g.
    /// `208.8*p1*m1 + 240*p1*m3`.
    pub fn display<'a>(&'a self, reg: &'a VarRegistry) -> impl fmt::Display + 'a
    where
        C: fmt::Display,
    {
        PolyDisplay { p: self, reg }
    }
}

/// `acc += p` folds `p` into a running sum **in place**: a monomial `acc`
/// already has is a binary search and a coefficient update, a new one an
/// insert, and nothing of `acc` is cloned or rebuilt — so summing *n*
/// addends (SQL `SUM` over *n* rows) costs *n* short updates and holds
/// only the distinct monomials, where *n* calls of [`Polynomial::add`]
/// copy the running sum *n* times. The shorter operand is the one walked,
/// which suits short addends on a long sum; to combine two long
/// polynomials once, [`Polynomial::add`]'s single merge pass is cheaper.
impl<C: Coeff> AddAssign for Polynomial<C> {
    fn add_assign(&mut self, mut other: Polynomial<C>) {
        if self.terms.len() < other.terms.len() {
            std::mem::swap(&mut self.terms, &mut other.terms);
        }
        for (m, c) in other.terms {
            self.add_term(m, c);
        }
    }
}

/// `acc -= p`, in place like [`AddAssign`].
impl<C: Coeff> SubAssign for Polynomial<C> {
    fn sub_assign(&mut self, mut other: Polynomial<C>) {
        for (_, c) in &mut other.terms {
            *c = C::zero().sub(c);
        }
        self.add_assign(other);
    }
}

impl Polynomial<Rat> {
    /// Converts an exact polynomial to its `f64` counterpart (same shape,
    /// approximate coefficients) for the valuation speed benchmarks.
    pub fn to_f64_poly(&self) -> Polynomial<f64> {
        self.map_coeff(|c| c.to_f64())
    }

    /// [`from_terms`](Self::from_terms) for coefficients that come from
    /// outside the program (the text parser): the sums of equal monomials
    /// are checked. Each term carries a tag; equal monomials add in input
    /// order, and the error is the tag of the first term whose addition
    /// does not fit `i128`.
    pub(crate) fn checked_from_terms<T>(mut terms: Vec<(Monomial, Rat, T)>) -> Result<Self, T> {
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out: Vec<(Monomial, Rat)> = Vec::with_capacity(terms.len());
        for (m, c, tag) in terms {
            match out.last_mut() {
                Some((last_m, sum)) if *last_m == m => *sum = sum.checked_add(c).ok_or(tag)?,
                _ => out.push((m, c)),
            }
        }
        out.retain(|(_, c)| !c.is_zero());
        Ok(Polynomial { terms: out })
    }

    /// [`mul`](Self::mul) with every coefficient product, coefficient sum
    /// and exponent sum checked: `None` where `mul` would panic.
    pub(crate) fn checked_mul(&self, other: &Self) -> Option<Self> {
        let mut terms = Vec::new();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                terms.push((ma.checked_mul(mb)?, ca.checked_mul(*cb)?, ()));
            }
        }
        Self::checked_from_terms(terms).ok()
    }
}

impl<C: Coeff> fmt::Debug for Polynomial<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let parts: Vec<String> = self
            .terms
            .iter()
            .map(|(m, c)| format!("{:?}*{:?}", c, m))
            .collect();
        write!(f, "{}", parts.join(" + "))
    }
}

struct PolyDisplay<'a, C: Coeff + fmt::Display> {
    p: &'a Polynomial<C>,
    reg: &'a VarRegistry,
}

impl<C: Coeff + fmt::Display> fmt::Display for PolyDisplay<'_, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.p.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in self.p.iter() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            if m.is_one() {
                write!(f, "{c}")?;
            } else if *c == C::one() {
                write!(f, "{}", m.display(self.reg))?;
            } else {
                write!(f, "{}*{}", c, m.display(self.reg))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VarRegistry, Var, Var, Var) {
        let mut r = VarRegistry::new();
        let x = r.var("x");
        let y = r.var("y");
        let z = r.var("z");
        (r, x, y, z)
    }

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    #[test]
    fn canonical_from_terms() {
        let (_, x, y, _) = setup();
        let p = Polynomial::from_terms([
            (Monomial::var(y), rat("1")),
            (Monomial::var(x), rat("2")),
            (Monomial::var(y), rat("-1")), // cancels
            (Monomial::one(), rat("0")),   // dropped
        ]);
        assert_eq!(p.num_terms(), 1);
        assert_eq!(p.coeff_of(&Monomial::var(x)), rat("2"));
        assert_eq!(p.coeff_of(&Monomial::var(y)), Rat::ZERO);
    }

    #[test]
    fn ring_identities() {
        let (_, x, y, z) = setup();
        let p = Polynomial::from_terms([
            (Monomial::var(x), rat("2")),
            (Monomial::var(y), rat("3")),
        ]);
        let q = Polynomial::from_terms([
            (Monomial::var(y), rat("-3")),
            (Monomial::var(z), rat("5")),
        ]);
        // p + q - q == p
        assert_eq!(p.add(&q).sub(&q), p);
        // p + 0 == p, p * 1 == p, p * 0 == 0
        assert_eq!(p.add(&Polynomial::zero()), p);
        assert_eq!(p.mul(&Polynomial::constant(Rat::ONE)), p);
        assert!(p.mul(&Polynomial::zero()).is_zero());
        // distributivity on a sample
        let r = Polynomial::var(x);
        assert_eq!(r.mul(&p.add(&q)), r.mul(&p).add(&r.mul(&q)));
    }

    #[test]
    fn mul_expands_and_merges() {
        let (_, x, y, _) = setup();
        // (x + y)^2 = x^2 + 2xy + y^2
        let p = Polynomial::<Rat>::var(x).add(&Polynomial::var(y));
        let sq = p.mul(&p);
        assert_eq!(sq.num_terms(), 3);
        assert_eq!(sq.coeff_of(&Monomial::from_pairs([(x, 1), (y, 1)])), rat("2"));
        assert_eq!(sq.coeff_of(&Monomial::from_pairs([(x, 2)])), rat("1"));
        assert_eq!(sq.degree(), 2);
    }

    #[test]
    fn add_term_in_place_matches_from_terms() {
        let (_, x, y, _) = setup();
        let mut p = Polynomial::zero();
        p.add_term(Monomial::var(x), rat("1.5"));
        p.add_term(Monomial::var(y), rat("2"));
        p.add_term(Monomial::var(x), rat("0.5"));
        let q = Polynomial::from_terms([
            (Monomial::var(x), rat("2")),
            (Monomial::var(y), rat("2")),
        ]);
        assert_eq!(p, q);
        // cancelling to zero removes the term
        p.add_term(Monomial::var(y), rat("-2"));
        assert_eq!(p.num_terms(), 1);
    }

    #[test]
    fn in_place_sums_equal_the_immutable_ones() {
        let (_, x, y, z) = setup();
        let p = Polynomial::from_terms([
            (Monomial::var(x), rat("2")),
            (Monomial::var(y), rat("3")),
            (Monomial::from_pairs([(x, 1), (z, 2)]), rat("1/7")),
        ]);
        let q =
            Polynomial::from_terms([(Monomial::var(y), rat("-3")), (Monomial::var(z), rat("5"))]);
        // short into long and long into short; `y` cancels and is dropped
        for (a, b) in [(&p, &q), (&q, &p)] {
            let mut acc = a.clone();
            acc += b.clone();
            assert_eq!(acc, a.add(b));
            acc -= b.clone();
            assert_eq!(&acc, a);
            acc -= a.clone();
            assert!(acc.is_zero());
            acc -= b.clone();
            assert_eq!(acc, b.neg());
        }
        // a running sum, as SQL SUM keeps it
        let mut sum = Polynomial::zero();
        for _ in 0..5 {
            sum += p.clone();
        }
        assert_eq!(sum, p.scale(&rat("5")));
    }

    #[test]
    fn checked_builders_report_what_the_plain_ones_panic_on() {
        let (_, x, y, _) = setup();
        let max = Rat::new(i128::MAX, 1);
        let big = Polynomial::term(Monomial::var(x), max);
        // coefficient product, coefficient sum, exponent sum
        assert_eq!(big.checked_mul(&big), None);
        let both =
            Polynomial::from_terms([(Monomial::var(x), Rat::ONE), (Monomial::var(y), Rat::ONE)]);
        let collide = Polynomial::from_terms([(Monomial::var(x), max), (Monomial::var(y), max)]);
        assert_eq!(both.checked_mul(&collide), None); // x·y gets max + max
        let steep = Polynomial::term(Monomial::from_pairs([(x, u32::MAX)]), Rat::ONE);
        assert_eq!(steep.checked_mul(&Polynomial::var(x)), None);
        // and agree with them everywhere else
        assert_eq!(both.checked_mul(&both), Some(both.mul(&both)));
        assert_eq!(
            big.checked_mul(&Polynomial::zero()),
            Some(Polynomial::zero())
        );
        // the tag of the first addition that does not fit comes back
        let terms = vec![
            (Monomial::var(y), max, 'a'),
            (Monomial::var(x), max, 'b'),
            (Monomial::var(x), -max, 'c'),
            (Monomial::var(y), Rat::ONE, 'd'),
        ];
        assert_eq!(Polynomial::checked_from_terms(terms), Err('d'));
    }

    #[test]
    fn rename_compresses_like_the_paper() {
        // Abstraction of Example 4: grouping f1, y1, v into `Sp` merges
        // their m1-terms into a single monomial with summed coefficients.
        let mut reg = VarRegistry::new();
        let f1 = reg.var("f1");
        let y1 = reg.var("y1");
        let v = reg.var("v");
        let m1 = reg.var("m1");
        let sp = reg.var("Sp");
        let p = Polynomial::from_terms([
            (Monomial::from_pairs([(f1, 1), (m1, 1)]), rat("127.4")),
            (Monomial::from_pairs([(y1, 1), (m1, 1)]), rat("75.9")),
            (Monomial::from_pairs([(v, 1), (m1, 1)]), rat("42")),
        ]);
        let grouped = p.rename_vars(|w| if w == m1 || w == sp { w } else { sp });
        assert_eq!(grouped.num_terms(), 1);
        assert_eq!(
            grouped.coeff_of(&Monomial::from_pairs([(m1, 1), (sp, 1)])),
            rat("245.3")
        );
    }

    #[test]
    fn eval_sparse_and_dense_agree() {
        let (_, x, y, _) = setup();
        let p = Polynomial::from_terms([
            (Monomial::from_pairs([(x, 2)]), rat("3")),
            (Monomial::from_pairs([(x, 1), (y, 1)]), rat("-1")),
            (Monomial::one(), rat("7")),
        ]);
        let mut val = Valuation::new();
        val.set(x, rat("2"));
        val.set(y, rat("5"));
        // 3·4 − 1·10 + 7 = 9
        assert_eq!(p.eval(&val).unwrap(), rat("9"));
        let dense = DenseValuation::from_valuation(&val, 3, Rat::ONE);
        assert_eq!(p.eval_dense(&dense), rat("9"));
    }

    #[test]
    fn eval_reports_missing_var() {
        let (_, x, y, _) = setup();
        let p = Polynomial::from_terms([(Monomial::from_pairs([(x, 1), (y, 1)]), rat("1"))]);
        let mut val = Valuation::new();
        val.set(x, rat("1"));
        assert_eq!(p.eval(&val), Err(y));
    }

    #[test]
    fn partial_eval_keeps_unbound_symbolic() {
        let (_, x, y, _) = setup();
        let p = Polynomial::from_terms([
            (Monomial::from_pairs([(x, 1), (y, 1)]), rat("2")),
            (Monomial::var(y), rat("3")),
        ]);
        let mut val = Valuation::new();
        val.set(x, rat("4"));
        let q = p.partial_eval(&val);
        // 2·4·y + 3·y = 11·y
        assert_eq!(q.num_terms(), 1);
        assert_eq!(q.coeff_of(&Monomial::var(y)), rat("11"));
        // binding everything yields a constant equal to full eval
        val.set(y, rat("10"));
        let full = p.eval(&val).unwrap();
        assert_eq!(p.partial_eval(&val).coeff_of(&Monomial::one()), full);
    }

    #[test]
    fn display_matches_paper_style() {
        let mut reg = VarRegistry::new();
        let p1 = reg.var("p1");
        let m1 = reg.var("m1");
        let p = Polynomial::from_terms([(Monomial::from_pairs([(p1, 1), (m1, 1)]), rat("208.8"))]);
        assert_eq!(p.display(&reg).to_string(), "208.8*p1*m1");
        assert_eq!(Polynomial::<Rat>::zero().display(&reg).to_string(), "0");
    }

    #[test]
    fn substitute_generalizes_rename_and_partial_eval() {
        let (_, x, y, z) = setup();
        let p = Polynomial::from_terms([
            (Monomial::from_pairs([(x, 2), (y, 1)]), rat("3")),
            (Monomial::var(x), rat("2")),
            (Monomial::var(z), rat("1")),
        ]);
        // substitute by a variable == rename
        assert_eq!(
            p.substitute(x, &Polynomial::var(z)),
            p.rename_vars(|v| if v == x { z } else { v })
        );
        // substitute by a constant == partial evaluation
        let mut val = Valuation::new();
        val.set(x, rat("4"));
        assert_eq!(
            p.substitute(x, &Polynomial::constant(rat("4"))),
            p.partial_eval(&val)
        );
        // x ↦ 1 + δ: evaluating at δ=0 recovers x=1
        let mut reg2 = VarRegistry::new();
        reg2.var("x");
        reg2.var("y");
        reg2.var("z");
        let delta = reg2.var("delta");
        let shifted = p.substitute(
            x,
            &Polynomial::constant(Rat::ONE).add(&Polynomial::var(delta)),
        );
        let at_zero = Valuation::with_default(Rat::ONE).bind(delta, Rat::ZERO);
        let at_one = Valuation::with_default(Rat::ONE);
        assert_eq!(shifted.eval(&at_zero).unwrap(), p.eval(&at_one).unwrap());
        // evaluation commutes with substitution in general
        let val = Valuation::with_default(Rat::ONE).bind(delta, rat("0.5"));
        let direct = shifted.eval(&val).unwrap();
        let x_val = Rat::ONE + rat("0.5");
        let pulled = Valuation::with_default(Rat::ONE).bind(x, x_val);
        assert_eq!(p.eval(&pulled).unwrap(), direct);
    }

    #[test]
    fn derivative_rules() {
        let (_, x, y, _) = setup();
        // d/dx (3x²y + 2x + 5y) = 6xy + 2
        let p = Polynomial::from_terms([
            (Monomial::from_pairs([(x, 2), (y, 1)]), rat("3")),
            (Monomial::var(x), rat("2")),
            (Monomial::var(y), rat("5")),
        ]);
        let dx = p.derivative(x);
        assert_eq!(dx.num_terms(), 2);
        assert_eq!(
            dx.coeff_of(&Monomial::from_pairs([(x, 1), (y, 1)])),
            rat("6")
        );
        assert_eq!(dx.coeff_of(&Monomial::one()), rat("2"));
        // derivative of a constant is zero; sum rule holds
        assert!(Polynomial::constant(rat("7")).derivative(x).is_zero());
        let q = Polynomial::var(y);
        assert_eq!(
            p.add(&q).derivative(x),
            p.derivative(x).add(&q.derivative(x))
        );
    }

    #[test]
    fn f64_conversion_preserves_shape() {
        let (_, x, _, _) = setup();
        let p = Polynomial::from_terms([
            (Monomial::var(x), rat("0.5")),
            (Monomial::one(), rat("2")),
        ]);
        let q = p.to_f64_poly();
        assert_eq!(q.num_terms(), 2);
        assert_eq!(q.coeff_of(&Monomial::var(x)), 0.5);
    }
}
