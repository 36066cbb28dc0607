//! Canonical monomials: products of variables raised to positive powers.
//!
//! A monomial is the coefficient-free part of a polynomial term, e.g.
//! `p1·m1` or `x²·y`. The representation is a sorted `(Var, exponent)` list
//! with strictly increasing variables and strictly positive exponents, so
//! structural equality coincides with mathematical equality — the property
//! the compression step relies on when merging terms.

use crate::var::{Var, VarRegistry};
use std::cmp::Ordering;
use std::fmt;

/// A product of variables with positive integer exponents, in canonical
/// form (variables strictly increasing, exponents ≥ 1). The empty product
/// is the monomial `1`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Monomial {
    factors: Vec<(Var, u32)>,
}

impl Monomial {
    /// The unit monomial `1`.
    pub fn one() -> Monomial {
        Monomial::default()
    }

    /// The monomial consisting of a single variable.
    pub fn var(v: Var) -> Monomial {
        Monomial {
            factors: vec![(v, 1)],
        }
    }

    /// Builds a monomial from arbitrary `(var, exponent)` pairs,
    /// canonicalizing: pairs are sorted, duplicate variables merge by adding
    /// exponents, zero exponents are dropped.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Var, u32)>) -> Monomial {
        let mut factors: Vec<(Var, u32)> = pairs.into_iter().filter(|&(_, e)| e > 0).collect();
        factors.sort_unstable_by_key(|&(v, _)| v);
        let mut out: Vec<(Var, u32)> = Vec::with_capacity(factors.len());
        for (v, e) in factors {
            match out.last_mut() {
                Some((last_v, last_e)) if *last_v == v => *last_e += e,
                _ => out.push((v, e)),
            }
        }
        Monomial { factors: out }
    }

    /// Wraps factors that are already canonical (variables strictly
    /// increasing, exponents ≥ 1) in one exactly-sized allocation — the
    /// text parser keeps each product's factors in that form as it reads.
    pub(crate) fn from_canonical(factors: &[(Var, u32)]) -> Monomial {
        debug_assert!(factors.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(factors.iter().all(|&(_, e)| e > 0));
        Monomial {
            factors: factors.to_vec(),
        }
    }

    /// True iff this is the unit monomial.
    pub fn is_one(&self) -> bool {
        self.factors.is_empty()
    }

    /// Total degree (sum of exponents).
    pub fn degree(&self) -> u32 {
        self.factors.iter().map(|&(_, e)| e).sum()
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.factors.len()
    }

    /// Exponent of `v` (0 if absent).
    pub fn exponent_of(&self, v: Var) -> u32 {
        self.factors
            .binary_search_by_key(&v, |&(w, _)| w)
            .map(|i| self.factors[i].1)
            .unwrap_or(0)
    }

    /// True iff `v` occurs.
    pub fn contains(&self, v: Var) -> bool {
        self.exponent_of(v) > 0
    }

    /// Iterates `(var, exponent)` factors in canonical order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Var, u32)> + '_ {
        self.factors.iter().copied()
    }

    /// Iterates the distinct variables in canonical order.
    pub fn vars(&self) -> impl ExactSizeIterator<Item = Var> + '_ {
        self.factors.iter().map(|&(v, _)| v)
    }

    /// Product of two monomials (exponents add).
    ///
    /// # Panics
    /// Panics if an exponent sum overflows `u32`.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        self.checked_mul(other)
            .expect("monomial exponent overflows u32")
    }

    /// Product of two monomials; `None` iff an exponent sum overflows
    /// `u32` (reachable from text: `x^4294967295 * x^4294967295`).
    pub(crate) fn checked_mul(&self, other: &Monomial) -> Option<Monomial> {
        // Merge two sorted factor lists.
        let mut out = Vec::with_capacity(self.factors.len() + other.factors.len());
        let (mut i, mut j) = (0, 0);
        while i < self.factors.len() && j < other.factors.len() {
            let (va, ea) = self.factors[i];
            let (vb, eb) = other.factors[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    out.push((va, ea));
                    i += 1;
                }
                Ordering::Greater => {
                    out.push((vb, eb));
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((va, ea.checked_add(eb)?));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.factors[i..]);
        out.extend_from_slice(&other.factors[j..]);
        Some(Monomial { factors: out })
    }

    /// Multiplies by a single variable.
    pub fn mul_var(&self, v: Var) -> Monomial {
        self.mul_power(v, 1)
    }

    /// Multiplies by `v^e` (`e ≥ 1`) in one allocation — the inverse of
    /// [`without`](Self::without).
    ///
    /// # Panics
    /// Panics if the exponent sum overflows `u32`.
    pub fn mul_power(&self, v: Var, e: u32) -> Monomial {
        debug_assert!(e > 0, "a canonical factor has a positive exponent");
        let mut factors = Vec::with_capacity(self.factors.len() + 1);
        match self.factors.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                factors.extend_from_slice(&self.factors);
                let sum = factors[i].1.checked_add(e);
                factors[i].1 = sum.expect("monomial exponent overflows u32");
            }
            Err(i) => {
                factors.extend_from_slice(&self.factors[..i]);
                factors.push((v, e));
                factors.extend_from_slice(&self.factors[i..]);
            }
        }
        Monomial { factors }
    }

    /// Removes variable `v` entirely, returning the remaining monomial and
    /// the removed exponent. This is the "context extraction" used by the
    /// group analysis of the compression algorithm.
    pub fn without(&self, v: Var) -> (Monomial, u32) {
        match self.factors.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                let mut factors = self.factors.clone();
                let (_, e) = factors.remove(i);
                (Monomial { factors }, e)
            }
            Err(_) => (self.clone(), 0),
        }
    }

    /// Renames variables according to `f` (variables mapped to the same
    /// target merge by adding exponents). This is how a cut's
    /// leaf → meta-variable substitution is applied.
    pub fn rename(&self, mut f: impl FnMut(Var) -> Var) -> Monomial {
        Monomial::from_pairs(self.factors.iter().map(|&(v, e)| (f(v), e)))
    }

    /// Canonical total order: lexicographic on the factor list. Any total
    /// order works for polynomial normalization; this one is cheap and
    /// stable.
    pub fn canonical_cmp(&self, other: &Monomial) -> Ordering {
        self.factors.cmp(&other.factors)
    }

    /// Renders with names from `reg`, e.g. `p1*m1` or `x^2*y`; `1` for the
    /// unit monomial.
    pub fn display<'a>(&'a self, reg: &'a VarRegistry) -> impl fmt::Display + 'a {
        MonomialDisplay { m: self, reg }
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let parts: Vec<String> = self
            .factors
            .iter()
            .map(|&(v, e)| {
                if e == 1 {
                    format!("x{}", v.0)
                } else {
                    format!("x{}^{}", v.0, e)
                }
            })
            .collect();
        write!(f, "{}", parts.join("*"))
    }
}

struct MonomialDisplay<'a> {
    m: &'a Monomial,
    reg: &'a VarRegistry,
}

impl fmt::Display for MonomialDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.m.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (v, e) in self.m.iter() {
            if !first {
                write!(f, "*")?;
            }
            first = false;
            write!(f, "{}", self.reg.name(v))?;
            if e > 1 {
                write!(f, "^{}", e)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> (VarRegistry, Var, Var, Var) {
        let mut r = VarRegistry::new();
        let x = r.var("x");
        let y = r.var("y");
        let z = r.var("z");
        (r, x, y, z)
    }

    #[test]
    fn canonicalization() {
        let (_, x, y, _) = reg();
        let m = Monomial::from_pairs([(y, 1), (x, 2), (y, 3), (x, 0)]);
        assert_eq!(m.exponent_of(x), 2);
        assert_eq!(m.exponent_of(y), 4);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.degree(), 6);
        // zero exponents drop entirely
        let unit = Monomial::from_pairs([(x, 0)]);
        assert!(unit.is_one());
    }

    #[test]
    fn multiplication_merges_sorted() {
        let (_, x, y, z) = reg();
        let a = Monomial::from_pairs([(x, 1), (z, 2)]);
        let b = Monomial::from_pairs([(x, 1), (y, 1)]);
        let ab = a.mul(&b);
        assert_eq!(ab, Monomial::from_pairs([(x, 2), (y, 1), (z, 2)]));
        assert_eq!(a.mul(&Monomial::one()), a);
        assert_eq!(Monomial::one().mul(&b), b);
        // commutativity
        assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn without_extracts_context() {
        let (_, x, y, _) = reg();
        let m = Monomial::from_pairs([(x, 2), (y, 1)]);
        let (ctx, e) = m.without(x);
        assert_eq!(ctx, Monomial::var(y));
        assert_eq!(e, 2);
        let (same, zero) = m.without(Var(999));
        assert_eq!(same, m);
        assert_eq!(zero, 0);
        // mul_power puts it back, and multiplies like `mul` otherwise
        assert_eq!(ctx.mul_power(x, e), m);
        for (v, e) in [(x, 3), (y, 1), (Var(999), 2)] {
            assert_eq!(m.mul_power(v, e), m.mul(&Monomial::from_pairs([(v, e)])));
        }
    }

    #[test]
    fn rename_merges_targets() {
        let (_, x, y, z) = reg();
        // x,y -> z merges their exponents with the existing z
        let m = Monomial::from_pairs([(x, 1), (y, 2), (z, 1)]);
        let renamed = m.rename(|v| if v == x || v == y { z } else { v });
        assert_eq!(renamed, Monomial::from_pairs([(z, 4)]));
    }

    #[test]
    fn display_with_names() {
        let (r, x, y, _) = reg();
        let m = Monomial::from_pairs([(x, 1), (y, 2)]);
        assert_eq!(m.display(&r).to_string(), "x*y^2");
        assert_eq!(Monomial::one().display(&r).to_string(), "1");
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let (_, x, y, _) = reg();
        let a = Monomial::var(x);
        let b = Monomial::var(y);
        let c = Monomial::from_pairs([(x, 1), (y, 1)]);
        let mut v = [c.clone(), b.clone(), a.clone(), Monomial::one()];
        v.sort();
        assert_eq!(v[0], Monomial::one());
        assert_eq!(v[1], a);
        // equal monomials compare equal
        assert_eq!(a.cmp(&Monomial::var(x)), Ordering::Equal);
        assert_eq!(v[2].cmp(&v[3]), Ordering::Less);
    }
}
