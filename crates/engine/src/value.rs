//! Dynamically typed cell values, including symbolic polynomials.
//!
//! Once a cell is parameterized with provenance variables its value is no
//! longer a number but a polynomial; every arithmetic operator therefore
//! works over the numeric tower `Int ⊂ Num(Rat) ⊂ Poly`, promoting as
//! needed. Comparisons and group-by keys require concrete scalars and fail
//! loudly on symbolic values (the paper's queries never compare symbolic
//! cells — parameterized columns only flow into the aggregated expression).

use crate::error::{EngineError, Result};
use cobra_provenance::{Polynomial, Valuation};
use cobra_util::Rat;
use std::fmt;
use std::sync::Arc;

/// A cell value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL (only produced by outer operations / absent optionals).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Exact rational numeric.
    Num(Rat),
    /// String (shared; relations clone rows freely).
    Str(Arc<str>),
    /// Symbolic numeric value: a provenance polynomial over ℚ.
    Poly(Polynomial<Rat>),
}

// `add`, `sub` and `mul` take their operands by value like the operator
// traits, but they are fallible (a type error is a `Result`), so they stay
// methods.
#[allow(clippy::should_implement_trait)]
impl Value {
    /// Convenience string constructor.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// True iff the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True iff the value is symbolic (a polynomial).
    pub fn is_symbolic(&self) -> bool {
        matches!(self, Value::Poly(_))
    }

    /// Numeric view as an exact rational, if the value is a concrete number.
    pub fn as_rat(&self) -> Option<Rat> {
        match self {
            Value::Int(i) => Some(Rat::int(*i)),
            Value::Num(r) => Some(*r),
            _ => None,
        }
    }

    /// Numeric view as a polynomial (constants lift; `Poly` passes through).
    pub fn as_poly(&self) -> Option<Polynomial<Rat>> {
        match self {
            Value::Poly(p) => Some(p.clone()),
            _ => self.as_rat().map(Polynomial::constant),
        }
    }

    /// The type name used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Num(_) => "num",
            Value::Str(_) => "str",
            Value::Poly(_) => "poly",
        }
    }

    fn into_poly(self) -> Option<Polynomial<Rat>> {
        match self {
            Value::Poly(p) => Some(p),
            other => other.as_rat().map(Polynomial::constant),
        }
    }

    /// The operands of `+`, `-`, `*` promoted to one type. Both are taken
    /// by value so a polynomial moves into the result instead of being
    /// cloned for it.
    fn numeric_pair(self, other: Value, op: &str) -> Result<NumPair> {
        let (left, right) = (self.type_name(), other.type_name());
        let err = || type_err(op, left, right);
        // Symbolic wins; otherwise exact rational; ints stay ints for +,-,*.
        Ok(match (self, other) {
            (Value::Poly(a), b) => NumPair::Poly(a, b.into_poly().ok_or_else(err)?),
            (a, Value::Poly(b)) => NumPair::Poly(a.into_poly().ok_or_else(err)?, b),
            (Value::Int(a), Value::Int(b)) => NumPair::Int(a, b),
            (a, b) => NumPair::Rat(a.as_rat().ok_or_else(err)?, b.as_rat().ok_or_else(err)?),
        })
    }

    /// Numeric addition with promotion. Of two polynomials the longer one
    /// is updated in place (`SUM`'s running total is never copied).
    pub fn add(self, other: Value) -> Result<Value> {
        Ok(match self.numeric_pair(other, "+")? {
            NumPair::Int(a, b) => Value::Int(a + b),
            NumPair::Rat(a, b) => Value::Num(a + b),
            NumPair::Poly(mut a, b) => {
                a += b;
                Value::Poly(a)
            }
        })
    }

    /// Numeric subtraction with promotion.
    pub fn sub(self, other: Value) -> Result<Value> {
        Ok(match self.numeric_pair(other, "-")? {
            NumPair::Int(a, b) => Value::Int(a - b),
            NumPair::Rat(a, b) => Value::Num(a - b),
            NumPair::Poly(mut a, b) => {
                a -= b;
                Value::Poly(a)
            }
        })
    }

    /// Numeric multiplication with promotion.
    pub fn mul(self, other: Value) -> Result<Value> {
        Ok(match self.numeric_pair(other, "*")? {
            NumPair::Int(a, b) => Value::Int(a * b),
            NumPair::Rat(a, b) => Value::Num(a * b),
            NumPair::Poly(a, b) => Value::Poly(a.mul(&b)),
        })
    }

    /// Numeric division. The divisor must be a non-zero concrete scalar
    /// (dividing by a symbolic value has no polynomial representation).
    pub fn div(&self, other: &Value) -> Result<Value> {
        let d = other
            .as_rat()
            .ok_or_else(|| match other {
                Value::Poly(_) => {
                    EngineError::SymbolicValue("divisor must be a concrete scalar".into())
                }
                _ => type_err("/", self.type_name(), other.type_name()),
            })?;
        if d.is_zero() {
            return Err(EngineError::DivisionByZero);
        }
        Ok(match self {
            Value::Poly(p) => Value::Poly(p.scale(&d.recip())),
            _ => {
                let n = self
                    .as_rat()
                    .ok_or_else(|| type_err("/", self.type_name(), other.type_name()))?;
                Value::Num(n / d)
            }
        })
    }

    /// Numeric negation.
    pub fn neg(&self) -> Result<Value> {
        Ok(match self {
            Value::Int(a) => Value::Int(-a),
            Value::Num(a) => Value::Num(-*a),
            Value::Poly(p) => Value::Poly(p.neg()),
            _ => return Err(EngineError::TypeError(format!("cannot negate {}", self.type_name()))),
        })
    }

    /// Three-way comparison of concrete values. Numeric types compare
    /// across `Int`/`Num`; strings and bools compare within their type.
    ///
    /// # Errors
    /// `SymbolicValue` for polynomials, `TypeError` for mixed
    /// non-comparable types or NULLs.
    pub fn compare(&self, other: &Value) -> Result<std::cmp::Ordering> {
        match (self, other) {
            (Value::Poly(_), _) | (_, Value::Poly(_)) => Err(EngineError::SymbolicValue(
                "comparison on symbolic value".into(),
            )),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            _ => {
                let err = || type_err("compare", self.type_name(), other.type_name());
                let a = self.as_rat().ok_or_else(err)?;
                let b = other.as_rat().ok_or_else(err)?;
                Ok(a.cmp(&b))
            }
        }
    }

    /// A hashable key for group-by / join on concrete values.
    ///
    /// Numeric values normalize (`Int(2)` and `Num(2)` share a key) so that
    /// joins across the numeric tower behave like SQL.
    pub fn key(&self) -> Result<ScalarKey> {
        Ok(match self {
            Value::Null => ScalarKey::Null,
            Value::Bool(b) => ScalarKey::Bool(*b),
            Value::Int(i) => ScalarKey::Num(Rat::int(*i)),
            Value::Num(r) => ScalarKey::Num(*r),
            Value::Str(s) => ScalarKey::Str(s.clone()),
            Value::Poly(_) => {
                return Err(EngineError::SymbolicValue(
                    "group/join key cannot be symbolic".into(),
                ))
            }
        })
    }

    /// Evaluates a symbolic value under a valuation; concrete values pass
    /// through. Used to check the commutation property in tests.
    pub fn eval_poly(&self, val: &Valuation<Rat>) -> Result<Value> {
        match self {
            Value::Poly(p) => p
                .eval(val)
                .map(Value::Num)
                .map_err(|v| EngineError::Plan(format!("unbound variable Var({})", v.0))),
            other => Ok(other.clone()),
        }
    }
}

enum NumPair {
    Int(i64, i64),
    Rat(Rat, Rat),
    Poly(Polynomial<Rat>, Polynomial<Rat>),
}

fn type_err(op: &str, left: &str, right: &str) -> EngineError {
    EngineError::TypeError(format!("operator {op} not defined for {left} and {right}"))
}

/// Hashable projection of a concrete [`Value`] for join/group keys.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarKey {
    Null,
    Bool(bool),
    Num(Rat),
    Str(Arc<str>),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Num(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Poly(p) => write!(f, "<poly:{} terms>", p.num_terms()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<Rat> for Value {
    fn from(v: Rat) -> Self {
        Value::Num(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Polynomial<Rat>> for Value {
    fn from(v: Polynomial<Rat>) -> Self {
        Value::Poly(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_provenance::{Var, VarRegistry};

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let a = Value::Int(6);
        let b = Value::Int(4);
        assert_eq!(a.clone().add(b.clone()).unwrap(), Value::Int(10));
        assert_eq!(a.clone().sub(b.clone()).unwrap(), Value::Int(2));
        assert_eq!(a.clone().mul(b.clone()).unwrap(), Value::Int(24));
        // division always produces exact rationals
        assert_eq!(a.div(&b).unwrap(), Value::Num(rat("1.5")));
    }

    #[test]
    fn mixed_numeric_promotes_to_rat() {
        let a = Value::Int(522);
        let b = Value::Num(rat("0.4"));
        assert_eq!(a.mul(b).unwrap(), Value::Num(rat("208.8")));
    }

    #[test]
    fn symbolic_promotes_to_poly() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let px = Value::Poly(Polynomial::var(x));
        let out = Value::Int(3).mul(px).unwrap().add(Value::Int(1)).unwrap();
        match out {
            Value::Poly(p) => {
                assert_eq!(p.num_terms(), 2);
                assert_eq!(p.coeff_of(&cobra_provenance::Monomial::var(x)), rat("3"));
            }
            other => panic!("expected poly, got {other:?}"),
        }
    }

    #[test]
    fn division_rules() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let px = Value::Poly(Polynomial::var(x));
        // poly / scalar scales coefficients
        let half = px.div(&Value::Int(2)).unwrap();
        match half {
            Value::Poly(p) => assert_eq!(
                p.coeff_of(&cobra_provenance::Monomial::var(x)),
                rat("0.5")
            ),
            other => panic!("{other:?}"),
        }
        // anything / poly is an error
        assert!(matches!(
            Value::Int(1).div(&px),
            Err(EngineError::SymbolicValue(_))
        ));
        assert_eq!(Value::Int(1).div(&Value::Int(0)), Err(EngineError::DivisionByZero));
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            Value::Int(2).compare(&Value::Num(rat("2.5"))).unwrap(),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            Value::str("abc").compare(&Value::str("abd")).unwrap(),
            std::cmp::Ordering::Less
        );
        assert!(Value::str("a").compare(&Value::Int(1)).is_err());
        let p = Value::Poly(Polynomial::var(Var(0)));
        assert!(matches!(
            p.compare(&Value::Int(1)),
            Err(EngineError::SymbolicValue(_))
        ));
    }

    #[test]
    fn keys_normalize_numerics() {
        assert_eq!(
            Value::Int(2).key().unwrap(),
            Value::Num(rat("2")).key().unwrap()
        );
        assert_ne!(
            Value::Int(2).key().unwrap(),
            Value::str("2").key().unwrap()
        );
        assert!(Value::Poly(Polynomial::var(Var(0))).key().is_err());
    }

    #[test]
    fn type_errors_carry_names() {
        let err = Value::str("x").add(Value::Int(1)).unwrap_err();
        match err {
            EngineError::TypeError(m) => assert!(m.contains("str") && m.contains("int")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eval_poly_passthrough_and_substitution() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let val = Valuation::with_default(Rat::ONE).bind(x, rat("2"));
        let p = Value::Poly(Polynomial::var(x).scale(&rat("3")));
        assert_eq!(p.eval_poly(&val).unwrap(), Value::Num(rat("6")));
        assert_eq!(Value::Int(7).eval_poly(&val).unwrap(), Value::Int(7));
    }
}
