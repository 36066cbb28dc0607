//! Scalar expressions over rows.
//!
//! Expressions are built with column *names* and bound to column *indices*
//! against a concrete input schema at plan time ([`Expr::bind`]), so row
//! evaluation performs no name lookups — the hot path when the telephony
//! workload multiplies `Calls.Dur * Plans.Price` across millions of rows.

use crate::error::Result;
use crate::relation::Row;
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference by (possibly qualified) name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
    /// Negation.
    Neg(Box<Expr>),
}

// The builder methods deliberately mirror the operator names (`add`, `mul`,
// …) without implementing the operator traits: `Expr` construction moves
// its operands into boxes, and plan-building code reads better with
// explicit method chains than with overloaded operators.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }

    /// Unary minus.
    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    /// Resolves all column references against `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(schema.resolve(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Add(a, b) => BoundExpr::Add(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Sub(a, b) => BoundExpr::Sub(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Mul(a, b) => BoundExpr::Mul(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Div(a, b) => BoundExpr::Div(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Neg(a) => BoundExpr::Neg(Box::new(a.bind(schema)?)),
        })
    }

    /// All column names referenced by the expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(n) => out.push(n),
            Expr::Lit(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Neg(a) => a.collect_columns(out),
        }
    }

    /// A default output name: the column name for plain references,
    /// `expr` otherwise.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Col(n) => n
                .rsplit_once('.')
                .map(|(_, c)| c.to_owned())
                .unwrap_or_else(|| n.clone()),
            other => format!("{other}"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// An expression with column references resolved to row indices.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    Col(usize),
    Lit(Value),
    Add(Box<BoundExpr>, Box<BoundExpr>),
    Sub(Box<BoundExpr>, Box<BoundExpr>),
    Mul(Box<BoundExpr>, Box<BoundExpr>),
    Div(Box<BoundExpr>, Box<BoundExpr>),
    Neg(Box<BoundExpr>),
}

impl BoundExpr {
    /// Evaluates against a row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        Ok(match self {
            BoundExpr::Col(i) => row[*i].clone(),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Add(a, b) => a.eval(row)?.add(b.eval(row)?)?,
            BoundExpr::Sub(a, b) => a.eval(row)?.sub(b.eval(row)?)?,
            BoundExpr::Mul(a, b) => a.eval(row)?.mul(b.eval(row)?)?,
            BoundExpr::Div(a, b) => a.eval(row)?.div(&b.eval(row)?)?,
            BoundExpr::Neg(a) => a.eval(row)?.neg()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_util::Rat;

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    #[test]
    fn bind_and_eval() {
        let schema = Schema::qualified("Calls", ["CID", "Dur"]);
        let e = Expr::col("Dur").mul(Expr::lit(rat("0.4")));
        let bound = e.bind(&schema).unwrap();
        let row = vec![Value::Int(1), Value::Int(522)];
        assert_eq!(bound.eval(&row).unwrap(), Value::Num(rat("208.8")));
    }

    #[test]
    fn qualified_references() {
        let schema = Schema::qualified("t", ["x"]).concat(&Schema::qualified("u", ["x"]));
        let e = Expr::col("u.x").sub(Expr::col("t.x"));
        let bound = e.bind(&schema).unwrap();
        let row = vec![Value::Int(3), Value::Int(10)];
        assert_eq!(bound.eval(&row).unwrap(), Value::Int(7));
        assert!(Expr::col("x").bind(&schema).is_err()); // ambiguous
    }

    #[test]
    fn arithmetic_tree() {
        let schema = Schema::new(["a", "b"]);
        let e = Expr::col("a")
            .add(Expr::col("b"))
            .mul(Expr::lit(2))
            .div(Expr::lit(4))
            .neg();
        let bound = e.bind(&schema).unwrap();
        let row = vec![Value::Int(1), Value::Int(3)];
        assert_eq!(bound.eval(&row).unwrap(), Value::Num(rat("-2")));
    }

    #[test]
    fn columns_and_names() {
        let e = Expr::col("Calls.Dur").mul(Expr::col("Price"));
        assert_eq!(e.columns(), vec!["Calls.Dur", "Price"]);
        assert_eq!(Expr::col("Calls.Dur").default_name(), "Dur");
        assert_eq!(
            e.default_name(),
            "(Calls.Dur * Price)"
        );
    }
}
