//! Plan executor: filters, projections, hash joins, hash aggregation.
//!
//! Execution is straightforwardly eager (each operator materializes its
//! output), which is the right trade-off for this workload: COBRA runs the
//! query **once** to obtain provenance, then all hypothetical reasoning
//! happens on the polynomials. Joins and grouping are hash-based; group
//! output preserves first-seen order so results are deterministic.

use crate::catalog::Database;
use crate::error::{EngineError, Result};
use crate::query::{AggFunc, Aggregate, Plan};
use crate::relation::{Relation, Row};
use crate::schema::{Column, Schema};
use crate::value::{ScalarKey, Value};
use cobra_util::FxHashMap;

/// Executes `plan` against `db`, materializing the result.
pub fn execute(db: &Database, plan: &Plan) -> Result<Relation> {
    match plan {
        Plan::Scan { table, alias } => {
            let rel = db
                .table(table)
                .ok_or_else(|| EngineError::UnknownTable(table.clone()))?;
            let qualifier = alias.as_deref().unwrap_or(table);
            Relation::new(
                rel.schema().with_qualifier(qualifier),
                rel.rows().to_vec(),
            )
        }
        Plan::Filter { input, pred } => {
            let rel = execute(db, input)?;
            let bound = pred.bind(rel.schema())?;
            let schema = rel.schema().clone();
            let mut rows = Vec::new();
            for row in rel.into_rows() {
                if bound.eval(&row)? {
                    rows.push(row);
                }
            }
            Relation::new(schema, rows)
        }
        Plan::Project { input, exprs } => {
            let rel = execute(db, input)?;
            let bound: Vec<_> = exprs
                .iter()
                .map(|(e, _)| e.bind(rel.schema()))
                .collect::<Result<_>>()?;
            let schema = Schema::from_columns(
                exprs
                    .iter()
                    .map(|(_, name)| Column::new(name.clone()))
                    .collect(),
            );
            let mut rows = Vec::with_capacity(rel.len());
            for row in rel.rows() {
                let out: Row = bound.iter().map(|b| b.eval(row)).collect::<Result<_>>()?;
                rows.push(out);
            }
            Relation::new(schema, rows)
        }
        Plan::Join { left, right, on } => {
            let l = execute(db, left)?;
            let r = execute(db, right)?;
            hash_join(l, r, on)
        }
        Plan::AggregateBy {
            input,
            group_by,
            aggs,
        } => {
            let rel = execute(db, input)?;
            aggregate(rel, group_by, aggs)
        }
        Plan::Sort { input, keys, limit } => {
            let rel = execute(db, input)?;
            sort_limit(rel, keys, *limit)
        }
        Plan::Distinct { input } => {
            let rel = execute(db, input)?;
            let schema = rel.schema().clone();
            let mut seen: FxHashMap<Vec<ScalarKey>, ()> = FxHashMap::default();
            let mut rows = Vec::new();
            for row in rel.into_rows() {
                let key = row
                    .iter()
                    .map(Value::key)
                    .collect::<Result<Vec<_>>>()?;
                if seen.insert(key, ()).is_none() {
                    rows.push(row);
                }
            }
            Relation::new(schema, rows)
        }
    }
}

/// Stable multi-key sort with optional LIMIT. Keys must be concrete —
/// `ScalarKey`'s total order handles NULLs (smallest) and cross-numeric
/// comparison; symbolic values error.
fn sort_limit(rel: Relation, keys: &[(String, bool)], limit: Option<usize>) -> Result<Relation> {
    let key_idx: Vec<(usize, bool)> = keys
        .iter()
        .map(|(c, desc)| Ok((rel.schema().resolve(c)?, *desc)))
        .collect::<Result<_>>()?;
    let schema = rel.schema().clone();
    let mut decorated: Vec<(Vec<ScalarKey>, Row)> = rel
        .into_rows()
        .into_iter()
        .map(|row| {
            let key = key_idx
                .iter()
                .map(|&(i, _)| row[i].key())
                .collect::<Result<Vec<_>>>()?;
            Ok((key, row))
        })
        .collect::<Result<_>>()?;
    decorated.sort_by(|(a, _), (b, _)| {
        for ((ka, kb), &(_, desc)) in a.iter().zip(b.iter()).zip(&key_idx) {
            let ord = ka.cmp(kb);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut rows: Vec<Row> = decorated.into_iter().map(|(_, r)| r).collect();
    if let Some(n) = limit {
        rows.truncate(n);
    }
    Relation::new(schema, rows)
}

/// Hash equi-join. Key columns are resolved against their own side; if a
/// pair is written in the wrong order (`right_col, left_col`) it is
/// swapped automatically, matching how SQL `WHERE a.x = b.y` is agnostic
/// to operand order.
fn hash_join(left: Relation, right: Relation, on: &[(String, String)]) -> Result<Relation> {
    if on.is_empty() {
        return Err(EngineError::Plan(
            "join requires at least one key pair (cross joins must go through SQL lowering)"
                .into(),
        ));
    }
    let mut left_keys = Vec::with_capacity(on.len());
    let mut right_keys = Vec::with_capacity(on.len());
    for (a, b) in on {
        match (left.schema().resolve(a), right.schema().resolve(b)) {
            (Ok(ia), Ok(ib)) => {
                left_keys.push(ia);
                right_keys.push(ib);
            }
            _ => {
                // try swapped orientation
                let ia = left.schema().resolve(b)?;
                let ib = right.schema().resolve(a)?;
                left_keys.push(ia);
                right_keys.push(ib);
            }
        }
    }

    // Build on the smaller side by convention: right.
    let mut index: FxHashMap<Vec<ScalarKey>, Vec<usize>> = FxHashMap::default();
    for (i, row) in right.rows().iter().enumerate() {
        let key = right_keys
            .iter()
            .map(|&k| row[k].key())
            .collect::<Result<Vec<_>>>()?;
        index.entry(key).or_default().push(i);
    }

    let schema = left.schema().concat(right.schema());
    let mut rows = Vec::new();
    for lrow in left.rows() {
        let key = left_keys
            .iter()
            .map(|&k| lrow[k].key())
            .collect::<Result<Vec<_>>>()?;
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                let mut out = lrow.clone();
                out.extend(right.rows()[ri].iter().cloned());
                rows.push(out);
            }
        }
    }
    Relation::new(schema, rows)
}

/// One aggregate's state for one group. `Sum` and `Avg` own their running
/// total and every row's value is added **into** it ([`Value::add`] takes
/// both by value and updates a polynomial in place), so a symbolic `SUM`
/// costs one short update per row and holds the distinct monomials, never
/// the rows.
enum Acc {
    Sum(Option<Value>),
    Count(u64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg(Option<Value>, u64),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Count => Acc::Count(0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(None, 0),
        }
    }

    fn update(&mut self, v: Value) -> Result<()> {
        match self {
            Acc::Sum(acc) => {
                *acc = Some(match acc.take() {
                    None => v,
                    Some(sum) => sum.add(v)?,
                });
            }
            Acc::Count(n) => *n += 1,
            Acc::Min(acc) => {
                let replace = match acc {
                    None => true,
                    Some(prev) => v.compare(prev)? == std::cmp::Ordering::Less,
                };
                if replace {
                    *acc = Some(v);
                }
            }
            Acc::Max(acc) => {
                let replace = match acc {
                    None => true,
                    Some(prev) => v.compare(prev)? == std::cmp::Ordering::Greater,
                };
                if replace {
                    *acc = Some(v);
                }
            }
            Acc::Avg(acc, n) => {
                *acc = Some(match acc.take() {
                    None => v,
                    Some(sum) => sum.add(v)?,
                });
                *n += 1;
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Value> {
        Ok(match self {
            Acc::Sum(acc) => acc.unwrap_or(Value::Null),
            Acc::Count(n) => Value::Int(n as i64),
            Acc::Min(acc) | Acc::Max(acc) => acc.unwrap_or(Value::Null),
            Acc::Avg(None, _) => Value::Null,
            Acc::Avg(Some(sum), n) => sum.div(&Value::Int(n as i64))?,
        })
    }
}

fn aggregate(rel: Relation, group_by: &[String], aggs: &[Aggregate]) -> Result<Relation> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|c| rel.schema().resolve(c))
        .collect::<Result<_>>()?;
    let bound: Vec<_> = aggs
        .iter()
        .map(|a| a.expr.bind(rel.schema()))
        .collect::<Result<_>>()?;

    // Output schema: group columns (by output name) then aggregate names.
    let mut columns = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        columns.push(Column::new(
            g.rsplit_once('.').map(|(_, c)| c.to_owned()).unwrap_or_else(|| g.clone()),
        ));
    }
    for a in aggs {
        columns.push(Column::new(a.name.clone()));
    }
    let schema = Schema::from_columns(columns);

    // Group in first-seen order for deterministic output.
    let mut order: Vec<Vec<ScalarKey>> = Vec::new();
    let mut groups: FxHashMap<Vec<ScalarKey>, (Row, Vec<Acc>)> = FxHashMap::default();
    for row in rel.rows() {
        let key = group_idx
            .iter()
            .map(|&i| row[i].key())
            .collect::<Result<Vec<_>>>()?;
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (
                group_idx.iter().map(|&i| row[i].clone()).collect(),
                aggs.iter().map(|a| Acc::new(a.func)).collect(),
            )
        });
        for (acc, b) in entry.1.iter_mut().zip(&bound) {
            // COUNT doesn't need the value; everything else does.
            match acc {
                Acc::Count(_) => acc.update(Value::Null)?,
                _ => acc.update(b.eval(row)?)?,
            }
        }
    }

    let mut rows = Vec::with_capacity(order.len());
    if order.is_empty() && group_by.is_empty() {
        // Global aggregate over an empty input: one row of neutral values.
        let out: Row = aggs
            .iter()
            .map(|a| Acc::new(a.func).finish())
            .collect::<Result<_>>()?;
        rows.push(out);
    }
    for key in order {
        // Every key in `order` was inserted into `groups` above; a miss
        // would be an executor bug, surfaced as a typed error rather than
        // a panic so a malformed plan can never take the process down.
        let (mut head, accs) = groups.remove(&key).ok_or_else(|| {
            EngineError::Plan("aggregation invariant violated: grouped key lost before output".into())
        })?;
        for acc in accs {
            head.push(acc.finish()?);
        }
        rows.push(head);
    }
    Relation::new(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::predicate::{CmpOp, Pred};
    use cobra_util::Rat;

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(
            "t",
            Relation::from_rows(
                ["k", "v"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(20)],
                    vec![Value::Int(1), Value::Int(30)],
                ],
            )
            .unwrap(),
        );
        db.insert(
            "names",
            Relation::from_rows(
                ["id", "name"],
                vec![
                    vec![Value::Int(1), Value::str("one")],
                    vec![Value::Int(2), Value::str("two")],
                ],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn scan_qualifies_columns() {
        let db = db();
        let rel = execute(&db, &Plan::scan("t")).unwrap();
        assert_eq!(rel.schema().resolve("t.k").unwrap(), 0);
        let aliased = execute(&db, &Plan::scan_as("t", "x")).unwrap();
        assert!(aliased.schema().resolve("x.k").is_ok());
        assert!(execute(&db, &Plan::scan("missing")).is_err());
    }

    #[test]
    fn filter_and_project() {
        let db = db();
        let plan = Plan::scan("t")
            .filter(Pred::cmp(Expr::col("v"), CmpOp::Gt, Expr::lit(15)))
            .project(vec![(Expr::col("v").mul(Expr::lit(2)), "dbl".into())]);
        let rel = execute(&db, &plan).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0][0], Value::Int(40));
        assert_eq!(rel.schema().resolve("dbl").unwrap(), 0);
    }

    #[test]
    fn hash_join_matches_and_concatenates() {
        let db = db();
        let plan = Plan::scan("t").join(Plan::scan("names"), vec![("t.k", "names.id")]);
        let rel = execute(&db, &plan).unwrap();
        assert_eq!(rel.len(), 3);
        // every output row satisfies k == id
        let k = rel.schema().resolve("t.k").unwrap();
        let id = rel.schema().resolve("names.id").unwrap();
        for row in rel.rows() {
            assert_eq!(row[k], row[id]);
        }
    }

    #[test]
    fn join_key_orientation_is_flexible() {
        let db = db();
        // keys given as (right, left) still work
        let plan = Plan::scan("t").join(Plan::scan("names"), vec![("names.id", "t.k")]);
        assert_eq!(execute(&db, &plan).unwrap().len(), 3);
    }

    #[test]
    fn aggregate_sum_count_min_max_avg() {
        let db = db();
        let plan = Plan::scan("t").aggregate(
            vec!["k"],
            vec![
                (AggFunc::Sum, Expr::col("v"), "s"),
                (AggFunc::Count, Expr::col("v"), "c"),
                (AggFunc::Min, Expr::col("v"), "lo"),
                (AggFunc::Max, Expr::col("v"), "hi"),
                (AggFunc::Avg, Expr::col("v"), "avg"),
            ],
        );
        let rel = execute(&db, &plan).unwrap();
        assert_eq!(rel.len(), 2);
        // group k=1 appears first (first-seen order)
        let row = &rel.rows()[0];
        assert_eq!(row[0], Value::Int(1));
        assert_eq!(row[1], Value::Int(40));
        assert_eq!(row[2], Value::Int(2));
        assert_eq!(row[3], Value::Int(10));
        assert_eq!(row[4], Value::Int(30));
        assert_eq!(row[5], Value::Num(rat("20")));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let mut db = Database::new();
        db.insert("e", Relation::empty(Schema::new(["x"])));
        let plan = Plan::scan("e").aggregate(
            vec![],
            vec![
                (AggFunc::Count, Expr::col("x"), "c"),
                (AggFunc::Sum, Expr::col("x"), "s"),
            ],
        );
        let rel = execute(&db, &plan).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.rows()[0][0], Value::Int(0));
        assert_eq!(rel.rows()[0][1], Value::Null);
    }

    #[test]
    fn symbolic_sum_produces_polynomial() {
        use cobra_provenance::{Monomial, Polynomial, VarRegistry};
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let mut db = Database::new();
        db.insert(
            "p",
            Relation::from_rows(
                ["g", "val"],
                vec![
                    vec![
                        Value::Int(1),
                        Value::Poly(Polynomial::term(Monomial::var(x), rat("2"))),
                    ],
                    vec![
                        Value::Int(1),
                        Value::Poly(Polynomial::term(Monomial::var(y), rat("3"))),
                    ],
                    vec![Value::Int(2), Value::Num(rat("5"))],
                ],
            )
            .unwrap(),
        );
        let plan = Plan::scan("p").aggregate(
            vec!["g"],
            vec![(AggFunc::Sum, Expr::col("val"), "total")],
        );
        let rel = execute(&db, &plan).unwrap();
        match &rel.rows()[0][1] {
            Value::Poly(p) => {
                assert_eq!(p.num_terms(), 2);
                assert_eq!(p.coeff_of(&Monomial::var(y)), rat("3"));
            }
            other => panic!("expected poly, got {other:?}"),
        }
        assert_eq!(rel.rows()[1][1], Value::Num(rat("5")));
    }

    /// The running sum is updated in place, whatever arrives in whatever
    /// order: scalars before and after the first polynomial, a monomial
    /// seen again, and one that cancels.
    #[test]
    fn sum_and_avg_accumulate_mixed_rows_in_place() {
        use cobra_provenance::{Monomial, Polynomial, VarRegistry};
        let mut reg = VarRegistry::new();
        let [x, y] = [reg.var("x"), reg.var("y")].map(Monomial::var);
        let term = |m: &Monomial, c: &str| Value::Poly(Polynomial::term(m.clone(), rat(c)));
        let rows = vec![
            vec![Value::Int(1)],
            vec![term(&x, "2")],
            vec![Value::Num(rat("0.5"))],
            vec![term(&y, "4")],
            vec![term(&x, "3")],
            vec![term(&y, "-4")],
        ];
        let mut db = Database::new();
        db.insert("p", Relation::from_rows(["val"], rows).unwrap());
        let plan = Plan::scan("p").aggregate(
            vec![],
            vec![
                (AggFunc::Sum, Expr::col("val"), "total"),
                (AggFunc::Avg, Expr::col("val"), "mean"),
            ],
        );
        let rel = execute(&db, &plan).unwrap();
        let total = Polynomial::from_terms([(Monomial::one(), rat("1.5")), (x, rat("5"))]);
        assert_eq!(rel.rows()[0][1], Value::Poly(total.scale(&Rat::new(1, 6))));
        assert_eq!(rel.rows()[0][0], Value::Poly(total));
    }

    #[test]
    fn sort_orders_and_limits() {
        let db = db();
        let plan = Plan::scan("t").sort(vec![("v", true)], Some(2));
        let rel = execute(&db, &plan).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0][1], Value::Int(30));
        assert_eq!(rel.rows()[1][1], Value::Int(20));
        // ascending multi-key: k asc, then v desc breaks the k=1 tie
        let plan = Plan::scan("t").sort(vec![("k", false), ("v", true)], None);
        let rel = execute(&db, &plan).unwrap();
        let vs: Vec<&Value> = rel.rows().iter().map(|r| &r[1]).collect();
        assert_eq!(vs, vec![&Value::Int(30), &Value::Int(10), &Value::Int(20)]);
        // explain mentions the sort
        assert!(plan.explain().contains("Sort by [k, v DESC]"));
    }

    #[test]
    fn sort_is_stable_and_handles_nulls() {
        let mut db = Database::new();
        db.insert(
            "t",
            Relation::from_rows(
                ["k", "tag"],
                vec![
                    vec![Value::Int(1), Value::str("first")],
                    vec![Value::Null, Value::str("null-row")],
                    vec![Value::Int(1), Value::str("second")],
                ],
            )
            .unwrap(),
        );
        let rel = execute(&db, &Plan::scan("t").sort(vec![("k", false)], None)).unwrap();
        // NULL sorts first; equal keys keep input order (stable)
        assert_eq!(rel.rows()[0][1], Value::str("null-row"));
        assert_eq!(rel.rows()[1][1], Value::str("first"));
        assert_eq!(rel.rows()[2][1], Value::str("second"));
    }

    #[test]
    fn group_key_cannot_be_symbolic() {
        use cobra_provenance::Polynomial;
        let mut db = Database::new();
        db.insert(
            "p",
            Relation::from_rows(
                ["g"],
                vec![vec![Value::Poly(Polynomial::var(cobra_provenance::Var(0)))]],
            )
            .unwrap(),
        );
        let plan = Plan::scan("p").aggregate(vec!["g"], vec![]);
        assert!(matches!(
            execute(&db, &plan),
            Err(EngineError::SymbolicValue(_))
        ));
    }
}
