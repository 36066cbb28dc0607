//! The wire protocol: length-prefixed JSON request/reply frames.
//!
//! Every frame (see [`cobra_util::framed`]) carries one JSON object. A
//! request names an `op`, echoes back whatever `id` it carried, and —
//! except for `prepare` and `shutdown` — addresses a prepared `session`.
//! Exact rationals travel as strings (`"0.8"`, `"4/5"`); `f64` results
//! travel as JSON numbers.
//!
//! | op               | fields                                                    |
//! |------------------|-----------------------------------------------------------|
//! | `prepare`        | `session`, `polys`?, `tree`?, `persist`?, `dag`?           |
//! | `assign`         | `session`, `scenario` (object: var → factor string)        |
//! | `sweep_fold_f64` | `session`, `scenarios` (array of `[var, factor]`), `deadline_ms`? |
//! | `select_bound`   | `session`, `bound`                                         |
//! | `apply_delta`    | `session`, `ops` (array of `{poly, action, term}`)         |
//! | `stats`          | `session`                                                  |
//! | `panic`          | `session` (debug: fault-injection probe)                   |
//! | `shutdown`       | —                                                          |
//!
//! `apply_delta` ops edit a live session's provenance in place: `poly`
//! names a polynomial label, `action` is `add` (alias `insert`), `set`,
//! or `remove` (alias `delete`), and `term` is a `coeff*monomial`
//! product in the text interchange format (for `remove`, the
//! coefficient is ignored — `"p1*m1"` suffices). Term text is parsed
//! against the *session's* registry by the worker, so new variables
//! intern on arrival.
//!
//! Replies are `{"id":…,"ok":true,…}` or
//! `{"id":…,"ok":false,"kind":…,"error":…}`. Budgeted sweeps that hit
//! their deadline return a **typed partial**: `"partial":true` with the
//! exact fold over the completed scenario prefix and the stop reason.
//! A request the client got wrong — JSON that does not parse or nests
//! deeper than 128, an unknown op or field type, polynomial text
//! (`polys`, `term`) that does not parse, nests deeper than 256 or
//! overflows `i128` — is `kind: "bad_request"` with the byte offset, and
//! the connection stays open.

use crate::json::Json;
use cobra_util::Rat;

/// What a wire delta op does to its monomial's coefficient (the
/// text-level mirror of [`cobra_core::DeltaAction`], before coefficients
/// are parsed against the target session's registry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireDeltaAction {
    /// Add the term's coefficient (tuple insert; wire names `add` /
    /// `insert`).
    Add,
    /// Set the coefficient to the term's value (wire name `set`).
    Set,
    /// Remove the monomial (tuple delete; wire names `remove` /
    /// `delete`).
    Remove,
}

/// One unparsed delta edit from an `apply_delta` request. The `term`
/// text is resolved against the session registry by the session worker,
/// not here — the registry lives with the session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDeltaOp {
    /// Label of the target polynomial.
    pub poly: String,
    /// The edit to perform.
    pub action: WireDeltaAction,
    /// `coeff*monomial` product in the text interchange format.
    pub term: String,
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Create (or re-load) a session.
    Prepare {
        /// Session id (`[A-Za-z0-9_-]+`).
        session: String,
        /// Polynomials in the text interchange format; omitted to load a
        /// previously persisted session from the store.
        polys: Option<String>,
        /// Abstraction-tree text (required with `polys`).
        tree: Option<String>,
        /// Persist the prepared session to the store directory.
        persist: bool,
        /// Arm algebraic (DAG) compression: engines factor into
        /// shared-subterm programs as they compile.
        dag: bool,
    },
    /// Evaluate one exact scenario, full vs compressed.
    Assign {
        /// Target session.
        session: String,
        /// Variable-name → factor bindings.
        scenario: Vec<(String, Rat)>,
    },
    /// Fold an `f64` sweep over single-variable perturbation scenarios.
    SweepFoldF64 {
        /// Target session.
        session: String,
        /// `(var, factor)` perturbations, one scenario each.
        scenarios: Vec<(String, Rat)>,
        /// Wall-clock budget; exceeded sweeps return a typed partial.
        deadline_ms: Option<u64>,
    },
    /// Re-select the session's compression for a new size bound.
    SelectBound {
        /// Target session.
        session: String,
        /// Bound on the compressed monomial count.
        bound: u64,
    },
    /// Patch the session's provenance in place (incremental update).
    ApplyDelta {
        /// Target session.
        session: String,
        /// Term-level edits, applied atomically in order.
        ops: Vec<WireDeltaOp>,
    },
    /// Session statistics.
    Stats {
        /// Target session.
        session: String,
    },
    /// Debug: panic inside the session worker (exercises fault isolation).
    Panic {
        /// Target session.
        session: String,
    },
    /// Stop accepting connections.
    Shutdown,
}

/// A request plus the `id` echoed into its reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id (echoed verbatim; `null` if absent).
    pub id: Json,
    /// The request.
    pub request: Request,
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string {key:?}"))
}

fn rat_value(v: &Json, what: &str) -> Result<Rat, String> {
    let text = v
        .as_str()
        .ok_or_else(|| format!("{what}: factors are strings like \"0.8\""))?;
    Rat::parse(text).map_err(|e| format!("{what}: {e}"))
}

/// Parses one request frame.
pub fn parse_request(text: &str) -> Result<Envelope, String> {
    let obj = crate::json::parse(text)?;
    let id = obj.get("id").cloned().unwrap_or(Json::Null);
    let op = str_field(&obj, "op")?;
    let request = match op.as_str() {
        "prepare" => Request::Prepare {
            session: str_field(&obj, "session")?,
            polys: obj.get("polys").and_then(Json::as_str).map(str::to_owned),
            tree: obj.get("tree").and_then(Json::as_str).map(str::to_owned),
            persist: obj
                .get("persist")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            dag: obj.get("dag").and_then(Json::as_bool).unwrap_or(false),
        },
        "assign" => {
            let scenario = match obj.get("scenario") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), rat_value(v, "scenario")?)))
                    .collect::<Result<Vec<_>, String>>()?,
                _ => return Err("assign requires a \"scenario\" object".into()),
            };
            Request::Assign {
                session: str_field(&obj, "session")?,
                scenario,
            }
        }
        "sweep_fold_f64" => {
            let scenarios = obj
                .get("scenarios")
                .and_then(Json::as_arr)
                .ok_or("sweep_fold_f64 requires a \"scenarios\" array")?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or("scenarios entries are [var, factor] pairs")?;
                    let var = pair[0]
                        .as_str()
                        .ok_or("scenario variable must be a string")?;
                    Ok((var.to_owned(), rat_value(&pair[1], "scenarios")?))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Request::SweepFoldF64 {
                session: str_field(&obj, "session")?,
                scenarios,
                deadline_ms: obj.get("deadline_ms").and_then(Json::as_u64),
            }
        }
        "select_bound" => Request::SelectBound {
            session: str_field(&obj, "session")?,
            bound: obj
                .get("bound")
                .and_then(Json::as_u64)
                .ok_or("select_bound requires an integer \"bound\"")?,
        },
        "apply_delta" => {
            let ops = obj
                .get("ops")
                .and_then(Json::as_arr)
                .ok_or("apply_delta requires an \"ops\" array")?
                .iter()
                .map(|op| {
                    let action = match str_field(op, "action")?.as_str() {
                        "add" | "insert" => WireDeltaAction::Add,
                        "set" => WireDeltaAction::Set,
                        "remove" | "delete" => WireDeltaAction::Remove,
                        other => {
                            return Err(format!(
                                "delta action must be add|set|remove (or insert|delete), got {other:?}"
                            ))
                        }
                    };
                    Ok(WireDeltaOp {
                        poly: str_field(op, "poly")?,
                        action,
                        term: str_field(op, "term")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            if ops.is_empty() {
                return Err("apply_delta requires at least one op".into());
            }
            Request::ApplyDelta {
                session: str_field(&obj, "session")?,
                ops,
            }
        }
        "stats" => Request::Stats {
            session: str_field(&obj, "session")?,
        },
        "panic" => Request::Panic {
            session: str_field(&obj, "session")?,
        },
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Envelope { id, request })
}

/// Builds an `ok` reply from payload members (the `id` is prepended).
pub fn ok_reply(id: &Json, members: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::Bool(true)),
    ];
    all.extend(members);
    Json::Obj(all).to_string()
}

/// Builds an error reply with a machine-readable `kind`.
pub fn err_reply(id: &Json, kind: &str, message: &str) -> String {
    Json::Obj(vec![
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Json::Bool(false)),
        ("kind".to_owned(), Json::Str(kind.to_owned())),
        ("error".to_owned(), Json::Str(message.to_owned())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let e = parse_request(
            r#"{"id":1,"op":"prepare","session":"t","polys":"P = 2*a","tree":"T(a)","persist":true}"#,
        )
        .unwrap();
        assert_eq!(e.id, Json::Num(1.0));
        assert!(matches!(
            e.request,
            Request::Prepare {
                persist: true,
                dag: false,
                ..
            }
        ));
        let e = parse_request(
            r#"{"op":"prepare","session":"t","polys":"P = 2*a","tree":"T(a)","dag":true}"#,
        )
        .unwrap();
        assert!(matches!(e.request, Request::Prepare { dag: true, .. }));

        let e = parse_request(
            r#"{"op":"assign","session":"t","scenario":{"m3":"0.8","v":"5/4"}}"#,
        )
        .unwrap();
        assert_eq!(e.id, Json::Null);
        match e.request {
            Request::Assign { scenario, .. } => {
                assert_eq!(scenario[0].0, "m3");
                assert_eq!(scenario[0].1, Rat::parse("0.8").unwrap());
                assert_eq!(scenario[1].1, Rat::new(5, 4));
            }
            other => panic!("{other:?}"),
        }

        let e = parse_request(
            r#"{"id":"x","op":"sweep_fold_f64","session":"t","scenarios":[["p1","0.8"],["v","2"]],"deadline_ms":50}"#,
        )
        .unwrap();
        match e.request {
            Request::SweepFoldF64 {
                scenarios,
                deadline_ms,
                ..
            } => {
                assert_eq!(scenarios.len(), 2);
                assert_eq!(deadline_ms, Some(50));
            }
            other => panic!("{other:?}"),
        }

        assert!(matches!(
            parse_request(r#"{"op":"select_bound","session":"t","bound":6}"#)
                .unwrap()
                .request,
            Request::SelectBound { bound: 6, .. }
        ));
        let e = parse_request(
            r#"{"op":"apply_delta","session":"t","ops":[
                {"poly":"P1","action":"set","term":"250*p1*m1"},
                {"poly":"P2","action":"insert","term":"7*b1*m9"},
                {"poly":"P2","action":"delete","term":"e*m1"}]}"#,
        )
        .unwrap();
        match e.request {
            Request::ApplyDelta { ops, .. } => {
                assert_eq!(ops.len(), 3);
                assert_eq!(ops[0].action, WireDeltaAction::Set);
                assert_eq!(ops[0].poly, "P1");
                assert_eq!(ops[0].term, "250*p1*m1");
                assert_eq!(ops[1].action, WireDeltaAction::Add);
                assert_eq!(ops[2].action, WireDeltaAction::Remove);
            }
            other => panic!("{other:?}"),
        }

        assert!(matches!(
            parse_request(r#"{"op":"stats","session":"t"}"#).unwrap().request,
            Request::Stats { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap().request,
            Request::Shutdown
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"assign","session":"t"}"#,
            r#"{"op":"assign","session":"t","scenario":{"m3":0.8}}"#,
            r#"{"op":"select_bound","session":"t","bound":"six"}"#,
            r#"{"op":"sweep_fold_f64","session":"t","scenarios":[["p1"]]}"#,
            r#"{"op":"apply_delta","session":"t"}"#,
            r#"{"op":"apply_delta","session":"t","ops":[]}"#,
            r#"{"op":"apply_delta","session":"t","ops":[{"poly":"P1","action":"zap","term":"a"}]}"#,
            r#"{"op":"apply_delta","session":"t","ops":[{"poly":"P1","action":"set"}]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn reply_builders_emit_valid_json() {
        let ok = ok_reply(&Json::Num(3.0), vec![("n".into(), Json::Num(1.0))]);
        let v = crate::json::parse(&ok).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Num(1.0)));
        let err = err_reply(&Json::Null, "session", "no such session");
        let v = crate::json::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("session"));
    }
}
