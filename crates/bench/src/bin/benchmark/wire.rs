//! The benchmark's wire client: length-prefixed JSON frames over TCP,
//! built so it can neither flatter nor slander the server.
//!
//! * one `write_all` per request frame (header and payload in one
//!   buffer), so the client never splits a request across segments the
//!   way a two-write sender would;
//! * `TCP_NODELAY` on its own socket, so its requests leave at once —
//!   what the *server's* socket does with replies is the server's to
//!   answer for;
//! * latency runs from just before the write to the last reply byte,
//!   excluding request encoding and reply parsing;
//! * every reply's `id` and `ok` are validated — a refused request is an
//!   error here, never a fast sample.

use crate::spans;
use crate::surface::{self, Json, Rat};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Replies larger than this are a protocol error, not a measurement.
const MAX_REPLY: usize = 64 << 20;

#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    /// The reply was not a JSON object echoing the request id.
    Protocol(String),
    /// `{"ok":false}` — the request was refused or failed server-side.
    Refused {
        kind: String,
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Protocol(m) => write!(f, "protocol: {m}"),
            WireError::Refused { kind, message } => write!(f, "refused ({kind}): {message}"),
        }
    }
}

/// One validated reply.
pub struct Reply {
    pub body: Json,
    pub latency: Duration,
}

/// A request ready to send: the frame (header + payload) and its id.
pub struct Request {
    frame: Vec<u8>,
    id: u64,
    op: &'static str,
}

impl Request {
    /// Encodes `{"id":id,"op":op,...members}` into one frame.
    pub fn new(id: u64, op: &'static str, members: Vec<(String, Json)>) -> Request {
        let mut all = vec![
            ("id".to_owned(), Json::Num(id as f64)),
            ("op".to_owned(), Json::Str(op.to_owned())),
        ];
        all.extend(members);
        let payload = Json::Obj(all).to_string().into_bytes();
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        Request { frame, id, op }
    }

    /// The JSON text of the request (for the layer probes).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.frame[4..]).expect("requests are encoded from JSON text")
    }
}

pub struct Client {
    stream: TcpStream,
}

fn span_name(op: &str) -> &'static str {
    match op {
        "prepare" => "wire.roundtrip.prepare",
        "select_bound" => "wire.roundtrip.select_bound",
        "assign" => "wire.roundtrip.assign",
        "sweep_fold_f64" => "wire.roundtrip.sweep",
        "apply_delta" => "wire.roundtrip.apply_delta",
        _ => "wire.roundtrip.other",
    }
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        stream.set_nodelay(true).map_err(WireError::Io)?;
        Ok(Client { stream })
    }

    /// Sends `request` and waits for its reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, WireError> {
        let (raw, latency) = spans::span(span_name(request.op), || {
            let start = Instant::now();
            let raw = self.exchange(&request.frame);
            (raw, start.elapsed())
        });
        let raw = raw.map_err(WireError::Io)?;
        spans::count("wire.requests", 1);
        spans::count("wire.request_bytes", request.frame.len() as u64);
        spans::count("wire.reply_bytes", raw.len() as u64 + 4);
        let text = std::str::from_utf8(&raw)
            .map_err(|_| WireError::Protocol("reply is not UTF-8".into()))?;
        let body = surface::json_parse(text).map_err(WireError::Protocol)?;
        if body.get("id").and_then(Json::as_u64) != Some(request.id) {
            return Err(WireError::Protocol(format!(
                "reply id {:?} does not echo request id {}",
                body.get("id"),
                request.id
            )));
        }
        match body.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(Reply { body, latency }),
            Some(false) => Err(WireError::Refused {
                kind: body
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned(),
                message: body
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            }),
            None => Err(WireError::Protocol(
                "reply carries no boolean \"ok\"".into(),
            )),
        }
    }

    fn exchange(&mut self, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        self.stream.write_all(frame)?;
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_REPLY {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("reply frame of {len} bytes"),
            ));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        Ok(payload)
    }
}

fn s(v: &str) -> Json {
    Json::Str(v.to_owned())
}

fn bindings_json(bindings: &[(String, Rat)]) -> Json {
    Json::Arr(
        bindings
            .iter()
            .map(|(var, f)| Json::Arr(vec![s(var), s(&f.to_string())]))
            .collect(),
    )
}

/// `prepare` from `(polys, tree)` text, or — with no source — from the
/// artifact the server's disk tier holds under `session`.
pub fn prepare(id: u64, session: &str, source: Option<(&str, &str)>, dag: bool) -> Request {
    let mut members = vec![("session".into(), s(session))];
    if let Some((polys, tree)) = source {
        members.push(("polys".into(), s(polys)));
        members.push(("tree".into(), s(tree)));
    }
    members.push(("dag".into(), Json::Bool(dag)));
    Request::new(id, "prepare", members)
}

pub fn select_bound(id: u64, session: &str, bound: u64) -> Request {
    Request::new(
        id,
        "select_bound",
        vec![
            ("session".into(), s(session)),
            ("bound".into(), Json::Num(bound as f64)),
        ],
    )
}

pub fn sweep(id: u64, session: &str, scenarios: &[(String, Rat)]) -> Request {
    Request::new(
        id,
        "sweep_fold_f64",
        vec![
            ("session".into(), s(session)),
            ("scenarios".into(), bindings_json(scenarios)),
        ],
    )
}

pub fn assign(id: u64, session: &str, scenario: &[(String, Rat)]) -> Request {
    let members = scenario
        .iter()
        .map(|(var, f)| (var.clone(), s(&f.to_string())))
        .collect();
    Request::new(
        id,
        "assign",
        vec![
            ("session".into(), s(session)),
            ("scenario".into(), Json::Obj(members)),
        ],
    )
}

pub fn stats(id: u64, session: &str) -> Request {
    Request::new(id, "stats", vec![("session".into(), s(session))])
}

/// `apply_delta` with `set` edits `(poly label, term text)`.
pub fn apply_delta(id: u64, session: &str, sets: &[(String, String)]) -> Request {
    let ops = sets
        .iter()
        .map(|(poly, term)| {
            Json::Obj(vec![
                ("poly".into(), s(poly)),
                ("action".into(), s("set")),
                ("term".into(), s(term)),
            ])
        })
        .collect();
    Request::new(
        id,
        "apply_delta",
        vec![
            ("session".into(), s(session)),
            ("ops".into(), Json::Arr(ops)),
        ],
    )
}

/// The `[full, compressed]` totals of a sweep reply.
pub fn sweep_rows(reply: &Json) -> Result<Vec<(f64, f64)>, String> {
    reply
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("sweep reply without rows")?
        .iter()
        .map(|row| match row.as_arr() {
            Some([f, c]) => f
                .as_f64()
                .zip(c.as_f64())
                .ok_or_else(|| "non-numeric sweep row".to_owned()),
            _ => Err("sweep rows are [full, compressed] pairs".to_owned()),
        })
        .collect()
}

/// The exact `(full, compressed)` pairs of an assign reply.
pub fn assign_rows(reply: &Json) -> Result<Vec<(Rat, Rat)>, String> {
    let field = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("assign row without {key:?}"))
            .and_then(|text| Rat::parse(text).map_err(|e| e.to_string()))
    };
    reply
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("assign reply without rows")?
        .iter()
        .map(|row| Ok((field(row, "full")?, field(row, "compressed")?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLYS: &str = "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3";
    const TREE: &str = "Plans(Standard(p1,p2), v)";

    #[test]
    fn client_round_trips_against_an_in_process_server() {
        let server = surface::serve(None, None).unwrap();
        let mut client = Client::connect(surface::server_addr(&server)).unwrap();

        let prepared = client
            .call(&prepare(1, "t", Some((POLYS, TREE)), false))
            .unwrap();
        assert_eq!(
            prepared.body.get("source").and_then(Json::as_str),
            Some("built")
        );
        assert!(prepared.latency > Duration::ZERO);
        client.call(&select_bound(2, "t", 2)).unwrap();

        let scenarios = vec![
            ("p1".to_owned(), Rat::new(4, 5)),
            ("m3".to_owned(), Rat::new(11, 10)),
        ];
        let swept = client.call(&sweep(3, "t", &scenarios)).unwrap();
        let rows = sweep_rows(&swept.body).unwrap();
        assert_eq!(rows.len(), 2);
        // m3 sits outside the tree: both sides give 541.42 (exactly so
        // in the `assign` below; to rounding in these `f64` totals).
        assert!((rows[1].0 - rows[1].1).abs() < 1e-9);
        assert!((rows[1].0 - (208.8 + 42.0 + 1.1 * (240.0 + 24.2))).abs() < 1e-9);

        let assigned = client.call(&assign(4, "t", &scenarios[1..])).unwrap();
        let exact = assign_rows(&assigned.body).unwrap();
        assert_eq!(
            exact,
            [(Rat::parse("541.42").unwrap(), Rat::parse("541.42").unwrap())]
        );

        let patched = client
            .call(&apply_delta(5, "t", &[("P1".into(), "250*p1*m3".into())]))
            .unwrap();
        assert_eq!(patched.body.get("structural"), Some(&Json::Bool(false)));
        client.call(&stats(6, "t")).unwrap();

        // a refusal is an error carrying the server's kind, never a sample
        match client.call(&stats(7, "nope")) {
            Err(WireError::Refused { kind, .. }) => assert_eq!(kind, "unknown_session"),
            other => panic!("expected a refusal, got {:?}", other.map(|r| r.body)),
        }
        // the connection survives a refusal
        client.call(&stats(8, "t")).unwrap();

        drop(client);
        surface::server_shutdown(server);
    }

    #[test]
    fn a_frame_is_one_buffer_with_its_header() {
        let req = stats(9, "t");
        assert_eq!(
            u32::from_le_bytes(req.frame[..4].try_into().unwrap()) as usize,
            req.frame.len() - 4
        );
        assert_eq!(req.text(), r#"{"id":9,"op":"stats","session":"t"}"#);
    }
}
