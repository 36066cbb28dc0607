//! End-to-end tests for the COBRA sweep server: real TCP connections
//! against an ephemeral-port server, exercising the session store, the
//! request coalescer, the persistence tier, deadlines, and fault
//! isolation.

use cobra::core::{snapshot_session, CobraSession};
use cobra::provenance::persist::fnv1a64;
use cobra::provenance::Valuation;
use cobra::server::json::{parse, Json};
use cobra::server::{serve, ServerConfig};
use cobra::util::framed::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use cobra::util::Rat;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

const POLYS: &str = "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3";
const TREE: &str = "Plans(Standard(p1,p2), v)";

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connecting to the test server")
}

fn request(stream: &mut TcpStream, body: &str) -> Json {
    write_frame(stream, body.as_bytes()).unwrap();
    let bytes = read_frame(stream, DEFAULT_MAX_FRAME)
        .expect("reading the reply frame")
        .expect("server closed the connection mid-request");
    parse(std::str::from_utf8(&bytes).unwrap()).expect("reply is valid JSON")
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "expected an ok reply, got {reply:?}"
    );
}

fn prepare(stream: &mut TcpStream, session: &str, persist: bool) -> Json {
    let body = Json::Obj(vec![
        ("op".into(), Json::Str("prepare".into())),
        ("session".into(), Json::Str(session.into())),
        ("polys".into(), Json::Str(POLYS.into())),
        ("tree".into(), Json::Str(TREE.into())),
        ("persist".into(), Json::Bool(persist)),
    ]);
    request(stream, &body.to_string())
}

fn select_bound(stream: &mut TcpStream, session: &str, bound: u64) -> Json {
    request(
        stream,
        &format!(r#"{{"op":"select_bound","session":{session:?},"bound":{bound}}}"#),
    )
}

fn sweep_request(session: &str, scenarios: &[(&str, &str)], deadline_ms: Option<u64>) -> String {
    let pairs: Vec<Json> = scenarios
        .iter()
        .map(|(var, factor)| {
            Json::Arr(vec![
                Json::Str((*var).to_owned()),
                Json::Str((*factor).to_owned()),
            ])
        })
        .collect();
    let mut members = vec![
        ("op".to_owned(), Json::Str("sweep_fold_f64".into())),
        ("session".to_owned(), Json::Str(session.to_owned())),
        ("scenarios".to_owned(), Json::Arr(pairs)),
    ];
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms".to_owned(), Json::Num(ms as f64)));
    }
    Json::Obj(members).to_string()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cobra-server-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn end_to_end_session_lifecycle() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut c = connect(addr);

    let reply = prepare(&mut c, "demo", false);
    assert_ok(&reply);
    assert_eq!(reply.get("source").and_then(Json::as_str), Some("built"));
    assert!(reply.get("frontier_points").unwrap().as_u64().unwrap() >= 2);

    // Idempotent re-prepare hits the in-memory tier.
    let reply = prepare(&mut c, "demo", false);
    assert_eq!(reply.get("source").and_then(Json::as_str), Some("cached"));

    let reply = select_bound(&mut c, "demo", 2);
    assert_ok(&reply);
    assert_eq!(reply.get("compressed_size"), Some(&Json::Num(2.0)));

    let reply = request(
        &mut c,
        r#"{"op":"assign","session":"demo","scenario":{"m3":"0.8"}}"#,
    );
    assert_ok(&reply);
    assert_eq!(reply.get("exact"), Some(&Json::Bool(true)));
    let rows = reply.get("rows").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 1);
    // 208.8 + 240*0.8 + 42 + 24.2*0.8 = 462.16 exactly, both sides.
    assert_eq!(
        rows[0].get("full").and_then(Json::as_str),
        Some("462.16")
    );
    assert_eq!(rows[0].get("full"), rows[0].get("compressed"));

    let reply = request(
        &mut c,
        &sweep_request("demo", &[("m3", "0.8"), ("m1", "1.2")], None),
    );
    assert_ok(&reply);
    assert_eq!(reply.get("partial"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("rows").unwrap().as_arr().unwrap().len(), 2);

    let reply = request(&mut c, r#"{"op":"stats","session":"demo"}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("trees"), Some(&Json::Num(1.0)));
    assert_eq!(reply.get("bound"), Some(&Json::Num(2.0)));
    assert_eq!(reply.get("hydrated"), Some(&Json::Bool(false)));

    // Unknown sessions are typed errors, not hangs.
    let reply = request(&mut c, r#"{"op":"stats","session":"nope"}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("unknown_session")
    );

    let reply = request(&mut c, r#"{"id":9,"op":"shutdown"}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("id"), Some(&Json::Num(9.0)));
    server.join();
}

#[test]
fn coalesced_concurrent_sweeps_match_sequential_bit_for_bit() {
    let server = serve(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut c = connect(addr);
    assert_ok(&prepare(&mut c, "coal", false));
    assert_ok(&select_bound(&mut c, "coal", 2));

    // Eight distinct sweep requests with overlapping perturbations, so
    // fused union grids genuinely dedup across requests.
    let requests: Vec<Vec<(String, String)>> = (0..8)
        .map(|i| {
            (0..6)
                .map(|j| {
                    let var = ["m1", "m3", "v", "p1"][(i + j) % 4];
                    (var.to_owned(), format!("{}/10", 8 + ((i * j) % 5)))
                })
                .collect()
        })
        .collect();

    // Sequential baseline: one request at a time on one connection.
    let baseline: Vec<Json> = requests
        .iter()
        .map(|scenarios| {
            let pairs: Vec<(&str, &str)> = scenarios
                .iter()
                .map(|(v, f)| (v.as_str(), f.as_str()))
                .collect();
            let reply = request(&mut c, &sweep_request("coal", &pairs, None));
            assert_ok(&reply);
            reply.get("rows").unwrap().clone()
        })
        .collect();

    // Concurrent: one connection per request, all in flight at once, so
    // the session worker drains them in batches and fuses sweeps.
    for round in 0..3 {
        let replies: Vec<Json> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|scenarios| {
                    scope.spawn(move || {
                        let pairs: Vec<(&str, &str)> = scenarios
                            .iter()
                            .map(|(v, f)| (v.as_str(), f.as_str()))
                            .collect();
                        let mut c = connect(addr);
                        request(&mut c, &sweep_request("coal", &pairs, None))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, reply) in replies.iter().enumerate() {
            assert_ok(reply);
            assert_eq!(
                reply.get("rows"),
                Some(&baseline[i]),
                "round {round}, request {i}: coalesced rows diverged from sequential"
            );
        }
    }
    server.shutdown();
}

#[test]
fn persisted_session_reloads_by_mmap_and_answers_identically() {
    let dir = scratch_dir("persist");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First server: build, persist, and capture reference answers.
    let server = serve(config.clone()).unwrap();
    let mut c = connect(server.addr());
    let reply = prepare(&mut c, "tier", true);
    assert_ok(&reply);
    assert_eq!(reply.get("persisted"), Some(&Json::Bool(true)));
    assert!(dir.join("tier.cobra").is_file());

    let fresh_select = select_bound(&mut c, "tier", 2);
    assert_ok(&fresh_select);
    let fresh_assign = request(
        &mut c,
        r#"{"op":"assign","session":"tier","scenario":{"m3":"0.8","m1":"6/5"}}"#,
    );
    assert_ok(&fresh_assign);
    let fresh_sweep = request(
        &mut c,
        &sweep_request("tier", &[("m3", "0.8"), ("v", "2"), ("m1", "6/5")], None),
    );
    assert_ok(&fresh_sweep);
    server.shutdown();

    // Second server, same store: the first request re-hydrates the
    // session from the artifact (mmap, zero-copy) without re-compiling.
    let server = serve(config).unwrap();
    let mut c = connect(server.addr());
    let reply = request(&mut c, r#"{"op":"prepare","session":"tier"}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("source").and_then(Json::as_str), Some("loaded"));

    let stats = request(&mut c, r#"{"op":"stats","session":"tier"}"#);
    assert_eq!(stats.get("hydrated"), Some(&Json::Bool(true)));

    let loaded_select = select_bound(&mut c, "tier", 2);
    let loaded_assign = request(
        &mut c,
        r#"{"op":"assign","session":"tier","scenario":{"m3":"0.8","m1":"6/5"}}"#,
    );
    let loaded_sweep = request(
        &mut c,
        &sweep_request("tier", &[("m3", "0.8"), ("v", "2"), ("m1", "6/5")], None),
    );
    for (fresh, loaded) in [
        (&fresh_select, &loaded_select),
        (&fresh_assign, &loaded_assign),
        (&fresh_sweep, &loaded_sweep),
    ] {
        assert_eq!(fresh, loaded, "re-hydrated session diverged");
    }

    // The disk tier also serves requests that *skip* prepare entirely:
    // a third server re-hydrates lazily on first dispatch.
    server.shutdown();
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = connect(server.addr());
    let lazy_select = select_bound(&mut c, "tier", 2);
    assert_eq!(&lazy_select, &fresh_select);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_returns_typed_partial_and_session_stays_live() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = connect(server.addr());
    assert_ok(&prepare(&mut c, "dl", false));
    assert_ok(&select_bound(&mut c, "dl", 2));

    // 2000 scenarios under a zero deadline: the budget poll fires before
    // the first block, so the sweep stops early with an exact prefix.
    let scenarios: Vec<(String, String)> = (0..2000)
        .map(|i| ("m1".to_owned(), format!("{}/1000", 1000 + i)))
        .collect();
    let pairs: Vec<(&str, &str)> = scenarios
        .iter()
        .map(|(v, f)| (v.as_str(), f.as_str()))
        .collect();
    let reply = request(&mut c, &sweep_request("dl", &pairs, Some(0)));
    assert_ok(&reply);
    assert_eq!(reply.get("partial"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("stop").and_then(Json::as_str), Some("deadline"));
    let done = reply.get("done").unwrap().as_u64().unwrap();
    assert!(done < 2000, "a zero deadline must interrupt the sweep");
    assert_eq!(
        reply.get("rows").unwrap().as_arr().unwrap().len(),
        done as usize,
        "partial rows must cover exactly the completed prefix"
    );

    // A generous deadline completes; rows are bit-identical to the
    // deadline-free run.
    let complete = request(&mut c, &sweep_request("dl", &pairs[..50], Some(60_000)));
    assert_ok(&complete);
    assert_eq!(complete.get("partial"), Some(&Json::Bool(false)));
    let unbudgeted = request(&mut c, &sweep_request("dl", &pairs[..50], None));
    assert_eq!(complete.get("rows"), unbudgeted.get("rows"));

    // The session kept serving throughout.
    let reply = request(
        &mut c,
        r#"{"op":"assign","session":"dl","scenario":{"m3":"0.8"}}"#,
    );
    assert_ok(&reply);
    server.shutdown();
}

#[test]
fn worker_panic_is_isolated_to_an_error_reply() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = connect(server.addr());
    assert_ok(&prepare(&mut c, "flt", false));

    let reply = request(&mut c, r#"{"id":"p1","op":"panic","session":"flt"}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("panic"));
    assert_eq!(reply.get("id").and_then(Json::as_str), Some("p1"));

    // Same session, same worker: still serving.
    let reply = request(&mut c, r#"{"op":"stats","session":"flt"}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("trees"), Some(&Json::Num(1.0)));
    let reply = select_bound(&mut c, "flt", 2);
    assert_ok(&reply);
    server.shutdown();
}

/// Two servers pinned to different batch kernels (`--kernel scalar` vs
/// `--kernel auto`, AVX2 wherever the CPU has it) must answer
/// `sweep_fold_f64` — sequential *and* coalesced-concurrent —
/// bit-identically: the AVX2 kernel performs the scalar kernel's exact
/// multiply/add sequence, four lanes at a time.
/// `stats` reports which kernel each worker resolved.
#[test]
fn forced_kernel_servers_reply_bit_identically() {
    use cobra::util::{kernel, KernelTarget};

    let kernel_of = |target: KernelTarget| {
        let server = serve(ServerConfig {
            kernel: target,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.addr();
        let mut c = connect(addr);
        assert_ok(&prepare(&mut c, "kern", false));
        assert_ok(&select_bound(&mut c, "kern", 2));

        // One plain sweep…
        let sweep = request(
            &mut c,
            &sweep_request("kern", &[("m3", "0.8"), ("m1", "6/5"), ("v", "2")], None),
        );
        assert_ok(&sweep);

        // …and one coalesced round: four concurrent connections, fused
        // by the session worker into a union-grid sweep.
        let concurrent: Vec<Json> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    scope.spawn(move || {
                        let factor = format!("{}/10", 7 + i);
                        let mut c = connect(addr);
                        request(
                            &mut c,
                            &sweep_request("kern", &[("m3", factor.as_str()), ("m1", "6/5")], None),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for reply in &concurrent {
            assert_ok(reply);
        }

        let stats = request(&mut c, r#"{"op":"stats","session":"kern"}"#);
        assert_ok(&stats);
        let resolved = stats
            .get("kernel")
            .and_then(Json::as_str)
            .expect("stats reports the resolved kernel")
            .to_owned();
        server.shutdown();
        (sweep, concurrent, resolved)
    };

    let (scalar_sweep, scalar_conc, scalar_name) = kernel_of(KernelTarget::Scalar);
    assert_eq!(scalar_name, "scalar");

    let (avx2_sweep, avx2_conc, avx2_name) = kernel_of(KernelTarget::Auto);
    if kernel::avx2_available() {
        assert_eq!(avx2_name, "avx2");
    } else {
        assert_eq!(avx2_name, "scalar"); // older CPUs resolve to scalar
    }

    assert_eq!(
        scalar_sweep.get("rows"),
        avx2_sweep.get("rows"),
        "scalar and avx2 servers must agree bit for bit"
    );
    for (i, (s, a)) in scalar_conc.iter().zip(&avx2_conc).enumerate() {
        assert_eq!(
            s.get("rows"),
            a.get("rows"),
            "coalesced request {i} diverged between kernels"
        );
    }
}

#[test]
fn apply_delta_patches_live_sessions_over_the_wire() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = connect(server.addr());
    assert_ok(&prepare(&mut c, "inc", false));
    assert_ok(&select_bound(&mut c, "inc", 2));

    // Coefficient-only edit: the p1*m1 revenue 208.8 → 250.
    let reply = request(
        &mut c,
        r#"{"op":"apply_delta","session":"inc","ops":[{"poly":"P1","action":"set","term":"250*p1*m1"}]}"#,
    );
    assert_ok(&reply);
    assert_eq!(reply.get("structural"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("terms_touched"), Some(&Json::Num(1.0)));

    // Structural edit: a tuple delete plus a tuple insert.
    let reply = request(
        &mut c,
        r#"{"op":"apply_delta","session":"inc","ops":[{"poly":"P1","action":"delete","term":"v*m3"},{"poly":"P1","action":"insert","term":"10*p2*m1"}]}"#,
    );
    assert_ok(&reply);
    assert_eq!(reply.get("structural"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("polys_touched"), Some(&Json::Num(1.0)));

    // The patched session answers exactly like a server that built the
    // post-delta polynomials from scratch.
    let assign = r#"{"op":"assign","session":"inc","scenario":{"m3":"0.8","m1":"6/5"}}"#;
    let patched_assign = request(&mut c, assign);
    assert_ok(&patched_assign);
    let patched_sweep = request(
        &mut c,
        &sweep_request("inc", &[("m3", "0.8"), ("m1", "6/5"), ("v", "2")], None),
    );
    assert_ok(&patched_sweep);

    let fresh_server = serve(ServerConfig::default()).unwrap();
    let mut f = connect(fresh_server.addr());
    let body = Json::Obj(vec![
        ("op".into(), Json::Str("prepare".into())),
        ("session".into(), Json::Str("inc".into())),
        (
            "polys".into(),
            Json::Str("P1 = 250*p1*m1 + 240*p1*m3 + 42*v*m1 + 10*p2*m1".into()),
        ),
        ("tree".into(), Json::Str(TREE.into())),
    ]);
    assert_ok(&request(&mut f, &body.to_string()));
    assert_ok(&select_bound(&mut f, "inc", 2));
    let fresh_assign = request(&mut f, assign);
    let fresh_sweep = request(
        &mut f,
        &sweep_request("inc", &[("m3", "0.8"), ("m1", "6/5"), ("v", "2")], None),
    );
    assert_eq!(patched_assign.get("rows"), fresh_assign.get("rows"));
    assert_eq!(patched_sweep.get("rows"), fresh_sweep.get("rows"));

    // Bad deltas are typed errors and the session keeps serving.
    let reply = request(
        &mut c,
        r#"{"op":"apply_delta","session":"inc","ops":[{"poly":"Nope","action":"set","term":"1*p1*m1"}]}"#,
    );
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("bad_request"));
    assert_ok(&request(&mut c, r#"{"op":"stats","session":"inc"}"#));

    server.shutdown();
    fresh_server.shutdown();
}

#[test]
fn leaf_spanning_delta_is_a_typed_error_that_changes_nothing() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = connect(server.addr());
    assert_ok(&prepare(&mut c, "span", false));
    assert_ok(&select_bound(&mut c, "span", 4));
    let sweep = sweep_request("span", &[("p1", "0.8"), ("m1", "6/5"), ("v", "2")], None);
    let before = request(&mut c, &sweep);
    assert_ok(&before);

    // p1*p2 mentions two leaves of the tree: the whole delta, its valid
    // coefficient edit included, is rejected before anything changes.
    let reply = request(
        &mut c,
        r#"{"op":"apply_delta","session":"span","ops":[{"poly":"P1","action":"set","term":"300*p1*m1"},{"poly":"P1","action":"insert","term":"1000*p1*p2*m1"}]}"#,
    );
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("delta"));

    let after = request(&mut c, &sweep);
    assert_ok(&after);
    assert_eq!(before.get("rows"), after.get("rows"));
    server.shutdown();
}

#[test]
fn session_cap_evicts_lru_to_store_and_reloads_transparently() {
    let dir = scratch_dir("cap");
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        max_sessions: Some(2),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = connect(server.addr());
    for id in ["ca", "cb", "cc"] {
        assert_ok(&prepare(&mut c, id, false));
    }
    // "ca" was least recently used: its own worker persisted it into
    // the disk tier on the way out.
    assert!(dir.join("ca.cobra").is_file());

    // …and it keeps answering — the next request re-hydrates it by
    // mmap, exactly like an explicitly persisted session.
    let stats = request(&mut c, r#"{"op":"stats","session":"ca"}"#);
    assert_ok(&stats);
    assert_eq!(stats.get("hydrated"), Some(&Json::Bool(true)));
    let reply = select_bound(&mut c, "ca", 2);
    assert_ok(&reply);
    assert_eq!(reply.get("compressed_size"), Some(&Json::Num(2.0)));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_retired_session_answers_a_sweep_straight_after_reload() {
    let dir = scratch_dir("retired-sweep");
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        max_sessions: Some(1),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = connect(server.addr());
    let sweep = sweep_request("ra", &[("m3", "0.8"), ("v", "2"), ("m1", "6/5")], None);
    assert_ok(&prepare(&mut c, "ra", false));
    assert_ok(&select_bound(&mut c, "ra", 2));
    let live = request(&mut c, &sweep);
    assert_ok(&live);
    // Admitting "rb" retires "ra" to the disk tier, selection included…
    assert_ok(&prepare(&mut c, "rb", false));
    assert!(dir.join("ra.cobra").is_file());
    // …so the sweep that re-loads it is answered with no select_bound.
    let reloaded = request(&mut c, &sweep);
    assert_ok(&reloaded);
    assert_eq!(reloaded.get("rows"), live.get("rows"));
    let stats = request(&mut c, r#"{"op":"stats","session":"ra"}"#);
    assert_eq!(stats.get("bound"), Some(&Json::Num(2.0)));
    assert_eq!(stats.get("hydrated"), Some(&Json::Bool(true)));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_artifact_is_a_typed_error_and_the_connection_keeps_answering() {
    // A checksum-valid artifact whose base valuation has a zero
    // denominator: the loader must refuse it, not panic.
    let mut session = CobraSession::from_text(POLYS).unwrap();
    session.add_tree_text(TREE).unwrap();
    session.compress_frontier().unwrap();
    session.set_base_valuation(Valuation::with_default(Rat::new(7, 3)));
    let mut bytes = snapshot_session(&session).unwrap();
    let default: Vec<u8> = [7i128, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
    let at = bytes.windows(32).position(|w| w == default.as_slice()).unwrap() + 16;
    bytes[at..at + 16].fill(0);
    let checksum = fnv1a64(&bytes[16..]);
    bytes[8..16].copy_from_slice(&checksum.to_le_bytes());
    let dir = scratch_dir("corrupt");
    std::fs::write(dir.join("bad.cobra"), &bytes).unwrap();

    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = connect(server.addr());
    let reply = request(&mut c, r#"{"op":"prepare","session":"bad"}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("session"));
    // The same connection is still served.
    assert_ok(&prepare(&mut c, "good", false));
    assert_ok(&select_bound(&mut c, "good", 2));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_cap_without_store_is_a_typed_store_full_error() {
    let server = serve(ServerConfig {
        max_sessions: Some(1),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = connect(server.addr());
    assert_ok(&prepare(&mut c, "one", false));
    let reply = prepare(&mut c, "two", false);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("store_full"));
    // The incumbent session is untouched and keeps serving.
    assert_ok(&request(&mut c, r#"{"op":"stats","session":"one"}"#));
    server.shutdown();
}

#[test]
fn graceful_shutdown_persists_live_sessions() {
    let dir = scratch_dir("drain");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = serve(config.clone()).unwrap();
    let mut c = connect(server.addr());
    // Prepared WITHOUT persist: only the shutdown drain writes it out.
    assert_ok(&prepare(&mut c, "drain", false));
    let fresh_select = select_bound(&mut c, "drain", 2);
    assert_ok(&fresh_select);
    let assign = r#"{"op":"assign","session":"drain","scenario":{"m3":"0.8","m1":"6/5"}}"#;
    let fresh_assign = request(&mut c, assign);
    assert_ok(&fresh_assign);

    let reply = request(&mut c, r#"{"op":"shutdown"}"#);
    assert_ok(&reply);
    assert_eq!(reply.get("persisted"), Some(&Json::Num(1.0)));
    server.join();
    assert!(dir.join("drain.cobra").is_file());

    // A restarted server answers from the drained artifact — no
    // re-prepare, bit-identical replies.
    let server = serve(config).unwrap();
    let mut c = connect(server.addr());
    let loaded_select = select_bound(&mut c, "drain", 2);
    assert_eq!(&loaded_select, &fresh_select);
    assert_eq!(
        request(&mut c, assign).get("rows"),
        fresh_assign.get("rows")
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dag_armed_sessions_answer_identically_and_report_stats() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = connect(server.addr());
    assert_ok(&prepare(&mut c, "flat", false));
    assert_ok(&select_bound(&mut c, "flat", 2));

    let body = Json::Obj(vec![
        ("op".into(), Json::Str("prepare".into())),
        ("session".into(), Json::Str("dg".into())),
        ("polys".into(), Json::Str(POLYS.into())),
        ("tree".into(), Json::Str(TREE.into())),
        ("dag".into(), Json::Bool(true)),
    ]);
    let reply = request(&mut c, &body.to_string());
    assert_ok(&reply);
    assert_eq!(reply.get("dag"), Some(&Json::Bool(true)));
    assert_ok(&select_bound(&mut c, "dg", 2));

    // The exact path through the DAG programs is bit-identical to flat.
    let assign_req = |session: &str| {
        format!(r#"{{"op":"assign","session":{session:?},"scenario":{{"m3":"0.8","m1":"6/5"}}}}"#)
    };
    let flat_assign = request(&mut c, &assign_req("flat"));
    let dag_assign = request(&mut c, &assign_req("dg"));
    assert_ok(&dag_assign);
    assert_eq!(flat_assign.get("rows"), dag_assign.get("rows"));

    // f64 sweeps run the slot programs end to end (certified by the
    // slot-aware error bounds; exact equality is pinned in dag_diff.rs).
    let dag_sweep = request(
        &mut c,
        &sweep_request("dg", &[("m3", "0.8"), ("m1", "6/5"), ("v", "2")], None),
    );
    assert_ok(&dag_sweep);
    assert_eq!(dag_sweep.get("partial"), Some(&Json::Bool(false)));
    assert_eq!(dag_sweep.get("rows").unwrap().as_arr().unwrap().len(), 3);

    let stats = request(&mut c, r#"{"op":"stats","session":"dg"}"#);
    assert_ok(&stats);
    assert_eq!(stats.get("dag"), Some(&Json::Bool(true)));
    // select_bound warmed every engine, so slot counts are built.
    assert!(stats.get("dag_slots").unwrap().as_u64().is_some());
    let flat_stats = request(&mut c, r#"{"op":"stats","session":"flat"}"#);
    assert_eq!(flat_stats.get("dag"), Some(&Json::Bool(false)));
    server.shutdown();
}

/// Text from the network that used to end the whole process (a stack
/// overflow on the connection or worker thread: `(((…`, `---…`, `[[[…`;
/// or a product of sums that expands past memory), drop the connection (a
/// panic inside `Rat::add`), or be accepted with a wrapped coefficient or
/// exponent (release builds). Each is now a
/// `bad_request` naming the byte, and the same server — same connection
/// — answers the next request.
#[test]
fn hostile_text_is_a_bad_request_and_the_server_keeps_answering() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = connect(server.addr());
    assert_ok(&prepare(&mut c, "live", false));
    let stats = r#"{"op":"stats","session":"live"}"#;

    let max = i128::MAX.to_string();
    // 30 KB that would expand to 10⁹ terms: refused at its second `(`.
    let sum = |v: &str| {
        let vars: Vec<String> = (1..=1000).map(|i| format!("{v}{i}")).collect();
        format!("({})", vars.join("+"))
    };
    let product = format!("{}*{}*{}", sum("x"), sum("y"), sum("z"));
    let second_paren = product.find(")*(").unwrap() + 2;
    // 100 KB of nesting, not the 1 MB of the parsers' own tests: the JSON
    // string scan in front of the polynomial parser is still quadratic
    // (ROADMAP, "Fix the serving path"), and 100,000 levels were already
    // far more than a 2 MiB thread stack held.
    let hostile = [
        ("(".repeat(100_000), 256),
        ("-".repeat(100_000), 100_000),
        (format!("{max}*{max}*p1"), 40),
        ("p1^4294967295 * p1^4294967295".to_owned(), 16),
        (format!("{max}*p1 + {max}*p1"), 45),
        (product, second_paren),
    ];
    for (text, offset) in &hostile {
        // as the polynomials of a new session, parsed on the connection
        // thread (the text starts 4 bytes in, after "P = ") …
        let body = Json::Obj(vec![
            ("op".into(), Json::Str("prepare".into())),
            ("session".into(), Json::Str("hostile".into())),
            ("polys".into(), Json::Str(format!("P = {text}"))),
            ("tree".into(), Json::Str(TREE.into())),
        ]);
        let reply = request(&mut c, &body.to_string());
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some("bad_request")
        );
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        let at = format!("parse error at byte {}:", offset + 4);
        assert!(
            error.contains(&at),
            "{at} not in {:?}",
            &error[..error.len().min(200)]
        );
        assert_ok(&request(&mut c, stats));

        // … and as a delta term, parsed by the session's worker thread
        let body = Json::Obj(vec![
            ("op".into(), Json::Str("apply_delta".into())),
            ("session".into(), Json::Str("live".into())),
            (
                "ops".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("poly".into(), Json::Str("P1".into())),
                    ("action".into(), Json::Str("set".into())),
                    ("term".into(), Json::Str(text.clone())),
                ])]),
            ),
        ]);
        let reply = request(&mut c, &body.to_string());
        assert_eq!(
            reply.get("kind").and_then(Json::as_str),
            Some("bad_request")
        );
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(&format!("parse error at byte {offset}:")));
        assert_ok(&request(&mut c, stats));
    }

    // JSON nesting is capped too (array → value → array recursed once
    // per `[`).
    let reply = request(&mut c, &"[".repeat(100_000));
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("bad_request")
    );
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("nesting deeper than 128"), "{error}");
    assert_ok(&request(&mut c, stats));

    // Nothing hostile was installed, and the live session is unharmed.
    let reply = request(&mut c, r#"{"op":"stats","session":"hostile"}"#);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_ok(&select_bound(&mut c, "live", 2));
    assert_ok(&request(
        &mut c,
        r#"{"op":"assign","session":"live","scenario":{"m3":"0.8"}}"#,
    ));
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_without_killing_the_connection() {
    let server = serve(ServerConfig::default()).unwrap();
    let mut c = connect(server.addr());

    let reply = request(&mut c, "{not json");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("bad_request"));

    let reply = request(&mut c, r#"{"op":"warp"}"#);
    assert_eq!(reply.get("kind").and_then(Json::as_str), Some("bad_request"));

    // The connection survives both.
    assert_ok(&prepare(&mut c, "ok", false));
    server.shutdown();
}
