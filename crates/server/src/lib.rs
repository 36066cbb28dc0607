//! # cobra-server
//!
//! COBRA-as-a-service: a persistent sweep server over
//! [`cobra_core::CobraSession`]s.
//!
//! The server speaks length-prefixed JSON frames
//! ([`cobra_util::framed`] + [`json`]) over plain TCP — `std`-only, so
//! the offline build needs no new dependencies. It holds a
//! [`store::SessionStore`] of prepared sessions keyed by dataset id;
//! each session caches its compiled full-side programs, its Pareto
//! `CutFrontier`, and warm per-bound compressed engines, so repeated
//! `select_bound` / `assign` / `sweep_fold_f64` requests skip the
//! compile pipeline entirely.
//!
//! Two tiers back the store: the in-memory tier of live per-session
//! worker threads, and — when the server is given a store directory — a
//! disk tier of [`cobra_provenance::persist`] artifacts. A `prepare`
//! with `persist:true` snapshots the session
//! ([`cobra_core::snapshot_session`]); a later `prepare` (or any
//! request) naming that id re-loads it by mmap, zero-copy, through
//! [`cobra_core::restore_session`]. A re-loaded session answers reads at
//! once: the artifact carries its selection (format v3), so a `sweep` or
//! `assign` sent straight after the re-load needs no `select_bound`
//! first, and the selected engines come back compiled. The in-memory
//! tier is optionally capped ([`ServerConfig::max_sessions`]): past the
//! cap the
//! least-recently-used session is retired to the disk tier (and keeps
//! answering from there), or refused with a typed `store_full` error
//! when no disk tier exists. A graceful `shutdown` drains the whole
//! in-memory tier to disk first, so live sessions survive a restart
//! without each having asked for `persist`.
//!
//! `prepare` accepts a `dag:true` option arming **algebraic
//! compression** ([`cobra_core::CobraSession::compile_dag`]): engines
//! factor into shared-subterm DAG programs as they compile, reducing
//! multiply counts without changing any result bit. `stats` reports the
//! armed flag and built slot counts.
//!
//! Live sessions accept **incremental provenance updates**: an
//! `apply_delta` request patches the session's polynomials in place
//! through [`cobra_core::CobraSession::apply_delta`] — compiled engines
//! are spliced, plans replanned incrementally — so the session keeps
//! answering, bit-identical to a full rebuild, without re-preparing.
//!
//! Concurrent deadline-free `sweep_fold_f64` requests against the same
//! session are **coalesced**: the worker drains its queue and fuses
//! them into one batched sweep over the deduplicated union grid
//! (bit-identical to serial execution — see [`store`]). Requests may
//! carry a `deadline_ms`; sweeps that exceed it return a typed partial
//! over the completed prefix. A panic inside a request is caught and
//! returned as an error reply; the session stays live.
//!
//! ```no_run
//! use cobra_server::{serve, ServerConfig};
//!
//! let server = serve(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join(); // serve until a shutdown request
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod proto;
pub mod store;

use crate::json::Json;
use crate::proto::{err_reply, ok_reply, parse_request, Request};
use crate::store::{Job, SessionStore};
use cobra_util::framed::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use cobra_util::KernelTarget;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Store directory enabling the disk tier (persist / re-load).
    pub store_dir: Option<PathBuf>,
    /// Batch-kernel target every session worker runs under
    /// ([`cobra_util::kernel`]): `Auto` resolves per CPU at runtime
    /// (AVX2 when available, else scalar), `Scalar` forces the portable
    /// kernels. Reported by `stats` replies.
    pub kernel: KernelTarget,
    /// Cap on live in-memory sessions (`None` = unbounded). Past the
    /// cap the least-recently-used session is retired: persisted into
    /// `store_dir` (whence it transparently re-loads on its next
    /// request), or — with no `store_dir` — the new session is refused
    /// with a typed `store_full` error.
    pub max_sessions: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            store_dir: None,
            kernel: KernelTarget::default(),
            max_sessions: None,
        }
    }
}

/// A running server: the bound address plus handles to stop it.
pub struct Server {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (a `shutdown` request, or
    /// [`Server::shutdown`] from another thread via a cloned handle).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting connections and waits for the accept loop.
    ///
    /// In-flight connections finish their current request; session
    /// workers retire once the store is dropped.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Starts the server and returns once the listener is bound.
pub fn serve(config: ServerConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let store = Arc::new(SessionStore::with_limits(
        config.store_dir,
        config.kernel,
        config.max_sessions,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = stop.clone();
    let accept = std::thread::Builder::new()
        .name("cobra-accept".to_owned())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let store = store.clone();
                let stop = accept_stop.clone();
                let _ = std::thread::Builder::new()
                    .name("cobra-conn".to_owned())
                    .spawn(move || serve_connection(stream, &store, &stop, addr));
            }
        })?;
    Ok(Server {
        addr,
        accept: Some(accept),
        stop,
    })
}

fn serve_connection(
    mut stream: TcpStream,
    store: &SessionStore,
    stop: &Arc<AtomicBool>,
    addr: SocketAddr,
) {
    loop {
        let frame = match read_frame(&mut stream, DEFAULT_MAX_FRAME) {
            Ok(Some(bytes)) => bytes,
            Ok(None) | Err(_) => return, // clean EOF or broken pipe
        };
        let (reply, shutdown) = handle_frame(&frame, store);
        let sent = write_frame(&mut stream, reply.as_bytes()).is_ok();
        if shutdown {
            // The acknowledgement goes on the wire *before* the listener
            // is unblocked: a `cobra serve` process joins only the accept
            // loop and exits when it returns, so replying first is what
            // keeps the ack ahead of process teardown.
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            return;
        }
        if !sent || stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Answers one frame; the boolean is `true` for a `shutdown` request,
/// which the connection loop acts on only after the reply is written.
fn handle_frame(frame: &[u8], store: &SessionStore) -> (String, bool) {
    let text = match std::str::from_utf8(frame) {
        Ok(t) => t,
        Err(_) => {
            return (
                err_reply(&Json::Null, "bad_request", "frame is not UTF-8"),
                false,
            )
        }
    };
    let envelope = match parse_request(text) {
        Ok(e) => e,
        Err(msg) => return (err_reply(&Json::Null, "bad_request", &msg), false),
    };
    let id = envelope.id;
    let mut shutdown = false;
    let body = match envelope.request {
        Request::Prepare {
            session,
            polys,
            tree,
            persist,
            dag,
        } => store.prepare(&session, polys.as_deref(), tree.as_deref(), persist, dag),
        Request::Assign { session, scenario } => store.dispatch(&session, |reply| Job::Assign {
            scenario: scenario.clone(),
            reply,
        }),
        Request::SweepFoldF64 {
            session,
            scenarios,
            deadline_ms,
        } => store.dispatch(&session, |reply| Job::Sweep {
            scenarios: scenarios.clone(),
            deadline_ms,
            reply,
        }),
        Request::SelectBound { session, bound } => {
            store.dispatch(&session, |reply| Job::SelectBound { bound, reply })
        }
        Request::ApplyDelta { session, ops } => {
            store.dispatch(&session, |reply| Job::ApplyDelta {
                ops: ops.clone(),
                reply,
            })
        }
        Request::Stats { session } => store.dispatch(&session, |reply| Job::Stats { reply }),
        Request::Panic { session } => store.dispatch(&session, |reply| Job::Panic { reply }),
        Request::Shutdown => {
            shutdown = true;
            // Graceful shutdown drains the in-memory tier to disk (when a
            // store directory is armed), so sessions prepared without
            // `persist` survive a restart.
            let persisted = store.persist_all();
            Ok(vec![
                ("stopping".to_owned(), Json::Bool(true)),
                ("persisted".to_owned(), Json::Num(persisted as f64)),
            ])
        }
    };
    let reply = match body {
        Ok(members) => ok_reply(&id, members),
        Err((kind, message)) => err_reply(&id, &kind, &message),
    };
    (reply, shutdown)
}
