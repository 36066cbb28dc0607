//! The tiered session store and per-session workers.
//!
//! Sessions are keyed by a client-chosen dataset id. The in-memory tier
//! is a map of live workers (one thread per session, owning its
//! [`CobraSession`]); the disk tier is a directory of
//! [`cobra_provenance::persist`] artifacts written by `prepare … persist`
//! and re-loaded — zero-copy, by mmap — on the first request that misses
//! the in-memory tier. An artifact carries its session's selection, so
//! the request that triggered the re-load is answered straight away.
//!
//! ## Capacity
//!
//! The in-memory tier is optionally capped
//! ([`SessionStore::with_limits`]): admitting a session past the cap
//! retires the least-recently-used worker, which persists its own
//! session into the disk tier before exiting, so evicted ids keep
//! answering — the next request re-hydrates them by mmap. A capped
//! store *without* a disk tier refuses new sessions with a typed
//! `store_full` error rather than growing without bound.
//!
//! ## Coalescing
//!
//! Each worker drains its queue in batches. Within a batch, maximal runs
//! of *deadline-free* `sweep_fold_f64` jobs are **fused**: their
//! perturbation scenarios are deduplicated into one union grid, the
//! engine sweeps the union once, and every request is answered from its
//! own slice of the shared rows. Per-scenario lane results are
//! independent of batch composition, so a fused reply is bit-identical
//! to a solo one. Jobs with a deadline run solo under their own
//! [`SweepBudget`]; mutating jobs (`select_bound`) form batch
//! boundaries, preserving arrival-order semantics.
//!
//! ## Fault isolation
//!
//! Every job (or fused group) runs under `catch_unwind`: a panic becomes
//! an `{"ok":false,"kind":"panic"}` reply to the affected requests and
//! the worker keeps serving (the session mutates only through its own
//! API, so an unwound job leaves it consistent).

use crate::json::Json;
use crate::proto::{WireDeltaAction, WireDeltaOp};
use cobra_core::{restore_session, snapshot_session, Approx, CobraSession, CoreError, PolyDelta,
    ScenarioSet, SweepBudget, SweepOutcome};
use cobra_provenance::persist::{write_file, PersistError};
use cobra_provenance::{parse_poly, parse_polyset, LoadedArtifact, Valuation, VarRegistry};
use cobra_util::{kernel, KernelTarget, Rat};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// Reply body: `ok` members, or `(kind, message)` for errors.
pub type ReplyBody = Result<Vec<(String, Json)>, (String, String)>;

/// Per-scenario `(full, compressed)` totals from a sweep fold.
type SweepRows = Vec<(f64, f64)>;

/// One queued sweep: its scenarios plus where the reply goes.
type QueuedSweep = (Vec<(String, Rat)>, Sender<ReplyBody>);

/// One queued request for a session worker.
pub enum Job {
    /// Exact scenario evaluation.
    Assign {
        /// Variable-name → factor bindings.
        scenario: Vec<(String, Rat)>,
        /// Reply channel.
        reply: Sender<ReplyBody>,
    },
    /// `f64` perturbation sweep (fused with queue neighbors when
    /// deadline-free).
    Sweep {
        /// `(var, factor)` single-variable perturbations.
        scenarios: Vec<(String, Rat)>,
        /// Wall-clock budget.
        deadline_ms: Option<u64>,
        /// Reply channel.
        reply: Sender<ReplyBody>,
    },
    /// Bound re-selection (batch boundary).
    SelectBound {
        /// New bound.
        bound: u64,
        /// Reply channel.
        reply: Sender<ReplyBody>,
    },
    /// Incremental provenance update (batch boundary, like
    /// `select_bound`: it mutates the session).
    ApplyDelta {
        /// Unparsed term-level edits; the worker resolves labels and
        /// term text against its session.
        ops: Vec<WireDeltaOp>,
        /// Reply channel.
        reply: Sender<ReplyBody>,
    },
    /// Cheap statistics.
    Stats {
        /// Reply channel.
        reply: Sender<ReplyBody>,
    },
    /// Eviction: persist the session to `path` and exit the worker.
    /// Sent only by the store's LRU capacity enforcement; on a persist
    /// failure the worker replies with the error and *keeps serving*.
    Retire {
        /// Artifact path to snapshot the session into.
        path: PathBuf,
        /// Reply channel.
        reply: Sender<ReplyBody>,
    },
    /// Debug: deliberately panic in the worker (fault-isolation probe).
    Panic {
        /// Reply channel.
        reply: Sender<ReplyBody>,
    },
}

struct SessionHandle {
    tx: Sender<Job>,
}

/// The in-memory tier: live workers plus a recency order for LRU
/// eviction (front = least recently used).
#[derive(Default)]
struct LiveTier {
    map: HashMap<String, SessionHandle>,
    recency: Vec<String>,
}

impl LiveTier {
    /// Marks `id` most recently used (no-op if it is not live).
    fn touch(&mut self, id: &str) {
        if let Some(pos) = self.recency.iter().position(|r| r == id) {
            let entry = self.recency.remove(pos);
            self.recency.push(entry);
        }
    }

    fn insert(&mut self, id: String, handle: SessionHandle) {
        self.recency.retain(|r| r != &id);
        self.recency.push(id.clone());
        self.map.insert(id, handle);
    }

    fn remove(&mut self, id: &str) -> Option<SessionHandle> {
        self.recency.retain(|r| r != id);
        self.map.remove(id)
    }

    fn pop_lru(&mut self) -> Option<(String, SessionHandle)> {
        let id = self.recency.first()?.clone();
        let handle = self.remove(&id)?;
        Some((id, handle))
    }
}

/// The tiered session store.
pub struct SessionStore {
    dir: Option<PathBuf>,
    /// Batch-kernel target every session worker runs under (scoped via
    /// [`cobra_util::kernel::with_target`] around the worker loop, since
    /// kernel overrides are thread-local).
    kernel: KernelTarget,
    /// In-memory tier cap; `None` is unbounded. Reaching the cap evicts
    /// the least-recently-used session: persisted to the disk tier when
    /// the store has a directory (whence it transparently re-loads on
    /// the next request), a typed `store_full` error when it does not.
    max_sessions: Option<usize>,
    sessions: Mutex<LiveTier>,
}

fn session_err(e: CoreError) -> (String, String) {
    let kind = match &e {
        CoreError::InfeasibleBound { .. } => "infeasible_bound",
        CoreError::ExactOverflow(_) => "exact_overflow",
        CoreError::Delta(_) => "delta",
        _ => "session",
    };
    (kind.to_owned(), e.to_string())
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl SessionStore {
    /// Creates a store; `dir` enables the disk tier. Session workers
    /// inherit the kernel target in effect on the calling thread
    /// (`COBRA_KERNEL`, or a scoped
    /// [`cobra_util::kernel::with_target`]).
    pub fn new(dir: Option<PathBuf>) -> SessionStore {
        SessionStore::with_limits(dir, kernel::target(), None)
    }

    /// [`new`](Self::new) with an explicit batch-kernel target for every
    /// session worker this store spawns, plus a cap on live sessions.
    ///
    /// With `max_sessions: Some(n)`, admitting session `n + 1` first
    /// retires the least-recently-used live session: its worker
    /// snapshots the session into the disk tier and exits, and later
    /// requests naming the evicted id re-hydrate it by mmap exactly like
    /// a `persist`ed one. Without a store directory there is nowhere to
    /// evict *to*, so hitting the cap is a typed `store_full` error
    /// instead of unbounded memory growth.
    pub fn with_limits(
        dir: Option<PathBuf>,
        target: KernelTarget,
        max_sessions: Option<usize>,
    ) -> SessionStore {
        SessionStore {
            dir,
            kernel: target,
            max_sessions,
            sessions: Mutex::new(LiveTier::default()),
        }
    }

    fn artifact_path(&self, id: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{id}.cobra")))
    }

    /// Prepares a session: builds it from polynomial + tree text, or —
    /// when `polys` is omitted — re-hydrates it from the disk tier.
    /// Returns the reply body.
    pub fn prepare(
        &self,
        id: &str,
        polys: Option<&str>,
        tree: Option<&str>,
        persist: bool,
        dag: bool,
    ) -> ReplyBody {
        if !valid_id(id) {
            return Err((
                "bad_request".into(),
                "session ids are 1-64 chars of [A-Za-z0-9_-]".into(),
            ));
        }
        {
            let mut sessions = self.sessions.lock().unwrap();
            if sessions.map.contains_key(id) {
                sessions.touch(id);
                return Ok(vec![
                    ("session".into(), Json::Str(id.to_owned())),
                    ("source".into(), Json::Str("cached".into())),
                ]);
            }
        }
        let (session, source) = match polys {
            Some(polys) => {
                let tree = tree.ok_or_else(|| {
                    ("bad_request".to_owned(), "prepare with polys requires a tree".to_owned())
                })?;
                // Malformed polynomial text is the client's mistake, like
                // malformed JSON: `bad_request`, with the byte offset.
                let mut reg = VarRegistry::new();
                let set = parse_polyset(polys, &mut reg)
                    .map_err(|e| ("bad_request".to_owned(), format!("polys: {e}")))?;
                let mut s = CobraSession::new(reg, set);
                s.add_tree_text(tree).map_err(session_err)?;
                s.compress_frontier().map_err(session_err)?;
                if dag {
                    // Armed before any snapshot, so the flag persists and
                    // re-loads armed (the programs rewrite lazily).
                    s.set_dag_mode(true);
                }
                if persist {
                    let path = self.artifact_path(id).ok_or_else(|| {
                        (
                            "bad_request".to_owned(),
                            "persist requested but the server has no store directory".to_owned(),
                        )
                    })?;
                    let bytes = snapshot_session(&s).map_err(session_err)?;
                    write_file(&path, &bytes).map_err(persist_io_err)?;
                }
                (s, "built")
            }
            None => {
                let mut s = self.load_from_disk(id)?;
                if dag {
                    s.set_dag_mode(true);
                }
                (s, "loaded")
            }
        };
        let info = session.info();
        let points = info.frontier_points.unwrap_or(0);
        let dag_armed = info.dag;
        self.insert_worker(id, session)?;
        Ok(vec![
            ("session".into(), Json::Str(id.to_owned())),
            ("source".into(), Json::Str(source.into())),
            ("frontier_points".into(), Json::Num(points as f64)),
            ("persisted".into(), Json::Bool(persist)),
            ("dag".into(), Json::Bool(dag_armed)),
        ])
    }

    fn load_from_disk(&self, id: &str) -> Result<CobraSession, (String, String)> {
        let path = self.artifact_path(id).ok_or_else(|| {
            (
                "unknown_session".to_owned(),
                format!("session {id:?} is not prepared and the server has no store directory"),
            )
        })?;
        if !path.exists() {
            return Err((
                "unknown_session".to_owned(),
                format!("session {id:?} is neither live nor persisted"),
            ));
        }
        let artifact = LoadedArtifact::open(&path).map_err(persist_io_err)?;
        restore_session(&artifact).map_err(session_err)
    }

    /// Spawns a worker for `session` and registers it, first making
    /// room under the live-session cap.
    fn insert_worker(&self, id: &str, session: CobraSession) -> Result<(), (String, String)> {
        self.make_room(id)?;
        let (tx, rx) = channel();
        let target = self.kernel;
        std::thread::Builder::new()
            .name(format!("cobra-session-{id}"))
            .spawn(move || kernel::with_target(target, || worker_loop(session, rx)))
            .expect("spawning a session worker thread");
        self.sessions
            .lock()
            .unwrap()
            .insert(id.to_owned(), SessionHandle { tx });
        Ok(())
    }

    /// Enforces the live-session cap before admitting `incoming`:
    /// synchronously retires least-recently-used workers (each persists
    /// its own session into the disk tier, then exits) until a slot is
    /// free. Without a disk tier eviction would lose a live session, so
    /// a full store refuses the admission with a `store_full` error.
    fn make_room(&self, incoming: &str) -> Result<(), (String, String)> {
        let Some(cap) = self.max_sessions else {
            return Ok(());
        };
        loop {
            let victim = {
                let mut sessions = self.sessions.lock().unwrap();
                if sessions.map.contains_key(incoming) || sessions.map.len() < cap {
                    return Ok(());
                }
                sessions.pop_lru()
            };
            let Some((vid, handle)) = victim else {
                return Err((
                    "store_full".to_owned(),
                    format!("the live-session cap is {cap} and nothing is evictable"),
                ));
            };
            let Some(path) = self.artifact_path(&vid) else {
                self.sessions.lock().unwrap().insert(vid, handle);
                return Err((
                    "store_full".to_owned(),
                    format!(
                        "live-session cap of {cap} reached and the server has no \
                         store directory to evict into (start with --store DIR, \
                         or raise --max-sessions)"
                    ),
                ));
            };
            let (reply_tx, reply_rx) = channel();
            if handle.tx.send(Job::Retire { path, reply: reply_tx }).is_err() {
                continue; // worker already gone — the slot is free
            }
            match reply_rx.recv() {
                Ok(Ok(_)) | Err(_) => {} // persisted and retired
                Ok(Err(err)) => {
                    // The snapshot failed and the worker kept serving:
                    // put the victim back instead of losing it, and
                    // refuse the admission with the persist error.
                    self.sessions.lock().unwrap().insert(vid, handle);
                    return Err(err);
                }
            }
        }
    }

    /// Persists every live session into the disk tier and retires its
    /// worker — the graceful-shutdown path, so sessions built without
    /// `persist` survive a server restart whenever a store directory is
    /// armed. Returns the number of sessions persisted; a no-op without
    /// a disk tier. A session whose snapshot fails is skipped (its
    /// worker drains and exits when the store drops) rather than
    /// blocking the shutdown.
    pub fn persist_all(&self) -> usize {
        if self.dir.is_none() {
            return 0;
        }
        let mut persisted = 0;
        loop {
            let victim = self.sessions.lock().unwrap().pop_lru();
            let Some((id, handle)) = victim else {
                return persisted;
            };
            let path = self.artifact_path(&id).expect("disk tier checked above");
            let (reply_tx, reply_rx) = channel();
            if handle.tx.send(Job::Retire { path, reply: reply_tx }).is_err() {
                continue; // worker already gone
            }
            if matches!(reply_rx.recv(), Ok(Ok(_))) {
                persisted += 1;
            }
        }
    }

    /// Routes a job to a session's worker, re-hydrating from the disk
    /// tier on an in-memory miss, and waits for the reply.
    ///
    /// The job constructor may be called more than once: a handle can go
    /// stale when the LRU cap retires its worker between lookup and
    /// send, in which case the session is already persisted and one
    /// reload retry reaches it again.
    pub fn dispatch(&self, id: &str, job: impl Fn(Sender<ReplyBody>) -> Job) -> ReplyBody {
        if !valid_id(id) {
            return Err((
                "bad_request".into(),
                "session ids are 1-64 chars of [A-Za-z0-9_-]".into(),
            ));
        }
        let mut last_err = ("session".to_owned(), "session worker is gone".to_owned());
        for _ in 0..2 {
            let tx = {
                let mut sessions = self.sessions.lock().unwrap();
                sessions.touch(id);
                sessions.map.get(id).map(|h| h.tx.clone())
            };
            let tx = match tx {
                Some(tx) => tx,
                None => {
                    let session = self.load_from_disk(id)?;
                    self.insert_worker(id, session)?;
                    match self.sessions.lock().unwrap().map.get(id).map(|h| h.tx.clone()) {
                        Some(tx) => tx,
                        None => continue, // immediately re-evicted (tiny cap): retry
                    }
                }
            };
            let (reply_tx, reply_rx) = channel();
            if tx.send(job(reply_tx)).is_err() {
                continue; // worker retired after lookup: reload from disk
            }
            match reply_rx.recv() {
                Ok(body) => return body,
                // The worker exited (retirement) with this job still
                // queued — it never ran, so re-dispatching is safe.
                Err(_) => {
                    last_err =
                        ("session".to_owned(), "session worker retired mid-request".to_owned());
                }
            }
        }
        Err(last_err)
    }
}

fn persist_io_err(e: PersistError) -> (String, String) {
    ("persist".to_owned(), e.to_string())
}

fn send(reply: &Sender<ReplyBody>, body: ReplyBody) {
    // A disconnected client is not the worker's problem.
    let _ = reply.send(body);
}

fn worker_loop(mut session: CobraSession, rx: Receiver<Job>) {
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => return, // store dropped: session retires
        };
        let mut batch = vec![first];
        while let Ok(job) = rx.try_recv() {
            batch.push(job);
        }
        let mut iter = batch.into_iter().peekable();
        while let Some(job) = iter.next() {
            match job {
                Job::Sweep {
                    scenarios,
                    deadline_ms: None,
                    reply,
                } => {
                    // Fuse the maximal run of deadline-free sweeps.
                    let mut group = vec![(scenarios, reply)];
                    while matches!(
                        iter.peek(),
                        Some(Job::Sweep {
                            deadline_ms: None,
                            ..
                        })
                    ) {
                        if let Some(Job::Sweep {
                            scenarios, reply, ..
                        }) = iter.next()
                        {
                            group.push((scenarios, reply));
                        }
                    }
                    run_sweep_group(&mut session, group);
                }
                other => {
                    if !run_one(&mut session, other) {
                        // Retired: the receiver drops here, so jobs still
                        // queued behind the retirement are never run —
                        // their dispatchers retry through the disk tier.
                        return;
                    }
                }
            }
        }
    }
}

/// Runs one job; returns `false` when the worker must exit (a
/// successful [`Job::Retire`]).
fn run_one(session: &mut CobraSession, job: Job) -> bool {
    match job {
        Job::Assign { scenario, reply } => {
            let body = catch_unwind(AssertUnwindSafe(|| do_assign(session, &scenario)))
                .unwrap_or_else(panic_body);
            send(&reply, body);
        }
        Job::Sweep {
            scenarios,
            deadline_ms,
            reply,
        } => {
            let body =
                catch_unwind(AssertUnwindSafe(|| do_sweep_solo(session, &scenarios, deadline_ms)))
                    .unwrap_or_else(panic_body);
            send(&reply, body);
        }
        Job::SelectBound { bound, reply } => {
            let body = catch_unwind(AssertUnwindSafe(|| do_select_bound(session, bound)))
                .unwrap_or_else(panic_body);
            send(&reply, body);
        }
        Job::ApplyDelta { ops, reply } => {
            let body = catch_unwind(AssertUnwindSafe(|| do_apply_delta(session, &ops)))
                .unwrap_or_else(panic_body);
            send(&reply, body);
        }
        Job::Stats { reply } => {
            let body = catch_unwind(AssertUnwindSafe(|| Ok(do_stats(session))))
                .unwrap_or_else(panic_body);
            send(&reply, body);
        }
        Job::Retire { path, reply } => {
            let body = catch_unwind(AssertUnwindSafe(|| do_retire(session, &path)))
                .unwrap_or_else(panic_body);
            let retired = body.is_ok();
            send(&reply, body);
            return !retired;
        }
        Job::Panic { reply } => {
            let body = catch_unwind(|| -> ReplyBody {
                panic!("deliberate fault-injection panic");
            })
            .unwrap_or_else(panic_body);
            send(&reply, body);
        }
    }
    true
}

/// Eviction: snapshot the session into the disk tier. A success retires
/// the worker; a failure keeps it serving (the store re-registers it).
fn do_retire(session: &CobraSession, path: &std::path::Path) -> ReplyBody {
    let bytes = snapshot_session(session).map_err(session_err)?;
    write_file(path, &bytes).map_err(persist_io_err)?;
    Ok(vec![("retired".into(), Json::Bool(true))])
}

/// Resolves an `apply_delta` request's labels and term text against the
/// session, then applies the delta through the incremental session path
/// (engines spliced, plans reused — no full recompile).
fn do_apply_delta(session: &mut CobraSession, ops: &[WireDeltaOp]) -> ReplyBody {
    let mut delta = PolyDelta::new();
    for op in ops {
        let idx = session.polynomials().index_of(&op.poly).ok_or_else(|| {
            (
                "bad_request".to_owned(),
                format!("no polynomial labelled {:?} in this session", op.poly),
            )
        })?;
        let parsed = parse_poly(&op.term, session.registry_mut())
            .map_err(|e| ("bad_request".to_owned(), format!("term {:?}: {e}", op.term)))?;
        let (monomial, coeff) = match parsed.terms() {
            [single] => single.clone(),
            _ => {
                return Err((
                    "bad_request".to_owned(),
                    format!("term {:?} must be a single coeff*monomial product", op.term),
                ))
            }
        };
        match op.action {
            WireDeltaAction::Add => delta.add(idx, monomial, coeff),
            WireDeltaAction::Set => delta.set(idx, monomial, coeff),
            WireDeltaAction::Remove => delta.remove(idx, monomial),
        }
    }
    let report = session.apply_delta(&delta).map_err(session_err)?;
    Ok(vec![
        ("structural".into(), Json::Bool(report.is_structural())),
        (
            "polys_touched".into(),
            Json::Num(report.touched().len() as f64),
        ),
        (
            "terms_touched".into(),
            Json::Num(report.terms_touched as f64),
        ),
    ])
}

fn panic_body(payload: Box<dyn std::any::Any + Send>) -> ReplyBody {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_owned());
    Err(("panic".to_owned(), msg))
}

fn scenario_valuation(session: &mut CobraSession, bindings: &[(String, Rat)]) -> Valuation<Rat> {
    let mut val = Valuation::with_default(Rat::ONE);
    for (name, factor) in bindings {
        let var = session.registry_mut().var(name);
        val.set(var, *factor);
    }
    val
}

fn do_assign(session: &mut CobraSession, scenario: &[(String, Rat)]) -> ReplyBody {
    let val = scenario_valuation(session, scenario);
    let cmp = session.assign(&val).map_err(session_err)?;
    let rows: Vec<Json> = cmp
        .rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("label".into(), Json::Str(r.label.clone())),
                ("full".into(), Json::Str(r.full.to_string())),
                ("compressed".into(), Json::Str(r.compressed.to_string())),
            ])
        })
        .collect();
    Ok(vec![
        ("rows".into(), Json::Arr(rows)),
        ("max_rel_error".into(), Json::Num(cmp.max_rel_error())),
        ("exact".into(), Json::Bool(cmp.is_exact())),
    ])
}

/// Shared fold: per scenario, the sums of the full-side and
/// compressed-side result tuples.
fn totals_fold(
    session: &CobraSession,
    set: ScenarioSet,
    deadline_ms: Option<u64>,
) -> Result<(SweepOutcome<SweepRows>, f64), (String, String)> {
    let fold = |mut acc: SweepRows, item: cobra_core::FoldItem<'_, f64>| {
        let full: f64 = item.full.iter().sum();
        let comp: f64 = item.compressed.iter().sum();
        acc.push((full, comp));
        acc
    };
    let budget = match deadline_ms {
        None => SweepBudget::unlimited(),
        Some(ms) => SweepBudget::unlimited().with_deadline(Duration::from_millis(ms)),
    };
    let (outcome, div) = session
        .fold::<Approx, _>(set, &budget, Vec::new(), fold)
        .map_err(session_err)?;
    Ok((outcome, div.max_rel_divergence))
}

fn rows_json(rows: &[(f64, f64)]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|&(f, c)| Json::Arr(vec![Json::Num(f), Json::Num(c)]))
            .collect(),
    )
}

fn sweep_body(
    rows: SweepRows,
    requested: usize,
    outcome_meta: Option<(usize, &'static str)>,
    divergence: f64,
) -> Vec<(String, Json)> {
    let mut body = vec![
        ("rows".into(), rows_json(&rows)),
        ("requested".into(), Json::Num(requested as f64)),
        ("partial".into(), Json::Bool(outcome_meta.is_some())),
    ];
    if let Some((done, reason)) = outcome_meta {
        body.push(("done".into(), Json::Num(done as f64)));
        body.push(("stop".into(), Json::Str(reason.into())));
    }
    body.push(("max_rel_divergence".into(), Json::Num(divergence)));
    body
}

fn stop_str(reason: cobra_core::StopReason) -> &'static str {
    match reason {
        cobra_core::StopReason::Deadline => "deadline",
        cobra_core::StopReason::Cancelled => "cancelled",
        cobra_core::StopReason::ScenarioCap => "scenario_cap",
    }
}

fn do_sweep_solo(
    session: &mut CobraSession,
    scenarios: &[(String, Rat)],
    deadline_ms: Option<u64>,
) -> ReplyBody {
    let vals: Vec<Valuation<Rat>> = scenarios
        .iter()
        .map(|(name, factor)| {
            let var = session.registry_mut().var(name);
            Valuation::with_default(Rat::ONE).bind(var, *factor)
        })
        .collect();
    let requested = vals.len();
    let (outcome, divergence) =
        totals_fold(session, ScenarioSet::from_valuations(vals), deadline_ms)?;
    let body = match outcome {
        SweepOutcome::Complete(rows) => sweep_body(rows, requested, None, divergence),
        SweepOutcome::Partial {
            fold,
            scenarios_done,
            reason,
        } => sweep_body(
            fold,
            requested,
            Some((scenarios_done, stop_str(reason))),
            divergence,
        ),
    };
    Ok(body)
}

fn run_sweep_group(session: &mut CobraSession, group: Vec<QueuedSweep>) {
    if group.len() == 1 {
        let (scenarios, reply) = group.into_iter().next().expect("len checked");
        let body = catch_unwind(AssertUnwindSafe(|| do_sweep_solo(session, &scenarios, None)))
            .unwrap_or_else(panic_body);
        send(&reply, body);
        return;
    }
    // Union grid: deduplicate (var, factor) perturbations across the
    // fused requests; each request is answered from its own indices.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut unique: Vec<Valuation<Rat>> = Vec::new();
        let mut index_of: HashMap<(u32, Rat), usize> = HashMap::new();
        let mut per_request: Vec<Vec<usize>> = Vec::with_capacity(group.len());
        for (scenarios, _) in &group {
            let mut indices = Vec::with_capacity(scenarios.len());
            for (name, factor) in scenarios {
                let var = session.registry_mut().var(name);
                let next = unique.len();
                let idx = *index_of.entry((var.0, *factor)).or_insert(next);
                if idx == next {
                    unique.push(Valuation::with_default(Rat::ONE).bind(var, *factor));
                }
                indices.push(idx);
            }
            per_request.push(indices);
        }
        let (outcome, divergence) =
            totals_fold(session, ScenarioSet::from_valuations(unique), None)?;
        let rows = outcome.into_fold();
        Ok((rows, per_request, divergence))
    }))
    .unwrap_or_else(|payload| Err(panic_body(payload).expect_err("panic_body always errs")));

    match result {
        Err(err) => {
            for (_, reply) in &group {
                send(reply, Err(err.clone()));
            }
        }
        Ok((rows, per_request, divergence)) => {
            for ((scenarios, reply), indices) in group.iter().zip(&per_request) {
                let own: SweepRows = indices.iter().map(|&i| rows[i]).collect();
                send(
                    reply,
                    Ok(sweep_body(own, scenarios.len(), None, divergence)),
                );
            }
        }
    }
}

fn do_select_bound(session: &mut CobraSession, bound: u64) -> ReplyBody {
    let report = session.select_bound(bound).map_err(session_err)?;
    // A service trades a slower select for fast first requests: compile
    // every engine of the new selection now, while the client is already
    // waiting on a structural operation. Warm engines (restored from an
    // artifact or stashed by an earlier hop) make this a no-op.
    session.warm_up().map_err(session_err)?;
    Ok(vec![
        ("bound".into(), Json::Num(report.bound as f64)),
        (
            "original_size".into(),
            Json::Num(report.original_size as f64),
        ),
        (
            "compressed_size".into(),
            Json::Num(report.compressed_size as f64),
        ),
        (
            "original_vars".into(),
            Json::Num(report.original_vars as f64),
        ),
        (
            "compressed_vars".into(),
            Json::Num(report.compressed_vars as f64),
        ),
        (
            "cuts".into(),
            Json::Arr(report.cuts.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

fn opt_num(v: Option<u64>) -> Json {
    v.map_or(Json::Null, |n| Json::Num(n as f64))
}

fn do_stats(session: &CobraSession) -> Vec<(String, Json)> {
    let info = session.info();
    vec![
        ("trees".into(), Json::Num(info.trees as f64)),
        ("bound".into(), opt_num(info.bound)),
        (
            "frontier_points".into(),
            opt_num(info.frontier_points.map(|n| n as u64)),
        ),
        ("original_size".into(), opt_num(info.original_size)),
        (
            "original_vars".into(),
            opt_num(info.original_vars.map(|n| n as u64)),
        ),
        ("compressed_size".into(), opt_num(info.compressed_size)),
        (
            "compressed_vars".into(),
            opt_num(info.compressed_vars.map(|n| n as u64)),
        ),
        ("warm_engines".into(), Json::Num(info.warm_engines as f64)),
        ("hydrated".into(), Json::Bool(info.hydrated)),
        ("kernel".into(), Json::Str(info.kernel.into())),
        ("dag".into(), Json::Bool(info.dag)),
        (
            "dag_slots".into(),
            opt_num(info.dag_slots.map(|n| n as u64)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLYS: &str = "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3";
    const TREE: &str = "Plans(Standard(p1,p2), v)";

    fn prepared_store() -> SessionStore {
        let store = SessionStore::new(None);
        store.prepare("t", Some(POLYS), Some(TREE), false, false).unwrap();
        store
    }

    fn get(body: &[(String, Json)], key: &str) -> Json {
        body.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or(Json::Null)
    }

    #[test]
    fn prepare_select_assign_round_trip() {
        let store = prepared_store();
        let body = store
            .dispatch("t", |reply| Job::SelectBound { bound: 2, reply })
            .unwrap();
        assert_eq!(get(&body, "compressed_size"), Json::Num(2.0));
        let body = store
            .dispatch("t", |reply| Job::Assign {
                scenario: vec![("m3".into(), Rat::parse("0.8").unwrap())],
                reply,
            })
            .unwrap();
        assert_eq!(get(&body, "exact"), Json::Bool(true));
        let rows = get(&body, "rows");
        assert_eq!(rows.as_arr().unwrap().len(), 1);
    }

    #[test]
    fn unknown_sessions_and_bad_ids_are_typed_errors() {
        let store = SessionStore::new(None);
        let (kind, _) = store
            .dispatch("nope", |reply| Job::Stats { reply })
            .unwrap_err();
        assert_eq!(kind, "unknown_session");
        let (kind, _) = store
            .dispatch("../evil", |reply| Job::Stats { reply })
            .unwrap_err();
        assert_eq!(kind, "bad_request");
        // polynomial text that does not parse is the request's fault …
        let (kind, message) = store
            .prepare("t", Some("P1 ="), Some(TREE), false, false)
            .unwrap_err();
        assert_eq!(kind, "bad_request");
        assert!(message.contains("parse error at byte 4"), "{message}");
        // … a tree the session layer refuses is the session's
        let (kind, _) = store
            .prepare("t", Some("P1 = p1"), Some("T(("), false, false)
            .unwrap_err();
        assert_eq!(kind, "session");
    }

    #[test]
    fn worker_survives_panics() {
        let store = prepared_store();
        let (kind, _) = store
            .dispatch("t", |reply| Job::Panic { reply })
            .unwrap_err();
        assert_eq!(kind, "panic");
        // the session keeps serving
        let body = store
            .dispatch("t", |reply| Job::Stats { reply })
            .unwrap();
        assert_eq!(get(&body, "trees"), Json::Num(1.0));
    }

    #[test]
    fn sweeps_answer_per_request_rows() {
        let store = prepared_store();
        store
            .dispatch("t", |reply| Job::SelectBound { bound: 2, reply })
            .unwrap();
        let body = store
            .dispatch("t", |reply| Job::Sweep {
                scenarios: vec![
                    ("m3".into(), Rat::parse("0.8").unwrap()),
                    ("m1".into(), Rat::parse("1.2").unwrap()),
                ],
                deadline_ms: None,
                reply,
            })
            .unwrap();
        assert_eq!(get(&body, "partial"), Json::Bool(false));
        assert_eq!(get(&body, "rows").as_arr().unwrap().len(), 2);
    }

    #[test]
    fn fused_union_grid_matches_solo_rows() {
        let store = prepared_store();
        store
            .dispatch("t", |reply| Job::SelectBound { bound: 2, reply })
            .unwrap();
        let r1 = vec![
            ("m3".into(), Rat::parse("0.8").unwrap()),
            ("m1".into(), Rat::parse("1.2").unwrap()),
        ];
        let r2 = vec![
            ("m1".into(), Rat::parse("1.2").unwrap()),
            ("v".into(), Rat::parse("2").unwrap()),
        ];
        let solo1 = store
            .dispatch("t", |reply| Job::Sweep {
                scenarios: r1.clone(),
                deadline_ms: None,
                reply,
            })
            .unwrap();
        let solo2 = store
            .dispatch("t", |reply| Job::Sweep {
                scenarios: r2.clone(),
                deadline_ms: None,
                reply,
            })
            .unwrap();

        // Drive the fusion path directly: queue both, then let the
        // worker drain them in one batch.
        let (tx1, rx1) = channel();
        let (tx2, rx2) = channel();
        {
            let sessions = store.sessions.lock().unwrap();
            let tx = sessions.map.get("t").unwrap().tx.clone();
            tx.send(Job::Sweep {
                scenarios: r1,
                deadline_ms: None,
                reply: tx1,
            })
            .unwrap();
            tx.send(Job::Sweep {
                scenarios: r2,
                deadline_ms: None,
                reply: tx2,
            })
            .unwrap();
        }
        let fused1 = rx1.recv().unwrap().unwrap();
        let fused2 = rx2.recv().unwrap().unwrap();
        assert_eq!(get(&fused1, "rows"), get(&solo1, "rows"));
        assert_eq!(get(&fused2, "rows"), get(&solo2, "rows"));
    }

    fn assign_rows(store: &SessionStore, id: &str) -> Json {
        let body = store
            .dispatch(id, |reply| Job::Assign {
                scenario: vec![("m3".into(), Rat::parse("0.8").unwrap())],
                reply,
            })
            .unwrap();
        get(&body, "rows")
    }

    #[test]
    fn delta_updates_flow_through_the_worker() {
        let store = prepared_store();
        store
            .dispatch("t", |reply| Job::SelectBound { bound: 2, reply })
            .unwrap();
        let body = store
            .dispatch("t", |reply| Job::ApplyDelta {
                ops: vec![
                    WireDeltaOp {
                        poly: "P1".into(),
                        action: WireDeltaAction::Set,
                        term: "250*p1*m1".into(),
                    },
                    WireDeltaOp {
                        poly: "P1".into(),
                        action: WireDeltaAction::Remove,
                        term: "v*m3".into(),
                    },
                ],
                reply,
            })
            .unwrap();
        assert_eq!(get(&body, "structural"), Json::Bool(true));
        assert_eq!(get(&body, "terms_touched"), Json::Num(2.0));

        // The patched session answers exactly like one built fresh from
        // the post-delta polynomials.
        let fresh = SessionStore::new(None);
        fresh
            .prepare(
                "f",
                Some("P1 = 250*p1*m1 + 240*p1*m3 + 42*v*m1"),
                Some(TREE),
                false,
                false,
            )
            .unwrap();
        fresh
            .dispatch("f", |reply| Job::SelectBound { bound: 2, reply })
            .unwrap();
        assert_eq!(assign_rows(&store, "t"), assign_rows(&fresh, "f"));
    }

    #[test]
    fn delta_errors_are_typed_and_atomic() {
        let store = prepared_store();
        let before = store
            .dispatch("t", |reply| Job::Stats { reply })
            .map(|b| get(&b, "original_size"));
        let (kind, _) = store
            .dispatch("t", |reply| Job::ApplyDelta {
                ops: vec![WireDeltaOp {
                    poly: "Nope".into(),
                    action: WireDeltaAction::Add,
                    term: "2*p1*m1".into(),
                }],
                reply,
            })
            .unwrap_err();
        assert_eq!(kind, "bad_request");
        let (kind, _) = store
            .dispatch("t", |reply| Job::ApplyDelta {
                ops: vec![WireDeltaOp {
                    poly: "P1".into(),
                    action: WireDeltaAction::Add,
                    term: "2*p1 + 3*v".into(),
                }],
                reply,
            })
            .unwrap_err();
        assert_eq!(kind, "bad_request");
        let after = store
            .dispatch("t", |reply| Job::Stats { reply })
            .map(|b| get(&b, "original_size"));
        assert_eq!(before, after, "rejected deltas must change nothing");
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cobra-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lru_cap_evicts_to_disk_and_evicted_ids_reload() {
        let dir = scratch_dir("evict");
        let store = SessionStore::with_limits(Some(dir.clone()), kernel::target(), Some(2));
        for id in ["a", "b", "c"] {
            store.prepare(id, Some(POLYS), Some(TREE), false, false).unwrap();
        }
        // "a" was LRU: its worker persisted the session and exited.
        assert_eq!(store.sessions.lock().unwrap().map.len(), 2);
        assert!(!store.sessions.lock().unwrap().map.contains_key("a"));
        assert!(dir.join("a.cobra").exists());

        // The evicted id still answers — transparently re-hydrated from
        // the artifact its own worker wrote (this in turn evicts "b").
        let body = store
            .dispatch("a", |reply| Job::SelectBound { bound: 2, reply })
            .unwrap();
        assert_eq!(get(&body, "compressed_size"), Json::Num(2.0));
        assert!(dir.join("b.cobra").exists());

        // Touching "a" protects it: the next admission evicts "c".
        store.prepare("d", Some(POLYS), Some(TREE), false, false).unwrap();
        let live = store.sessions.lock().unwrap();
        assert!(live.map.contains_key("a") && live.map.contains_key("d"));
        drop(live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_store_without_disk_tier_refuses_with_store_full() {
        let store = SessionStore::with_limits(None, kernel::target(), Some(1));
        store.prepare("a", Some(POLYS), Some(TREE), false, false).unwrap();
        let (kind, msg) = store
            .prepare("b", Some(POLYS), Some(TREE), false, false)
            .unwrap_err();
        assert_eq!(kind, "store_full");
        assert!(msg.contains("no store directory"), "{msg}");
        // The incumbent session is untouched and still serving.
        let body = store.dispatch("a", |reply| Job::Stats { reply }).unwrap();
        assert_eq!(get(&body, "trees"), Json::Num(1.0));
        // Re-preparing a live id is not an admission and stays fine.
        let body = store.prepare("a", None, None, false, false).unwrap();
        assert_eq!(get(&body, "source"), Json::Str("cached".into()));
    }
}
