//! The served journey: the same analyst operations as requests to an
//! in-process `cobra serve` on a loopback port, from two closed-loop
//! clients — an analyst waits for an answer before the next what-if.
//!
//! `serve-paper` and `serve-small` run it. The main phase is a sequence
//! of **rounds**: both clients read (sweeps, a stats call, and from the
//! client whose turn it is four exact what-ifs), a barrier, client 0 alone writes (`select_bound` away to the
//! second bound, `apply_delta`, `select_bound` back, `apply_delta`), a
//! barrier. Writes therefore land beside reads on live
//! sessions — the first reads of a round pay whatever the last write
//! invalidated — while every reply stays a function of the seed and the
//! round, whatever the thread timing. The other phases are one client's:
//! bound hops, wide sweeps on the flat session and its DAG twin, sessions
//! prepared from text, requests to sessions retired to disk.
//!
//! Like the in-process journey, the phases run in [`CYCLES`] passes, so
//! every metric's samples spread over the whole run and a burst of host
//! noise lands on a minority of each.

use crate::data::{self, Bindings, Dataset};
use crate::journey::{
    self, check_aligned, check_assign, check_sweep, timed, ByKind, Ledger, Metric, Oracle, Outcome,
    Samples, TimeBox,
};
use crate::spans;
use crate::stats;
use crate::surface::{self, CobraSession, Monomial, PolySet, Rat, Server, SplitMix64};
use crate::wire::{self, Client, Reply, WireError};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Passes over the phases.
const CYCLES: usize = 3;
/// Rounds of the first pass: a fixed number, all digested and checked
/// against the oracle; later passes run rounds until their time is up.
const CHECKED_ROUNDS: usize = 3;
/// Reads per client per round: six sweeps, one stats, and — from one
/// client, taking turns — four exact what-ifs. Both clients' sweeps are
/// answered together and end together, so what-ifs sent by both would
/// queue behind each other in an order the thread timing picks, and the
/// latency would come in as many clusters as there are queue positions.
const SWEEPS_PER_ROUND: usize = 6;
const ASSIGNS_PER_ROUND: usize = 4;

/// The phases of a pass, in the order they run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Rounds,
    Hops,
    Grid,
    DagGrid,
    Prepare,
    Reload,
}

const PHASES: [Phase; 6] = [
    Phase::Rounds,
    Phase::Hops,
    Phase::Grid,
    Phase::DagGrid,
    Phase::Prepare,
    Phase::Reload,
];

pub struct Spec<'a> {
    pub datasets: &'a [Dataset],
    /// The first `hot` datasets take the rounds' traffic.
    pub hot: usize,
    /// Cap on live sessions; below the session count, so the reload
    /// phase's requests find their sessions retired to disk.
    pub max_sessions: usize,
    /// Single-variable perturbations per sweep request.
    pub sweep_width: usize,
    /// Perturbations per request of the throughput phases.
    pub grid_width: usize,
    /// Draw half of every sweep from a per-round pool both clients
    /// share, so coalesced sweeps have duplicates to fold.
    pub shared_pool: bool,
    /// Sessions reach the server through its disk tier (artifacts built
    /// in process) instead of as text. The server's JSON string parser
    /// is quadratic in the string's length at this commit: the 2.3 MB
    /// `polys` string of the paper-scale data takes 81 s to parse.
    pub from_disk: bool,
    /// What the `prepare` phase sends as text (the workload's own
    /// datasets, or a cut of them small enough to parse).
    pub prepare_from: &'a [Dataset],
    /// Sessions of a second server with a live tier of one, for the
    /// reload phase — when the workload's own sessions are all hot, or
    /// too large to retire and re-load steadily (writing a 10 MB artifact
    /// per eviction takes anything from 60 to 300 ms on this host).
    pub tier: Option<&'a [Dataset]>,
    /// The phases the workload is about (see `journey::share`).
    pub own: &'a [Phase],
    pub tmp: &'a Path,
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

fn rid() -> u64 {
    // Relaxed: the counter only has to hand out distinct ids.
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn dag_id(ds: &Dataset) -> String {
    format!("{}-dag", ds.id)
}

/// A running server with both clients connected.
struct Fleet {
    server: Server,
    clients: Vec<Client>,
}

impl Fleet {
    fn start(store: Option<&Path>, cap: Option<usize>) -> Result<Fleet, String> {
        let server = surface::serve(store.map(Path::to_path_buf), cap).map_err(err)?;
        let addr = surface::server_addr(&server);
        let clients = (0..2)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        Ok(Fleet { server, clients })
    }

    fn stop(self) {
        // Clients first: a connection thread leaves when its peer does.
        drop(self.clients);
        surface::server_shutdown(self.server);
    }
}

/// `prepare` — from `text`, or with none from the disk tier's artifact —
/// then `select_bound(primary)`; the two latencies summed.
fn prepare_session(
    client: &mut Client,
    id: &str,
    ds: &Dataset,
    text: Option<&str>,
    dag: bool,
) -> Result<Duration, WireError> {
    let source = text.map(|t| (t, ds.trees[0].as_str()));
    let a = client.call(&wire::prepare(rid(), id, source, dag))?;
    let b = client.call(&wire::select_bound(rid(), id, ds.bounds[0]))?;
    Ok(a.latency + b.latency)
}

/// Puts `ds` into the disk tier under its own id and its DAG twin's: the
/// session is built here, in process, and snapshot to `store` — how a
/// session too large to send as text reaches a server at this commit.
fn install_artifacts(ds: &Dataset, store: &Path) -> Result<(), String> {
    let twin = Twin::new(ds)?;
    surface::warm_up(&twin.session).map_err(err)?;
    let bytes = surface::snapshot_session(&twin.session).map_err(err)?;
    for id in [ds.id.clone(), dag_id(ds)] {
        surface::write_artifact(&store.join(format!("{id}.cobra")), &bytes)?;
    }
    Ok(())
}

/// `select_bound(primary)`: a no-op on a live session at that bound, and
/// the way back for a retired one — a session re-hydrated from the disk
/// tier carries its warm engines but **no selection**, so a read sent to
/// it first is refused ("compress must be called first").
fn make_live(client: &mut Client, id: &str, ds: &Dataset) -> Result<Reply, WireError> {
    client.call(&wire::select_bound(rid(), id, ds.bounds[0]))
}

/// The hot sessions live, the first of them most recently used.
fn hot_live(spec: &Spec<'_>, client: &mut Client) -> Result<(), WireError> {
    spec.datasets[..spec.hot]
        .iter()
        .rev()
        .try_for_each(|ds| make_live(client, &ds.id, ds).map(drop))
}

/// Server up, every session (and the DAG twin of the first) prepared and
/// selected, the work split over both clients.
fn set_up(spec: &Spec<'_>, texts: &[String], store: &Path) -> Result<Fleet, String> {
    let mut fleet = Fleet::start(Some(store), Some(spec.max_sessions))?;
    let mut jobs: Vec<(String, usize, bool)> = spec
        .datasets
        .iter()
        .enumerate()
        .map(|(i, ds)| (ds.id.clone(), i, false))
        .collect();
    jobs.push((dag_id(&spec.datasets[0]), 0, true));
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let jobs = &jobs;
                scope.spawn(move || {
                    for (id, i, dag) in jobs.iter().skip(c).step_by(2) {
                        let text = (!spec.from_disk).then(|| texts[*i].as_str());
                        prepare_session(client, id, &spec.datasets[*i], text, *dag)
                            .map_err(|e| format!("preparing {id}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a set-up client panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect::<Result<(), String>>()?;
    // Preparing more sessions than the live tier holds retired the
    // first ones; ready means the sessions the run starts on are live.
    let client = &mut fleet.clients[0];
    make_live(client, &dag_id(&spec.datasets[0]), &spec.datasets[0])
        .and_then(|_| hot_live(spec, client))
        .map_err(|e| format!("making the hot sessions live: {e}"))?;
    Ok(fleet)
}

/// The local stand-in for one served session: a session built in process
/// from the same polynomials, moved through the same writes, so the
/// oracle knows the compressed side and the current polynomials.
struct Twin {
    session: CobraSession,
    polys: PolySet<Rat>,
}

impl Twin {
    fn new(ds: &Dataset) -> Result<Twin, String> {
        let mut session = surface::session_new(ds.reg.clone(), ds.polys.clone());
        surface::add_tree_text(&mut session, &ds.trees[0]).map_err(err)?;
        surface::plan_frontier(&mut session).map_err(err)?;
        surface::select_bound(&mut session, ds.bounds[0]).map_err(err)?;
        Ok(Twin {
            session,
            polys: ds.polys.clone(),
        })
    }

    fn oracle(&self) -> Oracle<'_> {
        Oracle::over(&self.polys, self.session.registry(), &self.session)
    }

    fn write(&mut self, bound: u64, delta: &surface::PolyDelta<Rat>) -> Result<(), String> {
        surface::select_bound(&mut self.session, bound).map_err(err)?;
        surface::session_apply_delta(&mut self.session, delta).map_err(err)?;
        surface::polyset_apply_delta(&mut self.polys, delta).map(drop)
    }
}

/// One read of a round, kept for the check after the pass.
enum Kept {
    Sweep(usize, Bindings, Vec<(f64, f64)>),
    Assign(usize, Bindings, Vec<(Rat, Rat)>),
}

/// The latencies of the rounds' sampled request types, each kept apart
/// by kind (see `ByKind`): by the session they went to.
struct RoundSamples {
    sweep_ms: ByKind,
    assign_ms: ByKind,
    delta_ms: ByKind,
}

impl RoundSamples {
    fn new(hot: usize) -> RoundSamples {
        RoundSamples {
            sweep_ms: ByKind::new(hot),
            assign_ms: ByKind::new(hot),
            delta_ms: ByKind::new(hot),
        }
    }

    fn extend(&mut self, other: RoundSamples) {
        self.sweep_ms.extend(other.sweep_ms);
        self.assign_ms.extend(other.assign_ms);
        self.delta_ms.extend(other.delta_ms);
    }
}

/// What one client collected over one pass of rounds.
struct ClientLog {
    samples: RoundSamples,
    requests: usize,
    rounds: usize,
    ledger: Ledger,
    /// The reads of each round, in slot order, when they are kept.
    kept: Vec<Vec<Kept>>,
}

fn sent(
    ledger: &mut Ledger,
    what: &str,
    reply: Result<Reply, WireError>,
    into: &mut ByKind,
    kind: usize,
) -> Option<Reply> {
    let reply = ledger.op(what, reply)?;
    into.push(kind, reply.latency);
    Some(reply)
}

/// The reads of `(round, client)`: sweeps and, on the client's turn,
/// exact what-ifs.
fn round_reads(
    spec: &Spec<'_>,
    seed: u64,
    round: usize,
    client: usize,
) -> (usize, Vec<Bindings>, Vec<Bindings>) {
    let d = (round * 2 + client) % spec.hot;
    let ds = &spec.datasets[d];
    let mut shared = SplitMix64::new(seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let pool = ds.perturbations(&mut shared, spec.sweep_width * 2);
    let mut own = SplitMix64::new(
        seed ^ ((round * 2 + client + 1) as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let sweeps = (0..SWEEPS_PER_ROUND)
        .map(|slot| {
            let mut b = ds.perturbations(&mut own, spec.sweep_width);
            if spec.shared_pool {
                // Both clients sweep the same session in the same round,
                // so the halves taken from the pool overlap across them.
                let half = spec.sweep_width / 2;
                let at = (slot * half) % pool.len();
                for (k, slot_b) in b.iter_mut().take(half).enumerate() {
                    *slot_b = pool[(at + k) % pool.len()].clone();
                }
            }
            b
        })
        .collect();
    let turn = round % 2 == client % 2;
    let assignments = (0..if turn { ASSIGNS_PER_ROUND } else { 0 })
        .map(|_| ds.assignment(&mut own))
        .collect();
    (d, sweeps, assignments)
}

type Targets = Vec<(usize, Monomial, Rat)>;

/// The writes of one round: `(which bound, delta round)` twice — to the
/// second bound, then back to the first, a fresh delta after each hop.
fn writes_of(round: usize) -> [(usize, u64); 2] {
    [(1, 2 * round as u64 + 1), (0, 2 * round as u64 + 2)]
}

/// How many rounds a pass runs: a fixed number, or until a deadline.
#[derive(Clone, Copy)]
enum Rounds {
    Exactly(usize),
    Until(Instant),
}

/// One pass of rounds, starting at round `first`: both clients in their
/// own threads, in step through the two barriers of each round.
fn rounds_pass(
    spec: &Spec<'_>,
    clients: &mut [Client],
    targets: &[Targets],
    seed: u64,
    first: usize,
    how_many: Rounds,
    keep: bool,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut log = ClientLog {
                        samples: RoundSamples::new(spec.hot),
                        requests: 0,
                        rounds: 0,
                        ledger: Ledger::default(),
                        kept: Vec::new(),
                    };
                    for round in first.. {
                        let (d, sweeps, assignments) = round_reads(spec, seed, round, c);
                        let id = &spec.datasets[d].id;
                        let mut kept = Vec::new();
                        for b in sweeps {
                            let req = wire::sweep(rid(), id, &b);
                            let reply = spans::in_op(spans::next_op(), || client.call(&req));
                            log.requests += 1;
                            if let Some(r) = sent(
                                &mut log.ledger,
                                "sweep",
                                reply,
                                &mut log.samples.sweep_ms,
                                d,
                            ) {
                                if let Some(rows) =
                                    log.ledger.op("sweep rows", wire::sweep_rows(&r.body))
                                {
                                    kept.push(Kept::Sweep(d, b, rows));
                                }
                            }
                        }
                        for assignment in assignments {
                            let req = wire::assign(rid(), id, &assignment);
                            let reply = spans::in_op(spans::next_op(), || client.call(&req));
                            log.requests += 1;
                            if let Some(r) = sent(
                                &mut log.ledger,
                                "assign",
                                reply,
                                &mut log.samples.assign_ms,
                                d,
                            ) {
                                if let Some(rows) =
                                    log.ledger.op("assign rows", wire::assign_rows(&r.body))
                                {
                                    kept.push(Kept::Assign(d, assignment, rows));
                                }
                            }
                        }
                        log.requests += 1;
                        log.ledger.op("stats", client.call(&wire::stats(rid(), id)));
                        if keep {
                            log.kept.push(kept);
                        }
                        barrier.wait();
                        if c == 0 {
                            let w = round % spec.hot;
                            let ds = &spec.datasets[w];
                            // Away to the other bound and back, a delta
                            // after each hop.
                            for (which, delta_round) in writes_of(round) {
                                let req = wire::select_bound(rid(), &ds.id, ds.bounds[which]);
                                let reply = spans::in_op(spans::next_op(), || client.call(&req));
                                // Not sampled here: client 0 has waited at
                                // the barrier for any length of time, and
                                // whether its next ACK is delayed (40 ms)
                                // depends on how long. The hops phase
                                // samples hops on a busy connection.
                                log.ledger.op("select_bound", reply);
                                let sets = data::delta_wire(ds, &targets[w], delta_round);
                                let req = wire::apply_delta(rid(), &ds.id, &sets);
                                let reply = spans::in_op(spans::next_op(), || client.call(&req));
                                sent(
                                    &mut log.ledger,
                                    "apply_delta",
                                    reply,
                                    &mut log.samples.delta_ms,
                                    w,
                                );
                                log.requests += 2;
                            }
                            let done = match how_many {
                                Rounds::Exactly(n) => round + 1 >= first + n,
                                Rounds::Until(deadline) => Instant::now() >= deadline,
                            };
                            // SeqCst with the barrier below: client 1
                            // reads the flag only after both have waited.
                            stop.store(done, Ordering::SeqCst);
                        }
                        barrier.wait();
                        log.rounds += 1;
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Runs the journey for about `seconds` and reports every end-to-end
/// metric.
pub fn run(spec: &Spec<'_>, seconds: f64, seed: u64) -> Result<Outcome, String> {
    let nd = spec.datasets.len();
    assert!(spec.hot >= 1 && spec.hot <= nd && spec.max_sessions <= nd + 1);
    let mut rng = SplitMix64::new(seed ^ 0x7365_7276_6564);
    let mut ledger = Ledger::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let ds0 = &spec.datasets[0];

    // ---- inputs: the text a client would send (or the artifacts the
    // disk tier would hold), and the seeded draws
    let render = |sets: &[Dataset]| -> Vec<String> {
        sets.iter()
            .map(|ds| surface::render_polyset(&ds.polys, &ds.reg))
            .collect()
    };
    let texts = if spec.from_disk {
        Vec::new()
    } else {
        render(spec.datasets)
    };
    let prepare_texts = render(spec.prepare_from);
    let store = spec.tmp.join("store");
    std::fs::create_dir_all(&store).map_err(err)?;
    if spec.from_disk {
        spec.datasets
            .iter()
            .try_for_each(|ds| install_artifacts(ds, &store))?;
    }
    let targets: Vec<Targets> = spec.datasets[..spec.hot]
        .iter()
        .map(|ds| ds.delta_targets(&mut rng))
        .collect();
    let grid_pool: Vec<Bindings> = (0..4)
        .map(|_| ds0.perturbations(&mut rng, spec.grid_width))
        .collect();
    let aligned = ds0.aligned(&mut rng);
    // What the reload phase asks for: sessions no other phase touches,
    // so the live tier never holds them when a request arrives — the
    // workload's own cold sessions, or the sessions of a tier server.
    let reload_sets: &[Dataset] = spec.tier.unwrap_or(&spec.datasets[spec.hot..]);
    assert!(
        !reload_sets.is_empty(),
        "the reload phase needs cold sessions or a tier"
    );
    let reload_pool: Vec<Bindings> = reload_sets
        .iter()
        .map(|ds| ds.perturbations(&mut rng, spec.sweep_width))
        .collect();

    // ---- set-up, three times; the last fleet is kept
    let mut setup = Samples::default();
    let mut kept_fleet: Option<Fleet> = None;
    for _ in 0..3 {
        if let Some(old) = kept_fleet.take() {
            old.stop();
        }
        let (fleet, dt) = timed(|| set_up(spec, &texts, &store));
        setup.push(dt);
        kept_fleet = ledger.op("setup", fleet);
    }
    let mut fleet = kept_fleet.ok_or_else(|| ledger.notes.join("; "))?;
    metrics.push(Metric::new(
        "setup_s",
        "s",
        stats::median(&setup.0) / 1e3,
        setup.0.len(),
    ));
    // The side server takes the prepare phase's sessions, so what they
    // pile up never crowds the main live tier.
    let mut side = Fleet::start(None, None)?;
    // The tier server, when the reload phase has one: its sessions come
    // in through its disk tier, and its live tier holds one of them.
    let mut tier = match spec.tier {
        Some(sets) => {
            let dir = spec.tmp.join("tier");
            std::fs::create_dir_all(&dir).map_err(err)?;
            sets.iter().try_for_each(|ds| install_artifacts(ds, &dir))?;
            let mut fleet = Fleet::start(Some(&dir), Some(1))?;
            for ds in sets {
                prepare_session(&mut fleet.clients[0], &ds.id, ds, None, false).map_err(err)?;
            }
            Some(fleet)
        }
        None => None,
    };
    // Pristine twins: every phase but the rounds sees the seeded state.
    let twins: Vec<Twin> = spec.datasets[..spec.hot]
        .iter()
        .map(Twin::new)
        .collect::<Result<_, _>>()?;

    let mut rounds_ms = RoundSamples::new(spec.hot);
    // Hops by direction: away to the second bound, back to the first.
    let mut select_ms = ByKind::new(2);
    let (mut grid_ms, mut dag_ms) = (ByKind::new(1), ByKind::new(1));
    let mut prepare_ms = ByKind::new(spec.prepare_from.len());
    let mut reload_ms = ByKind::new(reload_sets.len());
    let mut request_rates = Vec::new();
    let mut requests = 0usize;
    let (mut round, mut hop_k, mut wide_k, mut prepare_k, mut reload_k) = (0usize, 0, 0, 0, 0);
    let share = |p: Phase| {
        Duration::from_secs_f64(seconds * journey::share(&PHASES, spec.own, p) / CYCLES as f64)
    };

    for cycle in 0..CYCLES {
        let first_pass = cycle == 0;

        // ---- rounds: reads from both clients, then writes from client 0
        let how_many = if first_pass {
            Rounds::Exactly(CHECKED_ROUNDS)
        } else {
            Rounds::Until(Instant::now() + share(Phase::Rounds))
        };
        let started = Instant::now();
        let mut logs = rounds_pass(
            spec,
            &mut fleet.clients,
            &targets,
            seed,
            round,
            how_many,
            first_pass,
        );
        let wall = started.elapsed();
        let ran = logs[0].rounds;
        if first_pass {
            // Replay the checked rounds on stateful twins, in round order.
            let mut moved: Vec<Twin> = spec.datasets[..spec.hot]
                .iter()
                .map(Twin::new)
                .collect::<Result<_, _>>()?;
            let mut kept: Vec<_> = logs
                .iter_mut()
                .map(|l| std::mem::take(&mut l.kept).into_iter())
                .collect();
            for r in 0..ran {
                for per_client in &mut kept {
                    for (slot, read) in per_client
                        .next()
                        .unwrap_or_default()
                        .into_iter()
                        .enumerate()
                    {
                        match read {
                            Kept::Sweep(d, b, rows) => {
                                journey::digest_totals_rounded(&mut ledger.digest, &rows);
                                // Every reply is digested; the oracle —
                                // a sparse exact evaluation per scenario
                                // — answers for the first of each round.
                                if slot == 0 {
                                    check_sweep(
                                        &mut ledger,
                                        &moved[d].oracle(),
                                        "sweep",
                                        &b,
                                        &rows,
                                    );
                                }
                            }
                            Kept::Assign(d, b, rows) => {
                                journey::digest_exact(&mut ledger.digest, &rows);
                                check_assign(&mut ledger, &moved[d].oracle(), "assign", &b, &rows);
                            }
                        }
                    }
                }
                let w = r % spec.hot;
                for (which, delta_round) in writes_of(r) {
                    let delta = data::delta(&targets[w], delta_round);
                    moved[w].write(spec.datasets[w].bounds[which], &delta)?;
                }
            }
        }
        let mut pass_requests = 0;
        for log in logs {
            rounds_ms.extend(log.samples);
            pass_requests += log.requests;
            ledger.attempted += log.ledger.attempted;
            ledger.failed += log.ledger.failed;
            ledger.notes.extend(log.ledger.notes);
        }
        requests += pass_requests;
        request_rates.push(pass_requests as f64 / wall.as_secs_f64());
        // Back to the seeded state: every session this pass wrote gets
        // its coefficients back (a round leaves its bound where it was).
        let client = &mut fleet.clients[0];
        for w in (0..spec.hot).filter(|w| (round..round + ran).any(|r| r % spec.hot == *w)) {
            let ds = &spec.datasets[w];
            let sets = data::delta_wire(ds, &targets[w], 0);
            ledger.op(
                "restore delta",
                client.call(&wire::apply_delta(rid(), &ds.id, &sets)),
            );
        }
        round += ran;

        // ---- hops: away to the second bound and back, one request on the
        // heels of the last, round robin over the hot sessions
        let mut phase = TimeBox::new(share(Phase::Hops).as_secs_f64(), 2);
        while phase.next() {
            let ds = &spec.datasets[hop_k % spec.hot];
            hop_k += 1;
            for (direction, which) in [1, 0].into_iter().enumerate() {
                let bound = ds.bounds[which];
                let req = wire::select_bound(rid(), &ds.id, bound);
                let reply = spans::in_op(spans::next_op(), || client.call(&req));
                let Some(r) = sent(
                    &mut ledger,
                    "select_bound",
                    reply,
                    &mut select_ms,
                    direction,
                ) else {
                    continue;
                };
                let size = r
                    .body
                    .get("compressed_size")
                    .and_then(surface::Json::as_u64);
                ledger.check(size.is_some_and(|s| s <= bound), || {
                    format!("select_bound({bound}) chose size {size:?}")
                });
                if first_pass && phase.done <= 2 {
                    ledger.digest.u64(size.unwrap_or(u64::MAX));
                }
            }
        }

        // ---- throughput: wide sweeps from one client, flat then DAG twin
        let mut wide = |name: &str,
                        budget: Duration,
                        id: &str,
                        ms: &mut ByKind,
                        client: &mut Client,
                        ledger: &mut Ledger| {
            let mut phase = TimeBox::new(budget.as_secs_f64(), 1);
            while phase.next() {
                // The pool keeps turning across phases and passes, but the
                // request that is digested (the first of a phase in the
                // first pass) must not depend on how many a time box held.
                let checked = first_pass && phase.done == 1;
                let b = &grid_pool[if checked { 0 } else { wide_k % grid_pool.len() }];
                wide_k += 1;
                let req = wire::sweep(rid(), id, b);
                let reply = spans::in_op(spans::next_op(), || client.call(&req));
                if let Some(r) = sent(ledger, name, reply, ms, 0) {
                    if first_pass && phase.done == 1 {
                        if let Some(rows) = ledger.op("sweep rows", wire::sweep_rows(&r.body)) {
                            journey::digest_totals_rounded(&mut ledger.digest, &rows);
                            check_sweep(ledger, &twins[0].oracle(), name, b, &rows);
                        }
                    }
                }
            }
        };
        wide(
            "f64_scenarios_per_s",
            share(Phase::Grid),
            &ds0.id,
            &mut grid_ms,
            client,
            &mut ledger,
        );
        // With a live tier of one, turning to the twin retires the flat
        // session and back again; neither turn is part of a timed phase.
        ledger.op("dag twin live", make_live(client, &dag_id(ds0), ds0));
        wide(
            "dag_f64_scenarios_per_s",
            share(Phase::DagGrid),
            &dag_id(ds0),
            &mut dag_ms,
            client,
            &mut ledger,
        );
        ledger.op("hot sessions live", hot_live(spec, client));

        // ---- prepare: text over the wire to a selected session
        let mut phase = TimeBox::new(share(Phase::Prepare).as_secs_f64(), 1);
        while phase.next() {
            let d = prepare_k % spec.prepare_from.len();
            let id = format!("fresh{prepare_k}");
            prepare_k += 1;
            let text = Some(prepare_texts[d].as_str());
            let done = spans::in_op(spans::next_op(), || {
                prepare_session(
                    &mut side.clients[0],
                    &id,
                    &spec.prepare_from[d],
                    text,
                    false,
                )
            });
            if let Some(latency) = ledger.op("prepare", done) {
                prepare_ms.push(d, latency);
            }
        }

        // ---- reload: every request finds its session retired to disk
        let client = match tier.as_mut() {
            Some(tier) => &mut tier.clients[0],
            None => &mut fleet.clients[0],
        };
        let mut phase = TimeBox::new(share(Phase::Reload).as_secs_f64(), 2);
        while phase.next() {
            let k = reload_k % reload_sets.len();
            reload_k += 1;
            let ds = &reload_sets[k];
            // The way back from the disk tier, as a client sees it:
            // re-select (the server maps the artifact and re-hydrates),
            // then the answer. One sample is both round trips.
            let req = wire::sweep(rid(), &ds.id, &reload_pool[k]);
            let reply = spans::in_op(spans::next_op(), || {
                let back = make_live(client, &ds.id, ds)?;
                let mut answer = client.call(&req)?;
                answer.latency += back.latency;
                Ok(answer)
            });
            if let Some(r) = sent(&mut ledger, "reload", reply, &mut reload_ms, k) {
                if first_pass && phase.done <= 2 {
                    if let Some(rows) = ledger.op("sweep rows", wire::sweep_rows(&r.body)) {
                        journey::digest_totals_rounded(&mut ledger.digest, &rows);
                        let fresh = Twin::new(ds)?;
                        check_sweep(
                            &mut ledger,
                            &fresh.oracle(),
                            "reload",
                            &reload_pool[k],
                            &rows,
                        );
                    }
                }
            }
        }
        if spec.tier.is_none() {
            // The cold sessions pushed the hot ones out of the live tier.
            ledger.op("hot sessions live", hot_live(spec, &mut fleet.clients[0]));
        }
    }
    side.stop();
    if let Some(tier) = tier {
        tier.stop();
    }

    // ---- the paper's contract, through the wire
    let client = &mut fleet.clients[0];
    let reply = client.call(&wire::assign(rid(), &ds0.id, &aligned));
    if let Some(r) = ledger.op("aligned assign", reply) {
        if let Some(rows) = ledger.op("assign rows", wire::assign_rows(&r.body)) {
            check_aligned(&mut ledger, "aligned assign", &rows);
            check_assign(
                &mut ledger,
                &twins[0].oracle(),
                "aligned assign",
                &aligned,
                &rows,
            );
            journey::digest_exact(&mut ledger.digest, &rows);
        }
    }
    fleet.stop();

    let RoundSamples {
        sweep_ms,
        assign_ms,
        delta_ms,
    } = rounds_ms;
    for (samples, what) in [
        (&sweep_ms, "sweep"),
        (&assign_ms, "assign"),
        (&select_ms, "select_bound"),
        (&delta_ms, "apply_delta"),
        (&grid_ms, "wide sweep"),
        (&dag_ms, "wide DAG sweep"),
        (&prepare_ms, "prepare"),
        (&reload_ms, "reload"),
    ] {
        if samples.is_empty() {
            return Err(format!(
                "no {what} request succeeded: {}",
                ledger.notes.join("; ")
            ));
        }
    }
    metrics.push(prepare_ms.p25("prepare_p25_ms"));
    metrics.push(select_ms.p50("select_bound_p50_ms"));
    metrics.push(assign_ms.p25("assign_p25_ms"));
    metrics.push(sweep_ms.p25("sweep_request_p25_ms"));
    // Requests per second of each pass of rounds (both clients, reads
    // and writes).
    metrics.push(journey::rate("requests_per_s", &request_rates, requests));
    metrics.push(journey::throughput(
        "f64_scenarios_per_s",
        spec.grid_width,
        &grid_ms.all(),
    ));
    metrics.push(journey::throughput(
        "dag_f64_scenarios_per_s",
        spec.grid_width,
        &dag_ms.all(),
    ));
    metrics.push(delta_ms.p25("apply_delta_p25_ms"));
    metrics.push(reload_ms.p25("reload_p25_ms"));
    metrics.push(Metric::new("peak_rss_mb", "MiB", journey::peak_rss_mb(), 1));
    let extras = journey::extras(
        &sweep_ms,
        &[&prepare_ms, &assign_ms, &delta_ms, &reload_ms],
        &[
            (spec.grid_width, &grid_ms.all()[..]),
            (spec.grid_width, &dag_ms.all()[..]),
        ],
    );

    // The quality counts come from the twin: the server's replies were
    // checked against it above, and the wire has no exact grid sweep.
    let mut twins = twins;
    let twin = &mut twins[0].session;
    let info = twin.info();
    let (full, comp) = (
        info.original_size.unwrap_or(0),
        info.compressed_size.unwrap_or(0),
    );
    let steps = vec![3; ds0.axes.len()];
    let exact_grid = data::grid(twin, &ds0.axes, &steps);
    let worst = surface::sweep_exact_worst(twin, &exact_grid).map_err(err)?;
    let quality = vec![
        (
            "core.apply.compressed_fraction",
            comp as f64 / full.max(1) as f64,
        ),
        (
            "core.apply.vars_retained",
            info.compressed_vars.unwrap_or(0) as f64,
        ),
        ("core.sweep.max_rel_error", worst.max_rel_error),
    ];
    Ok(Outcome {
        metrics,
        ledger,
        quality,
        extras,
    })
}
