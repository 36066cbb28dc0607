//! The in-process journey: the analyst's operations as direct calls on
//! `CobraSession`s, sequential engines, one caller.
//!
//! Three workloads run it — `sweep-paper`, `explore-synth` and
//! `pipeline-tpch` — differing in the data, in how a session's
//! polynomials come to exist ([`Spec::raw`]: cloned from memory, parsed
//! from text, captured by the SQL engine) and in which phases they are
//! about ([`Spec::own`], which sets how the run's seconds are split).
//!
//! The phases do not run once each but in [`CYCLES`] passes, each pass a
//! third of every phase's time box. A shared host stalls in bursts of
//! up to a few seconds; interleaving spreads every metric's samples over
//! the whole run, so a burst lands on a minority of each metric's
//! samples and the medians hold.

use crate::data::{self, Bindings, Dataset};
use crate::journey::{
    self, check_aligned, check_assign, check_grid, check_sweep, timed, ByKind, Ledger, Metric,
    Oracle, Outcome, Samples, TimeBox,
};
use crate::spans;
use crate::stats;
use crate::surface::{self, CobraSession, MaxAbsError, Rat, ScenarioSet, SplitMix64};
use std::path::Path;
use std::time::Instant;

/// Passes over the phases (see the module docs).
const CYCLES: usize = 3;
/// Sweeps and exact what-ifs at the head of the first pass that are
/// digested and checked; the first pass always runs at least this many.
const CHECKED_SWEEPS: usize = 6;
const CHECKED_ASSIGNS: usize = 2;

/// The phases of a pass, in the order they run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Interactive,
    Grid,
    DagGrid,
    Hops,
    Delta,
    Prepare,
    Reload,
}

const PHASES: [Phase; 7] = [
    Phase::Interactive,
    Phase::Grid,
    Phase::DagGrid,
    Phase::Hops,
    Phase::Delta,
    Phase::Prepare,
    Phase::Reload,
];

pub struct Spec<'a> {
    pub datasets: &'a [Dataset],
    /// Raw input `i` → a session holding its polynomials, nothing else.
    pub raw: &'a dyn Fn(usize) -> Result<CobraSession, String>,
    /// One `prepare` sample covers every dataset (the inputs are one
    /// capture pass and differ too much in size for a median over them
    /// to mean anything).
    pub prepare_all: bool,
    /// Single-variable perturbations per interactive sweep.
    pub sweep_width: usize,
    /// Levels per axis of the large `f64` grid and of the exact grid the
    /// first pass checks it against.
    pub grid_steps: &'a [usize],
    pub exact_steps: &'a [usize],
    /// Most bounds one hop pass visits.
    pub max_hops: usize,
    /// The phases the workload is about (see `journey::share`).
    pub own: &'a [Phase],
    /// Scratch directory for artifacts (inside the checkout).
    pub tmp: &'a Path,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Trees → frontier → primary bound → warm engines: the line every
/// "ready" is timed to.
fn make_ready(s: &mut CobraSession, ds: &Dataset, trees: &[String]) -> Result<(), String> {
    for tree in trees {
        surface::add_tree_text(s, tree).map_err(err)?;
    }
    let (_, min_size, _) = surface::plan_frontier(s).map_err(err)?;
    surface::select_bound(s, journey::primary_bound(ds, min_size)).map_err(err)?;
    surface::warm_up(s).map_err(err)
}

fn ready(spec: &Spec<'_>, i: usize) -> Result<CobraSession, String> {
    let mut s = (spec.raw)(i)?;
    make_ready(&mut s, &spec.datasets[i], &spec.datasets[i].trees)?;
    Ok(s)
}

/// Flat sessions for every dataset plus a DAG-armed twin of the first.
fn build_all(spec: &Spec<'_>) -> Result<(Vec<CobraSession>, CobraSession), String> {
    let flat = (0..spec.datasets.len())
        .map(|i| ready(spec, i))
        .collect::<Result<Vec<_>, _>>()?;
    let mut dag = ready(spec, 0)?;
    surface::compile_dag(&mut dag).map_err(err)?;
    surface::warm_up(&dag).map_err(err)?;
    Ok((flat, dag))
}

fn assign_rows(s: &mut CobraSession, bindings: &Bindings) -> Result<Vec<(Rat, Rat)>, String> {
    let scenario = data::valuation(s.registry_mut(), bindings);
    let cmp = surface::assign(s, &scenario).map_err(err)?;
    Ok(cmp
        .rows
        .into_iter()
        .map(|r| (r.full, r.compressed))
        .collect())
}

fn sweep_rows(s: &mut CobraSession, bindings: &Bindings) -> Result<Vec<(f64, f64)>, String> {
    let set = data::perturbation_set(s.registry_mut(), bindings);
    surface::sweep_f64_totals(s, &set).map_err(err)
}

/// Absorbs a delta and gets back to answering: patch, (forests replan
/// and re-select — a delta clears their staircase), recompile.
fn absorb(
    s: &mut CobraSession,
    ds: &Dataset,
    delta: &surface::PolyDelta<Rat>,
) -> Result<(), String> {
    surface::session_apply_delta(s, delta).map_err(err)?;
    if ds.trees.len() > 1 {
        let (_, min_size, _) = surface::plan_frontier(s).map_err(err)?;
        surface::select_bound(s, journey::primary_bound(ds, min_size)).map_err(err)?;
    }
    surface::warm_up(s).map_err(err)
}

/// Disk round trip: snapshot, write, map, re-hydrate, re-select, warm.
fn reload(s: &CobraSession, ds: &Dataset, path: &Path) -> Result<CobraSession, String> {
    let bytes = surface::snapshot_session(s).map_err(err)?;
    surface::write_artifact(path, &bytes)?;
    let artifact = surface::open_artifact(path)?;
    let mut back = surface::restore_session(&artifact).map_err(err)?;
    let min_size = surface::frontier_sizes(&back).map_err(err)?[0];
    surface::select_bound(&mut back, journey::primary_bound(ds, min_size)).map_err(err)?;
    surface::warm_up(&back).map_err(err)?;
    Ok(back)
}

/// One pass of a grid phase: sweeps `run` until the pass's time box
/// closes; the first fold of the first pass is digested and checked.
///
/// The first sweep of a pass is run but not sampled. It follows another
/// phase, whose working set has pushed this one's programs out of the
/// caches, and reads up to twice as slow as the ones after it; a pass
/// holds only a few sweeps, so whether the slow one made up a half or a
/// third of them moved the median more than any change would. The
/// throughput reported is the steady one.
#[allow(clippy::too_many_arguments)]
fn grid_pass(
    ledger: &mut Ledger,
    ms: &mut Samples,
    first: &mut Option<MaxAbsError>,
    name: &str,
    seconds: f64,
    oracle: Option<(&Oracle<'_>, &ScenarioSet, f64)>,
    run: &dyn Fn() -> Result<MaxAbsError, String>,
) {
    let mut phase = TimeBox::new(seconds, 2);
    while phase.next() {
        let op = spans::next_op();
        let (fold, dt) = timed(|| spans::in_op(op, run));
        if phase.done > 1 {
            ms.push(dt);
        }
        if let Some(fold) = ledger.op(name, fold) {
            if let (None, Some((oracle, set, tolerance))) = (first.as_ref(), oracle) {
                journey::digest_fold(&mut ledger.digest, &fold);
                check_grid(ledger, oracle, name, set, &fold, tolerance);
                *first = Some(fold);
            }
        }
    }
}

/// Runs the journey for about `seconds` (each pass of each phase at
/// least its minimum number of ops) and reports every end-to-end metric.
pub fn run(spec: &Spec<'_>, seconds: f64, seed: u64) -> Result<Outcome, String> {
    let nd = spec.datasets.len();
    let mut rng = SplitMix64::new(seed ^ 0x696e_7072_6f63);
    let mut ledger = Ledger::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut quality: Vec<(&'static str, f64)> = Vec::new();

    // ---- set-up: three times, five when it is quick; the last is kept
    let mut setup = Samples::default();
    let mut built = None;
    let started = Instant::now();
    while setup.0.len() < 3 || (setup.0.len() < 5 && started.elapsed().as_secs_f64() < 1.0) {
        drop(built.take());
        let (sessions, dt) = timed(|| build_all(spec));
        setup.push(dt);
        built = ledger.op("setup", sessions);
    }
    let (mut flat, dag) = built.ok_or_else(|| ledger.notes.join("; "))?;
    metrics.push(Metric::new(
        "setup_s",
        "s",
        stats::median(&setup.0) / 1e3,
        setup.0.len(),
    ));
    {
        let info = flat[0].info();
        let (full, comp) = (
            info.original_size.unwrap_or(0),
            info.compressed_size.unwrap_or(0),
        );
        quality.push((
            "core.apply.compressed_fraction",
            comp as f64 / full.max(1) as f64,
        ));
        quality.push((
            "core.apply.vars_retained",
            info.compressed_vars.unwrap_or(0) as f64,
        ));
    }

    // ---- seeded inputs, drawn before anything is timed
    let sweeps: Vec<Vec<Bindings>> = spec
        .datasets
        .iter()
        .map(|ds| {
            (0..24)
                .map(|_| ds.perturbations(&mut rng, spec.sweep_width))
                .collect()
        })
        .collect();
    let assigns: Vec<Vec<Bindings>> = spec
        .datasets
        .iter()
        .map(|ds| (0..12).map(|_| ds.assignment(&mut rng)).collect())
        .collect();
    let aligned: Vec<Bindings> = spec
        .datasets
        .iter()
        .map(|ds| ds.aligned(&mut rng))
        .collect();
    let targets: Vec<_> = spec
        .datasets
        .iter()
        .map(|ds| ds.delta_targets(&mut rng))
        .collect();
    let ds0 = &spec.datasets[0];
    let grid = data::grid(&mut flat[0], &ds0.axes, spec.grid_steps);
    let exact_grid = data::grid(&mut flat[0], &ds0.axes, spec.exact_steps);
    // A forest's staircase lives in memory only, so a forest dataset
    // goes through the disk tier as a single-tree twin over its first
    // tree.
    let twins: Vec<Option<CobraSession>> = (0..nd)
        .map(|d| {
            let ds = &spec.datasets[d];
            (ds.trees.len() > 1).then(|| {
                let mut s = (spec.raw)(d)?;
                make_ready(&mut s, ds, &ds.trees[..1])?;
                Ok::<_, String>(s)
            })
        })
        .map(|twin| twin.and_then(|t| ledger.op("reload twin", t)))
        .collect();

    // Per-dataset samples: the datasets of one workload can differ in
    // size by orders of magnitude (see `ByKind`).
    let (mut sweep_ms, mut assign_ms) = (ByKind::new(nd), ByKind::new(nd));
    let mut rates = Vec::new();
    let (mut grid_ms, mut dag_ms) = (Samples::default(), Samples::default());
    let (mut hop_ms, mut delta_ms, mut reload_ms) =
        (ByKind::new(nd), ByKind::new(nd), ByKind::new(nd));
    let mut prepare_ms = ByKind::new(if spec.prepare_all { 1 } else { nd });
    let (mut grid_first, mut dag_first, mut exact_first) = (None, None, None);
    // Op counters run on across passes, so the seeded pools keep turning.
    let (mut interactive_k, mut hop_k, mut delta_k, mut prepare_k, mut reload_k) = (0, 0, 0, 0, 0);
    let share = |p: Phase| seconds * journey::share(&PHASES, spec.own, p) / CYCLES as f64;
    // Ops of the delta and reload phases that are digested and checked;
    // the first pass always runs at least this many.
    let checked_writes = nd.min(2);

    for cycle in 0..CYCLES {
        let first_pass = cycle == 0;

        // ---- interactive: three sweeps, then one exact what-if, round
        // robin over the datasets
        let mut checked_sweeps = Vec::new();
        let mut checked_assigns = Vec::new();
        let mut phase = TimeBox::new(share(Phase::Interactive), 10);
        let started = Instant::now();
        while phase.next() {
            let k = interactive_k;
            interactive_k += 1;
            let d = (k / 4) % nd;
            let op = spans::next_op();
            if k % 4 == 3 {
                let b = &assigns[d][(k / 4 / nd) % assigns[d].len()];
                let (rows, dt) = timed(|| spans::in_op(op, || assign_rows(&mut flat[d], b)));
                assign_ms.push(d, dt);
                if let Some(rows) = ledger.op("assign", rows) {
                    if first_pass && checked_assigns.len() < CHECKED_ASSIGNS {
                        checked_assigns.push((d, b, rows));
                    }
                }
            } else {
                let b = &sweeps[d][(k - k / 4) / nd % sweeps[d].len()];
                let (rows, dt) = timed(|| spans::in_op(op, || sweep_rows(&mut flat[d], b)));
                sweep_ms.push(d, dt);
                if let Some(rows) = ledger.op("sweep", rows) {
                    if first_pass && checked_sweeps.len() < CHECKED_SWEEPS {
                        checked_sweeps.push((d, b, rows));
                    }
                }
            }
        }
        rates.push(phase.done as f64 / started.elapsed().as_secs_f64());
        for (d, b, rows) in &checked_sweeps {
            journey::digest_totals(&mut ledger.digest, rows);
            let oracle = Oracle::over(&spec.datasets[*d].polys, &spec.datasets[*d].reg, &flat[*d]);
            check_sweep(&mut ledger, &oracle, "sweep", b, rows);
        }
        for (d, b, rows) in &checked_assigns {
            journey::digest_exact(&mut ledger.digest, rows);
            let oracle = Oracle::over(&spec.datasets[*d].polys, &spec.datasets[*d].reg, &flat[*d]);
            check_assign(&mut ledger, &oracle, "assign", b, rows);
        }

        // ---- large grids on the first dataset: flat, then the DAG twin
        {
            let oracle = first_pass.then(|| Oracle::over(&ds0.polys, &ds0.reg, &flat[0]));
            let f64_check = oracle
                .as_ref()
                .map(|o| (o, &grid, journey::GRID_F64_TOLERANCE));
            let exact_check = oracle
                .as_ref()
                .map(|o| (o, &exact_grid, journey::GRID_EXACT_TOLERANCE));
            let flat0 = &flat[0];
            grid_pass(
                &mut ledger,
                &mut grid_ms,
                &mut grid_first,
                "f64_scenarios_per_s",
                share(Phase::Grid),
                f64_check,
                &|| {
                    surface::sweep_f64_worst(flat0, &grid)
                        .map(|(f, _)| f)
                        .map_err(err)
                },
            );
            grid_pass(
                &mut ledger,
                &mut dag_ms,
                &mut dag_first,
                "dag_f64_scenarios_per_s",
                share(Phase::DagGrid),
                f64_check,
                &|| {
                    surface::sweep_f64_worst(&dag, &grid)
                        .map(|(f, _)| f)
                        .map_err(err)
                },
            );
            // One exact sweep, for the check and the quality count (how
            // fast it runs is the traced run's to say).
            if let Some((oracle, set, tolerance)) = exact_check {
                let fold = surface::sweep_exact_worst(flat0, set).map_err(err);
                if let Some(fold) = ledger.op("exact sweep", fold) {
                    journey::digest_fold(&mut ledger.digest, &fold);
                    check_grid(&mut ledger, oracle, "exact sweep", set, &fold, tolerance);
                    exact_first = Some(fold);
                }
            }
        }

        // ---- hops: every bound of a fresh session's frontier, cold
        // engines
        let mut phase = TimeBox::new(share(Phase::Hops), 1);
        while phase.next() {
            let first_hops = hop_k == 0;
            let d = hop_k % nd;
            hop_k += 1;
            let ds = &spec.datasets[d];
            let fresh = (spec.raw)(d).and_then(|mut s| {
                for tree in &ds.trees {
                    surface::add_tree_text(&mut s, tree).map_err(err)?;
                }
                surface::plan_frontier(&mut s).map_err(err)?;
                let sizes = surface::frontier_sizes(&s).map_err(err)?;
                Ok((s, sizes))
            });
            let Some((mut s, sizes)) = ledger.op("hop session", fresh) else {
                continue;
            };
            for bound in journey::spaced_bounds(&sizes, spec.max_hops) {
                let op = spans::next_op();
                let (report, dt) = timed(|| {
                    spans::in_op(op, || {
                        let report = surface::select_bound(&mut s, bound).map_err(err)?;
                        surface::warm_up(&s).map_err(err)?;
                        Ok::<_, String>(report)
                    })
                });
                hop_ms.push(d, dt);
                if let Some(report) = ledger.op("select_bound", report) {
                    ledger.check(report.compressed_size <= bound, || {
                        format!(
                            "select_bound({bound}) chose size {}",
                            report.compressed_size
                        )
                    });
                    if first_hops {
                        ledger.digest.u64(report.compressed_size);
                        ledger.digest.u64(report.compressed_vars as u64);
                    }
                }
            }
        }

        // ---- deltas: 16 coefficient edits per op on the live sessions
        let mut touched = vec![false; nd];
        let least = if first_pass { checked_writes } else { 1 };
        let mut phase = TimeBox::new(share(Phase::Delta), least);
        while phase.next() {
            let k = delta_k;
            delta_k += 1;
            let d = k % nd;
            touched[d] = true;
            let round = 1 + (k / nd) as u64;
            let ds = &spec.datasets[d];
            let delta = data::delta_in(ds, flat[d].registry_mut(), &targets[d], round);
            let op = spans::next_op();
            let (done, dt) = timed(|| spans::in_op(op, || absorb(&mut flat[d], ds, &delta)));
            delta_ms.push(d, dt);
            if ledger.op("apply_delta", done).is_some() && first_pass && k < checked_writes {
                // The patched session against the oracle on patched
                // polynomials.
                let mut patched = ds.polys.clone();
                let same = data::delta(&targets[d], round);
                if ledger
                    .op(
                        "oracle delta",
                        surface::polyset_apply_delta(&mut patched, &same),
                    )
                    .is_some()
                {
                    if let Some(rows) = ledger.op(
                        "assign after delta",
                        assign_rows(&mut flat[d], &assigns[d][0]),
                    ) {
                        journey::digest_exact(&mut ledger.digest, &rows);
                        let oracle = Oracle::over(&patched, &ds.reg, &flat[d]);
                        check_assign(
                            &mut ledger,
                            &oracle,
                            "assign after delta",
                            &assigns[d][0],
                            &rows,
                        );
                    }
                }
            }
        }
        // Put the originals back so every other phase sees the seeded
        // state.
        for d in (0..nd).filter(|&d| touched[d]) {
            let ds = &spec.datasets[d];
            let originals = data::delta_in(ds, flat[d].registry_mut(), &targets[d], 0);
            ledger.op("restore delta", absorb(&mut flat[d], ds, &originals));
        }

        // ---- prepare: raw input → ready, the whole way, every time
        let mut phase = TimeBox::new(share(Phase::Prepare), 1);
        while phase.next() {
            let op = spans::next_op();
            let d = prepare_k % nd;
            let (done, dt) = if spec.prepare_all {
                timed(|| spans::in_op(op, || (0..nd).try_for_each(|i| ready(spec, i).map(drop))))
            } else {
                timed(|| spans::in_op(op, || ready(spec, d).map(drop)))
            };
            prepare_k += 1;
            prepare_ms.push(d, dt);
            ledger.op("prepare", done);
        }

        // ---- reload: through the disk tier and back to warm
        let mut phase = TimeBox::new(share(Phase::Reload), least);
        while phase.next() {
            let k = reload_k;
            reload_k += 1;
            let d = k % nd;
            let ds = &spec.datasets[d];
            let source = twins[d].as_ref().unwrap_or(&flat[d]);
            let path = spec.tmp.join(format!("{}.cobra", ds.id));
            let op = spans::next_op();
            let (back, dt) = timed(|| spans::in_op(op, || reload(source, ds, &path)));
            reload_ms.push(d, dt);
            if let Some(mut back) = ledger.op("reload", back) {
                if first_pass && k < checked_writes {
                    if let Some(rows) = ledger.op(
                        "assign after reload",
                        assign_rows(&mut back, &assigns[d][1]),
                    ) {
                        journey::digest_exact(&mut ledger.digest, &rows);
                        let oracle = Oracle::over(&ds.polys, &ds.reg, &back);
                        check_assign(
                            &mut ledger,
                            &oracle,
                            "assign after reload",
                            &assigns[d][1],
                            &rows,
                        );
                    }
                }
            }
        }
    }

    // ---- the paper's contract, on every dataset
    for d in 0..nd {
        if let Some(rows) = ledger.op("aligned assign", assign_rows(&mut flat[d], &aligned[d])) {
            check_aligned(&mut ledger, "aligned assign", &rows);
            let oracle = Oracle::over(&spec.datasets[d].polys, &spec.datasets[d].reg, &flat[d]);
            check_assign(&mut ledger, &oracle, "aligned assign", &aligned[d], &rows);
            journey::digest_exact(&mut ledger.digest, &rows);
        }
    }

    metrics.push(prepare_ms.p25("prepare_p25_ms"));
    metrics.push(hop_ms.p50("select_bound_p50_ms"));
    metrics.push(assign_ms.p25("assign_p25_ms"));
    metrics.push(sweep_ms.p25("sweep_request_p25_ms"));
    // Ops per second of each pass's interactive phase.
    metrics.push(journey::rate("requests_per_s", &rates, interactive_k));
    metrics.push(journey::throughput(
        "f64_scenarios_per_s",
        grid.len(),
        &grid_ms.0,
    ));
    metrics.push(journey::throughput(
        "dag_f64_scenarios_per_s",
        grid.len(),
        &dag_ms.0,
    ));
    metrics.push(delta_ms.p25("apply_delta_p25_ms"));
    metrics.push(reload_ms.p25("reload_p25_ms"));
    metrics.push(Metric::new("peak_rss_mb", "MiB", journey::peak_rss_mb(), 1));
    // From the exact sweep, so it is the abstraction's error alone and
    // repeats to the bit: no kernel or reassociation can move it.
    quality.push((
        "core.sweep.max_rel_error",
        exact_first.map_or(f64::NAN, |f: MaxAbsError| f.max_rel_error),
    ));
    let extras = journey::extras(
        &sweep_ms,
        &[&prepare_ms, &assign_ms, &delta_ms, &reload_ms],
        &[(grid.len(), &grid_ms.0[..]), (grid.len(), &dag_ms.0[..])],
    );
    Ok(Outcome {
        metrics,
        ledger,
        quality,
        extras,
    })
}
