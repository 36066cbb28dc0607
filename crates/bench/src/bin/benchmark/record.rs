//! Running and recording: one run in this process, a set of runs in
//! child processes, and the comparison of two recorded sets.

use crate::journey::{Metric, END_TO_END};
use crate::layers;
use crate::stats;
use crate::surface::{self, Json};
use crate::workloads::{self, Scale, WORKLOADS};
use crate::{env, spans};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The benchmark's declaration, single-sourced: bounds and metric names
/// are read from the file the driver reads.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Untraced runs per workload when `--runs` is not given.
const DEFAULT_RUNS: usize = 5;
/// Where runs put scratch files and, by default, records.
const OUT_DIR: &str = ".bench_out";

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn text(v: &str) -> Json {
    Json::Str(v.to_owned())
}

/// The parsed declaration: `(name, unit, better, bound)` per end-to-end
/// metric.
pub fn declared_end_to_end() -> Result<Vec<(String, String, String, f64)>, String> {
    let decl = surface::json_parse(BENCHMARK_JSON)?;
    decl.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("end_to_end entry without {k:?}"))
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("end_to_end entry without a bound")?;
            Ok((field("name")?, field("unit")?, field("better")?, bound))
        })
        .collect()
}

// ------------------------------------------------------------ one run

pub struct Single<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out: Option<&'a Path>,
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> Result<Json, String> {
    metrics
        .iter()
        .map(|m| {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            let mut members = vec![("value", num(m.value)), ("unit", text(m.unit))];
            if with_samples {
                members.push(("samples", num(m.samples as f64)));
            }
            Ok((m.name.clone(), obj(members)))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Json::Obj)
}

/// Everything one run produced, before it is printed.
pub struct RunReport {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// The journey's own layer metrics, taken in every run.
    pub journey: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub notes: Vec<String>,
    pub quality: Vec<(&'static str, f64)>,
    pub wall_s: f64,
    /// Traced runs: per span name the total time and span count of the
    /// journey, and the counts taken at the layer boundaries.
    pub span_totals: Vec<(String, Json)>,
}

/// How long every vCPU spins before a full-size run measures anything.
///
/// On this host, code that is bound by the core — the cache-resident
/// `f64` kernels, the exact kernel — runs at one of two speeds a factor
/// of 1.5 to 2 apart, and which one depends on whether **both** vCPUs
/// were busy at the same time in the last few minutes: one busy thread,
/// which is all an in-process run is, does not hold the fast state, and
/// a build before the run (the driver makes two) or a one-second spin on
/// both vCPUs sets it. Code bound by memory latency (parsing, planning)
/// does not change. The spin puts every run in the same state, whatever
/// ran before it.
const HOST_WARM_UP: Duration = Duration::from_secs(2);

fn warm_up_host() {
    let until = Instant::now() + HOST_WARM_UP;
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..vcpus {
            scope.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// Runs one workload once in this process.
pub fn run_once(run: &Single<'_>) -> Result<RunReport, String> {
    let started = Instant::now();
    if run.scale == Scale::Full {
        warm_up_host();
    }
    let tmp = PathBuf::from(OUT_DIR).join(format!("tmp-{}-{}", std::process::id(), run.workload));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    if run.trace {
        spans::arm();
    }
    let result = workloads::run(run.workload, run.seed, run.seconds, run.scale, &tmp);
    let (recorded, counts) = spans::disarm();
    let report = result.and_then(|(outcome, probe)| {
        let per_layer = if run.trace {
            layers::decompose(&probe, &outcome, &recorded, run.seed, &tmp)?
        } else {
            Vec::new()
        };
        if let (true, Some(dir)) = (run.trace, run.out) {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let path = dir.join(format!("{}.trace.jsonl", run.workload));
            std::fs::write(&path, spans::to_jsonl(&recorded, &counts))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let mut end_to_end = outcome.metrics;
        end_to_end.sort_by_key(|m| END_TO_END.iter().position(|(n, ..)| *n == m.name));
        let span_totals = spans::totals(&recorded)
            .into_iter()
            .map(|(name, (ms, n))| {
                (
                    name.to_owned(),
                    obj(vec![("ms", num(ms)), ("spans", num(n as f64))]),
                )
            })
            .chain(
                counts
                    .iter()
                    .map(|(name, n)| ((*name).to_owned(), obj(vec![("count", num(*n as f64))]))),
            )
            .collect();
        Ok(RunReport {
            span_totals,
            end_to_end,
            per_layer,
            journey: outcome.extras,
            attempted: outcome.ledger.attempted,
            failed: outcome.ledger.failed,
            digest: outcome.ledger.digest.hex(),
            notes: outcome.ledger.notes,
            quality: outcome.quality,
            wall_s: 0.0,
        })
    });
    // Scratch goes whether the run worked or not.
    let _ = std::fs::remove_dir_all(&tmp);
    let mut report = report?;
    report.wall_s = started.elapsed().as_secs_f64();
    Ok(report)
}

/// One run, printed: a `detail` line for the orchestrator and people,
/// then — last — the result object of the driver's contract.
pub fn single(run: &Single<'_>) -> Result<bool, String> {
    let report = run_once(run)?;
    let missing: Vec<&str> = END_TO_END
        .iter()
        .map(|(n, ..)| *n)
        .filter(|n| !report.end_to_end.iter().any(|m| m.name == *n))
        .collect();
    if !missing.is_empty() {
        return Err(format!("the run produced no {}", missing.join(", ")));
    }
    let detail = obj(vec![
        ("detail", Json::Bool(true)),
        ("workload", text(run.workload)),
        ("seed", num(run.seed as f64)),
        ("seconds", num(run.seconds)),
        ("trace", Json::Bool(run.trace)),
        (
            "scale",
            text(if run.scale == Scale::Full {
                "full"
            } else {
                "smoke"
            }),
        ),
        ("attempted", num(report.attempted as f64)),
        ("failed", num(report.failed as f64)),
        ("digest", text(&report.digest)),
        ("wall_s", num(report.wall_s)),
        (
            "notes",
            Json::Arr(report.notes.iter().map(|n| text(n)).collect()),
        ),
        (
            "quality",
            Json::Obj(
                report
                    .quality
                    .iter()
                    .filter(|(_, v)| v.is_finite())
                    .map(|(k, v)| ((*k).to_owned(), num(*v)))
                    .collect(),
            ),
        ),
        ("end_to_end", metrics_json(&report.end_to_end, true)?),
        ("per_layer", metrics_json(&report.per_layer, true)?),
        ("journey", metrics_json(&report.journey, true)?),
        ("journey_spans", Json::Obj(report.span_totals.clone())),
    ]);
    println!("{detail}");
    for note in &report.notes {
        eprintln!("benchmark: failed op: {note}");
    }
    let shown = if run.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let result = obj(vec![
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", num(report.attempted as f64)),
        ("failed", num(report.failed as f64)),
        ("metrics", metrics_json(shown, false)?),
    ]);
    println!("{result}");
    Ok(true)
}

// --------------------------------------------------------- a set of runs

pub struct Plan<'a> {
    pub workload: Option<&'a str>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub runs: Option<usize>,
    pub smoke: bool,
    pub out: Option<&'a Path>,
}

/// One child's `detail` line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = out {
        cmd.arg("--out").arg(dir);
    }
    // A fresh process with the program's own knobs cleared: every run
    // measures the defaults.
    for knob in ["COBRA_THREADS", "COBRA_KERNEL", "COBRA_FAULTS"] {
        cmd.env_remove(knob);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} run exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    stdout
        .lines()
        .find(|l| l.starts_with("{\"detail\":true"))
        .ok_or_else(|| format!("{workload} run printed no detail line"))
        .and_then(surface::json_parse)
}

#[derive(Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
    samples: Vec<f64>,
}

#[derive(Default)]
struct WorkloadRuns {
    attempted: u64,
    failed: u64,
    digests: Vec<String>,
    notes: Vec<String>,
    end_to_end: BTreeMap<String, Series>,
    per_layer: BTreeMap<String, Series>,
    traced_end_to_end: BTreeMap<String, f64>,
    quality: BTreeMap<String, f64>,
}

fn absorb(into: &mut BTreeMap<String, Series>, detail: &Json, key: &str) {
    let Some(Json::Obj(members)) = detail.get(key) else {
        return;
    };
    for (name, m) in members {
        let s = into.entry(name.clone()).or_default();
        s.unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        s.values
            .push(m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN));
        s.samples
            .push(m.get("samples").and_then(Json::as_f64).unwrap_or(0.0));
    }
}

fn series_json(s: &Series, better: Option<&str>, bound: Option<f64>) -> Json {
    let (q1, q2, q3) = stats::quartiles(&s.values);
    let mut members = vec![
        ("unit", text(&s.unit)),
        ("median", num(q2)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("spread", num(stats::spread(&s.values))),
        (
            "values",
            Json::Arr(s.values.iter().map(|v| num(*v)).collect()),
        ),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|v| num(*v)).collect()),
        ),
    ];
    if let Some(better) = better {
        members.push(("better", text(better)));
    }
    if let Some(bound) = bound {
        members.push(("bound", num(bound)));
    }
    obj(members)
}

/// The median relative slowdown of the traced run against the untraced
/// medians, over the timing metrics, in percent.
fn trace_overhead_pct(runs: &WorkloadRuns) -> Option<f64> {
    let pcts: Vec<f64> = END_TO_END
        .iter()
        .filter(|(n, ..)| !matches!(*n, "setup_s" | "peak_rss_mb"))
        .filter_map(|(name, _, better)| {
            let base = stats::median(&runs.end_to_end.get(*name)?.values);
            let traced = *runs.traced_end_to_end.get(*name)?;
            let worse = if *better == "lower" {
                traced / base
            } else {
                base / traced
            };
            Some((worse - 1.0) * 100.0)
        })
        .collect();
    (!pcts.is_empty()).then(|| stats::median(&pcts))
}

pub fn orchestrate(plan: &Plan<'_>) -> Result<bool, String> {
    let started = Instant::now();
    let names: Vec<&str> = match plan.workload {
        Some(w) if WORKLOADS.iter().any(|(n, _)| *n == w) => vec![w],
        Some(w) => return Err(format!("unknown workload {w:?}")),
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let (runs, seconds, record) = if plan.smoke {
        (1, plan.seconds.unwrap_or(1.0), false)
    } else {
        (
            plan.runs.unwrap_or(DEFAULT_RUNS),
            // The declaration's `run_seconds` (a test pins the two).
            plan.seconds.unwrap_or(crate::DEFAULT_SECONDS),
            true,
        )
    };
    let out_dir = plan
        .out
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join("record"));
    let bounds = declared_end_to_end()?;

    let mut by_workload: BTreeMap<&str, WorkloadRuns> = BTreeMap::new();
    let mut order: Vec<Json> = Vec::new();
    // Workloads interleave round robin across runs, so a drift of the
    // host over the invocation spreads over all of them alike.
    for run in 0..runs {
        for &w in &names {
            eprintln!("run {}/{runs} of {w} ({seconds} s)", run + 1);
            let detail = run_child(w, plan.seed, seconds, false, plan.smoke, None)?;
            order.push(text(&format!("{w}#{run}")));
            let entry = by_workload.entry(w).or_default();
            entry.attempted += detail.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            entry.failed += detail.get("failed").and_then(Json::as_u64).unwrap_or(0);
            entry.digests.push(
                detail
                    .get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            );
            if let Some(notes) = detail.get("notes").and_then(Json::as_arr) {
                entry
                    .notes
                    .extend(notes.iter().filter_map(Json::as_str).map(str::to_owned));
            }
            absorb(&mut entry.end_to_end, &detail, "end_to_end");
            if let Some(Json::Obj(q)) = detail.get("quality") {
                for (k, v) in q {
                    entry
                        .quality
                        .insert(k.clone(), v.as_f64().unwrap_or(f64::NAN));
                }
            }
        }
    }
    for &w in &names {
        eprintln!("traced run of {w} ({seconds} s)");
        let trace_out = record.then_some(out_dir.as_path());
        let detail = run_child(w, plan.seed, seconds, true, plan.smoke, trace_out)?;
        order.push(text(&format!("{w}#traced")));
        let entry = by_workload.entry(w).or_default();
        // Only the counts: end-to-end numbers come from untraced runs.
        entry.attempted += detail.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        entry.failed += detail.get("failed").and_then(Json::as_u64).unwrap_or(0);
        absorb(&mut entry.per_layer, &detail, "per_layer");
        if let Some(Json::Obj(members)) = detail.get("end_to_end") {
            for (name, m) in members {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    entry.traced_end_to_end.insert(name.clone(), v);
                }
            }
        }
    }

    // ---- report
    let mut all_ok = true;
    let mut workloads_json = Vec::new();
    for &w in &names {
        let r = &by_workload[w];
        let why = WORKLOADS
            .iter()
            .find(|(n, _)| *n == w)
            .map_or("", |(_, y)| *y);
        let stable = r.digests.windows(2).all(|p| p[0] == p[1]);
        all_ok &= r.failed == 0 && stable;
        println!("\n== {w} — {why}");
        println!(
            "   ops attempted {} failed {}; result digest {} ({})",
            r.attempted,
            r.failed,
            r.digests.first().map_or("-", String::as_str),
            if stable {
                "identical across runs"
            } else {
                "DIFFERS ACROSS RUNS"
            }
        );
        for note in r.notes.iter().take(5) {
            println!("   failed op: {note}");
        }
        println!(
            "   {:<28} {:>6} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "end-to-end metric", "unit", "median", "q1", "q3", "spread", "bound"
        );
        let mut e2e_json = Vec::new();
        for (name, _, better, bound) in &bounds {
            let Some(s) = r.end_to_end.get(name) else {
                continue;
            };
            let (q1, q2, q3) = stats::quartiles(&s.values);
            println!(
                "   {name:<28} {:>6} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>6.0}%",
                s.unit,
                stats::spread(&s.values) * 100.0,
                bound * 100.0
            );
            e2e_json.push((name.clone(), series_json(s, Some(better), Some(*bound))));
        }
        let overhead = trace_overhead_pct(r);
        if !r.per_layer.is_empty() {
            println!("   layer metrics (one traced run; measured from outside by re-execution):");
            for (name, s) in &r.per_layer {
                println!("   {name:<44} {:>8} {:>16.4}", s.unit, s.values[0]);
            }
            if let Some(pct) = overhead {
                println!(
                    "   {:<44} {:>8} {pct:>16.2}",
                    "trace_overhead_pct (traced vs untraced)", "%"
                );
            }
        }
        workloads_json.push((
            w.to_owned(),
            obj(vec![
                ("why", text(why)),
                ("attempted", num(r.attempted as f64)),
                ("failed", num(r.failed as f64)),
                (
                    "result_digests",
                    Json::Arr(r.digests.iter().map(|d| text(d)).collect()),
                ),
                ("digest_stable", Json::Bool(stable)),
                ("end_to_end", Json::Obj(e2e_json)),
                (
                    "per_layer",
                    Json::Obj(
                        r.per_layer
                            .iter()
                            .map(|(k, s)| (k.clone(), series_json(s, None, None)))
                            .collect(),
                    ),
                ),
                (
                    "quality",
                    Json::Obj(
                        r.quality
                            .iter()
                            .map(|(k, v)| (k.clone(), num(*v)))
                            .collect(),
                    ),
                ),
                ("trace_overhead_pct", overhead.map_or(Json::Null, num)),
            ]),
        ));
    }

    if record {
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let mut environment = env::block();
        environment.push(("wall_s".into(), num(started.elapsed().as_secs_f64())));
        let doc = obj(vec![
            ("benchmark", text("cobra")),
            ("seed", num(plan.seed as f64)),
            ("seconds", num(seconds)),
            ("runs", num(runs as f64)),
            ("run_order", Json::Arr(order)),
            (
                "note",
                text("end_to_end: untraced runs only. per_layer: one traced run; layer numbers are measured from outside the program by re-executing its public calls on the same inputs, not in situ."),
            ),
            ("env", Json::Obj(environment)),
            ("workloads", Json::Obj(workloads_json)),
        ]);
        let path = out_dir.join("record.json");
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("\nrecord written to {}", path.display());
    } else {
        println!("\nsmoke run: nothing recorded");
    }
    Ok(all_ok)
}

// ---------------------------------------------------------- comparison

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a`, in the metric's
/// own direction (negative = better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// The rule of choosing-metrics §6–8 on two sets of runs of one
/// (workload, metric): A is the base, B the candidate.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_sweeps = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if stats::spread(a).max(stats::spread(b)) > bound {
        // Too noisy to call — unless no run of A comes near any run of B.
        return if b_sweeps {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = worse_by(ma, mb, lower_is_better);
    if change > bound {
        return Verdict::Regressed;
    }
    // A gain: at least ten run pairs, B wins nine tenths of them (ties
    // count for neither) and the medians differ by more than A's own
    // spread. Fewer pairs cannot tell a gain from the host's drift.
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(b[i], a[i])).count();
    let losses = (0..pairs).filter(|&i| beats(a[i], b[i])).count();
    let decided = wins + losses;
    if pairs >= 10
        && -change > stats::spread(a)
        && decided > 0
        && wins * 10 >= decided * 9
        && wins * 10 >= pairs * 9
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    surface::json_parse(body.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the A-vs-B table; `Ok(true)` iff nothing regressed, nothing is
/// unresolved, no operation failed and the digests agree.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = declared_end_to_end()?;
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(members)) => Ok(members.clone()),
        _ => Err("record has no workloads".to_owned()),
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let env_of = |doc: &Json, key: &str| {
        doc.get("env")
            .and_then(|e| e.get(key))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    println!(
        "A = {} (commit {})",
        a_path.display(),
        env_of(&a, "git_commit")
    );
    println!(
        "B = {} (commit {})",
        b_path.display(),
        env_of(&b, "git_commit")
    );
    let mut clean = true;
    let (build_a, build_b) = (env_of(&a, "build_package"), env_of(&b, "build_package"));
    if build_a != build_b {
        println!(
            "A was built as {build_a}, B as {build_b}: two builds of one source are two \
             binaries; compare runs of the same package"
        );
        clean = false;
    }
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("\n== {name}: missing from B");
            clean = false;
            continue;
        };
        println!("\n== {name}");
        let count = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "   ops attempted A {} B {}; failed A {} B {}",
            count(ra, "attempted"),
            count(rb, "attempted"),
            count(ra, "failed"),
            count(rb, "failed")
        );
        clean &= count(ra, "failed") == 0 && count(rb, "failed") == 0;
        let digest = |r: &Json| {
            r.get("result_digests")
                .and_then(Json::as_arr)
                .and_then(|d| d.first())
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_owned()
        };
        let same_seed = a.get("seed") == b.get("seed");
        let (da, db) = (digest(ra), digest(rb));
        if same_seed {
            println!(
                "   result_digest A {da} B {db}: {}",
                if da == db { "identical" } else { "DIFFERENT" }
            );
            clean &= da == db;
        } else {
            println!("   result_digest A {da} B {db} (different seeds, not compared)");
        }
        println!(
            "   {:<26} {:>30} {:>30} {:>16} {:>6}  verdict",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound"
        );
        for (metric, unit, better, bound) in &bounds {
            let side = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .map(values_of)
            };
            let (Some(va), Some(vb)) = (side(ra), side(rb)) else {
                println!("   {metric:<26} missing on one side");
                clean = false;
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                println!("   {metric:<26} no runs on one side");
                clean = false;
                continue;
            }
            let v = verdict(&va, &vb, better == "lower", *bound);
            clean &= matches!(v, Verdict::Improved | Verdict::Unchanged);
            let cell = |v: &[f64]| {
                let (q1, q2, q3) = stats::quartiles(v);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "   {:<26} {:>30} {:>30} {:>7.4} of {:<6.5} {:>5.0}%  {}",
                format!("{metric} ({unit})"),
                cell(&va),
                cell(&vb),
                mb / ma,
                format!("{ma:.4}"),
                bound * 100.0,
                v.as_str()
            );
        }
    }
    println!(
        "\n{}",
        if clean {
            "no regression, nothing unresolved"
        } else {
            "NOT CLEAN: see the rows above"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LAYER_METRICS;

    #[test]
    fn declaration_matches_the_code() {
        let declared = declared_end_to_end().unwrap();
        let names: Vec<_> = declared
            .iter()
            .map(|(n, u, b, _)| (n.as_str(), u.as_str(), b.as_str()))
            .collect();
        assert_eq!(names, END_TO_END);
        let decl = surface::json_parse(BENCHMARK_JSON).unwrap();
        let workloads: Vec<&str> = decl
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, _)| n));
        let layers: Vec<(&str, &str)> = decl
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap(),
                    m.get("unit").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let coded: Vec<(&str, &str)> = LAYER_METRICS.iter().map(|(n, u, _)| (*n, *u)).collect();
        assert_eq!(layers, coded);
        let setup = declared.iter().find(|(n, ..)| n == "setup_s").unwrap().3;
        assert!(declared.iter().all(|(.., b)| *b <= setup && *b <= 0.25));
        assert_eq!(
            decl.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn own_manifest_builds_with_the_root_release_profile() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let root = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), root);
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let shift = |d: f64| a.map(|x| x + d);
        // lower is better, bound 5 %
        assert_eq!(verdict(&a, &shift(0.1), true, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&a, &shift(8.0), true, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&a, &shift(-8.0), true, 0.05), Verdict::Improved);
        // five pairs are too few to call a gain
        assert_eq!(
            verdict(&a[..5], &shift(-8.0)[..5], true, 0.05),
            Verdict::Unchanged
        );
        // the same shifts read the other way for a throughput
        assert_eq!(verdict(&a, &shift(8.0), false, 0.05), Verdict::Improved);
        assert_eq!(verdict(&a, &shift(-8.0), false, 0.05), Verdict::Regressed);
        // noise wider than the bound: unresolved, unless B sweeps A
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x + 3.0), true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x / 4.0), true, 0.05),
            Verdict::Improved
        );
    }
}
