//! The five workloads: what data, through which path, sized how, and why.
//!
//! Sizes are fixed by the workload and the seed; `--seconds` only sets how
//! long each phase keeps repeating its operation. `Scale::Smoke` is the
//! tenth-size variant the tests and `--smoke` run.

use crate::data::{self, Dataset};
use crate::inproc;
use crate::journey::Outcome;
use crate::served;
use crate::surface::{self, SyntheticConfig};
use std::path::Path;

/// `(name, why)` — the `why` is the workload's entry in BENCHMARK.json.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "sweep-paper",
        "in-process, telephony at the paper's 139,260 monomials: kernels, bind, fold and exact probes are the cost; wire, JSON and parser do nothing",
    ),
    (
        "serve-paper",
        "the same paper-scale data through cobra serve: the whole answer path with compute-heavy requests, and writes beside reads on one live session",
    ),
    (
        "serve-small",
        "many tiny synthetic sessions through cobra serve: compute is microseconds, so wire, JSON, dispatch and the store tiers are the cost; churn exceeds the live tier 3x",
    ),
    (
        "explore-synth",
        "in-process cold path from text on 1,024-term polynomials under a deep random tree: parse, group analysis, planning, cut application, compile and persist are the cost",
    ),
    (
        "pipeline-tpch",
        "TPC-H through the provenance-tracking SQL engine into two-tree forest sessions: the only workload where the SQL engine and the forest planner do the work",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// What a run leaves for the traced run's decomposition pass: the first
/// dataset, and the session sizes of the workload.
pub struct Probe {
    pub dataset: Dataset,
    pub sweep_width: usize,
    pub grid_steps: Vec<usize>,
    /// The SQL capture behind the dataset's kind of provenance.
    pub capture: Capture,
}

/// How the dataset's kind of provenance is captured through the SQL
/// engine (each generator has its own schema and query).
pub enum Capture {
    Telephony { customers: usize, zips: usize },
    Synthetic(SyntheticConfig),
    Tpch { scale_factor: f64 },
}

pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    scale: Scale,
    tmp: &Path,
) -> Result<(Outcome, Probe), String> {
    match name {
        "sweep-paper" => sweep_paper(seed, seconds, scale, tmp),
        "serve-paper" => serve_paper(seed, seconds, scale, tmp),
        "serve-small" => serve_small(seed, seconds, scale, tmp),
        "explore-synth" => explore_synth(seed, seconds, scale, tmp),
        "pipeline-tpch" => pipeline_tpch(seed, seconds, scale, tmp),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            WORKLOADS.map(|(n, _)| n).join(", ")
        )),
    }
}

fn paper_dataset(seed: u64, scale: Scale) -> (Dataset, Capture) {
    // 1,000,000 customers over 1,055 zips is the paper's §4 set-up; the
    // provenance size is zips × 11 plans × 12 months either way.
    let (customers, zips) = match scale {
        Scale::Full => (1_000_000, 1055),
        Scale::Smoke => (20_000, 105),
    };
    let capture = Capture::Telephony { customers, zips };
    (data::telephony(seed, customers, zips), capture)
}

fn sweep_paper(
    seed: u64,
    seconds: f64,
    scale: Scale,
    tmp: &Path,
) -> Result<(Outcome, Probe), String> {
    let (ds, capture) = paper_dataset(seed, scale);
    let datasets = [ds];
    let grid_steps: &[usize] = if scale == Scale::Full {
        &[16, 16, 16]
    } else {
        &[6, 6, 6]
    };
    let exact_steps: &[usize] = if scale == Scale::Full {
        &[4, 4, 4]
    } else {
        &[2, 2, 2]
    };
    let spec = inproc::Spec {
        datasets: &datasets,
        raw: &|i| {
            Ok(surface::session_new(
                datasets[i].reg.clone(),
                datasets[i].polys.clone(),
            ))
        },
        prepare_all: false,
        sweep_width: 8,
        grid_steps,
        exact_steps,
        max_hops: 16,
        // The two f64 kernels and single what-ifs: the issue's metrics
        // for this workload.
        own: &[
            inproc::Phase::Interactive,
            inproc::Phase::Grid,
            inproc::Phase::DagGrid,
        ],
        tmp,
    };
    let outcome = inproc::run(&spec, seconds, seed)?;
    let [dataset] = datasets;
    Ok((
        outcome,
        Probe {
            dataset,
            sweep_width: 8,
            grid_steps: grid_steps.to_vec(),
            capture,
        },
    ))
}

fn synth_config(seed: u64, scale: Scale, small: bool) -> SyntheticConfig {
    match (small, scale) {
        // serve-small: ≈540 monomials in 8 short polynomials.
        (true, _) => SyntheticConfig {
            leaves: 32,
            max_children: 4,
            polynomials: 8,
            contexts: 4,
            density: 0.5,
            seed,
        },
        // explore-synth: ≈16.4k monomials in 16 polynomials of ≈1,024
        // terms, a 256-leaf random tree, a ≈250-point frontier.
        (false, Scale::Full) => SyntheticConfig {
            leaves: 256,
            max_children: 4,
            polynomials: 16,
            contexts: 8,
            density: 0.5,
            seed,
        },
        (false, Scale::Smoke) => SyntheticConfig {
            leaves: 64,
            max_children: 4,
            polynomials: 4,
            contexts: 4,
            density: 0.5,
            seed,
        },
    }
}

fn explore_synth(
    seed: u64,
    seconds: f64,
    scale: Scale,
    tmp: &Path,
) -> Result<(Outcome, Probe), String> {
    let config = synth_config(seed, scale, false);
    let datasets: Vec<Dataset> = (0..4u64)
        .map(|i| {
            data::synthetic(
                &format!("synth{i}"),
                SyntheticConfig {
                    seed: seed.wrapping_mul(4).wrapping_add(i),
                    ..config
                },
            )
        })
        .collect();
    let texts: Vec<String> = datasets
        .iter()
        .map(|ds| surface::render_polyset(&ds.polys, &ds.reg))
        .collect();
    let grid_steps: &[usize] = if scale == Scale::Full {
        &[64, 64]
    } else {
        &[12, 12]
    };
    let exact_steps: &[usize] = if scale == Scale::Full {
        &[6, 6]
    } else {
        &[2, 2]
    };
    let spec = inproc::Spec {
        datasets: &datasets,
        raw: &|i| surface::session_from_text(&texts[i]).map_err(|e| e.to_string()),
        prepare_all: false,
        sweep_width: 8,
        grid_steps,
        exact_steps,
        max_hops: 32,
        // The cold path — from text to ready, every bound of a fresh
        // frontier, the disk round trip — and the DAG pass on a
        // non-telephony sharing structure.
        own: &[
            inproc::Phase::Prepare,
            inproc::Phase::Hops,
            inproc::Phase::Reload,
            inproc::Phase::Grid,
            inproc::Phase::DagGrid,
        ],
        tmp,
    };
    let outcome = inproc::run(&spec, seconds, seed)?;
    let dataset = datasets.into_iter().next().expect("four inputs");
    Ok((
        outcome,
        Probe {
            dataset,
            sweep_width: 8,
            grid_steps: grid_steps.to_vec(),
            capture: Capture::Synthetic(config),
        },
    ))
}

/// The TPC-H database is the generator's default one whatever `--seed`
/// says; the seed draws the what-ifs and the deltas posed against it.
/// The result sizes of the queries move by a factor of two with the
/// database's seed (Q3 has 107 groups under one, 50 under another), and
/// with them every number that scales with size — runs of different
/// seeds would not be comparable.
pub const TPCH_DATABASE_SEED: u64 = 0x7bc4;

fn pipeline_tpch(
    seed: u64,
    seconds: f64,
    scale: Scale,
    tmp: &Path,
) -> Result<(Outcome, Probe), String> {
    // sf 0.003 is ≈18,000 lineitems: one capture of the six queries takes
    // about a third of a second (Q1 most of it, and it grows faster than
    // the data), so a run's time box holds enough of them.
    let scale_factor = if scale == Scale::Full { 0.003 } else { 0.0005 };
    let inst = surface::tpch(scale_factor, TPCH_DATABASE_SEED);
    let shape = data::TpchShape::new(&inst);
    let queries = surface::tpch_queries();
    let capture = |i: usize| surface::tpch_capture(&inst, &queries[i]).map_err(|e| e.to_string());
    let datasets: Vec<Dataset> = (0..queries.len())
        .map(|i| Ok(data::tpch_query(&inst, &shape, &queries[i], capture(i)?)))
        .collect::<Result<_, String>>()?;
    let grid_steps: &[usize] = if scale == Scale::Full {
        &[8, 8, 8]
    } else {
        &[4, 4, 4]
    };
    let spec = inproc::Spec {
        datasets: &datasets,
        raw: &|i| Ok(surface::session_new(inst.reg.clone(), capture(i)?)),
        prepare_all: true,
        sweep_width: 8,
        grid_steps,
        exact_steps: if scale == Scale::Full {
            &[6, 6, 6]
        } else {
            &[2, 2, 2]
        },
        max_hops: 16,
        // Capture through the SQL engine into forest sessions, and the
        // nation × month what-ifs posed against them.
        own: &[inproc::Phase::Prepare, inproc::Phase::Interactive],
        tmp,
    };
    let outcome = inproc::run(&spec, seconds, seed)?;
    let dataset = datasets.into_iter().next().expect("six queries");
    Ok((
        outcome,
        Probe {
            dataset,
            sweep_width: 8,
            grid_steps: grid_steps.to_vec(),
            capture: Capture::Tpch { scale_factor },
        },
    ))
}

fn serve_paper(
    seed: u64,
    seconds: f64,
    scale: Scale,
    tmp: &Path,
) -> Result<(Outcome, Probe), String> {
    let (ds, capture) = paper_dataset(seed, scale);
    let datasets = vec![ds];
    // What the prepare phase sends as text: the same data at a sixteenth
    // of the zips (≈8,700 monomials, ≈143 KB) — the server's JSON parser
    // takes a third of a second over a `polys` string that long, and
    // four times as long over one twice the length.
    let sixteenth = if scale == Scale::Full {
        (62_500, 66)
    } else {
        (4_000, 26)
    };
    let mut cut = data::telephony(seed, sixteenth.0, sixteenth.1);
    cut.id = "paper-sixteenth".into();
    let prepare_from = [cut];
    // The reload phase's own server: two more sixteenths against a live
    // tier of one, so each request retires the other session.
    let tier: Vec<Dataset> = ["tier-a", "tier-b"]
        .iter()
        .zip(1u64..)
        .map(|(id, k)| {
            let mut ds = data::telephony(seed.wrapping_add(k), sixteenth.0, sixteenth.1);
            ds.id = (*id).to_owned();
            ds
        })
        .collect();
    let spec = served::Spec {
        datasets: &datasets,
        from_disk: true,
        prepare_from: &prepare_from,
        tier: Some(&tier),
        hot: 1,
        // Room for the flat session and its DAG twin: nothing this large
        // is retired during the run.
        max_sessions: 2,
        sweep_width: 64,
        grid_width: if scale == Scale::Full { 512 } else { 64 },
        shared_pool: true,
        // Reads and writes beside each other on one live session.
        own: &[served::Phase::Rounds],
        tmp,
    };
    let outcome = served::run(&spec, seconds, seed)?;
    let dataset = datasets.into_iter().next().expect("one dataset");
    Ok((
        outcome,
        Probe {
            dataset,
            sweep_width: 64,
            grid_steps: vec![8, 8, 8],
            capture,
        },
    ))
}

fn serve_small(
    seed: u64,
    seconds: f64,
    scale: Scale,
    tmp: &Path,
) -> Result<(Outcome, Probe), String> {
    // 24 sessions against a live tier of 8: the hot set of 6 fits, the
    // churn over all 24 exceeds it three times over.
    let sessions = if scale == Scale::Full { 24 } else { 6 };
    let config = synth_config(seed, scale, true);
    let datasets: Vec<Dataset> = (0..sessions as u64)
        .map(|i| {
            data::synthetic(
                &format!("s{i}"),
                SyntheticConfig {
                    seed: seed.wrapping_mul(64).wrapping_add(i),
                    ..config
                },
            )
        })
        .collect();
    let spec = served::Spec {
        datasets: &datasets,
        from_disk: false,
        prepare_from: &datasets,
        tier: None,
        hot: sessions / 4,
        max_sessions: sessions / 3,
        sweep_width: 8,
        grid_width: 256,
        shared_pool: false,
        // The hot set's traffic, and requests that miss the live tier.
        own: &[served::Phase::Rounds, served::Phase::Reload],
        tmp,
    };
    let outcome = served::run(&spec, seconds, seed)?;
    let dataset = datasets.into_iter().next().expect("at least one session");
    Ok((
        outcome,
        Probe {
            dataset,
            sweep_width: 8,
            grid_steps: vec![16, 16],
            capture: Capture::Synthetic(config),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journey::END_TO_END;
    use crate::layers::{self, LAYER_METRICS};
    use crate::spans;

    /// A time box so short that every phase runs just its minimum.
    const BLINK: f64 = 0.02;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cobra-benchmark-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn smoke(name: &str, seed: u64) -> (Outcome, Probe) {
        let tmp = scratch(&format!("{name}-{seed}"));
        let out = run(name, seed, BLINK, Scale::Smoke, &tmp);
        let _ = std::fs::remove_dir_all(&tmp);
        out.unwrap_or_else(|e| panic!("{name} (seed {seed}) did not run: {e}"))
    }

    fn check_workload(name: &str) {
        let (a, _) = smoke(name, 5);
        let (b, _) = smoke(name, 5);
        let (c, _) = smoke(name, 6);
        for (run, outcome) in [("a", &a), ("b", &b), ("c", &c)] {
            assert!(outcome.ledger.attempted > 0);
            assert_eq!(
                outcome.ledger.failed, 0,
                "{name} run {run}: failed ops (the oracle disagreed or an op was refused): {:?}",
                outcome.ledger.notes
            );
            for (metric, unit, _) in END_TO_END {
                let m = outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == metric)
                    .unwrap_or_else(|| panic!("{name} reports no {metric}"));
                assert_eq!(m.unit, unit);
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{name} {metric} = {}",
                    m.value
                );
            }
            assert_eq!(outcome.metrics.len(), END_TO_END.len());
        }
        assert_eq!(
            a.ledger.digest, b.ledger.digest,
            "{name}: one seed, two digests"
        );
        assert_ne!(
            a.ledger.digest, c.ledger.digest,
            "{name}: two seeds, one digest"
        );
    }

    #[test]
    fn sweep_paper_is_clean_and_deterministic() {
        check_workload("sweep-paper");
    }

    #[test]
    fn serve_paper_is_clean_and_deterministic() {
        check_workload("serve-paper");
    }

    #[test]
    fn serve_small_is_clean_and_deterministic() {
        check_workload("serve-small");
    }

    #[test]
    fn explore_synth_is_clean_and_deterministic() {
        check_workload("explore-synth");
    }

    #[test]
    fn pipeline_tpch_is_clean_and_deterministic() {
        check_workload("pipeline-tpch");
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run("no-such-workload", 1, BLINK, Scale::Smoke, &scratch("none")).is_err());
    }

    #[test]
    fn a_traced_run_reports_every_layer_metric() {
        // The recorder is process-global: one traced test at a time.
        let _guard = spans::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for name in ["explore-synth", "serve-small"] {
            let tmp = scratch(&format!("{name}-traced"));
            spans::arm();
            let (outcome, probe) = run(name, 5, BLINK, Scale::Smoke, &tmp).unwrap();
            let (recorded, counts) = spans::disarm();
            assert_eq!(outcome.ledger.failed, 0, "{:?}", outcome.ledger.notes);
            assert!(recorded
                .iter()
                .any(|s| s.name == "core.session.sweep_fold_f64" && s.op != 0));
            assert!(counts.contains_key("core.sweep.f64_scenarios"));
            let metrics = layers::decompose(&probe, &outcome, &recorded, 5, &tmp).unwrap();
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, LAYER_METRICS.map(|(n, ..)| n));
            assert!(metrics.iter().all(|m| m.value.is_finite()));
            let _ = std::fs::remove_dir_all(&tmp);
        }
    }
}
