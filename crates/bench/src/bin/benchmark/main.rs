//! `benchmark` — the repository's one reproducible benchmark.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//!     one run of one workload; the last line of stdout is the result
//!     object {"correct","attempted","failed","metrics"} — every
//!     end-to-end metric with --trace 0, every layer metric with --trace 1
//! benchmark [--runs N] [--seed N] [--seconds S] [--workload NAME] [--out DIR]
//!     N untraced runs + 1 traced run of every workload, each in a fresh
//!     child process, workloads interleaved; prints medians, quartiles
//!     and spreads and writes DIR/record.json (+ trace.jsonl)
//! benchmark --smoke          tenth-size, one run, nothing recorded
//! benchmark --compare A/record.json B/record.json
//! ```
//!
//! See README.md in this directory for the metrics, the workloads and
//! how to compare two commits.

mod data;
mod env;
mod inproc;
mod journey;
mod layers;
mod record;
mod served;
mod spans;
mod stats;
mod surface;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given (the value in
/// BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 10.0;
pub const DEFAULT_SEED: u64 = 12;

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<usize>,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => out.workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => out.seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => {
                let s: f64 = number(value(&mut it, flag)?, flag)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--runs" => {
                let n: usize = number(value(&mut it, flag)?, flag)?;
                if n == 0 || n > 1000 {
                    return Err(format!("--runs must be in 1..=1000, got {n}"));
                }
                out.runs = Some(n);
            }
            "--out" => out.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--smoke" => out.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                out.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        return record::compare(a, b);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    // One run of one workload: the driver's contract, and what the
    // orchestrator re-executes itself as.
    if let (Some(workload), Some(seconds), None) = (&args.workload, args.seconds, args.runs) {
        let run = record::Single {
            workload,
            seed,
            seconds,
            trace: args.trace.unwrap_or(false),
            scale: if args.smoke {
                workloads::Scale::Smoke
            } else {
                workloads::Scale::Full
            },
            out: args.out.as_deref(),
        };
        return record::single(&run);
    }
    record::orchestrate(&record::Plan {
        workload: args.workload.as_deref(),
        seed,
        seconds: args.seconds,
        runs: args.runs,
        smoke: args.smoke,
        out: args.out.as_deref(),
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse("--workload serve-small --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-small"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(12.0), Some(true))
        );
        assert!(parse("--compare a.json b.json").unwrap().compare.is_some());
        assert!(parse("--smoke").unwrap().smoke);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--trace 2",
            "--runs 0",
            "--compare only-one.json",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
