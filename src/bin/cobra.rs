//! `cobra` — command-line front end to the compression pipeline.
//!
//! ```text
//! cobra demo
//!     Run the paper's running example end to end.
//!
//! cobra compress --polys FILE --tree TREE --bound N
//!                [--scenario v=1.1,w=0.8] [--trace] [--sensitivity]
//!                [--dag]
//!     Compress a polynomial file (text interchange format: one
//!     `label = polynomial` per line) against an abstraction tree
//!     (inline text like `Plans(Standard(p1,p2), v)` or `@file`),
//!     then optionally evaluate a what-if scenario. `--dag` adds
//!     algebraic compression: the compiled engines are factored into
//!     shared-subterm DAG programs (fewer multiplies, identical
//!     results) and the rewrite accounting is printed.
//!
//! cobra serve [--addr HOST:PORT] [--store DIR] [--kernel TARGET]
//!             [--max-sessions N]
//!     Run the COBRA sweep server (length-prefixed JSON frames over
//!     TCP). `--store` enables the persistent session tier;
//!     `--kernel` pins the batch kernel (auto | scalar) for every
//!     session worker; `--max-sessions` caps the
//!     live in-memory tier, evicting least-recently-used sessions to
//!     the store directory.
//! ```

use cobra::core::{CobraSession, SensitivityReport};
use cobra::provenance::Valuation;
use cobra::util::Rat;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("cobra: {message}");
            eprintln!("usage: cobra demo | cobra compress --polys FILE --tree TREE --bound N [--scenario v=1.1,...] [--trace] [--sensitivity] [--dag] | cobra serve [--addr HOST:PORT] [--store DIR] [--kernel auto|scalar] [--max-sessions N]");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `compress` invocation.
#[derive(Debug, Default, PartialEq)]
struct CompressArgs {
    polys: String,
    tree: String,
    bound: u64,
    scenario: Vec<(String, Rat)>,
    trace: bool,
    sensitivity: bool,
    dag: bool,
}

fn parse_compress_args(args: &[String]) -> Result<CompressArgs, String> {
    let mut out = CompressArgs::default();
    let mut bound = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--polys" => out.polys = value()?,
            "--tree" => out.tree = value()?,
            "--bound" => {
                bound = Some(
                    value()?
                        .replace(',', "")
                        .parse::<u64>()
                        .map_err(|e| format!("--bound: {e}"))?,
                )
            }
            "--scenario" => {
                for part in value()?.split(',') {
                    let (name, factor) = part
                        .split_once('=')
                        .ok_or_else(|| format!("--scenario entries are var=factor, got {part:?}"))?;
                    let factor = Rat::parse(factor.trim())
                        .map_err(|e| format!("--scenario {name}: {e}"))?;
                    out.scenario.push((name.trim().to_owned(), factor));
                }
            }
            "--trace" => out.trace = true,
            "--sensitivity" => out.sensitivity = true,
            "--dag" => out.dag = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.polys.is_empty() {
        return Err("--polys is required".into());
    }
    if out.tree.is_empty() {
        return Err("--tree is required".into());
    }
    out.bound = bound.ok_or("--bound is required")?;
    Ok(out)
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("demo") => demo(),
        Some("compress") => compress(parse_compress_args(&args[1..])?),
        Some("serve") => serve(parse_serve_args(&args[1..])?),
        _ => Err("expected a subcommand: demo | compress | serve".into()),
    }
}

fn parse_serve_args(args: &[String]) -> Result<cobra::server::ServerConfig, String> {
    let mut config = cobra::server::ServerConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?,
            "--store" => config.store_dir = Some(value()?.into()),
            "--kernel" => {
                config.kernel = value()?
                    .parse()
                    .map_err(|e: cobra::util::kernel::UnknownKernelTarget| e.to_string())?
            }
            "--max-sessions" => {
                config.max_sessions = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--max-sessions: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(config)
}

fn serve(config: cobra::server::ServerConfig) -> Result<(), String> {
    let server = cobra::server::serve(config).map_err(|e| format!("cannot bind: {e}"))?;
    println!("listening on {}", server.addr());
    server.join();
    Ok(())
}

fn demo() -> Result<(), String> {
    use cobra::datagen::telephony::Telephony;
    let telephony = Telephony::paper_example();
    let polys = telephony.revenue_polyset();
    println!("Provenance of the paper's revenue query (Example 2):");
    print!("{}", polys.display(&telephony.reg));
    let mut session = CobraSession::new(telephony.reg, polys);
    session
        .add_tree_text(
            "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))",
        )
        .map_err(|e| e.to_string())?;
    session.set_bound(6);
    let report = session.compress().map_err(|e| e.to_string())?;
    println!("\n{report}");
    println!("Compressed polynomials:");
    print!(
        "{}",
        session
            .compressed_polynomials()
            .map_err(|e| e.to_string())?
            .display(session.registry())
    );
    Ok(())
}

fn compress(args: CompressArgs) -> Result<(), String> {
    // load polynomials
    let text = std::fs::read_to_string(&args.polys)
        .map_err(|e| format!("cannot read {}: {e}", args.polys))?;
    let mut session = CobraSession::from_text(&text).map_err(|e| e.to_string())?;
    if args.trace {
        session.enable_trace();
    }

    // load tree (inline or @file)
    let tree_text = match args.tree.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))?,
        None => args.tree.clone(),
    };
    session
        .add_tree_text(tree_text.trim())
        .map_err(|e| e.to_string())?;

    session.set_bound(args.bound);
    let report = session.compress().map_err(|e| e.to_string())?;
    println!("{report}");

    if args.dag {
        let dag_report = session.compile_dag().map_err(|e| e.to_string())?;
        println!("Algebraic compression:");
        println!("{dag_report}");
    }

    println!("Meta-variables:");
    for row in session.meta_summary().map_err(|e| e.to_string())? {
        let leaves: Vec<String> = row.leaves.iter().map(|(n, _)| n.clone()).collect();
        println!(
            "  {} = {{{}}}  (default {})",
            row.name,
            leaves.join(", "),
            row.default_value
        );
    }

    if !args.scenario.is_empty() {
        let mut valuation = Valuation::with_default(Rat::ONE);
        for (name, factor) in &args.scenario {
            let var = session.registry_mut().var(name);
            valuation.set(var, *factor);
        }
        let cmp = session.assign(&valuation).map_err(|e| e.to_string())?;
        println!("\nScenario results (full vs compressed):");
        for row in &cmp.rows {
            println!(
                "  {:<12} {:<14} {:<14} rel.err {:.6}",
                row.label,
                row.full.to_f64(),
                row.compressed.to_f64(),
                row.rel_error()
            );
        }
        println!(
            "max relative error: {:.6}{}",
            cmp.max_rel_error(),
            if cmp.is_exact() { " (exact)" } else { "" }
        );
    }

    if args.sensitivity {
        let report = SensitivityReport::compute(
            session.polynomials(),
            &Valuation::with_default(Rat::ONE),
        );
        println!("\nSensitivity ranking (at the all-ones valuation):");
        print!("{}", report.to_table(session.registry()));
    }

    if args.trace {
        println!("\nTrace:");
        for line in session.trace() {
            println!("  {line}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let args = parse_compress_args(&s(&[
            "--polys",
            "p.txt",
            "--tree",
            "T(a,b)",
            "--bound",
            "94,600",
            "--scenario",
            "m3=0.8, b1=1.1",
            "--trace",
            "--sensitivity",
            "--dag",
        ]))
        .unwrap();
        assert_eq!(args.polys, "p.txt");
        assert_eq!(args.bound, 94_600);
        assert_eq!(args.scenario.len(), 2);
        assert_eq!(args.scenario[0].0, "m3");
        assert_eq!(args.scenario[0].1, Rat::parse("0.8").unwrap());
        assert!(args.trace && args.sensitivity && args.dag);
    }

    #[test]
    fn rejects_missing_required_flags() {
        assert!(parse_compress_args(&s(&["--polys", "p"])).is_err());
        assert!(parse_compress_args(&s(&["--tree", "T(a)"])).is_err());
        assert!(parse_compress_args(&s(&["--polys", "p", "--tree", "t", "--bound"])).is_err());
        assert!(parse_compress_args(&s(&["--nope"])).is_err());
        assert!(parse_compress_args(&s(&[
            "--polys", "p", "--tree", "t", "--bound", "5", "--scenario", "novalue"
        ]))
        .is_err());
    }

    /// The byte `compress` names in a polynomial file is the byte at
    /// fault, in any line and with either line end.
    #[test]
    fn compress_reports_parse_errors_at_their_offset_in_the_file() {
        for (name, text) in [
            ("lf", "P1 = 2*x + 3*y\nLONGLABEL =    4*x + $\n"),
            ("crlf", "P1 = 2*x + 3*y\r\nLONGLABEL =  4*x + $\r\n"),
        ] {
            let path = std::env::temp_dir().join(format!(
                "cobra-cli-offsets-{name}-{}.txt",
                std::process::id()
            ));
            std::fs::write(&path, text).unwrap();
            let polys = path.to_str().unwrap();
            let err = run(&s(&[
                "compress", "--polys", polys, "--tree", "T(x,y)", "--bound", "2",
            ]))
            .unwrap_err();
            std::fs::remove_file(&path).ok();
            let at = format!("parse error at byte {}:", text.find('$').unwrap());
            assert!(err.contains(&at) && err.contains("'$'"), "{err}");
        }
    }

    #[test]
    fn parses_serve_flags() {
        let config = parse_serve_args(&s(&["--addr", "0.0.0.0:7070", "--store", "/tmp/x"])).unwrap();
        assert_eq!(config.addr, "0.0.0.0:7070");
        assert_eq!(config.store_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(parse_serve_args(&[]).unwrap().addr, "127.0.0.1:0");
        assert!(parse_serve_args(&s(&["--addr"])).is_err());
        assert!(parse_serve_args(&s(&["--nope"])).is_err());

        use cobra::util::KernelTarget;
        assert_eq!(parse_serve_args(&[]).unwrap().kernel, KernelTarget::Auto);
        let config = parse_serve_args(&s(&["--kernel", "scalar"])).unwrap();
        assert_eq!(config.kernel, KernelTarget::Scalar);
        // Retired targets are a usage error naming the accepted values,
        // never silently remapped.
        for gone in ["AVX2FMA", "avx2", "sse9"] {
            let err = parse_serve_args(&s(&["--kernel", gone])).unwrap_err();
            assert!(err.contains("auto|scalar"), "{err}");
        }

        assert_eq!(parse_serve_args(&[]).unwrap().max_sessions, None);
        let config = parse_serve_args(&s(&["--max-sessions", "8"])).unwrap();
        assert_eq!(config.max_sessions, Some(8));
        assert!(parse_serve_args(&s(&["--max-sessions", "lots"])).is_err());
    }

    #[test]
    fn run_demo_succeeds() {
        run(&s(&["demo"])).unwrap();
        assert!(run(&s(&["unknown"])).is_err());
        assert!(run(&[]).is_err());
    }
}
