//! The TPC-H phase of the demonstration (§4): run the query subset with
//! provenance tracking, compress against the geography and time trees,
//! and explore a bound sweep per query.
//!
//! Run with: `cargo run --release --example tpch [scale_factor]`
//! (default 0.01).

use cobra::core::{CobraSession, ExactDp, GroupAnalysis, PlanContext};
use cobra::datagen::tpch::{
    geography_tree, time_tree, InstrumentedTpch, TpchConfig, TpchDatabase, TPCH_QUERIES,
};
use cobra::provenance::{ProvenanceStats, Valuation};
use cobra::util::table::thousands;
use cobra::util::{Rat, Stopwatch, Table};

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    println!("TPC-H dbgen-lite at sf {sf}");

    let sw = Stopwatch::start();
    let instrumented = InstrumentedTpch::new(TpchDatabase::generate(TpchConfig::sf(sf)));
    println!(
        "generated {} lineitems in {:.1} ms\n",
        thousands(instrumented.tpch.lineitems as u64),
        sw.elapsed_ms()
    );

    let mut summary = Table::new([
        "query",
        "result tuples",
        "monomials",
        "geo root",
        "geo+time roots",
    ])
    .numeric();

    for query in &TPCH_QUERIES {
        let sw = Stopwatch::start();
        let polys = match instrumented.run(query) {
            Ok(p) => p,
            Err(e) => {
                println!("{}: {e}", query.name);
                continue;
            }
        };
        let stats = ProvenanceStats::compute(&polys);
        println!(
            "{} ({}) in {:.1} ms — {}",
            query.name,
            query.description,
            sw.elapsed_ms(),
            stats
        );

        // Compression against geography alone, then geography + time.
        let mut session = CobraSession::new(instrumented.reg.clone(), polys.clone());
        let geo = geography_tree(session.registry_mut());
        session.add_tree(geo);
        let geo_analysis =
            GroupAnalysis::analyze(session.polynomials(), &session.trees()[0])
                .expect("single nation var per monomial");
        let geo_root =
            geo_analysis.compressed_size(&[session.trees()[0].root()]);

        let time = time_tree(session.registry_mut());
        session.add_tree(time);
        session.set_bound(1); // force the coarsest abstraction…
        let both_roots = match session.compress() {
            Ok(r) => r.compressed_size,
            Err(cobra::core::CoreError::InfeasibleBound { min_achievable }) => min_achievable,
            Err(e) => panic!("{e}"),
        };
        summary.row([
            query.name.to_owned(),
            polys.len().to_string(),
            thousands(stats.total_monomials as u64),
            thousands(geo_root),
            thousands(both_roots),
        ]);

        // Bound sweep on Q1 (the most compressible): show the Pareto
        // frontier of expressiveness vs. size for the geography tree.
        if query.name == "Q1" {
            let ctx = PlanContext::new(&session.trees()[0], &geo_analysis);
            let frontier = ExactDp.frontier_sizes(&ctx);
            println!("  Q1 geography Pareto frontier (variables → size):");
            for point in frontier.iter().take(8) {
                println!("    {:>3} vars → {:>6} monomials", point.variables, point.size);
            }
            if frontier.len() > 8 {
                println!("    … ({} points total)", frontier.len());
            }
        }
    }
    println!("\n{summary}");

    // A geography-aligned what-if on Q5: ASIA suppliers +5%.
    let q5 = &TPCH_QUERIES[2];
    if let Ok(polys) = instrumented.run(q5) {
        let mut session = CobraSession::new(instrumented.reg.clone(), polys);
        let geo = geography_tree(session.registry_mut());
        session.add_tree(geo);
        session.set_bound(60);
        if session.compress().is_ok() {
            let mut scenario = Valuation::with_default(Rat::ONE);
            for name in ["india", "indonesia", "japan", "china", "vietnam"] {
                scenario.set(session.registry_mut().var(name), Rat::parse("1.05").unwrap());
            }
            let cmp = session.assign(&scenario).expect("assignment");
            println!(
                "Q5 what-if (ASIA +5%): max rel. error {:.6}, exact: {}",
                cmp.max_rel_error(),
                cmp.is_exact()
            );
        }
    }
}
