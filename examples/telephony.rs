//! The §4 demonstration at scale: the telephony database with up to one
//! million customers, the two bounds the paper reports, and the induced
//! provenance sizes and assignment speedups.
//!
//! Run with: `cargo run --release --example telephony [customers]`
//! (default 100,000; pass 1000000 for the paper's full scale).

use cobra::core::CobraSession;
use cobra::datagen::scenarios;
use cobra::datagen::telephony::{Telephony, TelephonyConfig};
use cobra::provenance::{ProvenanceStats, VarRegistry};
use cobra::util::table::thousands;
use cobra::util::{Stopwatch, Table};

fn main() {
    let customers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let config = TelephonyConfig::with_customers(customers);
    println!(
        "telephony: {} customers, {} zips, {} months (seed {})",
        thousands(customers as u64),
        config.zips,
        config.months,
        config.seed
    );

    // Generate provenance via the verified direct path (the engine path
    // materializes customers × months call rows; equality of the two at
    // small scale is asserted in `cobra_datagen::telephony`'s tests).
    let sw = Stopwatch::start();
    let mut reg = VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    println!(
        "provenance generated in {:.1} ms: {}",
        sw.elapsed_ms(),
        ProvenanceStats::compute(&polys)
    );

    let mut session = CobraSession::new(reg, polys);
    session
        .add_tree_text(
            "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))",
        )
        .expect("Fig. 2 tree parses");

    // The two bounds §4 reports, plus the uncompressed baseline.
    let full = session.polynomials().total_monomials() as u64;
    let mut table = Table::new([
        "bound",
        "compressed size",
        "variables",
        "cut",
        "assignment speedup",
    ])
    .numeric();
    for bound in [full, 94_600, 38_600] {
        session.set_bound(bound);
        let report = match session.compress() {
            Ok(r) => r,
            Err(e) => {
                println!("bound {bound}: {e}");
                continue;
            }
        };
        let scenario = scenarios::march_discount().valuation(session.registry_mut());
        let speedup = session
            .measure_speedup(&scenario, 1, 5)
            .expect("compressed");
        table.row([
            thousands(bound),
            thousands(report.compressed_size),
            report.compressed_vars.to_string(),
            report.cuts.join("; "),
            format!("{:.0}%", speedup.speedup_percent()),
        ]);
    }
    println!("\n{table}");
    println!(
        "paper (1M customers): full 139,260; bound 94,600 → 88,620 (47% speedup); \
         bound 38,600 → 37,980 (79% speedup)"
    );

    // What-if: evaluate the paper's scenarios under the tightest bound.
    session.set_bound(38_600.min(full));
    if session.compress().is_ok() {
        for scenario in scenarios::telephony_scenarios() {
            let valuation = scenario.valuation(session.registry_mut());
            let cmp = session.assign(&valuation).expect("assignment");
            println!(
                "scenario {:<22} max rel. error {:.6}  (exact: {})",
                scenario.name,
                cmp.max_rel_error(),
                cmp.is_exact()
            );
        }
    }
}
