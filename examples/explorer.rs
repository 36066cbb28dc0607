//! Bound explorer: "interactively examine the effect of the bound on the
//! query results, provenance size and assignment time" (§4) — rendered as
//! a full sweep over every feasible bound.
//!
//! Run with: `cargo run --release --example explorer [customers]`
//! (default 20,000).

use cobra::core::{ExactDp, GroupAnalysis, PlanContext};
use cobra::datagen::scenarios;
use cobra::datagen::telephony::{Telephony, TelephonyConfig};
use cobra::provenance::{DenseValuation, VarRegistry};
use cobra::util::table::thousands;
use cobra::util::timing::time_best_of;
use cobra::util::Table;

fn main() {
    let customers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let config = TelephonyConfig::with_customers(customers);
    let mut reg = VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    let tree = Telephony::plans_tree(&mut reg);
    let analysis = GroupAnalysis::analyze(&polys, &tree).expect("telephony fits one tree");

    println!(
        "telephony with {} customers: {} monomials before compression\n",
        thousands(customers as u64),
        thousands(analysis.total_monomials())
    );

    // The full expressiveness/size trade-off curve of the Fig. 2 tree —
    // every bound a user could set collapses onto one of these points.
    let ctx = PlanContext::new(&tree, &analysis);
    let frontier = ExactDp.frontier_sizes(&ctx);
    let scenario_rat = scenarios::march_discount().valuation(&mut reg);
    let scenario = scenario_rat.map(|c| c.to_f64());
    let full64 = polys.to_f64_set();
    let (_, t_full) = {
        let dense = DenseValuation::from_valuation(&scenario, reg.len(), 1.0);
        time_best_of(1, 5, || {
            std::hint::black_box(full64.eval_dense(&dense).len())
        })
    };

    let mut table = Table::new([
        "plan variables",
        "compressed size",
        "size ratio",
        "assignment time",
        "speedup",
    ])
    .numeric();
    for point in &frontier {
        // materialize the cut of this cardinality to time the assignment
        let sol = ExactDp
            .plan_cardinality(&ctx, point.variables)
            .expect("frontier points are attainable");
        let applied = cobra::core::apply_cut(&polys, &tree, &sol.cut, &mut reg);
        let comp64 = applied.compressed.to_f64_set();
        let dense = DenseValuation::from_valuation(&scenario, reg.len(), 1.0);
        let (_, t_comp) = time_best_of(1, 5, || {
            std::hint::black_box(comp64.eval_dense(&dense).len())
        });
        table.row([
            point.variables.to_string(),
            thousands(point.size),
            format!("{:.3}", point.size as f64 / analysis.total_monomials() as f64),
            format!("{:.3} ms", t_comp.as_secs_f64() * 1e3),
            format!(
                "{:.0}%",
                cobra::util::timing::speedup_percent(t_full, t_comp)
            ),
        ]);
    }
    println!("{table}");
    println!(
        "full provenance assignment time: {:.3} ms",
        t_full.as_secs_f64() * 1e3
    );
    println!(
        "\nreading: each row is the optimal abstraction at that expressiveness; \
         pick any bound and COBRA lands on the row with the most variables \
         whose size fits."
    );
}
