//! One-pass Pareto-frontier compression: the multi-budget exploration
//! workflow the unified planner opens.
//!
//! The COBRA demo's interactive screen lets an analyst drag the size
//! bound and watch the expressiveness/size trade-off respond. Before the
//! planner, every bound change re-ran the whole pipeline (group analysis,
//! optimization, application). Now a session plans the **entire**
//! trade-off curve once (`compress_frontier`), and each bound is an
//! `O(log frontier)` re-selection (`select_bound`) that reuses the cached
//! full-side engines and rebuilds only the compressed side — identical
//! results, a fraction of the cost (the benchmark's `select_bound_p50_ms`
//! against `core.plan.frontier_ms`).
//!
//! ```text
//! cargo run --release --example frontier
//! ```

use cobra::core::{frontier_table, CobraSession};
use cobra::datagen::telephony::{Telephony, TelephonyConfig};
use cobra::util::Stopwatch;

fn main() {
    // A mid-size telephony workload (the paper's schema at 50k customers).
    let config = TelephonyConfig::with_customers(50_000);
    let mut reg = cobra::provenance::VarRegistry::new();
    let (polys, _, _) = Telephony::direct_polyset(config, &mut reg);
    let tree = Telephony::plans_tree(&mut reg);
    let full_size = polys.total_monomials();
    println!("telephony provenance: {full_size} monomials\n");

    let mut session = CobraSession::new(reg, polys);
    session.add_tree(tree);

    // 1. Plan the whole frontier in one pass.
    let sw = Stopwatch::start();
    let frontier = session.compress_frontier().unwrap().clone();
    println!(
        "frontier planned in {:.1} ms — {} selectable points:\n",
        sw.elapsed_ms(),
        frontier.len()
    );
    println!("{}", frontier_table(&frontier, &session.trees()[0]));

    // 2. Sweep the bound axis: every budget is a re-selection.
    let budgets: Vec<u64> = frontier
        .points()
        .iter()
        .map(|p| p.size)
        .collect();
    let sw = Stopwatch::start();
    for &bound in &budgets {
        let report = session.select_bound(bound).unwrap();
        println!(
            "bound {:>8} → {:>8} monomials, {} meta-variables ({})",
            bound,
            report.compressed_size,
            report.compressed_vars,
            report.cuts[0],
        );
    }
    println!(
        "\n{} bounds re-selected in {:.1} ms total",
        budgets.len(),
        sw.elapsed_ms()
    );

    // 3. The selected compression is a full session state: scenarios run
    //    against it exactly as after a plain `compress()`.
    session.select_bound(budgets[budgets.len() / 2]).unwrap();
    let m3 = session.registry_mut().var("m3");
    let discount = cobra::provenance::Valuation::with_default(cobra::util::Rat::ONE)
        .bind(m3, cobra::util::Rat::parse("0.8").unwrap());
    let cmp = session.assign(&discount).unwrap();
    println!(
        "\nMarch −20% under the mid-frontier bound: max rel. error {:.2e} \
         (months sit outside the tree, so the hypothetical is lossless: {})",
        cmp.max_rel_error(),
        cmp.is_exact()
    );
}
