//! Basic bellwether analysis of the synthetic mail-order dataset: a
//! miniature of Figure 7. Sweeps the budget, reports the bellwether
//! region, its error, the feasible-region average, and how unique the
//! bellwether is.
//!
//! Run with: `cargo run --release --example mail_order_analysis`

use bellwether::prelude::*;

fn main() {
    let mut cfg = RetailConfig::mail_order(250, 42);
    cfg.months = 10;
    cfg.converge_month = 8;
    println!("generating mail-order dataset ({} items)…", cfg.n_items);
    let data = generate_retail(&cfg);
    println!("fact rows: {}", data.db.fact.num_rows());
    println!("candidate regions: {}", data.space.num_regions());

    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(f64::INFINITY);
    let source = task.materialize(&regions, Memory, par, &NoopRecorder).unwrap();

    println!("\n{:>8} {:>16} {:>12} {:>12} {:>8}", "budget", "bellwether", "Bel Err", "Avg Err", "95% ind");
    for budget in [15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0] {
        let config = BellwetherConfig::builder(budget)
            .min_coverage(0.5)
            .min_examples(20)
            .build()
            .unwrap();
        let result =
            basic_search(&source, &data.space, &data.cost, &config, data.items.len()).unwrap();
        match result.report() {
            Some(best) => println!(
                "{budget:>8} {:>16} {:>12.1} {:>12.1} {:>8.3}",
                best.label,
                best.error,
                result.average_error().unwrap_or(f64::NAN),
                result.indistinguishable_fraction(0.95).unwrap_or(f64::NAN),
            ),
            None => println!("{budget:>8} {:>16} (no feasible region)", "-"),
        }
    }

    println!(
        "\nThe planted bellwether is the tight state MD, whose cumulative \
         signal converges at month {}: once the budget affords [1-{}, MD], \
         the error plateaus and the bellwether becomes nearly unique.",
        cfg.converge_month, cfg.converge_month
    );
}
