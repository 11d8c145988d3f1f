//! Quickstart: the paper's motivating example in miniature.
//!
//! A company wants to predict each item's first-period worldwide profit
//! from data bought in one small region. We build the Figure-1 star
//! schema by hand, label the items with an aggregate query, create
//! every region's training set in one CUBE pass, and run the basic
//! bellwether search.
//!
//! Run with: `cargo run --example quickstart`

use bellwether::prelude::*;
use std::collections::HashMap;

fn main() {
    // ---- the historical database (Figure 1): OrderTable + AdTable.
    // 8 items, 4 weeks, 3 states. Item demand is driven by a latent
    // factor that Wisconsin's first two weeks expose almost perfectly.
    let mut fact = bellwether::table::TableBuilder::new(
        Schema::from_pairs(&[
            ("item", DataType::Int),
            ("week", DataType::Int),
            ("state", DataType::Str),
            ("profit", DataType::Float),
            ("ad", DataType::Int),
        ])
        .unwrap(),
    );
    let states = ["WI", "MD", "CA"];
    for item in 0..8i64 {
        let demand = 10.0 + 7.0 * item as f64;
        for week in 1..=4i64 {
            for (si, state) in states.iter().enumerate() {
                // WI tracks demand exactly; MD and CA are noisy echoes.
                let wobble = if si == 0 {
                    1.0
                } else {
                    1.0 + 0.4 * (((item * 13 + week * 7 + si as i64 * 29) % 10) as f64 - 4.5)
                        / 4.5
                };
                let profit = demand * wobble * (0.2 + 0.1 * week as f64);
                fact.push_row(vec![
                    Value::Int(item),
                    Value::Int(week),
                    Value::from(*state),
                    Value::Float(profit),
                    Value::Int(item % 3),
                ])
                .unwrap();
            }
        }
    }
    let ads = Table::new(
        Schema::from_pairs(&[("ad", DataType::Int), ("ad_size", DataType::Float)]).unwrap(),
        vec![
            Column::from_ints(vec![0, 1, 2]),
            Column::from_floats(vec![1.0, 2.0, 4.0]),
        ],
    )
    .unwrap();
    let mut refs = HashMap::new();
    refs.insert("ads".to_string(), (ads, "ad".to_string()));
    let db = StarDatabase {
        fact: fact.finish().unwrap(),
        refs,
        item_col: "item".into(),
        dim_cols: vec!["week".into(), "state".into()],
    };

    // ---- dimensions (Figure 2): weeks 1..4 × {WI, MD, CA} under All.
    let location = Hierarchy::flat("Location", "All", &states);
    let space = RegionSpace::new(vec![
        Dimension::Interval {
            name: "Week".into(),
            max_t: 4,
        },
        Dimension::Hierarchy(location),
    ]);

    // ---- the queries: features per region, target = total profit.
    let queries = vec![
        FeatureQuery::FactAgg {
            name: "regional_profit".into(),
            column: "profit".into(),
            func: AggFunc::Sum,
        },
        FeatureQuery::DistinctJoinAgg {
            name: "max_ad_size".into(),
            table: "ads".into(),
            fk: "ad".into(),
            column: "ad_size".into(),
            func: AggFunc::Max,
        },
    ];

    // ---- the task as data: those queries over `db`, the items (no
    // static features), and a cost of 1 unit per (week, state) cell.
    let items = ItemTable::from_parts((0..8).collect(), Vec::new(), Vec::new()).unwrap();
    let cost = UniformCellCost { rate: 1.0 };
    let task = TrainingTask {
        db: &db,
        space: &space,
        features: &queries,
        target_column: "profit",
        target_func: AggFunc::Sum,
        items: &items,
        cost: &cost,
    };

    // ---- one CUBE pass builds every region's training set.
    let regions = task.regions_within(f64::INFINITY);
    let source = task.materialize(&regions, Memory, Parallelism::default(), &NoopRecorder).unwrap();

    // ---- the basic bellwether search under a budget.
    let config = BellwetherConfig::builder(3.0) // at most 3 cells
        .min_coverage(0.9)
        .min_examples(5)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();
    let result = basic_search(&source, &space, &cost, &config, 8).unwrap();

    println!("feasible regions under budget 3.0:");
    for report in &result.reports {
        println!(
            "  {:>12}  cost {:>4}  rmse {:.4}",
            report.label, report.cost, report.error.value
        );
    }
    let report = result.report().expect("a bellwether exists");
    println!("\n{}", report.summary());
    println!(
        "model coefficients (intercept, regional_profit, max_ad_size): {:?}",
        report.model.coefficients()
    );
    assert!(report.label.contains("WI"), "the planted bellwether is in WI");
}
