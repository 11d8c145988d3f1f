//! `bellwether` — command-line basic bellwether search over CSV data.
//!
//! ```text
//! bellwether search --fact orders.csv --item-col item \
//!     --time-col week --time-max 52 \
//!     --location-col state --locations WI,MD,CA \
//!     --target-col profit --feature-cols profit,quantity \
//!     --budget 20 --min-coverage 0.5 [--training-set-error] [--top 10]
//! ```
//!
//! The fact CSV needs a header row with: an integer item-id column, an
//! integer time column (1-based points), a string location column, and
//! numeric measure columns. Dimensions are built as `[1..t] × (All →
//! location)`; each feature column contributes a regional `sum`; the
//! target is the global `sum` of `--target-col`; cost is one unit per
//! (time point × location) cell. For richer schemas (reference tables,
//! hierarchies, custom costs) use the library API — see the examples.

use bellwether::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

/// Parsed command-line options.
struct Options {
    fact_path: String,
    item_col: String,
    time_col: String,
    time_max: u32,
    location_col: String,
    locations: Vec<String>,
    target_col: String,
    feature_cols: Vec<String>,
    budget: f64,
    min_coverage: f64,
    min_examples: usize,
    training_set_error: bool,
    top: usize,
}

fn usage() -> &'static str {
    "usage: bellwether search --fact <csv> --item-col <c> --time-col <c> \
     --time-max <T> --location-col <c> --locations <l1,l2,…> \
     --target-col <c> --feature-cols <c1,c2,…> --budget <B> \
     [--min-coverage <f=0.5>] [--min-examples <n=10>] \
     [--training-set-error] [--top <n=10>]"
}

fn parse_args(mut args: std::env::Args) -> Result<Options, String> {
    let _bin = args.next();
    match args.next().as_deref() {
        Some("search") => {}
        Some(other) => return Err(format!("unknown command {other:?}\n{}", usage())),
        None => return Err(usage().to_string()),
    }
    let mut map: HashMap<String, String> = HashMap::new();
    let mut flags: Vec<String> = Vec::new();
    let mut it = args.peekable();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}\n{}", usage()));
        };
        if name == "training-set-error" {
            flags.push(name.to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("--{name} needs a value"));
        };
        map.insert(name.to_string(), value);
    }
    let take = |k: &str| -> Result<String, String> {
        map.get(k).cloned().ok_or_else(|| format!("missing --{k}\n{}", usage()))
    };
    let list = |v: String| -> Vec<String> {
        v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
    };
    Ok(Options {
        fact_path: take("fact")?,
        item_col: take("item-col")?,
        time_col: take("time-col")?,
        time_max: take("time-max")?
            .parse()
            .map_err(|e| format!("--time-max: {e}"))?,
        location_col: take("location-col")?,
        locations: list(take("locations")?),
        target_col: take("target-col")?,
        feature_cols: list(take("feature-cols")?),
        budget: take("budget")?.parse().map_err(|e| format!("--budget: {e}"))?,
        min_coverage: map
            .get("min-coverage")
            .map(|v| v.parse())
            .transpose()
            .map_err(|e| format!("--min-coverage: {e}"))?
            .unwrap_or(0.5),
        min_examples: map
            .get("min-examples")
            .map(|v| v.parse())
            .transpose()
            .map_err(|e| format!("--min-examples: {e}"))?
            .unwrap_or(10),
        training_set_error: flags.iter().any(|f| f == "training-set-error"),
        top: map
            .get("top")
            .map(|v| v.parse())
            .transpose()
            .map_err(|e| format!("--top: {e}"))?
            .unwrap_or(10),
    })
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    // The configuration first: an out-of-range option fails before any
    // data is read.
    let measure = if opts.training_set_error {
        ErrorMeasure::TrainingSet
    } else {
        ErrorMeasure::cv10()
    };
    let config = BellwetherConfig::builder(opts.budget)
        .min_coverage(opts.min_coverage)
        .min_examples(opts.min_examples)
        .error_measure(measure)
        .build()?;

    // Schema: infer column types from the options.
    let mut fields: Vec<(&str, DataType)> = vec![
        (opts.item_col.as_str(), DataType::Int),
        (opts.time_col.as_str(), DataType::Int),
        (opts.location_col.as_str(), DataType::Str),
    ];
    // Numeric columns: the union of features and the target, once each.
    let mut numeric: Vec<&str> = opts.feature_cols.iter().map(String::as_str).collect();
    if !numeric.contains(&opts.target_col.as_str()) {
        numeric.push(opts.target_col.as_str());
    }
    for c in numeric {
        fields.push((c, DataType::Float));
    }
    let schema = Schema::from_pairs(&fields)?;

    let file = std::fs::File::open(&opts.fact_path)?;
    let reader = std::io::BufReader::new(file);
    let db = bellwether_core::StarDatabase::from_csv(
        (schema, reader),
        opts.item_col.clone(),
        vec![opts.time_col.clone(), opts.location_col.clone()],
        Vec::<(String, Schema, String, std::io::Cursor<&[u8]>)>::new(),
    )?;
    eprintln!("loaded {} fact rows", db.fact.num_rows());

    let location = Hierarchy::flat(
        "Location",
        "All",
        &opts.locations.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let space = RegionSpace::new(vec![
        Dimension::Interval {
            name: "Time".into(),
            max_t: opts.time_max,
        },
        Dimension::Hierarchy(location),
    ]);

    let queries: Vec<_> = opts
        .feature_cols
        .iter()
        .map(|c| bellwether_core::FeatureQuery::FactAgg {
            name: format!("sum_{c}"),
            column: c.clone(),
            func: AggFunc::Sum,
        })
        .collect();

    // Items: every id the target labels, no static attributes.
    let targets = global_target(&db, &opts.target_col, AggFunc::Sum)?;
    let mut ids: Vec<i64> = targets.keys().copied().collect();
    ids.sort_unstable();
    let items = ItemTable::from_parts(ids, Vec::new(), Vec::new())?;

    let cost = UniformCellCost { rate: 1.0 };
    let task = TrainingTask {
        db: &db,
        space: &space,
        features: &queries,
        target_column: &opts.target_col,
        target_func: AggFunc::Sum,
        items: &items,
        cost: &cost,
    };
    let regions = task.regions_within(opts.budget);
    let source = task.materialize(&regions, Memory, Parallelism::default(), &NoopRecorder)?;
    let result = basic_search(&source, &space, &cost, &config, items.len())?;

    let mut ranked: Vec<_> = result.reports.iter().collect();
    ranked.sort_by(|a, b| a.error.value.total_cmp(&b.error.value));
    println!(
        "{:<20} {:>10} {:>8} {:>12}",
        "region", "cost", "items", "rmse"
    );
    for report in ranked.iter().take(opts.top) {
        println!(
            "{:<20} {:>10.2} {:>8} {:>12.4}",
            report.label, report.cost, report.n_examples, report.error.value
        );
    }
    match result.bellwether() {
        Some(best) => {
            println!(
                "\nbellwether: {} (cost {:.2}, rmse {:.4}, {} items)",
                best.label, best.cost, best.error.value, best.n_examples
            );
            println!("model coefficients: {:?}", best.model.coefficients());
            Ok(())
        }
        None => Err("no feasible region under the given budget/coverage".into()),
    }
}

fn main() -> ExitCode {
    // Re-invoked as `bellwether --worker ...` by the shard coordinator:
    // serve one shard over stdin/stdout and exit.
    bellwether::coord::maybe_run_worker();
    let opts = match parse_args(std::env::args()) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
