//! The micro-benchmark ratchets: every hand-written kernel timed beside
//! the baseline it replaced, in the same process, with a floor on the
//! speedup. The run prints each ratio beside its floor and exits 1 if any
//! ratio is below it. Ratios of the fastest samples are self-relative, so
//! a floor holds on any machine; what the whole pipeline costs is
//! `benchmark/`'s to say, not this file's.
//!
//! Run with `cargo bench -p bellwether-bench --bench ratchets`.

use bellwether_bench::{prepare_retail, Harness};
use bellwether_core::{
    basic_search, build_cube_input, build_rainforest, BellwetherConfig, ErrorMeasure, TreeConfig,
};
use bellwether_cube::cube_pass::{CubeInput, CubeResult, Measure};
use bellwether_cube::{
    cube_pass, cube_pass_external, CostModel, NoopRecorder, Parallelism, RegionId, RegionSpace,
    UNLIMITED_BUDGET,
};
use bellwether_datagen::{
    build_scale_workload, build_stream_workload, generate_retail, RetailConfig, ScaleConfig,
    StreamConfig,
};
use bellwether_linreg::{
    fit_wls, fold_assignment, ErrorEstimate, RegSuffStats, RegressionData, SplitMix64,
};
use bellwether_storage::codec::{seal, verify, Cursor, PutLe};
use bellwether_storage::crc32::{crc32, crc32_bytewise, crc32_finish, crc32_table, CRC_INIT};
use bellwether_storage::format::{decode_block_v2, encode_block_v2};
use bellwether_storage::{RegionBlock, TrainingSource};
use std::hint::black_box;
use std::process::ExitCode;

const SEED: u64 = 0xBE11;

/// Ten states, the shape of the retail cells below.
const STATES: [&str; 10] = ["MD", "WI", "CA", "TX", "NY", "IL", "FL", "OH", "PA", "GA"];

fn problem(measure: ErrorMeasure) -> BellwetherConfig {
    BellwetherConfig::builder(f64::INFINITY)
        .min_coverage(0.0)
        .min_examples(10)
        .error_measure(measure)
        .parallelism(Parallelism::fixed(1))
        .build()
        .unwrap()
}

/// Classic refit k-fold CV: for every fold, materialise the training
/// complement as a fresh dataset copy and rebuild the Gram matrix from
/// its raw rows — `O(k·n·p²)` plus `k` copies, against the engine's one
/// statistics pass and `k` downdated `O(p³)` solves. Fold shuffling and
/// held-out sweeps mirror the engine exactly, so the two agree to
/// rounding.
fn refit_cv_estimate(data: &RegressionData, k: usize) -> Option<ErrorEstimate> {
    let n = data.n();
    if n < 2 {
        return None;
    }
    let assignment = fold_assignment(n, k, SEED);
    let k = assignment.iter().copied().max().map_or(1, |m| m + 1);
    let mut fold_rmses = Vec::with_capacity(k);
    for fold in 0..k {
        let mut train = RegressionData::with_capacity(data.p(), n);
        for (i, &f) in assignment.iter().enumerate() {
            if f != fold {
                train.push(&data.row(i), data.y(i));
            }
        }
        let Some(model) = fit_wls(&train) else {
            continue;
        };
        let (mut sse, mut count) = (0.0, 0usize);
        for (i, &f) in assignment.iter().enumerate() {
            if f == fold {
                let r = data.y(i) - data.predict_at(i, model.coefficients());
                sse += r * r;
                count += 1;
            }
        }
        if count > 0 {
            fold_rmses.push((sse / count as f64).sqrt());
        }
    }
    (!fold_rmses.is_empty()).then(|| ErrorEstimate::from_folds(&fold_rmses))
}

/// The pre-engine basic search, reconstructed: per region, copy the
/// block into a dataset, run [`refit_cv_estimate`], fit the candidate
/// model from raw rows and look up the report fields `basic_search`
/// produces (label, cost). Returns the min-error (region index, value)
/// with the same strict-< lowest-index tie-breaking.
fn refit_basic_search(
    source: &dyn TrainingSource,
    space: &RegionSpace,
    cost_model: &dyn CostModel,
    folds: usize,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for i in 0..source.num_regions() {
        let block = source.read_region(i).expect("readable region");
        if block.n() < 10 {
            continue;
        }
        let mut data = RegressionData::with_capacity(source.feature_arity(), block.n());
        data.extend_from_cols(block.cols(), &block.targets);
        let Some(e) = refit_cv_estimate(&data, folds) else {
            continue;
        };
        let Some(model) = fit_wls(&data) else {
            continue;
        };
        let region = RegionId(source.region_coords(i).to_vec());
        black_box((model, space.label(&region), cost_model.cost(space, &region)));
        if best.is_none_or(|(_, v)| e.value.total_cmp(&v).is_lt()) {
            best = Some((i, e.value));
        }
    }
    best
}

/// A dataset of `n` rows with `p` features, column-major for the batched
/// kernel and row-major for the scalar one (so the scalar path is charged
/// for its arithmetic, not for row extraction).
fn dataset(n: usize, p: usize) -> (RegressionData, Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SplitMix64::new(0x5EED ^ ((n as u64) << 8) ^ p as u64);
    let mut data = RegressionData::new(p);
    let (mut rows, mut ys) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let x: Vec<f64> = (0..p)
            .map(|_| rng.next_u64() as f64 / u64::MAX as f64 * 10.0 - 5.0)
            .collect();
        let y = x.iter().sum::<f64>() + rng.next_u64() as f64 / u64::MAX as f64;
        data.push(&x, y);
        rows.push(x);
        ys.push(y);
    }
    (data, rows, ys)
}

/// The rows of a stream slice (numeric measures only) in a seeded random
/// order.
fn shuffled(input: &CubeInput, rng: &mut SplitMix64) -> CubeInput {
    let n = input.item_ids.len();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let arity = input.coords.len() / n.max(1);
    let measure = |m: &Measure| match m {
        Measure::Numeric { name, func, values } => Measure::Numeric {
            name: name.clone(),
            func: *func,
            values: order.iter().map(|&r| values.get(r)).collect(),
        },
        Measure::DistinctKeyed { .. } => unreachable!("stream slices carry numeric measures"),
    };
    CubeInput {
        item_ids: order.iter().map(|&r| input.item_ids[r]).collect(),
        coords: order
            .iter()
            .flat_map(|&r| &input.coords[r * arity..(r + 1) * arity])
            .copied()
            .collect(),
        measures: input.measures.iter().map(measure).collect(),
    }
}

/// Every `(region, item, measure)` value of `r` as bits, in one order.
fn result_bits(r: &CubeResult) -> Vec<(Vec<u32>, i64, Vec<Option<u64>>)> {
    let mut cells: Vec<_> = r
        .regions
        .iter()
        .flat_map(|(region, cols)| {
            cols.iter().map(move |(item, row)| {
                (
                    region.0.clone(),
                    item,
                    row.iter().map(|v| v.map(f64::to_bits)).collect(),
                )
            })
        })
        .collect();
    cells.sort_unstable();
    cells
}

/// The block encoder the lane-at-a-time one replaced, reconstructed: one
/// checked `put` per value, each row gathered across the feature lanes.
fn encode_block_by_values(block: &RegionBlock, out: &mut Vec<u8>) {
    let start = out.len();
    out.put_u32_le(block.region.len() as u32);
    for &c in &block.region {
        out.put_u32_le(c);
    }
    out.put_u64_le(block.n() as u64);
    out.put_u32_le(block.p);
    for &id in &block.item_ids {
        out.put_i64_le(id);
    }
    let cols = block.cols();
    for i in 0..block.n() {
        for col in cols {
            out.put_f64_le(col[i]);
        }
    }
    for &t in &block.targets {
        out.put_f64_le(t);
    }
    seal(out, start);
}

/// The block decoder the lane-at-a-time one replaced, reconstructed for
/// well-formed input: each row pushed value by value into the lanes.
fn decode_block_by_values(sealed: &[u8]) -> RegionBlock {
    let mut cur = Cursor::new(verify(sealed).expect("a block this bench sealed"));
    let read = |cur: &mut Cursor<'_>| -> std::io::Result<RegionBlock> {
        let arity = cur.get_u32_le()? as usize;
        let region = cur.get_u32_lane(arity)?;
        let n = cur.get_u64_le()? as usize;
        let p = cur.get_u32_le()?;
        let item_ids = cur.get_i64_lane(n)?;
        let mut cols: Vec<Vec<f64>> = (0..p).map(|_| Vec::with_capacity(n)).collect();
        let mut values = cur
            .take_span(n * p as usize * 8)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks")));
        for _ in 0..n {
            for col in cols.iter_mut() {
                col.push(values.next().expect("span length checked"));
            }
        }
        let targets = cur.get_f64_lane(n)?;
        Ok(RegionBlock::from_columns(
            region, p, item_ids, cols, targets,
        ))
    };
    read(&mut cur).expect("a block this bench encoded")
}

fn main() -> ExitCode {
    let mut h = Harness::new();
    // (what, baseline's fastest sample / the kernel's, floor)
    let mut ratios: Vec<(&str, f64, f64)> = Vec::new();

    // --- The retail pass over `train_facts`' input with its distinct-FK
    // measure (120 catalogs, each joining one page count) against the same
    // pass without it: bitset lanes hold the measure to ≤ 2.2× (pair lists
    // cost ~2.7×).
    let mut cfg = RetailConfig::mail_order_heterogeneous(160, 99);
    cfg.months = 12;
    let data = generate_retail(&cfg);
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).unwrap();
    let mut numeric = input.clone();
    numeric.measures.retain(|m| matches!(m, Measure::Numeric { .. }));
    assert!(numeric.measures.len() < input.measures.len(), "retail has a distinct-FK measure");
    let [with, without] = [("with", &input), ("without", &numeric)].map(|(what, input)| {
        h.bench(&format!("cube_pass_retail_distinct/measures={what}/threads=1"), || {
            cube_pass(&data.space, input, Parallelism::fixed(1), &NoopRecorder).expect("CUBE pass")
        })
        .min_secs()
    });
    ratios.push((
        "CUBE pass, retail w/ vs w/o distinct (≤ 2.2×)",
        without / with,
        1.0 / 2.2,
    ));

    // --- The external CUBE pass over a stream's ten week slices (the
    // `train_spill` shape, nothing spilled): rows in key order, as a
    // stream delivers them, against the same rows shuffled within each
    // slice. Each row is its own base cell, so the two agree bit for bit.
    let stream = build_stream_workload(&StreamConfig {
        n_items: 300,
        weeks: 60,
        leaves: 30,
        item_hierarchy_leaves: 3,
        n_numeric_attrs: 2,
        bellwether_noise: 0.05,
        late_noise: 0.0005,
        open_week: 6,
        seed: 7,
    });
    let slices: Vec<CubeInput> = (0..10)
        .map(|s| stream.input_range(6 * s, 6 * s + 6))
        .collect();
    let mut rng = SplitMix64::new(SEED);
    let scrambled: Vec<CubeInput> = slices.iter().map(|s| shuffled(s, &mut rng)).collect();
    let external = |inputs: &[CubeInput]| {
        cube_pass_external(
            &stream.region_space,
            inputs,
            Parallelism::fixed(1),
            UNLIMITED_BUDGET,
            &NoopRecorder,
        )
        .expect("a pass that never spills over well-formed input")
    };
    assert!(
        result_bits(&external(&slices)) == result_bits(&external(&scrambled)),
        "key-ascending and shuffled slices disagree"
    );
    let ascending = h
        .bench("cube_pass_external_week_slices/order=ascending", || {
            external(&slices)
        })
        .min_secs();
    let scrambled = h
        .bench("cube_pass_external_week_slices/order=shuffled", || {
            external(&scrambled)
        })
        .min_secs();
    ratios.push((
        "CUBE pass, sorted vs shuffled slices",
        scrambled / ascending,
        1.3,
    ));

    // --- Sufficient statistics: batched columnar `add_rows` against the
    // row-at-a-time `add`. The two sum in different canonical orders and
    // must agree to rounding (a bench of a broken kernel is no speedup).
    let (columns, rows, ys) = dataset(131072, 8);
    let scalar_add = || {
        let mut s = RegSuffStats::new(8);
        for (x, &y) in rows.iter().zip(&ys) {
            s.add(x, y, 1.0);
        }
        s
    };
    let add_rows = || {
        let mut s = RegSuffStats::new(8);
        s.add_rows(&columns);
        s
    };
    let (a, b) = (scalar_add().sse().unwrap(), add_rows().sse().unwrap());
    assert!(
        (a - b).abs() <= 1e-7 * a.abs().max(1.0),
        "kernels diverged: {a} vs {b}"
    );
    let scalar = h
        .bench(
            "suffstats_accumulate/n=131072/p=8/kernel=scalar",
            scalar_add,
        )
        .min_secs();
    let batched = h
        .bench("suffstats_accumulate/n=131072/p=8/kernel=batched", add_rows)
        .min_secs();
    ratios.push(("suffstats add_rows vs scalar add", scalar / batched, 1.2));

    // --- CRC-32 over 1 MiB: slice-by-8 against bytewise, and where the
    // CPU has it the carry-less-multiply fold against slice-by-8.
    let mut rng = SplitMix64::new(1 << 20);
    let bytes: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    let bytewise = h
        .bench("crc32/len=1048576/kernel=bytewise", || {
            crc32_bytewise(&bytes)
        })
        .min_secs();
    let slice8 = h
        .bench("crc32/len=1048576/kernel=slice8", || {
            crc32_finish(crc32_table(CRC_INIT, &bytes))
        })
        .min_secs();
    ratios.push(("crc32 slice-by-8 vs bytewise", bytewise / slice8, 2.0));
    let crc_kernel = bellwether_storage::crc32::kernel();
    println!("crc32 kernel for inputs of 64 bytes or more: {crc_kernel}");
    if crc_kernel == "clmul" {
        let clmul = h
            .bench("crc32/len=1048576/kernel=clmul", || crc32(&bytes))
            .min_secs();
        ratios.push(("crc32 clmul vs slice-by-8", slice8 / clmul, 3.0));
    }

    // --- Cross-validation: the algebraic engine (one statistics pass per
    // region, k downdated solves) against per-fold refits, on regions
    // wide enough for the k Gram rebuilds to show. Both must pick the same
    // bellwether with the same error.
    let mut retail_cfg = RetailConfig::mail_order(600, 99);
    retail_cfg.months = 8;
    retail_cfg.converge_month = 6;
    retail_cfg.states = Some(STATES.to_vec());
    let retail = prepare_retail(&retail_cfg);
    let (source, items, n_items) = (&retail.source, &retail.data.items, retail.data.items.len());
    let (space, cost) = (&retail.data.space, &retail.data.cost);
    let cv = |folds| problem(ErrorMeasure::CrossValidation { folds, seed: SEED });
    for folds in [2usize, 5, 10] {
        let engine = basic_search(source, space, cost, &cv(folds), n_items).unwrap();
        let best = engine.bellwether().expect("engine found a bellwether");
        let (refit_idx, refit_err) =
            refit_basic_search(source, space, cost, folds).expect("refit found one");
        assert_eq!(
            best.source_index, refit_idx,
            "engine and refit disagree at folds={folds}"
        );
        // Relative agreement, with an absolute floor: an exact-fit
        // region's CV error is pure rounding noise in both paths.
        let diff = (best.error.value - refit_err).abs();
        assert!(
            diff < 1e-8 * refit_err.abs() || diff < 1e-9,
            "engine and refit errors diverge at folds={folds}: {} vs {refit_err}",
            best.error.value
        );
    }
    let cv10 = cv(10);
    let refit = h
        .bench(
            "basic_search_retail/engine=refit/threads=1/folds=10",
            || refit_basic_search(source, space, cost, 10),
        )
        .min_secs();
    let algebraic = h
        .bench(
            "basic_search_retail/engine=algebraic/threads=1/folds=10",
            || basic_search(source, space, cost, &cv10, n_items).unwrap(),
        )
        .min_secs();
    ratios.push((
        "CV-10 basic search, algebraic vs refit",
        refit / algebraic,
        3.0,
    ));
    // Timed, not held to a floor: the cell a CV tree that scores levels
    // from per-fold statistics would be judged by.
    let retail_tc = TreeConfig {
        max_depth: 2,
        min_node_items: 30,
        ..TreeConfig::default()
    };
    h.bench("tree_rainforest_retail_cv/threads=1/folds=10", || {
        build_rainforest(source, space, items, None, &cv10, &retail_tc).unwrap()
    });

    // --- The RF tree's level scan folds a row once per attribute however
    // many thresholds the attribute carries, so the library default of 50
    // thresholds per numeric attribute may cost at most 6× the 4 of the
    // cell beside it (gathering rows per candidate read ~13×).
    let w = build_scale_workload(&ScaleConfig {
        n_items: 300,
        fact_dim_leaves: [8, 8],
        item_hierarchy_leaves: [3, 3, 3],
        n_numeric_attrs: 3,
        regional_features: 4,
        bellwether_noise: 0.05,
        seed: 31,
    });
    let src = w.memory_source();
    let training = problem(ErrorMeasure::TrainingSet);
    let [four, fifty] = [4usize, 50].map(|splits| {
        let tc = TreeConfig {
            max_depth: 2,
            min_node_items: 60,
            max_numeric_splits: splits,
            ..TreeConfig::default()
        };
        let name = format!("tree_rainforest_81regions/splits={splits}");
        h.bench(&name, || {
            build_rainforest(&src, &w.region_space, &w.items, None, &training, &tc).unwrap()
        })
        .min_secs()
    });
    ratios.push((
        "RF tree, 4 vs 50 thresholds (50 ≤ 6×)",
        four / fifty,
        1.0 / 6.0,
    ));

    // --- The block codec over ~31 MB of p = 5 blocks, the bytes
    // `train_spill`'s uncached layout writes and reads: each block is
    // encoded and its bytes decoded again, a lane at a time against the
    // per-value codec it replaced. The layout encodes a block right after
    // building it and decodes one right after reading it, so the cell
    // cycles eight cache-resident blocks (560 round trips) rather than
    // streaming 31 MB from memory. Both codecs must give the same bytes
    // and the same blocks. The two sides take turns, three rounds each,
    // so a noisy stretch of the machine lands on both.
    let mut rng = SplitMix64::new(SEED);
    let mut value = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let blocks: Vec<RegionBlock> = (0..8u32)
        .map(|r| {
            let mut b = RegionBlock::new(vec![r, r % 7], 5);
            for i in 0..1000 {
                let x: [f64; 5] = std::array::from_fn(|_| value());
                b.push(i, &x, value());
            }
            b
        })
        .collect();
    let mut buf = Vec::new();
    let mut round_trip = |encode: fn(&RegionBlock, &mut Vec<u8>),
                          decode: fn(&[u8]) -> RegionBlock| {
        let mut bytes = 0;
        for b in blocks.iter().cycle().take(560) {
            buf.clear();
            encode(b, &mut buf);
            bytes += buf.len();
            black_box(decode(&buf));
        }
        bytes
    };
    let by_lanes: fn(&[u8]) -> RegionBlock = |b| decode_block_v2(b).expect("a block just encoded");
    println!("block_codec/p=5 covers {} bytes", round_trip(encode_block_v2, by_lanes));
    for b in &blocks {
        let (mut lanes, mut values) = (Vec::new(), Vec::new());
        encode_block_v2(b, &mut lanes);
        encode_block_by_values(b, &mut values);
        assert!(lanes == values, "the two encoders disagree");
        assert!(by_lanes(&lanes) == *b && decode_block_by_values(&lanes) == *b);
    }
    let (mut per_value, mut lanes) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        per_value = per_value.min(
            h.bench("block_codec/p=5/codec=per_value", || {
                round_trip(encode_block_by_values, decode_block_by_values)
            })
            .min_secs(),
        );
        lanes = lanes.min(
            h.bench("block_codec/p=5/codec=lanes", || round_trip(encode_block_v2, by_lanes))
                .min_secs(),
        );
    }
    ratios.push(("block codec, lanes vs per value (p=5)", per_value / lanes, 1.2));

    println!();
    let mut below = 0;
    for (what, ratio, floor) in ratios {
        let verdict = if ratio >= floor { "ok" } else { "BELOW FLOOR" };
        println!("{what:<40} {ratio:>7.2}x  (floor {floor:.2}x)  {verdict}");
        below += usize::from(ratio < floor);
    }
    if below > 0 {
        eprintln!("{below} ratchet(s) below their floor");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
