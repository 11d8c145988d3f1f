//! The names the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repo root lists the same
//! names; a unit test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Listed in `BENCHMARK.json`; the test below holds the two together.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

/// How long one run measures: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;
/// The seed when none is given; every result records the one it used.
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train_facts",
        why: "cold path from a star schema: the resident CUBE kernel dominates and the table layer only runs here",
    },
    Workload {
        name: "train_spill",
        why: "same cube layer out of core: external run-structured pass whose 3 runs all spill under a 1 MiB budget, k-way merge, uncached scan",
    },
    Workload {
        name: "train_scan",
        why: "planted blocks, so cube and table do nothing: storage read, decode, scan, CV and RainForest fits over data 35x the cache",
    },
    Workload {
        name: "append_stream",
        why: "writes beside reads: delta CUBE, overlay writes, cache invalidation and dirty re-scoring on one warm engine",
    },
    Workload {
        name: "serve_predict",
        why: "no training: accept, HTTP and JSON parse, predict_batch, serialize, over 2 keep-alive connections in a closed loop",
    },
];

use Better::{Higher, Lower};

/// Every workload reports every one of these (the contract's shape):
/// `op` is the workload's own operation — one training iteration from
/// inputs to a loaded snapshot (`train_*`), one `append`
/// (`append_stream`), one batch-of-1 `POST /predict` round trip
/// (`serve_predict`).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_quiet_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Traced-run metrics, named `<layer>.<what>` after the crate or module
/// the time or count belongs to. A workload that never enters a layer
/// reports zero for it.
pub const PER_LAYER: &[PerLayer] = &[
    // table: the star-schema queries; `target_query_s` is also the
    // exact-answer reference cost next to the model's predict time.
    layer("table.target_query_s", "s", Lower),
    layer("table.cube_input_s", "s", Lower),
    layer("table.fact_rows", "count", Lower),
    // cube: resident kernel, external engine, delta engine.
    layer("cube.pass_s", "s", Lower),
    layer("cube.pass_rows_per_s", "1/s", Higher),
    layer("cube.pass_t2_s", "s", Lower),
    layer("cube.base_cells", "count", Lower),
    layer("cube.cell_merges", "count", Lower),
    layer("cube.regions_emitted", "count", Lower),
    layer("cube.external_s", "s", Lower),
    layer("cube.external_resident_s", "s", Lower),
    layer("cube.spills", "count", Lower),
    layer("cube.spill_bytes", "bytes", Lower),
    layer("cube.runs_merged", "count", Lower),
    layer("cube.delta_append_p50_ms", "ms", Lower),
    layer("cube.delta_append_p90_ms", "ms", Lower),
    layer("cube.delta_new_s", "s", Lower),
    layer("cube.delta_cells_dirtied", "count", Lower),
    layer("cube.delta_regions_dirtied", "count", Lower),
    // training: region-block assembly from the cube result.
    layer("training.block_build_s", "s", Lower),
    layer("training.examples", "count", Lower),
    // storage: layout writes, reads, the decoded-block cache, appends.
    layer("storage.write_s", "s", Lower),
    layer("storage.bytes_written", "bytes", Lower),
    layer("storage.bytes_per_example", "bytes", Lower),
    layer("storage.open_s", "s", Lower),
    layer("storage.read_pass_s", "s", Lower),
    layer("storage.read_mib_per_s", "MiB/s", Higher),
    layer("storage.regions_read", "count", Lower),
    layer("storage.bytes_read", "bytes", Lower),
    layer("storage.cache_hits", "count", Higher),
    layer("storage.cache_misses", "count", Lower),
    layer("storage.cache_evictions", "count", Lower),
    layer("storage.cache_hit_ratio", "ratio", Higher),
    layer("storage.append_p50_ms", "ms", Lower),
    layer("storage.blocks_invalidated", "count", Lower),
    layer("storage.overlay_files", "count", Lower),
    layer("storage.overlay_bytes", "bytes", Lower),
    layer("storage.rescan_s", "s", Lower),
    // scan: core::scan, the builders and the linreg fits.
    layer("scan.basic_s", "s", Lower),
    layer("scan.basic_cv_s", "s", Lower),
    layer("scan.tree_s", "s", Lower),
    layer("scan.cube_s", "s", Lower),
    layer("scan.examples_per_s", "1/s", Higher),
    layer("scan.basic_t2_s", "s", Lower),
    layer("scan.tree_t2_s", "s", Lower),
    layer("scan.tree_speedup_t2", "x", Higher),
    layer("scan.regions_evaluated", "count", Lower),
    layer("scan.regions_skipped", "count", Lower),
    layer("linreg.fits", "count", Lower),
    layer("linreg.cv_folds", "count", Lower),
    layer("linreg.ridge_rescues", "count", Lower),
    layer("linreg.scratch_grows", "count", Lower),
    // model: core::model and the snapshot container.
    layer("model.build_s", "s", Lower),
    layer("model.save_s", "s", Lower),
    layer("model.load_s", "s", Lower),
    layer("model.snapshot_bytes", "bytes", Lower),
    layer("model.predict_basic_ns", "ns", Lower),
    layer("model.predict_tree_ns", "ns", Lower),
    layer("model.predict_cube_ns", "ns", Lower),
    // stream: the incremental engine around the delta cube.
    layer("stream.create_s", "s", Lower),
    layer("stream.append_p90_ms", "ms", Lower),
    layer("stream.append_rows_per_s", "1/s", Higher),
    layer("stream.append_other_p50_ms", "ms", Lower),
    layer("stream.dirty_candidates", "count", Lower),
    layer("stream.regions_rescored", "count", Lower),
    layer("stream.drift_events", "count", Lower),
    // coord: the process fleet against the same in-process scan.
    layer("coord.fleet_scan_s", "s", Lower),
    layer("coord.spawn_s", "s", Lower),
    layer("coord.scan_s", "s", Lower),
    layer("coord.shutdown_s", "s", Lower),
    layer("coord.heartbeat_p50_us", "us", Lower),
    layer("coord.overhead_x", "x", Lower),
    layer("coord.worker_peak_rss_mib", "MiB", Lower),
    layer("coord.worker_restarts", "count", Lower),
    // serve: the request path, client-observed and piece by piece.
    layer("serve.http_read_us", "us", Lower),
    layer("serve.json_parse_us", "us", Lower),
    layer("serve.http_write_us", "us", Lower),
    layer("serve.wire_us", "us", Lower),
    layer("serve.rtt_p90_us", "us", Lower),
    layer("serve.rtt_p99_us", "us", Lower),
    layer("serve.rtt_p999_us", "us", Lower),
    layer("serve.predictions_per_s", "1/s", Higher),
    layer("serve.batch_rtt_p50_us", "us", Lower),
    layer("serve.json_parse_b64_us", "us", Lower),
    layer("serve.churn_req_per_s", "1/s", Higher),
    layer("serve.churn_rtt_p50_us", "us", Lower),
    layer("serve.startup_s", "s", Lower),
    layer("serve.reload_ms", "ms", Lower),
    layer("serve.requests", "count", Lower),
    layer("serve.errors", "count", Lower),
    layer("serve.rejected_busy", "count", Lower),
    layer("serve.connections", "count", Lower),
    // harness: what the tracing itself costs and misses.
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
];

/// The unit of a metric of either kind, `None` for an unknown name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_serve::json::{self, Value};
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25 && m.bound > 0.0));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key}"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Value::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<_> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let listed = |key: &str| field(&doc, key).as_arr().expect("an array").to_vec();
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "why").as_str(), Some(want.why));
        }
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "unit").as_str(), Some(want.unit));
            assert_eq!(field(got, "better").as_str(), Some(want.better.as_str()));
            assert_eq!(
                field(got, "bound"),
                &Value::Num(want.bound),
                "{}",
                want.name
            );
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "unit").as_str(), Some(want.unit));
            assert_eq!(field(got, "better").as_str(), Some(want.better.as_str()));
        }
        assert_eq!(
            field(&doc, "paths"),
            &Value::Arr(vec![Value::Str("benchmark".into())])
        );
        assert_eq!(
            field(&doc, "run_seconds").as_i64(),
            Some(RUN_SECONDS as i64)
        );
    }
}
