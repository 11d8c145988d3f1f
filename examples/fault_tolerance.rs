//! Fault-tolerance tour: the checksummed on-disk format, deterministic
//! fault injection, retry/backoff, and the two scan policies — with
//! every fault and recovery counted in one metrics [`Registry`].
//!
//! The walk-through:
//!
//! 1. write the mail-order training data to disk (format v2: every
//!    block carries a CRC-32 trailer);
//! 2. inject seeded transient IO failures with [`FaultySource`] and
//!    absorb them with [`RetryingSource`] — the search result is
//!    bit-identical to the clean run;
//! 3. flip one byte on disk: a `Strict` scan fails with a structured
//!    `RegionRead` error naming the corrupt region, while
//!    `SkipUnreadable` completes degraded and reports exactly which
//!    region it dropped;
//! 4. print the `MetricsSnapshot` JSON, which now carries
//!    `storage/retries`, `storage/corrupt_blocks`,
//!    `storage/faults_injected` and `scan/regions_skipped`.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use bellwether::prelude::*;
use std::time::Duration;

fn main() {
    let reg = Registry::shared();

    // ---- a small mail-order workload, written to disk in format v2.
    let mut cfg = RetailConfig::mail_order(120, 11);
    cfg.months = 6;
    cfg.converge_month = 4;
    println!("generating mail-order dataset ({} items)…", cfg.n_items);
    let data = generate_retail(&cfg);

    let budget = 40.0;
    let (task, par) = (data.task(), Parallelism::default());
    let regions = task.regions_within(budget);
    let path = std::env::temp_dir().join("bellwether_fault_tolerance.btd");
    let blocks = task.materialize(&regions, Memory, par, &NoopRecorder).unwrap();
    let (p, arity) = (blocks.feature_arity() as u32, data.space.arity() as u32);
    let mut writer = bellwether::storage::TrainingWriter::create(&path, p, arity).unwrap();
    for block in blocks.blocks() {
        writer.write_region(block).unwrap();
    }
    writer.finish().unwrap();
    let clean = DiskSource::open(&path).unwrap();
    println!("wrote {} checksummed regions", regions.len());

    let problem = BellwetherConfig::builder(budget)
        .min_coverage(0.5)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .recorder(reg.clone())
        .build()
        .unwrap();

    // ---- clean baseline.
    let baseline =
        basic_search(&clean, &data.space, &data.cost, &problem, data.items.len()).unwrap();
    println!(
        "clean search: {} regions evaluated, bellwether {}",
        baseline.reports.len(),
        baseline.report().map_or("-".into(), |r| r.label)
    );

    // ---- seeded transient faults, absorbed by retries: every region
    // read fails once before succeeding, and the retry layer (4
    // attempts, exponential backoff with deterministic jitter) makes
    // the whole thing invisible to the search.
    let plan = FaultPlan::new(42).transient_every(1, 1);
    let policy = RetryPolicy::builder()
        .max_attempts(4)
        .base_backoff(Duration::from_micros(50))
        .max_backoff(Duration::from_millis(2))
        .build()
        .unwrap();
    let flaky = RetryingSource::with_registry(
        FaultySource::with_registry(DiskSource::open_with_registry(&path, &reg).unwrap(), plan, &reg),
        policy,
        &reg,
    );
    let retried =
        basic_search(&flaky, &data.space, &data.cost, &problem, data.items.len()).unwrap();
    assert_eq!(
        format!("{retried:?}"),
        format!("{baseline:?}"),
        "retried faults must not change the result"
    );
    let flaky_counts = flaky.snapshot();
    println!(
        "faulty search: {} transients injected, {} retries — result bit-identical to clean run",
        flaky_counts.faults_injected(),
        flaky_counts.retries()
    );

    // ---- corruption: flip one byte of the first block on disk.
    let mut bytes = std::fs::read(&path).unwrap();
    let flip_at = bellwether::storage::format::HEADER_LEN + 24;
    bytes[flip_at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    println!("\nflipped one bit at byte {flip_at} on disk");

    // Strict (the default): the checksum catches the flip and the scan
    // fails fast with the region index attached — no panic, no silently
    // wrong aggregate.
    let corrupt = DiskSource::open_with_registry(&path, &reg).unwrap();
    match basic_search(&corrupt, &data.space, &data.cost, &problem, data.items.len()) {
        Err(BellwetherError::RegionRead { index, source }) => {
            assert!(is_corrupt(&source), "expected a classified corrupt block");
            println!("strict scan: failed region {index} — {source}");
        }
        other => panic!("expected a RegionRead error, got {other:?}"),
    }

    // SkipUnreadable: the search completes without the corrupt region
    // and says exactly what it dropped.
    let degraded_cfg = BellwetherConfig::builder(budget)
        .min_coverage(0.5)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .scan_policy(ScanPolicy::SkipUnreadable { max_skipped: 2 })
        .recorder(reg.clone())
        .build()
        .unwrap();
    let degraded = basic_search(
        &corrupt,
        &data.space,
        &data.cost,
        &degraded_cfg,
        data.items.len(),
    )
    .unwrap();
    println!(
        "skip-unreadable scan: {} regions evaluated, skipped {:?}, bellwether {}",
        degraded.reports.len(),
        degraded.skipped_regions,
        degraded.report().map_or("-".into(), |r| r.label)
    );
    assert_eq!(degraded.skipped_regions.len(), 1);

    // ---- the fault-tolerance counters, in the snapshot JSON.
    let snap = reg.snapshot();
    assert!(snap.retries() > 0, "retries should have been counted");
    assert!(snap.corrupt_blocks() > 0, "corruption should have been counted");
    assert!(snap.faults_injected() > 0);
    assert!(snap.regions_skipped() > 0);
    println!(
        "\ncounters: {} retries, {} corrupt blocks, {} faults injected, {} regions skipped",
        snap.retries(),
        snap.corrupt_blocks(),
        snap.faults_injected(),
        snap.regions_skipped()
    );
    println!("\n==== metrics snapshot (JSON) ====");
    println!("{}", snap.to_json());

    std::fs::remove_file(&path).ok();
}
