//! Deterministic multi-process shard coordinator with a fault-injected
//! worker lifecycle.
//!
//! PR 8's sharded training path proved that per-shard partials merged
//! in ascending shard order are bit-identical at any shards × threads —
//! but everything ran inside one process. This crate moves each shard
//! behind its own OS process (the host binary re-invoked in
//! [`worker::WORKER_FLAG`] mode) and wraps the whole fleet in a
//! robustness layer, while presenting the cluster to the scan engine as
//! one ordinary `TrainingSource`:
//!
//! * **Framed protocol** ([`frame`]) — length-prefixed, CRC-32-framed
//!   request/response messages over worker stdin/stdout; blocks travel
//!   in their checksummed v2 on-disk encoding, so payload integrity is
//!   verified twice (frame CRC, then block CRC).
//! * **Seeded fault plan** ([`fault`]) — crash / hang / corrupt-frame /
//!   slow-reply decisions as a pure function of `(seed, worker,
//!   incarnation, frame)`, organized in incarnation bands so a
//!   sufficient restart budget provably converges.
//! * **Worker lifecycle** ([`coordinator`]) — per-reply deadlines,
//!   heartbeats, bounded restart with the *same* exponential
//!   backoff + deterministic jitter the storage layer uses for region
//!   reads (`RetryPolicy`), and fail-fast dead-shard state that turns
//!   an exhausted budget into exact `SkipUnreadable` skip accounting.
//! * **Simulated transport** ([`transport`]) — an in-process twin that
//!   replays the same plan with fault symptoms mapped onto channel
//!   state instead of wall time: crash = closed channel, hang =
//!   instant `TimedOut`. Every campaign is replayable in `cargo test`
//!   with zero sleeps and exact counter assertions.
//!
//! Determinism argument, in one line: the transport may be chaotic, but
//! a region read either returns the canonical block bytes or a
//! classified error, and the scan engine's shard-ordered merge does the
//! rest — so coordinator-backed training is byte-identical to the
//! in-process `ShardedSource` path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod fault;
pub mod frame;
pub mod transport;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, WorkerExit};
pub use fault::{WorkerFault, WorkerFaultPlan};
pub use frame::{Request, Response, ShardInfo};
pub use transport::{ProcessSpawner, SimSpawner, Transport, WorkerSpawner};
pub use worker::{maybe_run_worker, worker_main, FAULT_EXIT_CODE, WORKER_FLAG};

#[cfg(test)]
mod sim_tests {
    //! Deterministic fault campaigns over the simulated transport: no
    //! real processes, no sleeps, exact counter arithmetic.

    use super::*;
    use bellwether_obs::Registry;
    use bellwether_storage::{
        even_shard_plan, RegionBlock, RetryPolicy, ShardedWriter, TrainingSource,
    };
    use std::path::PathBuf;
    use std::time::Duration;

    fn block(region: u32, rows: usize) -> RegionBlock {
        let mut b = RegionBlock::new(vec![region], 2);
        for i in 0..rows {
            b.push(i as i64, &[1.0, region as f64 + i as f64], 0.25 * i as f64);
        }
        b
    }

    /// Write `regions` one-coordinate regions split over `shards`
    /// shard files; returns the dataset dir.
    fn dataset(name: &str, regions: usize, shards: usize) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("bw_coord_sim_{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = ShardedWriter::create(&dir, 2, 1, even_shard_plan(regions, shards)).unwrap();
        for r in 0..regions {
            w.write_region(&block(r as u32, 2 + r % 3)).unwrap();
        }
        w.finish().unwrap();
        dir
    }

    /// Zero-backoff policy: attempts bound restarts, sleeps are free.
    fn budget(attempts: u32) -> CoordinatorConfig {
        CoordinatorConfig::new().restart_policy(
            RetryPolicy::builder()
                .max_attempts(attempts)
                .base_backoff(Duration::ZERO)
                .max_backoff(Duration::ZERO)
                .build()
                .unwrap(),
        )
    }

    fn read_all(coord: &Coordinator) -> Vec<Vec<f64>> {
        (0..coord.num_regions())
            .map(|i| coord.read_region(i).unwrap().targets.clone())
            .collect()
    }

    #[test]
    fn clean_simulation_matches_direct_reads() {
        let dir = dataset("clean", 9, 3);
        let coord =
            Coordinator::simulated(&dir, WorkerFaultPlan::none(), budget(1)).unwrap();
        assert_eq!(coord.num_regions(), 9);
        assert_eq!(coord.feature_arity(), 2);
        let direct = bellwether_storage::ShardedSource::open(&dir).unwrap();
        for i in 0..9 {
            assert_eq!(coord.region_coords(i), direct.region_coords(i));
            let a = coord.read_region(i).unwrap();
            let b = direct.read_region(i).unwrap();
            assert_eq!(a.region, b.region);
            assert_eq!(a.targets, b.targets);
            assert_eq!(a.item_ids, b.item_ids);
        }
        assert_eq!(coord.find_region(&[4]), Some(4));
        assert_eq!(coord.find_region(&[99]), None);
        assert_eq!(coord.total_examples().unwrap(), direct.total_examples().unwrap());
        assert_eq!(coord.shard_starts(), Some(vec![0, 3, 6]));
    }

    #[test]
    fn full_campaign_restarts_exactly_once_per_band() {
        // 2 shards × 12 regions each: every request stream is long
        // enough that each band incarnation fires (trigger < 4).
        let shards = 2;
        let dir = dataset("campaign", 24, shards);
        let plan = WorkerFaultPlan::new(7).with_crashes(1).with_hangs(1).with_corrupts(1);
        let reg = Registry::new();
        let coord =
            Coordinator::simulated_with_registry(&dir, plan, budget(8), &reg).unwrap();
        let targets = read_all(&coord);

        // Reference: clean in-process reads.
        let direct = bellwether_storage::ShardedSource::open(&dir).unwrap();
        let expect: Vec<Vec<f64>> = (0..24)
            .map(|i| direct.read_region(i).unwrap().targets.clone())
            .collect();
        assert_eq!(targets, expect, "faulted reads return canonical bytes");

        // Each worker burns exactly its three faulty incarnations.
        let n = |name: &str| {
            reg.snapshot()
                .counters
                .iter()
                .find(|(c, _)| c == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let s = shards as u64;
        assert_eq!(n("coord/worker_restarts"), 3 * s);
        assert_eq!(n("coord/worker_crashes"), s);
        assert_eq!(n("coord/worker_timeouts"), s);
        assert_eq!(n("coord/corrupt_frames"), s);
        assert_eq!(n("coord/workers_spawned"), 4 * s);
        assert_eq!(n("coord/shards_dead"), 0);
        assert_eq!(n("coord/reads"), 24);

        // A second full pass runs clean: bands are exhausted.
        let again = read_all(&coord);
        assert_eq!(again, expect);
        assert_eq!(n("coord/worker_restarts"), 3 * s, "no new restarts");
    }

    #[test]
    fn campaign_replays_identically() {
        let dir = dataset("replay", 12, 3);
        let plan = WorkerFaultPlan::new(99).with_crashes(1).with_corrupts(1);
        let mut snapshots = Vec::new();
        for _ in 0..2 {
            let reg = Registry::new();
            let coord =
                Coordinator::simulated_with_registry(&dir, plan, budget(6), &reg).unwrap();
            read_all(&coord);
            let mut counters = reg.snapshot().counters;
            counters.sort();
            snapshots.push(counters);
        }
        assert_eq!(snapshots[0], snapshots[1], "same plan, same counters");
    }

    #[test]
    fn exhausted_budget_kills_exactly_one_shard() {
        let dir = dataset("poisoned", 12, 3);
        let plan = WorkerFaultPlan::new(3).with_poisoned(1);
        let reg = Registry::new();
        let coord =
            Coordinator::simulated_with_registry(&dir, plan, budget(2), &reg).unwrap();

        let mut failed = Vec::new();
        for i in 0..coord.num_regions() {
            if let Err(err) = coord.read_region(i) {
                assert_eq!(err.kind(), std::io::ErrorKind::Other);
                failed.push(i);
            }
        }
        // Worker 1 owns regions 4..8; its first read spends the budget
        // and every later read fails fast without new spawns.
        assert_eq!(failed, coord.regions_of_worker(1).collect::<Vec<_>>());
        assert_eq!(coord.dead_workers(), vec![1]);
        let n = |name: &str| {
            reg.snapshot()
                .counters
                .iter()
                .find(|(c, _)| c == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(n("coord/shards_dead"), 1);
        assert_eq!(n("coord/worker_restarts"), 1, "budget of 2 = one restart");
        // Healthy shards were untouched by the dead one.
        let direct = bellwether_storage::ShardedSource::open(&dir).unwrap();
        for i in (0..4).chain(8..12) {
            assert_eq!(
                coord.read_region(i).unwrap().targets,
                direct.read_region(i).unwrap().targets
            );
        }
    }

    #[test]
    fn heartbeat_counts_live_workers() {
        let dir = dataset("heartbeat", 6, 2);
        let coord =
            Coordinator::simulated(&dir, WorkerFaultPlan::none(), budget(1)).unwrap();
        assert_eq!(coord.heartbeat(), 2);
        let snap = coord.snapshot();
        let hb = snap
            .counters
            .iter()
            .find(|(c, _)| c == "coord/heartbeats")
            .map(|(_, v)| *v);
        assert_eq!(hb, Some(2));
    }

    #[test]
    fn shutdown_reports_spawn_counts() {
        let dir = dataset("shutdown", 8, 2);
        let plan = WorkerFaultPlan::new(11).with_crashes(1);
        let coord = Coordinator::simulated(&dir, plan, budget(4)).unwrap();
        read_all(&coord);
        let exits = coord.shutdown();
        assert_eq!(exits.len(), 2);
        for exit in &exits {
            assert_eq!(exit.spawns, 2, "one crash band = two spawns");
        }
    }

    #[test]
    fn snapshot_includes_coord_counters() {
        let dir = dataset("snapshot", 4, 2);
        let coord =
            Coordinator::simulated(&dir, WorkerFaultPlan::none(), budget(1)).unwrap();
        read_all(&coord);
        let snap = coord.snapshot();
        for name in ["coord/reads", "coord/frames_sent", "coord/workers_spawned"] {
            assert!(
                snap.counters.iter().any(|(c, _)| c == name),
                "snapshot missing {name}"
            );
        }
        let reads = snap
            .counters
            .iter()
            .find(|(c, _)| c == "coord/reads")
            .map(|(_, v)| *v);
        assert_eq!(reads, Some(4));
        // IO stats flow through the standard storage counters too.
        let io = snap
            .counters
            .iter()
            .find(|(c, _)| c == "storage/regions_read")
            .map(|(_, v)| *v);
        assert_eq!(io, Some(4));
    }
}
