//! Microbenchmarks for the hot kernels this repo writes by hand:
//! sufficient-statistic accumulation (scalar row-at-a-time
//! [`RegSuffStats::add`] versus the batched columnar
//! [`RegSuffStats::add_rows`]), CRC-32 (the bytewise reference, the
//! slice-by-8 table kernel and, where the CPU has it, the
//! carry-less-multiply fold behind `crc32`), and the v2 block codec the
//! checksum sits under. Results land in `results/BENCH_kernels.json`;
//! the CI kernel-smoke job asserts the new kernels beat their baselines
//! on the largest configs.

use bellwether_bench::{results_dir, Harness};
use bellwether_linreg::{RegSuffStats, RegressionData, SplitMix64};
use bellwether_storage::crc32::{crc32, crc32_bytewise, crc32_finish, crc32_table, CRC_INIT};
use bellwether_storage::format::{decode_block_v2, encode_block_v2};
use bellwether_storage::RegionBlock;

/// The block shape of the benchmark's `train_scan` layout: 2,500 rows
/// of 5 features under 3 region coordinates, 140,032 bytes encoded.
const BLOCK_DECODE: &str = "block_decode_v2/n=2500/p=5";
const BLOCK_ENCODE: &str = "block_encode_v2/n=2500/p=5";
/// Medians of the two cells at the parent of the PR that put the fold
/// under them (PR 17: slice-by-8 fused into the decode loop, and over
/// the whole payload on encode), same harness, same machine, runs
/// alternated with the change's. The box has two clock states; these
/// are the fast one's (the slow one read 86 and 99 us), the harder
/// baseline to stay under.
const PARENT_MEDIAN_SECS: [(&str, f64); 2] = [(BLOCK_DECODE, 0.000068), (BLOCK_ENCODE, 0.000078)];

/// Deterministic dataset of `n` examples with `p` features, plus the
/// same rows materialised row-major for the scalar kernel (so the AoS
/// path is charged for its arithmetic, not for row extraction).
fn dataset(n: usize, p: usize) -> (RegressionData, Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SplitMix64::new(0x5EED ^ ((n as u64) << 8) ^ p as u64);
    let mut data = RegressionData::new(p);
    let mut rows = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
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

fn main() {
    let mut h = Harness::new();
    let crc_kernel = bellwether_storage::crc32::kernel();
    h.record_environment("crc32_kernel", crc_kernel);
    println!("crc32 kernel for inputs of 64 bytes or more: {crc_kernel}");

    // --- Sufficient-statistic accumulation, n × p matrix.
    for &n in &[1024usize, 16384, 131072] {
        for &p in &[2usize, 4, 8] {
            let (data, rows, ys) = dataset(n, p);
            h.bench(&format!("suffstats_accumulate/n={n}/p={p}/kernel=scalar"), || {
                let mut s = RegSuffStats::new(p);
                for (x, &y) in rows.iter().zip(&ys) {
                    s.add(x, y, 1.0);
                }
                s
            });
            h.bench(&format!("suffstats_accumulate/n={n}/p={p}/kernel=batched"), || {
                let mut s = RegSuffStats::new(p);
                s.add_rows(&data);
                s
            });
            // The two kernels sum in different canonical orders; they
            // must agree to rounding (the property suite pins this —
            // here it guards against benching a broken kernel).
            let mut scalar = RegSuffStats::new(p);
            for (x, &y) in rows.iter().zip(&ys) {
                scalar.add(x, y, 1.0);
            }
            let mut batched = RegSuffStats::new(p);
            batched.add_rows(&data);
            let (a, b) = (scalar.sse().unwrap(), batched.sse().unwrap());
            assert!(
                (a - b).abs() <= 1e-7 * a.abs().max(1.0),
                "kernels diverged at n={n} p={p}: {a} vs {b}"
            );
        }
    }

    // --- CRC-32 over block-sized payloads.
    for &len in &[4096usize, 65536, 1 << 20] {
        let mut rng = SplitMix64::new(len as u64);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        h.bench(&format!("crc32/len={len}/kernel=bytewise"), || {
            crc32_bytewise(&data)
        });
        h.bench(&format!("crc32/len={len}/kernel=slice8"), || {
            crc32_finish(crc32_table(CRC_INIT, &data))
        });
        // `crc32` only differs from the cell above where it folds.
        if crc_kernel == "clmul" {
            h.bench(&format!("crc32/len={len}/kernel=clmul"), || crc32(&data));
        }
    }

    // --- The v2 block codec over one `train_scan`-shaped block.
    let mut rng = SplitMix64::new(0xB10C);
    let mut unit = || rng.next_u64() as f64 / u64::MAX as f64;
    let mut block = RegionBlock::new(vec![3, 1, 4], 5);
    for id in 0..2500i64 {
        let x: Vec<f64> = (0..5).map(|_| unit() * 10.0 - 5.0).collect();
        block.push(id, &x, unit());
    }
    let mut encoded = Vec::new();
    encode_block_v2(&block, &mut encoded);
    assert_eq!(decode_block_v2(&encoded).expect("clean block"), block);
    h.bench(BLOCK_DECODE, || decode_block_v2(&encoded).expect("clean block"));
    let mut out = Vec::with_capacity(encoded.len());
    h.bench(BLOCK_ENCODE, || {
        out.clear();
        encode_block_v2(&block, &mut out);
        out.len()
    });
    for (name, secs) in PARENT_MEDIAN_SECS {
        h.record_parent_median(name, secs);
    }

    // --- Headline ratios.
    let median = |name: &str| h.result(name).map(|r| r.median_secs());
    if let (Some(scalar), Some(batched)) = (
        median("suffstats_accumulate/n=131072/p=8/kernel=scalar"),
        median("suffstats_accumulate/n=131072/p=8/kernel=batched"),
    ) {
        println!(
            "suffstats accumulate n=131072 p=8, scalar / batched (median): {:.2}x",
            scalar / batched
        );
    }
    if let (Some(bytewise), Some(slice8)) = (
        median("crc32/len=1048576/kernel=bytewise"),
        median("crc32/len=1048576/kernel=slice8"),
    ) {
        println!(
            "crc32 1 MiB, bytewise / slice-by-8 (median): {:.2}x",
            bytewise / slice8
        );
        if let Some(clmul) = median("crc32/len=1048576/kernel=clmul") {
            println!(
                "crc32 1 MiB, slice-by-8 / clmul (median): {:.2}x",
                slice8 / clmul
            );
        }
    }
    for (name, parent) in PARENT_MEDIAN_SECS {
        if let Some(now) = median(name) {
            println!("{name}: {:.2}x its parent median", now / parent);
        }
    }

    h.emit_json(&results_dir().join("BENCH_kernels.json"));
}
