//! The worker side of the protocol: a `--worker` mode of the host
//! binary that owns one shard file and serves frame requests over
//! stdin/stdout until EOF or `Shutdown`.
//!
//! Fault injection lives *here* (and mirrored in the simulated
//! transport) so the coordinator under test is the same code that runs
//! in production: it only ever sees the symptoms — a closed pipe, a
//! missed deadline, a checksum mismatch — never the plan.

use crate::fault::{WorkerFault, WorkerFaultPlan};
use crate::frame::{
    self, corrupt_frame, encode_error_kind, read_frame, write_frame, Request, Response, ShardInfo,
};
use bellwether_storage::{DiskSource, TrainingSource};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Duration;

/// First CLI argument that switches the host binary into worker mode.
pub const WORKER_FLAG: &str = "--worker";

/// Exit code used by injected crashes, distinct from success (0) and
/// argument errors (2) so tests can tell fault exits from bugs.
pub const FAULT_EXIT_CODE: i32 = 17;

/// How long an injected hang stalls. Far beyond any coordinator
/// deadline; the coordinator kills the process long before this
/// elapses, so the constant only bounds worker lifetime if the
/// coordinator itself dies.
const HANG_STALL: Duration = Duration::from_secs(600);

/// If the process was invoked as `<bin> --worker ...`, run the worker
/// loop and exit; otherwise return so the host's normal `main`
/// continues. Call this first in `main` of any binary the coordinator
/// may spawn (the CLI, examples, benches).
pub fn maybe_run_worker() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 2 && args[1] == WORKER_FLAG {
        std::process::exit(worker_main(&args[2..]));
    }
}

struct WorkerArgs {
    shard: PathBuf,
    worker_id: usize,
    incarnation: u32,
    plan: WorkerFaultPlan,
}

fn parse_args(args: &[String]) -> Result<WorkerArgs, String> {
    let mut shard = None;
    let mut worker_id = None;
    let mut incarnation = None;
    let mut plan = WorkerFaultPlan::none();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--shard" => shard = Some(PathBuf::from(value)),
            "--worker-id" => {
                worker_id = Some(value.parse().map_err(|_| "bad --worker-id".to_string())?)
            }
            "--incarnation" => {
                incarnation = Some(value.parse().map_err(|_| "bad --incarnation".to_string())?)
            }
            "--fault" => {
                plan = WorkerFaultPlan::from_spec(value)
                    .ok_or_else(|| format!("bad --fault spec: {value}"))?
            }
            other => return Err(format!("unknown worker flag {other}")),
        }
    }
    Ok(WorkerArgs {
        shard: shard.ok_or("missing --shard")?,
        worker_id: worker_id.ok_or("missing --worker-id")?,
        incarnation: incarnation.ok_or("missing --incarnation")?,
        plan,
    })
}

/// Entry point for `--worker` mode; returns the process exit code.
pub fn worker_main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("bellwether worker: {msg}");
            return 2;
        }
    };
    let src = match DiskSource::open(&args.shard) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("bellwether worker: open {}: {err}", args.shard.display());
            return 2;
        }
    };
    match serve_loop(&src, &args) {
        Ok(()) => 0,
        Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => 0,
        Err(err) => {
            eprintln!("bellwether worker: {err}");
            1
        }
    }
}

fn serve_loop(src: &dyn TrainingSource, args: &WorkerArgs) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = BufReader::new(stdin.lock());
    let mut writer = BufWriter::new(stdout.lock());
    let mut frame_no: u64 = 0;
    loop {
        let body = read_frame(&mut reader)?;
        let req = Request::decode(body[0], &body[1..])?;
        let is_read = matches!(req, Request::Read { .. });
        match args.plan.fault_for(args.worker_id, args.incarnation, frame_no, is_read) {
            Some(WorkerFault::Crash) => std::process::exit(FAULT_EXIT_CODE),
            Some(WorkerFault::Hang) => std::thread::sleep(HANG_STALL),
            Some(WorkerFault::Slow(delay)) => std::thread::sleep(delay),
            Some(WorkerFault::CorruptFrame) | None => {}
        }
        let corrupting = matches!(
            args.plan.fault_for(args.worker_id, args.incarnation, frame_no, is_read),
            Some(WorkerFault::CorruptFrame)
        );
        let (resp, done) = handle_request(src, &req);
        let (rkind, rpayload) = resp.encode();
        if corrupting {
            let mut bytes = frame::encode_frame(rkind, &rpayload);
            corrupt_frame(
                &mut bytes,
                args.plan.corruption_hash(args.worker_id, args.incarnation, frame_no),
            );
            writer.write_all(&bytes)?;
        } else {
            write_frame(&mut writer, rkind, &rpayload)?;
        }
        writer.flush()?;
        frame_no += 1;
        if done {
            return Ok(());
        }
    }
}

/// Serve one request against a shard source. Shared verbatim between
/// the process worker and the simulated transport so both paths answer
/// identically; returns the response and whether to exit after it.
pub fn handle_request(src: &dyn TrainingSource, req: &Request) -> (Response, bool) {
    match req {
        Request::Hello => {
            let regions = src.num_regions();
            let arity = if regions > 0 { src.region_coords(0).len() } else { 0 };
            let mut coords = Vec::with_capacity(regions * arity);
            for idx in 0..regions {
                coords.extend_from_slice(src.region_coords(idx));
            }
            (
                Response::ShardInfo(ShardInfo {
                    regions: regions as u32,
                    p: src.feature_arity() as u32,
                    arity: arity as u32,
                    coords,
                }),
                false,
            )
        }
        Request::Read { local } => {
            let idx = *local as usize;
            if idx >= src.num_regions() {
                return (
                    Response::ReadErr {
                        code: encode_error_kind(io::ErrorKind::NotFound),
                        message: format!("region {idx} out of range"),
                    },
                    false,
                );
            }
            match src.read_region(idx) {
                Ok(block) => {
                    let mut bytes = Vec::new();
                    bellwether_storage::format::encode_block_v2(&block, &mut bytes);
                    (Response::Block(bytes), false)
                }
                Err(err) => (
                    Response::ReadErr {
                        code: encode_error_kind(err.kind()),
                        message: err.to_string(),
                    },
                    false,
                ),
            }
        }
        Request::Ping { nonce } => (Response::Pong { nonce: *nonce }, false),
        Request::Shutdown => (
            Response::Bye { peak_rss_bytes: bellwether_obs::peak_rss_bytes().unwrap_or(0) },
            true,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_storage::MemorySource;

    fn tiny_source() -> MemorySource {
        use bellwether_storage::RegionBlock;
        let blocks = vec![
            RegionBlock::from_columns(
                vec![1, 10],
                2,
                vec![100, 101],
                vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                vec![0.5, 0.7],
            ),
            RegionBlock::from_columns(vec![2, 20], 2, vec![102], vec![vec![5.0], vec![6.0]], vec![0.9]),
        ];
        MemorySource::new(blocks)
    }

    #[test]
    fn hello_reports_shard_metadata() {
        let src = tiny_source();
        let (resp, done) = handle_request(&src, &Request::Hello);
        assert!(!done);
        match resp {
            Response::ShardInfo(info) => {
                assert_eq!(info.regions, 2);
                assert_eq!(info.p, 2);
                assert_eq!(info.arity, 2);
                assert_eq!(info.coords, vec![1, 10, 2, 20]);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn read_roundtrips_block_bytes() {
        let src = tiny_source();
        let (resp, _) = handle_request(&src, &Request::Read { local: 0 });
        let bytes = match resp {
            Response::Block(b) => b,
            other => panic!("unexpected response {other:?}"),
        };
        let decoded = bellwether_storage::format::decode_block_v2(&bytes).unwrap();
        let direct = src.read_region(0).unwrap();
        assert_eq!(decoded.region, direct.region);
        assert_eq!(decoded.targets, direct.targets);
    }

    #[test]
    fn out_of_range_read_is_a_classified_error() {
        let src = tiny_source();
        let (resp, done) = handle_request(&src, &Request::Read { local: 99 });
        assert!(!done);
        match resp {
            Response::ReadErr { code, .. } => {
                assert_eq!(frame::decode_error_kind(code), io::ErrorKind::NotFound);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn shutdown_acknowledges_and_terminates() {
        let src = tiny_source();
        let (resp, done) = handle_request(&src, &Request::Shutdown);
        assert!(done);
        assert!(matches!(resp, Response::Bye { .. }));
    }

    #[test]
    fn arg_parsing_rejects_malformed_invocations() {
        let ok = parse_args(&[
            "--shard".into(),
            "/tmp/s.bwtd".into(),
            "--worker-id".into(),
            "3".into(),
            "--incarnation".into(),
            "1".into(),
            "--fault".into(),
            WorkerFaultPlan::new(5).with_crashes(1).to_spec(),
        ])
        .unwrap();
        assert_eq!(ok.worker_id, 3);
        assert_eq!(ok.incarnation, 1);
        assert_eq!(ok.plan.crashes, 1);
        assert!(parse_args(&["--shard".into()]).is_err());
        assert!(parse_args(&["--bogus".into(), "1".into()]).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
