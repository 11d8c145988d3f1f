//! Worker transports: the real multi-process one and a deterministic
//! in-process simulation.
//!
//! The coordinator is written against [`Transport`]/[`WorkerSpawner`]
//! only, so the restart loop, deadline handling, and degradation logic
//! exercised by the simulated fault campaigns in `cargo test` are the
//! exact code paths that manage real OS processes.
//!
//! [`SimTransport`] replays the same [`WorkerFaultPlan`] decisions as a
//! real worker but maps their symptoms onto channel state instead of
//! wall-clock behaviour: a crash closes the channel
//! (`UnexpectedEof`), a hang wedges it so the next `recv` reports
//! `TimedOut` *immediately* — no sleeps anywhere, which is what makes
//! the fault campaigns replayable without flaky timing.

use crate::fault::{WorkerFault, WorkerFaultPlan};
use crate::frame::{self, read_frame, write_frame, Request, Response};
use crate::worker::{self, WORKER_FLAG};
use bellwether_storage::{DiskSource, TrainingSource};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// One live worker connection (one incarnation of one shard's worker).
pub trait Transport: Send {
    /// Send a request frame.
    fn send(&mut self, req: &Request) -> io::Result<()>;
    /// Receive the next response frame, failing with `TimedOut` if the
    /// worker does not reply within `deadline`.
    fn recv(&mut self, deadline: Duration) -> io::Result<Response>;
    /// Tear the connection down hard (kill the process / drop the
    /// channel). Idempotent.
    fn terminate(&mut self);
}

/// Factory for worker connections; `incarnation` counts spawns of this
/// worker so the fault plan can band faults over restarts.
pub trait WorkerSpawner: Send + Sync {
    /// Spawn incarnation `incarnation` of worker `worker`.
    fn spawn(&self, worker: usize, incarnation: u32) -> io::Result<Box<dyn Transport>>;
    /// True for the simulated transport: backoff sleeps are skipped so
    /// fault campaigns run at full speed with deterministic outcomes.
    fn is_simulated(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Real processes
// ---------------------------------------------------------------------------

/// Spawns one OS process per worker: `<bin> --worker --shard <file>
/// --worker-id <w> --incarnation <i> [--fault <spec>]`.
pub struct ProcessSpawner {
    bin: PathBuf,
    shard_files: Vec<PathBuf>,
    plan: WorkerFaultPlan,
}

impl ProcessSpawner {
    /// Spawn workers from `bin` (a binary whose `main` calls
    /// [`worker::maybe_run_worker`] first), one per shard file.
    pub fn new(bin: PathBuf, shard_files: Vec<PathBuf>, plan: WorkerFaultPlan) -> Self {
        ProcessSpawner { bin, shard_files, plan }
    }
}

impl WorkerSpawner for ProcessSpawner {
    fn spawn(&self, worker: usize, incarnation: u32) -> io::Result<Box<dyn Transport>> {
        let shard = self.shard_files.get(worker).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no shard file for worker {worker}"))
        })?;
        let mut cmd = Command::new(&self.bin);
        cmd.arg(WORKER_FLAG)
            .arg("--shard")
            .arg(shard)
            .arg("--worker-id")
            .arg(worker.to_string())
            .arg("--incarnation")
            .arg(incarnation.to_string());
        if self.plan.is_faulty() || self.plan.slow_every > 0 {
            cmd.arg("--fault").arg(self.plan.to_spec());
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel::<io::Result<Vec<u8>>>();
        let reader = std::thread::spawn(move || {
            let mut stdout = BufReader::new(stdout);
            loop {
                match read_frame(&mut stdout) {
                    Ok(frame) => {
                        if tx.send(Ok(frame)).is_err() {
                            return;
                        }
                    }
                    Err(err) => {
                        let _ = tx.send(Err(err));
                        return;
                    }
                }
            }
        });
        Ok(Box::new(ProcessTransport {
            child,
            stdin: Some(BufWriter::new(stdin)),
            rx,
            reader: Some(reader),
        }))
    }
}

/// A worker running as a child process; frames are read off stdout by a
/// dedicated thread so `recv` can enforce a deadline without blocking
/// on a hung pipe.
pub struct ProcessTransport {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    rx: mpsc::Receiver<io::Result<Vec<u8>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Transport for ProcessTransport {
    fn send(&mut self, req: &Request) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin closed"))?;
        let (kind, payload) = req.encode();
        write_frame(stdin, kind, &payload)?;
        stdin.flush()
    }

    fn recv(&mut self, deadline: Duration) -> io::Result<Response> {
        match self.rx.recv_timeout(deadline) {
            Ok(Ok(body)) => Response::decode(body[0], &body[1..]),
            Ok(Err(err)) => Err(err),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "worker missed reply deadline",
            )),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker stream closed",
            )),
        }
    }

    fn terminate(&mut self) {
        self.stdin = None; // close the pipe so a clean worker exits
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        self.terminate();
    }
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

/// Spawns in-process simulated workers over the same shard files.
pub struct SimSpawner {
    shard_files: Vec<PathBuf>,
    plan: WorkerFaultPlan,
}

impl SimSpawner {
    /// Simulated workers, one per shard file.
    pub fn new(shard_files: Vec<PathBuf>, plan: WorkerFaultPlan) -> Self {
        SimSpawner { shard_files, plan }
    }
}

impl WorkerSpawner for SimSpawner {
    fn spawn(&self, worker: usize, incarnation: u32) -> io::Result<Box<dyn Transport>> {
        let shard = self.shard_files.get(worker).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no shard file for worker {worker}"))
        })?;
        let src = DiskSource::open(shard)?;
        Ok(Box::new(SimTransport {
            src: Box::new(src),
            plan: self.plan,
            worker,
            incarnation,
            frame_no: 0,
            queue: VecDeque::new(),
            crashed: false,
            wedged: false,
        }))
    }

    fn is_simulated(&self) -> bool {
        true
    }
}

/// An in-process worker that round-trips every message through the real
/// frame codec and the real [`worker::handle_request`] handler, with
/// fault symptoms mapped onto channel state instead of wall time.
pub struct SimTransport {
    src: Box<dyn TrainingSource + Send>,
    plan: WorkerFaultPlan,
    worker: usize,
    incarnation: u32,
    frame_no: u64,
    queue: VecDeque<Vec<u8>>,
    crashed: bool,
    wedged: bool,
}

impl Transport for SimTransport {
    fn send(&mut self, req: &Request) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "worker crashed"));
        }
        if self.wedged {
            return Ok(()); // a hung worker absorbs input silently
        }
        // Round-trip the request through the wire codec, exactly as a
        // real worker would see it.
        let (kind, payload) = req.encode();
        let bytes = frame::encode_frame(kind, &payload);
        let (kind, payload) = frame::decode_frame(&bytes)?;
        let req = Request::decode(kind, &payload)?;
        let is_read = matches!(req, Request::Read { .. });
        let fault = self
            .plan
            .fault_for(self.worker, self.incarnation, self.frame_no, is_read);
        match fault {
            Some(WorkerFault::Crash) => {
                self.crashed = true;
                self.frame_no += 1;
                return Ok(()); // the send "succeeds"; recv sees the death
            }
            Some(WorkerFault::Hang) => {
                self.wedged = true;
                self.frame_no += 1;
                return Ok(());
            }
            Some(WorkerFault::Slow(_)) | Some(WorkerFault::CorruptFrame) | None => {}
        }
        let (resp, _done) = worker::handle_request(self.src.as_ref(), &req);
        let (rkind, rpayload) = resp.encode();
        let mut bytes = frame::encode_frame(rkind, &rpayload);
        if matches!(fault, Some(WorkerFault::CorruptFrame)) {
            frame::corrupt_frame(
                &mut bytes,
                self.plan
                    .corruption_hash(self.worker, self.incarnation, self.frame_no),
            );
        }
        self.queue.push_back(bytes);
        self.frame_no += 1;
        Ok(())
    }

    fn recv(&mut self, _deadline: Duration) -> io::Result<Response> {
        if let Some(bytes) = self.queue.pop_front() {
            let (kind, payload) = frame::decode_frame(&bytes)?;
            return Response::decode(kind, &payload);
        }
        if self.wedged {
            // A real hung worker would make the coordinator wait out
            // its deadline; the simulation reports the timeout with no
            // wall-clock sleep at all.
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "worker missed reply deadline (simulated hang)",
            ));
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "worker stream closed (simulated crash)",
        ))
    }

    fn terminate(&mut self) {
        self.crashed = true;
        self.queue.clear();
    }
}
