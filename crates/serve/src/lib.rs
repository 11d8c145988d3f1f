//! # bellwether-serve
//!
//! A train-once / predict-at-QPS surface for bellwether models: a
//! dependency-free HTTP/1.1 server over `std::net` that answers item
//! predictions from an immutable [`BellwetherModel`] snapshot.
//!
//! The paper's economics only pay off when one training pass amortises
//! over many predictions; this crate is that serving side. A bounded
//! worker pool shares one `Arc<BellwetherModel>` (loaded via
//! [`BellwetherModel::load`] or built in-process); each worker owns a
//! reusable [`ServeScratch`] — buffers that warm up once, the same
//! discipline as the scan engine's per-worker `RegionEvalScratch`.
//!
//! The response framing path is allocation-free once they are warm: the
//! body is built in place, and [`http::send_response`] assembles status
//! line, headers and body in the worker's reply buffer and sends them
//! with one `write_all`. One send is one segment on the `TCP_NODELAY`
//! socket, so a client never wakes for a head whose body is still in
//! flight. Reading is allocation-free once warm too: a parsed
//! [`http::Request`] is the ranges of its method, path and body in the
//! worker's read buffer, drained once the request is answered.
//!
//! ## Endpoints
//!
//! * `POST /predict` — body `{"method":"basic|tree|cube","ids":[…]}`;
//!   answers `{"method":…,"predictions":[…],"count":N}` with one slot
//!   per id (`null` when the item is unknown or unroutable). The ids
//!   array is the batch: one request, one batch, many predictions.
//! * `GET /health` — liveness plus the installed methods.
//! * `GET /metrics` — the shared registry's `MetricsSnapshot` as JSON;
//!   `serve/latency_p50_us` / `serve/latency_p99_us` gauges are
//!   refreshed from a lock-free latency histogram on every call.
//! * `POST /reload` — re-load the model snapshot from the configured
//!   [`ServeConfigBuilder::model_path`] and swap it in atomically; 409
//!   when no path is configured, 500 (old model keeps serving) when the
//!   snapshot fails to load. In-process swaps go through
//!   [`ServerHandle::swap_model`]. Every request resolves the current
//!   model through one shared [`RwLock`]'d `Arc` handle, so a swap is
//!   one pointer exchange: in-flight batches finish on the snapshot
//!   they started with and the next request sees the new one, with no
//!   drop in service.
//!
//! ## Backpressure
//!
//! The acceptor never blocks on a full worker queue: accepted
//! connections are `try_send`-ed to the pool, the instantaneous depth
//! lands on the `serve/queue_depth` gauge, and when the bounded queue
//! (capacity [`ServeConfigBuilder::queue_capacity`]) is full the
//! connection is answered `503 Service Unavailable` on the spot and
//! counted on `serve/rejected_busy` — loaded clients get a fast, honest
//! retry signal instead of an unbounded backlog.
//!
//! Counters: `serve/requests`, `serve/batches`, `serve/predictions`,
//! `serve/errors`, `serve/connections`, `serve/rejected_busy`,
//! `serve/reloads`; per-request wall time also lands on the
//! `serve/request` span.
//!
//! Connections are keep-alive with per-request read timeouts; shutdown
//! is graceful — in-flight requests finish, then workers exit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod json;
pub mod latency;

pub use latency::LatencyHistogram;

use bellwether_core::model::{BellwetherModel, MethodKind};
use bellwether_obs::{names, Recorder, Registry};
use http::{read_request, send_response, write_response, ReadOutcome, Request};
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. Build via [`ServeConfig::builder`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-request socket read timeout (also the keep-alive idle bound).
    pub request_timeout: Duration,
    /// Maximum accepted request body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum ids per `/predict` batch.
    pub max_batch: usize,
    /// Accepted connections waiting for a worker before the acceptor
    /// answers 503.
    pub queue_capacity: usize,
    /// Snapshot path `POST /reload` re-loads the model from; without
    /// one the endpoint answers 409.
    pub model_path: Option<PathBuf>,
    /// Registry receiving `serve/*` counters, gauges and spans.
    pub registry: Arc<Registry>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            request_timeout: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
            max_batch: 10_000,
            queue_capacity: 8,
            model_path: None,
            registry: Registry::shared(),
        }
    }
}

impl ServeConfig {
    /// Start building from the defaults, with validation at
    /// [`ServeConfigBuilder::build`] time.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder(ServeConfig::default())
    }
}

/// Builder for [`ServeConfig`], matching the workspace's config style.
#[derive(Clone, Default)]
pub struct ServeConfigBuilder(ServeConfig);

impl ServeConfigBuilder {
    /// Worker threads (≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.0.workers = n;
        self
    }

    /// Per-request read timeout (> 0).
    pub fn request_timeout(mut self, t: Duration) -> Self {
        self.0.request_timeout = t;
        self
    }

    /// Maximum request body bytes (≥ 1).
    pub fn max_body_bytes(mut self, n: usize) -> Self {
        self.0.max_body_bytes = n;
        self
    }

    /// Maximum ids per batch (≥ 1).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.0.max_batch = n;
        self
    }

    /// Connections allowed to wait for a worker (≥ 1); beyond this the
    /// acceptor answers 503 instead of queueing.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.0.queue_capacity = n;
        self
    }

    /// Snapshot path for `POST /reload`.
    pub fn model_path(mut self, p: impl Into<PathBuf>) -> Self {
        self.0.model_path = Some(p.into());
        self
    }

    /// Metrics registry to bind the `serve/*` instruments into.
    pub fn registry(mut self, r: Arc<Registry>) -> Self {
        self.0.registry = r;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> io::Result<ServeConfig> {
        let c = self.0;
        if c.workers == 0 {
            return Err(bad_config("workers must be at least 1"));
        }
        if c.request_timeout.is_zero() {
            return Err(bad_config("request_timeout must be positive"));
        }
        if c.max_body_bytes == 0 || c.max_batch == 0 {
            return Err(bad_config("size limits must be at least 1"));
        }
        if c.queue_capacity == 0 {
            return Err(bad_config("queue_capacity must be at least 1"));
        }
        Ok(c)
    }
}

fn bad_config(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Per-worker reusable buffers: warm once, then framing a reply
/// allocates nothing.
#[derive(Default)]
pub struct ServeScratch {
    read_buf: Vec<u8>,
    body_out: String,
    /// The whole reply, head and body, as it leaves in one send.
    reply: Vec<u8>,
    ids: Vec<i64>,
}

/// The `serve/*` instruments, resolved once at startup.
struct ServeMetrics {
    registry: Arc<Registry>,
    requests: bellwether_obs::Counter,
    batches: bellwether_obs::Counter,
    predictions: bellwether_obs::Counter,
    errors: bellwether_obs::Counter,
    connections: bellwether_obs::Counter,
    rejected_busy: bellwether_obs::Counter,
    reloads: bellwether_obs::Counter,
    queue_depth: bellwether_obs::Gauge,
    uptime_seconds: bellwether_obs::Gauge,
    /// Instantaneous queued-connection count backing the gauge. Signed:
    /// a worker's pop can race ahead of the acceptor's push, so the
    /// count may dip below zero transiently.
    queued: AtomicI64,
    latency: LatencyHistogram,
    started: Instant,
}

impl ServeMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        ServeMetrics {
            requests: registry.counter(names::SERVE_REQUESTS),
            batches: registry.counter(names::SERVE_BATCHES),
            predictions: registry.counter(names::SERVE_PREDICTIONS),
            errors: registry.counter(names::SERVE_ERRORS),
            connections: registry.counter(names::SERVE_CONNECTIONS),
            rejected_busy: registry.counter(names::SERVE_REJECTED_BUSY),
            reloads: registry.counter(names::SERVE_RELOADS),
            queue_depth: registry.gauge(names::SERVE_QUEUE_DEPTH),
            uptime_seconds: registry.gauge(names::SERVE_UPTIME_SECONDS),
            queued: AtomicI64::new(0),
            latency: LatencyHistogram::new(),
            started: Instant::now(),
            registry,
        }
    }

    fn queue_push(&self) {
        let d = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
        self.queue_depth.set(d.max(0) as f64);
    }

    fn queue_pop(&self) {
        let d = self.queued.fetch_sub(1, Ordering::SeqCst) - 1;
        self.queue_depth.set(d.max(0) as f64);
    }
}

/// The swappable model slot all workers resolve per request: reads are
/// one `RwLock` read plus an `Arc` clone, swaps are one pointer
/// exchange. In-flight batches keep the snapshot they started with.
struct ModelSlot(RwLock<Arc<BellwetherModel>>);

impl ModelSlot {
    fn current(&self) -> Arc<BellwetherModel> {
        Arc::clone(&self.0.read().expect("model slot poisoned"))
    }

    fn swap(&self, model: Arc<BellwetherModel>) {
        *self.0.write().expect("model slot poisoned") = model;
    }
}

/// The prediction server: binds, spawns the pool, hands back a
/// [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `model`.
    pub fn bind(
        addr: &str,
        model: Arc<BellwetherModel>,
        config: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServeMetrics::new(config.registry.clone()));
        let slot = Arc::new(ModelSlot(RwLock::new(model)));

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let rx = Arc::clone(&rx);
            let slot = Arc::clone(&slot);
            let metrics = Arc::clone(&metrics);
            let config = config.clone();
            let shutdown = Arc::clone(&shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bw-serve-{i}"))
                    .spawn(move || worker_loop(&rx, &slot, &config, &metrics, &shutdown))?,
            );
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            let timeout = config.request_timeout;
            std::thread::Builder::new()
                .name("bw-serve-accept".into())
                .spawn(move || accept_loop(listener, tx, &metrics, timeout, &shutdown))?
        };

        Ok(ServerHandle {
            addr: local_addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            registry: config.registry,
            slot,
        })
    }
}

/// Handle to a running server: address, registry, graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
    slot: Arc<ModelSlot>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the server reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Swap the served model in-process; the next request sees it.
    /// Counted under `serve/reloads` alongside HTTP-triggered reloads,
    /// so a dashboard sees drift-driven swaps too.
    pub fn swap_model(&self, model: Arc<BellwetherModel>) {
        self.slot.swap(model);
        self.registry.counter(names::SERVE_RELOADS).inc();
    }

    /// The currently served model snapshot.
    pub fn model(&self) -> Arc<BellwetherModel> {
        self.slot.current()
    }

    /// Stop accepting, let in-flight requests finish, join every
    /// thread. Idempotent via `Drop` — calling this is just the
    /// deterministic way.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's blocking accept() with a no-op connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // The acceptor owned the only sender; once it exits, workers'
        // recv() errors out and they finish their current connections.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<TcpStream>,
    metrics: &ServeMetrics,
    timeout: Duration,
    shutdown: &AtomicBool,
) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connect, or a late client
        }
        metrics.connections.inc();
        let _ = conn.set_read_timeout(Some(timeout));
        let _ = conn.set_nodelay(true);
        match tx.try_send(conn) {
            Ok(()) => metrics.queue_push(),
            Err(TrySendError::Full(mut conn)) => {
                // Shed load at the door: a fast 503 beats an unbounded
                // backlog, and the acceptor never blocks.
                metrics.rejected_busy.inc();
                let _ = write_response(
                    &mut conn,
                    503,
                    "Service Unavailable",
                    "{\"error\":\"server busy, retry later\"}",
                    true,
                );
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    slot: &ModelSlot,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    shutdown: &AtomicBool,
) {
    let mut scratch = ServeScratch::default();
    loop {
        let conn = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            match guard.recv() {
                Ok(c) => c,
                Err(_) => return, // acceptor gone: shutdown
            }
        };
        metrics.queue_pop();
        handle_connection(conn, slot, config, metrics, shutdown, &mut scratch);
    }
}

fn handle_connection(
    conn: TcpStream,
    slot: &ModelSlot,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    shutdown: &AtomicBool,
    scratch: &mut ServeScratch,
) {
    // Requests borrow the read buffer while the rest of the scratch
    // builds their replies, so it is held apart for the connection.
    let mut buf = std::mem::take(&mut scratch.read_buf);
    buf.clear();
    serve_connection(conn, slot, config, metrics, shutdown, &mut buf, scratch);
    scratch.read_buf = buf;
}

fn serve_connection(
    mut conn: TcpStream,
    slot: &ModelSlot,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    shutdown: &AtomicBool,
    buf: &mut Vec<u8>,
    scratch: &mut ServeScratch,
) {
    loop {
        let outcome = match read_request(&mut conn, buf, config.max_body_bytes) {
            Ok(o) => o,
            Err(_) => {
                metrics.errors.inc();
                return;
            }
        };
        let request = match outcome {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut { started } => {
                if started {
                    metrics.errors.inc();
                    let _ = send_response(
                        &mut conn,
                        &mut scratch.reply,
                        408,
                        "Request Timeout",
                        "{\"error\":\"request timed out\"}",
                        true,
                    );
                }
                return;
            }
            ReadOutcome::Bad(msg) => {
                metrics.errors.inc();
                scratch.body_out.clear();
                scratch.body_out.push_str("{\"error\":\"");
                json::escape_into(&mut scratch.body_out, msg);
                scratch.body_out.push_str("\"}");
                let _ = send_response(
                    &mut conn,
                    &mut scratch.reply,
                    400,
                    "Bad Request",
                    &scratch.body_out,
                    true,
                );
                return;
            }
        };

        let started = Instant::now();
        metrics.requests.inc();
        // Resolve the model per request so reloads land between
        // requests, never inside a batch.
        let model = slot.current();
        let (status, reason) =
            dispatch(&request, buf, &model, slot, config, metrics, scratch);
        let close = request.close || shutdown.load(Ordering::SeqCst);
        if status >= 400 {
            metrics.errors.inc();
        }
        let ok = send_response(
            &mut conn,
            &mut scratch.reply,
            status,
            reason,
            &scratch.body_out,
            close,
        )
        .is_ok();
        // Keep only the pipelined bytes behind this request.
        buf.drain(..request.end());
        let elapsed = started.elapsed();
        metrics.latency.observe(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
        metrics
            .registry
            .record_span("serve/request", elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        if !ok || close {
            return;
        }
    }
}

/// Route one request, read out of `buf`; the response body lands in
/// `scratch.body_out`.
fn dispatch(
    request: &Request,
    buf: &[u8],
    model: &BellwetherModel,
    slot: &ModelSlot,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    scratch: &mut ServeScratch,
) -> (u16, &'static str) {
    let path = request.path(buf).split('?').next().unwrap_or("");
    match (request.method(buf), path) {
        ("POST", "/predict") => predict(request.body(buf), model, config, metrics, scratch),
        ("POST", "/reload") => reload(slot, config, metrics, scratch),
        ("GET" | "HEAD", "/health") => {
            scratch.body_out.clear();
            scratch.body_out.push_str("{\"status\":\"ok\",\"methods\":[");
            for (i, m) in model.methods().iter().enumerate() {
                if i > 0 {
                    scratch.body_out.push(',');
                }
                scratch.body_out.push('"');
                scratch.body_out.push_str(m.name());
                scratch.body_out.push('"');
            }
            scratch.body_out.push_str("]}");
            (200, "OK")
        }
        ("GET" | "HEAD", "/metrics") => {
            // Refresh the percentile gauges from the histogram, then
            // snapshot the whole registry.
            if let Some(p50) = metrics.latency.quantile(0.5) {
                metrics
                    .registry
                    .gauge(names::SERVE_LATENCY_P50_US)
                    .set(p50 as f64);
            }
            if let Some(p99) = metrics.latency.quantile(0.99) {
                metrics
                    .registry
                    .gauge(names::SERVE_LATENCY_P99_US)
                    .set(p99 as f64);
            }
            metrics
                .uptime_seconds
                .set(metrics.started.elapsed().as_secs_f64());
            scratch.body_out.clear();
            scratch.body_out.push_str(&metrics.registry.snapshot().to_json());
            (200, "OK")
        }
        (_, "/predict" | "/health" | "/metrics" | "/reload") => {
            scratch.body_out.clear();
            scratch
                .body_out
                .push_str("{\"error\":\"method not allowed\"}");
            (405, "Method Not Allowed")
        }
        _ => {
            scratch.body_out.clear();
            scratch.body_out.push_str("{\"error\":\"not found\"}");
            (404, "Not Found")
        }
    }
}

/// `POST /reload`: load the configured snapshot and swap it in. The old
/// model keeps serving on any failure.
fn reload(
    slot: &ModelSlot,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    scratch: &mut ServeScratch,
) -> (u16, &'static str) {
    scratch.body_out.clear();
    let Some(path) = &config.model_path else {
        scratch
            .body_out
            .push_str("{\"error\":\"no model_path configured\"}");
        return (409, "Conflict");
    };
    match BellwetherModel::load(path) {
        Ok(model) => {
            slot.swap(model);
            metrics.reloads.inc();
            let model = slot.current();
            scratch
                .body_out
                .push_str("{\"status\":\"reloaded\",\"methods\":[");
            for (i, m) in model.methods().iter().enumerate() {
                if i > 0 {
                    scratch.body_out.push(',');
                }
                scratch.body_out.push('"');
                scratch.body_out.push_str(m.name());
                scratch.body_out.push('"');
            }
            scratch.body_out.push_str("]}");
            (200, "OK")
        }
        Err(e) => {
            scratch.body_out.push_str("{\"error\":\"reload failed: ");
            json::escape_into(&mut scratch.body_out, &e.to_string());
            scratch.body_out.push_str("\"}");
            (500, "Internal Server Error")
        }
    }
}

fn predict(
    body: &[u8],
    model: &BellwetherModel,
    config: &ServeConfig,
    metrics: &ServeMetrics,
    scratch: &mut ServeScratch,
) -> (u16, &'static str) {
    scratch.body_out.clear();
    let bad = |scratch: &mut ServeScratch, msg: &str| -> (u16, &'static str) {
        scratch.body_out.clear();
        scratch.body_out.push_str("{\"error\":\"");
        json::escape_into(&mut scratch.body_out, msg);
        scratch.body_out.push_str("\"}");
        (400, "Bad Request")
    };

    let Ok(text) = std::str::from_utf8(body) else {
        return bad(scratch, "body is not utf-8");
    };
    let value = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return bad(scratch, &format!("invalid json: {e}")),
    };
    let Some(method_name) = value.get("method").and_then(json::Value::as_str) else {
        return bad(scratch, "missing \"method\"");
    };
    let Some(method) = MethodKind::parse(method_name) else {
        return bad(scratch, "unknown method (want basic, tree or cube)");
    };
    if !model.methods().contains(&method) {
        return bad(scratch, "method not installed in this model");
    }
    let Some(raw_ids) = value.get("ids").and_then(json::Value::as_arr) else {
        return bad(scratch, "missing \"ids\" array");
    };
    if raw_ids.len() > config.max_batch {
        return bad(scratch, "batch too large");
    }
    scratch.ids.clear();
    for v in raw_ids {
        match v.as_i64() {
            Some(id) => scratch.ids.push(id),
            None => return bad(scratch, "ids must be integers"),
        }
    }

    metrics.batches.inc();
    metrics.predictions.add(scratch.ids.len() as u64);
    scratch.body_out.push_str("{\"method\":\"");
    scratch.body_out.push_str(method.name());
    scratch.body_out.push_str("\",\"predictions\":[");
    for (i, &id) in scratch.ids.iter().enumerate() {
        if i > 0 {
            scratch.body_out.push(',');
        }
        match model.predict(method, id) {
            // Rust's shortest-round-trip float display, always typed as
            // a float; non-finite values have no JSON spelling, so they
            // answer null like an unknown id.
            Some(v) => bellwether_obs::json::number_into(&mut scratch.body_out, v),
            None => scratch.body_out.push_str("null"),
        }
    }
    scratch.body_out.push_str("],\"count\":");
    write!(scratch.body_out, "{}", scratch.ids.len()).expect("writing to a String cannot fail");
    scratch.body_out.push('}');
    (200, "OK")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellwether_core::report::BellwetherReport;
    use bellwether_core::{ItemTable, ModelBuilder};
    use bellwether_cube::RegionId;
    use bellwether_linreg::LinearModel;
    use bellwether_storage::{MemorySource, RegionBlock};
    use std::io::{BufRead, BufReader, Read as _, Write as _};

    /// A tiny basic-method model: 8 items with data in the bellwether
    /// region fitted by y = intercept + slope·x, plus item 99 known to
    /// the table but without region data (falls back to the intercept),
    /// plus unknown ids answering null.
    fn fixture_model_with(intercept: f64, slope: f64) -> Arc<BellwetherModel> {
        let ids: Vec<i64> = (1..=8).collect();
        let xs: Vec<f64> = ids.iter().map(|&i| i as f64).collect();
        let ones = vec![1.0; ids.len()];
        let targets: Vec<f64> = xs.iter().map(|&x| intercept + slope * x).collect();
        let block =
            RegionBlock::from_columns(vec![0], 2, ids.clone(), vec![ones, xs], targets);
        let src = MemorySource::new(vec![block]);
        let items =
            ItemTable::from_parts((1..=8).chain([99]).collect(), vec![], vec![]).unwrap();
        let report = BellwetherReport {
            region: RegionId(vec![0]),
            label: "[test]".into(),
            region_index: 0,
            score: 0.0,
            error: 0.0,
            error_bounds: None,
            model: LinearModel::new(vec![intercept, slope]),
            n_examples: ids.len(),
            skipped_regions: Vec::new(),
        };
        Arc::new(
            ModelBuilder::new(&src, items)
                .basic(report)
                .build()
                .unwrap(),
        )
    }

    fn fixture_model() -> Arc<BellwetherModel> {
        fixture_model_with(3.0, 2.0)
    }

    fn start(config: ServeConfig) -> ServerHandle {
        Server::bind("127.0.0.1:0", fixture_model(), config).unwrap()
    }

    fn quick_config() -> ServeConfig {
        ServeConfig::builder()
            .workers(2)
            .request_timeout(Duration::from_millis(500))
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap()
    }

    /// Send one request on `stream` and read back (status, body).
    fn roundtrip(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> (u16, String) {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).unwrap();
        read_response(stream)
    }

    fn read_response(stream: &mut TcpStream) -> (u16, String) {
        read_response_from(&mut BufReader::new(stream))
    }

    /// Read one response off `reader`, leaving any bytes after it there.
    fn read_response_from(reader: &mut impl BufRead) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .and_then(|v| v.parse().ok())
            {
                len = v;
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    fn connect(handle: &ServerHandle) -> TcpStream {
        TcpStream::connect(handle.local_addr()).unwrap()
    }

    #[test]
    fn predicts_over_a_real_socket() {
        let handle = start(quick_config());
        let mut conn = connect(&handle);
        let (status, body) = roundtrip(
            &mut conn,
            "POST",
            "/predict",
            r#"{"method":"basic","ids":[1,4,99,-5]}"#,
        );
        assert_eq!(status, 200, "{body}");
        // 3+2·1, 3+2·4, intercept-only for 99, null for unknown -5.
        assert_eq!(
            body,
            r#"{"method":"basic","predictions":[5.0,11.0,3.0,null],"count":4}"#
        );
        handle.shutdown();
    }

    /// `{}` never prints an exponent, so a prediction of 2e15 spells all
    /// sixteen digits; the reply still types it as a float.
    #[test]
    fn large_integral_predictions_stay_json_floats() {
        let model = fixture_model_with(2e15, 0.0);
        let handle = Server::bind("127.0.0.1:0", model, quick_config()).unwrap();
        let mut conn = connect(&handle);
        let request = r#"{"method":"basic","ids":[1]}"#;
        let (status, body) = roundtrip(&mut conn, "POST", "/predict", request);
        assert_eq!(status, 200, "{body}");
        let want = r#"{"method":"basic","predictions":[2000000000000000.0],"count":1}"#;
        assert_eq!(body, want);
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let handle = start(quick_config());
        let mut conn = connect(&handle);
        for i in 1..=8 {
            let (status, body) = roundtrip(
                &mut conn,
                "POST",
                "/predict",
                &format!(r#"{{"method":"basic","ids":[{i}]}}"#),
            );
            assert_eq!(status, 200);
            let want = 3.0 + 2.0 * i as f64;
            assert!(body.contains(&format!("[{want:.1}]")), "{body}");
        }
        handle.shutdown();
    }

    /// Two requests in one send on one keep-alive connection: the worker
    /// answers both, in order, each reply whole, and one reader that may
    /// buffer past the first reply finds the second intact.
    #[test]
    fn pipelined_requests_over_a_real_socket_answer_in_order() {
        let handle = start(quick_config());
        let mut conn = connect(&handle);
        let mut pipelined = String::new();
        for body in [
            r#"{"method":"basic","ids":[1,2,3]}"#,
            r#"{"method":"basic","ids":[4]}"#,
        ] {
            pipelined.push_str(&format!(
                "POST /predict HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        conn.write_all(pipelined.as_bytes()).unwrap();
        let mut reader = BufReader::new(&mut conn);
        let (status, body) = read_response_from(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body,
            r#"{"method":"basic","predictions":[5.0,7.0,9.0],"count":3}"#
        );
        let (status, body) = read_response_from(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, r#"{"method":"basic","predictions":[11.0],"count":1}"#);
        drop(reader);
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_CONNECTIONS), Some(1));
        assert_eq!(snap.counter(names::SERVE_REQUESTS), Some(2));
        handle.shutdown();
    }

    #[test]
    fn health_and_metrics_report() {
        let handle = start(quick_config());
        let mut conn = connect(&handle);
        let (status, body) = roundtrip(&mut conn, "GET", "/health", "");
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"status":"ok","methods":["basic"]}"#);

        roundtrip(&mut conn, "POST", "/predict", r#"{"method":"basic","ids":[1,2]}"#);
        let (status, body) = roundtrip(&mut conn, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_CONNECTIONS), Some(1));
        assert!(snap.counter(names::SERVE_REQUESTS).unwrap_or(0) >= 3);
        assert_eq!(snap.counter(names::SERVE_BATCHES), Some(1));
        assert_eq!(snap.counter(names::SERVE_PREDICTIONS), Some(2));
        assert!(body.contains("serve/requests"), "{body}");
        assert!(body.contains("serve/latency_p50_us"), "{body}");
        assert!(body.contains("serve/uptime_seconds"), "{body}");
        assert!(
            snap.gauge(names::SERVE_UPTIME_SECONDS).unwrap_or(-1.0) >= 0.0,
            "uptime gauge set on scrape"
        );
        handle.shutdown();
    }

    #[test]
    fn bad_requests_answer_400_and_count_errors() {
        let handle = start(quick_config());
        for (body, want) in [
            ("{", 400),
            (r#"{"ids":[1]}"#, 400),
            (r#"{"method":"nope","ids":[1]}"#, 400),
            (r#"{"method":"tree","ids":[1]}"#, 400), // not installed
            (r#"{"method":"basic"}"#, 400),
            (r#"{"method":"basic","ids":[1.5]}"#, 400),
        ] {
            let mut conn = connect(&handle);
            let (status, msg) = roundtrip(&mut conn, "POST", "/predict", body);
            assert_eq!(status, want, "{body} -> {msg}");
        }
        let mut conn = connect(&handle);
        assert_eq!(roundtrip(&mut conn, "GET", "/nope", "").0, 404);
        assert_eq!(roundtrip(&mut conn, "DELETE", "/predict", "").0, 405);
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_ERRORS), Some(8));
        handle.shutdown();
    }

    #[test]
    fn oversized_batch_is_rejected() {
        let config = ServeConfig::builder()
            .workers(1)
            .max_batch(4)
            .request_timeout(Duration::from_millis(500))
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = start(config);
        let mut conn = connect(&handle);
        let (status, body) = roundtrip(
            &mut conn,
            "POST",
            "/predict",
            r#"{"method":"basic","ids":[1,2,3,4,5]}"#,
        );
        assert_eq!(status, 400);
        assert!(body.contains("batch too large"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let config = ServeConfig::builder()
            .workers(4)
            .request_timeout(Duration::from_secs(2))
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = start(config);
        let addr = handle.local_addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    for _ in 0..20 {
                        let (status, body) = roundtrip(
                            &mut conn,
                            "POST",
                            "/predict",
                            r#"{"method":"basic","ids":[1,2,3]}"#,
                        );
                        assert_eq!(status, 200, "{body}");
                        assert!(body.contains("[5.0,7.0,9.0]"), "{body}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_REQUESTS), Some(80));
        assert_eq!(snap.counter(names::SERVE_PREDICTIONS), Some(240));
        handle.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let handle = start(quick_config());
        let addr = handle.local_addr();
        let mut conn = connect(&handle);
        let (status, _) = roundtrip(&mut conn, "GET", "/health", "");
        assert_eq!(status, 200);
        handle.shutdown();
        // The listener is gone: new connections fail or are reset on use.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut c) => {
                let alive = c
                    .write_all(b"GET /health HTTP/1.1\r\n\r\n")
                    .and_then(|()| {
                        let mut buf = [0u8; 1];
                        c.read_exact(&mut buf)
                    })
                    .is_ok();
                assert!(!alive, "server still answering after shutdown");
            }
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert!(ServeConfig::builder().workers(0).build().is_err());
        assert!(ServeConfig::builder().max_batch(0).build().is_err());
        assert!(ServeConfig::builder().queue_capacity(0).build().is_err());
        assert!(ServeConfig::builder()
            .request_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServeConfig::builder().build().is_ok());
    }

    #[test]
    fn reload_swaps_the_snapshot_without_restarting() {
        let dir = std::env::temp_dir().join("bw_serve_reload");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bwsn");
        fixture_model().save(&path).unwrap();
        let config = ServeConfig::builder()
            .workers(2)
            .request_timeout(Duration::from_millis(500))
            .model_path(&path)
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = Server::bind("127.0.0.1:0", fixture_model(), config).unwrap();
        let mut conn = connect(&handle);
        let (status, body) =
            roundtrip(&mut conn, "POST", "/predict", r#"{"method":"basic","ids":[1]}"#);
        assert_eq!(status, 200);
        assert!(body.contains("[5.0]"), "{body}");

        // Publish a new snapshot (y = 1 + x) and reload — the same
        // keep-alive connection sees the new coefficients.
        fixture_model_with(1.0, 1.0).save(&path).unwrap();
        let (status, body) = roundtrip(&mut conn, "POST", "/reload", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("reloaded"), "{body}");
        let (status, body) =
            roundtrip(&mut conn, "POST", "/predict", r#"{"method":"basic","ids":[1]}"#);
        assert_eq!(status, 200);
        assert!(body.contains("[2.0]"), "{body}");

        // In-process swap through the handle works too.
        handle.swap_model(fixture_model());
        let (status, body) =
            roundtrip(&mut conn, "POST", "/predict", r#"{"method":"basic","ids":[1]}"#);
        assert_eq!(status, 200);
        assert!(body.contains("[5.0]"), "{body}");

        // Both the HTTP reload and the in-process swap are counted.
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_RELOADS), Some(2));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_without_model_path_answers_409() {
        let handle = start(quick_config());
        let mut conn = connect(&handle);
        let (status, body) = roundtrip(&mut conn, "POST", "/reload", "");
        assert_eq!(status, 409, "{body}");
        assert!(body.contains("no model_path"), "{body}");
        handle.shutdown();
    }

    #[test]
    fn failed_reload_keeps_the_old_model_serving() {
        let dir = std::env::temp_dir().join("bw_serve_reload_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bwsn");
        std::fs::write(&path, b"not a snapshot").unwrap();
        let config = ServeConfig::builder()
            .workers(1)
            .request_timeout(Duration::from_millis(500))
            .model_path(&path)
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = Server::bind("127.0.0.1:0", fixture_model(), config).unwrap();
        let mut conn = connect(&handle);
        let (status, _) = roundtrip(&mut conn, "POST", "/reload", "");
        assert_eq!(status, 500);
        let (status, body) =
            roundtrip(&mut conn, "POST", "/predict", r#"{"method":"basic","ids":[1]}"#);
        assert_eq!(status, 200);
        assert!(body.contains("[5.0]"), "{body}");
        assert_eq!(
            handle.registry().snapshot().counter(names::SERVE_RELOADS),
            Some(0)
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot whose cube confidence is out of range would panic every
    /// cube request's worker once served; its reload fails instead, and
    /// the old model keeps serving.
    #[test]
    fn reload_refuses_a_cube_confidence_outside_the_unit_interval() {
        use bellwether_core::BellwetherCube;
        use bellwether_cube::{Dimension, Hierarchy, RegionSpace};
        use bellwether_storage::{SnapshotFile, SnapshotWriter};
        let dir = std::env::temp_dir().join("bw_serve_reload_confidence");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bwsn");
        let ids: Vec<i64> = (1..=8).collect();
        let block = RegionBlock::from_columns(
            vec![0],
            2,
            ids.clone(),
            vec![vec![1.0; 8], vec![0.0; 8]],
            vec![0.0; 8],
        );
        let src = MemorySource::new(vec![block]);
        let cube = BellwetherCube {
            item_space: RegionSpace::new(vec![Dimension::Hierarchy(Hierarchy::flat("G", "Any", &["g"]))]),
            item_coords: ids.iter().map(|&id| (id, vec![1])).collect(),
            cells: Default::default(),
            skipped_regions: Vec::new(),
        };
        let items = ItemTable::from_parts(ids, vec![], vec![]).unwrap();
        let with_cube = ModelBuilder::new(&src, items).cube(cube, 0.95).build().unwrap();
        with_cube.save(&path).unwrap();
        // Re-seal the cube section, the one that opens with the
        // confidence, around 1.5.
        let snap = SnapshotFile::read(&path).unwrap();
        let mut w = SnapshotWriter::create(&path).unwrap();
        let mut resealed = 0;
        for sec in &snap.sections {
            let mut payload = sec.payload.clone();
            if payload.starts_with(&0.95f64.to_le_bytes()) {
                payload[..8].copy_from_slice(&1.5f64.to_le_bytes());
                resealed += 1;
            }
            w.write_section(sec.kind, &payload).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(resealed, 1);

        let config = ServeConfig::builder()
            .workers(1)
            .request_timeout(Duration::from_millis(500))
            .model_path(&path)
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = Server::bind("127.0.0.1:0", fixture_model(), config).unwrap();
        let mut conn = connect(&handle);
        let (status, body) = roundtrip(&mut conn, "POST", "/reload", "");
        assert_eq!(status, 500, "{body}");
        let (status, body) =
            roundtrip(&mut conn, "POST", "/predict", r#"{"method":"basic","ids":[1]}"#);
        assert_eq!(status, 200);
        assert!(body.contains("[5.0]"), "{body}");
        assert_eq!(
            handle.registry().snapshot().counter(names::SERVE_RELOADS),
            Some(0)
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot re-sealed to claim a feature arity its stored block
    /// does not have would answer truncated dot products once served;
    /// its reload fails instead, and the old model keeps serving.
    #[test]
    fn reload_refuses_a_snapshot_whose_blocks_do_not_match_its_arity() {
        use bellwether_core::model::MODEL_VERSION;
        use bellwether_storage::{SnapshotFile, SnapshotWriter};
        let dir = std::env::temp_dir().join("bw_serve_reload_arity");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bwsn");
        fixture_model_with(1.0, 1.0).save(&path).unwrap();
        // The header section is the model version, then the arity (2).
        let snap = SnapshotFile::read(&path).unwrap();
        let mut w = SnapshotWriter::create(&path).unwrap();
        let mut resealed = 0;
        for sec in &snap.sections {
            let mut payload = sec.payload.clone();
            if payload.len() == 12 && payload.starts_with(&MODEL_VERSION.to_le_bytes()) {
                payload[4..].copy_from_slice(&3u64.to_le_bytes());
                resealed += 1;
            }
            w.write_section(sec.kind, &payload).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(resealed, 1);

        let config = ServeConfig::builder()
            .workers(1)
            .request_timeout(Duration::from_millis(500))
            .model_path(&path)
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = Server::bind("127.0.0.1:0", fixture_model(), config).unwrap();
        let mut conn = connect(&handle);
        let (status, body) = roundtrip(&mut conn, "POST", "/reload", "");
        assert_eq!(status, 500, "{body}");
        let request = r#"{"method":"basic","ids":[1]}"#;
        let (status, body) = roundtrip(&mut conn, "POST", "/predict", request);
        assert_eq!(status, 200);
        assert!(body.contains("[5.0]"), "{body}");
        assert_eq!(
            handle.registry().snapshot().counter(names::SERVE_RELOADS),
            Some(0)
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overloaded_server_answers_503_instead_of_queueing() {
        let config = ServeConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .request_timeout(Duration::from_millis(800))
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = start(config);

        // Park the only worker: a half-written request holds it in
        // read() until the request timeout.
        let mut parked = connect(&handle);
        parked
            .write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 5\r\n\r\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(150));

        // Fill the one queue slot; this connection just waits.
        let mut queued = connect(&handle);
        std::thread::sleep(Duration::from_millis(100));

        // The next connection must be shed with a 503 by the acceptor.
        let mut shed = connect(&handle);
        let (status, body) = read_response(&mut shed);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("busy"), "{body}");

        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_REJECTED_BUSY), Some(1));
        assert!(snap.gauge(names::SERVE_QUEUE_DEPTH).unwrap_or(0.0) >= 1.0);

        // Un-park the worker; the queued connection still gets served.
        parked.write_all(b"xxxxx").unwrap();
        let (status, body) = roundtrip(&mut queued, "GET", "/health", "");
        assert_eq!(status, 200, "{body}");
        handle.shutdown();
    }

    /// End-to-end drift wiring: a [`StreamingBellwether`] feeds the
    /// server — every argmin flip rebuilds the model from the live
    /// search state and hot-swaps it into the slot, counted under
    /// `serve/reloads` exactly like HTTP-triggered reloads.
    #[test]
    fn drift_events_hot_swap_the_served_model() {
        use bellwether_core::StreamingBellwether;
        use bellwether_cube::{Parallelism, UniformCellCost};
        use bellwether_datagen::{build_stream_workload, StreamConfig};

        let cfg = StreamConfig::default();
        let wl = build_stream_workload(&cfg);
        let dir = std::env::temp_dir().join("bw_serve_stream_test");
        std::fs::remove_dir_all(&dir).ok();
        let search_config = bellwether_core::BellwetherConfig::builder(f64::INFINITY)
            .min_coverage(0.0)
            .min_examples(10)
            .error_measure(bellwether_core::ErrorMeasure::TrainingSet)
            .parallelism(Parallelism::fixed(1))
            .build()
            .unwrap();
        let mut engine = StreamingBellwether::create(
            &dir,
            &wl.region_space,
            &wl.input_range(0, 1),
            &wl.item_universe(),
            wl.items.clone(),
            wl.target_map(),
            wl.regions.clone(),
            Arc::new(UniformCellCost { rate: 1.0 }),
            search_config,
            wl.items.len(),
            2,
            1 << 20,
        )
        .unwrap();

        let build_model = |engine: &StreamingBellwether| {
            let report = engine.search_result().report().expect("bellwether");
            Arc::new(
                ModelBuilder::new(engine.source(), wl.items.clone())
                    .basic(report)
                    .build()
                    .unwrap(),
            )
        };

        let handle =
            Server::bind("127.0.0.1:0", build_model(&engine), quick_config()).unwrap();
        let before = handle.model();
        let mut swaps = 0u64;
        for week in 1..cfg.weeks {
            let outcome = engine.append(&wl.input_range(week, week + 1)).unwrap();
            if outcome.drift.is_some() {
                handle.swap_model(build_model(&engine));
                swaps += 1;
            }
        }
        assert!(swaps >= 1, "planted drift must trigger a swap");
        assert!(
            !Arc::ptr_eq(&before, &handle.model()),
            "slot must serve the post-drift snapshot"
        );
        // The served model now predicts from the late bellwether.
        let mut conn = connect(&handle);
        let (status, body) = roundtrip(&mut conn, "POST", "/predict", r#"{"method":"basic","ids":[0]}"#);
        assert_eq!(status, 200, "{body}");
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_RELOADS), Some(swaps));
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idle_keep_alive_timeout_closes_without_error() {
        let config = ServeConfig::builder()
            .workers(1)
            .request_timeout(Duration::from_millis(50))
            .registry(Arc::new(Registry::default()))
            .build()
            .unwrap();
        let handle = start(config);
        let mut conn = connect(&handle);
        let (status, _) = roundtrip(&mut conn, "GET", "/health", "");
        assert_eq!(status, 200);
        // Stay idle past the timeout: the server closes the connection
        // without recording an error.
        std::thread::sleep(Duration::from_millis(150));
        let mut buf = [0u8; 16];
        assert_eq!(conn.read(&mut buf).unwrap_or(0), 0);
        let snap = handle.registry().snapshot();
        assert_eq!(snap.counter(names::SERVE_ERRORS).unwrap_or(0), 0);
        handle.shutdown();
    }
}
