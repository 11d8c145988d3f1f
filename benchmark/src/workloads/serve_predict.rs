//! `serve_predict`: the request path of the prediction server.
//!
//! Training happens in set-up; the timed part is accept / HTTP parse /
//! JSON parse / `predict_batch` / serialize / kernel. The server runs in
//! a child process with 2 workers and loads the snapshot by path; the
//! load is a **closed loop of 2 keep-alive connections** from this
//! process (callers are batch scoring jobs that each wait for their
//! reply). A run starts 8 servers one after another; on each, three
//! phases share an eighth of the window: `single` (batch = 1, methods
//! round-robin) is per-request overhead, `batch` (batch = 64) is
//! per-prediction cost, `churn` (`Connection: close`, one request per
//! connection) is the accept path; one `POST /reload` sits between
//! `single` and `batch`, and replies are checked across it.

use super::{finish_trace, rounds};
use crate::rss;
use crate::run::Run;
use crate::stats;
use crate::trace::Tracer;
use bellwether_core::{
    basic_search, build_cube_input, build_memory_source, build_rainforest, build_single_scan_cube,
    global_target, BellwetherConfig, BellwetherModel, CubeConfig, ErrorMeasure, MethodKind,
    ModelBuilder, TreeConfig,
};
use bellwether_cube::{cube_pass_with, CostModel, Parallelism, RegionId};
use bellwether_datagen::{generate_retail, RetailConfig};
use bellwether_obs::Registry;
use bellwether_serve::{http, json, ServeConfig, Server};
use bellwether_table::ops::AggFunc;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SERVE_CHILD_FLAG: &str = "--serve-child";
/// Acquisition budget of the served model's training, as in
/// `examples/serving.rs`.
const BUDGET: f64 = 25.0;
const METHODS: [MethodKind; 3] = [MethodKind::Basic, MethodKind::Tree, MethodKind::Cube];
/// Replies per connection and phase compared with in-process
/// `predict_batch`, value by value.
const EXACT_REPLIES: usize = 1000;
/// Consecutive round trips of one connection whose median is one sample
/// of the operation: ~20 ms of traffic, short enough that many blocks
/// pass without a neighbour of the box slowing them.
const BLOCK: usize = 1000;
/// `nproc` is 2 on the bench box: the server child runs 2 workers and
/// the load is 2 client connections, each on a thread of this process.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Servers per run, one a round: the window is shared among them.
const ROUNDS: u32 = 8;

/// `benchmark --serve-child <snapshot>`: serve the snapshot on an
/// ephemeral port, print the port, run until stdin closes.
pub fn serve_child(snapshot: &Path) -> ! {
    let model = BellwetherModel::load(snapshot).expect("server child: load snapshot");
    let config = ServeConfig::builder()
        .workers(WORKERS)
        .model_path(snapshot)
        .registry(Registry::shared())
        .build()
        .expect("server child: config");
    let handle = Server::bind("127.0.0.1:0", model, config).expect("server child: bind");
    println!("{}", handle.local_addr().port());
    std::io::stdout().flush().ok();
    let mut sink = Vec::new();
    std::io::stdin().read_to_end(&mut sink).ok();
    handle.shutdown();
    std::process::exit(0);
}

/// Train basic + tree + cube on the mail-order data and snapshot them.
/// Single-threaded: training is not what this workload measures, and the
/// 2-thread kernels are the noisiest code on the shared box, which would
/// make `setup_s` the least steady number here.
fn train_and_save(run: &Run, snapshot: &Path) -> Vec<i64> {
    let par = Parallelism::sequential();
    let cfg = RetailConfig::mail_order_heterogeneous(run.sized(200, 80), run.seed);
    let data = generate_retail(&cfg);
    let targets = global_target(&data.db, "profit", AggFunc::Sum).expect("target query");
    let input = build_cube_input(&data.db, &data.space, &data.feature_queries).expect("cube input");
    let cube = cube_pass_with(&data.space, &input, par, None);
    // Only affordable regions: the whole-period, whole-area region holds
    // the target itself and would win vacuously (and leave the tree
    // nothing to split on for some seeds and not others).
    let config = BellwetherConfig::builder(BUDGET)
        .min_coverage(0.0)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .parallelism(par)
        .build()
        .expect("a valid search config");
    let affordable: Vec<RegionId> = data
        .space
        .all_regions()
        .into_iter()
        .filter(|r| CostModel::cost(&data.cost, &data.space, r) <= BUDGET)
        .collect();
    let source = build_memory_source(&cube, &affordable, &data.items, &targets);
    let search = basic_search(&source, &data.space, &data.cost, &config, data.items.len())
        .expect("basic search");
    let tree = build_rainforest(
        &source,
        &data.space,
        &data.items,
        None,
        &config,
        &TreeConfig {
            max_depth: 2,
            min_node_items: 30,
            ..TreeConfig::default()
        },
    )
    .expect("rainforest");
    let subsets = build_single_scan_cube(
        &source,
        &data.space,
        &data.item_space,
        &data.item_coords,
        &config,
        &CubeConfig {
            min_subset_size: 20,
        },
    )
    .expect("single-scan cube");
    let ids = data.items.ids().to_vec();
    ModelBuilder::new(&source, data.items)
        .basic(search.report().expect("a bellwether region exists"))
        .tree(tree)
        .cube(subsets, 0.95)
        .build()
        .expect("model build")
        .save(snapshot)
        .expect("snapshot save");
    ids
}

struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    /// Spawn the server and wait until it answers `/health`.
    fn start(snapshot: &Path) -> ServerChild {
        let mut child = Command::new(std::env::current_exe().expect("own binary"))
            .arg(SERVE_CHILD_FLAG)
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server child");
        let mut port = String::new();
        BufReader::new(child.stdout.take().expect("child stdout"))
            .read_line(&mut port)
            .expect("read the server's port");
        let port: u16 = port
            .trim()
            .parse()
            .expect("the server child prints its port");
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut conn = Conn::open(addr).expect("connect to the server child");
        let (status, _) = conn.request("GET", "/health").expect("health check");
        assert_eq!(status, 200, "server child is not healthy");
        ServerChild { child, addr }
    }

    fn peak_rss_mib(&self) -> f64 {
        rss::peak_mib_of(&self.child.id().to_string())
    }

    /// Close the child's stdin, which asks it to shut down, and wait.
    fn stop(&mut self) -> bool {
        drop(self.child.stdin.take());
        self.child.wait().is_ok_and(|s| s.success())
    }
}

impl Drop for ServerChild {
    /// No server outlives its handle, on a panic either.
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

/// One client connection: write a request, read exactly one response.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send `request`; return the status and the body's range in `buf`.
    fn round_trip(&mut self, request: &[u8]) -> std::io::Result<(u16, std::ops::Range<usize>)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed inside a response head")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not utf-8"))?;
        let status: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        let body = head_end + 4..head_end + 4 + len;
        while self.buf.len() < body.end {
            match self.stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed inside a response body")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        Ok((status, body))
    }

    fn request(&mut self, method: &str, path: &str) -> std::io::Result<(u16, String)> {
        let req = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\n\r\n");
        let (status, body) = self.round_trip(req.as_bytes())?;
        Ok((
            status,
            String::from_utf8_lossy(&self.buf[body]).into_owned(),
        ))
    }
}

/// A prebuilt `POST /predict` with the reply the model must give.
struct Prepared {
    bytes: Vec<u8>,
    /// The JSON body inside `bytes`.
    body: String,
    expect: Vec<Option<f64>>,
    /// The reply's last bytes: `"count":<batch>}`.
    tail: Vec<u8>,
}

fn prepare(reference: &BellwetherModel, ids: &[i64], batch: usize, close: bool) -> Vec<Prepared> {
    // Enough distinct requests that every method meets every item.
    let n = (ids.len() * METHODS.len())
        .div_ceil(batch)
        .max(METHODS.len());
    (0..n)
        .map(|k| {
            let method = METHODS[k % METHODS.len()];
            let chosen: Vec<i64> = (0..batch)
                .map(|j| ids[(k * batch + j) % ids.len()])
                .collect();
            let list: Vec<String> = chosen.iter().map(i64::to_string).collect();
            let body = format!(
                "{{\"method\":\"{}\",\"ids\":[{}]}}",
                method.name(),
                list.join(",")
            );
            let bytes = format!(
                "POST /predict HTTP/1.1\r\nhost: bench\r\n{}content-length: {}\r\n\r\n{body}",
                if close { "connection: close\r\n" } else { "" },
                body.len()
            )
            .into_bytes();
            Prepared {
                bytes,
                body,
                expect: reference.predict_batch(method, &chosen),
                tail: format!("\"count\":{batch}}}").into_bytes(),
            }
        })
        .collect()
}

/// The reply's predictions equal `expect` bit for bit.
fn reply_matches(body: &[u8], expect: &[Option<f64>]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Ok(doc) = json::parse(text) else {
        return false;
    };
    let Some(got) = doc.get("predictions").and_then(json::Value::as_arr) else {
        return false;
    };
    got.len() == expect.len()
        && got.iter().zip(expect).all(|(g, e)| match (g, e) {
            (json::Value::Num(g), Some(e)) => g.to_bits() == e.to_bits(),
            (json::Value::Null, None) => true,
            _ => false,
        })
}

#[derive(Default)]
struct PhaseTally {
    rtt_us: Vec<f64>,
    /// The median of each [`BLOCK`] of consecutive round trips.
    block_p50_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

impl PhaseTally {
    /// Add another round's tally of the same phase.
    fn absorb(&mut self, other: PhaseTally) {
        self.rtt_us.extend(other.rtt_us);
        self.block_p50_us.extend(other.block_p50_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
    }
}

/// One client thread's share of a phase: requests back to back until
/// the deadline, each reply checked.
fn client(
    addr: SocketAddr,
    requests: &[Prepared],
    offset: usize,
    churn: bool,
    deadline: Instant,
) -> PhaseTally {
    let mut tally = PhaseTally::default();
    let started = Instant::now();
    let mut keep_alive = (!churn).then(|| Conn::open(addr).expect("connect"));
    let mut k = offset;
    loop {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        let req = &requests[k % requests.len()];
        k += 1;
        let mut fresh = None;
        let conn = match keep_alive.as_mut() {
            Some(conn) => Ok(conn),
            None => Conn::open(addr).map(|c| fresh.insert(c)),
        };
        let reply = conn.and_then(|c| {
            let (status, body) = c.round_trip(&req.bytes)?;
            Ok((status, &c.buf[body]))
        });
        let rtt = sent.elapsed();
        tally.attempted += 1;
        let ok = matches!(reply, Ok((200, body)) if body.ends_with(&req.tail)
            && (tally.attempted as usize > EXACT_REPLIES || reply_matches(body, &req.expect)));
        if ok {
            tally.rtt_us.push(rtt.as_secs_f64() * 1e6);
        } else {
            tally.failed += 1;
        }
    }
    tally.wall_s = started.elapsed().as_secs_f64();
    tally
}

/// Run one phase on [`CONNECTIONS`] client threads for `seconds`.
fn phase(addr: SocketAddr, requests: &[Prepared], churn: bool, seconds: f64) -> PhaseTally {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut all = PhaseTally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    client(
                        addr,
                        requests,
                        c * requests.len() / CONNECTIONS,
                        churn,
                        deadline,
                    )
                })
            })
            .collect();
        for h in handles {
            let part = h.join().expect("client thread");
            all.block_p50_us
                .extend(part.rtt_us.chunks_exact(BLOCK).map(stats::median));
            all.rtt_us.extend(part.rtt_us);
            all.attempted += part.attempted;
            all.failed += part.failed;
            all.wall_s = all.wall_s.max(part.wall_s);
        }
    });
    all
}

/// Mean microseconds of `f` over enough calls to fill ~50 ms.
fn micro_us(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 100 || started.elapsed() < Duration::from_millis(50) {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// The request path piece by piece, on in-memory buffers holding the
/// exact phase payloads, and the model's own predict time.
fn request_path_probes(
    run: &mut Run,
    reference: &BellwetherModel,
    single: &[Prepared],
    batch: &[Prepared],
) {
    let mut k = 0usize;
    let mut scratch = Vec::new();
    run.set(
        "serve.http_read_us",
        micro_us(|| {
            k += 1;
            scratch.clear();
            let mut cursor = std::io::Cursor::new(&single[k % single.len()].bytes);
            std::hint::black_box(http::read_request(&mut cursor, &mut scratch, 1 << 20).ok());
        }),
    );
    run.set(
        "serve.json_parse_us",
        micro_us(|| {
            k += 1;
            std::hint::black_box(json::parse(&single[k % single.len()].body).ok());
        }),
    );
    run.set(
        "serve.json_parse_b64_us",
        micro_us(|| {
            k += 1;
            std::hint::black_box(json::parse(&batch[k % batch.len()].body).ok());
        }),
    );
    let reply = "{\"method\":\"basic\",\"predictions\":[12345.678901234],\"count\":1}";
    let mut out = Vec::with_capacity(256);
    run.set(
        "serve.http_write_us",
        micro_us(|| {
            out.clear();
            http::write_response(&mut out, 200, "OK", reply, false).ok();
            std::hint::black_box(&out);
        }),
    );
    let ids = reference.items().ids().to_vec();
    for (metric, method) in [
        ("model.predict_basic_ns", MethodKind::Basic),
        ("model.predict_tree_ns", MethodKind::Tree),
        ("model.predict_cube_ns", MethodKind::Cube),
    ] {
        let per_batch_us = micro_us(|| {
            std::hint::black_box(reference.predict_batch(method, &ids));
        });
        run.set(metric, per_batch_us * 1e3 / ids.len() as f64);
    }
}

pub fn run(run: &mut Run, t: &mut Tracer) {
    let snapshot = run.dir.join("model.bwsn");
    let window = if run.trace {
        run.seconds * 0.9
    } else {
        run.seconds
    };
    let share = window / f64::from(ROUNDS);
    let (mut single, mut batch, mut churn) = (
        PhaseTally::default(),
        PhaseTally::default(),
        PhaseTally::default(),
    );
    let (mut reload_ms, mut server_rss, mut load_s) = (Vec::new(), 0.0f64, 0.0);
    let (mut metrics, mut probes) = (None, None);
    // One round is one server: trained, snapshotted and started in
    // set-up, then the three phases for its share of the window.
    let measured = rounds(
        run,
        t,
        window,
        ROUNDS,
        false,
        |run, t| {
            let ids = train_and_save(run, &snapshot);
            let server = t.span("serve.startup", |_| ServerChild::start(&snapshot));
            (ids, server)
        },
        |run, t, (ids, server)| {
            let batch_size = run.sized(64, 16);
            let (reference, single_reqs, batch_reqs, churn_reqs) = t.span("serve.prepare", |_| {
                let loading = Instant::now();
                let reference: Arc<BellwetherModel> =
                    BellwetherModel::load(&snapshot).expect("load the served snapshot in process");
                load_s = loading.elapsed().as_secs_f64();
                let single_reqs = prepare(&reference, ids, 1, false);
                let batch_reqs = prepare(&reference, ids, batch_size, false);
                let churn_reqs = prepare(&reference, ids, 1, true);
                // Warm the server's workers and this process's client path.
                phase(server.addr, &single_reqs, false, 0.1);
                (reference, single_reqs, batch_reqs, churn_reqs)
            });
            single.absorb(t.span("serve.single", |_| {
                phase(server.addr, &single_reqs, false, share * 0.5)
            }));
            reload_ms.push(t.span("serve.reload", |_| {
                let started = Instant::now();
                let reply = Conn::open(server.addr).and_then(|mut c| c.request("POST", "/reload"));
                run.op(matches!(reply, Ok((200, _))), || {
                    format!("POST /reload answered {reply:?}")
                });
                started.elapsed().as_secs_f64() * 1e3
            }));
            batch.absorb(t.span("serve.batch", |_| {
                phase(server.addr, &batch_reqs, false, share * 0.3)
            }));
            churn.absorb(t.span("serve.churn", |_| {
                phase(server.addr, &churn_reqs, true, share * 0.2)
            }));
            let reply = Conn::open(server.addr).and_then(|mut c| c.request("GET", "/metrics"));
            run.op(matches!(reply, Ok((200, _))), || {
                "GET /metrics failed".into()
            });
            metrics = reply.ok();
            server_rss = server_rss.max(server.peak_rss_mib());
            let stopped = server.stop();
            run.op(stopped, || "server child did not exit cleanly".into());
            probes = Some((reference, single_reqs, batch_reqs));
        },
    );
    let (ids, _) = measured.last;
    let (reference, single_reqs, batch_reqs) = probes.expect("at least one round ran");
    single.rtt_us = stats::sorted(std::mem::take(&mut single.rtt_us));
    batch.rtt_us = stats::sorted(std::mem::take(&mut batch.rtt_us));
    churn.rtt_us = stats::sorted(std::mem::take(&mut churn.rtt_us));
    for (name, p) in [("single", &single), ("batch", &batch), ("churn", &churn)] {
        run.ops(p.attempted, p.failed, &format!("{name}-phase requests"));
        run.info_num(&format!("{name}_requests"), p.attempted);
    }
    let batch_size = batch_reqs[0].expect.len();
    let rtt_p50_us = stats::median_sorted(&single.rtt_us);
    run.set("op_quiet_ms", stats::quiet(&single.block_p50_us) / 1e3);
    run.set("peak_rss_mib", server_rss);
    run.info_num("op_samples", single.rtt_us.len());
    run.info_num("op_blocks", single.block_p50_us.len());
    run.info_num("op_p50_ms", rtt_p50_us / 1e3);
    run.info_num("servers", measured.op_s.len());
    run.info_num("client_connections", CONNECTIONS);
    run.info_num("items", ids.len());
    run.info_num("batch", batch_size);

    if run.trace {
        run.set(
            "serve.rtt_p90_us",
            stats::percentile_sorted(&single.rtt_us, 0.9),
        );
        run.set(
            "serve.rtt_p99_us",
            stats::percentile_sorted(&single.rtt_us, 0.99),
        );
        run.set(
            "serve.rtt_p999_us",
            stats::percentile_sorted(&single.rtt_us, 0.999),
        );
        run.set(
            "serve.batch_rtt_p50_us",
            stats::median_sorted(&batch.rtt_us),
        );
        run.set(
            "serve.predictions_per_s",
            (batch.rtt_us.len() * batch_size) as f64 / batch.wall_s,
        );
        run.set(
            "serve.churn_rtt_p50_us",
            stats::median_sorted(&churn.rtt_us),
        );
        run.set(
            "serve.churn_req_per_s",
            churn.rtt_us.len() as f64 / churn.wall_s,
        );
        run.set(
            "serve.startup_s",
            stats::median(&t.seconds_outside_iterations("serve.startup")),
        );
        run.set("serve.reload_ms", stats::median(&reload_ms));
        run.set("model.load_s", load_s);
        run.set(
            "model.snapshot_bytes",
            std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64),
        );
        if let Some((_, body)) = &metrics {
            let doc = json::parse(body).unwrap_or(json::Value::Null);
            let counter = |name: &str| {
                doc.get("counters")
                    .and_then(json::Value::as_arr)
                    .into_iter()
                    .flatten()
                    .find(|c| c.get("name").and_then(json::Value::as_str) == Some(name))
                    .and_then(|c| c.get("value").and_then(json::Value::as_i64))
                    .unwrap_or(0) as f64
            };
            run.set("serve.requests", counter("serve/requests"));
            run.set("serve.errors", counter("serve/errors"));
            run.set("serve.rejected_busy", counter("serve/rejected_busy"));
            run.set("serve.connections", counter("serve/connections"));
        }
        request_path_probes(run, &reference, &single_reqs, &batch_reqs);
        // What is left of a round trip once the parts this process can
        // time in isolation are taken out: kernel, wake-ups, hand-off.
        let predict_us = (run.get("model.predict_basic_ns")
            + run.get("model.predict_tree_ns")
            + run.get("model.predict_cube_ns"))
            / 3.0
            / 1e3;
        run.set(
            "serve.wire_us",
            rtt_p50_us
                - run.get("serve.http_read_us")
                - run.get("serve.json_parse_us")
                - run.get("serve.http_write_us")
                - predict_us,
        );
    }
    finish_trace(run, t, &measured.op_s);
}
