//! Serving: train once, snapshot, answer predictions over HTTP.
//!
//! The bellwether economics are train-once / predict-many: one scan of
//! the entire training data buys a model that then answers item-level
//! predictions indefinitely. This example walks that full arc — build
//! all three method families on the mail-order workload, write one
//! versioned checksummed snapshot, load it back as an immutable model,
//! and serve batched predictions over a real TCP socket.
//!
//! Run with: `cargo run --release --example serving`

use bellwether::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn main() {
    // ---- train once: the heterogeneous mail-order workload, so the
    // tree and cube have real per-category structure to find.
    let mut cfg = RetailConfig::mail_order_heterogeneous(120, 7);
    cfg.months = 6;
    cfg.converge_month = 4;
    cfg.states = Some(vec!["MD", "WI", "CA", "TX", "NY", "IL"]);
    let data = generate_retail(&cfg);
    let problem = BellwetherConfig::builder(25.0)
        .min_coverage(0.0)
        .min_examples(20)
        .error_measure(ErrorMeasure::TrainingSet)
        .build()
        .unwrap();
    // Only affordable regions: the whole-period/whole-area region
    // contains the target itself and would win vacuously.
    let (task, par) = (data.task(), Parallelism::default());
    let affordable = task.regions_within(problem.budget);
    let source = task.materialize(&affordable, Memory, par, &NoopRecorder).unwrap();

    let search =
        basic_search(&source, &data.space, &data.cost, &problem, data.items.len()).unwrap();
    let report = search.report().expect("a bellwether exists");
    println!("trained: {}", report.summary());
    let tree = build_rainforest(
        &source,
        &data.space,
        &data.items,
        None,
        &problem,
        &TreeConfig::default(),
    )
    .unwrap();
    let cube = build_single_scan_cube(
        &source,
        &data.space,
        &data.item_space,
        &data.item_coords,
        &problem,
        &CubeConfig {
            min_subset_size: 20,
        },
    )
    .unwrap();

    // ---- snapshot: versioned, checksummed, written atomically. The
    // model bundles the chosen regions' feature blocks, so predictions
    // after load are bit-identical to predictions before save.
    let ids = data.items.ids().to_vec();
    let model = ModelBuilder::new(&source, data.items)
        .basic(report)
        .tree(tree)
        .cube(cube, 0.95)
        .build()
        .unwrap();
    let path = std::env::temp_dir().join("bellwether_serving_example.bwsn");
    model.save(&path).unwrap();
    println!(
        "snapshot: {} bytes at {}",
        std::fs::metadata(&path).unwrap().len(),
        path.display()
    );
    let model = BellwetherModel::load(&path).expect("snapshot loads");

    // ---- serve the loaded model on a real socket.
    let registry = Registry::shared();
    let config = ServeConfig::builder()
        .workers(2)
        .registry(registry.clone())
        .build()
        .unwrap();
    let handle = Server::bind("127.0.0.1:0", model, config).unwrap();
    println!("serving on http://{}/predict", handle.local_addr());

    // ---- a keep-alive client sends one batch per method family.
    let mut conn = TcpStream::connect(handle.local_addr()).unwrap();
    let health = request(&mut conn, "GET", "/health", "");
    println!("health: {health}");
    for method in ["basic", "tree", "cube"] {
        let body = format!(
            "{{\"method\":\"{method}\",\"ids\":[{},{},{},-1]}}",
            ids[0], ids[1], ids[2]
        );
        let resp = request(&mut conn, "POST", "/predict", &body);
        println!("{method:>5}: {resp}");
        assert!(resp.contains("\"count\":4"), "{resp}");
    }

    // ---- the serving counters, from the same shared registry.
    let metrics = request(&mut conn, "GET", "/metrics", "");
    assert!(metrics.contains("serve/requests"), "{metrics}");
    let snap = registry.snapshot();
    println!(
        "served {} requests / {} predictions",
        snap.counter("serve/requests").unwrap_or(0),
        snap.counter("serve/predictions").unwrap_or(0)
    );
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Minimal HTTP/1.1 client: one request, one JSON body back. The request
/// is formatted whole and leaves in one `write_all`: `write!` on an
/// unbuffered socket would send each format fragment as its own segment.
fn request(conn: &mut TcpStream, method: &str, path: &str, body: &str) -> String {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: example\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).unwrap();
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("200"), "unexpected status: {line}");
    let mut len = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
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
    String::from_utf8(body).unwrap()
}
