//! Demo of the `ios-telemetry` observability layer: serve a small network
//! with the span tracer enabled, then export the run as a Chrome trace
//! (load it in `chrome://tracing` or Perfetto) and as a Prometheus text
//! exposition.
//!
//! Run with: `cargo run --release --example observe_demo`

use ios::backend::TensorData;
use ios::prelude::*;
use ios::telemetry;
use std::time::Duration;

/// A three-block chain, so each batch records several stage spans.
fn three_block_network() -> Network {
    use ios::ir::Block;
    let input = TensorShape::new(1, 6, 10, 10);
    let mut b = GraphBuilder::new("observe_b0", input);
    let x = b.input(0);
    let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let c = b.conv2d("c", x, Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)));
    let cat = b.concat("cat", &[a, c]);
    let block0 = Block::new(b.build(vec![cat]));
    let mut b = GraphBuilder::with_inputs("observe_b1", block0.graph.output_shapes());
    let x = b.input(0);
    let d = b.conv2d("d", x, Conv2dParams::relu(12, (3, 3), (1, 1), (1, 1)));
    let block1 = Block::new(b.build(vec![d]));
    let mut b = GraphBuilder::with_inputs("observe_b2", block1.graph.output_shapes());
    let x = b.input(0);
    let e = b.conv2d("e", x, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
    let block2 = Block::new(b.build(vec![e]));
    Network::new("observe_net", input, vec![block0, block1, block2])
}

fn main() {
    let network = three_block_network();

    // Recording is off by default (instrumentation costs one atomic load
    // per site); enable it around the window of interest. Enabling before
    // engine start also captures the optimizer's per-block DP spans.
    telemetry::tracer().set_enabled(true);

    let engine = ServeEngine::start(
        network.clone(),
        ServeConfig::default()
            .with_max_batch(4)
            .with_workers(1)
            .with_max_wait(Duration::from_millis(5)),
    );
    println!("== serving `{}`, tracer on ==", network.name);

    let handles: Vec<_> = (0..12)
        .map(|i| {
            engine
                .submit(TensorData::random(network.input_shape, i))
                .expect("accepted")
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().outputs.len(), 1);
    }
    telemetry::tracer().set_enabled(false);

    // --- Chrome trace export --------------------------------------------
    let trace_json = engine.trace_dump();
    let records = telemetry::tracer().records();
    let mut by_name: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for r in &records {
        *by_name.entry(r.name).or_default() += 1;
    }
    println!("\ncaptured {} trace records:", records.len());
    for (name, count) in &by_name {
        println!("  {count:>5} × {name}");
    }
    let path = std::env::temp_dir().join("ios_observe_trace.json");
    std::fs::write(&path, &trace_json).expect("write trace");
    println!(
        "Chrome trace written to {} ({} bytes) — open in chrome://tracing",
        path.display(),
        trace_json.len()
    );

    // --- Prometheus exposition ------------------------------------------
    let text = engine.prometheus_text();
    let samples = telemetry::prometheus::validate(&text).expect("well-formed exposition");
    println!("\nPrometheus exposition ({samples} samples); non-histogram series:");
    for line in text.lines() {
        if !line.starts_with('#') && !line.contains("_bucket") && !line.contains("_sum") {
            println!("  {line}");
        }
    }

    let m = engine.metrics();
    println!(
        "\nsnapshot: p50 {:.0} µs, p99 {:.0} µs, mean queue wait {:.0} µs, \
         mean batch assembly {:.0} µs",
        m.p50_latency_us, m.p99_latency_us, m.mean_queue_wait_us, m.mean_assembly_us
    );
    engine.shutdown();
}
