//! The worker pool seen from the serving engine: which networks post
//! intra-operator jobs, and how the pool's counters and spans are exported.
//!
//! The counters are process-wide, so this file holds a single test: a test
//! binary of its own is the only place they start at zero and move for one
//! reason at a time.

use ios_backend::workers;
use ios_backend::TensorData;
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use ios_serve::{ServeConfig, ServeEngine};

/// The benchmark's `serve_closed_small` network: three blocks of
/// `3x3 || 1x1 -> concat -> 1x1` on 16 channels of 16×16.
fn small_network() -> Network {
    let input = TensorShape::new(1, 16, 16, 16);
    let mut shape = input;
    let blocks = (0..3)
        .map(|i| {
            let mut b = GraphBuilder::new(format!("small_block{i}"), shape);
            let x = b.input(0);
            let wide = b.conv2d("wide", x, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
            let point = b.conv2d("point", x, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
            let cat = b.concat("cat", &[wide, point]);
            let mix = b.conv2d("mix", cat, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
            let graph = b.build(vec![mix]);
            shape = graph.output_shapes()[0];
            Block::new(graph)
        })
        .collect();
    Network::new("bench_small", input, blocks)
}

/// One block whose 3×3 convolution is 85 M multiply-accumulates — far past
/// two grains.
fn large_network() -> Network {
    let input = TensorShape::new(1, 64, 48, 48);
    let mut b = GraphBuilder::new("large_block", input);
    let x = b.input(0);
    let conv = b.conv2d("conv", x, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
    Network::new("large", input, vec![Block::new(b.build(vec![conv]))])
}

/// Serves `requests` inputs, several outstanding at a time so batches of
/// more than one sample form, and returns the engine's metrics text.
fn serve(network: Network, requests: u64) -> String {
    let shape = network.input_shape;
    let engine = ServeEngine::start(network, ServeConfig::default());
    let handles: Vec<_> = (0..requests)
        .map(|i| {
            engine
                .submit(TensorData::random(shape, 40 + i))
                .expect("admitted")
        })
        .collect();
    for handle in handles {
        handle.wait_outcome().expect("answered");
    }
    let text = engine.prometheus_text();
    engine.shutdown();
    text
}

/// The value of the sample line starting with `series` in `text`.
fn sample(text: &str, series: &str) -> u64 {
    let line = text
        .lines()
        .find(|line| line.starts_with(series))
        .unwrap_or_else(|| panic!("no `{series}` sample in:\n{text}"));
    let value = line.rsplit(' ').next().expect("a sample has a value");
    value.parse::<f64>().expect("a numeric sample") as u64
}

#[test]
fn only_operators_past_the_grain_post_jobs_and_the_counters_are_exported() {
    // No operator of the small network holds two grains (its largest, the
    // 3×3, is 0.59 M multiply-accumulates): whatever the batching, stage
    // groups and sample fan-out do, no operator is split.
    let text = serve(small_network(), 48);
    let stats = workers::stats();
    assert_eq!(stats.op_jobs, 0, "a small operator was split");
    assert_eq!(stats.op_chunks_by_caller + stats.op_chunks_by_helper, 0);
    ios_telemetry::prometheus::validate(&text).expect("well-formed exposition");
    assert_eq!(sample(&text, "ios_intra_op_jobs_total "), 0);
    assert_eq!(
        sample(&text, "ios_worker_pool_lanes ") as usize,
        stats.lanes
    );

    let tracer = ios_telemetry::tracer();
    tracer.set_enabled(true);
    let text = serve(large_network(), 3);
    tracer.set_enabled(false);
    let stats = workers::stats();
    if stats.lanes == 1 {
        // A one-core host has no lane to split for.
        assert_eq!(stats.op_jobs, 0);
        return;
    }
    assert!(stats.op_jobs >= 3, "every large convolution is split");
    ios_telemetry::prometheus::validate(&text).expect("well-formed exposition");
    // The engine has shut down, so the text and the snapshot agree.
    assert_eq!(sample(&text, "ios_intra_op_jobs_total "), stats.op_jobs);
    let by_caller = sample(&text, "ios_intra_op_chunks_total{by=\"caller\"} ");
    let by_helper = sample(&text, "ios_intra_op_chunks_total{by=\"helper\"} ");
    assert_eq!(by_caller, stats.op_chunks_by_caller);
    assert_eq!(by_helper, stats.op_chunks_by_helper);
    assert!(
        by_caller + by_helper >= 2 * stats.op_jobs,
        "a split operator has at least two chunks"
    );
    // One `op.parallel` span per posted job, carrying its chunk count.
    let spans: Vec<_> = tracer
        .records()
        .into_iter()
        .filter(|record| record.name == "op.parallel")
        .collect();
    assert_eq!(spans.len() as u64, stats.op_jobs);
    assert_eq!(
        spans.iter().map(|s| s.id).sum::<u64>(),
        by_caller + by_helper
    );
    assert_eq!(tracer.dropped(), 0);
}
