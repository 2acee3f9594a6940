//! Demo of the `ios-serve` online runtime: real numerics through the CPU
//! reference backend on a small network.
//!
//! The paper's batch-size story on its simulated V100 (Figure 11, Table 3)
//! is reproduced by the `fig11_batchsize` and `table3_specialization`
//! binaries of `ios-bench`, which call the simulator directly.
//!
//! Run with: `cargo run --release --example serve_demo`

use ios::backend::TensorData;
use ios::prelude::*;
use std::time::Duration;

/// A small two-branch network, so the demo runs in well under a second.
fn small_network() -> Network {
    let input = TensorShape::new(1, 8, 12, 12);
    let mut b = GraphBuilder::new("demo_block", input);
    let x = b.input(0);
    let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let c = b.conv2d("c", x, Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)));
    let cat = b.concat("cat", &[a, c]);
    Network::new(
        "demo_net",
        input,
        vec![ios::ir::Block::new(b.build(vec![cat]))],
    )
}

fn main() {
    let network = small_network();
    println!(
        "== serving `{}` on the CPU reference backend ==",
        network.name
    );
    let engine = ServeEngine::start(
        network.clone(),
        ServeConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );

    let handles: Vec<_> = (0..10)
        .map(|i| {
            engine
                .submit(TensorData::random(network.input_shape, i))
                .expect("accepted")
        })
        .collect();
    for handle in handles {
        let r = handle.wait();
        println!(
            "  {}: batch {} | queue {:.0} µs | total {:.0} µs",
            r.id, r.batch_size, r.queue_us, r.total_us
        );
    }
    let m = engine.metrics();
    println!(
        "  metrics: {} requests in {} batches (mean {:.2}), p50 {:.0} µs, p99 {:.0} µs",
        m.completed, m.batches, m.mean_batch_size, m.p50_latency_us, m.p99_latency_us
    );
    engine.shutdown();
}
