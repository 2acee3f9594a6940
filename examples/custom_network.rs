//! Define a custom multi-branch CNN, optimize it for two different GPUs, and
//! verify numerically (on the CPU reference backend) that the IOS schedule —
//! including merged stages — computes exactly the same tensors as the
//! original graph.
//!
//! Run with: `cargo run --release --example custom_network`

use ios::backend::verify_schedule;
use ios::prelude::*;

fn build_block() -> Graph {
    let mut b = GraphBuilder::new("custom_block", TensorShape::new(1, 96, 20, 20));
    let x = b.input(0);
    // Two mergeable 3x3 convolutions plus a cheap 1x1 branch and a pooled branch.
    let left = b.conv2d(
        "left_3x3",
        x,
        Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)),
    );
    let right = b.conv2d(
        "right_3x3",
        x,
        Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)),
    );
    let cheap = b.conv2d(
        "cheap_1x1",
        x,
        Conv2dParams::relu(32, (1, 1), (1, 1), (0, 0)),
    );
    let pooled = b.pool("pool", x, ios::ir::PoolParams::avg((3, 3), (1, 1), (1, 1)));
    let pooled = b.conv2d(
        "pool_proj",
        pooled,
        Conv2dParams::relu(32, (1, 1), (1, 1), (0, 0)),
    );
    let deep = b.conv2d(
        "deep_3x3",
        left,
        Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)),
    );
    let out = b.concat("concat", &[deep, right, cheap, pooled]);
    b.build(vec![out])
}

fn main() {
    let graph = build_block();
    println!(
        "custom block: {} operators, width {}",
        graph.len(),
        ios::ir::dag_width(&graph)
    );

    for device in [DeviceKind::TeslaV100, DeviceKind::TeslaK80] {
        let cost = SimCostModel::new(Simulator::new(device));
        let result = schedule_graph(&graph, &cost, &SchedulerConfig::paper_default());
        let sequential = sequential_schedule(&graph, &cost);
        println!("\noptimized for {device}:");
        print!("{}", result.schedule.render(&graph));
        println!(
            "  latency {:.1} µs vs sequential {:.1} µs ({:.2}x)",
            result.latency_us,
            sequential.total_measured_latency_us(),
            sequential.total_measured_latency_us() / result.latency_us
        );

        // Numerical verification on the CPU reference backend: the schedule
        // (concurrent groups, merged kernels, splits) computes the same
        // tensors as a plain sequential execution of the graph.
        let max_diff = verify_schedule(&graph, &result.schedule, 42);
        println!("  max |difference| vs reference execution: {max_diff:.2e}");
        assert_eq!(max_diff, 0.0, "schedule changed the network's semantics");
    }
    println!("\nboth schedules preserve the network's output exactly (up to float rounding).");
}
