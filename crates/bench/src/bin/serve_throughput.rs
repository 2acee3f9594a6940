//! `serve_throughput` — batched serving vs naive one-request-at-a-time, in
//! **simulated** device time.
//!
//! Serves SqueezeNet on the simulated target device
//! (`ServeEngine::start_simulated`: the full `ios-serve` runtime over an
//! executor that charges the GPU simulator's latency instead of computing)
//! twice:
//!
//! * **naive** — `max_batch = 1`: every request is dispatched alone, paying
//!   the batch-1 device latency (the classic unbatched server);
//! * **batched** — `max_batch = 32` with a deep request queue, so the
//!   dynamic batcher coalesces full batches and the schedule cache serves
//!   the batch-32-specialized schedule.
//!
//! Throughput is accounted in *simulated device time* (requests per second
//! of simulated GPU time), the resource an inference service actually buys.
//! Batch-1 kernels under-utilize a large GPU (few thread blocks for 80
//! SMs), which is exactly the effect the paper's Figure 11 batch-size study
//! measures — batching restores utilization, and the acceptance bar for
//! this binary is ≥ 2× naive simulated throughput at queue depth ≥ 32. No
//! wall clock is judged here: the measured serving numbers are
//! `ios_benchmark`'s `serve_closed_small` and `serve_open_squeezenet`
//! workloads.
//!
//! Judged and reported (`BENCH_serve.json`) through [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin serve_throughput`
//! (`--device`, `--quick` and `--json PATH` as in every bench binary).
//!
//! Note the acceptance bar is a property of *large* devices: on a small
//! GPU like the Tesla K80 (13 SMs) batch-1 kernels already saturate the
//! device, batching buys only ~1.2×, and the gate honestly fails —
//! the same reason the paper's Figure 11 speedups shrink as batch grows.

use ios_backend::TensorData;
use ios_bench::{cells, BenchOptions, Cell, Gate, Table};
use ios_serve::{MetricsSnapshot, ServeConfig, ServeEngine};
use std::process::ExitCode;
use std::time::Duration;

/// Serves `requests` requests at `max_batch` and returns the mode's table
/// row.
fn run_mode(
    mode: &str,
    network: &ios_ir::Network,
    opts: &BenchOptions,
    max_batch: usize,
    requests: usize,
) -> Vec<Cell> {
    let config = ServeConfig::default()
        .with_device(opts.device)
        .with_max_batch(max_batch)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(50))
        .with_prewarm_batches(vec![1, max_batch]);
    let engine = ServeEngine::start_simulated(network.clone(), config);

    // Pre-build one input and clone it per request: submission must outpace
    // dispatch so the queue actually reaches depth ≥ max_batch.
    let input = TensorData::zeros(network.input_shape);
    let handles: Vec<_> = (0..requests)
        .map(|_| {
            engine
                .submit(input.clone())
                .expect("engine accepts requests")
        })
        .collect();
    let queue_depth_seen = engine.queue_depth();
    for handle in handles {
        let _ = handle.wait();
    }
    let metrics: MetricsSnapshot = engine.metrics();
    engine.shutdown();

    cells![
        mode,
        metrics.completed,
        queue_depth_seen,
        metrics.batches,
        metrics.mean_batch_size,
        metrics.device_time_us / 1e3,
        metrics.device_throughput_rps,
        metrics.p99_latency_us,
        metrics.cache.hit_rate(),
    ]
}

fn main() -> ExitCode {
    let mut gate = Gate::from_args("serve");
    let requests = if gate.opts.quick { 64 } else { 256 };
    let max_batch = 32;
    let network = ios_models::squeezenet(1);
    gate.fact("network", network.name.as_str());
    gate.fact("device", format!("{:?}", gate.opts.device));

    let mut table = Table::new(
        "Serving throughput in simulated device time",
        &[
            ("mode", "mode"),
            ("requests", "requests"),
            ("queue_depth_seen", "queue depth seen"),
            ("batches", "batches"),
            ("mean_batch_size", "mean batch"),
            ("device_time_ms", "simulated device ms"),
            ("device_throughput_rps", "req/s (simulated device)"),
            ("p99_latency_us", "p99 us (wall)"),
            ("cache_hit_rate", "cache hit rate"),
        ],
    );
    table.row(run_mode(
        "naive (batch 1)",
        &network,
        &gate.opts,
        1,
        requests,
    ));
    table.row(run_mode(
        "batched (batch 32)",
        &network,
        &gate.opts,
        max_batch,
        requests,
    ));
    gate.table(&table);

    let rps = table.column("device_throughput_rps");
    gate.at_least(
        "batched vs naive throughput, simulated device time",
        rps[1] / rps[0],
        2.0,
    );
    gate.finish()
}
