//! `pipeline_gate` — CI acceptance gate for cross-block pipelined serving.
//!
//! Serves a stream of ragged batches (`cores + 1` samples each — the batch
//! size a dynamic batcher actually produces, and the worst case for flat
//! execution's `ceil(batch / workers)` straggler round) through two
//! execution paths and compares throughput:
//!
//! * **flat batched serving** — the shipped single-dispatch fast path:
//!   each batch fans its samples out over all cores
//!   (`execute_network_batched`), and the next batch starts only when the
//!   slowest sample of the previous one finished;
//! * **pipelined serving** — a persistent [`PipelinedNetworkExecutor`]
//!   whose segment boundaries were planned from per-block latencies
//!   *measured under concurrent load* (`CpuStageProfiler` with background
//!   load workers, wrapped in `ProfiledCostModel`), fed by two dispatch
//!   workers so the head of batch `n + 1` overlaps the drain of batch `n`
//!   — exactly how a serving engine keeps the pipeline full.
//!
//! Pipelined outputs are asserted **bit-identical** to flat ones before
//! anything is timed.
//!
//! Flat and pipelined streams alternate within each timing round and the
//! speedup is the median of the per-round ratios (`ios_bench::paired_rounds`).
//!
//! The pipeline only has to not regress: the pipelined stream must reach
//! **≥ 0.95×** the flat throughput. It cannot be asked for a win, because
//! its own plan never predicts one against the flat path as it runs today:
//! since the process-wide worker pool a flat batch keeps every core busy
//! (intra-operator chunks fill the straggler round of a ragged batch), so
//! flat serving costs `total / cores` per sample, and
//! `PipelinePlan::for_segments` puts the pipeline's period at
//! `(total + hand-offs) / workers` or above with `workers = cores`.
//!
//! Judged and reported (`BENCH_pipeline.json`) through [`ios_bench::gate`]:
//! the chosen plan, its predictions and the measured per-block costs ride
//! along as facts and a second table.
//!
//! Run with: `cargo run --release -p ios-bench --bin pipeline_gate`
//! (`--quick` shortens the stream and the profiling policy for CI).

use ios_backend::{
    execute_network_batched, stack_batch, CpuStageProfiler, NetworkWeights,
    PipelinedNetworkExecutor, ScratchPool, TensorData,
};
use ios_bench::{cells, paired_rounds, Cell, Gate, Table};
use ios_core::{plan_pipeline, sequential_network_schedule, PipelinePlan, ProfiledCostModel};
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A uniform stack of branchy blocks — deep enough to cut into balanced
/// segments, heavy enough (≈ 10 MFLOP per block) that the per-segment
/// hand-off is noise.
fn pipeline_stack(blocks: usize) -> Network {
    let input = TensorShape::new(1, 48, 14, 14);
    let mut shape = input;
    let mut out = Vec::with_capacity(blocks);
    for i in 0..blocks {
        let mut b = GraphBuilder::new(format!("pipe_stack_b{i}"), shape);
        let x = b.input(0);
        let a = b.conv2d(
            format!("b{i}_a3"),
            x,
            Conv2dParams::relu(48, (3, 3), (1, 1), (1, 1)),
        );
        let c = b.conv2d(
            format!("b{i}_c1"),
            x,
            Conv2dParams::relu(48, (1, 1), (1, 1), (0, 0)),
        );
        let cat = b.concat(format!("b{i}_cat"), &[a, c]);
        let r = b.conv2d(
            format!("b{i}_r1"),
            cat,
            Conv2dParams::relu(48, (1, 1), (1, 1), (0, 0)),
        );
        let block = Block::new(b.build(vec![r]));
        shape = block.graph.output_shapes()[0];
        out.push(block);
    }
    Network::new("pipe_stack", input, out)
}

fn main() -> ExitCode {
    let mut gate = Gate::from_args("pipeline");
    let quick = gate.opts.quick;
    let cores = gate.host.cores;
    // The ragged batch: one more sample than the host has cores, so flat
    // execution pays a straggler round on every batch.
    let batch = cores + 1;
    let stream_batches = if quick { 6 } else { 10 };
    let iters = if quick { 31 } else { 51 };
    let (warmup, repeats) = if quick { (1, 2) } else { (1, 3) };
    let blocks = 8;

    let net = pipeline_stack(blocks);
    let weights = NetworkWeights::precompute(&net);

    // Plan from block latencies measured under concurrent load: the
    // machine a pipeline serves on is never idle (its own stage workers
    // are the neighbours), so idle-machine profiles mis-rank boundaries.
    let profile_load_threads = cores.saturating_sub(1);
    let cost = ProfiledCostModel::with_policy(
        CpuStageProfiler::new().with_background_load(profile_load_threads),
        warmup,
        repeats,
    );
    let schedule = sequential_network_schedule(&net, &cost);
    let plan: PipelinePlan = plan_pipeline(&net, &schedule, &cost, cores, None);
    gate.fact("batch", batch);
    gate.fact("stream_batches", stream_batches);
    gate.fact("stream_samples", stream_batches * batch);
    gate.fact("blocks", blocks);
    gate.fact("plan", plan.segments.to_string());
    gate.fact("segments", plan.segments.num_segments());
    gate.fact("predicted_period_us", plan.period_us);
    gate.fact("predicted_speedup", plan.predicted_speedup(batch));
    gate.fact("profile_load_threads", profile_load_threads);

    // The streamed input: `stream_batches` ragged batches of distinct
    // deterministic samples.
    let stacked_batches: Vec<TensorData> = (0..stream_batches)
        .map(|b| {
            let samples: Vec<TensorData> = (0..batch)
                .map(|i| TensorData::random(net.input_shape, (b * batch + i) as u64))
                .collect();
            let refs: Vec<&TensorData> = samples.iter().collect();
            stack_batch(&refs)
        })
        .collect();

    let flat_pool = ScratchPool::new();
    let pipe_pool = Arc::new(ScratchPool::new());
    let executor = PipelinedNetworkExecutor::new(
        Arc::new(net.clone()),
        Arc::new(weights.clone()),
        plan.segments.clone(),
        Arc::clone(&pipe_pool),
    );

    // The gate is only meaningful if the pipeline is correct: bit-identical
    // stacked outputs on every batch of the stream (also warms both pools).
    for stacked in &stacked_batches {
        let flat = execute_network_batched(
            &net,
            None,
            &weights,
            std::slice::from_ref(stacked),
            &flat_pool,
        );
        let piped = executor.execute_batch(None, std::slice::from_ref(stacked));
        assert_eq!(
            piped, flat,
            "pipelined outputs must be bit-identical to flat batched outputs"
        );
        for t in flat {
            flat_pool.recycle_tensor(t);
        }
        for t in piped {
            pipe_pool.recycle_tensor(t);
        }
    }

    // Flat batched serving: single dispatch, each batch over all cores,
    // full barrier between batches.
    let mut flat = || {
        for stacked in &stacked_batches {
            let outs = execute_network_batched(
                &net,
                None,
                &weights,
                std::slice::from_ref(stacked),
                &flat_pool,
            );
            for t in outs {
                flat_pool.recycle_tensor(t);
            }
        }
    };

    // Pipelined serving: two dispatch workers keep batches in flight
    // back-to-back, so segment workers never drain between batches.
    let mut pipelined = || {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(stacked) = stacked_batches.get(index) else {
                        break;
                    };
                    let outs = executor.execute_batch(None, std::slice::from_ref(stacked));
                    for t in outs {
                        pipe_pool.recycle_tensor(t);
                    }
                });
            }
        });
    };

    let rounds = paired_rounds(iters, &mut [&mut flat, &mut pipelined]);
    let speedup = rounds.median_speedup(0, 1);

    let mut table = Table::new(
        "Cross-block pipelined serving vs flat batched serving",
        &[
            ("stream", "stream"),
            ("flat_ms", "flat ms"),
            ("pipelined_ms", "pipelined ms"),
            ("speedup", "speedup"),
        ],
    );
    table.row(cells![
        format!("{stream_batches}x batch {batch}"),
        rounds.best_ms(0),
        rounds.best_ms(1),
        speedup,
    ]);
    gate.table(&table);
    let mut costs = Table::new(
        "Block latencies measured under concurrent load",
        &[("block", "block"), ("cost_us", "cost us")],
    );
    for (block, &cost_us) in plan.block_costs_us.iter().enumerate() {
        costs.row(cells![block, Cell::Num(cost_us, 1)]);
    }
    gate.table(&costs);

    gate.at_least(
        "pipelined vs flat throughput, median of paired rounds",
        speedup,
        0.95,
    );
    gate.finish()
}
