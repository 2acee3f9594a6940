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
//! The acceptance bar follows the plan's own prediction — the rule the
//! engine's `PipelineMode::Auto` applies (`PipelinePlan::prefers_pipeline_vs`):
//! where the plan predicts the pipeline out-serves the flat path, the
//! pipelined stream must reach **≥ 1.15×** the flat throughput; where it
//! does not, the pipeline only has to not regress (**≥ 0.95×**). The
//! prediction is asked about the flat path as it runs today: since the
//! process-wide worker pool, a flat batch keeps every core busy —
//! intra-operator chunks fill the straggler round that the plan's
//! one-sample-per-worker flat model charges a ragged batch — so the flat
//! side is evaluated at a whole round (`cores` samples over `cores`
//! workers). The JSON report (`BENCH_pipeline.json`, plus `--json PATH`)
//! records which bar was enforced, the chosen plan and the measured
//! per-block costs.
//!
//! Run with: `cargo run --release -p ios-bench --bin pipeline_gate`
//! (`--quick` shortens the stream and the profiling policy for CI).

use ios_backend::{
    execute_network_batched, stack_batch, CpuStageProfiler, NetworkWeights,
    PipelinedNetworkExecutor, ScratchPool, TensorData,
};
use ios_bench::{fmt3, maybe_write_json, paired_rounds, render_table, BenchOptions};
use ios_core::{plan_pipeline, sequential_network_schedule, PipelinePlan, ProfiledCostModel};
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Serialize)]
struct Report {
    host_parallelism: usize,
    batch: usize,
    stream_batches: usize,
    stream_samples: usize,
    blocks: usize,
    /// Chosen segmentation, e.g. `"[0..2 | 2..4 | 4..6 | 6..8]"`.
    plan: String,
    segments: usize,
    /// Per-block latencies measured under concurrent load, µs.
    block_costs_us: Vec<f64>,
    /// Planner-predicted steady-state period, µs per sample.
    predicted_period_us: f64,
    /// Planner-predicted speedup over flat at this batch size.
    predicted_speedup: f64,
    /// Background load workers active while profiling block costs.
    profile_load_threads: usize,
    flat_ms: f64,
    pipelined_ms: f64,
    speedup: f64,
    /// Whether the plan predicts the pipeline beats the flat path (selects
    /// the bar).
    plan_prefers_pipeline: bool,
    acceptance_bar: f64,
    pass: bool,
}

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

fn main() {
    let opts = BenchOptions::from_args();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // The ragged batch: one more sample than the host has cores, so flat
    // execution pays a straggler round on every batch.
    let batch = cores + 1;
    let stream_batches = if opts.quick { 6 } else { 10 };
    let iters = if opts.quick { 31 } else { 51 };
    let (warmup, repeats) = if opts.quick { (1, 2) } else { (1, 3) };
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
    println!(
        "pipeline_gate: {} cores, batch {batch} ({} batches = {} samples streamed), plan {} \
         (period {:.0} µs, predicted {:.2}x vs flat, profiled under {} load workers, quick = {})",
        cores,
        stream_batches,
        stream_batches * batch,
        plan.segments,
        plan.period_us,
        plan.predicted_speedup(batch),
        profile_load_threads,
        opts.quick
    );

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
    let (flat_ms, pipelined_ms) = (rounds.best_ms(0), rounds.best_ms(1));
    let speedup = rounds.median_speedup(0, 1);
    let plan_prefers_pipeline = plan.prefers_pipeline_vs(cores, cores);
    let bar = if plan_prefers_pipeline {
        1.15
    } else {
        println!(
            "the plan does not predict a win over a flat path that keeps all {cores} cores \
             busy (period {:.0} µs vs {:.0} µs per sample flat): enforcing no-regression",
            plan.period_us,
            plan.flat_us_per_sample_with(cores, cores)
        );
        0.95
    };
    let pass = speedup >= bar;

    println!(
        "{}",
        render_table(
            "Cross-block pipelined serving vs flat batched serving",
            &[
                "stream",
                "flat ms",
                "pipelined ms",
                "speedup",
                "plan",
                "bar"
            ],
            &[vec![
                format!("{}x batch {batch}", stream_batches),
                fmt3(flat_ms),
                fmt3(pipelined_ms),
                fmt3(speedup),
                plan.segments.to_string(),
                format!(">= {bar:.2}x"),
            ]],
        )
    );
    println!("RESULT: {}", if pass { "PASS" } else { "FAIL" });

    let report = Report {
        host_parallelism: cores,
        batch,
        stream_batches,
        stream_samples: stream_batches * batch,
        blocks,
        plan: plan.segments.to_string(),
        segments: plan.segments.num_segments(),
        block_costs_us: plan.block_costs_us.clone(),
        predicted_period_us: plan.period_us,
        predicted_speedup: plan.predicted_speedup(batch),
        profile_load_threads,
        flat_ms,
        pipelined_ms,
        speedup,
        plan_prefers_pipeline,
        acceptance_bar: bar,
        pass,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_pipeline.json", json) {
                eprintln!("failed to write BENCH_pipeline.json: {e}");
            }
        }
        Err(e) => eprintln!("failed to serialize BENCH_pipeline.json: {e}"),
    }
    maybe_write_json(&opts, &report);
    if !pass {
        std::process::exit(1);
    }
}
