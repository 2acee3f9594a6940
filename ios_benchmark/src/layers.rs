//! Per-layer numbers that several workloads share: exact counts read off
//! the network and its chosen schedule, and one-off timings of backend
//! calls the serving engine makes internally.

use crate::run::{ms_since, Outcome};
use crate::stats::median;
use ios_backend::{
    execute_network_batched, split_batch, stack_batch, NetworkWeights, ScratchPool, TensorData,
};
use ios_core::{NetworkSchedule, ParallelizationStrategy};
use ios_ir::Network;
use std::time::Instant;

/// `models.*`, `ir.dag_width_max` and `backend.bytes_per_flop` of the
/// networks a workload runs.
pub fn network_counts(out: &mut Outcome, networks: &[&Network]) {
    let blocks = || networks.iter().flat_map(|n| n.blocks.iter());
    let flops: u64 = networks.iter().map(|n| n.total_flops()).sum();
    let bytes: u64 = blocks()
        .flat_map(|b| {
            b.graph
                .ops()
                .iter()
                .map(|op| b.graph.op_memory_bytes(op.id))
        })
        .sum();
    out.layer(
        "models.ops",
        networks.iter().map(|n| n.num_operators()).sum::<usize>() as f64,
    );
    out.layer("models.blocks", blocks().count() as f64);
    out.layer("models.mflops", flops as f64 / 1e6);
    out.layer(
        "ir.dag_width_max",
        blocks()
            .map(|b| ios_ir::dag_width(&b.graph))
            .max()
            .unwrap_or(0) as f64,
    );
    // Computed from tensor and weight sizes, not measured traffic.
    out.layer("backend.bytes_per_flop", bytes as f64 / flops.max(1) as f64);
}

/// `core.*stages` of the chosen schedule and the speed-up the cost model
/// predicts for it over sequential execution.
pub fn schedule_counts(out: &mut Outcome, ios: &NetworkSchedule, sequential: &NetworkSchedule) {
    let stages = || ios.block_schedules.iter().flat_map(|s| s.stages.iter());
    out.layer("core.stages", stages().count() as f64);
    out.layer(
        "core.merge_stages",
        stages()
            .filter(|s| s.strategy == ParallelizationStrategy::OperatorMerge)
            .count() as f64,
    );
    out.layer(
        "core.concurrent_stages",
        stages()
            .filter(|s| {
                s.strategy == ParallelizationStrategy::ConcurrentExecution && s.num_groups() > 1
            })
            .count() as f64,
    );
    out.layer(
        "sim.predicted_speedup",
        sequential.latency_us / ios.latency_us,
    );
}

/// `backend.{batched,stack,split}_ms.b8`: what a full batch of eight costs
/// the backend, from the same calls the engine makes around `execute`.
pub fn batch_of_eight(
    out: &mut Outcome,
    network: &Network,
    schedule: &NetworkSchedule,
    weights: &NetworkWeights,
    inputs: &[TensorData],
) {
    let pool = ScratchPool::new();
    let samples: Vec<&TensorData> = inputs.iter().cycle().take(8).collect();
    let (mut stack, mut batched, mut split) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let start = Instant::now();
        let stacked = stack_batch(&samples);
        stack.push(ms_since(start));
        let start = Instant::now();
        let outputs = execute_network_batched(
            network,
            Some(schedule),
            weights,
            std::slice::from_ref(&stacked),
            &pool,
        );
        batched.push(ms_since(start));
        let start = Instant::now();
        let parts = split_batch(&outputs[0]);
        split.push(ms_since(start));
        std::hint::black_box(parts);
        for tensor in outputs {
            pool.recycle_tensor(tensor);
        }
    }
    out.layer("backend.stack_ms.b8", median(&stack));
    out.layer("backend.batched_ms.b8", median(&batched));
    out.layer("backend.split_ms.b8", median(&split));
}
