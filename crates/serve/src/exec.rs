//! Pluggable batch execution backends.
//!
//! The engine is backend-agnostic: a [`BatchExecutor`] receives a fully
//! prepared batch (network instance shaped for the batch size and for one
//! sample, specialized schedule, precomputed weights, stacked inputs) and
//! returns stacked outputs plus the device time consumed. Two backends ship today:
//!
//! * [`CpuReferenceExecutor`] — computes real numerics through
//!   `ios_backend`, bit-identical per sample to `execute_graph`. Its
//!   "device time" is the wall time of the CPU execution.
//! * [`SimulatedDeviceExecutor`] — skips numerics and charges the batch the
//!   latency the analytical GPU simulator assigns to the schedule at this
//!   batch size. This is the backend for throughput studies: it exposes the
//!   batching efficiency of the *modeled device* (Figure 11) rather than of
//!   the host CPU.
//!
//! Later PRs can add further backends (sharded, async, real accelerators)
//! without touching the queueing or caching layers.

use ios_backend::{execute_network_batched_capped, NetworkWeights, ScratchPool, TensorData};
use ios_core::{evaluate_network, CachingCostModel, NetworkSchedule, PipelinePlan, SimCostModel};
use ios_ir::Network;
use std::sync::Arc;
use std::time::Instant;

/// Everything a backend needs to run one coalesced batch.
#[derive(Debug)]
pub struct BatchContext<'a> {
    /// The network shaped for this batch size.
    pub network: &'a Network,
    /// The same network at batch size 1 — what a backend that fans a batch
    /// out one sample per task executes.
    pub per_sample: &'a Network,
    /// The specialized schedule serving this batch.
    pub schedule: &'a Arc<NetworkSchedule>,
    /// Precomputed weights (batch-size independent).
    pub weights: &'a NetworkWeights,
    /// The stacked input tensors (one per graph input; batch dimension =
    /// coalesced batch size).
    pub inputs: &'a [TensorData],
}

/// Result of executing one batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Stacked output tensors, or `None` for backends that do not compute
    /// numerics.
    pub outputs: Option<Vec<TensorData>>,
    /// Device time consumed by the batch, in µs.
    pub device_time_us: f64,
}

/// A strategy for executing prepared batches.
pub trait BatchExecutor: Send + Sync + 'static {
    /// Short name for logs and metrics.
    fn name(&self) -> &'static str;

    /// Executes one batch.
    fn execute(&self, ctx: &BatchContext<'_>) -> BatchOutcome;

    /// Always `false`; the engine never calls it. Kept, with
    /// [`BatchExecutor::prepare_pipeline`], for `ios_benchmark`'s wrapper.
    fn can_pipeline(&self) -> bool {
        false
    }

    /// Always `false`; the engine never calls it.
    fn prepare_pipeline(
        &self,
        network: Arc<Network>,
        weights: Arc<NetworkWeights>,
        plan: &PipelinePlan,
    ) -> bool {
        let _ = (network, weights, plan);
        false
    }

    /// Hands the stacked output tensors of a finished batch back to the
    /// backend once the engine has copied them into response leases.
    /// Backends with a scratch pool recycle the buffers so the next batch
    /// allocates nothing; the default drops them.
    fn recycle_outputs(&self, outputs: Vec<TensorData>) {
        drop(outputs);
    }

    /// Scratch-pool counters `(fresh heap allocations, pool reuses)` for
    /// backends that draw batch storage from a pool; `None` otherwise.
    fn pool_stats(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Executes batches numerically on the CPU execution engine.
///
/// Batches fan out across worker threads, one sample per task
/// ([`execute_network_batched_capped`]), with all scratch and intermediate
/// tensors drawn from a long-lived [`ScratchPool`] — after the first batch
/// of a given shape profile, the op loop performs no heap allocation.
/// Per-sample results are bit-identical to solo `execute_network` runs.
/// Not `ctx.network` once at batch *b*: that stays bit-identical but took
/// `serve_open_squeezenet`'s peak RSS from 62–67 MB to 138 MB (seeds 41–43;
/// [`execute_network_batched_capped`] says why).
#[derive(Debug)]
pub struct CpuReferenceExecutor {
    pool: ScratchPool,
    /// Cap on the per-batch sample-worker fan-out; engines running several
    /// dispatch workers split the cores between them so concurrent batches
    /// do not oversubscribe the host.
    max_workers: usize,
}

impl Default for CpuReferenceExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuReferenceExecutor {
    /// A new executor with an empty scratch pool and an uncapped per-batch
    /// worker fan-out (bounded by the host's parallelism and batch size).
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_workers(usize::MAX)
    }

    /// A new executor whose per-batch fan-out is capped at `max_workers`
    /// threads (minimum 1). Use `available cores / dispatch workers` when
    /// several engine workers execute batches concurrently.
    #[must_use]
    pub fn with_max_workers(max_workers: usize) -> Self {
        CpuReferenceExecutor {
            pool: ScratchPool::new(),
            max_workers: max_workers.max(1),
        }
    }

    /// Scratch-pool counters: `(fresh heap allocations, pool reuses)`.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.fresh_allocations(), self.pool.reuses())
    }
}

impl BatchExecutor for CpuReferenceExecutor {
    fn name(&self) -> &'static str {
        "cpu-reference"
    }

    fn execute(&self, ctx: &BatchContext<'_>) -> BatchOutcome {
        let start = Instant::now();
        let outputs = execute_network_batched_capped(
            ctx.per_sample,
            Some(ctx.schedule),
            ctx.weights,
            ctx.inputs,
            &self.pool,
            self.max_workers,
        );
        BatchOutcome {
            outputs: Some(outputs),
            device_time_us: start.elapsed().as_secs_f64() * 1e6,
        }
    }

    fn recycle_outputs(&self, outputs: Vec<TensorData>) {
        for tensor in outputs {
            self.pool.recycle_tensor(tensor);
        }
    }

    fn pool_stats(&self) -> Option<(u64, u64)> {
        Some(self.pool_stats())
    }
}

/// Charges batches the latency of the schedule on the analytical GPU
/// simulator, without computing numerics.
#[derive(Debug)]
pub struct SimulatedDeviceExecutor {
    cost: Arc<CachingCostModel<SimCostModel>>,
}

impl SimulatedDeviceExecutor {
    /// Uses (and shares) the given cost model for stage measurements.
    #[must_use]
    pub fn new(cost: Arc<CachingCostModel<SimCostModel>>) -> Self {
        SimulatedDeviceExecutor { cost }
    }
}

impl BatchExecutor for SimulatedDeviceExecutor {
    fn name(&self) -> &'static str {
        "simulated-device"
    }

    fn execute(&self, ctx: &BatchContext<'_>) -> BatchOutcome {
        // Re-measure the schedule's stages at *this* batch size; the caching
        // cost model makes repeat batches of the same size effectively free.
        let device_time_us = evaluate_network(ctx.network, ctx.schedule, &self.cost);
        BatchOutcome {
            outputs: None,
            device_time_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_backend::stack_batch;
    use ios_core::{optimize_network, SchedulerConfig};
    use ios_sim::{DeviceKind, Simulator};

    fn setup(batch: usize) -> (Network, Arc<NetworkSchedule>, NetworkWeights) {
        // SqueezeNet is the network whose batch-1 kernels under-utilize the
        // simulated V100 — the effect batched serving exists to exploit.
        let net = ios_models::squeezenet(1).with_batch_size(batch);
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let schedule = optimize_network(&net, &cost, &SchedulerConfig::paper_default()).schedule;
        let weights = NetworkWeights::precompute(&net);
        (net, Arc::new(schedule), weights)
    }

    #[test]
    fn simulated_executor_charges_sublinear_batch_time() {
        let cost = Arc::new(CachingCostModel::new(SimCostModel::new(Simulator::new(
            DeviceKind::TeslaV100,
        ))));
        let executor = SimulatedDeviceExecutor::new(Arc::clone(&cost));

        let (net1, schedule1, weights1) = setup(1);
        let input1 = TensorData::zeros(net1.input_shape);
        let outcome1 = executor.execute(&BatchContext {
            network: &net1,
            per_sample: &net1,
            schedule: &schedule1,
            weights: &weights1,
            inputs: &[input1],
        });
        assert!(outcome1.outputs.is_none());
        assert!(outcome1.device_time_us > 0.0);

        let batch = 32;
        let (net32, schedule32, weights32) = setup(batch);
        let sample = TensorData::zeros(net1.input_shape);
        let stacked = stack_batch(&vec![&sample; batch]);
        let outcome32 = executor.execute(&BatchContext {
            network: &net32,
            per_sample: &net1,
            schedule: &schedule32,
            weights: &weights32,
            inputs: &[stacked],
        });
        // The under-utilization effect of the simulated GPU: a batch of 32
        // costs less than half of 32 batches of one (≈ 2.4× throughput).
        assert!(
            outcome32.device_time_us < 0.5 * batch as f64 * outcome1.device_time_us,
            "batch-32 device time {} vs 32 × batch-1 {}",
            outcome32.device_time_us,
            batch as f64 * outcome1.device_time_us
        );
    }
}
