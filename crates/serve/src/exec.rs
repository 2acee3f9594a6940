//! Pluggable batch execution backends.
//!
//! The engine is backend-agnostic: a [`BatchExecutor`] receives a fully
//! prepared batch (the network at batch size 1, the engine's one schedule,
//! precomputed weights, stacked inputs) and
//! returns stacked outputs plus the device time consumed. The backend that
//! ships, [`CpuReferenceExecutor`], computes real numerics through
//! `ios_backend`, bit-identical per sample to `execute_graph`; its "device
//! time" is the wall time of the CPU execution.

use ios_backend::{execute_network_batched_capped, NetworkWeights, ScratchPool, TensorData};
use ios_core::{NetworkSchedule, PipelinePlan};
use ios_ir::Network;
use std::sync::Arc;
use std::time::Instant;

/// Everything a backend needs to run one coalesced batch.
#[derive(Debug)]
pub struct BatchContext<'a> {
    /// The network at batch size 1 — what a backend that fans a batch out
    /// one sample per task executes.
    pub per_sample: &'a Network,
    /// The engine's one schedule, searched for `per_sample` when the engine
    /// started; every batch of every size runs it.
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
    /// Stacked output tensors, one per network output.
    pub outputs: Vec<TensorData>,
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
/// Not the whole network once at batch *b*: that stays bit-identical but
/// took `serve_open_squeezenet`'s peak RSS from 62–67 MB to 138 MB (seeds
/// 41–43; [`execute_network_batched_capped`] says why).
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
            outputs,
            device_time_us: start.elapsed().as_secs_f64() * 1e6,
        }
    }

    fn recycle_outputs(&self, outputs: Vec<TensorData>) {
        for tensor in outputs {
            self.pool.recycle_tensor(tensor);
        }
    }

    fn pool_stats(&self) -> Option<(u64, u64)> {
        Some((self.pool.fresh_allocations(), self.pool.reuses()))
    }
}
