//! Stage-level profiling on the CPU execution backend — the device half of
//! the paper's optimize → **profile** → execute loop.
//!
//! [`CpuStageProfiler`] implements [`ios_core::StageProfiler`]: given a
//! candidate stage, it executes that stage — concurrent groups on the
//! worker pool's lanes, merge stages as one walk over their parts' filters —
//! through the very same `execute_stage` the serving executor runs, so
//! the latencies the scheduler optimizes against are latencies of the code
//! that will serve the schedule. [`ios_core::ProfiledCostModel`] adds
//! warmup and median-of-N.
//!
//! Per profiled graph the harness keeps a warmed state: precomputed
//! (packed) [`BlockWeights`], deterministic random graph inputs, and a
//! deterministic random output tensor for every operator — the stage under
//! profile reads its predecessors from that state exactly like a mid-graph
//! stage reads earlier stages' outputs. Stage outputs produced by a run are
//! recycled into the harness's scratch pool before the next run, so repeat
//! runs of a stage reuse its tensors and timings measure compute, not the
//! allocator (the only per-run bookkeeping is one uncontended lock
//! acquisition, hashing the graph and the stage's group-list clone —
//! small, and mirroring the per-stage overhead the real executor pays
//! anyway).

use crate::arena::ScratchPool;
use crate::batch::BlockWeights;
use crate::executor::execute_stage;
use crate::tensor_data::TensorData;
use ios_core::{MergedConv, ParallelizationStrategy, Stage, StageProfiler};
use ios_ir::{Graph, Op, OpId, OpSet};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A structural fingerprint of a graph, keying its warmed state and seeding
/// its synthetic tensors: different blocks (names differ), different batch
/// sizes of one block (shapes differ), and same-shaped graphs whose
/// operators differ only in hyper-parameters (kinds differ) hash apart.
fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    graph.name().hash(&mut hasher);
    graph.input_shapes().hash(&mut hasher);
    for op in graph.ops() {
        op.kind.hash(&mut hasher);
        op.inputs.hash(&mut hasher);
        op.output_shape.hash(&mut hasher);
    }
    hasher.finish()
}

/// Warmed per-graph profiling state: weights plus synthetic inputs and
/// predecessor outputs for every operator.
struct GraphState {
    weights: BlockWeights,
    inputs: Vec<TensorData>,
    /// One slot per operator, pre-seeded with a deterministic random tensor
    /// of the operator's output shape so any stage can resolve its
    /// predecessors; stage runs overwrite their own ops' slots.
    outputs: Vec<Option<TensorData>>,
}

/// An operator's slot tensor, drawn from `seed`, the graph's fingerprint.
fn seeded_output(op: &Op, seed: u64) -> TensorData {
    TensorData::random(
        op.output_shape,
        seed ^ (op.id.index() as u64).wrapping_mul(0x9E3779B97F4A7C15),
    )
}

impl GraphState {
    fn build(graph: &Graph, seed: u64) -> Self {
        let inputs = graph
            .input_shapes()
            .iter()
            .enumerate()
            .map(|(i, s)| TensorData::random(*s, seed ^ (0x5EED + i as u64)))
            .collect();
        let outputs = graph
            .ops()
            .iter()
            .map(|op| Some(seeded_output(op, seed)))
            .collect();
        GraphState {
            weights: BlockWeights::precompute(graph),
            inputs,
            outputs,
        }
    }
}

/// The CPU execution backend as an on-device stage profiler.
///
/// Runs one stage at a time: the warmed states are locked for the whole
/// run, since concurrent timed runs would perturb each other.
pub struct CpuStageProfiler {
    pool: ScratchPool,
    graphs: Mutex<HashMap<u64, GraphState>>,
}

impl Default for CpuStageProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CpuStageProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuStageProfiler")
            .field("graphs", &self.graphs.lock().len())
            .finish()
    }
}

impl CpuStageProfiler {
    /// A profiler running every stage through the executor's one stage
    /// runner, exactly like [`crate::execute_schedule_pooled`] will.
    #[must_use]
    pub fn new() -> Self {
        CpuStageProfiler {
            pool: ScratchPool::new(),
            graphs: Mutex::new(HashMap::new()),
        }
    }

    /// Number of distinct graphs with warmed profiling state.
    #[must_use]
    pub fn warmed_graphs(&self) -> usize {
        self.graphs.lock().len()
    }

    /// Scratch-pool counters `(fresh heap allocations, pool reuses)` — in
    /// steady-state profiling of a stage the fresh count stays flat.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.fresh_allocations(), self.pool.reuses())
    }

    /// Runs one stage against the graph's warmed state: the stage ops'
    /// previous outputs are recycled into the pool first (so the run's own
    /// takes reuse them — allocation-free in steady state), then the stage
    /// executes through [`execute_stage`] and leaves fresh outputs in the
    /// state for any later stage that depends on them. A stage that panics
    /// re-seeds the slots it emptied, so later stages find their inputs.
    fn run_stage(&self, graph: &Graph, stage: &Stage) {
        let seed = graph_fingerprint(graph);
        let mut graphs = self.graphs.lock();
        let state = graphs
            .entry(seed)
            .or_insert_with(|| GraphState::build(graph, seed));
        for op in stage.ops.iter() {
            if let Some(previous) = state.outputs[op.index()].take() {
                self.pool.recycle_tensor(previous);
            }
        }
        let GraphState {
            weights,
            inputs,
            outputs,
        } = state;
        let run = AssertUnwindSafe(|| {
            execute_stage(graph, stage, inputs, weights, outputs, &self.pool);
        });
        if let Err(panic) = catch_unwind(run) {
            for op in stage.ops.iter() {
                outputs[op.index()].get_or_insert_with(|| seeded_output(graph.op(op), seed));
            }
            resume_unwind(panic);
        }
    }
}

impl StageProfiler for CpuStageProfiler {
    fn run_concurrent(&self, graph: &Graph, groups: &[Vec<OpId>]) {
        let ops: OpSet = groups.iter().flatten().copied().collect();
        let stage = Stage {
            ops,
            strategy: ParallelizationStrategy::ConcurrentExecution,
            groups: groups.to_vec(),
            measured_latency_us: 0.0,
        };
        self.run_stage(graph, &stage);
    }

    fn run_merge(&self, graph: &Graph, merged: &MergedConv) {
        let stage = Stage {
            ops: merged.parts.iter().copied().collect(),
            strategy: ParallelizationStrategy::OperatorMerge,
            groups: vec![merged.parts.clone()],
            measured_latency_us: 0.0,
        };
        self.run_stage(graph, &stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::verify_schedule;
    use ios_core::{schedule_graph, CostModel, ProfiledCostModel, SchedulerConfig};
    use ios_ir::{Conv2dParams, GraphBuilder, PoolParams, TensorShape};

    /// A multi-branch block with mergeable convolutions — the same shape
    /// family the executor tests pin down.
    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("profile_block", TensorShape::new(1, 8, 10, 10));
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(12, (1, 1), (1, 1), (0, 0)));
        let d = b.conv2d("d", a, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let p = b.pool("p", x, PoolParams::max((3, 3), (2, 2), (0, 0)));
        let pc = b.conv2d("pc", p, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[c, d]);
        b.build(vec![cat, pc])
    }

    #[test]
    fn profiles_concurrent_and_merge_stages_with_warmed_state() {
        let g = branchy();
        let profiler = CpuStageProfiler::new();
        // A mid-graph stage whose ops read predecessors outside the stage:
        // resolved from the warmed per-op state.
        profiler.run_concurrent(&g, &[vec![OpId(2)], vec![OpId(3), OpId(4)]]);
        assert_eq!(profiler.warmed_graphs(), 1);
        // The mergeable pair runs as one walk over both parts' filters.
        let merged = ios_core::try_merge(&g, [OpId(0), OpId(1)].into_iter().collect()).unwrap();
        profiler.run_merge(&g, &merged);
        assert_eq!(profiler.warmed_graphs(), 1, "same graph, same state");

        // Steady state: repeating a stage allocates nothing fresh.
        profiler.run_concurrent(&g, &[vec![OpId(2)], vec![OpId(3), OpId(4)]]);
        let (fresh, _) = profiler.pool_stats();
        profiler.run_concurrent(&g, &[vec![OpId(2)], vec![OpId(3), OpId(4)]]);
        let (fresh_after, reuses) = profiler.pool_stats();
        assert_eq!(
            fresh_after, fresh,
            "repeat stage runs must be allocation-free"
        );
        assert!(reuses > 0);
    }

    #[test]
    fn a_panicking_stage_leaves_the_warmed_state_whole() {
        // `d` reads `a`: listed against that order, the group panics with
        // both slots already taken out of the warmed state.
        let g = branchy();
        let profiler = CpuStageProfiler::new();
        let (a, d) = (OpId(0), OpId(2));
        let backwards = std::panic::catch_unwind(AssertUnwindSafe(|| {
            profiler.run_concurrent(&g, &[vec![d, a]]);
        }));
        assert!(backwards.is_err(), "an intra-group dependency must panic");
        // `d` alone finds `a` re-seeded, however often it is profiled.
        for _ in 0..2 {
            profiler.run_concurrent(&g, &[vec![d]]);
        }
        assert_eq!(profiler.warmed_graphs(), 1);
    }

    #[test]
    fn profiled_dp_schedule_executes_correctly_on_the_backend() {
        // The full loop: optimize against CPU-measured stage latencies,
        // then execute the winning schedule on the same backend and check
        // it preserves the network's semantics.
        let g = branchy();
        let cost = ProfiledCostModel::with_policy(CpuStageProfiler::new(), 1, 3);
        let result = schedule_graph(&g, &cost, &SchedulerConfig::paper_default());
        assert!(result.schedule.validate(&g).is_ok());
        assert!(result.latency_us > 0.0);
        assert!(cost.measurement_count() > 0);
        let diff = verify_schedule(&g, &result.schedule, 17);
        assert_eq!(diff, 0.0, "difference = {diff}");
    }

    #[test]
    fn distinct_batch_sizes_get_distinct_profiles() {
        let g1 = branchy();
        // The same block at batch 4: structurally identical, different
        // shapes — must warm a separate state (and measure differently).
        let mut b = GraphBuilder::new("profile_block", TensorShape::new(4, 8, 10, 10));
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(12, (1, 1), (1, 1), (0, 0)));
        let d = b.conv2d("d", a, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let p = b.pool("p", x, PoolParams::max((3, 3), (2, 2), (0, 0)));
        let pc = b.conv2d("pc", p, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[c, d]);
        let g4 = b.build(vec![cat, pc]);

        let profiler = CpuStageProfiler::new();
        profiler.run_concurrent(&g1, &[vec![OpId(0)], vec![OpId(1)]]);
        profiler.run_concurrent(&g4, &[vec![OpId(0)], vec![OpId(1)]]);
        assert_eq!(
            profiler.warmed_graphs(),
            2,
            "batch-1 and batch-4 instances are distinct profiling targets"
        );
    }
}
