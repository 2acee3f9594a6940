//! Stage-level profiling on the CPU execution backend — the device half of
//! the paper's optimize → **profile** → execute loop.
//!
//! [`CpuStageProfiler`] implements [`ios_core::StageProfiler`]: given a
//! candidate stage, it executes that stage — concurrent groups on the
//! worker pool's lanes, merge stages through the packed merged-weight path —
//! through the very same [`execute_stage`] the serving executor runs, so
//! the latencies the scheduler optimizes against are latencies of the code
//! that will serve the schedule. [`ios_core::ProfiledCostModel`] supplies
//! the measurement policy (warmup, median-of-N, stage cache) on top.
//!
//! Per profiled graph the harness keeps a warmed state: precomputed
//! (packed) [`BlockWeights`] (shared across batch-resized instances of
//! one block — weights are batch-size independent), deterministic random
//! graph inputs, and a deterministic random output tensor for every
//! operator — the stage under profile reads its predecessors from that
//! state exactly like a mid-graph stage reads earlier stages' outputs.
//! Stage outputs produced by a run are recycled into the harness's
//! scratch pool before the next run, so repeat runs of a stage reuse its
//! tensors and timings measure compute, not the allocator (the only
//! per-run bookkeeping is two uncontended lock acquisitions and the
//! stage's group-list clone — sub-microsecond, and mirroring the
//! per-stage overhead the real executor pays anyway).

use crate::arena::ScratchPool;
use crate::batch::BlockWeights;
use crate::executor::execute_stage;
use crate::tensor_data::TensorData;
use ios_core::{graph_fingerprint, MergedConv, ParallelizationStrategy, Stage, StageProfiler};
use ios_ir::{Graph, OpId, OpSet};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Warmed per-graph profiling state: weights plus synthetic inputs and
/// predecessor outputs for every operator.
struct GraphState {
    weights: Arc<BlockWeights>,
    inputs: Vec<TensorData>,
    /// One slot per operator, pre-seeded with a deterministic random tensor
    /// of the operator's output shape so any stage can resolve its
    /// predecessors; stage runs overwrite their own ops' slots.
    outputs: Vec<Option<TensorData>>,
}

impl GraphState {
    fn build(graph: &Graph, seed: u64, weights: Arc<BlockWeights>) -> Self {
        let inputs = graph
            .input_shapes()
            .iter()
            .enumerate()
            .map(|(i, s)| TensorData::random(*s, seed ^ (0x5EED + i as u64)))
            .collect();
        let outputs = graph
            .ops()
            .iter()
            .map(|op| {
                Some(TensorData::random(
                    op.output_shape,
                    seed ^ (op.id.index() as u64).wrapping_mul(0x9E3779B97F4A7C15),
                ))
            })
            .collect();
        GraphState {
            weights,
            inputs,
            outputs,
        }
    }
}

/// A batch-independent structural fingerprint: graph name, per-input
/// channel count, operator kinds and wiring — everything the
/// deterministic weights depend on, and nothing that changes under
/// [`ios_ir::Network::with_batch_size`]. Batch-resized instances of one
/// block hash equal, so they share one precomputed [`BlockWeights`].
fn weights_fingerprint(graph: &Graph) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    graph.name().hash(&mut hasher);
    for shape in graph.input_shapes() {
        shape.channels.hash(&mut hasher);
    }
    for op in graph.ops() {
        op.kind.hash(&mut hasher);
        op.inputs.hash(&mut hasher);
    }
    hasher.finish()
}

/// The CPU execution backend as an on-device stage profiler.
///
/// Thread-safe: the per-graph state is locked per run (profiling is
/// serialized per graph anyway — concurrent timed runs would perturb each
/// other), so one warmed profiler can back a serving engine's schedule
/// optimizer and its background re-optimization workers at once.
pub struct CpuStageProfiler {
    pool: ScratchPool,
    graphs: Mutex<HashMap<u64, Arc<Mutex<GraphState>>>>,
    /// Precomputed weights shared across batch-resized instances of one
    /// block (weights are batch-size independent), keyed by
    /// [`weights_fingerprint`].
    weights: Mutex<HashMap<u64, Arc<BlockWeights>>>,
}

impl Default for CpuStageProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CpuStageProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuStageProfiler")
            .field("graphs", &self.graphs.lock().expect("graph map lock").len())
            .finish()
    }
}

impl CpuStageProfiler {
    /// A profiler running every stage through the executor's one stage
    /// runner, exactly like [`crate::execute_schedule`] will.
    #[must_use]
    pub fn new() -> Self {
        CpuStageProfiler {
            pool: ScratchPool::new(),
            graphs: Mutex::new(HashMap::new()),
            weights: Mutex::new(HashMap::new()),
        }
    }

    /// The shared precomputed weights for `graph`'s block structure,
    /// built once and reused by every batch-resized instance.
    fn weights_for(&self, graph: &Graph) -> Arc<BlockWeights> {
        let key = weights_fingerprint(graph);
        let mut weights = self.weights.lock().expect("weights map lock");
        Arc::clone(
            weights
                .entry(key)
                .or_insert_with(|| Arc::new(BlockWeights::precompute(graph))),
        )
    }

    /// Number of distinct graphs with warmed profiling state.
    #[must_use]
    pub fn warmed_graphs(&self) -> usize {
        self.graphs.lock().expect("graph map lock").len()
    }

    /// Scratch-pool counters `(fresh heap allocations, pool reuses)` — in
    /// steady-state profiling of a stage the fresh count stays flat.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.fresh_allocations(), self.pool.reuses())
    }

    fn state_for(&self, graph: &Graph) -> Arc<Mutex<GraphState>> {
        let fingerprint = graph_fingerprint(graph);
        if let Some(state) = self
            .graphs
            .lock()
            .expect("graph map lock")
            .get(&fingerprint)
        {
            return Arc::clone(state);
        }
        // Build outside the map lock (weight precompute + tensor seeding
        // is the expensive part); a racing builder's duplicate is dropped.
        let built = Arc::new(Mutex::new(GraphState::build(
            graph,
            fingerprint,
            self.weights_for(graph),
        )));
        let mut graphs = self.graphs.lock().expect("graph map lock");
        Arc::clone(graphs.entry(fingerprint).or_insert(built))
    }

    /// Runs one stage against the graph's warmed state: the stage ops'
    /// previous outputs are recycled into the pool first (so the run's own
    /// takes reuse them — allocation-free in steady state), then the stage
    /// executes through [`execute_stage`] and leaves fresh outputs in the
    /// state for any later stage that depends on them.
    fn run_stage(&self, graph: &Graph, stage: &Stage) {
        let state = self.state_for(graph);
        let mut state = state.lock().expect("graph state lock");
        for op in stage.ops.iter() {
            if let Some(previous) = state.outputs[op.index()].take() {
                self.pool.recycle_tensor(previous);
            }
        }
        let GraphState {
            weights,
            inputs,
            outputs,
        } = &mut *state;
        execute_stage(graph, stage, inputs, weights, outputs, &self.pool);
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

    fn device_name(&self) -> &'static str {
        "cpu-backend"
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
        // The mergeable pair runs through the packed merged-weight path.
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

    /// The profiled cost model does not learn: a second search of the same
    /// network against the same model hits the stage cache for every
    /// candidate and returns the schedule the first one found. (So a
    /// serving engine has nothing to gain from dropping a cached schedule
    /// and searching again.)
    #[test]
    fn a_second_search_against_one_profiled_model_measures_nothing_and_agrees() {
        use ios_core::optimize_network;
        use ios_ir::{Block, Network};
        // Three blocks of `3x3 || 1x1 -> concat -> 1x1` on 16 channels of
        // 16x16.
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
        let network = Network::new("small", input, blocks);
        let cost = ProfiledCostModel::with_policy(CpuStageProfiler::new(), 1, 3);
        let config = SchedulerConfig::paper_default();
        let first = optimize_network(&network, &cost, &config).schedule;
        let measured = cost.measurement_count();
        assert!(measured > 0);
        let second = optimize_network(&network, &cost, &config).schedule;
        assert_eq!(
            cost.measurement_count(),
            measured,
            "the second search measured a stage again"
        );
        assert_eq!(second, first);
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
        // …but share one precomputed weight table (weights are
        // batch-size independent).
        assert_eq!(
            profiler.weights.lock().unwrap().len(),
            1,
            "batch-resized instances must share one BlockWeights"
        );
    }
}
