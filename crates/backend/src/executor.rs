//! Graph and schedule execution on the CPU reference backend.
//!
//! [`execute_graph`] runs a graph sequentially in topological order;
//! [`execute_schedule`] runs an IOS schedule stage by stage, executing the
//! groups of a concurrent stage on the lanes of the shared worker pool
//! ([`crate::workers`]) and executing merged stages through an actual merged weight tensor plus a split — so a
//! passing [`verify_schedule`] demonstrates that the schedule transformation
//! preserves the network's semantics, the guarantee cuDNN gives the paper's
//! engine for free.
//!
//! Every execution runs from precomputed weights ([`BlockWeights`]): the
//! `*_pooled` entry points take them from the caller — or precompute them
//! for the call when given `None` — and draw all scratch and output storage
//! from a caller-owned [`ScratchPool`]; [`execute_graph`] and
//! [`execute_schedule`] precompute per call and use the process-global
//! pool.

use crate::arena::{global_pool, Arena, ScratchPool, ScratchScope};
use crate::batch::BlockWeights;
use crate::gemm::{conv2d, ConvEpilogue};
use crate::ops_cpu::{copy_of, execute_op};
use crate::tensor_data::TensorData;
use crate::workers;
use ios_core::{try_merge, ParallelizationStrategy, Schedule};
use ios_ir::{Activation, Graph, Op, OpId, OpKind, Value};

/// How the executor treats one operator under the standalone-ReLU peephole
/// ([`relu_fold_plan`]): a standalone [`OpKind::Relu`] whose input is a
/// convolution with no other consumer is folded into that convolution's
/// epilogue — the activation applies while the output tile is register-hot
/// — and the ReLU op itself degenerates to a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldedRelu {
    /// Execute the operator as written.
    None,
    /// A convolution that absorbs the standalone ReLU consuming it:
    /// executed with [`Activation::Relu`] fused into its epilogue.
    FuseRelu,
    /// The standalone ReLU whose work moved into the named convolution:
    /// its input already carries the activation, so it copies.
    CopyOf(OpId),
}

/// Plans the standalone-ReLU peephole for `graph`: one entry per operator.
/// An [`OpKind::Relu`] folds into the convolution producing its input when
/// that convolution has no other consumer and is not itself a graph output
/// (folding changes the producer's stored tensor, which must stay
/// observable otherwise). The fold is bit-identical: the fused epilogue
/// applies the same `max(0,·)` the standalone pass would, and re-applying
/// ReLU to an already-rectified tensor is the identity.
#[must_use]
pub fn relu_fold_plan(graph: &Graph) -> Vec<FoldedRelu> {
    let mut plan = vec![FoldedRelu::None; graph.len()];
    let mut consumers = vec![0usize; graph.len()];
    for op in graph.ops() {
        for v in &op.inputs {
            if let Value::Op(id) = v {
                consumers[id.index()] += 1;
            }
        }
    }
    let mut is_output = vec![false; graph.len()];
    for v in graph.outputs() {
        if let Value::Op(id) = v {
            is_output[id.index()] = true;
        }
    }
    for op in graph.ops() {
        if op.kind != OpKind::Relu {
            continue;
        }
        let src = match op.inputs.as_slice() {
            [Value::Op(src)] => *src,
            _ => continue,
        };
        if consumers[src.index()] != 1 || is_output[src.index()] {
            continue;
        }
        if !matches!(graph.op(src).kind, OpKind::Conv2d(_)) {
            continue;
        }
        plan[src.index()] = FoldedRelu::FuseRelu;
        plan[op.id.index()] = FoldedRelu::CopyOf(src);
    }
    plan
}

/// Per-operator weight seed: stable across execution strategies. Every
/// weight tensor is `conv_weights` / `matmul_weights` of this seed (split
/// by `sep_conv_seeds` for a separable unit), which is how a test oracle
/// rebuilds the weights an executor ran with.
#[must_use]
pub fn weight_seed(graph: &Graph, op: OpId) -> u64 {
    // Combine the graph name hash and the operator index so different blocks
    // get different weights but the same block always gets the same ones.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in graph.name().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h ^ (op.index() as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

fn resolve<'a>(
    value: Value,
    inputs: &'a [TensorData],
    outputs: &'a [Option<TensorData>],
) -> &'a TensorData {
    match value {
        Value::Input(i) => &inputs[i],
        Value::Op(id) => outputs[id.index()]
            .as_ref()
            .expect("producer already executed"),
    }
}

/// Executes one operator with its precomputed weights under `fold`.
fn run_op(
    op: &Op,
    op_inputs: &[&TensorData],
    weights: &BlockWeights,
    fold: FoldedRelu,
    arena: &impl Arena,
) -> TensorData {
    if let FoldedRelu::CopyOf(_) = fold {
        // The producing convolution already applied this ReLU in its
        // epilogue; the input is rectified, so the op is a copy.
        return copy_of(op_inputs[0], arena);
    }
    let fuse_relu = fold == FoldedRelu::FuseRelu;
    execute_op(op, op_inputs, weights.get(op.id), fuse_relu, arena)
}

/// Executes the graph sequentially and returns every operator's output.
/// Weights are precomputed once for the call.
///
/// # Panics
///
/// Panics if `inputs` does not match the graph's declared input shapes.
#[must_use]
pub fn execute_graph(graph: &Graph, inputs: &[TensorData]) -> Vec<TensorData> {
    execute_graph_pooled(graph, inputs, None, global_pool())
}

/// [`execute_graph`] with the block's precomputed `weights` (`None`
/// precomputes them for this call), drawing scratch and output storage
/// from `arena`. The returned tensors are owned by the caller; recycle them
/// back into `arena` to keep steady-state execution allocation-free.
///
/// # Panics
///
/// Panics if `inputs` does not match the graph's declared input shapes.
#[must_use]
pub fn execute_graph_pooled(
    graph: &Graph,
    inputs: &[TensorData],
    weights: Option<&BlockWeights>,
    arena: &ScratchPool,
) -> Vec<TensorData> {
    check_inputs(graph, inputs);
    let mut precomputed = None;
    let weights = weights.unwrap_or_else(|| precomputed.insert(BlockWeights::precompute(graph)));
    let plan = weights.fold_plan();
    let mut outputs: Vec<Option<TensorData>> = vec![None; graph.len()];
    for id in graph.topological_order() {
        let op = graph.op(id);
        let op_inputs: Vec<&TensorData> = op
            .inputs
            .iter()
            .map(|v| resolve(*v, inputs, &outputs))
            .collect();
        let out = run_op(op, &op_inputs, weights, plan[id.index()], arena);
        assert_eq!(
            out.shape, op.output_shape,
            "shape inference mismatch for {}",
            op.name
        );
        outputs[id.index()] = Some(out);
    }
    outputs
        .into_iter()
        .map(|o| o.expect("all ops executed"))
        .collect()
}

/// Executes an IOS schedule stage by stage and returns every operator's
/// output. Concurrent-execution stages run their groups on the worker
/// pool's lanes; operator-merge stages run one merged convolution built from the
/// stacked (and zero-padded) per-operator weights, followed by a split.
/// Weights are precomputed once for the call.
///
/// # Panics
///
/// Panics if the schedule is not valid for `graph` or the inputs mismatch.
#[must_use]
pub fn execute_schedule(
    graph: &Graph,
    schedule: &Schedule,
    inputs: &[TensorData],
) -> Vec<TensorData> {
    execute_schedule_pooled(graph, schedule, inputs, None, global_pool())
}

/// [`execute_schedule`] with the block's precomputed `weights` (`None`
/// precomputes them for this call), drawing scratch and output storage
/// from `arena`. The lanes running the groups share the arena; the
/// returned tensors are owned by the caller.
///
/// # Panics
///
/// Panics if the schedule is not valid for `graph` or the inputs mismatch.
#[must_use]
pub fn execute_schedule_pooled(
    graph: &Graph,
    schedule: &Schedule,
    inputs: &[TensorData],
    weights: Option<&BlockWeights>,
    arena: &ScratchPool,
) -> Vec<TensorData> {
    check_inputs(graph, inputs);
    schedule
        .validate(graph)
        .expect("schedule must be valid for the graph");
    let mut precomputed = None;
    let weights = weights.unwrap_or_else(|| precomputed.insert(BlockWeights::precompute(graph)));
    let mut outputs: Vec<Option<TensorData>> = vec![None; graph.len()];
    for stage in &schedule.stages {
        execute_stage(graph, stage, inputs, weights, &mut outputs, arena);
    }
    outputs
        .into_iter()
        .map(|o| o.expect("all ops executed"))
        .collect()
}

/// The completed operator outputs of one stage group, drop-drained: if the
/// stage unwinds — this group's worker panicked mid-op, or a *sibling*
/// group's did and the collected results are dropped at the join — every
/// tensor still held here is recycled back into the pool instead of
/// leaking to the heap. Together with [`ScratchScope`]'s own drop-drain
/// this keeps the pool's steady-state accounting exact across panics: a
/// serving runtime that catches a batch panic keeps executing with its
/// pool intact.
struct GroupOutputs<'a> {
    arena: &'a ScratchPool,
    ops: Vec<(OpId, TensorData)>,
}

impl Drop for GroupOutputs<'_> {
    fn drop(&mut self) {
        for (_, tensor) in self.ops.drain(..) {
            self.arena.recycle_tensor(tensor);
        }
    }
}

/// Executes one schedule stage against a partial per-operator output state:
/// stage operators read graph `inputs` and already-filled `outputs` slots
/// and write their own slots. This is the one stage runner: the schedule
/// executors, the batched network path and the
/// stage-profiling harness ([`crate::profile::CpuStageProfiler`]) all come
/// through here — so the scheduler optimizes against exactly the code that
/// serves.
///
/// Concurrent-execution groups run as one job on the worker pool — the
/// caller takes groups beside whichever lanes are idle (on a busy pool it
/// simply runs them all itself), and a lane done with its group helps the
/// others' operator chunks — unless the whole stage is smaller than two
/// grains ([`workers::GRAIN_MACS`]), which nothing is posted for: a size
/// read off the stage itself, the same at every batch size and for every
/// caller. Every group routes its scratch through a
/// [`ScratchScope`], an uncontended local free list that drains back into
/// `arena` when the group finishes, so intermediates recycle without
/// taking the shared pool mutex per buffer. Both the scope and the group's
/// completed outputs drain back on **panic** too ([`GroupOutputs`]), so a
/// panicking group cannot leak pooled buffers: the pool lets the other
/// groups finish, drops their results and re-raises the panic here.
pub(crate) fn execute_stage(
    graph: &Graph,
    stage: &ios_core::Stage,
    inputs: &[TensorData],
    weights: &BlockWeights,
    outputs: &mut [Option<TensorData>],
    arena: &ScratchPool,
) {
    let mut stage_span = ios_telemetry::tracer().span(
        match stage.strategy {
            ParallelizationStrategy::ConcurrentExecution => "stage.concurrent",
            ParallelizationStrategy::OperatorMerge => "stage.merge",
        },
        "exec",
    );
    stage_span.set_id(stage.groups.len() as u64);
    let plan = weights.fold_plan();
    match stage.strategy {
        ParallelizationStrategy::ConcurrentExecution => {
            // Each group runs independently on whichever lane claims it;
            // groups only read outputs of earlier stages or earlier ops of
            // their own group, so a snapshot of `outputs` is sufficient
            // input state and the order groups run in cannot change any
            // result.
            let snapshot: &[Option<TensorData>] = outputs;
            let run_group = |group: &Vec<OpId>| {
                let scope = ScratchScope::new(arena);
                let mut local = GroupOutputs {
                    arena,
                    ops: Vec::new(),
                };
                for &op_id in group {
                    let op = graph.op(op_id);
                    let op_inputs: Vec<&TensorData> = op
                        .inputs
                        .iter()
                        .map(|v| match v {
                            Value::Input(i) => &inputs[*i],
                            Value::Op(id) => {
                                if let Some(t) = snapshot[id.index()].as_ref() {
                                    t
                                } else {
                                    local
                                        .ops
                                        .iter()
                                        .find(|(lid, _)| lid == id)
                                        .map(|(_, t)| t)
                                        .expect("intra-group dependency")
                                }
                            }
                        })
                        .collect();
                    let out = run_op(op, &op_inputs, weights, plan[op_id.index()], &scope);
                    local.ops.push((op_id, out));
                }
                // `scope` drops here: its retained scratch drains back into
                // the shared arena before the group's results are stitched.
                local
            };
            // The groups are cut into chunks by the rule that splits an
            // operator (`workers::op_chunks`): a stage of fewer than two
            // grains is over before a parked lane could join it — and a
            // lane that does take a group makes the caller sleep until it
            // is done (measured: 8 % on a batch of eight 0.6 M-MAC
            // stages) — so it runs on its caller, posting nothing.
            let chunks = if stage.groups.len() > 1 {
                let macs: u64 = stage.ops.iter().map(|op| graph.op_flops(op) / 2).sum();
                workers::op_chunks(stage.groups.len(), macs as usize)
            } else {
                1
            };
            let chunk_results: Vec<Vec<GroupOutputs<'_>>> =
                workers::parallel_map(chunks, |chunk| {
                    workers::chunk_range(stage.groups.len(), chunks, chunk)
                        .map(|g| run_group(&stage.groups[g]))
                        .collect()
                });
            for mut group in chunk_results.into_iter().flatten() {
                for (op_id, tensor) in group.ops.drain(..) {
                    outputs[op_id.index()] = Some(tensor);
                }
            }
        }
        ParallelizationStrategy::OperatorMerge => {
            let merged = try_merge(graph, stage.ops)
                .expect("merged stage must satisfy the merge eligibility rule");
            // The merged tensor is built once per distinct stage and cached
            // (pre-packed) inside the BlockWeights; repeat batches execute
            // it directly.
            let stage_weights = weights.merged_stage(graph, &merged);
            let input = resolve(merged.input, inputs, outputs);
            let merged_out = conv2d(
                input,
                &merged.params,
                &stage_weights,
                &ConvEpilogue::default(),
                arena,
            );
            // Split the merged output back into the per-part outputs:
            // each part's channels are one contiguous block per sample.
            let plane = merged_out.shape.height * merged_out.shape.width;
            let merged_item = merged.params.out_channels * plane;
            let mut oc_offset = 0usize;
            for (&part, &section) in merged.parts.iter().zip(&merged.split_sections) {
                let op = graph.op(part);
                let mut part_out = arena.take_tensor(op.output_shape);
                let section_len = section * plane;
                for n in 0..part_out.shape.batch {
                    let src = n * merged_item + oc_offset * plane;
                    part_out.data[n * section_len..(n + 1) * section_len]
                        .copy_from_slice(&merged_out.data[src..src + section_len]);
                }
                // A part that absorbed a standalone ReLU still owes that
                // activation when the merged kernel did not apply one.
                if plan[part.index()] == FoldedRelu::FuseRelu
                    && merged.params.activation != Activation::Relu
                {
                    for v in &mut part_out.data {
                        *v = v.max(0.0);
                    }
                }
                outputs[part.index()] = Some(part_out);
                oc_offset += section;
            }
            arena.recycle_tensor(merged_out);
        }
    }
}

/// Largest absolute element-wise difference between two executions.
#[must_use]
pub fn max_abs_difference(a: &[TensorData], b: &[TensorData]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "executions cover different operator counts"
    );
    let mut max = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.shape, y.shape);
        for (u, v) in x.data.iter().zip(&y.data) {
            max = max.max((u - v).abs());
        }
    }
    max
}

/// Executes the graph both sequentially and under `schedule` with the same
/// random inputs and returns the largest absolute difference across all
/// operator outputs. Schedules are exact for finite inputs — a merge's
/// zero-padded taps add `fma(0, x, acc) = acc` — so `0.0` demonstrates the
/// schedule preserves semantics.
#[must_use]
pub fn verify_schedule(graph: &Graph, schedule: &Schedule, seed: u64) -> f32 {
    let inputs: Vec<TensorData> = graph
        .input_shapes()
        .iter()
        .enumerate()
        .map(|(i, s)| TensorData::random(*s, seed.wrapping_add(i as u64)))
        .collect();
    let reference = execute_graph(graph, &inputs);
    let scheduled = execute_schedule(graph, schedule, &inputs);
    max_abs_difference(&reference, &scheduled)
}

fn check_inputs(graph: &Graph, inputs: &[TensorData]) {
    assert_eq!(
        graph.input_shapes().len(),
        inputs.len(),
        "wrong number of graph inputs"
    );
    for (shape, tensor) in graph.input_shapes().iter().zip(inputs) {
        assert_eq!(*shape, tensor.shape, "graph input shape mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_cpu::{conv2d_naive, conv_weights};
    use ios_core::{greedy_schedule, schedule_graph, SchedulerConfig, SimCostModel};
    use ios_ir::Conv2dParams;
    use ios_ir::{GraphBuilder, TensorShape};
    use ios_sim::{DeviceKind, Simulator};

    /// A small multi-branch block with mergeable convolutions.
    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("verify_block", TensorShape::new(1, 8, 10, 10));
        let x = b.input(0);
        let a = b.conv2d(
            "a",
            x,
            ios_ir::Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)),
        );
        let c = b.conv2d("c", x, Conv2dParams::relu(12, (1, 1), (1, 1), (0, 0)));
        let d = b.conv2d("d", a, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let p = b.pool("p", x, ios_ir::PoolParams::max((3, 3), (2, 2), (0, 0)));
        let pc = b.conv2d("pc", p, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[c, d]);
        b.build(vec![cat, pc])
    }

    #[test]
    fn sequential_execution_produces_expected_shapes() {
        let g = branchy();
        let inputs = vec![TensorData::random(TensorShape::new(1, 8, 10, 10), 1)];
        let outs = execute_graph(&g, &inputs);
        assert_eq!(outs.len(), g.len());
        for (op, out) in g.ops().iter().zip(&outs) {
            assert_eq!(op.output_shape, out.shape);
        }
    }

    #[test]
    fn greedy_schedule_execution_matches_sequential() {
        let g = branchy();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let schedule = greedy_schedule(&g, &cost);
        let diff = verify_schedule(&g, &schedule, 3);
        assert_eq!(diff, 0.0, "difference = {diff}");
    }

    #[test]
    fn ios_schedule_execution_matches_sequential_including_merge() {
        let g = branchy();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let result = schedule_graph(&g, &cost, &SchedulerConfig::paper_default());
        let diff = verify_schedule(&g, &result.schedule, 7);
        assert_eq!(diff, 0.0, "difference = {diff}");
    }

    #[test]
    fn forced_merge_stage_matches_sequential() {
        // A hand-built schedule that merges the two shared-input convs
        // (a 3×3 and c 1×1 — the padding path) to pin down merge semantics.
        let g = branchy();
        let schedule = forced_merge_schedule(&g);
        let diff = verify_schedule(&g, &schedule, 11);
        assert_eq!(diff, 0.0, "difference = {diff}");
    }

    /// The hand-built schedule of `forced_merge_stage_matches_sequential`,
    /// reused by the merged-weight cache test.
    fn forced_merge_schedule(g: &Graph) -> Schedule {
        let merged_ops: ios_ir::OpSet = [OpId(0), OpId(1)].into_iter().collect();
        assert!(try_merge(g, merged_ops).is_some());
        Schedule::new(
            g.name(),
            vec![
                ios_core::Stage {
                    ops: merged_ops,
                    strategy: ParallelizationStrategy::OperatorMerge,
                    groups: vec![vec![OpId(0), OpId(1)]],
                    measured_latency_us: 1.0,
                },
                ios_core::Stage {
                    ops: [OpId(2), OpId(3)].into_iter().collect(),
                    strategy: ParallelizationStrategy::ConcurrentExecution,
                    groups: vec![vec![OpId(2)], vec![OpId(3)]],
                    measured_latency_us: 1.0,
                },
                ios_core::Stage {
                    ops: [OpId(4), OpId(5)].into_iter().collect(),
                    strategy: ParallelizationStrategy::ConcurrentExecution,
                    groups: vec![vec![OpId(4)], vec![OpId(5)]],
                    measured_latency_us: 1.0,
                },
            ],
        )
    }

    #[test]
    fn merged_stage_weights_are_built_once_and_cached() {
        let g = branchy();
        let schedule = forced_merge_schedule(&g);
        let weights = BlockWeights::precompute(&g);
        let inputs = vec![TensorData::random(TensorShape::new(1, 8, 10, 10), 55)];

        let run = |weights: Option<&BlockWeights>| {
            execute_schedule_pooled(&g, &schedule, &inputs, weights, global_pool())
        };
        let first = run(Some(&weights));
        assert_eq!(weights.merged_builds(), 1, "first batch builds the stage");
        assert_eq!(weights.merged_hits(), 0);
        let second = run(Some(&weights));
        assert_eq!(
            weights.merged_builds(),
            1,
            "repeat batches must not rebuild the merged tensor"
        );
        assert_eq!(weights.merged_hits(), 1);
        assert_eq!(first, second);

        // `None` precomputes a fresh weight set for the call: same bits,
        // and the caller's set is left alone.
        assert_eq!(first, run(None));
        assert_eq!(weights.merged_builds(), 1);
    }

    #[test]
    fn pooled_execution_is_bit_identical_and_reuses_buffers() {
        let g = branchy();
        let inputs = vec![TensorData::random(TensorShape::new(1, 8, 10, 10), 33)];
        let weights = BlockWeights::precompute(&g);
        let reference = execute_graph(&g, &inputs);

        let arena = ScratchPool::new();
        let first = execute_graph_pooled(&g, &inputs, Some(&weights), &arena);
        assert_eq!(first, reference);
        for t in first {
            arena.recycle_tensor(t);
        }
        let after_warmup = arena.fresh_allocations();
        let second = execute_graph_pooled(&g, &inputs, Some(&weights), &arena);
        assert_eq!(second, reference);
        assert_eq!(
            arena.fresh_allocations(),
            after_warmup,
            "a warmed-up pool must serve the whole op loop without fresh allocations"
        );
    }

    #[test]
    fn standalone_relu_after_conv_folds_bit_identically() {
        // conv (no activation) → standalone relu → conv: the relu must fold
        // into the first conv's epilogue and degrade to a copy.
        let shape = TensorShape::new(1, 4, 8, 8);
        let mut b = GraphBuilder::new("fold", shape);
        let x = b.input(0);
        let c = b.conv2d("c", x, Conv2dParams::plain(6, (3, 3), (1, 1), (1, 1)));
        let r = b.relu("r", c);
        let d = b.conv2d("d", r, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let g = b.build(vec![d]);
        let plan = relu_fold_plan(&g);
        assert_eq!(plan[0], FoldedRelu::FuseRelu);
        assert_eq!(plan[1], FoldedRelu::CopyOf(OpId(0)));
        assert_eq!(plan[2], FoldedRelu::None);

        // Reference: the naive unfused convolution followed by a separate
        // whole-tensor max(0,·) pass.
        let inputs = vec![TensorData::random(shape, 77)];
        let ios_ir::OpKind::Conv2d(p) = &g.op(OpId(0)).kind else {
            unreachable!()
        };
        let filter = conv_weights(weight_seed(&g, OpId(0)), p.out_channels, 4, p.kernel);
        let mut rectified = conv2d_naive(&inputs[0], p, &filter);
        for v in &mut rectified.data {
            *v = v.max(0.0);
        }

        let folded = execute_graph(&g, &inputs);
        assert_eq!(
            folded[0], rectified,
            "fused conv output must carry the ReLU"
        );
        assert_eq!(folded[1], rectified, "the folded ReLU op is a copy");
    }

    #[test]
    fn relu_fold_skips_convs_with_other_consumers_or_output_exposure() {
        let shape = TensorShape::new(1, 4, 6, 6);
        // The conv output is itself a graph output: folding would change it.
        let mut b = GraphBuilder::new("nofold_output", shape);
        let x = b.input(0);
        let c = b.conv2d("c", x, Conv2dParams::plain(4, (3, 3), (1, 1), (1, 1)));
        let r = b.relu("r", c);
        let g = b.build(vec![r, c]);
        assert!(relu_fold_plan(&g).iter().all(|f| *f == FoldedRelu::None));

        // The conv has a second consumer that needs the pre-ReLU tensor.
        let mut b = GraphBuilder::new("nofold_twouse", shape);
        let x = b.input(0);
        let c = b.conv2d("c", x, Conv2dParams::plain(4, (3, 3), (1, 1), (1, 1)));
        let r = b.relu("r", c);
        let a = b.add_op("a", &[r, c]);
        let g = b.build(vec![a]);
        assert!(relu_fold_plan(&g).iter().all(|f| *f == FoldedRelu::None));
    }

    #[test]
    fn folded_relu_survives_a_merged_stage() {
        // Two plain convs share the input and merge; one of them absorbed a
        // standalone ReLU, which the split must re-apply since the merged
        // kernel ran without an activation.
        let shape = TensorShape::new(1, 4, 8, 8);
        let mut b = GraphBuilder::new("fold_merge", shape);
        let x = b.input(0);
        let c0 = b.conv2d("c0", x, Conv2dParams::plain(6, (3, 3), (1, 1), (1, 1)));
        let c1 = b.conv2d("c1", x, Conv2dParams::plain(4, (1, 1), (1, 1), (0, 0)));
        let r = b.relu("r", c0);
        let g = b.build(vec![r, c1]);
        assert_eq!(relu_fold_plan(&g)[0], FoldedRelu::FuseRelu);

        let merged_ops: ios_ir::OpSet = [OpId(0), OpId(1)].into_iter().collect();
        assert!(try_merge(&g, merged_ops).is_some());
        let schedule = Schedule::new(
            g.name(),
            vec![
                ios_core::Stage {
                    ops: merged_ops,
                    strategy: ParallelizationStrategy::OperatorMerge,
                    groups: vec![vec![OpId(0), OpId(1)]],
                    measured_latency_us: 1.0,
                },
                ios_core::Stage {
                    ops: [OpId(2)].into_iter().collect(),
                    strategy: ParallelizationStrategy::ConcurrentExecution,
                    groups: vec![vec![OpId(2)]],
                    measured_latency_us: 1.0,
                },
            ],
        );
        let diff = verify_schedule(&g, &schedule, 13);
        assert_eq!(diff, 0.0, "difference = {diff}");
    }

    #[test]
    #[should_panic(expected = "wrong number of graph inputs")]
    fn input_count_mismatch_panics() {
        let g = branchy();
        let _ = execute_graph(&g, &[]);
    }

    #[test]
    fn panicking_stage_worker_drains_everything_back_to_the_pool() {
        // A malformed stage puts `d` (OpId 2) and its dependency `a`
        // (OpId 0) in *different* groups of one stage: group [0] completes
        // its convolution (taking pool buffers), then group [2] panics
        // resolving its input. Both the completed group's outputs
        // (GroupOutputs guard) and every scope's scratch must drain back,
        // so repeat panicking runs allocate nothing fresh — the pool a
        // serving engine keeps across a caught batch panic stays exact.
        let g = branchy();
        let weights = BlockWeights::precompute(&g);
        let arena = ScratchPool::new();
        let inputs = vec![TensorData::random(TensorShape::new(1, 8, 10, 10), 9)];
        let bad = ios_core::Stage {
            ops: [OpId(0), OpId(2)].into_iter().collect(),
            strategy: ParallelizationStrategy::ConcurrentExecution,
            groups: vec![vec![OpId(0)], vec![OpId(2)]],
            measured_latency_us: 0.0,
        };
        let run = || {
            let mut outputs: Vec<Option<TensorData>> = vec![None; g.len()];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_stage(&g, &bad, &inputs, &weights, &mut outputs, &arena);
            }));
            assert!(result.is_err(), "the dependency-violating stage must panic");
            assert!(
                outputs.iter().all(Option::is_none),
                "no partial results may be stitched"
            );
        };
        // One lane runs the groups in order on the caller, which makes the
        // pool's take/recycle sequence — and so its fresh-allocation count
        // — deterministic.
        workers::with_forced_lanes(1, run);
        let fresh = arena.fresh_allocations();
        assert!(fresh > 0, "the first run allocates its working set");
        for _ in 0..3 {
            workers::with_forced_lanes(1, run);
        }
        assert_eq!(
            arena.fresh_allocations(),
            fresh,
            "repeat panicking runs must reuse the pool, not leak it"
        );
        // Groups posted to the pool's lanes drain identically (same buffer
        // demand); the stage is far below two grains, so only a forced
        // lane count posts it.
        for _ in 0..3 {
            workers::with_forced_lanes(2, run);
        }
        assert_eq!(
            arena.fresh_allocations(),
            fresh,
            "repeat panicking threaded runs must reuse the pool, not leak it"
        );
    }
}
