//! Graph and schedule execution on the CPU reference backend.
//!
//! [`execute_schedule_pooled`] runs an IOS schedule stage by stage,
//! executing the groups of a concurrent stage on the lanes of the shared
//! worker pool ([`crate::workers`]) and a merged stage as one convolution
//! walk over its parts' own filters — so a passing [`verify_schedule`]
//! demonstrates that the schedule transformation preserves the network's
//! semantics, the guarantee cuDNN gives the paper's engine for free.
//! [`execute_graph`] is the same runner under the graph's sequential
//! schedule: there is one way to execute a graph, stage by stage.
//!
//! Every stage runs from generated weights ([`BlockWeights`]):
//! [`execute_schedule_pooled`] takes a block's from the caller, or, given
//! `None`, generates each stage's just before the stage and drops them
//! after it — so a one-off run holds one stage's weights, not the block's.
//!
//! Op outputs live in planned slots ([`SlotPlan`]): a run takes its plan's
//! slot set from a caller-owned [`ScratchPool`] at the start, one buffer
//! per slot, writes each op output into its op's slot and hands a dead
//! output back to it. A releasing block run plans with
//! [`Schedule::slot_plan`], so it retains [`Schedule::slot_bytes`];
//! [`execute_schedule_pooled`], which keeps every output, is the same run
//! under the plan where no op shares a slot. Scratch comes from the same
//! pool; [`execute_graph`] is the `None` case on a pool of its own.

use crate::arena::{Output, ScratchPool};
use crate::batch::{BlockWeights, OpWeights};
use crate::gemm::{conv2d_parts, ConvEpilogue, ConvPart};
use crate::ops_cpu::{copy_of, execute_op};
use crate::tensor_data::TensorData;
use crate::workers::{self, DisjointOut};
use ios_core::{ParallelizationStrategy, Schedule, SlotPlan};
use ios_ir::{Graph, Op, OpId, OpKind, OpSet, Value};
use parking_lot::Mutex;

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
    /// executed with [`ios_ir::Activation::Relu`] fused into its epilogue.
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

/// Executes one operator with its precomputed weights under `fold`, into
/// `out`.
fn run_op(
    op: &Op,
    op_inputs: &[&TensorData],
    weights: &BlockWeights,
    fold: FoldedRelu,
    out: Output<'_>,
    arena: &ScratchPool,
) -> TensorData {
    if let FoldedRelu::CopyOf(_) = fold {
        // The producing convolution already applied this ReLU in its
        // epilogue; the input is rectified, so the op is a copy.
        return copy_of(op_inputs[0], out);
    }
    let fuse_relu = fold == FoldedRelu::FuseRelu;
    let out = execute_op(op, op_inputs, weights.get(op.id), fuse_relu, out, arena);
    assert_eq!(
        out.shape, op.output_shape,
        "shape inference mismatch for {}",
        op.name
    );
    out
}

/// Executes the graph sequentially and returns every operator's output:
/// its [`Schedule::sequential`] (one operator per stage, topological
/// order) through the one stage runner. Each operator's weights are
/// generated just before it runs and dropped after it, and its buffers come
/// from a pool of the call's own.
///
/// # Panics
///
/// Panics if `inputs` does not match the graph's declared input shapes.
#[must_use]
pub fn execute_graph(graph: &Graph, inputs: &[TensorData]) -> Vec<TensorData> {
    let sequential = Schedule::sequential(graph);
    execute_schedule_pooled(graph, &sequential, inputs, None, &ScratchPool::new())
}

/// Executes an IOS schedule stage by stage and returns every operator's
/// output. Concurrent-execution stages run their groups on the worker
/// pool's lanes; an operator-merge stage runs its parts' own filters over
/// one convolution walk, each over its exact taps into its own output.
/// Runs from the block's precomputed `weights`; with `None`, each stage's
/// weights — every part of a merge — are generated just before the stage
/// by the same generator and dropped after it, so the bits are the same and
/// only one stage's weights are ever held. Every op output gets a slot of
/// its own ([`SlotPlan::unshared`]), taken from `arena` with the scratch;
/// the lanes running the groups share it, and the returned tensors are
/// owned by the caller.
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
    let plan = SlotPlan::unshared(graph);
    run_stages(graph, schedule, inputs, weights, arena, &plan)
        .into_iter()
        .map(|o| o.expect("all ops executed"))
        .collect()
}

/// The stage loop behind every schedule execution: takes `plan`'s slots
/// from `arena`, runs `schedule`'s stages in order through [`run_stage`]
/// with each op output in its op's slot, and hands each
/// dead output — no later stage reads it and it is not a graph output —
/// back to its slot at the end of its stage. Returns each slot's last
/// tenant: the graph's outputs, which the caller hands on, and under
/// [`SlotPlan::unshared`] every op output. Without precomputed `weights`,
/// each stage's are generated just before it and dropped after it.
///
/// The set of ops executed at a stage boundary is the DP's state, and it
/// fixes the live set exactly ([`Graph::live_after`]), so the op-output
/// bytes held at each stage end peak at [`Schedule::peak_live_bytes`].
/// That measured high-water is the `arg` of the `block` span this records;
/// its `id` is the bytes of the slot buffers the run took, which are
/// [`Schedule::slot_bytes`] when the pool held none larger. Scratch is not
/// counted.
///
/// # Panics
///
/// Panics if the schedule is not valid for `graph`, the plan not one of
/// its plans, or the inputs mismatch.
pub(crate) fn run_stages(
    graph: &Graph,
    schedule: &Schedule,
    inputs: &[TensorData],
    weights: Option<&BlockWeights>,
    arena: &ScratchPool,
    plan: &SlotPlan,
) -> Vec<Option<TensorData>> {
    check_inputs(graph, inputs);
    schedule
        .validate(graph)
        .expect("schedule must be valid for the graph");
    assert_eq!(plan.slot_of.len(), graph.len(), "one slot per operator");
    let mut block_span = ios_telemetry::tracer().span("block", "exec");
    let slots = Slots::take(arena, plan);
    block_span.set_id(slots.bytes() as u64);
    let bytes = |t: &TensorData| std::mem::size_of_val(&t.data[..]);
    let mut outputs: Vec<Option<TensorData>> = vec![None; graph.len()];
    let (mut done, mut held, mut high_water) = (OpSet::empty(), 0, 0);
    for stage in &schedule.stages {
        let generated = weights
            .is_none()
            .then(|| BlockWeights::generate(graph, stage.ops));
        let stage_weights = weights.or(generated.as_ref()).expect("given or generated");
        run_stage(graph, stage, inputs, stage_weights, &mut outputs, &slots);
        done = done.union(stage.ops);
        held += stage
            .ops
            .iter()
            .filter_map(|op| outputs[op.index()].as_ref())
            .map(bytes)
            .sum::<usize>();
        high_water = high_water.max(held);
        for dead in done.difference(graph.live_after(done)).iter() {
            if let Some(tensor) = outputs[dead.index()].take() {
                held -= bytes(&tensor);
                slots.give_back(dead, tensor);
            }
        }
    }
    block_span.set_arg(high_water as u64);
    slots.last_tenants(graph, &mut outputs);
    outputs
}

/// The op-output storage of one run: its plan's slots, one buffer per
/// slot, taken from the pool up front. An op's output is its slot's
/// buffer; a dead output goes back to its slot as the slot's last tenant.
/// Whatever the slots hold when dropped, on a panic's unwinding too, is
/// recycled into the pool, so a caught panic leaves the pool's accounting
/// exact.
struct Slots<'a> {
    arena: &'a ScratchPool,
    plan: &'a SlotPlan,
    /// Per slot: its buffer while no op holds it, and the op it last held.
    free: Vec<Mutex<(Vec<f32>, Option<OpId>)>>,
}

impl<'a> Slots<'a> {
    /// `plan`'s slots, one `take` from `arena` each.
    fn take(arena: &'a ScratchPool, plan: &'a SlotPlan) -> Self {
        let elements = |bytes: u64| bytes as usize / std::mem::size_of::<f32>();
        Slots {
            arena,
            plan,
            free: (plan.slot_bytes.iter())
                .map(|&bytes| Mutex::new((arena.take(elements(bytes)), None)))
                .collect(),
        }
    }

    /// The bytes of the slot buffers, by capacity.
    fn bytes(&self) -> usize {
        let capacity = |slot: &Mutex<(Vec<f32>, _)>| slot.lock().0.capacity();
        self.free.iter().map(capacity).sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// Where `op`'s output goes: its slot's buffer.
    ///
    /// # Panics
    ///
    /// Panics if another op's output still holds the slot.
    fn output(&self, op: OpId) -> Output<'a> {
        let slot = self.plan.slot_of[op.index()];
        let mut free = self.free[slot].lock();
        assert!(
            free.0.capacity() > 0,
            "slot {slot} is held by a live output"
        );
        free.1 = None;
        Output::Slot(std::mem::take(&mut free.0))
    }

    /// Hands `op`'s dead output back to its slot.
    fn give_back(&self, op: OpId, tensor: TensorData) {
        *self.free[self.plan.slot_of[op.index()]].lock() = (tensor.data, Some(op));
    }

    /// Moves each slot's last tenant back into `outputs`: at a run's end,
    /// its data is intact.
    fn last_tenants(mut self, graph: &Graph, outputs: &mut [Option<TensorData>]) {
        for slot in &mut self.free {
            let (data, tenant) = slot.get_mut();
            if let Some(op) = tenant.take() {
                let shape = graph.op(op).output_shape;
                outputs[op.index()] = Some(TensorData {
                    shape,
                    data: std::mem::take(data),
                });
            }
        }
    }
}

impl Drop for Slots<'_> {
    fn drop(&mut self) {
        for slot in self.free.drain(..) {
            self.arena.recycle(slot.into_inner().0);
        }
    }
}

/// The completed operator outputs of one stage group, drop-drained: if the
/// stage unwinds — this group's worker panicked mid-op, or a *sibling*
/// group's did and the collected results are dropped at the join — every
/// tensor still held here goes back to its slot (or the pool) instead of
/// leaking to the heap. This keeps the pool's steady-state accounting exact
/// across panics: a serving runtime that catches a batch panic keeps
/// executing with its pool intact.
struct GroupOutputs<'s, 'a> {
    slots: &'s Slots<'a>,
    ops: Vec<(OpId, TensorData)>,
}

impl Drop for GroupOutputs<'_, '_> {
    fn drop(&mut self) {
        for (op, tensor) in self.ops.drain(..) {
            self.slots.give_back(op, tensor);
        }
    }
}

/// Executes one schedule stage against a partial per-operator output state,
/// with each op output in its slot of `slots`: stage operators read graph
/// `inputs` and already-filled `outputs` slots and write their own slots.
/// This is the one stage runner: sequential and scheduled graph execution
/// and the batched network path all come through here. The ops of one
/// stage hold distinct slots, so the groups, and a merge's parts, write to
/// disjoint buffers.
///
/// Concurrent-execution groups run as one job on the worker pool — the
/// caller takes groups beside whichever lanes are idle (on a busy pool it
/// simply runs them all itself), and a lane done with its group helps the
/// others' operator chunks — unless the whole stage is smaller than two
/// grains ([`workers::GRAIN_MACS`]), which nothing is posted for: a size
/// read off the stage itself, the same at every batch size and for every
/// caller. Every group draws its scratch from the pool behind `slots`, and
/// the group's completed outputs drain back into their slots on **panic**
/// ([`GroupOutputs`]), so a panicking group cannot leak pooled buffers: the
/// pool lets the other groups finish, drops their results and re-raises the
/// panic here.
fn run_stage(
    graph: &Graph,
    stage: &ios_core::Stage,
    inputs: &[TensorData],
    weights: &BlockWeights,
    outputs: &mut [Option<TensorData>],
    slots: &Slots<'_>,
) {
    let arena = slots.arena;
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
                let mut local = GroupOutputs {
                    slots,
                    ops: Vec::new(),
                };
                for &op_id in group {
                    let op = graph.op(op_id);
                    let resolve = |v: &Value| match v {
                        Value::Input(i) => &inputs[*i],
                        Value::Op(id) => {
                            if let Some(t) = snapshot[id.index()].as_ref() {
                                t
                            } else {
                                (local.ops.iter())
                                    .find(|(lid, _)| lid == id)
                                    .map(|(_, t)| t)
                                    .expect("intra-group dependency")
                            }
                        }
                    };
                    // Most operators read one value: no list to allocate.
                    let (one, many): (&TensorData, Vec<&TensorData>);
                    let op_inputs: &[&TensorData] = match op.inputs.as_slice() {
                        [value] => {
                            one = resolve(value);
                            std::slice::from_ref(&one)
                        }
                        values => {
                            many = values.iter().map(resolve).collect();
                            &many
                        }
                    };
                    let out = slots.output(op_id);
                    let out = run_op(op, op_inputs, weights, plan[op_id.index()], out, arena);
                    local.ops.push((op_id, out));
                }
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
            let chunk_results: Vec<Vec<GroupOutputs<'_, '_>>> =
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
            // Each part's filter and epilogue (a folded ReLU included).
            let first = stage.ops.iter().next().expect("a stage has ops");
            let shared = graph.op(first).inputs[0];
            let input = match shared {
                Value::Input(i) => &inputs[i],
                Value::Op(id) => outputs[id.index()].as_ref().expect("producer executed"),
            };
            let mut part_outputs: Vec<TensorData> = (stage.ops.iter())
                .map(|part| slots.output(part).tensor(graph.op(part).output_shape))
                .collect();
            let parts: Vec<ConvPart<'_>> = (stage.ops.iter().zip(&mut part_outputs))
                .map(|(part, out)| {
                    let op = graph.op(part);
                    let (OpKind::Conv2d(params), Some(OpWeights::Conv(filter)), [value]) =
                        (&op.kind, weights.get(part), &op.inputs[..])
                    else {
                        panic!("merged parts must be convolutions")
                    };
                    assert_eq!(*value, shared, "merged parts must share their input");
                    let ep = ConvEpilogue {
                        relu: plan[part.index()] == FoldedRelu::FuseRelu,
                        ..ConvEpilogue::default()
                    };
                    let out = DisjointOut::new(&mut out.data);
                    ConvPart {
                        params,
                        filter,
                        ep,
                        out,
                    }
                })
                .collect();
            conv2d_parts(input, &parts);
            drop(parts);
            for (part, out) in stage.ops.iter().zip(part_outputs) {
                outputs[part.index()] = Some(out);
            }
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
/// operator outputs. Schedules are exact — every output element, a merged
/// part's included, gets the fused multiply-adds of its own convolution —
/// so `0.0` demonstrates the schedule preserves semantics.
#[must_use]
pub fn verify_schedule(graph: &Graph, schedule: &Schedule, seed: u64) -> f32 {
    let inputs: Vec<TensorData> = graph
        .input_shapes()
        .iter()
        .enumerate()
        .map(|(i, s)| TensorData::random(*s, seed.wrapping_add(i as u64)))
        .collect();
    let reference = execute_graph(graph, &inputs);
    let scheduled = execute_schedule_pooled(graph, schedule, &inputs, None, &ScratchPool::new());
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
    use ios_core::{greedy_schedule, schedule_graph, try_merge, SchedulerConfig, SimCostModel};
    use ios_ir::Conv2dParams;
    use ios_ir::{GraphBuilder, TensorShape};
    use ios_sim::{DeviceKind, Simulator};

    /// One stage run on its own, every op output in a slot of its own.
    fn execute_stage(
        graph: &Graph,
        stage: &ios_core::Stage,
        inputs: &[TensorData],
        weights: &BlockWeights,
        outputs: &mut [Option<TensorData>],
        arena: &ScratchPool,
    ) {
        let plan = SlotPlan::unshared(graph);
        let slots = Slots::take(arena, &plan);
        run_stage(graph, stage, inputs, weights, outputs, &slots);
    }

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

    /// The hand-built schedule of `forced_merge_stage_matches_sequential`.
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
    fn pooled_execution_is_bit_identical_and_reuses_buffers() {
        let g = branchy();
        let inputs = vec![TensorData::random(TensorShape::new(1, 8, 10, 10), 33)];
        let weights = BlockWeights::precompute(&g);
        let reference = execute_graph(&g, &inputs);

        let arena = ScratchPool::new();
        let sequential = Schedule::sequential(&g);
        let first = execute_schedule_pooled(&g, &sequential, &inputs, Some(&weights), &arena);
        assert_eq!(first, reference);
        for t in first {
            arena.recycle_tensor(t);
        }
        let after_warmup = arena.fresh_allocations();
        let second = execute_schedule_pooled(&g, &sequential, &inputs, Some(&weights), &arena);
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
    fn merged_walk_parts_are_bit_identical_to_their_own_convolutions() {
        // Random merge stages of 2–4 centred siblings on one input — kernels
        // 1×1, 3×3, 1×3, 3×1 and 5×5, out channels no multiple of 4 — at
        // stride 1 and 2, batch 1 and 3; the first part absorbs a
        // standalone ReLU. Every part's output carries the bits of its own
        // convolution, at every tier and lane count.
        use crate::gemm::conv2d;
        use crate::simd;
        let kernels = [(1, 1), (3, 3), (1, 3), (3, 1), (5, 5)];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let pool = ScratchPool::new();
        for case in 0..8 {
            let (stride, batch) = (1 + case % 2, [1, 3][case / 2 % 2]);
            let shape = TensorShape::new(batch, 3 + pick(6), 7 + pick(5), 6 + pick(6));
            let mut b = GraphBuilder::new(format!("merge_walk_{case}"), shape);
            let x = b.input(0);
            let parts: Vec<Value> = (0..2 + pick(3))
                .map(|i| {
                    let k: (usize, usize) = kernels[pick(kernels.len())];
                    let out_c = [3, 5, 6, 7, 9, 13][pick(6)];
                    let padding = (k.0 / 2, k.1 / 2);
                    let params = if case < 4 {
                        Conv2dParams::plain(out_c, k, (stride, stride), padding)
                    } else {
                        Conv2dParams::relu(out_c, k, (stride, stride), padding)
                    };
                    b.conv2d(format!("c{i}"), x, params)
                })
                .collect();
            let relu = b.relu("r", parts[0]);
            let g = b.build(
                [relu]
                    .into_iter()
                    .chain(parts[1..].iter().copied())
                    .collect(),
            );
            let merged_ops: OpSet = (0..parts.len()).map(OpId).collect();
            assert!(try_merge(&g, merged_ops).is_some(), "case {case}");
            let stage = ios_core::Stage {
                ops: merged_ops,
                strategy: ParallelizationStrategy::OperatorMerge,
                groups: vec![merged_ops.iter().collect()],
                measured_latency_us: 1.0,
            };
            let weights = BlockWeights::precompute(&g);
            assert_eq!(weights.fold_plan()[0], FoldedRelu::FuseRelu);
            let inputs = vec![TensorData::random(shape, 90 + case as u64)];
            for isa in simd::supported_isas() {
                for lanes in [1, 2, 7] {
                    simd::with_forced_isa(isa, || {
                        workers::with_forced_lanes(lanes, || {
                            let mut outputs = vec![None; g.len()];
                            execute_stage(&g, &stage, &inputs, &weights, &mut outputs, &pool);
                            for op in merged_ops.iter() {
                                let (OpKind::Conv2d(params), Some(OpWeights::Conv(filter))) =
                                    (&g.op(op).kind, weights.get(op))
                                else {
                                    unreachable!()
                                };
                                let ep = ConvEpilogue {
                                    relu: op == OpId(0),
                                    ..ConvEpilogue::default()
                                };
                                let alone = conv2d(&inputs[0], params, filter, &ep, &pool);
                                let merged = outputs[op.index()].as_ref().expect("part ran");
                                assert_eq!(merged.shape, alone.shape);
                                assert!(
                                    merged
                                        .data
                                        .iter()
                                        .map(|v| v.to_bits())
                                        .eq(alone.data.iter().map(|v| v.to_bits())),
                                    "case {case}, {} {:?}, {isa}, {lanes} lanes",
                                    g.op(op).name,
                                    params.kernel
                                );
                            }
                        });
                    });
                }
            }
        }
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
        // resolving its input. The completed group's outputs must drain
        // back (GroupOutputs guard), so repeat panicking runs allocate
        // nothing fresh — the pool a
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
