//! Batched, weight-reusing network execution — the serving entry point.
//!
//! The one-off entry points ([`crate::execute_graph`], [`execute_network`])
//! generate each stage's weights just before the stage and drop them after
//! it, which is fine for verification but wasteful when a serving runtime
//! executes the same network for every incoming batch. This module holds
//! the weights precomputed once ([`NetworkWeights`]) and executes whole
//! networks (block chains) with them — every network walk, the reference's
//! included, through one block body — plus the batch stacking/splitting
//! helpers the `ios-serve` dynamic batcher uses to coalesce single-sample
//! requests.
//!
//! Weights depend only on the graph name, the operator index and the
//! (batch-invariant) channel configuration, so one [`NetworkWeights`] is
//! valid for *every* batch size of the same network
//! ([`ios_ir::Network::with_batch_size`] preserves names and indices).
//! Per-sample results are bit-identical to running each sample alone
//! through [`crate::execute_graph`]: every operator treats batch items
//! independently and in the same order.

use crate::arena::{Output, ScratchPool};
use crate::executor::{relu_fold_plan, run_stages, weight_seed, FoldedRelu};
use crate::gemm::PackedFilter;
use crate::ops_cpu::{copy_of, deterministic_value, sep_conv_seeds};
use crate::simd;
use crate::tensor_data::TensorData;
use crate::tile::{at_tier, Row, RowKernel};
use crate::workers;
use ios_core::{NetworkSchedule, Schedule, SlotPlan};
use ios_ir::{Graph, Network, Op, OpId, OpKind, OpSet, TensorShape, Value};
use parking_lot::Mutex;

/// Precomputed weights of one operator, each in the form its kernel reads
/// — so the serving hot path streams `A` contiguously and nothing else is
/// held.
#[derive(Debug, Clone, PartialEq)]
pub enum OpWeights {
    /// Dense / grouped convolution filter.
    Conv(PackedFilter),
    /// Separable convolution: depthwise then pointwise filters.
    SepConv {
        /// Depthwise k×k filter (one output channel per input channel).
        depthwise: PackedFilter,
        /// Pointwise 1×1 filter.
        pointwise: PackedFilter,
    },
    /// Fully connected weight matrix, layout `[out][in]`.
    MatMul(Vec<f32>),
}

/// Precomputed weights for every weighted operator of one graph. An
/// operator-merge stage runs its parts' own filters over one shared walk,
/// so nothing is built or held per stage.
#[derive(Debug, Clone)]
pub struct BlockWeights {
    by_op: Vec<Option<OpWeights>>,
    /// The block's ReLU-fold peephole plan ([`relu_fold_plan`]), computed
    /// once at build time.
    fold_plan: Vec<FoldedRelu>,
}

impl BlockWeights {
    /// Generates the weights of every weighted operator of `graph`, each
    /// from its deterministic [`weight_seed`], convolution filters packed:
    /// the one-block case of [`NetworkWeights::precompute`].
    #[must_use]
    pub fn precompute(graph: &Graph) -> Self {
        Self::generate(graph, graph.all_ops())
    }

    /// The weights of `ops` alone, generated as [`BlockWeights::precompute`]
    /// generates them: what a stage run without precomputed weights holds.
    pub(crate) fn generate(graph: &Graph, ops: OpSet) -> Self {
        precompute_blocks(&[(graph, ops)])
            .pop()
            .expect("one block per graph")
    }

    /// The precomputed weights of `op`, if it is a weighted operator.
    #[must_use]
    pub fn get(&self, op: OpId) -> Option<&OpWeights> {
        self.by_op.get(op.index()).and_then(Option::as_ref)
    }

    /// The block's ReLU-fold plan: one entry per operator.
    #[must_use]
    pub fn fold_plan(&self) -> &[FoldedRelu] {
        &self.fold_plan
    }
}

impl OpWeights {
    /// The arrays of `op` (of `graph`), allocated and zeroed but not yet
    /// written: [`OpWeights::generate`] fills them.
    fn zeroed(graph: &Graph, op: &Op) -> Option<Self> {
        let input = || graph.value_shape(op.inputs[0]);
        Some(match &op.kind {
            OpKind::Conv2d(p) => OpWeights::Conv(PackedFilter::zeroed(
                p.out_channels,
                p.groups,
                input().channels / p.groups * p.kernel.0 * p.kernel.1,
            )),
            OpKind::SepConv2d(p) => {
                let in_c = input().channels;
                OpWeights::SepConv {
                    depthwise: PackedFilter::zeroed(in_c, in_c, p.kernel.0 * p.kernel.1),
                    pointwise: PackedFilter::zeroed(p.out_channels, 1, in_c),
                }
            }
            OpKind::MatMul(p) => {
                OpWeights::MatMul(vec![0.0; p.out_features * input().elements_per_item()])
            }
            OpKind::Pool(_) | OpKind::Concat | OpKind::Add | OpKind::Relu | OpKind::Identity => {
                return None
            }
        })
    }

    /// Writes every value from the operator's `seed` straight into its
    /// packed slot: the values `conv_weights` / `matmul_weights` would give,
    /// computed at the active tier's vector width ([`Generate`]).
    fn generate(&mut self, seed: u64) {
        at_tier(simd::active_isa(), Generate(self, seed));
    }

    /// Logical weight parameters and resident bytes.
    fn sized(&self) -> (usize, usize) {
        match self {
            OpWeights::Conv(filter) => filter.footprint(),
            OpWeights::SepConv {
                depthwise,
                pointwise,
            } => {
                let (d, p) = (depthwise.footprint(), pointwise.footprint());
                (d.0 + p.0, d.1 + p.1)
            }
            OpWeights::MatMul(m) => (m.len(), std::mem::size_of_val(&m[..])),
        }
    }
}

/// [`OpWeights::generate`] at a tier: value `i` of each array is
/// [`deterministic_value`] of its natural index, in the array's order (a
/// filter's is [`PackedFilter::fill`]). Under the tier's `#[target_feature]`
/// entry the SplitMix64 arithmetic vectorizes, into the same bits.
struct Generate<'a>(&'a mut OpWeights, u64);

impl RowKernel for Generate<'_> {
    type Out = ();
    #[inline(always)]
    unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) {
        let Generate(weights, seed) = self;
        let stream = |seed| move |i| deterministic_value(seed, i);
        match weights {
            OpWeights::Conv(filter) => filter.fill(stream(seed)),
            OpWeights::SepConv {
                depthwise,
                pointwise,
            } => {
                let (dw_seed, pw_seed) = sep_conv_seeds(seed);
                depthwise.fill(stream(dw_seed));
                pointwise.fill(stream(pw_seed));
            }
            OpWeights::MatMul(m) => {
                let value = stream(seed);
                m.iter_mut().enumerate().for_each(|(i, w)| *w = value(i));
            }
        }
    }
}

/// The weights of the given ops of every graph in `graphs`, in two passes:
/// every array is allocated on the calling thread, then one
/// [`workers::parallel_for`] job over those weighted operators of all the
/// graphs, largest first, generates the values (the caller alone below two
/// [`workers::GRAIN_WEIGHTS`]).
/// Allocating on the caller keeps the weights in its allocator arena: a
/// lane allocating its own would leave the memory freed around them in
/// that lane's arena.
fn precompute_blocks(graphs: &[(&Graph, OpSet)]) -> Vec<BlockWeights> {
    let mut by_block: Vec<Vec<Option<OpWeights>>> = (graphs.iter())
        .map(|(g, ops)| {
            let zeroed = |op: &Op| ops.contains(op.id).then(|| OpWeights::zeroed(g, op));
            g.ops().iter().map(|op| zeroed(op).flatten()).collect()
        })
        .collect();
    let mut fills: Vec<(u64, &mut OpWeights)> = (graphs.iter().zip(&mut by_block))
        .flat_map(|((g, _), by_op)| g.ops().iter().map(|op| weight_seed(g, op.id)).zip(by_op))
        .filter_map(|(seed, w)| Some((seed, w.as_mut()?)))
        .collect();
    fills.sort_by_key(|(_, w)| std::cmp::Reverse(w.sized().0));
    let values: usize = fills.iter().map(|(_, w)| w.sized().0).sum();
    let fills: Vec<Mutex<(u64, &mut OpWeights)>> = fills.into_iter().map(Mutex::new).collect();
    let fill = |i: usize| {
        let (seed, w) = &mut *fills[i].lock();
        w.generate(*seed);
    };
    if values < 2 * workers::GRAIN_WEIGHTS {
        (0..fills.len()).for_each(fill);
    } else {
        workers::parallel_for(fills.len(), fill);
    }
    let blocks = by_block.into_iter().zip(graphs);
    blocks
        .map(|(by_op, (graph, _))| BlockWeights {
            by_op,
            fold_plan: relu_fold_plan(graph),
        })
        .collect()
}

/// Precomputed weights for every block of a network.
#[derive(Debug, Clone)]
pub struct NetworkWeights {
    network_name: String,
    blocks: Vec<BlockWeights>,
}

/// The weight-cache memory held by a [`NetworkWeights`] — the number
/// behind the serving engine's `ios_weight_cache_f32_bytes` gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightFootprint {
    /// Bytes of f32 weight arrays (packed panels, matmul matrices).
    pub f32_bytes: usize,
}

impl WeightFootprint {
    /// Total bytes held.
    #[must_use]
    pub fn total(&self) -> usize {
        self.f32_bytes
    }
}

impl NetworkWeights {
    /// Generates the weights of every block of `network`.
    #[must_use]
    pub fn precompute(network: &Network) -> Self {
        let graphs: Vec<(&Graph, OpSet)> = (network.blocks.iter())
            .map(|b| (&b.graph, b.graph.all_ops()))
            .collect();
        NetworkWeights {
            network_name: network.name.clone(),
            blocks: precompute_blocks(&graphs),
        }
    }

    /// Logical weight parameters and resident bytes of the per-operator
    /// weights — the one walk both public readings come from.
    fn sized(&self) -> (usize, usize) {
        let all = self.blocks.iter().flat_map(|b| b.by_op.iter().flatten());
        all.map(OpWeights::sized)
            .fold((0, 0), |(p, b), (dp, db)| (p + dp, b + db))
    }

    /// The weight-cache bytes held: packed panels (4 B per weight,
    /// edge-panel padding included) and matmul matrices. Executing never
    /// adds to it: a merge stage reads its parts' filters.
    #[must_use]
    pub fn footprint(&self) -> WeightFootprint {
        WeightFootprint {
            f32_bytes: self.sized().1,
        }
    }

    /// Name of the network the weights were generated for.
    #[must_use]
    pub fn network_name(&self) -> &str {
        &self.network_name
    }

    /// The weights of block `index`.
    #[must_use]
    pub fn block(&self, index: usize) -> &BlockWeights {
        &self.blocks[index]
    }

    /// Number of blocks covered.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of weight parameters held.
    #[must_use]
    pub fn num_parameters(&self) -> usize {
        self.sized().0
    }
}

/// Executes a whole network sequentially (block by block, operators in
/// topological order) — the reference the serving runtime is checked
/// against. Returns the final block's outputs.
///
/// It holds one operator's weights at a time, generated just before the
/// operator runs ([`crate::execute_schedule_pooled`] with `None`), and one
/// block's buffers: each block takes its slot plan's op-output slots
/// ([`Schedule::slot_plan`]) and its scratch from a pool of its own,
/// dropped at the block's end, so nothing the pass frees stays held once
/// it returns.
///
/// # Panics
///
/// Panics if `inputs` does not match the first block's input shapes or the
/// blocks do not chain (block `i` outputs ≠ block `i + 1` inputs).
#[must_use]
pub fn execute_network(network: &Network, inputs: &[TensorData]) -> Vec<TensorData> {
    let mut current = inputs.to_vec();
    for block in &network.blocks {
        let sequential = Schedule::sequential(&block.graph);
        let plan = sequential.slot_plan(&block.graph);
        current = run_block(
            &block.graph,
            &sequential,
            &plan,
            None,
            current,
            &ScratchPool::new(),
        );
    }
    current
}

/// The one block body of every network walk: runs `graph` under
/// `schedule` and its slot `plan` ([`run_stages`]: the plan's slots are taken
/// from `arena` at the block's start, and each op output goes back to its
/// slot at the end of the stage of its last reader), moves the declared
/// outputs on and recycles the rest — the slots and the block's `inputs` —
/// into `arena`.
fn run_block(
    graph: &Graph,
    schedule: &Schedule,
    plan: &SlotPlan,
    weights: Option<&BlockWeights>,
    inputs: Vec<TensorData>,
    arena: &ScratchPool,
) -> Vec<TensorData> {
    let mut op_outputs = run_stages(graph, schedule, &inputs, weights, arena, plan);
    let declared = graph.outputs();
    let mut next: Vec<TensorData> = Vec::with_capacity(declared.len());
    for (j, value) in declared.iter().enumerate() {
        let tensor = match value {
            Value::Input(i) => copy_of(&inputs[*i], Output::Pool(arena)),
            Value::Op(id) => {
                // An op may be listed as a graph output more than once;
                // only the first occurrence can take ownership.
                if let Some(prev) = declared[..j].iter().position(|u| u == value) {
                    copy_of(&next[prev], Output::Pool(arena))
                } else {
                    op_outputs[id.index()].take().expect("op executed")
                }
            }
        };
        next.push(tensor);
    }
    for t in op_outputs.into_iter().flatten().chain(inputs) {
        arena.recycle_tensor(t);
    }
    next
}

/// A pooled copy of sample `n` of a stacked tensor (batch dimension 1).
fn sample_pooled(batched: &TensorData, n: usize, arena: &ScratchPool) -> TensorData {
    let per_item = batched.shape.elements_per_item();
    let item_shape = TensorShape::new(
        1,
        batched.shape.channels,
        batched.shape.height,
        batched.shape.width,
    );
    let mut out = arena.take_tensor(item_shape);
    out.data
        .copy_from_slice(&batched.data[n * per_item..(n + 1) * per_item]);
    out
}

/// Executes a stacked batch by running every sample independently on the
/// lanes of the shared worker pool ([`crate::workers`]) — the CPU serving
/// fast path. Each sample runs the whole network under `schedule` (each
/// block's sequential schedule when `None`) with pooled, allocation-free
/// storage; because every operator treats batch items independently, the
/// restacked outputs are **bit-identical** to solo [`execute_network`]
/// runs per sample — regardless of worker count or completion order.
///
/// `network` may be shaped for any batch size; the per-sample instance is
/// derived once per call when needed (pass the batch-1 instance to avoid
/// it). The returned stacked outputs draw their storage from `arena`:
/// recycle them after use to keep the full serving boundary
/// allocation-free (dropping them is also safe — they are ordinary
/// tensors); all per-sample scratch returns to `arena` before this
/// returns.
///
/// # Panics
///
/// Panics if the inputs disagree on batch size, or the schedule/weights do
/// not match the network.
#[must_use]
pub fn execute_network_batched(
    network: &Network,
    schedule: Option<&NetworkSchedule>,
    weights: &NetworkWeights,
    inputs: &[TensorData],
    arena: &ScratchPool,
) -> Vec<TensorData> {
    execute_network_batched_capped(network, schedule, weights, inputs, arena, usize::MAX)
}

/// [`execute_network_batched`] with the sample fan-out capped at
/// `max_workers` lanes. A serving runtime that already runs several
/// dispatch workers should split the cores between them so each batch's
/// samples leave lanes for the others'; `1` runs the samples serially on
/// the caller, which is also fully deterministic for
/// allocation-accounting tests. The cap bounds samples only: the chunks of
/// a large operator inside a sample still draw on whichever pool lanes are
/// idle. Results are bit-identical for every cap.
///
/// Samples run one by one, not as one batch-*b* network. A block hands
/// each op output back to its slot after its last reader, so it holds only
/// its live set, whose peak [`Schedule::peak_live_bytes`] predicts, in
/// [`Schedule::slot_bytes`] of slots planned once per call; one batch-*b*
/// run would hold *b* live sets at once, where the fan-out holds one per
/// lane.
/// Running a block as a batch only where *b* live sets fit is ROADMAP item
/// 4(b), next.
///
/// # Panics
///
/// Same conditions as [`execute_network_batched`].
#[must_use]
pub fn execute_network_batched_capped(
    network: &Network,
    schedule: Option<&NetworkSchedule>,
    weights: &NetworkWeights,
    inputs: &[TensorData],
    arena: &ScratchPool,
    max_workers: usize,
) -> Vec<TensorData> {
    assert!(!inputs.is_empty(), "cannot execute a batch of no inputs");
    let batch = inputs[0].shape.batch;
    assert!(
        inputs.iter().all(|t| t.shape.batch == batch),
        "stacked inputs must agree on batch size"
    );
    let derived;
    let per_sample: &Network = if network.input_shape.batch == 1 {
        network
    } else {
        derived = network.with_batch_size(1);
        &derived
    };
    // Without a schedule, every block runs its sequential schedule.
    let sequential: Vec<Schedule>;
    let block_schedules = match schedule {
        Some(s) => &s.block_schedules,
        None => {
            sequential = per_sample
                .blocks
                .iter()
                .map(|b| Schedule::sequential(&b.graph))
                .collect();
            &sequential
        }
    };
    assert_eq!(
        per_sample.blocks.len(),
        block_schedules.len(),
        "schedule and network block counts differ"
    );
    assert_eq!(
        per_sample.blocks.len(),
        weights.num_blocks(),
        "weights and network block counts differ"
    );
    let plans: Vec<SlotPlan> = (per_sample.blocks.iter().zip(block_schedules))
        .map(|(block, schedule)| schedule.slot_plan(&block.graph))
        .collect();

    // `max_workers` bounds how many lanes the *samples* occupy; one sample
    // runs on the caller without posting anything.
    let fan_out = workers::lanes().min(batch).min(max_workers).max(1);
    let per_sample_outputs: Vec<Vec<TensorData>> = workers::parallel_map(fan_out, |worker| {
        workers::chunk_range(batch, fan_out, worker)
            .map(|n| {
                // The zero-allocation op loop of the serving runtime: block
                // `i` under `block_schedules[i]`, every intermediate recycled.
                let mut current: Vec<TensorData> =
                    inputs.iter().map(|t| sample_pooled(t, n, arena)).collect();
                let blocks = per_sample
                    .blocks
                    .iter()
                    .zip(block_schedules.iter().zip(&plans));
                for (i, (block, (schedule, plan))) in blocks.enumerate() {
                    let weights = Some(weights.block(i));
                    current = run_block(&block.graph, schedule, plan, weights, current, arena);
                }
                current
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    // Restack: per-sample outputs are recycled; the stacked results are
    // drawn from `arena` so the caller can recycle them too and keep the
    // whole serving boundary allocation-free.
    let num_outputs = per_sample_outputs[0].len();
    let mut stacked = Vec::with_capacity(num_outputs);
    for o in 0..num_outputs {
        let samples: Vec<&TensorData> = per_sample_outputs.iter().map(|s| &s[o]).collect();
        stacked.push(stack_batch_pooled(&samples, arena));
    }
    for t in per_sample_outputs.into_iter().flatten() {
        arena.recycle_tensor(t);
    }
    stacked
}

/// The shape of `samples` stacked along the batch dimension.
///
/// # Panics
///
/// Panics if `samples` is empty or the per-sample shapes disagree.
fn stacked_shape(samples: &[&TensorData]) -> TensorShape {
    assert!(!samples.is_empty(), "cannot stack an empty batch");
    let item = samples[0].shape;
    let per_item = |s: TensorShape| (s.channels, s.height, s.width);
    let batch = samples.iter().map(|sample| {
        assert_eq!(
            per_item(sample.shape),
            per_item(item),
            "stacked samples must share their per-item shape"
        );
        sample.shape.batch
    });
    TensorShape::new(batch.sum(), item.channels, item.height, item.width)
}

/// Stacks single-sample tensors (batch = 1 each) into one batched tensor
/// along the batch dimension, in order.
///
/// # Panics
///
/// Panics if `samples` is empty or the per-sample shapes disagree.
#[must_use]
pub fn stack_batch(samples: &[&TensorData]) -> TensorData {
    let shape = stacked_shape(samples);
    let mut data = Vec::with_capacity(shape.num_elements());
    for sample in samples {
        data.extend_from_slice(&sample.data);
    }
    TensorData { shape, data }
}

/// [`stack_batch`] drawing the stacked tensor's storage from `arena`
/// instead of the heap — the serving runtime's allocation-free stacking
/// path. The result is bit-identical to [`stack_batch`].
///
/// # Panics
///
/// Panics if `samples` is empty or the per-sample shapes disagree.
#[must_use]
pub fn stack_batch_pooled(samples: &[&TensorData], arena: &ScratchPool) -> TensorData {
    let mut out = arena.take_tensor(stacked_shape(samples));
    let mut offset = 0usize;
    for sample in samples {
        out.data[offset..offset + sample.data.len()].copy_from_slice(&sample.data);
        offset += sample.data.len();
    }
    out
}

/// Splits a batched tensor back into per-sample tensors of batch 1.
#[must_use]
pub fn split_batch(batched: &TensorData) -> Vec<TensorData> {
    let per_item = batched.shape.elements_per_item();
    let item_shape = TensorShape::new(
        1,
        batched.shape.channels,
        batched.shape.height,
        batched.shape.width,
    );
    (0..batched.shape.batch)
        .map(|n| TensorData {
            shape: item_shape,
            data: batched.data[n * per_item..(n + 1) * per_item].to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_cpu::{conv_weights, matmul_weights};
    use crate::tile::PACK_MR;
    use ios_core::{optimize_network, SchedulerConfig, SimCostModel};
    use ios_sim::{DeviceKind, Simulator};

    /// A small two-block network with mergeable branches: heavy enough to
    /// exercise concurrent and merged stages, light enough for CI.
    fn tiny_network(batch: usize) -> Network {
        use ios_ir::{Block, Conv2dParams, GraphBuilder, PoolParams, TensorShape};
        let input = TensorShape::new(batch, 8, 10, 10);
        let mut b = GraphBuilder::new("serve_tiny_b0", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(12, (1, 1), (1, 1), (0, 0)));
        let p = b.pool("p", x, PoolParams::max((2, 2), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[a, c]);
        let block0 = Block::new(b.build(vec![cat, p]));

        let shapes = block0.graph.output_shapes();
        let mut b = GraphBuilder::with_inputs("serve_tiny_b1", shapes);
        let x0 = b.input(0);
        let x1 = b.input(1);
        let d = b.conv2d("d", x0, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let e = b.conv2d("e", x1, Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)));
        let block1 = Block::new(b.build(vec![d, e]));
        Network::new("serve_tiny", input, vec![block0, block1])
    }

    #[test]
    fn stack_and_split_round_trip() {
        let shape = TensorShape::new(1, 3, 4, 4);
        let samples: Vec<TensorData> = (0..5).map(|i| TensorData::random(shape, 100 + i)).collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let batched = stack_batch(&refs);
        assert_eq!(batched.shape, TensorShape::new(5, 3, 4, 4));
        let back = split_batch(&batched);
        assert_eq!(back, samples);
    }

    #[test]
    fn one_weight_set_serves_every_call_bit_identically() {
        let net = tiny_network(1);
        let weights = NetworkWeights::precompute(&net);
        assert!(weights.num_parameters() > 0);
        let input = TensorData::random(net.input_shape, 42);
        let reference = execute_network(&net, std::slice::from_ref(&input));
        let arena = ScratchPool::new();
        for _ in 0..2 {
            let reused =
                execute_network_batched(&net, None, &weights, std::slice::from_ref(&input), &arena);
            assert_eq!(reference, reused, "weight reuse must be bit-identical");
        }
    }

    #[test]
    fn scheduled_batched_execution_is_bitwise_per_sample() {
        let net1 = tiny_network(1);
        let batch = 3;
        let net_b = net1.with_batch_size(batch);
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let schedule = optimize_network(&net_b, &cost, &SchedulerConfig::paper_default()).schedule;
        let weights = NetworkWeights::precompute(&net_b);

        let samples: Vec<TensorData> = (0..batch)
            .map(|i| TensorData::random(net1.input_shape, 7 + i as u64))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = stack_batch(&refs);
        let arena = ScratchPool::new();
        let batched_out =
            execute_network_batched(&net_b, Some(&schedule), &weights, &[stacked], &arena);
        assert_eq!(batched_out.len(), 2, "the tiny network has two outputs");
        let per_output_samples: Vec<Vec<TensorData>> =
            batched_out.iter().map(split_batch).collect();

        for (i, sample) in samples.iter().enumerate() {
            let reference = execute_network(&net1, std::slice::from_ref(sample));
            for (o, reference_out) in reference.iter().enumerate() {
                assert_eq!(
                    &per_output_samples[o][i], reference_out,
                    "sample {i}, output {o} must match its solo execution bit-for-bit"
                );
            }
        }
    }

    /// The oracle: `op`'s weights generated in natural layout by
    /// [`conv_weights`] / [`matmul_weights`], filters then packed.
    fn natural_layout_weights(graph: &Graph, op: &Op) -> Option<OpWeights> {
        let seed = weight_seed(graph, op.id);
        let input = graph.value_shape(op.inputs[0]);
        match &op.kind {
            OpKind::Conv2d(p) => {
                let in_c = input.channels / p.groups;
                let k_len = in_c * p.kernel.0 * p.kernel.1;
                let filter = conv_weights(seed, p.out_channels, in_c, p.kernel);
                Some(OpWeights::Conv(PackedFilter::pack(
                    &filter,
                    p.out_channels,
                    p.groups,
                    k_len,
                )))
            }
            OpKind::SepConv2d(p) => {
                let in_c = input.channels;
                let (dw_seed, pw_seed) = sep_conv_seeds(seed);
                let (kh, kw) = p.kernel;
                let depthwise = conv_weights(dw_seed, in_c, 1, p.kernel);
                let pointwise = conv_weights(pw_seed, p.out_channels, in_c, (1, 1));
                Some(OpWeights::SepConv {
                    depthwise: PackedFilter::pack(&depthwise, in_c, in_c, kh * kw),
                    pointwise: PackedFilter::pack(&pointwise, p.out_channels, 1, in_c),
                })
            }
            OpKind::MatMul(p) => Some(OpWeights::MatMul(matmul_weights(
                seed,
                p.out_features,
                input.elements_per_item(),
            ))),
            _ => None,
        }
    }

    #[test]
    fn weights_generated_in_their_panels_equal_the_natural_layout_oracle_on_any_lanes() {
        let nets = [
            ios_models::squeezenet(1),
            ios_models::randwire_small(1),
            ios_models::nasnet_a(1),
            ios_models::inception_v3(1),
        ];
        for net in &nets {
            let oracle: Vec<Vec<Option<OpWeights>>> = net
                .blocks
                .iter()
                .map(|b| {
                    let g = &b.graph;
                    g.ops()
                        .iter()
                        .map(|op| natural_layout_weights(g, op))
                        .collect()
                })
                .collect();
            for lanes in [1, 2, 7] {
                let weights = workers::with_forced_lanes(lanes, || NetworkWeights::precompute(net));
                for (b, block) in net.blocks.iter().enumerate() {
                    for op in block.graph.ops() {
                        assert_eq!(
                            weights.block(b).get(op.id),
                            oracle[b][op.id.index()].as_ref(),
                            "{} block {b} op {} on {lanes} lanes",
                            net.name,
                            op.name
                        );
                    }
                }
            }
        }
    }

    /// Asserts every slot of `filter` `to_bits`-equal to the value of its
    /// own reading of the packed layout: group `g`'s panel `p`, slot
    /// `k · PACK_MR + r`, holds [`deterministic_value`] of output channel
    /// `g · rows + p · PACK_MR + r` at `k`, or `+0.0` past the group's rows.
    fn assert_panels(filter: &PackedFilter, seed: u64, what: &str) {
        let (out_channels, groups, k_len) = filter.geometry();
        let rows = out_channels / groups;
        for g in 0..groups {
            let panels = filter.group(g);
            assert_eq!(panels.len(), rows.div_ceil(PACK_MR) * k_len * PACK_MR);
            for (slot, v) in panels.iter().enumerate() {
                let (p, k, r) = (
                    slot / (k_len * PACK_MR),
                    slot / PACK_MR % k_len,
                    slot % PACK_MR,
                );
                let row = p * PACK_MR + r;
                let want = if row < rows {
                    deterministic_value(seed, (g * rows + row) * k_len + k)
                } else {
                    0.0
                };
                assert_eq!(v.to_bits(), want.to_bits(), "{what}: group {g} slot {slot}");
            }
        }
    }

    /// Asserts every generated value of `weights` `to_bits`-equal to
    /// [`deterministic_value`] of its natural index under `seed`.
    fn assert_generated(weights: &OpWeights, seed: u64, what: &str) {
        match weights {
            OpWeights::Conv(filter) => assert_panels(filter, seed, what),
            OpWeights::SepConv {
                depthwise,
                pointwise,
            } => {
                let (dw_seed, pw_seed) = sep_conv_seeds(seed);
                assert_panels(depthwise, dw_seed, &format!("{what} depthwise"));
                assert_panels(pointwise, pw_seed, &format!("{what} pointwise"));
            }
            OpWeights::MatMul(m) => {
                for (i, v) in m.iter().enumerate() {
                    let want = deterministic_value(seed, i);
                    assert_eq!(v.to_bits(), want.to_bits(), "{what}: value {i}");
                }
            }
        }
    }

    /// Edge shapes of the panel walk in one block: output channels short of
    /// a panel, grouped and depthwise filters with a padded panel per
    /// group, a separable pair, a matrix, and `k_len` of 1 and 3 (shorter than
    /// any vector).
    fn edge_block() -> Graph {
        use ios_ir::{Conv2dParams, GraphBuilder};
        let mut b = GraphBuilder::new("panel_walk_edges", TensorShape::new(1, 6, 5, 5));
        let x = b.input(0);
        let c7 = b.conv2d("c7", x, Conv2dParams::plain(7, (3, 3), (1, 1), (1, 1)));
        let grouped = Conv2dParams {
            groups: 2,
            ..Conv2dParams::plain(6, (3, 3), (1, 1), (1, 1))
        };
        let g2 = b.conv2d("grouped", x, grouped);
        let depthwise = Conv2dParams {
            groups: 6,
            ..Conv2dParams::plain(6, (3, 3), (1, 1), (1, 1))
        };
        let dw = b.conv2d("depthwise", g2, depthwise);
        let sep = b.sep_conv2d("sep", dw, Conv2dParams::plain(5, (3, 3), (1, 1), (1, 1)));
        let one = b.conv2d("k1", sep, Conv2dParams::plain(1, (1, 1), (1, 1), (0, 0)));
        let two = b.conv2d(
            "k2",
            c7,
            Conv2dParams {
                groups: 7,
                ..Conv2dParams::plain(14, (1, 1), (1, 1), (0, 0))
            },
        );
        let three = b.conv2d("k3", one, Conv2dParams::plain(3, (1, 3), (1, 1), (0, 1)));
        let fc = b.matmul("fc", three, 9);
        b.build(vec![fc, two])
    }

    #[test]
    fn every_generated_weight_is_its_deterministic_value_at_every_tier_and_lane_count() {
        let nets = [
            ios_models::squeezenet(1),
            ios_models::randwire_small(1),
            ios_models::nasnet_a(1),
            ios_models::inception_v3(1),
        ];
        let edges = edge_block();
        for isa in simd::supported_isas() {
            for lanes in [1, 2, 7] {
                for net in &nets {
                    let weights = simd::with_forced_isa(isa, || {
                        workers::with_forced_lanes(lanes, || NetworkWeights::precompute(net))
                    });
                    for (b, block) in net.blocks.iter().enumerate() {
                        let g = &block.graph;
                        for op in g.ops() {
                            if let Some(w) = weights.block(b).get(op.id) {
                                let what = format!("{} {} on {isa} × {lanes}", net.name, op.name);
                                assert_generated(w, weight_seed(g, op.id), &what);
                            }
                        }
                    }
                }
                let weights = simd::with_forced_isa(isa, || {
                    workers::with_forced_lanes(lanes, || BlockWeights::precompute(&edges))
                });
                for op in edges.ops() {
                    if let Some(w) = weights.get(op.id) {
                        let what = format!("{} on {isa} × {lanes}", op.name);
                        assert_generated(w, weight_seed(&edges, op.id), &what);
                    }
                }
            }
            // Seeds whose states `seed + (i + 2)·γ` wrap around `u64::MAX`.
            for seed in [
                u64::MAX,
                u64::MAX - 1,
                u64::MAX - 0x9E37_79B9_7F4A_7C15,
                1 << 63,
            ] {
                for op in edges.ops() {
                    if let Some(mut w) = OpWeights::zeroed(&edges, op) {
                        simd::with_forced_isa(isa, || w.generate(seed));
                        assert_generated(&w, seed, &format!("{} seed {seed:#x} on {isa}", op.name));
                    }
                }
            }
        }
    }

    #[test]
    fn an_ios_both_inference_leaves_the_weight_footprint_unchanged() {
        // A merge stage reads its parts' filters and builds none: the bytes
        // held after an IOS-Both inference are the bytes precomputed, on
        // every Table-2 network (Inception V3 and SqueezeNet merge).
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let arena = ScratchPool::new();
        for net in ios_models::paper_benchmarks(1) {
            let schedule =
                optimize_network(&net, &cost, &SchedulerConfig::paper_default()).schedule;
            let weights = NetworkWeights::precompute(&net);
            let before = weights.footprint();
            let input = TensorData::random(net.input_shape, 5);
            let outputs =
                execute_network_batched(&net, Some(&schedule), &weights, &[input], &arena);
            assert_eq!(weights.footprint(), before, "{}", net.name);
            if net.name == "inception_v3" {
                // In MiB, the unit of the benchmark's `backend.weight_mb`.
                let mb = before.total() as f64 / (1024.0 * 1024.0);
                assert!((mb - 90.8).abs() < 0.05, "Inception V3 holds {mb:.2} MB");
            }
            for t in outputs {
                arena.recycle_tensor(t);
            }
        }
    }
}
