//! Batched, weight-reusing network execution — the serving entry point.
//!
//! Every executor runs from precomputed weights. The one-off entry points
//! ([`crate::execute_graph`], [`execute_network`]) precompute them for the
//! call, which is fine for verification but wasteful when a serving runtime
//! executes the same network for every incoming batch. This module holds
//! the weights precomputed once ([`NetworkWeights`]) and executes whole
//! networks (block chains) with them, plus the batch stacking/splitting
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

use crate::arena::ScratchPool;
use crate::executor::{
    execute_graph_pooled, execute_schedule_pooled, relu_fold_plan, weight_seed, FoldedRelu,
};
use crate::gemm::PackedFilter;
use crate::ops_cpu::{conv_weights, copy_of, matmul_weights, sep_conv_seeds};
use crate::tensor_data::TensorData;
use crate::workers;
use ios_core::{MergedConv, NetworkSchedule};
use ios_ir::{Graph, Network, OpId, OpKind, OpSet, TensorShape, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Precomputed weights of one operator, each in the form its kernel reads
/// — so the serving hot path streams `A` contiguously and nothing else is
/// held.
#[derive(Debug, Clone)]
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

/// Precomputed weights for every weighted operator of one graph, plus a
/// lazily filled cache of merged-stage weights keyed by the stage's
/// operator set — so executing the same schedule batch after batch stops
/// rebuilding the merged tensor every time.
#[derive(Debug)]
pub struct BlockWeights {
    by_op: Vec<Option<OpWeights>>,
    /// The block's ReLU-fold peephole plan ([`relu_fold_plan`]), computed
    /// once at build time.
    fold_plan: Vec<FoldedRelu>,
    /// The merged-stage filters built so far: the parts' filters stacked
    /// (and zero-padded) into one.
    merged: Mutex<HashMap<OpSet, Arc<PackedFilter>>>,
    merged_builds: AtomicU64,
    merged_hits: AtomicU64,
}

impl Clone for BlockWeights {
    fn clone(&self) -> Self {
        BlockWeights {
            by_op: self.by_op.clone(),
            fold_plan: self.fold_plan.clone(),
            merged: Mutex::new(self.merged.lock().expect("merged-weight lock").clone()),
            merged_builds: AtomicU64::new(self.merged_builds.load(Ordering::Relaxed)),
            merged_hits: AtomicU64::new(self.merged_hits.load(Ordering::Relaxed)),
        }
    }
}

impl BlockWeights {
    /// Generates the weights of every weighted operator of `graph`, each
    /// from its deterministic [`weight_seed`], convolution filters packed.
    #[must_use]
    pub fn precompute(graph: &Graph) -> Self {
        let by_op = graph
            .ops()
            .iter()
            .map(|op| {
                let seed = weight_seed(graph, op.id);
                let input_shape = |value: Value| -> TensorShape {
                    match value {
                        Value::Input(i) => graph.input_shapes()[i],
                        Value::Op(id) => graph.op(id).output_shape,
                    }
                };
                match &op.kind {
                    OpKind::Conv2d(p) => {
                        let in_c = input_shape(op.inputs[0]).channels / p.groups;
                        let filter = conv_weights(seed, p.out_channels, in_c, p.kernel);
                        Some(OpWeights::Conv(PackedFilter::pack(
                            &filter,
                            p.out_channels,
                            p.groups,
                            in_c * p.kernel.0 * p.kernel.1,
                        )))
                    }
                    OpKind::SepConv2d(p) => {
                        let in_c = input_shape(op.inputs[0]).channels;
                        let (dw_seed, pw_seed) = sep_conv_seeds(seed);
                        let depthwise = conv_weights(dw_seed, in_c, 1, p.kernel);
                        let pointwise = conv_weights(pw_seed, p.out_channels, in_c, (1, 1));
                        Some(OpWeights::SepConv {
                            depthwise: PackedFilter::pack(
                                &depthwise,
                                in_c,
                                in_c,
                                p.kernel.0 * p.kernel.1,
                            ),
                            pointwise: PackedFilter::pack(&pointwise, p.out_channels, 1, in_c),
                        })
                    }
                    OpKind::MatMul(p) => {
                        let in_features = input_shape(op.inputs[0]).elements_per_item();
                        Some(OpWeights::MatMul(matmul_weights(
                            seed,
                            p.out_features,
                            in_features,
                        )))
                    }
                    OpKind::Pool(_)
                    | OpKind::Concat
                    | OpKind::Add
                    | OpKind::Relu
                    | OpKind::Identity => None,
                }
            })
            .collect();
        BlockWeights {
            by_op,
            fold_plan: relu_fold_plan(graph),
            merged: Mutex::default(),
            merged_builds: AtomicU64::new(0),
            merged_hits: AtomicU64::new(0),
        }
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

    /// The merged-stage weights for `merged` (an operator-merge stage of a
    /// schedule for this graph): on first use the parts' filters are
    /// regenerated from their seeds, stacked and packed; afterwards the
    /// stage is served from the cache, so repeat batches execute it
    /// directly. Keyed by the stage's operator set.
    ///
    /// # Panics
    ///
    /// Panics if any merged part is not a convolution of `graph`.
    #[must_use]
    pub fn merged_stage(&self, graph: &Graph, merged: &MergedConv) -> Arc<PackedFilter> {
        let key: OpSet = merged.parts.iter().copied().collect();
        if let Some(cached) = self.merged.lock().expect("merged-weight lock").get(&key) {
            self.merged_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        let in_c = merged.input_shape.channels;
        let (mkh, mkw) = merged.params.kernel;
        let mut filter = vec![0.0f32; merged.params.out_channels * in_c * mkh * mkw];
        stack_merged_filter(graph, merged, &mut filter);
        let built = Arc::new(PackedFilter::pack(
            &filter,
            merged.params.out_channels,
            merged.params.groups,
            (in_c / merged.params.groups) * mkh * mkw,
        ));
        self.merged_builds.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.merged.lock().expect("merged-weight lock");
        // Two threads may race to build the same stage; both results are
        // identical, keep whichever landed first.
        Arc::clone(cache.entry(key).or_insert(built))
    }

    /// Number of merged-stage weight tensors built (cache misses).
    #[must_use]
    pub fn merged_builds(&self) -> u64 {
        self.merged_builds.load(Ordering::Relaxed)
    }

    /// Number of merged-stage requests served from the cache.
    #[must_use]
    pub fn merged_hits(&self) -> u64 {
        self.merged_hits.load(Ordering::Relaxed)
    }
}

/// Stacks the per-part filters of `merged` — each regenerated from its
/// [`weight_seed`] in natural `[out_c][in_c][kh][kw]` layout — into `dst`
/// (pre-zeroed, length `out_c · in_c · mkh · mkw`), zero-padding smaller
/// kernels so they stay centred inside the merged kernel.
///
/// # Panics
///
/// Panics if any merged part is not a convolution of `graph`.
fn stack_merged_filter(graph: &Graph, merged: &MergedConv, dst: &mut [f32]) {
    let in_c = merged.input_shape.channels;
    let (mkh, mkw) = merged.params.kernel;
    let mut oc_offset = 0usize;
    for &part in &merged.parts {
        let op = graph.op(part);
        let OpKind::Conv2d(p) = &op.kind else {
            panic!("merged parts must be convolutions")
        };
        let part_weights = conv_weights(weight_seed(graph, part), p.out_channels, in_c, p.kernel);
        let (kh, kw) = p.kernel;
        let (dy, dx) = ((mkh - kh) / 2, (mkw - kw) / 2);
        for oc in 0..p.out_channels {
            for ic in 0..in_c {
                for y in 0..kh {
                    let src = ((oc * in_c + ic) * kh + y) * kw;
                    let at = (((oc_offset + oc) * in_c + ic) * mkh + y + dy) * mkw + dx;
                    dst[at..at + kw].copy_from_slice(&part_weights[src..src + kw]);
                }
            }
        }
        oc_offset += p.out_channels;
    }
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
        NetworkWeights {
            network_name: network.name.clone(),
            blocks: network
                .blocks
                .iter()
                .map(|b| BlockWeights::precompute(&b.graph))
                .collect(),
        }
    }

    /// Logical weight parameters and resident bytes of the per-operator
    /// weights — the one walk both public readings come from.
    fn sized(&self) -> (usize, usize) {
        let mut total = (0usize, 0usize);
        let mut add = |(parameters, bytes): (usize, usize)| {
            total.0 += parameters;
            total.1 += bytes;
        };
        for w in self.blocks.iter().flat_map(|b| b.by_op.iter().flatten()) {
            match w {
                OpWeights::Conv(filter) => add(filter.footprint()),
                OpWeights::SepConv {
                    depthwise,
                    pointwise,
                } => {
                    add(depthwise.footprint());
                    add(pointwise.footprint());
                }
                OpWeights::MatMul(m) => add((m.len(), std::mem::size_of_val(&m[..]))),
            }
        }
        total
    }

    /// The weight-cache bytes held: packed panels (4 B per weight,
    /// edge-panel padding included) and matmul matrices. The merged-stage
    /// filters built so far are counted too: a block holds them for as long
    /// as it lives.
    #[must_use]
    pub fn footprint(&self) -> WeightFootprint {
        let mut f32_bytes = self.sized().1;
        for block in &self.blocks {
            let merged = block.merged.lock().expect("merged-weight lock");
            f32_bytes += merged.values().map(|f| f.footprint().1).sum::<usize>();
        }
        WeightFootprint { f32_bytes }
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

/// Resolves the external output tensors of a graph from its per-operator
/// outputs.
fn graph_outputs(
    graph: &Graph,
    inputs: &[TensorData],
    op_outputs: &[TensorData],
) -> Vec<TensorData> {
    graph
        .outputs()
        .iter()
        .map(|value| match value {
            Value::Input(i) => inputs[*i].clone(),
            Value::Op(id) => op_outputs[id.index()].clone(),
        })
        .collect()
}

/// Executes a whole network sequentially (block by block, operators in
/// topological order), precomputing each block's weights for the call — the
/// reference the serving runtime is checked against. Returns the final
/// block's outputs.
///
/// # Panics
///
/// Panics if `inputs` does not match the first block's input shapes or the
/// blocks do not chain (block `i` outputs ≠ block `i + 1` inputs).
#[must_use]
pub fn execute_network(network: &Network, inputs: &[TensorData]) -> Vec<TensorData> {
    let mut current: Vec<TensorData> = inputs.to_vec();
    for block in &network.blocks {
        let op_outputs = crate::execute_graph(&block.graph, &current);
        current = graph_outputs(&block.graph, &current, &op_outputs);
    }
    current
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

/// Executes one sample through the whole network with pooled storage,
/// consuming `inputs` and recycling every intermediate tensor — the
/// zero-allocation op loop of the serving runtime. Each block runs under
/// its schedule when one is given, sequentially otherwise. Returns the
/// last block's outputs.
fn execute_network_blocks_pooled(
    network: &Network,
    schedule: Option<&NetworkSchedule>,
    weights: &NetworkWeights,
    inputs: Vec<TensorData>,
    arena: &ScratchPool,
) -> Vec<TensorData> {
    let mut current = inputs;
    for (index, block) in network.blocks.iter().enumerate() {
        let op_outputs = match schedule {
            Some(s) => execute_schedule_pooled(
                &block.graph,
                &s.block_schedules[index],
                &current,
                Some(weights.block(index)),
                arena,
            ),
            None => execute_graph_pooled(&block.graph, &current, Some(weights.block(index)), arena),
        };
        let mut op_outputs: Vec<Option<TensorData>> = op_outputs.into_iter().map(Some).collect();
        let declared = block.graph.outputs();
        let mut next: Vec<TensorData> = Vec::with_capacity(declared.len());
        for (j, value) in declared.iter().enumerate() {
            let tensor = match value {
                Value::Input(i) => copy_of(&current[*i], arena),
                Value::Op(id) => {
                    // An op may be listed as a graph output more than once;
                    // only the first occurrence can take ownership.
                    if let Some(prev) = declared[..j].iter().position(|u| u == value) {
                        copy_of(&next[prev], arena)
                    } else {
                        op_outputs[id.index()].take().expect("op executed")
                    }
                }
            };
            next.push(tensor);
        }
        for t in op_outputs.into_iter().flatten() {
            arena.recycle_tensor(t);
        }
        for t in current {
            arena.recycle_tensor(t);
        }
        current = next;
    }
    current
}

/// Executes a stacked batch by running every sample independently on the
/// lanes of the shared worker pool ([`crate::workers`]) — the CPU serving
/// fast path. Each sample runs the whole
/// network (under `schedule` when given) with pooled, allocation-free
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
    if let Some(s) = schedule {
        assert_eq!(
            per_sample.blocks.len(),
            s.block_schedules.len(),
            "schedule and network block counts differ"
        );
    }
    assert_eq!(
        per_sample.blocks.len(),
        weights.num_blocks(),
        "weights and network block counts differ"
    );

    // `max_workers` bounds how many lanes the *samples* occupy; one sample
    // runs on the caller without posting anything.
    let fan_out = workers::lanes().min(batch).min(max_workers).max(1);
    let per_sample_outputs: Vec<Vec<TensorData>> = workers::parallel_map(fan_out, |worker| {
        workers::chunk_range(batch, fan_out, worker)
            .map(|n| {
                let sample_inputs: Vec<TensorData> =
                    inputs.iter().map(|t| sample_pooled(t, n, arena)).collect();
                execute_network_blocks_pooled(per_sample, schedule, weights, sample_inputs, arena)
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
    use ios_core::{
        optimize_network, IosVariant, ParallelizationStrategy, SchedulerConfig, SimCostModel, Stage,
    };
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

    #[test]
    fn footprint_counts_a_merged_stage_filter_once_it_is_built() {
        // One block, two convolutions off the same input, scheduled by
        // IOS-Merge: the first batch builds the merged 160-channel 3×3
        // filter (the 1×1 zero-padded into it) and the block then holds it.
        use ios_ir::{Block, Conv2dParams, GraphBuilder};
        let input = TensorShape::new(1, 64, 12, 12);
        let mut b = GraphBuilder::new("merge_fp_b0", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(96, (1, 1), (1, 1), (0, 0)));
        let net = Network::new("merge_fp", input, vec![Block::new(b.build(vec![a, c]))]);
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let config = SchedulerConfig::for_variant(IosVariant::Merge);
        let schedule = optimize_network(&net, &cost, &config).schedule;
        let merges = |s: &Stage| s.strategy == ParallelizationStrategy::OperatorMerge;
        assert!(schedule.block_schedules[0].stages.iter().any(merges));

        let weights = NetworkWeights::precompute(&net);
        let before = weights.footprint();
        let arena = ScratchPool::new();
        let sample = TensorData::random(input, 3);
        let run = || {
            execute_network_batched(
                &net,
                Some(&schedule),
                &weights,
                std::slice::from_ref(&sample),
                &arena,
            )
        };
        let first = run();
        // 160 output channels are whole panels of k = 64·3·3 f32s.
        let mut after = before;
        after.f32_bytes += 160 * 64 * 9 * 4;
        assert_eq!(weights.footprint(), after);
        assert_eq!(run(), first);
        assert_eq!(weights.footprint(), after, "a cache hit holds nothing new");
        assert_eq!(weights.block(0).merged_builds(), 1);
    }
}
