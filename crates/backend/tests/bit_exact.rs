//! Property tests pinning down the execution engine's bit-exactness
//! guarantees: the im2col + blocked-GEMM convolution, the pool/matmul
//! interior fast paths, the arena-backed executor and the parallel batched
//! network path must all be **bit-identical** (`assert_eq!`, no tolerances)
//! to the naive references — per operator ([`conv2d_naive`] and the loops
//! below) and per graph ([`naive_graph`]) — across randomized shapes, strides, padding,
//! groups, batch sizes — SIMD ISAs (the dispatch module's forced-ISA hook
//! pins every supported tier to the same bits) — and lane counts: the
//! worker pool's forced-lanes hook cuts every operator, stage and batch
//! into 1, 2, 3 and 7 lanes' worth of chunks and pins them to the same
//! bits too.

use ios_backend::ops_cpu::{
    conv2d_naive, conv_weights, matmul, matmul_weights, pool, sep_conv2d, sep_conv_seeds,
};
use ios_backend::workers::with_forced_lanes;
use ios_backend::{
    conv2d, execute_graph, execute_graph_pooled, execute_network, execute_network_batched,
    execute_network_batched_capped, execute_schedule_pooled, relu_fold_plan, split_batch,
    weight_seed, BlockWeights, ConvEpilogue, FoldedRelu, NetworkWeights, PackedFilter, ScratchPool,
    TensorData,
};
use ios_core::{ParallelizationStrategy, Schedule, Stage};
use ios_ir::{
    Activation, Block, Conv2dParams, Graph, GraphBuilder, MatMulParams, Network, OpId, OpKind,
    PoolKind, PoolParams, TensorShape, Value,
};
use proptest::prelude::*;

/// Lane counts the identity properties force: none, the seed host's two,
/// an odd count that leaves ragged chunks, and more lanes than any test
/// host has cores or most test shapes have tiles.
const SPLIT_LANES: [usize; 3] = [2, 3, 7];

/// The original per-element reference pooling loop, preserved verbatim as
/// the oracle for the clamped-range fast path.
fn pool_reference(input: &TensorData, params: &PoolParams) -> TensorData {
    let in_shape = input.shape;
    let (oh, ow) = in_shape.conv_output_hw(params.kernel, params.stride, params.padding);
    let out_shape = TensorShape::new(in_shape.batch, in_shape.channels, oh, ow);
    let mut out = TensorData::zeros(out_shape);
    for n in 0..in_shape.batch {
        for c in 0..in_shape.channels {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc: f32 = if params.kind == PoolKind::Max {
                        f32::NEG_INFINITY
                    } else {
                        0.0
                    };
                    let mut count = 0usize;
                    for ky in 0..params.kernel.0 {
                        for kx in 0..params.kernel.1 {
                            let iy =
                                (y * params.stride.0 + ky) as isize - params.padding.0 as isize;
                            let ix =
                                (x * params.stride.1 + kx) as isize - params.padding.1 as isize;
                            if iy < 0
                                || ix < 0
                                || iy >= in_shape.height as isize
                                || ix >= in_shape.width as isize
                            {
                                continue;
                            }
                            let v = input.at(n, c, iy as usize, ix as usize);
                            if params.kind == PoolKind::Max {
                                acc = acc.max(v);
                            } else {
                                acc += v;
                            }
                            count += 1;
                        }
                    }
                    let value = if params.kind == PoolKind::Max {
                        acc
                    } else {
                        acc / count.max(1) as f32
                    };
                    out.set(n, c, y, x, value);
                }
            }
        }
    }
    out
}

/// The original row-times-matrix reference for the blocked matmul.
fn matmul_reference(input: &TensorData, params: &MatMulParams, weights: &[f32]) -> TensorData {
    let in_features = input.shape.elements_per_item();
    let out_shape = TensorShape::vector(input.shape.batch, params.out_features);
    let mut out = TensorData::zeros(out_shape);
    for n in 0..input.shape.batch {
        let row = &input.data[n * in_features..(n + 1) * in_features];
        for o in 0..params.out_features {
            let w = &weights[o * in_features..(o + 1) * in_features];
            let acc: f32 = row.iter().zip(w).map(|(a, b)| a * b).sum();
            let v = match params.activation {
                Activation::None => acc,
                Activation::Relu => acc.max(0.0),
            };
            out.data[n * params.out_features + o] = v;
        }
    }
    out
}

/// The naive convolution with the epilogue `ep` run as separate
/// whole-tensor passes around it, in the fused epilogue's order: an
/// input-ReLU copy, the convolution with its activation deferred, then
/// bias, residual and `max(0, ·)` — the oracle of every fused f32 kernel.
fn naive_conv_with_passes(
    input: &TensorData,
    params: &Conv2dParams,
    weights: &[f32],
    ep: &ConvEpilogue<'_>,
) -> TensorData {
    let mut pre = input.clone();
    if ep.input_relu {
        for v in &mut pre.data {
            *v = v.max(0.0);
        }
    }
    let plain = Conv2dParams {
        activation: Activation::None,
        ..*params
    };
    let mut out = conv2d_naive(&pre, &plain, weights);
    let plane = out.shape.height * out.shape.width;
    if let Some(bias) = ep.bias {
        for (i, v) in out.data.iter_mut().enumerate() {
            *v += bias[(i / plane) % params.out_channels];
        }
    }
    if let Some(residual) = ep.residual {
        for (v, r) in out.data.iter_mut().zip(&residual.data) {
            *v += r;
        }
    }
    if params.activation == Activation::Relu || ep.relu {
        for v in &mut out.data {
            *v = v.max(0.0);
        }
    }
    out
}

/// A per-output-channel bias and a residual of the output's shape for
/// `params` over an input of `shape`, both derived from `seed`.
fn epilogue_operands(
    seed: u64,
    shape: TensorShape,
    params: &Conv2dParams,
) -> (Vec<f32>, TensorData) {
    let (oh, ow) = shape.conv_output_hw(params.kernel, params.stride, params.padding);
    let out_shape = TensorShape::new(shape.batch, params.out_channels, oh, ow);
    (
        conv_weights(seed ^ 0xB1A5, params.out_channels, 1, (1, 1)),
        TensorData::random(out_shape, seed ^ 0x9E5),
    )
}

/// The separable unit from naive parts: a ReLU copy of the input, the
/// depthwise k×k as a grouped naive convolution, the pointwise 1×1.
fn naive_sep_conv(
    input: &TensorData,
    params: &Conv2dParams,
    depthwise: &[f32],
    pointwise: &[f32],
) -> TensorData {
    let channels = input.shape.channels;
    let mut pre = input.clone();
    for v in &mut pre.data {
        *v = v.max(0.0);
    }
    let dw_params = Conv2dParams {
        out_channels: channels,
        groups: channels,
        activation: Activation::None,
        ..*params
    };
    let pw_params = Conv2dParams::plain(params.out_channels, (1, 1), (1, 1), (0, 0));
    conv2d_naive(
        &conv2d_naive(&pre, &dw_params, depthwise),
        &pw_params,
        pointwise,
    )
}

/// The graph-level oracle: a topological walk that runs every operator
/// through its naive loop — convolutions through [`conv2d_naive`] with the
/// weights regenerated from [`weight_seed`], pooling and matmul through the
/// reference loops above, concat / add / ReLU / identity element by
/// element — with no packing, no fusion, no ReLU folding and no merging.
/// Returns every operator's output, like `execute_graph`.
fn naive_graph(graph: &Graph, inputs: &[TensorData]) -> Vec<TensorData> {
    let mut outputs: Vec<Option<TensorData>> = vec![None; graph.len()];
    for id in graph.topological_order() {
        let op = graph.op(id);
        let args: Vec<&TensorData> = op
            .inputs
            .iter()
            .map(|v| match v {
                Value::Input(i) => &inputs[*i],
                Value::Op(src) => outputs[src.index()].as_ref().expect("producer ran"),
            })
            .collect();
        let seed = weight_seed(graph, id);
        let in_c = args[0].shape.channels;
        let out = match &op.kind {
            OpKind::Conv2d(p) => {
                let weights = conv_weights(seed, p.out_channels, in_c / p.groups, p.kernel);
                conv2d_naive(args[0], p, &weights)
            }
            OpKind::SepConv2d(p) => {
                let (dw_seed, pw_seed) = sep_conv_seeds(seed);
                let depthwise = conv_weights(dw_seed, in_c, 1, p.kernel);
                let pointwise = conv_weights(pw_seed, p.out_channels, in_c, (1, 1));
                naive_sep_conv(args[0], p, &depthwise, &pointwise)
            }
            OpKind::Pool(p) if p.kind == PoolKind::GlobalAvg => {
                let shape = args[0].shape;
                let plane = shape.height * shape.width;
                TensorData {
                    shape: TensorShape::new(shape.batch, shape.channels, 1, 1),
                    data: args[0]
                        .data
                        .chunks(plane)
                        .map(|ch| ch.iter().fold(0.0f32, |acc, v| acc + v) / plane as f32)
                        .collect(),
                }
            }
            OpKind::Pool(p) => pool_reference(args[0], p),
            OpKind::MatMul(p) => {
                let in_features = args[0].shape.elements_per_item();
                let weights = matmul_weights(seed, p.out_features, in_features);
                matmul_reference(args[0], p, &weights)
            }
            OpKind::Concat => {
                let mut out = TensorData::zeros(op.output_shape);
                for n in 0..out.shape.batch {
                    let mut c0 = 0;
                    for t in &args {
                        for c in 0..t.shape.channels {
                            for y in 0..t.shape.height {
                                for x in 0..t.shape.width {
                                    out.set(n, c0 + c, y, x, t.at(n, c, y, x));
                                }
                            }
                        }
                        c0 += t.shape.channels;
                    }
                }
                out
            }
            OpKind::Add => {
                let mut out = args[0].clone();
                for t in &args[1..] {
                    for (o, v) in out.data.iter_mut().zip(&t.data) {
                        *o += v;
                    }
                }
                out
            }
            OpKind::Relu => {
                let mut out = args[0].clone();
                for v in &mut out.data {
                    *v = v.max(0.0);
                }
                out
            }
            OpKind::Identity => args[0].clone(),
        };
        assert_eq!(out.shape, op.output_shape, "oracle shape of {}", op.name);
        outputs[id.index()] = Some(out);
    }
    outputs.into_iter().map(|o| o.expect("op ran")).collect()
}

/// Asserts that an executor's per-operator outputs are the oracle's. The
/// one operator whose stored tensor an executor may change is a convolution
/// that absorbed the standalone ReLU behind it ([`relu_fold_plan`] — only
/// planned when nothing else reads the convolution): it holds the
/// oracle's tensor already rectified.
fn assert_matches_oracle(graph: &Graph, got: &[TensorData], oracle: &[TensorData], what: &str) {
    let plan = relu_fold_plan(graph);
    assert_eq!(got.len(), oracle.len());
    for (op, (got, want)) in graph.ops().iter().zip(got.iter().zip(oracle)) {
        let mut want = want.clone();
        if plan[op.id.index()] == FoldedRelu::FuseRelu {
            for v in &mut want.data {
                *v = v.max(0.0);
            }
        }
        assert_eq!(got, &want, "{}: {what}, operator {}", graph.name(), op.name);
    }
}

/// A tiny two-block network used by the executor/batched properties.
fn tiny_network() -> Network {
    let input = TensorShape::new(1, 6, 9, 9);
    let mut b = GraphBuilder::new("prop_tiny_b0", input);
    let x = b.input(0);
    let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let c = b.conv2d("c", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
    let p = b.pool("p", x, PoolParams::max((2, 2), (2, 2), (0, 0)));
    let cat = b.concat("cat", &[a, c]);
    let block0 = Block::new(b.build(vec![cat, p]));

    let shapes = block0.graph.output_shapes();
    let mut b = GraphBuilder::with_inputs("prop_tiny_b1", shapes);
    let x0 = b.input(0);
    let x1 = b.input(1);
    let d = b.conv2d("d", x0, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
    let e = b.conv2d("e", x0, Conv2dParams::plain(6, (1, 1), (1, 1), (0, 0)));
    let s = b.add_op("s", &[d, e]);
    let f = b.conv2d("f", x1, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
    let block1 = Block::new(b.build(vec![s, f]));
    Network::new("prop_tiny", input, vec![block0, block1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_conv_is_bit_identical_to_naive(
        seed in any::<u64>(),
        batch in 1usize..3,
        group_case in 0usize..3,
        channels_per_group in 1usize..5,
        out_per_group in 1usize..5,
        height in 1usize..11,
        width in 1usize..11,
        kh in 1usize..5,
        kw in 1usize..5,
        sh in 1usize..4,
        sw in 1usize..4,
        ph in 0usize..4,
        pw in 0usize..4,
        relu in any::<bool>(),
    ) {
        let groups = [1usize, 2, 3][group_case];
        let in_c = channels_per_group * groups;
        let out_c = out_per_group * groups;
        // The IR requires the padded input to cover the kernel.
        let h = height.max(kh.saturating_sub(2 * ph));
        let w = width.max(kw.saturating_sub(2 * pw));
        let shape = TensorShape::new(batch, in_c, h, w);
        let params = Conv2dParams {
            out_channels: out_c,
            kernel: (kh, kw),
            stride: (sh, sw),
            padding: (ph, pw),
            groups,
            activation: if relu { Activation::Relu } else { Activation::None },
        };
        let input = TensorData::random(shape, seed);
        let weights = conv_weights(seed ^ 0xC0DE, out_c, channels_per_group, (kh, kw));
        // The tile-major packed layout must consume exactly the same weight
        // values in the same per-element order as the naive oracle.
        let packed = PackedFilter::pack(&weights, out_c, groups, channels_per_group * kh * kw);
        let packed_out = conv2d(
            &input, &params, &packed, &ConvEpilogue::default(), &ScratchPool::new());
        prop_assert_eq!(&packed_out, &conv2d_naive(&input, &params, &weights));
    }

    #[test]
    fn pool_fast_path_is_bit_identical_to_reference(
        seed in any::<u64>(),
        batch in 1usize..3,
        channels in 1usize..5,
        height in 2usize..12,
        width in 2usize..12,
        kh in 1usize..4,
        kw in 1usize..4,
        sh in 1usize..3,
        sw in 1usize..3,
        ph in 0usize..2,
        pw in 0usize..2,
        is_max in any::<bool>(),
    ) {
        let h = height.max(kh.saturating_sub(2 * ph));
        let w = width.max(kw.saturating_sub(2 * pw));
        let input = TensorData::random(TensorShape::new(batch, channels, h, w), seed);
        let params = if is_max {
            PoolParams::max((kh, kw), (sh, sw), (ph, pw))
        } else {
            PoolParams::avg((kh, kw), (sh, sw), (ph, pw))
        };
        prop_assert_eq!(
            pool(&input, &params, &ScratchPool::new()),
            pool_reference(&input, &params)
        );
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_reference(
        seed in any::<u64>(),
        batch in 1usize..4,
        in_features in 1usize..33,
        out_features in 1usize..19,
        relu in any::<bool>(),
    ) {
        let input = TensorData::random(TensorShape::vector(batch, in_features), seed);
        let params = MatMulParams {
            out_features,
            activation: if relu { Activation::Relu } else { Activation::None },
        };
        let weights = matmul_weights(seed ^ 0xFEED, out_features, in_features);
        prop_assert_eq!(
            matmul(&input, &params, &weights, &ScratchPool::new()),
            matmul_reference(&input, &params, &weights)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_conv_epilogue_is_bit_identical_to_separate_passes(
        seed in any::<u64>(),
        batch in 1usize..3,
        group_case in 0usize..3,
        channels_per_group in 1usize..4,
        out_per_group in 1usize..4,
        height in 1usize..9,
        width in 1usize..9,
        kh in 1usize..4,
        kw in 1usize..4,
        sh in 1usize..3,
        sw in 1usize..3,
        ph in 0usize..3,
        pw in 0usize..3,
        conv_relu in any::<bool>(),
        input_relu in any::<bool>(),
        use_bias in any::<bool>(),
        use_residual in any::<bool>(),
        ep_relu in any::<bool>(),
    ) {
        let groups = [1usize, 2, 3][group_case];
        let in_c = channels_per_group * groups;
        let out_c = out_per_group * groups;
        let h = height.max(kh.saturating_sub(2 * ph));
        let w = width.max(kw.saturating_sub(2 * pw));
        let shape = TensorShape::new(batch, in_c, h, w);
        let params = Conv2dParams {
            out_channels: out_c,
            kernel: (kh, kw),
            stride: (sh, sw),
            padding: (ph, pw),
            groups,
            activation: if conv_relu { Activation::Relu } else { Activation::None },
        };
        let input = TensorData::random(shape, seed);
        let weights = conv_weights(seed ^ 0xC0DE, out_c, channels_per_group, (kh, kw));

        let (bias, residual) = epilogue_operands(seed, shape, &params);
        let ep = ConvEpilogue {
            input_relu,
            bias: use_bias.then_some(bias.as_slice()),
            residual: use_residual.then_some(&residual),
            relu: ep_relu,
        };
        let arena = ScratchPool::new();
        let packed = PackedFilter::pack(&weights, out_c, groups, channels_per_group * kh * kw);
        let packed_fused = conv2d(&input, &params, &packed, &ep, &arena);
        prop_assert_eq!(&packed_fused, &naive_conv_with_passes(&input, &params, &weights, &ep));
    }

    #[test]
    fn f32_kernels_are_bit_identical_across_isas(
        seed in any::<u64>(),
        batch in 1usize..3,
        group_case in 0usize..3,
        channels_per_group in 1usize..4,
        out_per_group in 1usize..6,
        height in 1usize..9,
        width in 1usize..12,
        kh in 1usize..4,
        kw in 1usize..4,
        sh in 1usize..3,
        sw in 1usize..3,
        ph in 0usize..3,
        pw in 0usize..3,
        input_relu in any::<bool>(),
        use_bias in any::<bool>(),
        use_residual in any::<bool>(),
        ep_relu in any::<bool>(),
    ) {
        // The explicit AVX2 and AVX-512 tiles: the kernel must produce the
        // naive oracle's bits under every ISA the host supports, across random shapes — edge
        // tiles (partial mr/nr) included via the free-ranging out_c and
        // spatial extents — and every epilogue combination.
        use ios_backend::simd;
        let groups = [1usize, 2, 3][group_case];
        let in_c = channels_per_group * groups;
        let out_c = out_per_group * groups;
        let h = height.max(kh.saturating_sub(2 * ph));
        let w = width.max(kw.saturating_sub(2 * pw));
        let shape = TensorShape::new(batch, in_c, h, w);
        let params = Conv2dParams {
            out_channels: out_c,
            kernel: (kh, kw),
            stride: (sh, sw),
            padding: (ph, pw),
            groups,
            activation: Activation::None,
        };
        let input = TensorData::random(shape, seed);
        let weights = conv_weights(seed ^ 0xC0DE, out_c, channels_per_group, (kh, kw));
        let packed = PackedFilter::pack(&weights, out_c, groups, channels_per_group * kh * kw);
        let arena = ScratchPool::new();
        let (bias, residual) = epilogue_operands(seed, shape, &params);
        let ep = ConvEpilogue {
            input_relu,
            bias: use_bias.then_some(bias.as_slice()),
            residual: use_residual.then_some(&residual),
            relu: ep_relu,
        };
        let reference = naive_conv_with_passes(&input, &params, &weights, &ep);
        for isa in simd::supported_isas() {
            let out = simd::with_forced_isa(isa, || {
                conv2d(&input, &params, &packed, &ep, &arena)
            });
            prop_assert_eq!(&out, &reference, "f32 kernel differs from the oracle on {}", isa);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn arena_backed_executor_is_bit_identical(seed in any::<u64>()) {
        let net = tiny_network();
        let graph = &net.blocks[0].graph;
        let inputs = vec![TensorData::random(net.input_shape, seed)];
        let reference = naive_graph(graph, &inputs);
        prop_assert_eq!(&execute_graph(graph, &inputs), &reference);
        let weights = BlockWeights::precompute(graph);
        let arena = ScratchPool::new();
        let pooled = execute_graph_pooled(graph, &inputs, Some(&weights), &arena);
        prop_assert_eq!(&pooled, &reference);
        // `None` precomputes the same weights for the call.
        prop_assert_eq!(&execute_graph_pooled(graph, &inputs, None, &arena), &reference);
    }

    #[test]
    fn parallel_batched_execution_is_bit_identical_per_sample(
        seed in any::<u64>(),
        batch in 1usize..6,
    ) {
        let net = tiny_network();
        let weights = NetworkWeights::precompute(&net);
        let samples: Vec<TensorData> = (0..batch)
            .map(|i| TensorData::random(net.input_shape, seed.wrapping_add(i as u64)))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = ios_backend::stack_batch(&refs);
        let arena = ScratchPool::new();
        let batched = execute_network_batched(&net, None, &weights, &[stacked], &arena);
        let per_output: Vec<Vec<TensorData>> = batched.iter().map(split_batch).collect();
        for (i, sample) in samples.iter().enumerate() {
            let solo = execute_network(&net, std::slice::from_ref(sample));
            for (o, solo_out) in solo.iter().enumerate() {
                prop_assert_eq!(&per_output[o][i], solo_out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn convolutions_are_bit_identical_for_every_lane_count(
        seed in any::<u64>(),
        batch in 1usize..3,
        group_case in 0usize..3,
        channels_per_group in 1usize..5,
        out_per_group in 1usize..10,
        height in 1usize..14,
        width in 1usize..14,
        kh in 1usize..4,
        kw in 1usize..4,
        sh in 1usize..3,
        sw in 1usize..3,
        ph in 0usize..3,
        pw in 0usize..3,
        conv_relu in any::<bool>(),
        input_relu in any::<bool>(),
        use_bias in any::<bool>(),
        use_residual in any::<bool>(),
    ) {
        // Dense and grouped, every fused epilogue: the tile grid cut along
        // columns (few lanes), rows (more lanes than column blocks) or
        // groups must give the bits of the uncut walk, which the properties
        // above pin to the naive oracle.
        let groups = [1usize, 2, 3][group_case];
        let in_c = channels_per_group * groups;
        let out_c = out_per_group * groups;
        let h = height.max(kh.saturating_sub(2 * ph));
        let w = width.max(kw.saturating_sub(2 * pw));
        let params = Conv2dParams {
            out_channels: out_c,
            kernel: (kh, kw),
            stride: (sh, sw),
            padding: (ph, pw),
            groups,
            activation: if conv_relu { Activation::Relu } else { Activation::None },
        };
        let input = TensorData::random(TensorShape::new(batch, in_c, h, w), seed);
        let weights = conv_weights(seed ^ 0xC0DE, out_c, channels_per_group, (kh, kw));
        let k_len = channels_per_group * kh * kw;
        let packed = PackedFilter::pack(&weights, out_c, groups, k_len);
        let arena = ScratchPool::new();
        let (bias, residual) = epilogue_operands(seed, input.shape, &params);
        let ep = ConvEpilogue {
            input_relu,
            bias: use_bias.then_some(bias.as_slice()),
            residual: use_residual.then_some(&residual),
            relu: false,
        };
        let run = |lanes: usize| {
            with_forced_lanes(lanes, || conv2d(&input, &params, &packed, &ep, &arena))
        };
        let f32_one = run(1);
        prop_assert_eq!(&f32_one, &naive_conv_with_passes(&input, &params, &weights, &ep));
        for lanes in SPLIT_LANES {
            prop_assert_eq!(&run(lanes), &f32_one, "packed f32 differs on {} lanes", lanes);
        }
    }

    #[test]
    fn sepconv_and_pooling_are_bit_identical_for_every_lane_count(
        seed in any::<u64>(),
        batch in 1usize..3,
        channels in 1usize..9,
        out_channels in 1usize..9,
        height in 3usize..14,
        width in 3usize..14,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        is_max in any::<bool>(),
    ) {
        let input = TensorData::random(TensorShape::new(batch, channels, height, width), seed);
        let arena = ScratchPool::new();

        // The separable unit splits its depthwise stage over groups and
        // its pointwise stage over tiles.
        let params = Conv2dParams::relu(out_channels, (k, k), (stride, stride), (pad, pad));
        let dw = conv_weights(seed ^ 0xD17, channels, 1, (k, k));
        let pw = conv_weights(seed ^ 0x117, out_channels, channels, (1, 1));
        let dw_packed = PackedFilter::pack(&dw, channels, channels, k * k);
        let pw_packed = PackedFilter::pack(&pw, out_channels, 1, channels);
        let pool_params = if is_max {
            PoolParams::max((k, k), (stride, stride), (pad, pad))
        } else {
            PoolParams::avg((k, k), (stride, stride), (pad, pad))
        };
        let run = |lanes: usize| {
            with_forced_lanes(lanes, || {
                (
                    sep_conv2d(&input, &params, &dw_packed, &pw_packed, &arena),
                    pool(&input, &pool_params, &arena),
                )
            })
        };
        let one = run(1);
        prop_assert_eq!(&one.0, &naive_sep_conv(&input, &params, &dw, &pw));
        prop_assert_eq!(&one.1, &pool_reference(&input, &pool_params));
        for lanes in SPLIT_LANES {
            prop_assert_eq!(&run(lanes), &one, "differs on {} lanes", lanes);
        }
    }
}

/// The pooling window body against the reference loop at every tier and
/// lane count, over the edges of its geometry: widths on both sides of a
/// 16-wide run, strides up to three column phases, padding up to windows
/// wholly in it, square and one-sided kernels. Inputs seeded with ±0.0,
/// ±∞ and subnormals must give the reference's bits; inputs with NaN must
/// give NaN at the reference's positions and its bits everywhere else. A
/// NaN's payload is not asserted: the reference's `acc += v` is commutative
/// to the compiler, so which of two NaN payloads an average carries on is
/// not fixed there to begin with.
#[test]
fn pool_window_is_bit_identical_at_every_tier_and_lane_count() {
    use ios_backend::simd;
    let arena = ScratchPool::new();
    let kernels = [(1, 1), (2, 2), (3, 3), (3, 1), (1, 3)];
    let windows = kernels
        .into_iter()
        .flat_map(|k| (1..=3).flat_map(move |s| (0..=2).map(move |p| (k, (s, s), (p, p)))));
    for (case, w) in [1usize, 15, 16, 17, 33, 35].into_iter().enumerate() {
        let mut clean = TensorData::random(TensorShape::new(1, 3, 4, w), 7000 + case as u64);
        for (i, v) in clean.data.iter_mut().enumerate() {
            // Plane 1 is non-positive, so its maxima are mostly zero ties.
            let random = if i / (4 * w) == 1 { -v.abs() } else { *v };
            *v = match i % 16 {
                0 | 5 | 10 => 0.0,
                1 | 6 | 13 => -0.0,
                3 => f32::from_bits(1 + i as u32 % 7),
                8 => -f32::from_bits(0x7F_FFFF - i as u32 % 5),
                11 if i % 3 == 0 => f32::INFINITY,
                14 if i % 5 == 0 => f32::NEG_INFINITY,
                _ => random,
            };
        }
        // Quiet NaNs of both signs with payloads of their own.
        let mut with_nan = clean.clone();
        for (i, v) in with_nan.data.iter_mut().enumerate().skip(2).step_by(9) {
            let payload = (i as u32 * 0x1_0101) & 0x3F_FFFF;
            *v = f32::from_bits(0x7FC0_0000 | payload | ((i as u32 % 2) << 31));
        }
        // The IR requires the padded input to cover the window.
        let fits =
            |&((kh, kw), _, (p, _)): &(_, _, (usize, usize))| kh <= 4 + 2 * p && kw <= w + 2 * p;
        for (kernel, stride, padding) in windows.clone().filter(fits) {
            for params in [
                PoolParams::max(kernel, stride, padding),
                PoolParams::avg(kernel, stride, padding),
            ] {
                for (nan, input) in [(false, &clean), (true, &with_nan)] {
                    let want = pool_reference(input, &params);
                    for isa in simd::supported_isas() {
                        for lanes in [1, 2, 3, 7] {
                            let got = simd::with_forced_isa(isa, || {
                                with_forced_lanes(lanes, || pool(input, &params, &arena))
                            });
                            assert_eq!(got.shape, want.shape);
                            let same = got.data.iter().zip(&want.data).all(|(g, r)| {
                                g.to_bits() == r.to_bits() || nan && g.is_nan() && r.is_nan()
                            });
                            assert!(
                                same,
                                "width {w}, {params:?}, NaN {nan}, {isa}, {lanes} lanes"
                            );
                            arena.recycle_tensor(got);
                        }
                    }
                }
            }
        }
    }
}

/// Block 0 of [`tiny_network`] under two hand-built schedules: the 3×3 and
/// the 1×1 convolution merged into one kernel, and all three branches as
/// the groups of one concurrent stage.
fn tiny_block_schedules(network: &Network) -> [Schedule; 2] {
    let graph = &network.blocks[0].graph;
    let stage = |ops: &[usize], strategy, groups: Vec<Vec<usize>>| Stage {
        ops: ops.iter().map(|&i| OpId(i)).collect(),
        strategy,
        groups: groups
            .into_iter()
            .map(|g| g.into_iter().map(OpId).collect())
            .collect(),
        measured_latency_us: 1.0,
    };
    use ParallelizationStrategy::{ConcurrentExecution, OperatorMerge};
    // Operators in build order: a = 0, c = 1, p = 2, cat = 3.
    let merged = Schedule::new(
        graph.name(),
        vec![
            stage(&[0, 1], OperatorMerge, vec![vec![0, 1]]),
            stage(&[2, 3], ConcurrentExecution, vec![vec![2], vec![3]]),
        ],
    );
    let concurrent = Schedule::new(
        graph.name(),
        vec![
            stage(
                &[0, 1, 2],
                ConcurrentExecution,
                vec![vec![0], vec![1], vec![2]],
            ),
            stage(&[3], ConcurrentExecution, vec![vec![3]]),
        ],
    );
    for schedule in [&merged, &concurrent] {
        schedule
            .validate(graph)
            .expect("hand-built schedule is valid");
    }
    [merged, concurrent]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn stages_blocks_and_batches_are_bit_identical_for_every_lane_count(
        seed in any::<u64>(),
        batch in 1usize..5,
    ) {
        use ios_core::{optimize_network, SchedulerConfig, SimCostModel};
        use ios_sim::{DeviceKind, Simulator};
        let net = tiny_network();
        let weights = NetworkWeights::precompute(&net);
        let arena = ScratchPool::new();

        // A merged stage, and operator chunks posted from inside the
        // groups of a concurrent stage (jobs nested in a job).
        let block_inputs = vec![TensorData::random(net.input_shape, seed)];
        let graph = &net.blocks[0].graph;
        for schedule in tiny_block_schedules(&net) {
            let run = |lanes: usize| {
                with_forced_lanes(lanes, || {
                    execute_schedule_pooled(
                        graph, &schedule, &block_inputs, Some(weights.block(0)), &arena)
                })
            };
            let one = run(1);
            prop_assert_eq!(&one, &execute_graph(graph, &block_inputs));
            for lanes in SPLIT_LANES {
                prop_assert_eq!(&run(lanes), &one, "block differs on {} lanes", lanes);
            }
        }

        // Whole scheduled blocks, chained, under the sample fan-out: three
        // levels of jobs on one pool.
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let schedule = optimize_network(&net, &cost, &SchedulerConfig::paper_default()).schedule;
        let samples: Vec<TensorData> = (0..batch)
            .map(|i| TensorData::random(net.input_shape, seed.wrapping_add(i as u64)))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = ios_backend::stack_batch(&refs);
        let run = |lanes: usize| {
            with_forced_lanes(lanes, || {
                execute_network_batched(
                    &net, Some(&schedule), &weights, std::slice::from_ref(&stacked), &arena)
            })
        };
        let one = run(1);
        for lanes in SPLIT_LANES {
            prop_assert_eq!(&run(lanes), &one, "network differs on {} lanes", lanes);
        }
    }
}

/// Graphs that between them hold every operator kind: the two blocks of
/// [`tiny_network`] (convolutions, pooling, concat, add), a standalone ReLU
/// the executor folds into its producer, and a separable convolution under
/// a global-average / identity / matmul head.
fn oracle_graphs() -> Vec<Graph> {
    let mut graphs: Vec<Graph> = tiny_network().blocks.into_iter().map(|b| b.graph).collect();

    let mut b = GraphBuilder::new("oracle_fold", TensorShape::new(2, 4, 8, 8));
    let x = b.input(0);
    let c = b.conv2d("c", x, Conv2dParams::plain(6, (3, 3), (1, 1), (1, 1)));
    let r = b.relu("r", c);
    let d = b.conv2d("d", r, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
    graphs.push(b.build(vec![d]));

    let mut b = GraphBuilder::new("oracle_head", TensorShape::new(2, 5, 7, 7));
    let x = b.input(0);
    let s = b.sep_conv2d("s", x, Conv2dParams::relu(9, (3, 3), (2, 2), (1, 1)));
    let g = b.pool("g", s, PoolParams::global_avg());
    let i = b.identity("i", g);
    let m = b.matmul("m", i, 11);
    graphs.push(b.build(vec![m]));
    graphs
}

/// Every executor entry against the graph-level naive oracle: the
/// sequential walk (which packs weights, fuses activations and folds the
/// standalone ReLU) and the scheduled walks — one with a **merge stage**,
/// whose merged filter is regenerated from the parts' seeds, stacked,
/// zero-padded and packed, and must still produce the bits of the two
/// naive convolutions it replaces.
#[test]
fn executors_match_the_graph_level_naive_oracle() {
    let arena = ScratchPool::new();
    let random_inputs = |graph: &Graph, seed: u64| -> Vec<TensorData> {
        graph
            .input_shapes()
            .iter()
            .enumerate()
            .map(|(i, shape)| TensorData::random(*shape, seed + i as u64))
            .collect()
    };
    for (g, graph) in oracle_graphs().iter().enumerate() {
        for seed in [3u64, 1717] {
            let inputs = random_inputs(graph, seed + g as u64);
            let reference = naive_graph(graph, &inputs);
            let got = execute_graph(graph, &inputs);
            assert_matches_oracle(graph, &got, &reference, "execute_graph");
        }
    }

    let net = tiny_network();
    let graph = &net.blocks[0].graph;
    let weights = BlockWeights::precompute(graph);
    let [merged, concurrent] = tiny_block_schedules(&net);
    assert!(
        merged.stages[0].strategy == ParallelizationStrategy::OperatorMerge,
        "the first schedule must open with the merge stage"
    );
    for seed in [5u64, 4242] {
        let inputs = random_inputs(graph, seed);
        let reference = naive_graph(graph, &inputs);
        for schedule in [&merged, &concurrent] {
            for w in [Some(&weights), None] {
                let got = execute_schedule_pooled(graph, schedule, &inputs, w, &arena);
                assert_matches_oracle(graph, &got, &reference, "execute_schedule_pooled");
            }
        }
    }
    assert_eq!(weights.merged_builds(), 1, "one distinct merge stage");
}

/// The steady-state guarantee of the full serving boundary: after one
/// warm-up batch, repeat batches of the same shape profile perform zero
/// fresh heap allocations inside the execution engine — including the
/// stacked *output* tensors, which now draw from the arena and return to
/// it when the caller recycles them. A single sample worker makes the
/// pool's take/recycle sequence fully deterministic (a multi-worker pool's
/// *peak simultaneous* demand depends on thread interleaving); the
/// parallel path's numerics are covered by the proptest above.
#[test]
fn batched_execution_boundary_is_allocation_free_in_steady_state() {
    let net = tiny_network();
    let weights = NetworkWeights::precompute(&net);
    let samples: Vec<TensorData> = (0..4)
        .map(|i| TensorData::random(net.input_shape, 90 + i as u64))
        .collect();
    let refs: Vec<&TensorData> = samples.iter().collect();
    let stacked = ios_backend::stack_batch(&refs);
    let run = |arena: &ScratchPool| {
        execute_network_batched_capped(
            &net,
            None,
            &weights,
            std::slice::from_ref(&stacked),
            arena,
            1,
        )
    };

    let arena = ScratchPool::new();
    let warmup = run(&arena);
    // Keep heap copies as the reference; the arena-drawn originals return
    // to the pool like a serving runtime's response leases would.
    let first: Vec<TensorData> = warmup.to_vec();
    for t in warmup {
        arena.recycle_tensor(t);
    }
    let warmed = arena.fresh_allocations();
    assert!(warmed > 0, "the warm-up batch fills the pool");
    for round in 0..3 {
        let again = run(&arena);
        assert_eq!(again, first, "repeat batches are deterministic");
        for t in again {
            arena.recycle_tensor(t);
        }
        assert_eq!(
            arena.fresh_allocations(),
            warmed,
            "round {round}: the steady-state serving boundary must not allocate"
        );
        assert!(arena.reuses() > 0);
    }
    // The parallel fan-out shares the same pool and produces the same
    // stacked outputs (its allocation count depends on interleaving).
    let parallel =
        execute_network_batched(&net, None, &weights, std::slice::from_ref(&stacked), &arena);
    assert_eq!(parallel, first);
}
