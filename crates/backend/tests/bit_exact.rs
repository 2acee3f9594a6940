//! Property tests pinning down the execution engine's bit-exactness
//! guarantees: the im2col + blocked-GEMM convolution, the pool/matmul
//! interior fast paths, the arena-backed executor and the parallel batched
//! network path must all be **bit-identical** (`assert_eq!`, no tolerances)
//! to the naive reference across randomized shapes, strides, padding,
//! groups, batch sizes — SIMD ISAs (the dispatch module's forced-ISA hook
//! pins every supported tier to the same bits) — and lane counts: the
//! worker pool's forced-lanes hook cuts every operator, stage and batch
//! into 1, 2, 3 and 7 lanes' worth of chunks and pins them to the same
//! bits too.

use ios_backend::gemm::{
    conv2d_im2col_fused, conv2d_im2col_packed_fused, conv2d_im2col_quant_fused,
};
use ios_backend::ops_cpu::{
    conv2d, conv2d_naive, conv2d_naive_quant, conv2d_packed, conv_weights, matmul, matmul_weights,
    pool, sep_conv2d_packed_pooled, sep_conv2d_pooled, sep_conv2d_quant_pooled,
};
use ios_backend::workers::with_forced_lanes;
use ios_backend::{
    execute_graph, execute_graph_pooled, execute_graph_uncached, execute_network,
    execute_network_batched, execute_network_batched_capped, execute_network_pipelined,
    execute_schedule_pooled, sample_scale, split_batch, BlockWeights, ConvEpilogue, NetworkWeights,
    PackedFilter, QuantizedFilter, ScratchPool, TensorData, WeightPrecision,
};
use ios_core::{ParallelizationStrategy, Schedule, Stage};
use ios_ir::{
    Activation, Block, Conv2dParams, GraphBuilder, MatMulParams, Network, OpId, PoolKind,
    PoolParams, SegmentPlan, TensorShape,
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
        let fast = conv2d(&input, &params, &weights);
        let reference = conv2d_naive(&input, &params, &weights);
        prop_assert_eq!(&fast, &reference);
        // The tile-major packed layout must consume exactly the same weight
        // values in the same per-element order: bit-identical to both the
        // unpacked GEMM and the naive oracle.
        let packed = PackedFilter::pack(&weights, out_c, groups, channels_per_group * kh * kw);
        let packed_out = conv2d_packed(&input, &params, &packed);
        prop_assert_eq!(&packed_out, &fast);
        prop_assert_eq!(&packed_out, &reference);
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
        prop_assert_eq!(pool(&input, &params), pool_reference(&input, &params));
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
            matmul(&input, &params, &weights),
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

        // Separate-pass reference: an input-ReLU copy, the convolution with
        // the activation deferred, then bias / residual / ReLU as
        // whole-tensor passes in the epilogue's order.
        let mut pre = input.clone();
        if input_relu {
            for v in &mut pre.data {
                *v = v.max(0.0);
            }
        }
        let plain = Conv2dParams { activation: Activation::None, ..params };
        let mut reference = conv2d(&pre, &plain, &weights);
        let out_shape = reference.shape;
        let plane = out_shape.height * out_shape.width;
        let bias = conv_weights(seed ^ 0xB1A5, out_c, 1, (1, 1));
        let residual = TensorData::random(out_shape, seed ^ 0x9E5);
        if use_bias {
            for n in 0..out_shape.batch {
                for (oc, &bv) in bias.iter().enumerate() {
                    let start = (n * out_c + oc) * plane;
                    for v in &mut reference.data[start..start + plane] {
                        *v += bv;
                    }
                }
            }
        }
        if use_residual {
            for (v, r) in reference.data.iter_mut().zip(&residual.data) {
                *v += r;
            }
        }
        if conv_relu || ep_relu {
            for v in &mut reference.data {
                *v = v.max(0.0);
            }
        }

        let ep = ConvEpilogue {
            input_relu,
            bias: use_bias.then_some(bias.as_slice()),
            residual: use_residual.then_some(&residual),
            relu: ep_relu,
        };
        let arena = ScratchPool::new();
        let fused = conv2d_im2col_fused(&input, &params, &weights, &ep, &arena);
        prop_assert_eq!(&fused, &reference);
        let packed = PackedFilter::pack(&weights, out_c, groups, channels_per_group * kh * kw);
        let packed_fused = conv2d_im2col_packed_fused(&input, &params, &packed, &ep, &arena);
        prop_assert_eq!(&packed_fused, &reference);
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
        // The explicit AVX2 f32 tiles (mirroring the int8 "avx2 must match
        // scalar" pin): both GEMM paths must produce bit-identical outputs
        // under every ISA the host supports, across random shapes — edge
        // tiles (partial mr/nr) included via the free-ranging out_c and
        // spatial extents — and every epilogue combination.
        use ios_backend::simd::{self, Isa};
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
        let probe = conv2d_im2col_fused(&input, &params, &weights, &ConvEpilogue::default(), &arena);
        let bias = conv_weights(seed ^ 0xB1A5, out_c, 1, (1, 1));
        let residual = TensorData::random(probe.shape, seed ^ 0x9E5);
        let ep = ConvEpilogue {
            input_relu,
            bias: use_bias.then_some(bias.as_slice()),
            residual: use_residual.then_some(&residual),
            relu: ep_relu,
        };
        let run = |isa: Isa| {
            simd::with_forced_isa(isa, || {
                (
                    conv2d_im2col_fused(&input, &params, &weights, &ep, &arena),
                    conv2d_im2col_packed_fused(&input, &params, &packed, &ep, &arena),
                )
            })
        };
        let (ref_unpacked, ref_packed) = run(Isa::Scalar);
        for isa in [Isa::Sse2, Isa::Avx2] {
            if isa > simd::detected_isa() {
                continue;
            }
            let (unpacked, packed_out) = run(isa);
            prop_assert_eq!(&unpacked, &ref_unpacked, "unpacked f32 path differs on {}", isa);
            prop_assert_eq!(&packed_out, &ref_packed, "packed f32 path differs on {}", isa);
        }
    }

    #[test]
    fn quantized_conv_matches_its_oracle_and_stays_calibrated(
        seed in any::<u64>(),
        batch in 1usize..3,
        group_case in 0usize..3,
        channels_per_group in 1usize..4,
        out_per_group in 1usize..4,
        height in 2usize..9,
        width in 2usize..9,
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
        let k_len = channels_per_group * kh * kw;
        let quant = QuantizedFilter::quantize(&weights, out_c, groups, k_len);

        let arena = ScratchPool::new();
        let probe = conv2d_im2col_fused(&input, &params, &weights, &ConvEpilogue::default(), &arena);
        let bias = conv_weights(seed ^ 0xB1A5, out_c, 1, (1, 1));
        let residual = TensorData::random(probe.shape, seed ^ 0x9E5);
        let ep = ConvEpilogue {
            input_relu,
            bias: use_bias.then_some(bias.as_slice()),
            residual: use_residual.then_some(&residual),
            relu: false,
        };

        // Byte-identity: every int8 fast path must equal the naive integer
        // oracle exactly — integer accumulation is order-exact.
        let fast = conv2d_im2col_quant_fused(&input, &params, &quant, &ep, &arena);
        let oracle = conv2d_naive_quant(&input, &params, &quant, &ep);
        prop_assert_eq!(&fast, &oracle);

        // Calibration: against the fused f32 kernel, each element stays
        // within the documented k_len · s_in · s_w[oc] · 128 bound (one
        // half-step rounding per quantized operand, no clamping by
        // construction of the scales).
        let f32_out = conv2d_im2col_fused(&input, &params, &weights, &ep, &arena);
        let per_item = input.shape.elements_per_item();
        let plane = f32_out.shape.height * f32_out.shape.width;
        for n in 0..f32_out.shape.batch {
            let s_in = sample_scale(&input.data[n * per_item..(n + 1) * per_item], input_relu);
            for oc in 0..out_c {
                let bound = k_len as f32 * s_in * quant.scales()[oc] * 128.0 + 1e-5;
                let start = (n * out_c + oc) * plane;
                for i in 0..plane {
                    let d = (fast.data[start + i] - f32_out.data[start + i]).abs();
                    prop_assert!(d <= bound, "calibration error {} exceeds bound {}", d, bound);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn int8_network_execution_is_byte_identical_across_strategies(
        seed in any::<u64>(),
        batch in 1usize..5,
    ) {
        let net = tiny_network();
        let weights = NetworkWeights::precompute_as(&net, WeightPrecision::Int8);
        let samples: Vec<TensorData> = (0..batch)
            .map(|i| TensorData::random(net.input_shape, seed.wrapping_add(i as u64)))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = ios_backend::stack_batch(&refs);
        let arena = ScratchPool::new();
        let serial = execute_network_batched_capped(
            &net, None, &weights, std::slice::from_ref(&stacked), &arena, 1);
        let threaded = execute_network_batched_capped(
            &net, None, &weights, std::slice::from_ref(&stacked), &arena, 4);
        prop_assert_eq!(&serial, &threaded, "worker count must not change int8 bytes");
        for plan in [SegmentPlan::single(2), SegmentPlan::per_block(2)] {
            let piped = execute_network_pipelined(
                &net, None, &weights, std::slice::from_ref(&stacked), &plan);
            prop_assert_eq!(&serial, &piped, "segmentation must not change int8 bytes");
        }
    }

    #[test]
    fn arena_backed_executor_is_bit_identical(seed in any::<u64>()) {
        let net = tiny_network();
        let graph = &net.blocks[0].graph;
        let inputs = vec![TensorData::random(net.input_shape, seed)];
        let reference = execute_graph_uncached(graph, &inputs);
        prop_assert_eq!(&execute_graph(graph, &inputs), &reference);
        let weights = BlockWeights::precompute(graph);
        let arena = ScratchPool::new();
        let pooled = execute_graph_pooled(graph, &inputs, Some(&weights), &arena);
        prop_assert_eq!(&pooled, &reference);
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
        // Packed f32 and int8, dense and grouped, every fused epilogue:
        // the tile grid cut along columns (few lanes), rows (more lanes
        // than column blocks) or groups must give the bits of the uncut
        // walk, which the properties above pin to the naive oracles.
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
        let quant = QuantizedFilter::quantize(&weights, out_c, groups, k_len);
        let arena = ScratchPool::new();
        let out_shape = conv2d_packed(&input, &params, &packed).shape;
        let bias = conv_weights(seed ^ 0xB1A5, out_c, 1, (1, 1));
        let residual = TensorData::random(out_shape, seed ^ 0x9E5);
        let ep = ConvEpilogue {
            input_relu,
            bias: use_bias.then_some(bias.as_slice()),
            residual: use_residual.then_some(&residual),
            relu: false,
        };
        let run = |lanes: usize| {
            with_forced_lanes(lanes, || {
                (
                    conv2d_im2col_packed_fused(&input, &params, &packed, &ep, &arena),
                    conv2d_im2col_quant_fused(&input, &params, &quant, &ep, &arena),
                )
            })
        };
        let (f32_one, int8_one) = run(1);
        prop_assert_eq!(&f32_one, &conv2d_im2col_fused(&input, &params, &weights, &ep, &arena));
        for lanes in SPLIT_LANES {
            let (f32_split, int8_split) = run(lanes);
            prop_assert_eq!(&f32_split, &f32_one, "packed f32 differs on {} lanes", lanes);
            prop_assert_eq!(&int8_split, &int8_one, "int8 differs on {} lanes", lanes);
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
        let pw_quant = QuantizedFilter::quantize(&pw, out_channels, 1, channels);
        let pool_params = if is_max {
            PoolParams::max((k, k), (stride, stride), (pad, pad))
        } else {
            PoolParams::avg((k, k), (stride, stride), (pad, pad))
        };
        let run = |lanes: usize| {
            with_forced_lanes(lanes, || {
                (
                    sep_conv2d_packed_pooled(&input, &params, &dw_packed, &pw_packed, &arena),
                    sep_conv2d_quant_pooled(&input, &params, &dw_packed, &pw_quant, &arena),
                    pool(&input, &pool_params),
                )
            })
        };
        let one = run(1);
        prop_assert_eq!(&one.0, &sep_conv2d_pooled(&input, &params, &dw, &pw, &arena));
        prop_assert_eq!(&one.2, &pool_reference(&input, &pool_params));
        for lanes in SPLIT_LANES {
            prop_assert_eq!(&run(lanes), &one, "differs on {} lanes", lanes);
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
        int8 in any::<bool>(),
    ) {
        use ios_core::{optimize_network, SchedulerConfig, SimCostModel};
        use ios_sim::{DeviceKind, Simulator};
        let net = tiny_network();
        let precision = if int8 { WeightPrecision::Int8 } else { WeightPrecision::F32 };
        let weights = NetworkWeights::precompute_as(&net, precision);
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
            if !int8 {
                prop_assert_eq!(&one, &execute_graph(graph, &block_inputs));
            }
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
        ios_backend::execute_network_batched_capped(
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
