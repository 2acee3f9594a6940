//! CPU implementations of the IR operators.
//!
//! Weights are generated deterministically from a seed derived from the
//! operator id, so that two different execution strategies of the same graph
//! (e.g. the original convolutions vs. their merged counterpart) see the
//! same parameters and must produce the same outputs.
//!
//! Two bodies are written once over the tile module's row trait and run at
//! every tier through its one list: the register tile of the one
//! convolution kernel ([`crate::gemm::conv2d`]) — which this module composes
//! into the separable unit ([`sep_conv2d`]) and checks against the naive
//! oracle ([`conv2d_naive`], **bit-identical** on every tier) — and the
//! pooling window ([`pool`]). The blocked [`matmul`] stays auto-vectorized:
//! its dot products accumulate along `k`, which vectorizing would reorder.
//! Every operator has one entry, drawing scratch and output storage from the
//! [`ScratchPool`] it is handed; inside the executor an operator writes its
//! output into its planned slot instead. Steady-state serving allocates
//! nothing in the op loop.

use crate::arena::{Output, ScratchPool};
use crate::batch::OpWeights;
use crate::gemm::{conv2d, conv2d_to, ConvEpilogue, PackedFilter};
use crate::tensor_data::TensorData;
use crate::tile::{at_tier, Row, RowKernel, PACK_NR};
use crate::workers::{self, DisjointOut};
use ios_ir::{
    Activation, Conv2dParams, MatMulParams, Op, OpKind, PoolKind, PoolParams, TensorShape,
};

/// Deterministic weight tensor for a convolution: layout
/// `[out_c][in_c_per_group][kh][kw]`, values derived from `seed`.
#[must_use]
pub fn conv_weights(
    seed: u64,
    out_c: usize,
    in_c_per_group: usize,
    kernel: (usize, usize),
) -> Vec<f32> {
    let count = out_c * in_c_per_group * kernel.0 * kernel.1;
    deterministic_values(seed, count)
}

/// Deterministic weight matrix for a fully connected layer: `[out][in]`.
#[must_use]
pub fn matmul_weights(seed: u64, out_features: usize, in_features: usize) -> Vec<f32> {
    deterministic_values(seed, out_features * in_features)
}

/// SplitMix64's increment.
const GAMMA: u64 = 0x9E3779B97F4A7C15;

fn deterministic_values(seed: u64, count: usize) -> Vec<f32> {
    // SplitMix64 stream mapped to [-0.5, 0.5] (`u64::MAX` rounds to 2^64
    // as an f64, so the top value is +0.5 exactly); fast, reproducible,
    // and independent of the `rand` crate's version-specific stream.
    let mut state = seed.wrapping_add(GAMMA);
    (0..count)
        .map(|_| {
            state = state.wrapping_add(GAMMA);
            splitmix_value(state)
        })
        .collect()
}

/// Value `i` of [`deterministic_values`]`(seed, ..)` without its
/// predecessors: the stream's state there is `seed + (i + 2)·γ`.
#[inline(always)]
pub(crate) fn deterministic_value(seed: u64, i: usize) -> f32 {
    splitmix_value(seed.wrapping_add((i as u64).wrapping_add(2).wrapping_mul(GAMMA)))
}

/// SplitMix64's output function on `state`, mapped to [-0.5, 0.5].
#[inline(always)]
fn splitmix_value(state: u64) -> f32 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64 - 0.5) as f32
}

fn apply_activation(activation: Activation, v: f32) -> f32 {
    match activation {
        Activation::None => v,
        Activation::Relu => v.max(0.0),
    }
}

/// The naive 7-deep reference convolution: one scalar accumulator per output
/// element, `acc = fma(w, x, acc)` (one rounding) over `(ic, ky, kx)` with
/// per-element bounds checks. The numerics oracle of the fast path.
#[must_use]
pub fn conv2d_naive(input: &TensorData, params: &Conv2dParams, weights: &[f32]) -> TensorData {
    let in_shape = input.shape;
    let (oh, ow) = in_shape.conv_output_hw(params.kernel, params.stride, params.padding);
    let out_shape = TensorShape::new(in_shape.batch, params.out_channels, oh, ow);
    let mut out = TensorData::zeros(out_shape);
    let in_c_per_group = in_shape.channels / params.groups;
    let out_c_per_group = params.out_channels / params.groups;
    let (kh, kw) = params.kernel;
    for n in 0..in_shape.batch {
        for oc in 0..params.out_channels {
            let group = oc / out_c_per_group;
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0.0f32;
                    for ic in 0..in_c_per_group {
                        let in_channel = group * in_c_per_group + ic;
                        for ky in 0..kh {
                            for kx in 0..kw {
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
                                let w = weights[((oc * in_c_per_group + ic) * kh + ky) * kw + kx];
                                let v = input.at(n, in_channel, iy as usize, ix as usize);
                                acc = w.mul_add(v, acc);
                            }
                        }
                    }
                    out.set(n, oc, y, x, apply_activation(params.activation, acc));
                }
            }
        }
    }
    out
}

/// The depthwise and pointwise weight seeds a separable convolution
/// derives from its operator seed — shared by
/// [`crate::batch::BlockWeights`] and the test oracles that rebuild the
/// weights from seeds.
#[must_use]
pub fn sep_conv_seeds(seed: u64) -> (u64, u64) {
    (seed ^ 0xD17, seed ^ 0x0009_0117)
}

/// Depthwise-separable convolution — ReLU on the input, depthwise k×k, then
/// pointwise 1×1 (the "Relu-SepConv" unit) — reading both filters from
/// their pre-packed layouts. The input ReLU is fused into the depthwise
/// im2col load instead of materializing an activated copy first (the values
/// entering the GEMM are identical, so the fused form is bit-identical),
/// and the depthwise intermediate is recycled before returning.
///
/// # Panics
///
/// Panics if either filter does not match its convolution geometry.
#[must_use]
pub fn sep_conv2d(
    input: &TensorData,
    params: &Conv2dParams,
    depthwise: &PackedFilter,
    pointwise: &PackedFilter,
    arena: &ScratchPool,
) -> TensorData {
    sep_conv2d_to(
        input,
        params,
        depthwise,
        pointwise,
        Output::Pool(arena),
        arena,
    )
}

/// [`sep_conv2d`] into `out`, the depthwise intermediate from `arena`.
fn sep_conv2d_to(
    input: &TensorData,
    params: &Conv2dParams,
    depthwise: &PackedFilter,
    pointwise: &PackedFilter,
    out: Output<'_>,
    arena: &ScratchPool,
) -> TensorData {
    // Depthwise: groups = channels, one output channel per input channel.
    let dw_params = Conv2dParams {
        out_channels: input.shape.channels,
        groups: input.shape.channels,
        activation: Activation::None,
        ..*params
    };
    let dw_epilogue = ConvEpilogue {
        input_relu: true,
        ..ConvEpilogue::default()
    };
    let dw_out = conv2d(input, &dw_params, depthwise, &dw_epilogue, arena);
    let pw_params = Conv2dParams::plain(params.out_channels, (1, 1), (1, 1), (0, 0));
    let out = conv2d_to(
        &dw_out,
        &pw_params,
        pointwise,
        &ConvEpilogue::default(),
        out,
    );
    arena.recycle_tensor(dw_out);
    out
}

/// Pooling. Max and average pooling run one window body (`PoolWindow`)
/// at the active tier, split their channel planes across lanes when the
/// operator is large enough (`workers::op_chunks`), and give the reference
/// loop's bits at every tier and lane count.
#[must_use]
pub fn pool(input: &TensorData, params: &PoolParams, arena: &ScratchPool) -> TensorData {
    pool_to(input, params, Output::Pool(arena))
}

/// [`pool`] into `out`.
fn pool_to(input: &TensorData, params: &PoolParams, out: Output<'_>) -> TensorData {
    let in_shape = input.shape;
    let plane = in_shape.height * in_shape.width;
    let planes = in_shape.batch * in_shape.channels;
    match params.kind {
        PoolKind::GlobalAvg => {
            let out_shape = TensorShape::new(in_shape.batch, in_shape.channels, 1, 1);
            let mut out = out.tensor(out_shape);
            let hw = plane as f32;
            for (slot, ch) in out.data.iter_mut().zip(input.data.chunks_exact(plane)) {
                // Slice iteration adds in the same (h, w) order as the
                // reference double loop.
                let acc: f32 = ch.iter().sum();
                *slot = acc / hw;
            }
            out
        }
        PoolKind::Max | PoolKind::Avg => {
            let (oh, ow) = in_shape.conv_output_hw(params.kernel, params.stride, params.padding);
            let out_shape = TensorShape::new(in_shape.batch, in_shape.channels, oh, ow);
            let mut out = out.tensor(out_shape);
            let ((kh, kw), (sh, sw), (ph, pw)) = (params.kernel, params.stride, params.padding);
            let runs = ow.next_multiple_of(PACK_NR);
            let phase = runs + (kw - 1) / sw;
            // Taps of a window at `pos` in bounds: 0 <= pos·s + t − p < len.
            let inside = |pos: usize, s: usize, p: usize, k: usize, len: usize| {
                (len + p).saturating_sub(pos * s).min(k) - p.saturating_sub(pos * s).min(k)
            };
            let (h, w) = (in_shape.height, in_shape.width);
            let count = |i| inside(i / runs, sh, ph, kh, h) * inside(i % runs, sw, pw, kw, w);
            let tap = |t| (t / kw * sw + t % kw % sw) * phase + t % kw / sw;
            let window = PoolWindow {
                params: *params,
                input,
                out: DisjointOut::new(&mut out.data),
                phase,
                taps: (0..kh * kw).map(tap).collect(),
                divisors: (0..oh * runs).map(|i| count(i).max(1) as f32).collect(),
            };
            let chunks = workers::op_chunks(planes, planes * oh * ow * kh * kw * POOL_TAP_MACS);
            // Read once, here: the lanes run at the caller's tier.
            let isa = crate::simd::active_isa();
            workers::parallel_for_op(chunks, |chunk| {
                let planes = workers::chunk_range(planes, chunks, chunk);
                workers::with_lane_scratch(((oh - 1) * sh + kh) * sw * phase, |padded| {
                    at_tier(isa, PoolChunk(&window, planes, padded));
                });
            });
            out
        }
    }
}

/// What one pooling tap costs, in the convolution multiply-accumulates
/// [`workers::GRAIN_MACS`] is stated in: 0.09–0.22 ns on one lane (a load
/// and an op into a register-held run, `simd_gate`'s pool rows), 2–13 MACs
/// of the register tile at its one-lane rate.
const POOL_TAP_MACS: usize = 8;

/// The window body of max and average pooling, written once over [`Row`].
/// Each plane is copied into lane scratch padded with the fold's identity
/// (−∞, +0.0) to cover every window, a row's columns split into `stride.1`
/// phases of `phase` values (`ow` rounded up to whole runs) so that a tap
/// of `PACK_NR` adjacent outputs is as many adjacent values. A run's one
/// accumulator folds its taps in ascending `(ky, kx)` — `tap.max(acc)` or
/// `acc + tap`, a padded tap the identity exactly (a sum from +0.0 never
/// becomes −0.0) — and an average then divides by its in-bounds count.
struct PoolWindow<'a> {
    params: PoolParams,
    input: &'a TensorData,
    out: DisjointOut<'a>,
    phase: usize,
    /// Per tap, ascending `(ky, kx)`: its offset from its window's origin.
    taps: Vec<usize>,
    /// The average's divisor per output (`ow` rounded up): its in-bounds taps.
    divisors: Vec<f32>,
}

/// One chunk's channel planes, through one padded plane of lane scratch.
struct PoolChunk<'a>(&'a PoolWindow<'a>, std::ops::Range<usize>, &'a mut [f32]);

impl RowKernel for PoolChunk<'_> {
    type Out = ();
    #[inline(always)]
    unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) {
        let PoolChunk(wnd, planes, padded) = self;
        let (shape, prm, phase) = (wnd.input.shape, wnd.params, wnd.phase);
        let ((kh, _), (sh, sw), (ph, pw)) = (prm.kernel, prm.stride, prm.padding);
        let (h, w) = (shape.height, shape.width);
        let (oh, ow) = shape.conv_output_hw(prm.kernel, prm.stride, prm.padding);
        let (runs, max) = (ow.next_multiple_of(PACK_NR), prm.kind == PoolKind::Max);
        let identity = if max { f32::NEG_INFINITY } else { 0.0 };
        padded.fill(identity);
        for p in planes {
            let plane = &wnd.input.data[p * h * w..(p + 1) * h * w];
            for q in 0..sw {
                // Phase `q`'s value `i` is input column `i · sw + q − pw`.
                let (lo, hi) = crate::im2col::valid_range(phase, sw, q, pw, w);
                let rows = padded.chunks_exact_mut(sw * phase).skip(ph);
                for (src, row) in plane.chunks_exact(w).zip(rows).filter(|_| hi > lo) {
                    let (dst, src) = (&mut row[q * phase..][lo..hi], &src[lo * sw + q - pw..]);
                    match sw {
                        1 => gather(dst, src, 1),
                        2 => gather(dst, src, 2),
                        _ => gather(dst, src, sw),
                    }
                }
            }
            // SAFETY: output plane `p` is this chunk's alone; a tap of the run
            // at `x` ends by `runs + (kw − 1) / sw = phase` in its phase, in
            // row `ky` of `window`; `R`'s ISA is the caller's contract.
            unsafe {
                let out = wnd.out.slice_mut(p * oh * ow, oh * ow);
                for (y, out_row) in out.chunks_exact_mut(ow).enumerate() {
                    let window = &padded[y * sh * sw * phase..(y * sh + kh) * sw * phase];
                    let divisors = &wnd.divisors[y * runs..(y + 1) * runs];
                    for x in (0..ow).step_by(PACK_NR) {
                        let mut acc = R::splat(identity);
                        for &t in &wnd.taps {
                            let tap = R::load(window.as_ptr().add(x + t));
                            acc = if max { tap.max(acc) } else { acc.add(tap) };
                        }
                        if !max {
                            acc = acc.div(R::load(divisors.as_ptr().add(x)));
                        }
                        if x + PACK_NR <= ow {
                            acc.store(out_row.as_mut_ptr().add(x));
                        } else {
                            let mut tail = [0.0f32; PACK_NR];
                            acc.store(tail.as_mut_ptr());
                            out_row[x..].copy_from_slice(&tail[..ow - x]);
                        }
                    }
                }
            }
        }
    }
}

/// `dst[i] = src[i · stride]` for a non-empty `dst`. Inlined at a constant
/// stride — 1 or 2, every pooling of the model zoo — the copy vectorizes.
#[inline(always)]
fn gather(dst: &mut [f32], src: &[f32], stride: usize) {
    let (last, body) = dst.split_last_mut().expect("non-empty span");
    for (d, s) in body.iter_mut().zip(src.chunks_exact(stride)) {
        *d = s[0];
    }
    *last = src[body.len() * stride];
}

/// Fully connected layer. Outputs are computed four at a time so the input
/// row is read once per quadruple; every accumulator still sums in ascending
/// feature order, bit-identical to the reference. Its step is `acc += x · w`,
/// rounded twice: the fused contract is the convolution path's, not its own.
#[must_use]
pub fn matmul(
    input: &TensorData,
    params: &MatMulParams,
    weights: &[f32],
    arena: &ScratchPool,
) -> TensorData {
    matmul_to(input, params, weights, Output::Pool(arena))
}

/// [`matmul`] into `out`.
fn matmul_to(
    input: &TensorData,
    params: &MatMulParams,
    weights: &[f32],
    out: Output<'_>,
) -> TensorData {
    let in_features = input.shape.elements_per_item();
    let out_features = params.out_features;
    let out_shape = TensorShape::vector(input.shape.batch, out_features);
    let mut out = out.tensor(out_shape);
    for n in 0..input.shape.batch {
        let row = &input.data[n * in_features..(n + 1) * in_features];
        let out_row = &mut out.data[n * out_features..(n + 1) * out_features];
        let mut o = 0;
        while o + 4 <= out_features {
            let w0 = &weights[o * in_features..(o + 1) * in_features];
            let w1 = &weights[(o + 1) * in_features..(o + 2) * in_features];
            let w2 = &weights[(o + 2) * in_features..(o + 3) * in_features];
            let w3 = &weights[(o + 3) * in_features..(o + 4) * in_features];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for ((((&x, &u0), &u1), &u2), &u3) in row.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
                a0 += x * u0;
                a1 += x * u1;
                a2 += x * u2;
                a3 += x * u3;
            }
            out_row[o] = apply_activation(params.activation, a0);
            out_row[o + 1] = apply_activation(params.activation, a1);
            out_row[o + 2] = apply_activation(params.activation, a2);
            out_row[o + 3] = apply_activation(params.activation, a3);
            o += 4;
        }
        for (oo, slot) in out_row.iter_mut().enumerate().skip(o) {
            let w = &weights[oo * in_features..(oo + 1) * in_features];
            let acc: f32 = row.iter().zip(w).map(|(a, b)| a * b).sum();
            *slot = apply_activation(params.activation, acc);
        }
    }
    out
}

/// Channel-wise concatenation: each input contributes one
/// contiguous `channels × h × w` block per sample, copied with a single
/// memcpy instead of per-element indexing.
#[must_use]
pub(crate) fn concat(inputs: &[&TensorData], out: Output<'_>) -> TensorData {
    let first = inputs[0].shape;
    let channels: usize = inputs.iter().map(|t| t.shape.channels).sum();
    let out_shape = TensorShape::new(first.batch, channels, first.height, first.width);
    let mut out = out.tensor(out_shape);
    let plane = first.height * first.width;
    let out_item = channels * plane;
    for n in 0..first.batch {
        let mut offset = n * out_item;
        for t in inputs {
            debug_assert_eq!((t.shape.height, t.shape.width), (first.height, first.width));
            let cpi = t.shape.channels * plane;
            out.data[offset..offset + cpi].copy_from_slice(&t.data[n * cpi..(n + 1) * cpi]);
            offset += cpi;
        }
    }
    out
}

/// Element-wise addition of all inputs.
#[must_use]
pub(crate) fn add(inputs: &[&TensorData], out: Output<'_>) -> TensorData {
    let mut out = out.tensor(inputs[0].shape);
    out.data.copy_from_slice(&inputs[0].data);
    for t in &inputs[1..] {
        for (o, v) in out.data.iter_mut().zip(&t.data) {
            *o += v;
        }
    }
    out
}

/// Standalone ReLU.
#[must_use]
pub(crate) fn relu(input: &TensorData, out: Output<'_>) -> TensorData {
    let mut out = out.tensor(input.shape);
    for (o, v) in out.data.iter_mut().zip(&input.data) {
        *o = v.max(0.0);
    }
    out
}

/// A copy of `tensor` in `out`.
pub(crate) fn copy_of(tensor: &TensorData, out: Output<'_>) -> TensorData {
    let mut out = out.tensor(tensor.shape);
    out.data.copy_from_slice(&tensor.data);
    out
}

/// Executes one operator given its resolved inputs: a weighted operator
/// (convolution, separable convolution, matmul) with its precomputed
/// `weights`, any other with `None`; `fuse_relu` applies `max(0, ·)` in a
/// convolution's tile writeback (the executor's standalone-ReLU fold).
/// The output goes to `out`; scratch is drawn from `arena`.
///
/// # Panics
///
/// Panics if the weight kind does not match the operator kind.
#[must_use]
pub(crate) fn execute_op(
    op: &Op,
    inputs: &[&TensorData],
    weights: Option<&OpWeights>,
    fuse_relu: bool,
    out: Output<'_>,
    arena: &ScratchPool,
) -> TensorData {
    match (&op.kind, weights) {
        (OpKind::Conv2d(p), Some(OpWeights::Conv(kernel))) => {
            let ep = ConvEpilogue {
                relu: fuse_relu,
                ..ConvEpilogue::default()
            };
            conv2d_to(inputs[0], p, kernel, &ep, out)
        }
        (
            OpKind::SepConv2d(p),
            Some(OpWeights::SepConv {
                depthwise,
                pointwise,
            }),
        ) => sep_conv2d_to(inputs[0], p, depthwise, pointwise, out, arena),
        (OpKind::MatMul(p), Some(OpWeights::MatMul(w))) => matmul_to(inputs[0], p, w, out),
        (OpKind::Pool(p), None) => pool_to(inputs[0], p, out),
        (OpKind::Concat, None) => concat(inputs, out),
        (OpKind::Add, None) => add(inputs, out),
        (OpKind::Relu, None) => relu(inputs[0], out),
        (OpKind::Identity, None) => copy_of(inputs[0], out),
        (kind, _) => panic!("mismatched precomputed weights for operator kind {kind:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The f32 kernel over a filter given in its natural layout.
    fn conv2d(input: &TensorData, params: &Conv2dParams, weights: &[f32]) -> TensorData {
        let k_len = (input.shape.channels / params.groups) * params.kernel.0 * params.kernel.1;
        let packed = PackedFilter::pack(weights, params.out_channels, params.groups, k_len);
        super::conv2d(
            input,
            params,
            &packed,
            &ConvEpilogue::default(),
            &ScratchPool::new(),
        )
    }

    /// The separable unit with both filters generated from `seed`.
    fn sep_conv2d(input: &TensorData, params: &Conv2dParams, seed: u64) -> TensorData {
        let in_c = input.shape.channels;
        let (dw_seed, pw_seed) = sep_conv_seeds(seed);
        let dw = conv_weights(dw_seed, in_c, 1, params.kernel);
        let pw = conv_weights(pw_seed, params.out_channels, in_c, (1, 1));
        let (kh, kw) = params.kernel;
        super::sep_conv2d(
            input,
            params,
            &PackedFilter::pack(&dw, in_c, in_c, kh * kw),
            &PackedFilter::pack(&pw, params.out_channels, 1, in_c),
            &ScratchPool::new(),
        )
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1×1 convolution with an identity-like weight copies channels.
        let input = TensorData::random(TensorShape::new(1, 2, 3, 3), 1);
        let params = Conv2dParams::plain(2, (1, 1), (1, 1), (0, 0));
        // weights[oc][ic]: identity matrix.
        let weights = vec![1.0, 0.0, 0.0, 1.0];
        let out = conv2d(&input, &params, &weights);
        assert_eq!(out.shape, input.shape);
        for i in 0..input.data.len() {
            assert!((out.data[i] - input.data[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn conv2d_relu_clamps_negatives() {
        let input = TensorData::random(TensorShape::new(1, 3, 5, 5), 2);
        let params = Conv2dParams::relu(4, (3, 3), (1, 1), (1, 1));
        let w = conv_weights(3, 4, 3, (3, 3));
        let out = conv2d(&input, &params, &w);
        assert!(out.data.iter().all(|v| *v >= 0.0));
        assert_eq!(out.shape, TensorShape::new(1, 4, 5, 5));
    }

    #[test]
    fn strided_conv_shrinks_output() {
        let input = TensorData::random(TensorShape::new(1, 2, 8, 8), 4);
        let params = Conv2dParams::plain(2, (3, 3), (2, 2), (1, 1));
        let w = conv_weights(5, 2, 2, (3, 3));
        let out = conv2d(&input, &params, &w);
        assert_eq!(out.shape, TensorShape::new(1, 2, 4, 4));
    }

    #[test]
    fn gemm_conv_is_bit_identical_to_naive_across_shapes() {
        // Shapes chosen to hit the pointwise fast path, strides, padding
        // larger than the kernel reach, grouped and depthwise cases.
        let cases: Vec<(TensorShape, Conv2dParams)> = vec![
            (
                TensorShape::new(2, 8, 9, 7),
                Conv2dParams::relu(12, (3, 3), (1, 1), (1, 1)),
            ),
            (
                TensorShape::new(1, 6, 11, 11),
                Conv2dParams::plain(10, (5, 3), (2, 2), (2, 1)),
            ),
            (
                TensorShape::new(1, 16, 6, 6),
                Conv2dParams::plain(8, (1, 1), (1, 1), (0, 0)),
            ),
            (
                TensorShape::new(1, 12, 8, 8),
                Conv2dParams {
                    out_channels: 24,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: (1, 1),
                    groups: 4,
                    activation: Activation::Relu,
                },
            ),
            (
                TensorShape::new(1, 7, 10, 10),
                Conv2dParams {
                    out_channels: 7,
                    kernel: (3, 3),
                    stride: (2, 2),
                    padding: (1, 1),
                    groups: 7,
                    activation: Activation::None,
                },
            ),
            // Padding wider than the input: the window can miss entirely.
            (
                TensorShape::new(1, 3, 4, 4),
                Conv2dParams::plain(5, (3, 3), (3, 3), (3, 3)),
            ),
        ];
        for (i, (shape, params)) in cases.iter().enumerate() {
            let input = TensorData::random(*shape, 1000 + i as u64);
            let w = conv_weights(
                2000 + i as u64,
                params.out_channels,
                shape.channels / params.groups,
                params.kernel,
            );
            let fast = conv2d(&input, params, &w);
            let reference = conv2d_naive(&input, params, &w);
            assert_eq!(fast, reference, "case {i} must be bit-identical");
        }
    }

    /// The per-pixel window loop `pool` ran before it went
    /// row-wise, kept verbatim as the oracle for tap order and divisor.
    fn pool_windowed(input: &TensorData, params: &PoolParams) -> TensorData {
        let in_shape = input.shape;
        let (h, w) = (in_shape.height, in_shape.width);
        let plane = h * w;
        let (oh, ow) = in_shape.conv_output_hw(params.kernel, params.stride, params.padding);
        let mut out =
            TensorData::zeros(TensorShape::new(in_shape.batch, in_shape.channels, oh, ow));
        let (kh, kw) = params.kernel;
        let (sh, sw) = params.stride;
        let (ph, pw) = params.padding;
        let is_max = params.kind == PoolKind::Max;
        for n in 0..in_shape.batch {
            for c in 0..in_shape.channels {
                let ch_start = (n * in_shape.channels + c) * plane;
                let ch = &input.data[ch_start..ch_start + plane];
                let out_start = (n * in_shape.channels + c) * oh * ow;
                for y in 0..oh {
                    let base_y = (y * sh) as isize - ph as isize;
                    let ky_lo = (-base_y).max(0) as usize;
                    let ky_hi = ((h as isize - base_y).max(0) as usize).min(kh);
                    let out_row = &mut out.data[out_start + y * ow..out_start + (y + 1) * ow];
                    for (x, slot) in out_row.iter_mut().enumerate() {
                        let base_x = (x * sw) as isize - pw as isize;
                        let kx_lo = (-base_x).max(0) as usize;
                        let kx_hi = ((w as isize - base_x).max(0) as usize).min(kw);
                        let mut acc: f32 = if is_max { f32::NEG_INFINITY } else { 0.0 };
                        for ky in ky_lo..ky_hi {
                            let iy = (base_y + ky as isize) as usize;
                            let row = &ch[iy * w..(iy + 1) * w];
                            for kx in kx_lo..kx_hi {
                                let v = row[(base_x + kx as isize) as usize];
                                if is_max {
                                    acc = acc.max(v);
                                } else {
                                    acc += v;
                                }
                            }
                        }
                        let count = (ky_hi.saturating_sub(ky_lo)) * (kx_hi.saturating_sub(kx_lo));
                        *slot = if is_max {
                            acc
                        } else {
                            acc / count.max(1) as f32
                        };
                    }
                }
            }
        }
        out
    }

    #[test]
    fn row_wise_pool_is_bit_identical_to_the_window_loop() {
        // The pooling shapes of the benchmark networks (Inception's 3×3
        // stride-2 max and padded 3×3 stride-1 average, SqueezeNet's
        // ceil-less 3×3 stride-2 max) plus windows that overhang or miss
        // the input entirely, on inputs carrying NaN and infinities.
        let cases = [
            ((2, 3, 21, 21), PoolParams::max((3, 3), (2, 2), (0, 0))),
            ((1, 4, 17, 17), PoolParams::avg((3, 3), (1, 1), (1, 1))),
            ((1, 2, 13, 9), PoolParams::max((3, 2), (2, 3), (1, 0))),
            ((1, 2, 7, 8), PoolParams::avg((2, 3), (2, 2), (1, 1))),
            ((1, 1, 4, 4), PoolParams::max((3, 3), (3, 3), (3, 3))),
            ((1, 1, 4, 4), PoolParams::avg((3, 3), (3, 3), (3, 3))),
            ((1, 3, 5, 6), PoolParams::avg((1, 1), (1, 1), (0, 0))),
        ];
        for (i, ((n, c, h, w), params)) in cases.into_iter().enumerate() {
            let mut input = TensorData::random(TensorShape::new(n, c, h, w), 300 + i as u64);
            input.data[1] = f32::NAN;
            input.data[h * w - 2] = f32::INFINITY;
            input.data[h * w / 2] = f32::NEG_INFINITY;
            let want = pool_windowed(&input, &params);
            for lanes in [1, 2, 3] {
                let got = workers::with_forced_lanes(lanes, || {
                    pool(&input, &params, &ScratchPool::new())
                });
                assert_eq!(got.shape, want.shape);
                let same = got
                    .data
                    .iter()
                    .zip(&want.data)
                    .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
                assert!(same, "case {i}, {lanes} lanes: pooling bits differ");
            }
        }
    }

    #[test]
    fn max_pool_picks_maximum() {
        let mut input = TensorData::zeros(TensorShape::new(1, 1, 4, 4));
        input.set(0, 0, 1, 1, 5.0);
        input.set(0, 0, 2, 3, -2.0);
        let out = pool(
            &input,
            &PoolParams::max((2, 2), (2, 2), (0, 0)),
            &ScratchPool::new(),
        );
        assert_eq!(out.shape, TensorShape::new(1, 1, 2, 2));
        assert_eq!(out.at(0, 0, 0, 0), 5.0);
        assert_eq!(out.at(0, 0, 1, 1), 0.0);
    }

    #[test]
    fn padded_max_pool_ignores_out_of_bounds() {
        let input = TensorData::random(TensorShape::new(1, 2, 5, 5), 77);
        let out = pool(
            &input,
            &PoolParams::max((3, 3), (2, 2), (1, 1)),
            &ScratchPool::new(),
        );
        assert_eq!(out.shape, TensorShape::new(1, 2, 3, 3));
        // The corner window sees only the 2×2 in-bounds values.
        let expected = input
            .at(0, 0, 0, 0)
            .max(input.at(0, 0, 0, 1))
            .max(input.at(0, 0, 1, 0))
            .max(input.at(0, 0, 1, 1));
        assert_eq!(out.at(0, 0, 0, 0), expected);
    }

    #[test]
    fn global_avg_pool_averages() {
        let input = TensorData {
            shape: TensorShape::new(1, 1, 2, 2),
            data: vec![1.0, 2.0, 3.0, 6.0],
        };
        let out = pool(&input, &PoolParams::global_avg(), &ScratchPool::new());
        assert_eq!(out.at(0, 0, 0, 0), 3.0);
    }

    #[test]
    fn concat_and_add_and_relu() {
        let a = TensorData {
            shape: TensorShape::new(1, 1, 1, 2),
            data: vec![1.0, -2.0],
        };
        let b = TensorData {
            shape: TensorShape::new(1, 1, 1, 2),
            data: vec![3.0, 4.0],
        };
        let cat = concat(&[&a, &b], Output::Pool(&ScratchPool::new()));
        assert_eq!(cat.shape.channels, 2);
        assert_eq!(cat.data, vec![1.0, -2.0, 3.0, 4.0]);
        let sum = add(&[&a, &b], Output::Pool(&ScratchPool::new()));
        assert_eq!(sum.data, vec![4.0, 2.0]);
        let r = relu(&a, Output::Pool(&ScratchPool::new()));
        assert_eq!(r.data, vec![1.0, 0.0]);
    }

    #[test]
    fn matmul_matches_manual_computation() {
        let input = TensorData {
            shape: TensorShape::vector(1, 2),
            data: vec![2.0, 3.0],
        };
        let weights = vec![1.0, 0.0, 1.0, 1.0]; // [[1,0],[1,1]]
        let params = MatMulParams {
            out_features: 2,
            activation: Activation::None,
        };
        let out = matmul(&input, &params, &weights, &ScratchPool::new());
        assert_eq!(out.data, vec![2.0, 5.0]);
    }

    #[test]
    fn blocked_matmul_handles_remainder_outputs() {
        // 6 outputs exercises the 4-wide block plus a 2-wide tail.
        let input = TensorData::random(TensorShape::vector(3, 10), 5);
        let params = MatMulParams {
            out_features: 6,
            activation: Activation::Relu,
        };
        let w = matmul_weights(9, 6, 10);
        let out = matmul(&input, &params, &w, &ScratchPool::new());
        for n in 0..3 {
            for o in 0..6 {
                let expected: f32 = (0..10)
                    .map(|k| input.data[n * 10 + k] * w[o * 10 + k])
                    .fold(0.0, |acc, v| acc + v)
                    .max(0.0);
                assert_eq!(out.data[n * 6 + o], expected);
            }
        }
    }

    #[test]
    fn sepconv_output_shape_and_determinism() {
        let input = TensorData::random(TensorShape::new(1, 4, 6, 6), 9);
        let params = Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1));
        let a = sep_conv2d(&input, &params, 11);
        let b = sep_conv2d(&input, &params, 11);
        assert_eq!(a.shape, TensorShape::new(1, 8, 6, 6));
        assert_eq!(a, b);
        let c = sep_conv2d(&input, &params, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn deterministic_weights_are_stable_and_seed_dependent() {
        let a = conv_weights(1, 2, 2, (3, 3));
        let b = conv_weights(1, 2, 2, (3, 3));
        let c = conv_weights(2, 2, 2, (3, 3));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 2 * 2 * 9);
        assert!(a.iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn a_value_generated_alone_equals_its_place_in_the_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        for seed in [0, 1, 0xD17, u64::MAX, rng.gen_range(0..u64::MAX)] {
            let n = 4099;
            let stream = deterministic_values(seed, n);
            let random = (0..16).map(|_| rng.gen_range(0..n));
            for i in [0, 1, n - 1].into_iter().chain(random) {
                assert_eq!(
                    deterministic_value(seed, i).to_bits(),
                    stream[i].to_bits(),
                    "seed {seed:#x}, value {i}"
                );
            }
        }
    }
}
