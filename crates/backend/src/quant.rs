//! The int8 filter form ([`QuantizedFilter`]). Inputs are quantized per
//! sample as each column block is built, the integer tile ([`crate::tile`])
//! accumulates in `i32`, and requantization happens in the tile writeback.
//! Integer accumulation is order-exact, so the quantized path is
//! **byte-identical** across thread counts, ISA tiers and the naive int8
//! oracle ([`crate::ops_cpu::conv2d_naive_quant`]).

use crate::batch::WeightFootprint;
use crate::gemm::{panel_row, rows_per_group, Filter};
use crate::simd::Isa;
use crate::tile::{at_tier, tier_facts, ColumnBlock, Int8Panels, PACK_MR, PACK_NR};

/// A convolution filter quantized to int8 with per-output-channel
/// symmetric scales, packed into the pair-interleaved panel layout of the
/// integer microkernel.
///
/// Like [`crate::gemm::PackedFilter`], each group's weight rows are split
/// into panels of `PACK_MR` output channels — but the k dimension is walked
/// in *pairs* (zero-padded to even length) and each panel stores
/// `data[pair][row][2]`: the two consecutive-k weights of one row sit
/// adjacent, so a `pmaddwd`-shaped multiply-add consumes one pair per
/// 16-bit lane and the tile holds 4× the lanes of the f32 layout in the
/// same footprint. Quantization is symmetric per output channel:
/// `scale[oc] = maxabs(row) / 127` (`1.0` for an all-zero row), weights
/// stored as `round(w / scale)` clamped to `[-127, 127]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedFilter {
    data: Vec<i8>,
    scales: Vec<f32>,
    out_channels: usize,
    groups: usize,
    k_len: usize,
    /// k pairs per panel: `ceil(k_len / 2)`.
    pairs: usize,
    /// i8 elements per group (`pairs · PACK_MR · 2` per panel).
    group_stride: usize,
}

impl QuantizedFilter {
    /// Quantizes and packs a filter in the natural `[out_c][in_c/g][kh][kw]`
    /// layout (`k_len` contiguous values per output channel, groups
    /// concatenated along the output-channel axis).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != out_channels * k_len` or `out_channels`
    /// is not divisible by `groups`.
    #[must_use]
    pub fn quantize(weights: &[f32], out_channels: usize, groups: usize, k_len: usize) -> Self {
        let rows_per_group = rows_per_group(weights.len(), out_channels, groups, k_len);
        let pairs = k_len.div_ceil(2);
        let panel_stride = pairs * PACK_MR * 2;
        let group_stride = rows_per_group.div_ceil(PACK_MR) * panel_stride;
        let mut scales = vec![0.0f32; out_channels];
        let mut data = vec![0i8; groups * group_stride];
        for (oc, scale) in scales.iter_mut().enumerate() {
            let row = &weights[oc * k_len..][..k_len];
            *scale = quantization_scale(row.iter().fold(0.0f32, |m, &v| m.max(v.abs())));
            let (p, r) = panel_row(oc, rows_per_group);
            let panel = &mut data[p * panel_stride..][..panel_stride];
            for (k, &w) in row.iter().enumerate() {
                panel[(k / 2) * PACK_MR * 2 + r * 2 + (k & 1)] = quantize_value(w, *scale) as i8;
            }
        }
        QuantizedFilter {
            data,
            scales,
            out_channels,
            groups,
            k_len,
            pairs,
            group_stride,
        }
    }

    /// The per-output-channel symmetric weight scales.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The quantized integer weight at `(oc, k)` — the accessor the naive
    /// int8 oracle reads, so kernel and oracle consume the exact same
    /// integers.
    #[must_use]
    pub fn weight(&self, oc: usize, k: usize) -> i8 {
        let (p, r) = panel_row(oc, self.out_channels / self.groups);
        self.data[(p * self.pairs + k / 2) * PACK_MR * 2 + r * 2 + (k & 1)]
    }

    /// The packed pair-interleaved panels of group `g`.
    fn group(&self, g: usize) -> &[i8] {
        &self.data[g * self.group_stride..(g + 1) * self.group_stride]
    }

    /// Logical weight parameters (`out_channels · k_len`) and the bytes
    /// held: the quantized weights plus their scales.
    pub(crate) fn footprint(&self) -> (usize, WeightFootprint) {
        let held = WeightFootprint {
            f32_bytes: 0,
            int8_bytes: self.data.len() + std::mem::size_of_val(&self.scales[..]),
        };
        (self.out_channels * self.k_len, held)
    }
}

impl Filter for QuantizedFilter {
    /// The sample's symmetric input scale.
    type Sample = f32;

    fn geometry(&self) -> (usize, usize, usize) {
        (self.out_channels, self.groups, self.k_len)
    }

    /// The integer tile runs at its row's own tier — on an AVX-512 host the
    /// AVX2 entry of the tier list, compiled for the instructions the row
    /// uses (as AVX-512 code around the same row it measured 5–10 % slower)
    /// — and is one sub-block wide at every tier.
    fn tile_at(&self, isa: Isa) -> (Isa, usize) {
        (tier_facts(isa).1, 1)
    }

    /// The i16 pair-interleaved quantized block, carved out of the f32 lane
    /// scratch — see [`as_i16_mut`].
    fn lane_scratch(&self) -> usize {
        self.pairs * PACK_NR
    }

    fn prepare(&self, sample: &[f32], input_relu: bool) -> f32 {
        sample_scale(sample, input_relu)
    }

    /// Quantizes the block at the sample's scale, streams the panels over
    /// it in `i32` and requantizes in the tile writeback: the epilogue's
    /// float operations happen *after* requantization, in the same
    /// `store_row` the f32 kernel uses.
    fn stream(
        &self,
        tier: Isa,
        g: usize,
        in_scale: f32,
        block: &ColumnBlock<'_>,
        scratch: &mut [f32],
    ) {
        let q = as_i16_mut(scratch);
        quantize_block(block.b, block.b_stride, self.k_len, in_scale, q);
        let panels = Int8Panels {
            a: self.group(g),
            pairs: self.pairs,
            q,
            in_scale,
            scales: &self.scales,
            block,
        };
        at_tier(tier, panels);
    }
}

/// The symmetric quantization scale for values with the given maximum
/// absolute value: `maxabs / 127`, or `1.0` when everything is zero (any
/// scale represents zeros exactly). Shared by the kernel, the weight
/// packer and the naive oracle so the three can never drift.
#[must_use]
pub(crate) fn quantization_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantizes one value: `v / scale` rounded to the nearest integer (ties
/// away from zero) and clamped to `[-127, 127]`. Implemented branch-free
/// as a reciprocal multiply plus a signed-offset truncation — no `roundf`
/// libm call, so the block quantizer autovectorizes — and shared verbatim
/// by the kernel and the naive oracle, which keeps them byte-identical.
#[must_use]
pub(crate) fn quantize_value(v: f32, scale: f32) -> i16 {
    let t = v * (1.0 / scale);
    let r = (t + 0.5f32.copysign(t)) as i32;
    r.clamp(-127, 127) as i16
}

/// Dequantizes an i32 accumulator: `acc · (input_scale · weight_scale)`.
/// The scale product is formed first, then applied in one multiply —
/// kernel and oracle share this exact expression, so requantized outputs
/// are byte-identical.
#[must_use]
pub(crate) fn requantize(acc: i32, input_scale: f32, weight_scale: f32) -> f32 {
    acc as f32 * (input_scale * weight_scale)
}

/// The symmetric scale of one input sample (`max |v|` over the sample,
/// after the optional fused input-ReLU), as both the quantized conv and
/// the naive oracle compute it. Per *sample*, never per batch: a stacked
/// batch must produce byte-identical outputs to its samples run alone.
#[must_use]
pub fn sample_scale(sample: &[f32], input_relu: bool) -> f32 {
    let max_abs = sample.iter().fold(0.0f32, |m, &v| {
        let v = if input_relu { v.max(0.0) } else { v };
        m.max(v.abs())
    });
    quantization_scale(max_abs)
}

/// Reinterprets f32 scratch as i16 storage (lane scratch is f32-only).
/// Sound: `f32`'s alignment (4) exceeds `i16`'s (2), the byte length maps
/// 1 f32 → 2 i16 exactly, and `i16` has no invalid bit patterns. The
/// buffer's f32 contents afterwards are arbitrary, which scratch users
/// tolerate — they fully rewrite what they take before reading it.
fn as_i16_mut(buf: &mut [f32]) -> &mut [i16] {
    // SAFETY: see above — same allocation, compatible alignment and size,
    // target type has no invalid representations.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<i16>(), buf.len() * 2) }
}

/// Quantizes a `K × PACK_NR` f32 patch block (row stride `b_stride`) into
/// the pair-interleaved i16 layout the integer microkernel reads:
/// `q[(k/2) · PACK_NR·2 + j·2 + (k&1)]`. A ragged block's zero tail
/// quantizes to zeros and the odd-k pad slot is zeroed — both contribute
/// exact `0` to every i32 sum.
fn quantize_block(b: &[f32], b_stride: usize, k_len: usize, scale: f32, q: &mut [i16]) {
    if k_len & 1 == 1 {
        // Every slot is written below except the odd-k pad lane of the
        // final pair.
        let last = (k_len / 2) * (PACK_NR * 2);
        q[last..last + PACK_NR * 2].fill(0);
    }
    let mut tmp = [0i16; PACK_NR];
    for k in 0..k_len {
        let row = &b[k * b_stride..k * b_stride + PACK_NR];
        // Quantize into a contiguous stack row first (this loop
        // autovectorizes); the pair-interleaved scatter below is pure i16
        // moves.
        for (t, &v) in tmp.iter_mut().zip(row) {
            *t = quantize_value(v, scale);
        }
        let base = (k / 2) * (PACK_NR * 2) + (k & 1);
        for (j, &t) in tmp.iter().enumerate() {
            q[base + j * 2] = t;
        }
    }
}
