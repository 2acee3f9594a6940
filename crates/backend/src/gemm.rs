//! im2col + register-blocked GEMM convolution, bit-identical to the naive
//! reference loop.
//!
//! The naive `conv2d` computes every output element as a single scalar
//! accumulation over `(ic, ky, kx)` in that fixed order. This module keeps
//! that exact accumulation order — the k dimension of the GEMM is
//! `(ic, ky, kx)` flattened, walked strictly sequentially — and blocks only
//! over the *independent* output dimensions (output channels × output
//! pixels), so every output element receives precisely the same sequence of
//! fused multiply-adds as the reference: `acc = fma(w, x, acc)`, one rounding
//! per step, on every tier ([`crate::tile`]). Padding positions contribute
//! explicit zero patch values; `fma(±0.0, w, acc)` leaves a finite accumulator
//! equal to itself, so results compare equal (`==`) element for element.
//!
//! Layout:
//!
//! * patch matrix `B`: `K × M` where `K = in_c/groups · kh · kw` and
//!   `M = oh · ow`; row `k` holds the input values the k-th kernel element
//!   sees at every output pixel (zero where padding is hit);
//! * weight matrix `A`: the `[out_c][in_c/g][kh][kw]` filter, one row of
//!   `K` values per output channel, pre-packed at weight-precompute time
//!   into tile-major panels ([`PackedFilter`]);
//! * `C = A · B` is the `out_c/g × M` output of one group, written directly
//!   into the NCHW output tensor.
//!
//! There is one convolution entry ([`conv2d`]), bit-identical to
//! [`crate::ops_cpu::conv2d_naive`]. It walks the output column blocks in
//! the outer loop and fuses im2col into the walk (`crate::im2col`); the
//! filter's panels stream over each block while it is cache-hot, through
//! the register tile of the selected tier (`crate::tile`) and the fused
//! epilogue (`crate::epilogue`).

use crate::arena::Arena;
use crate::im2col::{im2col_block, in_place_or_edge_copy};
use crate::simd;
use crate::tensor_data::TensorData;
use crate::tile::{at_tier, tile_width, ColumnBlock, F32Panels, PACK_MR, PACK_NR};
use crate::workers::{self, DisjointOut};
use ios_ir::{Activation, Conv2dParams};
use std::ops::Range;

pub use crate::epilogue::ConvEpilogue;
pub use crate::tile::mul_add_probe;

/// A convolution filter pre-packed into the GEMM microkernel's tile-major
/// layout.
///
/// The natural filter layout `[out_c][in_c/g][kh][kw]` makes the kernel
/// read `PACK_MR` strided rows in parallel. Packing reorders each group's
/// weight matrix into panels of `PACK_MR` output channels, `k`-major inside
/// the panel (`data[panel][k][row]`), so the inner loop streams `A` as one
/// contiguous sequence. Packing is a pure permutation (edge panels are
/// zero-padded rows that are never read back into the output), so the
/// packed path consumes exactly the same weight values in exactly the same
/// order per output element as the naive loop reads them from the natural
/// layout. The natural layout is not kept beside it.
///
/// Pack once at weight-precompute time ([`crate::batch::BlockWeights`]);
/// every later execution streams the packed filter directly.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFilter {
    data: Vec<f32>,
    out_channels: usize,
    groups: usize,
    k_len: usize,
    /// Elements per group: `ceil(rows_per_group / PACK_MR) * k_len * PACK_MR`.
    group_stride: usize,
}

impl PackedFilter {
    /// Packs a filter in the natural `[out_c][in_c/g][kh][kw]` layout
    /// (`k_len = in_c/g · kh · kw` contiguous values per output channel,
    /// groups concatenated along the output-channel axis).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != out_channels * k_len` or `out_channels`
    /// is not divisible by `groups`.
    #[must_use]
    pub fn pack(weights: &[f32], out_channels: usize, groups: usize, k_len: usize) -> Self {
        assert_eq!(
            weights.len(),
            out_channels * k_len,
            "filter length must be out_channels * k_len"
        );
        assert_eq!(
            out_channels % groups,
            0,
            "output channels must divide evenly into groups"
        );
        let rows_per_group = out_channels / groups;
        let panels_per_group = rows_per_group.div_ceil(PACK_MR);
        let panel_stride = k_len * PACK_MR;
        let group_stride = panels_per_group * panel_stride;
        let mut data = vec![0.0f32; groups * group_stride];
        for oc in 0..out_channels {
            // Groups one after the other, each cut into panels of `PACK_MR`
            // rows, its last one zero-padded.
            let (g, r) = (oc / rows_per_group, oc % rows_per_group);
            let p = g * panels_per_group + r / PACK_MR;
            let panel = &mut data[p * panel_stride..][..panel_stride];
            for (k, &w) in weights[oc * k_len..][..k_len].iter().enumerate() {
                panel[k * PACK_MR + r % PACK_MR] = w;
            }
        }
        PackedFilter {
            data,
            out_channels,
            groups,
            k_len,
            group_stride,
        }
    }

    /// The `(out_channels, groups, k_len)` the filter was packed for.
    fn geometry(&self) -> (usize, usize, usize) {
        (self.out_channels, self.groups, self.k_len)
    }

    /// The packed panels of group `g`.
    #[must_use]
    fn group(&self, g: usize) -> &[f32] {
        &self.data[g * self.group_stride..(g + 1) * self.group_stride]
    }

    /// Logical weight parameters (`out_channels · k_len`) and the bytes
    /// held (edge-panel zero padding included).
    pub(crate) fn footprint(&self) -> (usize, usize) {
        (
            self.out_channels * self.k_len,
            std::mem::size_of_val(&self.data[..]),
        )
    }
}

/// How one sample of a packed convolution is cut into chunks of contiguous
/// tiles: whole groups for separable/depthwise and grouped convolutions
/// (their per-group grids are small and mutually independent), runs of
/// `PACK_NR`-wide column sub-blocks otherwise. A chunk builds the im2col
/// blocks of its own columns only, so no im2col work is duplicated. Every
/// tile — hence every output element — belongs to exactly one chunk, and a
/// tile's accumulation never depends on which chunk runs it, so the output
/// bits are the same for every split, including none.
///
/// The cut is balanced first, wide second. A kernel whose tile is `width`
/// sub-blocks wide gets no more chunks than the grid has such tiles, so a
/// chunk is about a tile wide or wider; the sub-blocks are then shared out
/// evenly (chunk sizes differ by at most one sub-block) and each chunk
/// walks its run at full width, its last one or two sub-blocks at a
/// narrower one. Cutting on tile boundaries instead would hand 64 columns
/// on two lanes out as 48 + 16 where 32 + 32 finishes sooner.
#[derive(Debug, Clone, Copy)]
struct TileSplit {
    chunks: usize,
    groups: usize,
    /// `PACK_NR`-wide column sub-blocks per group.
    blocks: usize,
}

impl TileSplit {
    fn plan(groups: usize, rows: usize, m_cols: usize, k_len: usize, width: usize) -> Self {
        let blocks = m_cols.div_ceil(PACK_NR);
        let tiles = blocks.div_ceil(width);
        let units = if groups > 1 { groups } else { tiles };
        let macs = groups * rows * m_cols * k_len;
        TileSplit {
            chunks: workers::op_chunks(units, macs),
            groups,
            blocks,
        }
    }

    /// The `(groups, column sub-blocks)` chunk `chunk` covers.
    fn part(&self, chunk: usize) -> (Range<usize>, Range<usize>) {
        let cut = |units| workers::chunk_range(units, self.chunks, chunk);
        if self.groups > 1 {
            (cut(self.groups), 0..self.blocks)
        } else {
            (0..self.groups, cut(self.blocks))
        }
    }
}

/// Dense / grouped 2-D convolution reading `filter`'s pre-packed panels —
/// the one convolution entry: im2col + blocked GEMM with a fused epilogue,
/// input-ReLU during im2col, bias / residual-add / ReLU in the tile
/// writeback ([`ConvEpilogue::default`] fuses nothing). Bit-identical to
/// running `ep`'s operations as separate passes around
/// [`crate::ops_cpu::conv2d_naive`] on every tier and lane count. Per-lane
/// scratch is thread-local; the output tensor is taken from `arena` and
/// owned by the caller.
///
/// # Panics
///
/// Panics if `filter` was not packed for this convolution's geometry, or a
/// provided residual/bias does not match the output geometry.
#[must_use]
pub fn conv2d(
    input: &TensorData,
    params: &Conv2dParams,
    filter: &PackedFilter,
    ep: &ConvEpilogue<'_>,
    arena: &impl Arena,
) -> TensorData {
    let in_shape = input.shape;
    let groups = params.groups;
    let in_c_per_group = in_shape.channels / groups;
    let out_c_per_group = params.out_channels / groups;
    let (kh, kw) = params.kernel;
    let k_len = in_c_per_group * kh * kw;
    assert_eq!(
        filter.geometry(),
        (params.out_channels, groups, k_len),
        "filter geometry (out_c, groups, k) does not match the convolution"
    );
    let mut out = ep.take_output(input, params, arena);
    let ow = out.shape.width;
    let m_cols = out.shape.height * ow;
    let in_plane = in_shape.height * in_shape.width;
    // Read once, here: the lanes that run this convolution's chunks
    // dispatch at the ISA of the thread that called it.
    let tier = simd::active_isa();
    // As wide as the tier's register tile, so every broadcast weight feeds
    // `NV` multiply-adds and the filter is streamed once per `16·NV` columns.
    let width = tile_width(tier);

    let relu = params.activation == Activation::Relu || ep.relu;
    // A pointwise convolution's patch matrix is the input itself — unless
    // a fused input-ReLU must transform the values, which forces the
    // patch-build path (it applies the ReLU while loading).
    let pointwise =
        kh == 1 && kw == 1 && params.stride == (1, 1) && params.padding == (0, 0) && !ep.input_relu;
    // The input planes of group `g` of sample `n`: a pointwise
    // convolution's whole `K × M` patch matrix.
    let group_input = |n: usize, g: usize| {
        let start = (n * in_shape.channels + g * in_c_per_group) * in_plane;
        &input.data[start..start + k_len * m_cols]
    };

    // The walk is column-block-outer: each lane builds the column block it
    // is about to use — as wide as the tier's tile — in its own scratch
    // (fused im2col) and the filter's panels stream over it while it is
    // cache-hot. Every output element accumulates the patch values over
    // ascending k whichever chunk and whichever block width its tile falls
    // into, so the bits depend on neither. A pointwise convolution reads
    // blocks of full sub-blocks in place and needs the patch scratch only
    // for a ragged last one.
    let split = TileSplit::plan(groups, out_c_per_group, m_cols, k_len, width);
    let out_view = DisjointOut::new(&mut out.data);
    let patch_len = if pointwise && m_cols.is_multiple_of(PACK_NR) {
        0
    } else {
        k_len * width * PACK_NR
    };
    for n in 0..in_shape.batch {
        workers::parallel_for_op(split.chunks, |chunk| {
            let (chunk_groups, blocks) = split.part(chunk);
            workers::with_lane_scratch(patch_len, |patches| {
                for g in chunk_groups {
                    let oc0 = g * out_c_per_group;
                    // Full-width blocks, then the chunk's last one or two
                    // sub-blocks as a narrower one.
                    for block in blocks.clone().step_by(width) {
                        let j0 = block * PACK_NR;
                        let nr = (width.min(blocks.end - block) * PACK_NR).min(m_cols - j0);
                        let (b, b_stride) = if pointwise {
                            in_place_or_edge_copy(&group_input(n, g)[j0..], m_cols, nr, patches)
                        } else {
                            im2col_block(
                                input,
                                n,
                                g * in_c_per_group,
                                in_c_per_group,
                                params,
                                ow,
                                j0,
                                nr,
                                patches,
                                ep.input_relu,
                            );
                            (&*patches, nr.next_multiple_of(PACK_NR))
                        };
                        let block = ColumnBlock {
                            m_rows: out_c_per_group,
                            k_len,
                            b,
                            b_stride,
                            j0,
                            nr,
                            m: m_cols,
                            ep,
                            relu,
                            oc0,
                            c0: (n * params.out_channels + oc0) * m_cols,
                            c: &out_view,
                        };
                        let a = filter.group(g);
                        at_tier(tier, F32Panels { a, block: &block });
                    }
                }
            });
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ScratchPool;
    use crate::im2col::valid_range;
    use crate::ops_cpu::conv2d_naive;
    use crate::simd::Isa;
    use ios_ir::TensorShape;

    /// The GEMM `A · B` — `A` is `m_rows × k_len`, `B` is `k_len × m`,
    /// `sin`/`cos`-filled — as a pointwise convolution: `B` is the input's
    /// channel planes, which the kernel reads in place block by block (a
    /// ragged last block through a zero-tailed copy), `A` the filter.
    fn pointwise_gemm(
        m_rows: usize,
        m: usize,
        k_len: usize,
    ) -> (TensorData, Conv2dParams, Vec<f32>) {
        let a = (0..m_rows * k_len).map(|i| (i as f32).sin()).collect();
        let input = TensorData {
            shape: TensorShape::new(1, k_len, 1, m),
            data: (0..k_len * m).map(|i| (i as f32).cos()).collect(),
        };
        let params = Conv2dParams::plain(m_rows, (1, 1), (1, 1), (0, 0));
        (input, params, a)
    }

    #[test]
    fn packed_gemm_matches_scalar_reference() {
        // Row counts around the PACK_MR boundary, column counts around
        // PACK_NR (full and edge tiles), including a single-row
        // (depthwise-like) matrix.
        let pool = ScratchPool::new();
        let ep = ConvEpilogue::default();
        for &(m_rows, m, k_len) in &[
            (7usize, 23usize, 11usize),
            (6, 16, 4),
            (13, 33, 7),
            (1, 5, 3),
            (12, 48, 9),
        ] {
            let (input, params, a) = pointwise_gemm(m_rows, m, k_len);
            let packed = PackedFilter::pack(&a, m_rows, 1, k_len);
            let c = conv2d(&input, &params, &packed, &ep, &pool);
            let b = &input.data;
            for i in 0..m_rows {
                for j in 0..m {
                    let mut acc = 0.0f32;
                    for kk in 0..k_len {
                        acc = a[i * k_len + kk].mul_add(b[kk * m + j], acc);
                    }
                    assert_eq!(
                        c.data[i * m + j],
                        acc,
                        "{m_rows}x{m} (k {k_len}) must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn every_mac_is_fused_on_the_oracle_and_on_every_tier() {
        // Two input channels: −1 · (1 + 2⁻¹¹), then (1 + 2⁻¹²)², whose exact
        // product 1 + 2⁻¹¹ + 2⁻²⁴ lands on −(1 + 2⁻¹¹). One rounding per MAC
        // leaves exactly 2⁻²⁴; a product rounded on its own is a tie that
        // rounds to 1 + 2⁻¹¹ and leaves 0.0. An un-fused oracle or tier — or
        // a contraction flag fusing one and not the other — fails here.
        let (w, x) = (
            [-1.0, 1.0 + 2f32.powi(-12)],
            [1.0 + 2f32.powi(-11), 1.0 + 2f32.powi(-12)],
        );
        let fused = 2f32.powi(-24);
        assert_eq!(w[0] * x[0] + w[1] * x[1], 0.0);
        assert_eq!(w[1].mul_add(x[1], w[0] * x[0]), fused);
        // 5 rows × 50 columns: an edge panel, and every lane of a full, a
        // two-wide and a ragged block.
        let (m_rows, m) = (5usize, 50usize);
        let input = TensorData {
            shape: TensorShape::new(1, 2, 1, m),
            data: x.iter().flat_map(|&v| vec![v; m]).collect(),
        };
        let params = Conv2dParams::plain(m_rows, (1, 1), (1, 1), (0, 0));
        let weights = w.repeat(m_rows);
        let want = vec![fused; m_rows * m];
        assert_eq!(conv2d_naive(&input, &params, &weights).data, want, "oracle");
        let kernel = PackedFilter::pack(&weights, m_rows, 1, 2);
        let pool = ScratchPool::new();
        for isa in simd::supported_isas() {
            for lanes in [1, 2, workers::lanes()] {
                let got = simd::with_forced_isa(isa, || {
                    workers::with_forced_lanes(lanes, || {
                        conv2d(&input, &params, &kernel, &ConvEpilogue::default(), &pool)
                    })
                });
                assert_eq!(got.data, want, "{isa}, {lanes} lanes");
            }
        }
    }

    #[test]
    fn packing_is_a_pure_permutation_per_group() {
        // 2 groups × 5 rows with k = 3: every weight must appear at its
        // panel-major position, edge rows zero-padded.
        let (out_c, groups, k_len) = (10usize, 2usize, 3usize);
        let weights: Vec<f32> = (0..out_c * k_len).map(|i| i as f32 + 1.0).collect();
        let packed = PackedFilter::pack(&weights, out_c, groups, k_len);
        assert_eq!(packed.geometry(), (out_c, groups, k_len));
        let rows_per_group = out_c / groups;
        for g in 0..groups {
            let panels = packed.group(g);
            for r in 0..rows_per_group {
                let (p, lane) = (r / PACK_MR, r % PACK_MR);
                for k in 0..k_len {
                    let oc = g * rows_per_group + r;
                    assert_eq!(
                        panels[(p * k_len + k) * PACK_MR + lane],
                        weights[oc * k_len + k]
                    );
                }
            }
        }
    }

    /// `sin`-filled filter for `params` over `shape`, natural layout and
    /// packed.
    fn filters(shape: TensorShape, params: &Conv2dParams) -> (Vec<f32>, PackedFilter) {
        let k_len = (shape.channels / params.groups) * params.kernel.0 * params.kernel.1;
        let weights: Vec<f32> = (0..params.out_channels * k_len)
            .map(|v| (v as f32).sin())
            .collect();
        let packed = PackedFilter::pack(&weights, params.out_channels, params.groups, k_len);
        (weights, packed)
    }

    #[test]
    fn fused_block_im2col_conv_matches_naive() {
        // The kernel builds K × PACK_NR patch blocks on demand; they must
        // hold what the naive loop reads across strides, padding, groups
        // and ragged widths (ow not a multiple of PACK_NR, blocks spanning
        // several output rows).
        use ios_ir::Activation;
        let pool = ScratchPool::new();
        let cases: Vec<(TensorShape, Conv2dParams)> = vec![
            (
                TensorShape::new(2, 5, 9, 7),
                Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)),
            ),
            (
                TensorShape::new(1, 4, 11, 5),
                Conv2dParams::plain(7, (5, 3), (2, 2), (2, 1)),
            ),
            (
                TensorShape::new(1, 6, 10, 10),
                Conv2dParams {
                    out_channels: 6,
                    kernel: (3, 3),
                    stride: (2, 2),
                    padding: (1, 1),
                    groups: 6,
                    activation: Activation::None,
                },
            ),
            // Padding wider than the kernel reach: whole rows of zeros.
            (
                TensorShape::new(1, 3, 4, 4),
                Conv2dParams::plain(5, (3, 3), (3, 3), (3, 3)),
            ),
        ];
        for (i, (shape, params)) in cases.iter().enumerate() {
            let input = TensorData::random(*shape, 400 + i as u64);
            let (weights, packed) = filters(*shape, params);
            let packed_out = conv2d(&input, params, &packed, &ConvEpilogue::default(), &pool);
            assert_eq!(
                packed_out,
                conv2d_naive(&input, params, &weights),
                "case {i}: fused-block packed conv must be bit-identical"
            );
            pool.recycle_tensor(packed_out);
        }
    }

    #[test]
    fn fused_epilogue_matches_separate_passes_bitwise() {
        // bias + residual + relu fused into the tile writeback must equal
        // the naive conv followed by the three separate passes, bit for
        // bit.
        let pool = ScratchPool::new();
        let shape = TensorShape::new(2, 3, 9, 7);
        let params = Conv2dParams::plain(6, (3, 3), (1, 1), (1, 1));
        let input = TensorData::random(shape, 42);
        let (weights, packed) = filters(shape, &params);
        let bias: Vec<f32> = (0..params.out_channels).map(|v| (v as f32).cos()).collect();
        let plain = conv2d_naive(&input, &params, &weights);
        let residual = TensorData::random(plain.shape, 77);

        // Separate-pass reference, in the documented epilogue order.
        let mut reference = plain;
        let m_cols = reference.shape.height * reference.shape.width;
        for n in 0..reference.shape.batch {
            for (oc, &bv) in bias.iter().enumerate() {
                let start = (n * params.out_channels + oc) * m_cols;
                for v in &mut reference.data[start..start + m_cols] {
                    *v += bv;
                }
            }
        }
        for (v, &r) in reference.data.iter_mut().zip(&residual.data) {
            *v += r;
        }
        for v in &mut reference.data {
            *v = v.max(0.0);
        }

        let ep = ConvEpilogue {
            input_relu: false,
            bias: Some(&bias),
            residual: Some(&residual),
            relu: true,
        };
        let fused = conv2d(&input, &params, &packed, &ep, &pool);
        assert_eq!(fused, reference, "fused epilogue must be bit-identical");
    }

    #[test]
    fn input_relu_fusion_matches_activated_copy() {
        // Loading through the fused input-ReLU must equal convolving a
        // pre-activated copy of the input — including on a pointwise conv,
        // which normally skips im2col entirely.
        let pool = ScratchPool::new();
        for params in [
            Conv2dParams::relu(5, (3, 3), (1, 1), (1, 1)),
            Conv2dParams::plain(5, (1, 1), (1, 1), (0, 0)),
        ] {
            let shape = TensorShape::new(2, 4, 6, 5);
            let input = TensorData::random(shape, 7);
            let mut activated = input.clone();
            for v in &mut activated.data {
                *v = v.max(0.0);
            }
            let (weights, packed) = filters(shape, &params);
            let ep = ConvEpilogue {
                input_relu: true,
                ..ConvEpilogue::default()
            };
            let fused = conv2d(&input, &params, &packed, &ep, &pool);
            assert_eq!(fused, conv2d_naive(&activated, &params, &weights));
        }
    }

    #[test]
    fn simd_tiles_panic_on_a_short_b_slice_instead_of_reading_past_it() {
        // The tiles load through raw pointers; a `b` one element short of
        // the tile — of its last vector's last row — must be refused by a
        // check that is still there in release builds: by every
        // instantiation of the generic body the dispatch can reach (each
        // supported tier at 4 rows, one panel, and at 8 — the AVX-512 tile
        // spans two — at every block width up to the tier's).
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let k_len = 9usize;
        for isa in simd::supported_isas() {
            for wide in 1..=tile_width(isa) {
                let row_width = wide * PACK_NR;
                let short_block = vec![1.0f32; k_len * row_width - 1];
                for m_rows in [PACK_MR, 2 * PACK_MR] {
                    let a = vec![1.0f32; k_len * m_rows];
                    let mut c = vec![0.0f32; m_rows * row_width];
                    let f32_tile = catch_unwind(AssertUnwindSafe(|| {
                        let block = ColumnBlock {
                            m_rows,
                            k_len,
                            b: &short_block,
                            b_stride: row_width,
                            j0: 0,
                            nr: row_width,
                            m: row_width,
                            ep: &ConvEpilogue::default(),
                            relu: false,
                            oc0: 0,
                            c0: 0,
                            c: &DisjointOut::new(&mut c),
                        };
                        let block = &block;
                        at_tier(isa, F32Panels { a: &a, block });
                    }));
                    assert!(
                        f32_tile.is_err(),
                        "the {m_rows}-row, {wide}-vector f32 tile must refuse a short block on {isa}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_probe_runs_one_chain_per_accumulator_row_of_each_tier() {
        // Per row, not per accumulator: a tile `NV` vectors wide still
        // probes `SPAN · PACK_MR` chains, so `pct_of_peak` keeps its
        // denominator when a tier's tile is widened.
        for isa in simd::supported_isas() {
            let rows = if isa == Isa::Avx512 {
                2 * PACK_MR
            } else {
                PACK_MR
            };
            assert_eq!(mul_add_probe(isa, 5), (5 * rows * PACK_NR * 2) as u64);
        }
    }

    #[test]
    fn f32_tile_isa_variants_agree_bitwise() {
        // Every instantiation of the tile body the host can run, on one
        // lane, two and the host's, must produce the bits of the scalar tier
        // through every epilogue combination.
        let supported = simd::supported_isas();
        let pool = ScratchPool::new();
        // Shapes around the PACK_MR/PACK_NR boundaries: full tiles, edge
        // tiles, a single-row matrix, and a k long enough to accumulate
        // error if any variant reordered the sum ...
        let mut shapes = vec![
            (8usize, 32usize, 64usize),
            (7, 23, 11),
            (4, 16, 1),
            (1, 5, 3),
            (13, 50, 200),
        ];
        // ... then every tile boundary: even, odd and ragged panel counts
        // (the AVX-512 tile spans two panels) against every remainder of
        // the wide column walk (its tile spans three sub-blocks): a lone
        // column, then one short of, exactly and one over one, two and
        // three sub-blocks, four, and a 17×17 layer's 289.
        for m_rows in [4, 8, 12, 13] {
            for m in [1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 64, 289] {
                shapes.push((m_rows, m, 37));
            }
        }
        for (m_rows, m, k_len) in shapes {
            let (input, params, a) = pointwise_gemm(m_rows, m, k_len);
            let bias: Vec<f32> = (0..m_rows).map(|i| (i as f32 * 0.7).tan()).collect();
            let residual = TensorData {
                shape: TensorShape::new(1, m_rows, 1, m),
                data: (0..m_rows * m).map(|i| (i as f32 * 1.3).sin()).collect(),
            };
            let packed = PackedFilter::pack(&a, m_rows, 1, k_len);
            for ep_case in 0..4 {
                let ep = ConvEpilogue {
                    input_relu: false,
                    bias: (ep_case & 1 != 0).then_some(&bias[..]),
                    residual: (ep_case & 2 != 0).then_some(&residual),
                    relu: ep_case != 0,
                };
                let run = |isa: Isa, lanes: usize| {
                    let conv = || conv2d(&input, &params, &packed, &ep, &pool);
                    simd::with_forced_isa(isa, || workers::with_forced_lanes(lanes, conv))
                };
                let f32_want = run(Isa::Scalar, 1);
                for &isa in &supported {
                    for lanes in [1, 2, workers::lanes()] {
                        let what = format!(
                            "{m_rows}x{m} (k {k_len}, ep {ep_case}) on {isa}, {lanes} lanes"
                        );
                        assert_eq!(run(isa, lanes), f32_want, "f32 {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn pointwise_conv_with_a_ragged_last_block_matches_naive() {
        // A pointwise convolution reads its input planes in place; a block
        // ending in a ragged sub-block is copied to its full row stride
        // instead: 17·17 = 289 = 6·48 + 1 columns, 35·35 = 1225 = 25·48 + 25
        // (a ragged block two sub-blocks wide), and 8·8 = 64 = 48 + 16,
        // nothing ragged and a narrower last block. Every tier, odd panel
        // count.
        let pool = ScratchPool::new();
        for side in [17usize, 35, 8] {
            let shape = TensorShape::new(2, 5, side, side);
            let params = Conv2dParams::relu(13, (1, 1), (1, 1), (0, 0));
            let input = TensorData::random(shape, 23);
            let (weights, packed) = filters(shape, &params);
            let want = conv2d_naive(&input, &params, &weights);
            for isa in simd::supported_isas() {
                let got = simd::with_forced_isa(isa, || {
                    conv2d(&input, &params, &packed, &ConvEpilogue::default(), &pool)
                });
                assert_eq!(got, want, "{side}×{side} pointwise conv on {isa}");
            }
        }
    }

    #[test]
    fn tile_split_is_balanced_and_cuts_on_sub_block_boundaries() {
        // Inception's planes (8², 17², 35², 71², 147²) on every lane count
        // and tile width: the chunks partition the sub-blocks in order,
        // none is empty, and the widest exceeds the narrowest by at most
        // one tile — in fact by at most one sub-block.
        for m_cols in [64usize, 289, 1225, 5041, 21609] {
            let blocks = m_cols.div_ceil(PACK_NR);
            for lanes in [1usize, 2, 3, 4, 8] {
                for width in [1usize, 2, 3] {
                    let split = workers::with_forced_lanes(lanes, || {
                        TileSplit::plan(1, 64, m_cols, 9, width)
                    });
                    let tiles = blocks.div_ceil(width);
                    assert_eq!(split.chunks, lanes.min(tiles), "{m_cols}/{lanes}/{width}");
                    let sizes: Vec<usize> = (0..split.chunks)
                        .scan(0, |next, chunk| {
                            let (groups, cut) = split.part(chunk);
                            assert_eq!((groups, cut.start), (0..1, *next));
                            *next = cut.end;
                            Some(cut.len())
                        })
                        .collect();
                    assert_eq!(sizes.iter().sum::<usize>(), blocks);
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(
                        *min > 0 && max - min <= 1,
                        "{m_cols}/{lanes}/{width}: {sizes:?}"
                    );
                }
            }
        }
        // 64 columns on two lanes at a three-wide tile: 32 + 32, not 48 + 16.
        let split = workers::with_forced_lanes(2, || TileSplit::plan(1, 384, 64, 2048, 3));
        assert_eq!((split.part(0).1, split.part(1).1), (0..2, 2..4));
    }

    #[test]
    fn valid_range_covers_edges() {
        // 3×3 kernel, pad 1, stride 1 on width 5 → ow 5.
        assert_eq!(valid_range(5, 1, 0, 1, 5), (1, 5)); // kx = 0: x ∈ [1, 5)
        assert_eq!(valid_range(5, 1, 1, 1, 5), (0, 5)); // kx = 1: all valid
        assert_eq!(valid_range(5, 1, 2, 1, 5), (0, 4)); // kx = 2: x ∈ [0, 4)
                                                        // Stride 2, no padding, k 3 on width 8 → ow 3: x·2 + kx < 8.
        assert_eq!(valid_range(3, 2, 0, 0, 8), (0, 3));
        assert_eq!(valid_range(3, 2, 2, 0, 8), (0, 3));
        // Degenerate: window entirely outside.
        assert_eq!(valid_range(4, 1, 0, 9, 5), (4, 4));
    }
}
