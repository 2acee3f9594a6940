//! im2col + register-blocked GEMM convolution, bit-identical to the naive
//! reference loop.
//!
//! The naive `conv2d` computes every output element as a single scalar
//! accumulation over `(ic, ky, kx)` in that fixed order. This module keeps
//! that exact accumulation order — the k dimension of the GEMM is
//! `(ic, ky, kx)` flattened, walked strictly sequentially — and blocks only
//! over the *independent* output dimensions (output channels × output
//! pixels), so every output element receives precisely the same sequence of
//! `mul` + `add` operations as the reference. Padding positions contribute
//! explicit zero patch values; adding `±0.0 * w` terms never changes a
//! finite IEEE-754 sum, so results compare equal (`==`) element for
//! element. No FMA contraction is used.
//!
//! Layout:
//!
//! * patch matrix `B`: `K × M` where `K = in_c/groups · kh · kw` and
//!   `M = oh · ow`; row `k` holds the input values the k-th kernel element
//!   sees at every output pixel (zero where padding is hit);
//! * weight matrix `A`: the `[out_c][in_c/g][kh][kw]` filter, one row of
//!   `K` values per output channel, pre-packed into the tile-major panels
//!   of [`PackedFilter`] at weight-precompute time;
//! * `C = A · B` is the `out_c/g × M` output of one group, written directly
//!   into the NCHW output tensor.
//!
//! Pointwise convolutions (1×1, stride 1, no padding) skip im2col entirely:
//! the input channel planes already *are* the patch matrix.
//!
//! There is one f32 kernel ([`conv2d_im2col_packed_fused`]). It walks the
//! output column blocks in the outer loop and **fuses im2col into the block
//! walk**: the full `K × M` patch matrix is never materialized; each
//! `K × 16·NV` column block is built in cache right before all packed
//! panels stream over it ([`im2col_block`]), so the patch data of a large
//! layer never round-trips through memory at all. The block holds exactly
//! the patch values, packing is a pure permutation of the filter, and every
//! accumulator sums over strictly ascending `k` — bit-identical to the
//! naive reference ([`crate::ops_cpu::conv2d_naive`]), the oracle every
//! test checks it against.
//!
//! **Epilogues are fused into the tile writeback.** An [`Epilogue`]
//! descriptor (bias / residual-add / ReLU, composable) is threaded through
//! the kernel down to the `PACK_MR × PACK_NR` tile store, so activations
//! and adds apply while the output tile is register-hot instead of as
//! separate whole-tensor passes afterwards. The fused epilogue computes the
//! exact per-element expression of the separate passes — `(acc + bias) +
//! residual`, then `max(0, ·)` — so the f32 path stays bit-identical to
//! the pass-after reference (`max(0, ·)` per element commutes with the
//! store order).
//!
//! **One tile body, instantiated per tier.** The register tile and its
//! epilogue store are written once ([`ColumnBlock::tile`], [`store_row`]),
//! generic over [`Row`] — 16 adjacent output columns held in whatever
//! registers a tier has — in height (`SPAN` adjacent panels) and in width
//! (`NV` adjacent `Row`s), and instantiated three times in one place
//! ([`at_tier`]), selected per call through the shared [`crate::simd`]
//! dispatch module:
//!
//! | tier | row type | tile | registers |
//! |---|---|---|---|
//! | scalar, SSE2 | `[f32; 16]` (auto-vectorized) | 4 rows × 16 columns | 16 xmm accumulators |
//! | AVX2 | `[__m256; 2]` | 4 rows × 16 columns | 8 + 2 patch + 1 broadcast of 16 ymm |
//! | AVX-512F | `[__m512; 1]` | 8 rows (two adjacent panels) × 48 columns | 24 + 3 patch + 1 broadcast of 32 zmm |
//!
//! A row multiplies and adds in separate instructions — never FMA — and
//! each output element accumulates over the identical strictly ascending
//! `k` sequence, so the selected tier is invisible in the output bits:
//! every tier stays bit-identical to the naive oracle. The packed layout is
//! the same at every tier; the column block a lane builds is as wide as the
//! tier's tile (`K × 16·NV`), so every broadcast weight feeds `NV`
//! multiplies and the filter is streamed once per `16·NV` output columns.
//! There is no edge tile: the last one or two 16-column sub-blocks of a
//! chunk run the same body at a smaller `NV` (as an odd trailing panel runs
//! it at `SPAN` 1), a ragged last sub-block is built at the full row stride
//! with a zero tail, edge panels carry zero rows, and only the *store* is
//! partial.
//!
//! **Int8 quantized path.** [`QuantizedFilter`] holds per-output-channel
//! symmetric-scale int8 weights in a pair-interleaved panel layout (4× the
//! lanes of f32 in the same tile footprint); inputs are quantized
//! per-sample during the fused im2col block build, the microkernel
//! accumulates in `i32` via `pmaddwd`-shaped multiply-adds
//! (runtime-dispatched AVX2 / SSE2 / scalar — all computing the same
//! integer sums), and requantization happens in the epilogue. Integer
//! accumulation is order-exact, so the quantized path is **byte-identical**
//! across thread counts, pipeline segmentations, ISA paths and the naive
//! int8 oracle ([`crate::ops_cpu::conv2d_naive_quant`]).

use crate::arena::Arena;
use crate::simd::{self, Isa, KernelPath};
use crate::tensor_data::TensorData;
use crate::workers::{self, DisjointOut};
use ios_ir::{Conv2dParams, TensorShape};
use std::ops::Range;

/// Output-channel rows per packed panel: the tile-major layout feeds the
/// microkernel one contiguous `PACK_MR`-wide slab per k step. 4 rows × 2
/// accumulator vectors + 2 patch vectors + 1 broadcast fit the 16 AVX2
/// registers (6 or 8 rows measured slower there because the accumulator
/// array spills); the AVX-512 tile spans two adjacent panels and three
/// [`Row`]s — 24 accumulators + 3 patch vectors + 1 broadcast of its 32
/// registers.
const PACK_MR: usize = 4;
/// Output-pixel columns per [`Row`] (two 8-lane vectors on AVX2, one
/// 16-lane vector on AVX-512) — the sub-block every column walk, chunk cut
/// and partial store counts in. A tier's register tile is `NV` of them
/// wide ([`at_tier`]).
const PACK_NR: usize = 16;

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
/// layout.
///
/// Pack once at weight-precompute time ([`crate::batch::BlockWeights`]);
/// every later execution streams the packed filter directly.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFilter {
    data: Vec<f32>,
    out_channels: usize,
    groups: usize,
    k_len: usize,
    /// Elements per panel: `k_len * PACK_MR`.
    panel_stride: usize,
    /// Elements per group: `ceil(rows_per_group / PACK_MR) * panel_stride`.
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
        for g in 0..groups {
            for p in 0..panels_per_group {
                let rows = PACK_MR.min(rows_per_group - p * PACK_MR);
                let panel = &mut data[g * group_stride + p * panel_stride..][..panel_stride];
                for r in 0..rows {
                    let oc = g * rows_per_group + p * PACK_MR + r;
                    let row = &weights[oc * k_len..(oc + 1) * k_len];
                    for (k, &w) in row.iter().enumerate() {
                        panel[k * PACK_MR + r] = w;
                    }
                }
            }
        }
        PackedFilter {
            data,
            out_channels,
            groups,
            k_len,
            panel_stride,
            group_stride,
        }
    }

    /// Whether this filter was packed for the given geometry.
    #[must_use]
    pub fn matches(&self, out_channels: usize, groups: usize, k_len: usize) -> bool {
        self.out_channels == out_channels && self.groups == groups && self.k_len == k_len
    }

    /// The packed panels of group `g`.
    #[must_use]
    fn group(&self, g: usize) -> &[f32] {
        &self.data[g * self.group_stride..(g + 1) * self.group_stride]
    }

    /// Total packed elements held (including edge-panel zero padding).
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.data.len()
    }

    /// Number of logical weight parameters packed (`out_channels · k_len`,
    /// excluding edge-panel padding) — the natural filter's length.
    #[must_use]
    pub fn num_weights(&self) -> usize {
        self.out_channels * self.k_len
    }
}

/// A fused GEMM epilogue: what happens to each finished accumulator
/// element between the register tile and the store into `C`.
///
/// The operations apply in a fixed order — `(acc + bias) + residual`,
/// then `max(0, ·)` if `relu` — exactly the order the former separate
/// whole-tensor passes used, so fusing them into the tile writeback is
/// bit-identical to running them afterwards. An absent term is *skipped
/// entirely*, never added as `0.0` (`-0.0 + 0.0 == +0.0` would flip the
/// sign bit of negative zeros and break bitwise identity).
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-output-row constant: `bias[i]` is added to every element of
    /// output row `i`.
    pub bias: Option<&'a [f32]>,
    /// Elementwise addend with the same `m_rows × m` layout as `C`.
    pub residual: Option<&'a [f32]>,
    /// Apply `max(0, ·)` after the adds.
    pub relu: bool,
}

impl Epilogue<'_> {
    /// The identity epilogue: store the accumulator unchanged.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        residual: None,
        relu: false,
    };
}

/// One row of a register tile: `PACK_NR` = 16 adjacent output columns held
/// in whatever registers a tier has. The tile body and the epilogue store
/// are written once over this trait; a tier is an implementation plus a
/// `#[target_feature]` entry ([`at_tier`]).
///
/// `mul` and `add` are always separate operations, never fused — every
/// implementation gives each lane the scalar sequence `acc + a · b`
/// rounded twice, so all tiers produce the same bits. `max(v, +0.0)`
/// returns `+0.0` for NaN lanes on every implementation (`f32::max` and
/// `vmaxps` agree), and a `-0.0` can never reach it (every accumulator
/// chain starts at `+0.0`, and IEEE-754 addition only yields `-0.0` from
/// two `-0.0` operands).
///
/// # Safety
///
/// The methods of an implementation may only run on a CPU that executes
/// the implementing type's instruction set; `load` reads and `store`
/// writes `PACK_NR` consecutive `f32` (unaligned) at the given pointer.
trait Row: Copy {
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(src: *const f32) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn max(self, o: Self) -> Self;
    unsafe fn store(self, dst: *mut f32);
}

/// Implements [`Row`] as `PACK_NR / $lanes` vectors of `$lanes` lanes from
/// the vector type's elementwise operations.
macro_rules! row_of {
    ($v:ty, $lanes:literal, $splat:expr, $load:expr, $mul:expr, $add:expr, $max:expr, $store:expr) => {
        // SAFETY (every block below): the `Row` contract — the CPU executes
        // `$v`'s ISA, pointers lead to `PACK_NR` values; the operations load
        // and store unaligned. (The portable row's are safe: the `allow`.)
        #[allow(unused_unsafe)]
        impl Row for [$v; PACK_NR / $lanes] {
            #[inline(always)]
            unsafe fn splat(v: f32) -> Self {
                unsafe { [$splat(v); PACK_NR / $lanes] }
            }
            #[inline(always)]
            unsafe fn load(src: *const f32) -> Self {
                unsafe { std::array::from_fn(|h| $load(src.add(h * $lanes))) }
            }
            #[inline(always)]
            unsafe fn mul(self, o: Self) -> Self {
                unsafe { std::array::from_fn(|h| $mul(self[h], o[h])) }
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                unsafe { std::array::from_fn(|h| $add(self[h], o[h])) }
            }
            #[inline(always)]
            unsafe fn max(self, o: Self) -> Self {
                unsafe { std::array::from_fn(|h| $max(self[h], o[h])) }
            }
            #[inline(always)]
            unsafe fn store(self, dst: *mut f32) {
                for (h, v) in self.into_iter().enumerate() {
                    unsafe { $store(dst.add(h * $lanes), v) };
                }
            }
        }
    };
}

// The portable row of the scalar and SSE2 tiers: sixteen plain floats the
// compiler auto-vectorizes at the build's baseline.
row_of!(
    f32,
    1,
    std::convert::identity,
    |p: *const f32| p.read(),
    |a: f32, b: f32| a * b,
    |a: f32, b: f32| a + b,
    f32::max,
    |p: *mut f32, v: f32| p.write(v)
);

#[cfg(target_arch = "x86_64")]
mod x86_rows {
    use super::{Row, PACK_NR};
    use std::arch::x86_64::*;
    // AVX2: two 8-lane vectors.
    row_of!(
        __m256,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_max_ps,
        _mm256_storeu_ps
    );
    // AVX-512F: one 16-lane vector.
    row_of!(
        __m512,
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        _mm512_max_ps,
        _mm512_storeu_ps
    );
}

/// Pushes one finished accumulator row (output row `row`, columns
/// `[j0, j0 + PACK_NR)`, row stride `m`) through the epilogue and stores
/// its first `nr` columns into `c`. This is the single store every f32
/// tier — and the requantized int8 kernel — goes through, so all paths
/// apply the identical per-element expression: `(acc + bias) + residual`,
/// then the ReLU clamp. A ragged block (`nr < PACK_NR`) computes the whole
/// row and goes through the stack for the residual load and the store;
/// the lanes beyond `nr` are never written.
///
/// # Safety
///
/// The CPU must execute `R`'s instruction set (the [`Row`] contract).
#[inline(always)]
unsafe fn store_row<R: Row>(
    ep: &Epilogue<'_>,
    row: usize,
    j0: usize,
    nr: usize,
    m: usize,
    mut v: R,
    c: &DisjointOut<'_>,
) {
    let start = row * m + j0;
    // SAFETY: the slice indexing bounds-checks every pointer below. Every
    // `(row, column)` of `c` belongs to exactly one tile, a tile to exactly
    // one chunk of the walk, and a thread holds one row's slice at a time.
    unsafe {
        if let Some(bias) = ep.bias {
            v = v.add(R::splat(bias[row]));
        }
        if let Some(res) = ep.residual {
            let r = &res[start..start + nr];
            v = v.add(if nr == PACK_NR {
                R::load(r.as_ptr())
            } else {
                let mut tail = [0.0f32; PACK_NR];
                tail[..nr].copy_from_slice(r);
                R::load(tail.as_ptr())
            });
        }
        if ep.relu {
            v = v.max(R::splat(0.0));
        }
        let dst = c.slice_mut(start, nr);
        if nr == PACK_NR {
            v.store(dst.as_mut_ptr());
        } else {
            let mut tail = [0.0f32; PACK_NR];
            v.store(tail.as_mut_ptr());
            dst.copy_from_slice(&tail[..nr]);
        }
    }
}

/// The convolution-level view of a fused epilogue, plus an optional ReLU
/// applied to the *input* while the patch matrix is loaded (fusing the
/// separable-conv pre-activation copy into im2col).
///
/// `relu` composes with `params.activation`: the output ReLU runs if
/// either asks for it (idempotent, so composing is exact).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEpilogue<'a> {
    /// Apply `max(0, ·)` to input values as the patch matrix is built.
    pub input_relu: bool,
    /// Per-output-channel bias (`params.out_channels` values).
    pub bias: Option<&'a [f32]>,
    /// Elementwise addend with the output tensor's exact shape.
    pub residual: Option<&'a TensorData>,
    /// Apply `max(0, ·)` to the output after the adds.
    pub relu: bool,
}

impl ConvEpilogue<'_> {
    /// Whether this epilogue is the identity (no fused work).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        !self.input_relu && self.bias.is_none() && self.residual.is_none() && !self.relu
    }

    /// Takes the convolution's output tensor from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if the residual or bias does not match the output geometry.
    fn take_output(
        &self,
        input: &TensorData,
        params: &Conv2dParams,
        pool: &impl Arena,
    ) -> TensorData {
        let (oh, ow) = input
            .shape
            .conv_output_hw(params.kernel, params.stride, params.padding);
        let out_shape = TensorShape::new(input.shape.batch, params.out_channels, oh, ow);
        if let Some(res) = self.residual {
            assert_eq!(
                res.shape, out_shape,
                "fused residual shape must match the convolution output"
            );
        }
        if let Some(bias) = self.bias {
            assert!(
                bias.len() >= params.out_channels,
                "fused bias must cover every output channel"
            );
        }
        pool.take_tensor(out_shape)
    }

    /// The GEMM epilogue of output channels `[oc0, oc0 + rows)` of sample
    /// `n` — one group's `rows × m_cols` slice of the output — and where
    /// that slice starts in the output tensor.
    fn of_rows(
        &self,
        params: &Conv2dParams,
        n: usize,
        oc0: usize,
        rows: usize,
        m_cols: usize,
    ) -> (Epilogue<'_>, usize) {
        let c_start = (n * params.out_channels + oc0) * m_cols;
        let gep = Epilogue {
            bias: self.bias.map(|b| &b[oc0..oc0 + rows]),
            residual: self
                .residual
                .map(|r| &r.data[c_start..c_start + rows * m_cols]),
            relu: params.activation == ios_ir::Activation::Relu || self.relu,
        };
        (gep, c_start)
    }
}

/// How one sample of a packed (f32 or int8) convolution is cut into
/// chunks of contiguous tiles: whole groups for separable/depthwise and
/// grouped convolutions (their per-group grids are small and mutually
/// independent), runs of `PACK_NR`-wide column sub-blocks otherwise. A chunk
/// builds the im2col blocks of its own columns only, so no im2col work is
/// duplicated. Every tile — hence every output element — belongs to exactly
/// one chunk, and a tile's accumulation never depends on which chunk runs
/// it, so the output bits are the same for every split, including none.
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

/// im2col + blocked-GEMM convolution reading the filter from its
/// pre-packed tile-major layout, with a fused epilogue: input-ReLU during
/// im2col, bias / residual-add / ReLU in the tile writeback
/// ([`ConvEpilogue::default`] fuses nothing). Bit-identical to running the
/// same operations as separate passes around
/// [`crate::ops_cpu::conv2d_naive`]; per-lane scratch is thread-local, the
/// output tensor is taken from `pool` and owned by the caller.
///
/// # Panics
///
/// Panics if `packed` was not packed for this convolution's geometry, or
/// a provided residual/bias does not match the output geometry.
#[must_use]
pub fn conv2d_im2col_packed_fused(
    input: &TensorData,
    params: &Conv2dParams,
    packed: &PackedFilter,
    ep: &ConvEpilogue<'_>,
    pool: &impl Arena,
) -> TensorData {
    let k_len = (input.shape.channels / params.groups) * params.kernel.0 * params.kernel.1;
    assert!(
        packed.matches(params.out_channels, params.groups, k_len),
        "packed filter geometry (out_c {}, groups {}, k {}) does not match the convolution \
         (out_c {}, groups {}, k {})",
        packed.out_channels,
        packed.groups,
        packed.k_len,
        params.out_channels,
        params.groups,
        k_len
    );
    let in_shape = input.shape;
    let mut out = ep.take_output(input, params, pool);
    let ow = out.shape.width;

    let groups = params.groups;
    let in_c_per_group = in_shape.channels / groups;
    let out_c_per_group = params.out_channels / groups;
    let (kh, kw) = params.kernel;
    let m_cols = out.shape.height * ow;
    let in_plane = in_shape.height * in_shape.width;
    // Read once, here: the lanes that run this convolution's chunks
    // dispatch at the ISA of the thread that called it.
    let isa = simd::active_isa();

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
    // (fused im2col) and streams the packed panels over it while it is
    // cache-hot. Every output element accumulates the patch values over
    // ascending k whichever chunk and whichever block width its tile falls
    // into, so the bits depend on neither. A pointwise convolution reads
    // blocks of full sub-blocks in place and needs the scratch only for a
    // ragged last one.
    let width = tile_width(isa);
    let split = TileSplit::plan(groups, out_c_per_group, m_cols, k_len, width);
    let out_view = DisjointOut::new(&mut out.data);
    let scratch_len = if pointwise && m_cols.is_multiple_of(PACK_NR) {
        0
    } else {
        k_len * width * PACK_NR
    };
    for n in 0..in_shape.batch {
        workers::parallel_for_op(split.chunks, |chunk| {
            let (chunk_groups, blocks) = split.part(chunk);
            workers::with_lane_scratch(scratch_len, |scratch| {
                for g in chunk_groups {
                    let (gep, c_start) =
                        ep.of_rows(params, n, g * out_c_per_group, out_c_per_group, m_cols);
                    let c = out_view.part(c_start, out_c_per_group * m_cols);
                    // Full-width blocks, then the chunk's last one or two
                    // sub-blocks as a narrower one.
                    for block in blocks.clone().step_by(width) {
                        let j0 = block * PACK_NR;
                        let nr = (width.min(blocks.end - block) * PACK_NR).min(m_cols - j0);
                        let (b, b_stride) = if pointwise {
                            in_place_or_edge_copy(&group_input(n, g)[j0..], m_cols, nr, scratch)
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
                                scratch,
                                ep.input_relu,
                            );
                            (&*scratch, nr.next_multiple_of(PACK_NR))
                        };
                        let block = ColumnBlock {
                            a_panels: packed.group(g),
                            m_rows: out_c_per_group,
                            k_len,
                            b,
                            b_stride,
                            j0,
                            nr,
                            m: m_cols,
                            ep: &gep,
                            c: &c,
                        };
                        at_tier(isa, &block);
                    }
                }
            });
        });
    }
    out
}

/// Columns `[0, nr)` of a `K × M` matrix as a column block the tile can
/// read (`src` starts at the block's first column, row stride
/// `src_stride`): whole sub-blocks in place, a ragged last one copied into
/// `edge` at row stride `nr` rounded up to whole sub-blocks with the tail of
/// every row zeroed. Returns the block and its row stride.
fn in_place_or_edge_copy<'a>(
    src: &'a [f32],
    src_stride: usize,
    nr: usize,
    edge: &'a mut [f32],
) -> (&'a [f32], usize) {
    if nr.is_multiple_of(PACK_NR) {
        return (src, src_stride);
    }
    let row_width = nr.next_multiple_of(PACK_NR);
    for (row, src_row) in edge.chunks_exact_mut(row_width).zip(src.chunks(src_stride)) {
        row[..nr].copy_from_slice(&src_row[..nr]);
        row[nr..].fill(0.0);
    }
    (edge, row_width)
}

/// Copies `seg.len()` input values starting at `in_row[src]` with stride
/// `sw` into `seg`, optionally applying `max(0, ·)` per value — the one
/// place im2col touches input data, so a fused input-ReLU transforms
/// exactly the values a separate activation pass would have.
#[inline]
fn fill_seg(seg: &mut [f32], in_row: &[f32], src: usize, sw: usize, input_relu: bool) {
    match (input_relu, sw) {
        (false, 1) => seg.copy_from_slice(&in_row[src..src + seg.len()]),
        (false, _) => {
            let mut ix = src;
            for s in seg {
                *s = in_row[ix];
                ix += sw;
            }
        }
        (true, 1) => {
            let row = &in_row[src..src + seg.len()];
            for (s, &v) in seg.iter_mut().zip(row) {
                *s = v.max(0.0);
            }
        }
        (true, _) => {
            let mut ix = src;
            for s in seg {
                *s = in_row[ix].max(0.0);
                ix += sw;
            }
        }
    }
}

/// Fills the head of `patches` — a `K × W` block, `K = in_c_per_group·kh·kw`
/// and `W` = `nr` rounded up to whole `PACK_NR` sub-blocks — with the im2col
/// expansion of output columns `[j0, j0 + nr)` of sample `n`, channels
/// `[c0, c0 + in_c_per_group)` — the fused-im2col building block of the
/// kernels: row `k` holds the input value kernel element `k` sees at each
/// of those output pixels (padding positions become exact `0.0`), then a
/// zero tail when the block is ragged (`nr < W`); every element of the
/// block is written. One pass builds the block at the width the tile reads,
/// so a row of a 48-column block is one run of segments, not three.
/// `input_relu` applies `max(0, ·)` to every loaded value.
#[allow(clippy::too_many_arguments)]
fn im2col_block(
    input: &TensorData,
    n: usize,
    c0: usize,
    in_c_per_group: usize,
    params: &Conv2dParams,
    ow: usize,
    j0: usize,
    nr: usize,
    patches: &mut [f32],
    input_relu: bool,
) {
    let shape = input.shape;
    let (h, w) = (shape.height, shape.width);
    let (kh, kw) = params.kernel;
    let (sh, sw) = params.stride;
    let (ph, pw) = params.padding;
    let row_width = nr.next_multiple_of(PACK_NR);

    let mut k = 0usize;
    for ic in 0..in_c_per_group {
        let plane_start = (n * shape.channels + c0 + ic) * h * w;
        let plane = &input.data[plane_start..plane_start + h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = &mut patches[k * row_width..(k + 1) * row_width];
                row[nr..].fill(0.0);
                // Valid output-x range: 0 <= x·sw + kx − pw < w.
                let (x_lo, x_hi) = valid_range(ow, sw, kx, pw, w);
                // The block's columns may span several output rows y; walk
                // them segment by segment (each segment one y).
                let (mut j, mut at) = (j0, 0usize);
                while at < nr {
                    let (y, x0) = (j / ow, j % ow);
                    let seg_len = (ow - x0).min(nr - at);
                    let seg = &mut row[at..at + seg_len];
                    let iy = (y * sh + ky) as isize - ph as isize;
                    if iy < 0 || iy >= h as isize {
                        seg.fill(0.0);
                    } else {
                        let in_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        // Clamp the globally valid x range to this segment.
                        let lo = x_lo.clamp(x0, x0 + seg_len);
                        let hi = x_hi.clamp(lo, x0 + seg_len);
                        let (a, b) = (lo - x0, hi - x0);
                        seg[..a].fill(0.0);
                        if b > a {
                            let src = ((lo * sw + kx) as isize - pw as isize) as usize;
                            fill_seg(&mut seg[a..b], in_row, src, sw, input_relu);
                        }
                        seg[b..].fill(0.0);
                    }
                    j += seg_len;
                    at += seg_len;
                }
                k += 1;
            }
        }
    }
}

/// The half-open range of output positions `x` for which
/// `0 <= x·stride + k − pad < limit`, clamped to `[0, out)`.
pub(crate) fn valid_range(
    out: usize,
    stride: usize,
    k: usize,
    pad: usize,
    limit: usize,
) -> (usize, usize) {
    let lo = if pad > k {
        (pad - k).div_ceil(stride).min(out)
    } else {
        0
    };
    // Largest x with x·stride + k − pad <= limit − 1.
    let hi = if limit + pad > k {
        (((limit + pad - k - 1) / stride) + 1).min(out)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// One column block — up to a tile's width of `PACK_NR`-wide sub-blocks — of
/// the GEMM `C[i·m + j] = Σ_k A[i][k] · B[k][j]`, pushed through the fused
/// epilogue `ep`, with `k` strictly ascending for every `(i, j)` — the
/// bit-exactness invariant.
///
/// `a_panels` is `A` in tile-major packed panels ([`PackedFilter::pack`]):
/// panel `p` holds rows `p·PACK_MR ..` as `panel[k · PACK_MR + row]`, so
/// the k loop walks one contiguous stream per panel. `b` holds B columns
/// `[j0, j0 + W)`, `W` = `nr` rounded up to whole sub-blocks, with row
/// stride `b_stride`: a view into a full `K × M` patch matrix (a pointwise
/// convolution's input planes), or a cache-resident `K × W` block built by
/// [`im2col_block`] / [`in_place_or_edge_copy`]. `c` is the full `m_rows × m`
/// output; columns `[j0, j0 + nr)` are written.
///
/// *All* weight panels stream over the same block, so the patch data stays
/// cache-hot across panels and crosses the memory hierarchy once, while the
/// packed `A` is one sequential, hardware-prefetchable stream per block.
struct ColumnBlock<'a> {
    a_panels: &'a [f32],
    m_rows: usize,
    k_len: usize,
    b: &'a [f32],
    b_stride: usize,
    j0: usize,
    nr: usize,
    m: usize,
    ep: &'a Epilogue<'a>,
    c: &'a DisjointOut<'a>,
}

/// Work written once over [`Row`] and run at a tier by [`at_tier`]. The
/// tier's registers hold `SPAN` adjacent groups of `PACK_MR` rows × `NV`
/// adjacent [`Row`]s of columns as accumulators.
trait RowKernel {
    type Out;
    /// # Safety
    ///
    /// The CPU must execute `R`'s instruction set (the [`Row`] contract).
    unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) -> Self::Out;
}

/// Runs `kernel` at tier `isa` — the one list of [`Row`] instantiations,
/// each with its tile's height and width behind its `#[target_feature]`
/// entry, that the tile, the column walk ([`tile_width`]) and the roofline
/// probe ([`mul_add_probe`]) share.
fn at_tier<K: RowKernel>(isa: Isa, kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__m256, __m512};
        #[target_feature(enable = "avx2")]
        unsafe fn avx2<K: RowKernel>(kernel: K) -> K::Out {
            // SAFETY: this function's contract — AVX2 is available.
            unsafe { kernel.run::<[__m256; 2], 1, 1>() }
        }
        #[target_feature(enable = "avx512f")]
        unsafe fn avx512<K: RowKernel>(kernel: K) -> K::Out {
            // SAFETY: this function's contract — AVX-512F is available.
            unsafe { kernel.run::<[__m512; 1], 2, 3>() }
        }
        // SAFETY: the dispatch module only selects a tier after runtime
        // feature detection (or a forced override validated against it).
        match isa {
            Isa::Avx512 => return unsafe { avx512(kernel) },
            Isa::Avx2 => return unsafe { avx2(kernel) },
            Isa::Sse2 | Isa::Scalar => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    // SAFETY: the portable row is plain Rust and runs anywhere.
    unsafe { kernel.run::<[f32; PACK_NR], 1, 1>() }
}

/// The width of tier `isa`'s register tile in `PACK_NR`-wide sub-blocks:
/// how far the column walks advance per block and how wide they build it.
fn tile_width(isa: Isa) -> usize {
    struct Width;
    impl RowKernel for Width {
        type Out = usize;
        unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) -> usize {
            NV
        }
    }
    at_tier(isa, Width)
}

impl RowKernel for &ColumnBlock<'_> {
    type Out = ();
    /// Runs the tile at the block's own width: the tier's `NV`, or fewer
    /// vectors for the last one or two sub-blocks of a chunk.
    ///
    /// # Panics
    ///
    /// Panics if the block is wider than the tier's tile.
    #[inline(always)]
    unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) {
        // SAFETY: the caller's contract, passed down.
        unsafe {
            match self.nr.div_ceil(PACK_NR) {
                1 => self.panels::<R, SPAN, 1>(),
                2 if NV >= 2 => self.panels::<R, SPAN, 2>(),
                3 if NV >= 3 => self.panels::<R, SPAN, 3>(),
                wide => panic!("a block of {wide} sub-blocks at a tile width of {NV}"),
            }
        }
    }
}

impl ColumnBlock<'_> {
    /// Streams every packed panel over the block, in tiles of `SPAN`
    /// adjacent panels; an odd trailing panel runs the same body at one.
    ///
    /// # Safety
    ///
    /// The CPU must execute `R`'s instruction set (the [`Row`] contract).
    #[inline(always)]
    unsafe fn panels<R: Row, const SPAN: usize, const NV: usize>(&self) {
        let panels = self.m_rows.div_ceil(PACK_MR);
        let mut p = 0;
        // SAFETY: the caller's contract, passed down.
        unsafe {
            while p + SPAN <= panels {
                self.tile::<R, SPAN, NV>(p);
                p += SPAN;
            }
            while p < panels {
                self.tile::<R, 1, NV>(p);
                p += 1;
            }
        }
    }

    /// The register tile — `SPAN · PACK_MR` rows × `NV` [`Row`]s of
    /// columns, starting at panel `p`. Per k step it loads `NV` adjacent
    /// `PACK_NR`-rows of `B` and broadcasts one `A` value per row from each
    /// panel's contiguous `PACK_MR`-slab, each broadcast feeding `NV`
    /// multiplies; lane `j` of row `i` receives exactly the scalar sequence
    /// `acc += a[i][k] · b[k][j]` (a multiply, then an add) over strictly
    /// ascending `k`. The full tile always runs: an edge panel's missing
    /// rows are zero weights whose accumulators are not stored, a ragged
    /// block's missing columns are a zero tail ([`store_row`] writes `nr`
    /// of them).
    ///
    /// # Safety
    ///
    /// The CPU must execute `R`'s instruction set (the [`Row`] contract).
    ///
    /// # Panics
    ///
    /// Panics if the panels or `b` are too short for the tile — the raw
    /// loads below never run against an out-of-bounds slice.
    #[inline(always)]
    unsafe fn tile<R: Row, const SPAN: usize, const NV: usize>(&self, p: usize) {
        let (k_len, b_stride) = (self.k_len, self.b_stride);
        let panel_stride = k_len * PACK_MR;
        let a = &self.a_panels[p * panel_stride..(p + SPAN) * panel_stride];
        assert!(
            k_len == 0 || self.b.len() >= (k_len - 1) * b_stride + NV * PACK_NR,
            "patch block too short"
        );
        // SAFETY: all pointer arithmetic stays inside `a` and `self.b` per
        // the slicing and the assert above (the last row's last vector ends
        // at `(k_len − 1) · b_stride + NV · PACK_NR`); `R`'s ISA is the
        // caller's contract.
        unsafe {
            let mut acc = [[[R::splat(0.0); NV]; PACK_MR]; SPAN];
            let (ap, bp) = (a.as_ptr(), self.b.as_ptr());
            for kk in 0..k_len {
                let b_k = bp.add(kk * b_stride);
                let brow: [R; NV] = std::array::from_fn(|v| R::load(b_k.add(v * PACK_NR)));
                for (s, panel_acc) in acc.iter_mut().enumerate() {
                    let a_k = ap.add(s * panel_stride + kk * PACK_MR);
                    for (i, row_acc) in panel_acc.iter_mut().enumerate() {
                        let a_ik = R::splat(*a_k.add(i));
                        // Indexed, not zipped: at `NV` 1 this is what keeps
                        // the portable row's loop the one `quant_gate` pins
                        // its int8 bar to (zipped, it compiles eight moves
                        // shorter and the bar reads 3 % lower).
                        for v in 0..NV {
                            row_acc[v] = row_acc[v].add(a_ik.mul(brow[v]));
                        }
                    }
                }
            }
            let i0 = p * PACK_MR;
            let rows = acc.as_flattened().iter().take(self.m_rows - i0);
            for (i, row_acc) in rows.enumerate() {
                for (v, &v_acc) in row_acc.iter().enumerate() {
                    let nr = PACK_NR.min(self.nr - v * PACK_NR);
                    let j0 = self.j0 + v * PACK_NR;
                    store_row(self.ep, i0 + i, j0, nr, self.m, v_acc, self.c);
                }
            }
        }
    }
}

/// `C[i·m + j] = Σ_k A[i][k] · B[k·m + j]` pushed through the fused
/// epilogue `ep` at the active tier, with `k` strictly ascending for every
/// `(i, j)`: `a_panels` is one group of a [`PackedFilter`], `b` the full
/// `k_len × m` matrix, read in place block by block like a pointwise
/// convolution's input (a ragged last block through a zero-tailed copy).
pub fn gemm_bit_exact_packed(
    m_rows: usize,
    m: usize,
    k_len: usize,
    a_panels: &[f32],
    b: &[f32],
    ep: &Epilogue<'_>,
    c: &mut [f32],
) {
    let isa = simd::active_isa();
    let c = &DisjointOut::new(c);
    let tile_cols = tile_width(isa) * PACK_NR;
    let ragged = !m.is_multiple_of(PACK_NR);
    let mut edge = vec![0.0f32; if ragged { k_len * tile_cols } else { 0 }];
    for j0 in (0..m).step_by(tile_cols) {
        let nr = tile_cols.min(m - j0);
        let (block, b_stride) = in_place_or_edge_copy(&b[j0..], m, nr, &mut edge);
        let block = ColumnBlock {
            a_panels,
            m_rows,
            k_len,
            b: block,
            b_stride,
            j0,
            nr,
            m,
            ep,
            c,
        };
        at_tier(isa, &block);
    }
}

/// The roofline probe of the f32 tile: as many independent `acc += x · y`
/// row chains as the tier's tile holds accumulator rows — a multiply, then
/// an add, never fused — for `steps` steps from registers and L1. One
/// chain per row whatever the tile's width `NV`: eight chains already keep
/// two ports busy through a four-cycle latency, so the ceiling is the
/// hardware's and does not move when the tile is widened.
struct MulAddChains {
    steps: usize,
}

impl RowKernel for MulAddChains {
    /// FLOPs executed.
    type Out = u64;
    #[inline(always)]
    unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) -> u64 {
        // `y` cycles through an L1-resident table the compiler cannot see
        // through, so no product is hoisted out of the loop; every chain has
        // a factor of its own, so none is shared between chains.
        let table: [[f32; PACK_NR]; 16] =
            std::array::from_fn(|t| std::array::from_fn(|j| 1.0 + (t * PACK_NR + j) as f32 * 1e-4));
        let table = std::hint::black_box(&table);
        // SAFETY: every load reads one `PACK_NR`-row of `table`, every store
        // writes the `PACK_NR`-value stack array; `R`'s ISA is the caller's
        // contract.
        unsafe {
            let xs: [[R; PACK_MR]; SPAN] = std::array::from_fn(|s| {
                std::array::from_fn(|i| R::splat(1.0 + (s * PACK_MR + i) as f32 * 1e-4))
            });
            let mut acc = [[R::splat(0.0); PACK_MR]; SPAN];
            for step in 0..self.steps {
                let y = R::load(table[step % 16].as_ptr());
                for (a, &x) in acc.as_flattened_mut().iter_mut().zip(xs.as_flattened()) {
                    *a = a.add(x.mul(y));
                }
            }
            for a in acc.as_flattened() {
                let mut lanes = [0.0f32; PACK_NR];
                a.store(lanes.as_mut_ptr());
                std::hint::black_box(lanes);
            }
        }
        (self.steps * SPAN * PACK_MR * PACK_NR * 2) as u64
    }
}

/// Runs the f32 tile's arithmetic — independent row-wide `mul` + `add`
/// chains, one per accumulator row of tier `isa`'s tile (`SPAN · PACK_MR`,
/// not one per accumulator: the tile's width adds no chains), through the
/// same vector-row instantiation the tile uses — for `steps` steps with no
/// memory traffic beyond L1, and returns the FLOPs executed. Timing it
/// gives the no-FMA ceiling the bit-exact contract allows the tile at that
/// tier. At an explicit-vector tier that is the hardware's `mul` + `add`
/// rate (eight vector accumulators keep both ports busy); below AVX2 the row is sixteen
/// scalars and the probe times what the compiler makes of the same four
/// rows — sixteen SSE accumulators, every register that tier has — so it
/// reads the portable tile's own arithmetic rate, not the 4-lane ceiling.
///
/// # Panics
///
/// Panics if `isa` is wider than the host executes.
#[must_use]
pub fn mul_add_probe(isa: Isa, steps: usize) -> u64 {
    assert!(
        isa <= simd::detected_isa(),
        "{isa} does not run on this host"
    );
    at_tier(isa, MulAddChains { steps })
}

// ---------------------------------------------------------------------------
// Int8 quantized path
// ---------------------------------------------------------------------------

/// A convolution filter quantized to int8 with per-output-channel
/// symmetric scales, packed into the pair-interleaved panel layout of the
/// integer microkernel.
///
/// Like [`PackedFilter`], each group's weight rows are split into panels
/// of `PACK_MR` output channels — but the k dimension is walked in
/// *pairs* (zero-padded to even length) and each panel stores
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
    /// i8 elements per panel: `pairs · PACK_MR · 2`.
    panel_stride: usize,
    /// i8 elements per group.
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
        let pairs = k_len.div_ceil(2);
        let panel_stride = pairs * PACK_MR * 2;
        let group_stride = panels_per_group * panel_stride;
        let mut scales = vec![0.0f32; out_channels];
        for (oc, s) in scales.iter_mut().enumerate() {
            let row = &weights[oc * k_len..(oc + 1) * k_len];
            let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            *s = quantization_scale(max_abs);
        }
        let mut data = vec![0i8; groups * group_stride];
        for g in 0..groups {
            for p in 0..panels_per_group {
                let rows = PACK_MR.min(rows_per_group - p * PACK_MR);
                let panel = &mut data[g * group_stride + p * panel_stride..][..panel_stride];
                for r in 0..rows {
                    let oc = g * rows_per_group + p * PACK_MR + r;
                    let row = &weights[oc * k_len..(oc + 1) * k_len];
                    let scale = scales[oc];
                    for (k, &w) in row.iter().enumerate() {
                        let q = quantize_value(w, scale) as i8;
                        panel[(k / 2) * PACK_MR * 2 + r * 2 + (k & 1)] = q;
                    }
                }
            }
        }
        QuantizedFilter {
            data,
            scales,
            out_channels,
            groups,
            k_len,
            pairs,
            panel_stride,
            group_stride,
        }
    }

    /// Whether this filter was quantized for the given geometry.
    #[must_use]
    pub fn matches(&self, out_channels: usize, groups: usize, k_len: usize) -> bool {
        self.out_channels == out_channels && self.groups == groups && self.k_len == k_len
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
        let rows_per_group = self.out_channels / self.groups;
        let (g, r) = (oc / rows_per_group, oc % rows_per_group);
        let (p, lane) = (r / PACK_MR, r % PACK_MR);
        self.data[g * self.group_stride
            + p * self.panel_stride
            + (k / 2) * PACK_MR * 2
            + lane * 2
            + (k & 1)]
    }

    /// The packed pair-interleaved panels of group `g`.
    fn group(&self, g: usize) -> &[i8] {
        &self.data[g * self.group_stride..(g + 1) * self.group_stride]
    }

    /// Bytes held by the quantized weights + scales — the weight-cache
    /// footprint this filter contributes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Number of logical weight parameters (`out_channels · k_len`).
    #[must_use]
    pub fn num_weights(&self) -> usize {
        self.out_channels * self.k_len
    }
}

/// The symmetric quantization scale for values with the given maximum
/// absolute value: `maxabs / 127`, or `1.0` when everything is zero (any
/// scale represents zeros exactly). Shared by the kernel, the weight
/// packer and the naive oracle so the three can never drift.
#[must_use]
pub fn quantization_scale(max_abs: f32) -> f32 {
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
pub fn quantize_value(v: f32, scale: f32) -> i16 {
    let t = v * (1.0 / scale);
    let r = (t + 0.5f32.copysign(t)) as i32;
    r.clamp(-127, 127) as i16
}

/// Dequantizes an i32 accumulator: `acc · (input_scale · weight_scale)`.
/// The scale product is formed first, then applied in one multiply —
/// kernel and oracle share this exact expression, so requantized outputs
/// are byte-identical.
#[must_use]
pub fn requantize(acc: i32, input_scale: f32, weight_scale: f32) -> f32 {
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

/// Int8 quantized convolution: per-sample dynamic input scales, `i32`
/// accumulation through `pmaddwd`-shaped kernels, requantize in the tile
/// writeback, with a fused epilogue (input-ReLU, bias, residual,
/// output-ReLU; [`ConvEpilogue::default`] fuses nothing). The epilogue's
/// float operations happen *after* requantization, in the same
/// [`store_row`] the f32 kernel uses. Byte-identical to
/// [`crate::ops_cpu::conv2d_naive_quant`] on every ISA path.
///
/// # Panics
///
/// Panics if `quant` was not quantized for this convolution's geometry,
/// or a provided residual/bias does not match the output geometry.
#[must_use]
pub fn conv2d_im2col_quant_fused(
    input: &TensorData,
    params: &Conv2dParams,
    quant: &QuantizedFilter,
    ep: &ConvEpilogue<'_>,
    pool: &impl Arena,
) -> TensorData {
    let in_shape = input.shape;
    let k_len = (in_shape.channels / params.groups) * params.kernel.0 * params.kernel.1;
    assert!(
        quant.matches(params.out_channels, params.groups, k_len),
        "quantized filter geometry (out_c {}, groups {}, k {}) does not match the convolution \
         (out_c {}, groups {}, k {})",
        quant.out_channels,
        quant.groups,
        quant.k_len,
        params.out_channels,
        params.groups,
        k_len
    );
    let mut out = ep.take_output(input, params, pool);
    let ow = out.shape.width;

    let groups = params.groups;
    let in_c_per_group = in_shape.channels / groups;
    let out_c_per_group = params.out_channels / groups;
    let m_cols = out.shape.height * ow;
    let pairs = quant.pairs;
    let isa = simd::active_isa();
    let per_item = in_shape.elements_per_item();
    // The integer tile is one sub-block wide.
    let split = TileSplit::plan(groups, out_c_per_group, m_cols, k_len, 1);
    let out_view = DisjointOut::new(&mut out.data);
    // Per lane: an f32 staging block (the same fused im2col the f32 path
    // uses) followed by the i16 pair-interleaved quantized block, carved
    // out of one f32 scratch buffer — see [`as_i16_mut`].
    let staging = k_len * PACK_NR;

    for n in 0..in_shape.batch {
        let s_in = sample_scale(&input.data[n * per_item..(n + 1) * per_item], ep.input_relu);
        workers::parallel_for_op(split.chunks, |chunk| {
            let (chunk_groups, blocks) = split.part(chunk);
            workers::with_lane_scratch(staging + pairs * PACK_NR, |scratch| {
                let (fblock, qbuf) = scratch.split_at_mut(staging);
                let qblock = as_i16_mut(qbuf);
                for g in chunk_groups {
                    let oc0 = g * out_c_per_group;
                    let scales_g = &quant.scales[oc0..oc0 + out_c_per_group];
                    let (gep, c_start) = ep.of_rows(params, n, oc0, out_c_per_group, m_cols);
                    let c = out_view.part(c_start, out_c_per_group * m_cols);
                    for block in blocks.clone() {
                        let j0 = block * PACK_NR;
                        let nr = PACK_NR.min(m_cols - j0);
                        im2col_block(
                            input,
                            n,
                            g * in_c_per_group,
                            in_c_per_group,
                            params,
                            ow,
                            j0,
                            nr,
                            fblock,
                            ep.input_relu,
                        );
                        quantize_block(fblock, k_len, s_in, qblock);
                        quant_panels_over_block(
                            quant.group(g),
                            out_c_per_group,
                            pairs,
                            qblock,
                            m_cols,
                            j0,
                            nr,
                            s_in,
                            scales_g,
                            &gep,
                            isa,
                            &c,
                        );
                    }
                }
            });
        });
    }
    out
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

/// Quantizes a `K × PACK_NR` f32 im2col block into the pair-interleaved
/// i16 layout the integer microkernel reads:
/// `q[(k/2) · PACK_NR·2 + j·2 + (k&1)]`. A ragged block's zero tail
/// quantizes to zeros and the odd-k pad slot is zeroed — both contribute
/// exact `0` to every i32 sum.
fn quantize_block(fblock: &[f32], k_len: usize, scale: f32, q: &mut [i16]) {
    if k_len & 1 == 1 {
        // Every slot is written below except the odd-k pad lane of the
        // final pair.
        let last = (k_len / 2) * (PACK_NR * 2);
        q[last..last + PACK_NR * 2].fill(0);
    }
    let mut tmp = [0i16; PACK_NR];
    for (k, row) in fblock.chunks_exact(PACK_NR).enumerate() {
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

/// Streams every quantized panel over one pair-interleaved column block,
/// requantizing each finished tile row and storing it through the shared
/// f32 epilogue. Overflow-safe: each pair contributes `≤ 2 · 127²` per
/// lane, so `i32` holds any `k_len < 2¹⁷` exactly.
#[allow(clippy::too_many_arguments)]
fn quant_panels_over_block(
    a_panels: &[i8],
    m_rows: usize,
    pairs: usize,
    b_block: &[i16],
    m: usize,
    j0: usize,
    nr: usize,
    in_scale: f32,
    scales: &[f32],
    ep: &Epilogue<'_>,
    isa: Isa,
    c: &DisjointOut<'_>,
) {
    let panel_stride = pairs * PACK_MR * 2;
    let mut i0 = 0;
    let mut p = 0;
    let mut lane = [0.0f32; PACK_NR];
    while i0 < m_rows {
        let mr = PACK_MR.min(m_rows - i0);
        let panel = &a_panels[p * panel_stride..(p + 1) * panel_stride];
        let mut acc = [0i32; PACK_MR * PACK_NR];
        quant_tile(panel, pairs, b_block, &mut acc, isa);
        for (i, acc_row) in acc.chunks_exact(PACK_NR).enumerate().take(mr) {
            let row = i0 + i;
            for (l, &a) in lane.iter_mut().zip(acc_row) {
                *l = requantize(a, in_scale, scales[row]);
            }
            // SAFETY: the portable row is plain Rust and runs anywhere.
            unsafe { store_row(ep, row, j0, nr, m, lane, c) };
        }
        i0 += PACK_MR;
        p += 1;
    }
}

/// One `PACK_MR × PACK_NR` integer tile: dispatches to the tier
/// [`simd::executed_isa`] maps the active one to (there is no int8 tile
/// wider than AVX2). All variants compute the *same* i32 sums — integer
/// addition is associative — so the result is byte-identical regardless
/// of which one runs.
#[inline]
fn quant_tile(panel: &[i8], pairs: usize, b: &[i16], acc: &mut [i32; PACK_MR * PACK_NR], isa: Isa) {
    #[cfg(target_arch = "x86_64")]
    {
        match simd::executed_isa(KernelPath::Int8, isa) {
            // SAFETY: the AVX2 variant only runs after the dispatch
            // module's runtime feature check (or a forced override
            // validated against it) passed.
            Isa::Avx2 => unsafe { quant_tile_avx2(panel, pairs, b, acc) },
            Isa::Sse2 => quant_tile_sse2(panel, pairs, b, acc),
            Isa::Scalar => quant_tile_scalar(panel, pairs, b, acc),
            Isa::Avx512 => unreachable!("the int8 path executes at most AVX2"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        quant_tile_scalar(panel, pairs, b, acc);
    }
}

/// Scalar reference tile — the integer sums every SIMD variant must match
/// exactly. For each output `(row, j)` the accumulator gains
/// `a[pair][row][0]·b[pair][j][0] + a[pair][row][1]·b[pair][j][1]` over
/// ascending pairs, all in i32.
fn quant_tile_scalar(panel: &[i8], pairs: usize, b: &[i16], acc: &mut [i32; PACK_MR * PACK_NR]) {
    for pr in 0..pairs {
        let a_pair = &panel[pr * PACK_MR * 2..(pr + 1) * PACK_MR * 2];
        let b_pair = &b[pr * PACK_NR * 2..(pr + 1) * PACK_NR * 2];
        for i in 0..PACK_MR {
            let a0 = i32::from(a_pair[i * 2]);
            let a1 = i32::from(a_pair[i * 2 + 1]);
            let lane = &mut acc[i * PACK_NR..(i + 1) * PACK_NR];
            for (j, l) in lane.iter_mut().enumerate() {
                *l += a0 * i32::from(b_pair[j * 2]) + a1 * i32::from(b_pair[j * 2 + 1]);
            }
        }
    }
}

/// The bounds the explicit-SIMD integer tiles read through raw pointers:
/// checked once per tile, outside the pair loop, in every build.
#[cfg(target_arch = "x86_64")]
fn assert_quant_tile_bounds(panel: &[i8], pairs: usize, b: &[i16]) {
    assert!(panel.len() >= pairs * PACK_MR * 2, "int8 panel too short");
    assert!(b.len() >= pairs * PACK_NR * 2, "quantized block too short");
}

/// SSE2 `pmaddwd` tile. SSE2 is unconditionally available on x86_64, so
/// this is the portable floor of the integer path.
///
/// # Panics
///
/// Panics unless `panel` holds `pairs · PACK_MR · 2` i8 and `b` holds
/// `pairs · PACK_NR · 2` i16 — the raw loads below never run against an
/// out-of-bounds slice.
#[cfg(target_arch = "x86_64")]
fn quant_tile_sse2(panel: &[i8], pairs: usize, b: &[i16], acc: &mut [i32; PACK_MR * PACK_NR]) {
    use std::arch::x86_64::*;
    assert_quant_tile_bounds(panel, pairs, b);
    // 4 × 16 i32 accumulators would need 16 xmm registers and spill, so
    // the 16 columns are walked in two halves of 8.
    // SAFETY: SSE2 is part of the x86_64 baseline; all pointer arithmetic
    // stays inside the slices per the assert above; loads/stores are
    // explicitly unaligned.
    unsafe {
        for half in 0..2 {
            let mut accv = [[_mm_setzero_si128(); 2]; PACK_MR];
            for pr in 0..pairs {
                let bp = b.as_ptr().add(pr * PACK_NR * 2 + half * 16);
                let b0 = _mm_loadu_si128(bp.cast());
                let b1 = _mm_loadu_si128(bp.add(8).cast());
                let ap = panel.as_ptr().add(pr * PACK_MR * 2);
                for (i, accr) in accv.iter_mut().enumerate() {
                    let a0 = *ap.add(i * 2) as i16 as u16 as u32;
                    let a1 = *ap.add(i * 2 + 1) as i16 as u16 as u32;
                    // Broadcast the (a0, a1) pair into every 32-bit lane;
                    // pmaddwd then yields a0·b[j][0] + a1·b[j][1] per lane.
                    let aa = _mm_set1_epi32(((a1 << 16) | a0) as i32);
                    accr[0] = _mm_add_epi32(accr[0], _mm_madd_epi16(aa, b0));
                    accr[1] = _mm_add_epi32(accr[1], _mm_madd_epi16(aa, b1));
                }
            }
            for (i, accr) in accv.iter().enumerate() {
                let out = acc.as_mut_ptr().add(i * PACK_NR + half * 8);
                _mm_storeu_si128(out.cast(), accr[0]);
                _mm_storeu_si128(out.add(4).cast(), accr[1]);
            }
        }
    }
}

/// AVX2 `vpmaddwd` tile: the full 4 × 16 i32 tile lives in 8 ymm
/// accumulators. Same integer sums as the SSE2 and scalar variants.
///
/// # Safety
///
/// AVX2 must be available (runtime-checked by the caller).
///
/// # Panics
///
/// Panics on the slice bounds [`quant_tile_sse2`] checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quant_tile_avx2(
    panel: &[i8],
    pairs: usize,
    b: &[i16],
    acc: &mut [i32; PACK_MR * PACK_NR],
) {
    use std::arch::x86_64::*;
    assert_quant_tile_bounds(panel, pairs, b);
    // SAFETY: pointer arithmetic stays inside the slices per the assert
    // above; loads/stores are explicitly unaligned.
    unsafe {
        let mut accv = [[_mm256_setzero_si256(); 2]; PACK_MR];
        for pr in 0..pairs {
            let bp = b.as_ptr().add(pr * PACK_NR * 2);
            let b0 = _mm256_loadu_si256(bp.cast());
            let b1 = _mm256_loadu_si256(bp.add(16).cast());
            let ap = panel.as_ptr().add(pr * PACK_MR * 2);
            for (i, accr) in accv.iter_mut().enumerate() {
                let a0 = *ap.add(i * 2) as i16 as u16 as u32;
                let a1 = *ap.add(i * 2 + 1) as i16 as u16 as u32;
                let aa = _mm256_set1_epi32(((a1 << 16) | a0) as i32);
                accr[0] = _mm256_add_epi32(accr[0], _mm256_madd_epi16(aa, b0));
                accr[1] = _mm256_add_epi32(accr[1], _mm256_madd_epi16(aa, b1));
            }
        }
        for (i, accr) in accv.iter().enumerate() {
            let out = acc.as_mut_ptr().add(i * PACK_NR);
            _mm256_storeu_si256(out.cast(), accr[0]);
            _mm256_storeu_si256(out.add(8).cast(), accr[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ScratchPool;
    use crate::ops_cpu::conv2d_naive;

    /// `sin`/`cos`-filled GEMM operands: `A` is `m_rows × k_len`, `B` is
    /// `k_len × m`.
    fn operands(m_rows: usize, m: usize, k_len: usize) -> (Vec<f32>, Vec<f32>) {
        let a = (0..m_rows * k_len).map(|i| (i as f32).sin()).collect();
        let b = (0..k_len * m).map(|i| (i as f32).cos()).collect();
        (a, b)
    }

    #[test]
    fn packed_gemm_matches_scalar_reference() {
        // Row counts around the PACK_MR boundary, column counts around
        // PACK_NR (full and edge tiles), including a single-row
        // (depthwise-like) matrix.
        for &(m_rows, m, k_len) in &[
            (7usize, 23usize, 11usize),
            (6, 16, 4),
            (13, 33, 7),
            (1, 5, 3),
            (12, 48, 9),
        ] {
            let (a, b) = operands(m_rows, m, k_len);
            let packed = PackedFilter::pack(&a, m_rows, 1, k_len);
            let mut c = vec![0.0f32; m_rows * m];
            gemm_bit_exact_packed(
                m_rows,
                m,
                k_len,
                packed.group(0),
                &b,
                &Epilogue::NONE,
                &mut c,
            );
            for i in 0..m_rows {
                for j in 0..m {
                    let mut acc = 0.0f32;
                    for kk in 0..k_len {
                        acc += a[i * k_len + kk] * b[kk * m + j];
                    }
                    assert_eq!(
                        c[i * m + j],
                        acc,
                        "{m_rows}x{m} (k {k_len}) must be bit-identical"
                    );
                }
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
        assert!(packed.matches(out_c, groups, k_len));
        let rows_per_group = out_c / groups;
        for g in 0..groups {
            let panels = packed.group(g);
            for r in 0..rows_per_group {
                let (p, lane) = (r / PACK_MR, r % PACK_MR);
                for k in 0..k_len {
                    let oc = g * rows_per_group + r;
                    assert_eq!(
                        panels[p * packed.panel_stride + k * PACK_MR + lane],
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
            let packed_out = conv2d_im2col_packed_fused(
                &input,
                params,
                &packed,
                &ConvEpilogue::default(),
                &pool,
            );
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
        let fused = conv2d_im2col_packed_fused(&input, &params, &packed, &ep, &pool);
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
            let fused = conv2d_im2col_packed_fused(&input, &params, &packed, &ep, &pool);
            assert_eq!(fused, conv2d_naive(&activated, &params, &weights));
        }
    }

    #[test]
    fn quantized_filter_weight_accessor_reads_back_every_weight() {
        // weight(oc, k) must see exactly round(w/scale) for every position
        // across groups and ragged panel edges.
        let (out_c, groups, k_len) = (10usize, 2usize, 5usize);
        let weights: Vec<f32> = (0..out_c * k_len)
            .map(|i| ((i as f32) * 0.37).sin() * 3.0)
            .collect();
        let quant = QuantizedFilter::quantize(&weights, out_c, groups, k_len);
        assert!(quant.matches(out_c, groups, k_len));
        assert_eq!(quant.num_weights(), out_c * k_len);
        for oc in 0..out_c {
            let scale = quant.scales()[oc];
            for k in 0..k_len {
                let expect = quantize_value(weights[oc * k_len + k], scale) as i8;
                assert_eq!(quant.weight(oc, k), expect, "oc {oc} k {k}");
            }
        }
    }

    #[test]
    fn quant_tile_isa_variants_agree_with_scalar() {
        // The SSE2 and (when available) AVX2 tiles must produce the exact
        // i32 sums of the scalar reference — the byte-identity contract's
        // foundation.
        for pairs in [1usize, 3, 7, 288] {
            let panel: Vec<i8> = (0..pairs * PACK_MR * 2)
                .map(|i| ((i * 37 + 11) % 255) as i8)
                .collect();
            let b: Vec<i16> = (0..pairs * PACK_NR * 2)
                .map(|i| (((i * 73 + 5) % 255) as i16) - 127)
                .collect();
            let mut want = [0i32; PACK_MR * PACK_NR];
            quant_tile_scalar(&panel, pairs, &b, &mut want);
            #[cfg(target_arch = "x86_64")]
            {
                let mut got = [0i32; PACK_MR * PACK_NR];
                quant_tile_sse2(&panel, pairs, &b, &mut got);
                assert_eq!(got, want, "sse2 must match scalar at {pairs} pairs");
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut got = [0i32; PACK_MR * PACK_NR];
                    // SAFETY: AVX2 just detected.
                    unsafe { quant_tile_avx2(&panel, pairs, &b, &mut got) };
                    assert_eq!(got, want, "avx2 must match scalar at {pairs} pairs");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_tiles_panic_on_a_short_b_slice_instead_of_reading_past_it() {
        // The tiles load through raw pointers; a `b` one element short of
        // the tile — of its last vector's last row — must be refused by a
        // check that is still there in release builds: by every
        // instantiation of the generic f32 body the dispatch can reach
        // (each supported tier at 4 rows, one panel, and at 8 — the AVX-512
        // tile spans two — at every block width up to the tier's) and by
        // the explicit int8 tiles.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let k_len = 9usize;
        for isa in simd::supported_isas() {
            for wide in 1..=tile_width(isa) {
                let row_width = wide * PACK_NR;
                let short_block = vec![1.0f32; k_len * row_width - 1];
                for m_rows in [PACK_MR, 2 * PACK_MR] {
                    let a_panels = vec![1.0f32; k_len * m_rows];
                    let mut c = vec![0.0f32; m_rows * row_width];
                    let f32_tile = catch_unwind(AssertUnwindSafe(|| {
                        let block = ColumnBlock {
                            a_panels: &a_panels,
                            m_rows,
                            k_len,
                            b: &short_block,
                            b_stride: row_width,
                            j0: 0,
                            nr: row_width,
                            m: row_width,
                            ep: &Epilogue::NONE,
                            c: &DisjointOut::new(&mut c),
                        };
                        at_tier(isa, &block);
                    }));
                    assert!(
                        f32_tile.is_err(),
                        "the {m_rows}-row, {wide}-vector f32 tile must refuse a short block on {isa}"
                    );
                }
            }
        }

        let pairs = 5usize;
        let panel = vec![1i8; pairs * PACK_MR * 2];
        let short_b = vec![1i16; pairs * PACK_NR * 2 - 1];
        let mut acc = [0i32; PACK_MR * PACK_NR];
        let sse2 = catch_unwind(AssertUnwindSafe(|| {
            quant_tile_sse2(&panel, pairs, &short_b, &mut acc);
        }));
        assert!(sse2.is_err(), "quant_tile_sse2 must refuse a short block");
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let avx2 = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: AVX2 just detected.
            unsafe { quant_tile_avx2(&panel, pairs, &short_b, &mut acc) };
        }));
        assert!(avx2.is_err(), "quant_tile_avx2 must refuse a short block");
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
        // Every instantiation of the tile body the host can run must
        // produce bit-identical results to the scalar tier through every
        // epilogue combination — the f32 mirror of
        // `quant_tile_isa_variants_agree_with_scalar`.
        let supported = simd::supported_isas();
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
            let (a, b) = operands(m_rows, m, k_len);
            let bias: Vec<f32> = (0..m_rows).map(|i| (i as f32 * 0.7).tan()).collect();
            let residual: Vec<f32> = (0..m_rows * m).map(|i| (i as f32 * 1.3).sin()).collect();
            let packed = PackedFilter::pack(&a, m_rows, 1, k_len);
            for ep_case in 0..4 {
                let ep = Epilogue {
                    bias: (ep_case & 1 != 0).then_some(&bias[..]),
                    residual: (ep_case & 2 != 0).then_some(&residual[..]),
                    relu: ep_case != 0,
                };
                let run = |isa: Isa| {
                    simd::with_forced_isa(isa, || {
                        let mut c = vec![0.0f32; m_rows * m];
                        gemm_bit_exact_packed(m_rows, m, k_len, packed.group(0), &b, &ep, &mut c);
                        c
                    })
                };
                let want = run(Isa::Scalar);
                for &isa in &supported[1..] {
                    assert_eq!(
                        run(isa),
                        want,
                        "{m_rows}x{m} (k {k_len}, ep {ep_case}) must be bit-identical on {isa}"
                    );
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
                    conv2d_im2col_packed_fused(
                        &input,
                        &params,
                        &packed,
                        &ConvEpilogue::default(),
                        &pool,
                    )
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
