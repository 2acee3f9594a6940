//! The row traits ([`Row`], [`IntRow`]), instantiated per tier in one list
//! ([`at_tier`]) and selected per call through [`crate::simd`], and three
//! bodies written once over them: the GEMM's f32 and integer register tiles
//! and the pooling window (`ops_cpu`). Every f32 row gives each output the same
//! fused multiply-add — `acc = fma(a, b, acc)`, one rounding per MAC — over
//! strictly ascending `k`, and every integer row the same `i32` sums, so the
//! tier is invisible in the output. Below AVX2 no instruction fuses: the
//! portable row calls libm's `fmaf` per lane, and the scalar / SSE2 tiers
//! are exact-but-slow *reference* tiers.
//! There is no edge tile: a ragged sub-block is built with a zero tail, an
//! edge panel carries zero rows, and only the *store* is partial.

use crate::epilogue::{store_row, ConvEpilogue};
use crate::quant::requantize;
use crate::simd::{self, Isa};
use crate::workers::DisjointOut;

/// Output-channel rows per packed panel: the tile-major layout feeds the
/// microkernel one contiguous `PACK_MR`-wide slab per k step. 4 rows × 2
/// accumulator vectors + 2 patch vectors + 1 broadcast fit the 16 AVX2
/// registers (6 or 8 rows spill there); the AVX-512 tile spans two adjacent
/// panels and three [`Row`]s — 24 + 3 + 1 of its 32 registers.
pub(crate) const PACK_MR: usize = 4;
/// Output-pixel columns per [`Row`] (two 8-lane vectors on AVX2, one
/// 16-lane vector on AVX-512) — the sub-block every column walk, chunk cut
/// and partial store counts in. A tier's f32 register tile is `NV` of them
/// wide ([`at_tier`]); the integer tile is always one.
pub(crate) const PACK_NR: usize = 16;

/// One row of an f32 register tile: `PACK_NR` = 16 adjacent output columns
/// held in whatever registers a tier has. The tile body and the epilogue
/// store are written once over this trait; a tier is an implementation plus
/// a `#[target_feature]` entry ([`at_tier`]).
///
/// `acc.mul_add(a, b)` is the one multiply-accumulate of the convolution
/// path: `fma(a, b, acc)`, the exact product added to `acc` and rounded
/// once — `f32::mul_add`, `vfmadd231ps` — on every implementation and in
/// [`crate::ops_cpu::conv2d_naive`], so all tiers produce the same bits.
/// `add` and `div` are the epilogue's and the average pool's. `a.max(b)` is
/// `if a > b { a } else { b }` — `vmaxps`'s order, spelled out in the
/// portable row, where `f32::max` leaves a zero tie open: a NaN or tied `a`
/// yields `b`. So `max(v, +0.0)` is `+0.0` for NaN and `-0.0`, and the max
/// pool's `tap.max(acc)` keeps `acc` — `f32::max(acc, tap)` as it compiles.
///
/// # Safety
///
/// The methods of an implementation may only run on a CPU that executes
/// the implementing type's instruction set; `load` reads and `store`
/// writes `PACK_NR` consecutive `f32` (unaligned) at the given pointer.
pub(crate) trait Row: Copy {
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(src: *const f32) -> Self;
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn div(self, o: Self) -> Self;
    unsafe fn max(self, o: Self) -> Self;
    unsafe fn store(self, dst: *mut f32);
}

/// Implements [`Row`] as `PACK_NR / $lanes` vectors of `$lanes` lanes from
/// the vector type's elementwise operations.
macro_rules! row_of {
    ($v:ty, $lanes:literal, $splat:expr, $load:expr, $fma:expr, $store:expr, $($op:ident: $f:expr),+) => {
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
            unsafe fn mul_add(self, a: Self, b: Self) -> Self {
                unsafe { std::array::from_fn(|h| $fma(a[h], b[h], self[h])) }
            }
            $(
                #[inline(always)]
                unsafe fn $op(self, o: Self) -> Self {
                    unsafe { std::array::from_fn(|h| $f(self[h], o[h])) }
                }
            )+
            #[inline(always)]
            unsafe fn store(self, dst: *mut f32) {
                for (h, v) in self.into_iter().enumerate() {
                    unsafe { $store(dst.add(h * $lanes), v) };
                }
            }
        }
    };
}

/// One accumulator row of the integer tile: `COLS` adjacent output columns
/// as `i32` lanes. The patch block and the broadcast weights reach it as
/// `(k, k + 1)` pairs of 16-bit values, one pair per lane, and
/// [`madd_acc`](IntRow::madd_acc) is `pmaddwd` + `paddd`: each lane gains
/// `a.lo · b.lo + a.hi · b.hi` in `i32`. Every implementation computes
/// those exact integers, so which one runs is invisible in the output.
///
/// # Safety
///
/// The methods may only run on a CPU that executes `TIER`; `load` reads
/// `COLS` pairs (`2 · COLS` unaligned `i16`), `store` writes `COLS` `i32`.
pub(crate) trait IntRow: Copy {
    /// Output columns per row; the tile walks `PACK_NR` of them in
    /// `PACK_NR / COLS` passes (SSE2's 4 × 16 accumulators would spill).
    const COLS: usize;
    /// The tier whose instructions the row executes.
    const TIER: Isa;
    unsafe fn load(src: *const i16) -> Self;
    unsafe fn pair_splat(a0: i8, a1: i8) -> Self;
    unsafe fn madd_acc(self, a: Self, b: Self) -> Self;
    unsafe fn store(self, dst: *mut i32);
}

/// Two 16-bit values as the 32-bit lane `pmaddwd` reads them.
#[inline(always)]
fn pair(lo: i16, hi: i16) -> i32 {
    ((hi as u16 as u32) << 16 | lo as u16 as u32) as i32
}

/// Implements [`IntRow`] as `$n` vectors of `$lanes` `i32` lanes.
macro_rules! int_row_of {
    ($v:ty, $n:literal, $lanes:literal, $tier:expr, $load:expr, $splat:expr, $madd_acc:expr, $store:expr) => {
        // SAFETY (every block below): the `IntRow` contract, as for `Row`.
        #[allow(unused_unsafe)]
        impl IntRow for [$v; $n] {
            const COLS: usize = $n * $lanes;
            const TIER: Isa = $tier;
            #[inline(always)]
            unsafe fn load(src: *const i16) -> Self {
                unsafe { std::array::from_fn(|h| $load(src.add(h * $lanes * 2))) }
            }
            #[inline(always)]
            unsafe fn pair_splat(a0: i8, a1: i8) -> Self {
                unsafe { [$splat(pair(a0.into(), a1.into())); $n] }
            }
            #[inline(always)]
            unsafe fn madd_acc(self, a: Self, b: Self) -> Self {
                unsafe { std::array::from_fn(|h| $madd_acc(self[h], a[h], b[h])) }
            }
            #[inline(always)]
            unsafe fn store(self, dst: *mut i32) {
                for (h, v) in self.into_iter().enumerate() {
                    unsafe { $store(dst.add(h * $lanes), v) };
                }
            }
        }
    };
}

// The portable row of the scalar and SSE2 tiers: sixteen plain floats, each
// `f32::mul_add` a call to libm's exact `fmaf` on x86-64 (an FMA on aarch64).
row_of!(
    f32,
    1,
    std::convert::identity,
    |p: *const f32| p.read(),
    f32::mul_add,
    |p: *mut f32, v: f32| p.write(v),
    add: |a: f32, b: f32| a + b,
    div: |a: f32, b: f32| a / b,
    max: |a: f32, b: f32| if a > b { a } else { b }
);

// The portable integer row — the sums every explicit row must match.
int_row_of!(
    i32,
    16,
    1,
    Isa::Scalar,
    |p: *const i16| pair(p.read_unaligned(), p.add(1).read_unaligned()),
    std::convert::identity,
    |acc: i32, a: i32, b: i32| acc + (a as i16 as i32) * (b as i16 as i32) + (a >> 16) * (b >> 16),
    |p: *mut i32, v: i32| p.write_unaligned(v)
);

#[cfg(target_arch = "x86_64")]
mod x86_rows {
    use super::{pair, IntRow, Isa, Row, PACK_NR};
    use std::arch::x86_64::*;
    // AVX2 + FMA: two 8-lane vectors.
    row_of!(
        __m256,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_fmadd_ps,
        _mm256_storeu_ps,
        add: _mm256_add_ps, div: _mm256_div_ps, max: _mm256_max_ps
    );
    // AVX-512F: one 16-lane vector.
    row_of!(
        __m512,
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_fmadd_ps,
        _mm512_storeu_ps,
        add: _mm512_add_ps, div: _mm512_div_ps, max: _mm512_max_ps
    );
    // SSE2 `pmaddwd`: eight columns, so the tile takes two passes.
    int_row_of!(
        __m128i,
        2,
        4,
        Isa::Sse2,
        |p: *const i16| _mm_loadu_si128(p.cast()),
        _mm_set1_epi32,
        |acc, a, b| _mm_add_epi32(acc, _mm_madd_epi16(a, b)),
        |p: *mut i32, v| _mm_storeu_si128(p.cast(), v)
    );
    // AVX2 `vpmaddwd`: the full 4 × 16 tile in 8 ymm accumulators.
    int_row_of!(
        __m256i,
        2,
        8,
        Isa::Avx2,
        |p: *const i16| _mm256_loadu_si256(p.cast()),
        _mm256_set1_epi32,
        |acc, a, b| _mm256_add_epi32(acc, _mm256_madd_epi16(a, b)),
        |p: *mut i32, v| _mm256_storeu_si256(p.cast(), v)
    );
}

/// Work written once over the row traits and run at a tier by [`at_tier`].
/// The tier's registers hold `SPAN` adjacent groups of `PACK_MR` rows × `NV`
/// adjacent [`Row`]s of columns as f32 accumulators, or `PACK_MR` [`IntRow`]s.
pub(crate) trait RowKernel {
    type Out;
    /// # Safety
    ///
    /// The CPU must execute `R`'s and `I`'s instruction sets (the [`Row`]
    /// and [`IntRow`] contracts).
    unsafe fn run<R: Row, I: IntRow, const SPAN: usize, const NV: usize>(self) -> Self::Out;
}

/// Runs `kernel` at tier `isa` — the one list of tiers: each names its
/// [`Row`], its [`IntRow`] (there is no integer row wider than AVX2's) and
/// its f32 tile's height and width behind its `#[target_feature]` entry.
/// Both tiles, the pooling window, the column walk and the telemetry export
/// ([`tier_facts`]) and the roofline probe ([`mul_add_probe`]) read it.
pub(crate) fn at_tier<K: RowKernel>(isa: Isa, kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__m128i, __m256, __m256i, __m512};
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx2<K: RowKernel>(kernel: K) -> K::Out {
            // SAFETY: this function's contract — AVX2 and FMA are available.
            unsafe { kernel.run::<[__m256; 2], [__m256i; 2], 1, 1>() }
        }
        #[target_feature(enable = "avx512f,fma")]
        unsafe fn avx512<K: RowKernel>(kernel: K) -> K::Out {
            // SAFETY: this function's contract — AVX-512F (hence AVX2) and
            // FMA are available.
            unsafe { kernel.run::<[__m512; 1], [__m256i; 2], 2, 3>() }
        }
        // SAFETY: the dispatch module only selects a tier after detecting
        // every feature of its entry above at runtime (or a forced override
        // validated against it); SSE2 is part of the x86_64 baseline.
        match isa {
            Isa::Avx512 => return unsafe { avx512(kernel) },
            Isa::Avx2 => return unsafe { avx2(kernel) },
            Isa::Sse2 => return unsafe { kernel.run::<[f32; PACK_NR], [__m128i; 2], 1, 1>() },
            Isa::Scalar => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    // SAFETY: the portable rows are plain Rust and run anywhere.
    unsafe { kernel.run::<[f32; PACK_NR], [i32; PACK_NR], 1, 1>() }
}

/// What [`at_tier`]'s list says of tier `isa`: the width of its f32
/// register tile in `PACK_NR`-wide sub-blocks (how far the column walk
/// advances per block and how wide it builds it), and the tier whose
/// integer row runs.
///
/// # Panics
///
/// Panics if `isa` is wider than the host executes.
pub(crate) fn tier_facts(isa: Isa) -> (usize, Isa) {
    struct Facts;
    impl RowKernel for Facts {
        type Out = (usize, Isa);
        unsafe fn run<R: Row, I: IntRow, const SPAN: usize, const NV: usize>(self) -> Self::Out {
            (NV, I::TIER)
        }
    }
    assert_runs_here(isa);
    at_tier(isa, Facts)
}

fn assert_runs_here(isa: Isa) {
    assert!(
        isa <= simd::detected_isa(),
        "{isa} does not run on this host"
    );
}

/// One column block — up to a tile's width of `PACK_NR`-wide sub-blocks — of
/// one group's GEMM `C[i·m + j] = Σ_k A[i][k] · B[k][j]`, pushed through the
/// fused epilogue `ep`, with `k` strictly ascending for every `(i, j)` — the
/// bit-exactness invariant. The one convolution driver builds it; a filter
/// form streams *all* its panels over it ([`F32Panels`], [`Int8Panels`]), so
/// the patch data stays cache-hot across panels and crosses the memory
/// hierarchy once, while `A` is one sequential, prefetchable stream.
///
/// `b` holds B columns `[j0, j0 + W)`, `W` = `nr` rounded up to whole
/// sub-blocks, with row stride `b_stride`: a view into a full `K × M` patch
/// matrix (a pointwise convolution's input planes), or a cache-resident
/// `K × W` block built by [`crate::im2col`]. `c` is the whole output
/// tensor, in which the group's `m_rows × m` rows start at `c0` and output
/// channel `oc0` (where `ep`'s residual and bias rows start too); columns
/// `[j0, j0 + nr)` are written, through `max(0, ·)` if `relu`.
pub(crate) struct ColumnBlock<'a> {
    pub m_rows: usize,
    pub k_len: usize,
    pub b: &'a [f32],
    pub b_stride: usize,
    pub j0: usize,
    pub nr: usize,
    pub m: usize,
    pub ep: &'a ConvEpilogue<'a>,
    pub relu: bool,
    pub oc0: usize,
    pub c0: usize,
    pub c: &'a DisjointOut<'a>,
}

/// `A` in tile-major packed f32 panels ([`crate::gemm::PackedFilter`]) over
/// a column block: panel `p` holds rows `p·PACK_MR ..` as
/// `panel[k · PACK_MR + row]`, one contiguous stream per panel.
pub(crate) struct F32Panels<'a> {
    pub a: &'a [f32],
    pub block: &'a ColumnBlock<'a>,
}

impl RowKernel for F32Panels<'_> {
    type Out = ();
    /// Runs the tile at the block's own width: the tier's `NV`, or fewer
    /// vectors for the last one or two sub-blocks of a chunk.
    ///
    /// # Panics
    ///
    /// Panics if the block is wider than the tier's tile.
    #[inline(always)]
    unsafe fn run<R: Row, I: IntRow, const SPAN: usize, const NV: usize>(self) {
        // SAFETY: the caller's contract, passed down.
        unsafe {
            match self.block.nr.div_ceil(PACK_NR) {
                1 => self.panels::<R, SPAN, 1>(),
                2 if NV >= 2 => self.panels::<R, SPAN, 2>(),
                3 if NV >= 3 => self.panels::<R, SPAN, 3>(),
                wide => panic!("a block of {wide} sub-blocks at a tile width of {NV}"),
            }
        }
    }
}

impl F32Panels<'_> {
    /// Streams every packed panel over the block, in tiles of `SPAN`
    /// adjacent panels; an odd trailing panel runs the same body at one.
    ///
    /// # Safety
    ///
    /// The CPU must execute `R`'s instruction set (the [`Row`] contract).
    #[inline(always)]
    unsafe fn panels<R: Row, const SPAN: usize, const NV: usize>(&self) {
        let panels = self.block.m_rows.div_ceil(PACK_MR);
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
    /// fused multiply-adds; lane `j` of row `i` receives exactly the scalar
    /// sequence `acc = fma(a[i][k], b[k][j], acc)` over strictly ascending
    /// `k`. The full tile always runs: an edge panel's missing rows are zero
    /// weights whose accumulators are not stored, a ragged block's missing
    /// columns are a zero tail ([`store_row`] writes `nr` of them).
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
        let blk = self.block;
        let (k_len, b_stride) = (blk.k_len, blk.b_stride);
        let panel_stride = k_len * PACK_MR;
        let a = &self.a[p * panel_stride..(p + SPAN) * panel_stride];
        assert!(
            k_len == 0 || blk.b.len() >= (k_len - 1) * b_stride + NV * PACK_NR,
            "patch block too short"
        );
        // SAFETY: all pointer arithmetic stays inside `a` and `blk.b` per
        // the slicing and the assert above (the last row's last vector ends
        // at `(k_len − 1) · b_stride + NV · PACK_NR`); `R`'s ISA is the
        // caller's contract.
        unsafe {
            let mut acc = [[[R::splat(0.0); NV]; PACK_MR]; SPAN];
            let (ap, bp) = (a.as_ptr(), blk.b.as_ptr());
            for kk in 0..k_len {
                let b_k = bp.add(kk * b_stride);
                let brow: [R; NV] = std::array::from_fn(|v| R::load(b_k.add(v * PACK_NR)));
                for (s, panel_acc) in acc.iter_mut().enumerate() {
                    let a_k = ap.add(s * panel_stride + kk * PACK_MR);
                    for (i, row_acc) in panel_acc.iter_mut().enumerate() {
                        let a_ik = R::splat(*a_k.add(i));
                        for (v_acc, &b_kv) in row_acc.iter_mut().zip(&brow) {
                            *v_acc = v_acc.mul_add(a_ik, b_kv);
                        }
                    }
                }
            }
            let i0 = p * PACK_MR;
            let rows = acc.as_flattened().iter().take(blk.m_rows - i0);
            for (i, row_acc) in rows.enumerate() {
                for (v, &v_acc) in row_acc.iter().enumerate() {
                    let nr = PACK_NR.min(blk.nr - v * PACK_NR);
                    let j0 = blk.j0 + v * PACK_NR;
                    store_row(blk, i0 + i, j0, nr, v_acc);
                }
            }
        }
    }
}

/// `A` in pair-interleaved int8 panels ([`crate::quant::QuantizedFilter`])
/// over a column block one sub-block wide, whose patch values `q` holds
/// quantized at `in_scale` in the layout `quantize_block` writes.
pub(crate) struct Int8Panels<'a> {
    pub a: &'a [i8],
    pub pairs: usize,
    pub q: &'a [i16],
    pub in_scale: f32,
    /// Per-output-channel weight scales.
    pub scales: &'a [f32],
    pub block: &'a ColumnBlock<'a>,
}

impl RowKernel for Int8Panels<'_> {
    type Out = ();
    /// Streams every quantized panel over the block, requantizing each
    /// finished tile row and storing it through the shared f32 epilogue.
    /// Overflow-safe: each pair contributes `≤ 2 · 127²` per lane, so `i32`
    /// holds any `k_len < 2¹⁷` exactly.
    #[inline(always)]
    unsafe fn run<R: Row, I: IntRow, const SPAN: usize, const NV: usize>(self) {
        let blk = self.block;
        let panel_stride = self.pairs * PACK_MR * 2;
        let mut lane = [0.0f32; PACK_NR];
        for (p, i0) in (0..blk.m_rows).step_by(PACK_MR).enumerate() {
            let panel = &self.a[p * panel_stride..(p + 1) * panel_stride];
            // SAFETY: the caller's contract, passed down.
            let acc = unsafe { int_tile::<I>(panel, self.pairs, self.q) };
            let rows = acc.chunks_exact(PACK_NR).take(blk.m_rows - i0);
            for (row, acc_row) in (i0..).zip(rows) {
                for (l, &a) in lane.iter_mut().zip(acc_row) {
                    *l = requantize(a, self.in_scale, self.scales[blk.oc0 + row]);
                }
                // SAFETY: the portable row is plain Rust and runs anywhere.
                unsafe { store_row(blk, row, blk.j0, blk.nr, lane) };
            }
        }
    }
}

/// The `PACK_MR × PACK_NR` integer tile: for each output `(row, j)` the
/// accumulator gains `a[pair][row][0]·b[pair][j][0] +
/// a[pair][row][1]·b[pair][j][1]` over ascending pairs, all in `i32` — the
/// `(a0, a1)` weight pair broadcast into every lane, one `pmaddwd`-shaped
/// multiply-add per row and pair.
///
/// # Safety
///
/// The CPU must execute `I`'s instruction set (the [`IntRow`] contract).
///
/// # Panics
///
/// Panics unless `panel` holds `pairs · PACK_MR · 2` i8 and `b` holds
/// `pairs · PACK_NR · 2` i16 — checked once per tile, in every build: the
/// raw loads below never run against an out-of-bounds slice.
#[inline(always)]
pub(crate) unsafe fn int_tile<I: IntRow>(
    panel: &[i8],
    pairs: usize,
    b: &[i16],
) -> [i32; PACK_MR * PACK_NR] {
    assert!(panel.len() >= pairs * PACK_MR * 2, "int8 panel too short");
    assert!(b.len() >= pairs * PACK_NR * 2, "quantized block too short");
    let mut acc = [0i32; PACK_MR * PACK_NR];
    // SAFETY: all pointer arithmetic stays inside the slices per the
    // asserts above; `I`'s ISA is the caller's contract.
    unsafe {
        for pass in 0..PACK_NR / I::COLS {
            let mut rows = [I::pair_splat(0, 0); PACK_MR];
            for pr in 0..pairs {
                let b_pr = I::load(b.as_ptr().add((pr * PACK_NR + pass * I::COLS) * 2));
                let a_pr = panel.as_ptr().add(pr * PACK_MR * 2);
                for (i, row) in rows.iter_mut().enumerate() {
                    let a = I::pair_splat(*a_pr.add(i * 2), *a_pr.add(i * 2 + 1));
                    *row = row.madd_acc(a, b_pr);
                }
            }
            for (i, row) in rows.iter().enumerate() {
                row.store(acc.as_mut_ptr().add(i * PACK_NR + pass * I::COLS));
            }
        }
    }
    acc
}

/// The roofline probe behind [`mul_add_probe`].
struct MulAddChains {
    steps: usize,
}

impl RowKernel for MulAddChains {
    /// FLOPs executed.
    type Out = u64;
    #[inline(always)]
    unsafe fn run<R: Row, I: IntRow, const SPAN: usize, const NV: usize>(self) -> u64 {
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
                    *a = a.mul_add(x, y);
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

/// Runs the f32 tile's arithmetic — independent row-wide
/// `acc = fma(x, y, acc)` chains, one per accumulator row of tier `isa`'s
/// tile (`SPAN · PACK_MR`, not one per accumulator: eight chains already
/// keep two FMA ports busy through a four-cycle latency, so the ceiling does
/// not move when the tile is widened), through the same vector-row
/// instantiation the tile uses — for `steps` steps with no memory traffic
/// beyond L1, and returns the FLOPs executed. Timing it gives the hardware's
/// FMA ceiling at that tier; below AVX2 the row is sixteen `fmaf` calls, so
/// there it reads the reference tile's own arithmetic rate.
///
/// # Panics
///
/// Panics if `isa` is wider than the host executes.
#[must_use]
pub fn mul_add_probe(isa: Isa, steps: usize) -> u64 {
    assert_runs_here(isa);
    at_tier(isa, MulAddChains { steps })
}
