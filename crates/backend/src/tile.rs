//! The row trait ([`Row`]), instantiated per tier in one list ([`at_tier`])
//! and selected per call through [`crate::simd`], and two bodies written once
//! over it: the GEMM's register tile and the pooling window (`ops_cpu`).
//! Every row gives each output the same fused multiply-add —
//! `acc = fma(a, b, acc)`, one rounding per MAC — over strictly ascending
//! `k`, so the tier is invisible in the output. Below AVX2 no instruction
//! fuses: the portable row calls libm's `fmaf` per lane, and the scalar tier
//! is an exact-but-slow *reference* tier.
//! There is no edge tile: a ragged sub-block is built with a zero tail, an
//! edge panel carries zero rows, and only the *store* is partial.

use crate::epilogue::{store_row, ConvEpilogue};
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
/// and partial store counts in. A tier's register tile is `NV` of them wide
/// ([`at_tier`]).
pub(crate) const PACK_NR: usize = 16;

/// One row of the register tile: `PACK_NR` = 16 adjacent output columns
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

// The portable row of the scalar tier: sixteen plain floats, each
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

#[cfg(target_arch = "x86_64")]
mod x86_rows {
    use super::{Row, PACK_NR};
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
}

/// Work written once over the row trait and run at a tier by [`at_tier`].
/// The tier's registers hold `SPAN` adjacent groups of `PACK_MR` rows × `NV`
/// adjacent [`Row`]s of columns as accumulators.
pub(crate) trait RowKernel {
    type Out;
    /// # Safety
    ///
    /// The CPU must execute `R`'s instruction set (the [`Row`] contract).
    unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) -> Self::Out;
}

/// Runs `kernel` at tier `isa` — the one list of tiers: each names its
/// [`Row`] and its tile's height and width behind its `#[target_feature]`
/// entry. The tile, the pooling window, the column walk ([`tile_width`])
/// and the roofline probe ([`mul_add_probe`]) read it.
pub(crate) fn at_tier<K: RowKernel>(isa: Isa, kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__m256, __m512};
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx2<K: RowKernel>(kernel: K) -> K::Out {
            // SAFETY: this function's contract — AVX2 and FMA are available.
            unsafe { kernel.run::<[__m256; 2], 1, 1>() }
        }
        #[target_feature(enable = "avx512f,fma")]
        unsafe fn avx512<K: RowKernel>(kernel: K) -> K::Out {
            // SAFETY: this function's contract — AVX-512F (hence AVX2) and
            // FMA are available.
            unsafe { kernel.run::<[__m512; 1], 2, 3>() }
        }
        // SAFETY: the dispatch module only selects a tier after detecting
        // every feature of its entry above at runtime (or a forced override
        // validated against it).
        match isa {
            Isa::Avx512 => return unsafe { avx512(kernel) },
            Isa::Avx2 => return unsafe { avx2(kernel) },
            Isa::Scalar => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    // SAFETY: the portable row is plain Rust and runs anywhere.
    unsafe { kernel.run::<[f32; PACK_NR], 1, 1>() }
}

/// What [`at_tier`]'s list says of tier `isa`: the width of its register
/// tile in `PACK_NR`-wide sub-blocks — how far the column walk advances per
/// block and how wide it builds it.
///
/// # Panics
///
/// Panics if `isa` is wider than the host executes.
pub(crate) fn tile_width(isa: Isa) -> usize {
    struct Width;
    impl RowKernel for Width {
        type Out = usize;
        unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) -> usize {
            NV
        }
    }
    assert_runs_here(isa);
    at_tier(isa, Width)
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
/// bit-exactness invariant. The one convolution driver builds it and streams
/// *all* the filter's panels over it ([`F32Panels`]), so the patch data stays
/// cache-hot across panels and crosses the memory hierarchy once, while `A`
/// is one sequential, prefetchable stream.
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
    unsafe fn run<R: Row, const SPAN: usize, const NV: usize>(self) {
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

/// The roofline probe behind [`mul_add_probe`].
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
