//! Fused im2col: the patch matrix of a convolution is never materialized;
//! each `K × 16·NV` column block is built in a lane's scratch right before
//! the filter's panels stream over it, so the patch data of a large layer
//! never round-trips through memory. Pointwise convolutions (1×1, stride 1,
//! no padding) skip the build: the input channel planes already *are* the
//! patch matrix.

use crate::tensor_data::TensorData;
use crate::tile::PACK_NR;
use ios_ir::Conv2dParams;

/// Columns `[0, nr)` of a `K × M` matrix as a column block the tile can
/// read (`src` starts at the block's first column, row stride
/// `src_stride`): whole sub-blocks in place, a ragged last one copied into
/// `edge` at row stride `nr` rounded up to whole sub-blocks with the tail of
/// every row zeroed. Returns the block and its row stride.
pub(crate) fn in_place_or_edge_copy<'a>(
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
pub(crate) fn im2col_block(
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
