//! Fused epilogues: activations and adds apply while the output tile is
//! register-hot, between the register tile and the store into the output
//! tensor, instead of as separate whole-tensor passes afterwards.

use crate::arena::Output;
use crate::tensor_data::TensorData;
use crate::tile::{ColumnBlock, Row, PACK_NR};
use ios_ir::{Conv2dParams, TensorShape};

/// Pushes one finished accumulator row of `blk` (the group's output row
/// `row`, columns `[j0, j0 + PACK_NR)`) through the epilogue and stores its
/// first `nr` columns. This is the single store every tier goes through, so
/// all of them apply the identical per-element expression: `(acc + bias) + residual`, then the ReLU clamp.
/// A ragged block (`nr < PACK_NR`) computes the whole row and goes through
/// the stack for the residual load and the store; the lanes beyond `nr` are
/// never written.
///
/// # Safety
///
/// The CPU must execute `R`'s instruction set (the [`Row`] contract).
#[inline(always)]
pub(crate) unsafe fn store_row<R: Row>(
    blk: &ColumnBlock<'_>,
    row: usize,
    j0: usize,
    nr: usize,
    mut v: R,
) {
    let start = blk.c0 + row * blk.m + j0;
    // SAFETY: the slice indexing bounds-checks every pointer below. Every
    // `(row, column)` of `c` belongs to exactly one tile, a tile to exactly
    // one chunk of the walk, and a thread holds one row's slice at a time.
    unsafe {
        if let Some(bias) = blk.ep.bias {
            v = v.add(R::splat(bias[blk.oc0 + row]));
        }
        if let Some(res) = blk.ep.residual {
            let r = &res.data[start..start + nr];
            v = v.add(if nr == PACK_NR {
                R::load(r.as_ptr())
            } else {
                let mut tail = [0.0f32; PACK_NR];
                tail[..nr].copy_from_slice(r);
                R::load(tail.as_ptr())
            });
        }
        if blk.relu {
            v = v.max(R::splat(0.0));
        }
        let dst = blk.c.slice_mut(start, nr);
        if nr == PACK_NR {
            v.store(dst.as_mut_ptr());
        } else {
            let mut tail = [0.0f32; PACK_NR];
            v.store(tail.as_mut_ptr());
            dst.copy_from_slice(&tail[..nr]);
        }
    }
}

/// A fused convolution epilogue: what happens to each finished accumulator
/// element between the register tile and the store into the output, plus
/// an optional ReLU applied to the *input* while the patch matrix is loaded
/// (fusing the separable-conv pre-activation copy into im2col).
///
/// The output operations apply in a fixed order — `(acc + bias) +
/// residual`, then `max(0, ·)` — exactly the order separate whole-tensor
/// passes would use, so fusing them into the tile writeback is
/// bit-identical to running them afterwards. An absent term is *skipped
/// entirely*, never added as `0.0` (`-0.0 + 0.0 == +0.0` would flip the
/// sign bit of negative zeros and break bitwise identity). `relu` composes
/// with `params.activation`: the output ReLU runs if either asks for it
/// (idempotent, so composing is exact).
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
    /// The convolution's output tensor, from `out`.
    ///
    /// # Panics
    ///
    /// Panics if the residual or bias does not match the output geometry.
    pub(crate) fn take_output(
        &self,
        input: &TensorData,
        params: &Conv2dParams,
        out: Output<'_>,
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
        out.tensor(out_shape)
    }
}
