//! # ios-backend — CPU execution engine and numerical reference
//!
//! The paper's execution engine runs on cuDNN, so the numerical correctness
//! of its schedule transformations (operator merge + split, concurrent group
//! execution) comes for free. This crate provides the equivalent assurance
//! for the reproduction — plus a CPU hot path fast enough to serve real
//! traffic through `ios-serve`:
//!
//! * [`gemm`] — the one convolution walk: im2col + register-blocked GEMM
//!   over f32 filters pre-packed into tile-major panels at
//!   weight-precompute time ([`PackedFilter`]), **bit-identical** to the
//!   naive oracle because it preserves the reference's `(ic, ky, kx)`
//!   accumulation order per output element; [`conv2d`] is its one-part
//!   case, a merged stage's parts share it;
//! * [`ops_cpu`] — every other IR operator, one entry each, and the naive
//!   7-deep convolution loop kept as the oracle ([`ops_cpu::conv2d_naive`]);
//! * [`simd`] — the runtime SIMD dispatch of the register tile and the
//!   pooling window: one cached selection of the widest usable tier,
//!   overridable via `IOS_FORCE_ISA` for deterministic fallback testing —
//!   every tier computes bit-identical outputs;
//! * [`workers`] — the one process-wide worker pool: batch samples, the
//!   groups of a concurrent stage and the chunks of a single large
//!   operator (a convolution's tile grid, a pooling's channel planes) all
//!   run on its `cores − 1` parked lanes beside their caller, so a
//!   batch-1 inference uses every core and nothing oversubscribes —
//!   bit-identical for every lane count;
//! * [`arena`] — a scratch-buffer pool so steady-state execution on one
//!   sample lane performs zero heap allocation, from the op loop out to the
//!   stacked batch outputs at the serving boundary (on more lanes the pool
//!   keeps the peak simultaneous demand, which depends on interleaving);
//! * [`executor`] — runs an IOS [`ios_core::Schedule`] stage by stage
//!   (groups on the worker pool) through one stage runner — a plain graph
//!   is its sequential schedule — with every op output in a slot planned
//!   once per (block, schedule) ([`ios_core::Schedule::slot_plan`]: outputs
//!   never held at one stage share a slot), from precomputed weights
//!   ([`BlockWeights`], built for the call when the caller holds none),
//!   running an operator-merge stage as its parts' own filters over one
//!   shared convolution walk — exact taps, each part's output written in
//!   place, no merged filter built or held;
//! * [`batch`] — network-level execution, weight precomputation (packed
//!   filters included), batch stacking/splitting, and
//!   [`execute_network_batched`] which fans a stacked batch out across
//!   the worker pool, one deterministic sample per task.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod batch;
mod epilogue;
pub mod executor;
pub mod gemm;
mod im2col;
pub mod ops_cpu;
pub mod simd;
pub mod tensor_data;
mod tile;
pub mod workers;

pub use arena::ScratchPool;
pub use batch::{
    execute_network, execute_network_batched, execute_network_batched_capped, split_batch,
    stack_batch, stack_batch_pooled, BlockWeights, NetworkWeights, OpWeights, WeightFootprint,
};
pub use executor::{
    execute_graph, execute_schedule_pooled, max_abs_difference, relu_fold_plan, verify_schedule,
    weight_seed, FoldedRelu,
};
pub use gemm::{conv2d, ConvEpilogue, PackedFilter};
pub use simd::Isa;
pub use tensor_data::TensorData;
