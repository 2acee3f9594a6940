//! # ios-ir — computation graph IR for the IOS inter-operator scheduler
//!
//! This crate provides the intermediate representation that the rest of the
//! IOS reproduction is built on:
//!
//! * [`TensorShape`] / [`DType`] — NCHW tensor descriptors ([`tensor`]).
//! * [`Op`], [`OpKind`], [`Conv2dParams`] — operators with output-shape
//!   inference, FLOP and memory-traffic accounting ([`op`]).
//! * [`Graph`] / [`GraphBuilder`] — directed acyclic computation graphs with
//!   topological utilities, reachability and transitive closure ([`graph`]).
//! * [`OpSet`] — a 128-bit bitset over operator ids used as the dynamic
//!   programming state of the scheduler ([`opset`]).
//! * [`endings`] — enumeration of *endings* (successor-closed subsets), the
//!   candidate last stages of the IOS dynamic program, under the pruning
//!   strategy `P(r, s)`; [`EndingEnumerator`] is the per-graph index
//!   (adjacency bitsets, topological order) the search also takes a
//!   stage's groups and their execution order from.
//! * [`width`] — DAG width via Dilworth's theorem (minimum path cover).
//! * [`Network`] — a CNN as a sequence of blocks, the unit the paper
//!   optimizes independently ([`network`]).
//!
//! # Example
//!
//! ```
//! use ios_ir::{GraphBuilder, TensorShape, Conv2dParams};
//!
//! let mut b = GraphBuilder::new("tiny", TensorShape::new(1, 64, 28, 28));
//! let input = b.input(0);
//! let a = b.conv2d("a", input, Conv2dParams::relu(96, (3, 3), (1, 1), (1, 1)));
//! let c = b.conv2d("c", input, Conv2dParams::relu(64, (1, 1), (1, 1), (0, 0)));
//! let out = b.concat("cat", &[a, c]);
//! let graph = b.build(vec![out]);
//! assert_eq!(graph.len(), 3);
//! assert_eq!(graph.output_shapes()[0].channels, 160);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod endings;
pub mod error;
pub mod graph;
pub mod graphviz;
pub mod network;
pub mod op;
pub mod opset;
pub mod tensor;
pub mod width;

pub use endings::{endings_of, EndingEnumerator, PruningLimits};
pub use error::IrError;
pub use graph::{Graph, GraphBuilder, Value};
pub use network::{Block, Network};
pub use op::{Activation, Conv2dParams, MatMulParams, Op, OpId, OpKind, PoolKind, PoolParams};
pub use opset::OpSet;
pub use tensor::{DType, TensorShape};
pub use width::{chain_decomposition, dag_width, relaxed_transition_bound, transition_upper_bound};
