//! # ios-sim — analytical GPU execution simulator
//!
//! The paper profiles candidate stages directly on an NVIDIA GPU through
//! cuDNN and CUDA streams. This crate replaces that hardware substrate with
//! an analytical simulator that preserves the properties the scheduler
//! depends on:
//!
//! * **Under-utilization of small kernels.** Kernels are modeled as tiled
//!   GEMMs; a batch-one convolution produces only a handful of thread blocks
//!   and therefore cannot occupy all streaming multiprocessors of a large
//!   GPU ([`kernel`], [`cost`]).
//! * **Concurrent execution.** Groups of a stage run in separate streams and
//!   share SMs and memory bandwidth; sharing is proportional to each
//!   kernel's thread-block demand ([`stream`]).
//! * **Resource contention.** Oversubscribing the device or overflowing the
//!   L2 working set slows everyone down, which is what makes greedy
//!   schedules lose to IOS ([`stream`], [`device`]).
//! * **Synchronization overhead.** Multi-stream stages pay a synchronization
//!   cost, which is why greedy degrades SqueezeNet in Figure 6.
//! * **Profiling.** The simulated timeline can be sampled for active warps,
//!   reproducing the CUPTI measurement of Figure 8 ([`profiler`]).
//!
//! The top-level entry point is [`Simulator`], which measures the latency of
//! a stage (a set of groups executed concurrently) exactly like the paper's
//! execution engine measures candidate stages for the dynamic program.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod device;
pub mod kernel;
pub mod measure;
pub mod profiler;
pub mod stream;
pub mod trends;

pub use cost::{isolated_kernel_latency_us, occupancy, roofline_time_us};
pub use device::{DeviceKind, DeviceSpec, ExecutionOverheads};
pub use kernel::{conv2d_kernel, kernel_for_op, KernelLibrary, KernelSpec};
pub use measure::{Simulator, StageMeasurement};
pub use profiler::{ActiveWarpProfile, WarpSample};
pub use stream::{simulate_stage, KernelEvent, StageSimulation};
