//! # ios-core — the Inter-Operator Scheduler
//!
//! This crate implements the paper's contribution: given a CNN computation
//! graph and a way to measure the latency of a candidate stage, find the
//! schedule (partition of the operators into stages, each executed with
//! either *concurrent execution* or *operator merge*) that minimizes
//! end-to-end latency, using the ending-based dynamic program of
//! Algorithm 1.
//!
//! The main entry points are:
//!
//! * [`Scheduler`] / [`schedule_graph`] — optimize a single block
//!   ([`dp`]).
//! * [`optimize_network`] — optimize every block of a network and assemble
//!   the per-block schedules ([`optimizer`]).
//! * [`sequential_schedule`] / [`greedy_schedule`] — the two baseline
//!   schedules of Section 6.1 ([`baselines`]).
//! * [`SimCostModel`] — the cost model backed by the `ios-sim` GPU
//!   simulator, playing the role of the paper's on-device profiler
//!   ([`cost_model`]). A search binds its cost model to each block once
//!   ([`CostModel::bind`] → [`GraphCostModel`]), so operators are lowered
//!   and graphs fingerprinted per block, not per measurement.
//! * [`StageProfiler`] / [`ProfiledCostModel`] — the real profiling loop:
//!   any substrate that can execute a candidate stage becomes a measuring
//!   cost model (warmup + median-of-N repeats, cached per stage); the CPU
//!   backend's `CpuStageProfiler` plugs in here ([`cost_model`]).
//! * [`specialize`] — the batch-size / device specialization study of
//!   Table 3.
//! * [`stats`] — schedule-space statistics (Table 1).
//!
//! # Example
//!
//! ```
//! use ios_core::{schedule_graph, SchedulerConfig, SimCostModel};
//! use ios_sim::{DeviceKind, Simulator};
//!
//! // A small two-branch block.
//! let graph = ios_models::figure2_block(1).blocks[0].graph.clone();
//! let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
//! let result = schedule_graph(&graph, &cost, &SchedulerConfig::default());
//! assert!(result.schedule.validate(&graph).is_ok());
//! assert!(result.latency_us > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod cost_model;
pub mod dp;
pub mod merge;
pub mod optimizer;
pub mod schedule;
pub mod specialize;
pub mod stats;
pub mod variants;

pub use baselines::{greedy_schedule, sequential_schedule};
pub use cost_model::{
    graph_fingerprint, CachingCostModel, CostModel, GraphCostModel, ProfiledCostModel,
    SimCostModel, StageProfiler,
};
pub use dp::{schedule_graph, ScheduleResult, Scheduler};
pub use ios_ir::PruningLimits;
pub use merge::{try_merge, MergedConv};
pub use optimizer::{
    evaluate_network, greedy_network_schedule, network_block_costs, optimize_network,
    sequential_network_schedule, NetworkSchedule, OptimizeReport,
};
pub use schedule::{ParallelizationStrategy, Schedule, Stage};
pub use specialize::{
    cross_evaluate, specialization_violations, ExecutionContext, SpecializationCell,
};
pub use stats::{block_statistics, BlockStats};
pub use variants::{IosVariant, SchedulerConfig};

/// Kept for `ios_benchmark`'s trait signature; ROADMAP item 8 removes it.
#[derive(Debug)]
pub struct PipelinePlan;
