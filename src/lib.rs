//! # ios — Inter-Operator Scheduler for CNN Acceleration (reproduction)
//!
//! Facade crate for the IOS reproduction (Ding et al., MLSys 2021). It
//! re-exports the individual crates of the workspace so applications can use
//! a single dependency:
//!
//! * [`ir`] — computation graph IR (tensors, operators, graphs, endings,
//!   width analysis).
//! * [`models`] — the benchmark CNNs of Table 2 plus ResNet and VGG.
//! * [`sim`] — the analytical GPU simulator that stands in for the paper's
//!   cuDNN/CUDA-stream execution engine.
//! * [`core`] — the IOS dynamic-programming scheduler, baselines and
//!   network-level optimization.
//! * [`frameworks`] — simulated baseline frameworks (TensorFlow, TASO,
//!   TensorRT, TVM, …).
//! * [`backend`] — CPU reference executor used to verify that schedules
//!   preserve the network's semantics.
//! * [`serve`] — the online batched inference-serving runtime: dynamic
//!   batching, batch/device-specialized schedule cache (Table 3 as a
//!   runtime policy), worker pool and serving metrics.
//! * [`telemetry`] — bounded-memory histograms and the span tracer the
//!   whole stack records into, with Chrome-trace and Prometheus exporters.
//!
//! # Quickstart
//!
//! ```
//! use ios::prelude::*;
//!
//! // Build a benchmark network and optimize it for a Tesla V100 at batch 1.
//! let network = ios::models::squeezenet(1);
//! let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
//! let report = optimize_network(&network, &cost, &SchedulerConfig::paper_default());
//!
//! // The IOS schedule is valid and at least as fast as running sequentially.
//! assert!(report.schedule.validate(&network).is_ok());
//! let sequential = sequential_network_schedule(&network, &cost);
//! assert!(report.schedule.latency_us <= sequential.latency_us);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ios_backend as backend;
pub use ios_core as core;
pub use ios_frameworks as frameworks;
pub use ios_ir as ir;
pub use ios_models as models;
pub use ios_serve as serve;
pub use ios_sim as sim;
pub use ios_telemetry as telemetry;

/// The most commonly used items, importable with `use ios::prelude::*`.
pub mod prelude {
    pub use ios_core::{
        evaluate_network, greedy_network_schedule, greedy_schedule, optimize_network,
        schedule_graph, sequential_network_schedule, sequential_schedule, CostModel, IosVariant,
        NetworkSchedule, ParallelizationStrategy, PruningLimits, Schedule, SchedulerConfig,
        SimCostModel, Stage,
    };
    pub use ios_ir::{
        Activation, Conv2dParams, Graph, GraphBuilder, Network, Op, OpId, OpKind, OpSet,
        TensorShape,
    };
    pub use ios_serve::{
        AdaptConfig, InferenceResponse, MetricsSnapshot, Rejected, ScheduleSource, ServeConfig,
        ServeEngine,
    };
    pub use ios_sim::{DeviceKind, KernelLibrary, Simulator};
}
