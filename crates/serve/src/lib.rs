//! # ios-serve — online batched inference serving on the IOS scheduler
//!
//! The rest of the workspace reproduces IOS (Ding et al., MLSys 2021) as an
//! *offline* tool: build a network, run the ending-based dynamic program
//! once, report a latency. This crate turns that scheduler into an *online*
//! engine. When it starts, the engine searches one schedule for the network
//! at batch size 1 — the shape its executor runs, once per sample, whatever
//! a batch's size (Table 3 of the paper: a schedule is specialized to the
//! shape it was searched for) — on the simulated V100, and every batch runs
//! it. A request passes through four stages, and reaches its terminal
//! outcome in one place:
//!
//! * **Admit** (`stages`) — shape check, the tenant's counters resolved
//!   once, the offer to the batching queue. Requests carry a tenant
//!   ([`ServeEngine::submit_for_tenant`]; anonymous traffic maps to the
//!   default tenant, [`request::TenantId`], [`ServeConfig::tenants`]):
//!   token-bucket rate limits and the admission bounds are enforced inside
//!   the queue lock (exact under racing submitters), and shed mode applies
//!   the capacity per tenant as a weighted share (the over-quota tenant is
//!   shed first). A refused offer finishes as [`request::Rejected::Shed`].
//! * **Assemble** (`batcher`) — single-sample requests coalesce into
//!   batches up to `max_batch`; a partial batch leaves at once on an idle
//!   engine and waits at most `max_wait` while another batch executes. Each
//!   tenant has its own FIFO lane drained by virtual-time weighted-fair
//!   queuing (a burst cannot starve another tenant's trickle). Requests can
//!   carry deadlines ([`ServeEngine::submit_with_deadline`]): the batcher
//!   flushes early to make them, and one that has passed by assembly
//!   finishes as [`request::Rejected::DeadlineExceeded`] instead of being
//!   served a stale result.
//! * **Execute** (`stages`, [`exec`]) — the CPU reference backend returns
//!   real numerics (bit-identical per sample to
//!   [`ios_backend::execute_graph`]) on the engine's one schedule, and its
//!   wall time as the batch's device time.
//! * **Respond** (`stages`) — the stacked outputs are split into leases
//!   from the serving-boundary pool and every member of the batch is
//!   finished with its response. A batch whose backend panics finishes its
//!   members as [`request::Rejected::Failed`]; the worker moves on.
//!
//! Around the stages:
//!
//! * **Configuration** ([`ServeConfig`]) — plain data, checked once when
//!   an engine starts; an invalid field panics there.
//! * **Metrics** ([`metrics`]) — every metric is declared once, in one
//!   table that renders the Prometheus exposition; the snapshot reads the
//!   same storage and exports the accounting identity `submitted =
//!   completed + shed + deadline_expired + failed + in_flight`, alongside
//!   p50/p95/p99 latency, wall and device throughput, queue depth, batch
//!   shape and per-tenant `ios_tenant_*{tenant="…"}` series.
//! * **Runtime adaptation** ([`config::AdaptConfig`]) — an opt-in
//!   controller thread windows the queue-wait histogram each tick and
//!   sheds load while the windowed p95 queue wait exceeds a budget. It
//!   never touches the schedule.
//!
//! # Quickstart
//!
//! ```
//! use ios_serve::{ServeConfig, ServeEngine};
//! use ios_backend::TensorData;
//! # use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
//! # let input = TensorShape::new(1, 4, 6, 6);
//! # let mut b = GraphBuilder::new("doc_tiny", input);
//! # let x = b.input(0);
//! # let a = b.conv2d("a", x, Conv2dParams::relu(4, (3, 3), (1, 1), (1, 1)));
//! # let c = b.conv2d("c", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
//! # let cat = b.concat("cat", &[a, c]);
//! # let network = Network::new("doc_tiny", input, vec![Block::new(b.build(vec![cat]))]);
//!
//! // `network` is any single-input ios_ir::Network, e.g. ios_models::squeezenet(1).
//! let config = ServeConfig { max_batch: 4, ..ServeConfig::default() };
//! let engine = ServeEngine::start(network.clone(), config);
//!
//! let handles: Vec<_> = (0..4)
//!     .map(|i| engine.submit(TensorData::random(network.input_shape, i)).unwrap())
//!     .collect();
//! for handle in handles {
//!     let response = handle.wait();
//!     assert!(!response.outputs.is_empty());
//! }
//! assert_eq!(engine.metrics().completed, 4);
//! engine.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adapt;
mod batcher;
pub mod config;
pub mod engine;
pub mod exec;
pub mod metrics;
pub mod request;
mod stages;

pub use config::{AdaptConfig, ServeConfig, TenantConfig};
pub use engine::ServeEngine;
pub use exec::{BatchContext, BatchExecutor, BatchOutcome, CpuReferenceExecutor};
pub use metrics::{CacheStats, MetricsSnapshot, TenantMetricsSnapshot};
pub use request::{
    InferenceResponse, Rejected, RequestId, ResponseHandle, ResponseLease, ServeError, TenantId,
};

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
// The unit tests share the integration suites' executors (above), which
// name this crate by its public path.
#[cfg(test)]
extern crate self as ios_serve;
