//! # ios-telemetry — measurement substrate for the IOS serving stack
//!
//! Production ML systems live or die on full-stack measurability: the
//! serving runtime cannot adapt to signals it does not emit. This crate is
//! the telemetry contract the rest of the workspace instruments against:
//!
//! * [`Histogram`] — a lock-free, log-bucketed latency histogram with a
//!   fixed number of atomic buckets. Recording is wait-free (a handful of
//!   relaxed atomic adds), count and sum are exact even under racing
//!   writers, memory is bounded regardless of how many values are
//!   recorded, and any percentile is off by at most
//!   [`Histogram::MAX_RELATIVE_ERROR`]. Histograms merge, and they
//!   snapshot into a serde-serializable [`HistogramSnapshot`].
//! * [`Tracer`] — a span/event tracer writing fixed-size
//!   [`TraceRecord`]s into a bounded ring buffer. Tracing is ~free when
//!   disabled (one relaxed atomic load per span site, no clock read) and
//!   cheap when enabled; recording never blocks on readers and never
//!   reorders records within a thread. The process-global instance
//!   ([`tracer()`]) is what the optimizer, executor and serving
//!   engine instrument against.
//! * Exporters — [`chrome_trace_json`] renders trace records as Chrome
//!   `chrome://tracing` trace-event JSON (an array of
//!   `{name, ph, ts, dur, pid, tid}` objects), and [`prometheus`] renders
//!   counters, gauges and histograms in the Prometheus text exposition
//!   format.
//!
//! ```
//! use ios_telemetry::{Histogram, Tracer};
//!
//! let h = Histogram::new();
//! for v in [120_000, 180_000, 950_000] {
//!     h.record(v); // nanoseconds
//! }
//! assert_eq!(h.count(), 3);
//! let p = h.percentile(50.0).unwrap() as f64;
//! assert!((p - 180_000.0).abs() / 180_000.0 <= Histogram::MAX_RELATIVE_ERROR);
//!
//! let t = Tracer::with_capacity(1024);
//! t.set_enabled(true);
//! {
//!     let mut span = t.span("work", "demo");
//!     span.set_id(7);
//! } // recorded on drop
//! assert_eq!(t.records().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod chrome;
mod histogram;
pub mod prometheus;
mod trace;

pub use chrome::chrome_trace_json;
pub use histogram::{Histogram, HistogramSnapshot};
pub use trace::{tracer, Span, TraceKind, TraceRecord, Tracer};
