//! Serving metrics: latency percentiles, throughput, queue depth, batch
//! shape and schedule-cache behaviour — each declared once.
//!
//! `ServeMetrics` is the storage (plain relaxed counters and
//! [`Histogram`]s the stages write directly), and the rows of
//! `ServeMetrics::prometheus_text` are the one table giving every
//! exported series its name, help text, kind and storage. The snapshot
//! ([`MetricsSnapshot`]) and the Prometheus exposition both read that
//! storage; nothing else names a metric.
//!
//! Durations are kept in [`Histogram`]s (log-bucketed, fixed 15 KiB of
//! atomics each), so memory stays bounded no matter how long the engine
//! serves, recording never takes a lock, and a snapshot computes all of
//! p50/p95/p99 in one pass over the buckets instead of cloning and
//! sorting every latency ever seen. Counts and sums are exact; percentile
//! values carry at most [`Histogram::MAX_RELATIVE_ERROR`] (≈ 1.6 %)
//! relative error.

use crate::batcher::TRIGGERS;
use crate::cache::CacheStats;
use crate::request::TenantId;
use ios_backend::simd::Isa;
use ios_backend::workers::PoolStats;
use ios_backend::WeightFootprint;
use ios_telemetry::{prometheus as prom, Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The form of the metric table: one row per exported series (or family)
/// giving its kind — the `ios_telemetry::prometheus` helper that renders it —
/// its exposition name, where its value is stored, and its help text.
macro_rules! table {
    ($out:expr; $($kind:ident $name:literal = $value:expr, $help:literal;)*) => {
        $(prom::$kind($out, $name, $help, $value);)*
    };
}

/// An event count (or a gauge's last value). Relaxed: a counter orders
/// nothing, it is only ever summed or exported.
#[derive(Debug, Default)]
pub(crate) struct Count(AtomicU64);

impl Count {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Where a caught panic was isolated — the `site` label of
/// `ios_panics_total` and the id of the `panic` trace instant.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PanicSite {
    /// A batch's execution or response; its requests complete as
    /// [`crate::Rejected::Failed`].
    Batch,
    /// One shed-controller tick; the controller lives on to the next.
    Adapt,
    /// A background re-optimization; the nearest schedule keeps serving.
    Reoptimize,
}

/// The `site` label of each [`PanicSite`], in declaration order.
const PANIC_SITES: [&str; 3] = ["batch", "adapt", "reoptimize"];

/// One tenant's admission-path counters: requests completed, requests
/// shed, and the queue-wait distribution. Created on a tenant's first
/// submit and carried by each of its requests
/// ([`crate::request::Pending::tenant_metrics`]); exported as
/// `ios_tenant_*{tenant="…"}` labelled series.
#[derive(Debug, Default)]
pub(crate) struct TenantMetrics {
    pub completed: Count,
    /// Turned away by admission control (bounded queue, shed share, or
    /// token bucket).
    pub shed: Count,
    /// Time this tenant's completed requests spent queued, ns.
    pub queue_wait: Histogram,
}

/// What the exposition reads from outside [`ServeMetrics`]: the schedule
/// cache's counters, the weight cache's footprint and the process-wide
/// kernel facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct External {
    pub cache: CacheStats,
    pub weights: WeightFootprint,
    /// The selected microkernel ISA tier.
    pub isa: Isa,
    pub pool: PoolStats,
}

/// When the metrics began: the denominator of wall throughput.
#[derive(Debug)]
struct Since(Instant);

impl Default for Since {
    fn default() -> Self {
        Since(Instant::now())
    }
}

/// Live counters written by the serving stages, all zero at `default()`;
/// read with [`ServeMetrics::snapshot`] and
/// [`ServeMetrics::prometheus_text`].
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    started_at: Since,
    /// Requests offered to admission that the engine answered for: every
    /// one reaches exactly one of `completed`, `shed`, `deadline_expired`
    /// or `failed`.
    pub submitted: Count,
    pub completed: Count,
    pub batches: Count,
    /// Batches handed out, by [`crate::batcher::Trigger`].
    pub dispatched: [Count; 5],
    pub shed: Count,
    pub deadline_expired: Count,
    pub failed: Count,
    pub queue_depth: Count,
    /// Caught panics, by [`PanicSite`].
    panics: [Count; 3],
    /// The most recent caught panic as `site: message`, for `Debug` output.
    pub last_panic: Mutex<Option<String>>,
    /// Completed-request total latencies (submission → response), ns.
    pub latency: Histogram,
    /// Time each request spent queued before its batch dispatched, ns.
    pub queue_wait: Histogram,
    /// Time spent assembling each batch (oldest enqueue → dispatch), ns.
    pub batch_assembly: Histogram,
    /// Per-batch (simulated) device time, ns.
    pub device_time: Histogram,
    /// Per-tenant counters, created lazily on a tenant's first submit.
    /// (A `BTreeMap` so exports iterate deterministically.)
    tenants: Mutex<BTreeMap<TenantId, Arc<TenantMetrics>>>,
}

impl ServeMetrics {
    /// The counters of `tenant`, created on first use.
    pub fn tenant(&self, tenant: &TenantId) -> Arc<TenantMetrics> {
        let mut tenants = self.tenants.lock().expect("tenant metrics lock");
        Arc::clone(tenants.entry(tenant.clone()).or_default())
    }

    /// Every tenant seen so far with its counters, in tenant-name order.
    fn tenant_entries(&self) -> Vec<(TenantId, Arc<TenantMetrics>)> {
        self.tenants
            .lock()
            .expect("tenant metrics lock")
            .iter()
            .map(|(tenant, metrics)| (tenant.clone(), Arc::clone(metrics)))
            .collect()
    }

    /// Records one executed batch. `device_time_us` must be non-negative
    /// (debug-asserted); it is rounded — not truncated — to the nearest
    /// nanosecond, so sub-µs stage times are not silently dropped from the
    /// device totals.
    pub fn record_batch(&self, device_time_us: f64) {
        debug_assert!(
            device_time_us >= 0.0,
            "negative device time: {device_time_us} µs"
        );
        self.batches.add(1);
        self.device_time.record_us(device_time_us);
    }

    /// The one report of a caught panic: formats the payload, counts it
    /// under its site's `ios_panics_total` label, marks the trace timeline
    /// and keeps the message for the engine's `Debug` output. (The panic
    /// hook has already written the message to stderr.)
    pub fn panic_message(&self, site: PanicSite, payload: &(dyn std::any::Any + Send)) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        self.panics[site as usize].add(1);
        ios_telemetry::tracer().instant("panic", "serve", site as u64);
        let mut last = self.last_panic.lock().unwrap_or_else(|e| e.into_inner());
        *last = Some(format!("{}: {message}", PANIC_SITES[site as usize]));
    }

    /// Snapshots every counter. Percentiles come from the latency
    /// histogram in a single pass; count, sum and max are exact.
    pub fn snapshot(&self, cache: CacheStats) -> MetricsSnapshot {
        // Outcomes before `submitted`: every outcome follows its own
        // submission, so this order can only over-count what is in flight.
        let completed = self.completed.get();
        let (shed, deadline_expired, failed) = (
            self.shed.get(),
            self.deadline_expired.get(),
            self.failed.get(),
        );
        let submitted = self.submitted.get();
        let batches = self.batches.get();
        let device_time_us = self.device_time.sum() as f64 / 1e3;
        let elapsed = self.started_at.0.elapsed().as_secs_f64();
        let [p50, p95, p99] = match self.latency.percentiles(&[50.0, 95.0, 99.0]) {
            Some(ps) => [ps[0], ps[1], ps[2]].map(|ns| ns as f64 / 1e3),
            None => [0.0; 3],
        };
        MetricsSnapshot {
            submitted,
            completed,
            batches,
            dispatch: TRIGGERS
                .iter()
                .zip(&self.dispatched)
                .map(|(trigger, count)| ((*trigger).to_string(), count.get()))
                .collect(),
            shed,
            deadline_expired,
            failed,
            in_flight: submitted - (completed + shed + deadline_expired + failed),
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            p50_latency_us: p50,
            p95_latency_us: p95,
            p99_latency_us: p99,
            max_latency_us: self.latency.max().unwrap_or(0) as f64 / 1e3,
            mean_queue_wait_us: self.queue_wait.mean() / 1e3,
            mean_assembly_us: self.batch_assembly.mean() / 1e3,
            wall_throughput_rps: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            device_time_us,
            device_throughput_rps: if device_time_us > 0.0 {
                completed as f64 / (device_time_us / 1e6)
            } else {
                0.0
            },
            queue_depth: self.queue_depth.get() as usize,
            cache,
            tenants: self
                .tenant_entries()
                .into_iter()
                .map(|(tenant, m)| TenantMetricsSnapshot {
                    tenant: tenant.name().to_string(),
                    completed: m.completed.get(),
                    shed: m.shed.get(),
                    mean_queue_wait_us: m.queue_wait.mean() / 1e3,
                    p95_queue_wait_us: m
                        .queue_wait
                        .percentile(95.0)
                        .map_or(0.0, |ns| ns as f64 / 1e3),
                })
                .collect(),
        }
    }

    /// The metric table, rendered as Prometheus text: request counters, the
    /// queue-depth gauge, schedule-cache counters, the weight-cache
    /// footprint gauge, the selected-microkernel-ISA info gauge,
    /// the worker pool's lane gauge and intra-operator counters
    /// (process-wide, like the pool), the latency / queue-wait /
    /// batch-assembly / device-time histograms (exposed in microseconds),
    /// per-tenant `ios_tenant_*{tenant="…"}` series and the caught-panic
    /// counters.
    pub fn prometheus_text(&self, ext: &External) -> String {
        let mut out = String::new();
        let (cache, pool) = (ext.cache, ext.pool);
        let triggers = TRIGGERS.map(|trigger| [("trigger", trigger)]);
        table! { &mut out;
            counter "ios_requests_completed_total" = self.completed.get(),
                "Requests answered since the engine started.";
            counter "ios_batches_total" = self.batches.get(),
                "Batches dispatched since the engine started.";
            counter_family "ios_batch_dispatch_total" = &labelled(&triggers, &self.dispatched),
                "Batches the queue handed out, by the rule that released each: full, \
                 idle (no batch executing), wait (max_wait), deadline, close.";
            counter "ios_requests_shed_total" = self.shed.get(),
                "Requests turned away by admission control (bounded queue or shed mode).";
            counter "ios_requests_deadline_expired_total" = self.deadline_expired.get(),
                "Requests completed as expired before reaching the device.";
            counter "ios_requests_failed_total" = self.failed.get(),
                "Requests completed as failed: their batch panicked in the backend.";
            gauge "ios_queue_depth" = self.queue_depth.get() as f64,
                "Requests waiting in the batching queue.";
            counter "ios_schedule_cache_hits_total" = cache.hits,
                "Exact specialized-schedule cache hits.";
            counter "ios_schedule_cache_misses_total" = cache.misses,
                "Schedule-cache lookups with no exact entry.";
            counter "ios_schedule_cache_nearest_total" = cache.nearest_served,
                "Batches served by the nearest cached batch size.";
            counter "ios_schedule_cache_background_inserts_total" = cache.background_inserts,
                "Exact schedules inserted by background re-optimization.";
            gauge "ios_schedule_cache_entries" = cache.entries as f64,
                "Schedules currently cached.";
            gauge "ios_weight_cache_f32_bytes" = ext.weights.f32_bytes as f64,
                "Bytes of f32 weight arrays held by the weight cache.";
            info "ios_simd_kernel" = &[&[("path", "f32"), ("isa", ext.isa.name())]],
                "Selected microkernel ISA per numeric path (info gauge, constant 1).";
            gauge "ios_worker_pool_lanes" = pool.lanes as f64,
                "Lanes of the process-wide worker pool: its parked helpers plus the caller.";
            counter "ios_intra_op_jobs_total" = pool.op_jobs,
                "Operators split into chunks across worker-pool lanes, process-wide.";
            counter_family "ios_intra_op_chunks_total" = &[
                    (&[("by", "caller")], pool.op_chunks_by_caller),
                    (&[("by", "helper")], pool.op_chunks_by_helper),
                ],
                "Operator chunks run, by lane: the thread that posted the job or a helper.";
            histogram_us "ios_request_latency_us" = &self.latency.snapshot(),
                "Request latency, submission to response, microseconds.";
            histogram_us "ios_request_queue_wait_us" = &self.queue_wait.snapshot(),
                "Time requests spent queued before dispatch, microseconds.";
            histogram_us "ios_batch_assembly_us" = &self.batch_assembly.snapshot(),
                "Batch assembly time, oldest enqueue to dispatch, microseconds.";
            histogram_us "ios_batch_device_time_us" = &self.device_time.snapshot(),
                "Per-batch (simulated) device time, microseconds.";
        }
        self.render_tenants(&mut out);
        let sites = PANIC_SITES.map(|site| [("site", site)]);
        table! { &mut out;
            counter_family "ios_panics_total" = &labelled(&sites, &self.panics),
                "Panics caught and isolated, by site: a batch, an adaptation tick, \
                 a background re-optimization.";
        }
        out
    }

    /// The per-tenant rows: one sample (or histogram) per tenant seen so
    /// far, `{tenant="…"}`. Absent entirely until the first request
    /// arrives.
    fn render_tenants(&self, out: &mut String) {
        let tenants = self.tenant_entries();
        if tenants.is_empty() {
            return;
        }
        let labels: Vec<[(&str, &str); 1]> = tenants
            .iter()
            .map(|(tenant, _)| [("tenant", tenant.name())])
            .collect();
        let counts = |read: fn(&TenantMetrics) -> &Count| -> Vec<(&[(&str, &str)], u64)> {
            tenants
                .iter()
                .zip(&labels)
                .map(|((_, tm), l)| (l.as_slice(), read(tm).get()))
                .collect()
        };
        let wait_snaps: Vec<HistogramSnapshot> = tenants
            .iter()
            .map(|(_, tm)| tm.queue_wait.snapshot())
            .collect();
        let waits: Vec<(&[(&str, &str)], &HistogramSnapshot)> = wait_snaps
            .iter()
            .zip(&labels)
            .map(|(snap, l)| (l.as_slice(), snap))
            .collect();
        table! { out;
            counter_family "ios_tenant_requests_completed_total" = &counts(|tm| &tm.completed),
                "Requests answered, per tenant.";
            counter_family "ios_tenant_requests_shed_total" = &counts(|tm| &tm.shed),
                "Requests turned away by admission control, per tenant.";
            histogram_us_family "ios_tenant_queue_wait_us" = &waits,
                "Time requests spent queued before dispatch, per tenant, microseconds.";
        }
    }
}

/// One series per count of a one-label counter family.
fn labelled<'a>(
    labels: &'a [[(&'a str, &'a str); 1]],
    counts: &[Count],
) -> Vec<(&'a [(&'a str, &'a str)], u64)> {
    labels
        .iter()
        .zip(counts)
        .map(|(labels, count)| (labels.as_slice(), count.get()))
        .collect()
}

/// A point-in-time view of one tenant's admission-path counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMetricsSnapshot {
    /// The tenant's name.
    pub tenant: String,
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Requests of this tenant turned away by admission control.
    pub shed: u64,
    /// Mean time this tenant's completed requests spent queued, µs.
    pub mean_queue_wait_us: f64,
    /// 95th percentile queue wait of this tenant's completed requests, µs
    /// (histogram-derived, same error bound as the latency percentiles).
    pub p95_queue_wait_us: f64,
}

/// A point-in-time view of the serving metrics. Every snapshot satisfies
/// the accounting identity
/// `submitted = completed + shed + deadline_expired + failed + in_flight`:
/// each request the engine answers for reaches exactly one of the four
/// terminal outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests offered to admission that the engine answered for
    /// (wrong-shape and post-shutdown submissions are refused outright and
    /// not counted).
    pub submitted: u64,
    /// Requests answered so far.
    pub completed: u64,
    /// Batches dispatched so far.
    pub batches: u64,
    /// Batches the queue handed out, by the `trigger` label of
    /// `ios_batch_dispatch_total` that released each (`full`, `idle`,
    /// `wait`, `deadline`, `close`).
    pub dispatch: BTreeMap<String, u64>,
    /// Requests turned away by admission control (bounded queue or shed
    /// mode) — they never entered the queue.
    pub shed: u64,
    /// Requests completed as expired: their deadline passed before their
    /// batch dispatched, so they never reached the device.
    pub deadline_expired: u64,
    /// Requests completed as failed: their batch panicked in the execution
    /// backend (the worker survived and moved on).
    pub failed: u64,
    /// Requests admitted and not yet finished: queued, or in a batch that
    /// is executing.
    pub in_flight: u64,
    /// Mean coalesced batch size (`completed / batches`).
    pub mean_batch_size: f64,
    /// Median request latency (submission → response), µs wall clock.
    /// Histogram-derived: within 1.6 % of the exact nearest-rank value.
    pub p50_latency_us: f64,
    /// 95th percentile request latency, µs wall clock (same error bound).
    pub p95_latency_us: f64,
    /// 99th percentile request latency, µs wall clock (same error bound).
    pub p99_latency_us: f64,
    /// Worst request latency, µs wall clock (exact).
    pub max_latency_us: f64,
    /// Mean time a request spent queued before its batch dispatched, µs.
    pub mean_queue_wait_us: f64,
    /// Mean batch-assembly time (oldest enqueue → dispatch), µs.
    pub mean_assembly_us: f64,
    /// Requests per second of wall clock since the engine started.
    pub wall_throughput_rps: f64,
    /// Total (simulated) device time consumed by all batches, µs.
    pub device_time_us: f64,
    /// Requests per second of *device* time — the hardware-efficiency
    /// number batching improves (cf. Figure 11 of the paper).
    pub device_throughput_rps: f64,
    /// Requests queued at snapshot time.
    pub queue_depth: usize,
    /// Schedule-cache behaviour.
    pub cache: CacheStats,
    /// Per-tenant completed/shed/queue-wait counters, in tenant-name
    /// order. Empty until the first request arrives.
    pub tenants: Vec<TenantMetricsSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative tolerance for histogram-derived percentiles.
    const TOL: f64 = Histogram::MAX_RELATIVE_ERROR;

    fn close(actual: f64, expected: f64) -> bool {
        (actual - expected).abs() <= expected * TOL
    }

    #[test]
    fn percentiles_track_nearest_rank_within_the_error_bound() {
        let metrics = ServeMetrics::default();
        for us in 1..=100 {
            metrics.latency.record_us(f64::from(us));
        }
        let snap = metrics.snapshot(CacheStats::default());
        assert!(
            close(snap.p50_latency_us, 50.0),
            "p50 {}",
            snap.p50_latency_us
        );
        assert!(
            close(snap.p95_latency_us, 95.0),
            "p95 {}",
            snap.p95_latency_us
        );
        assert!(
            close(snap.p99_latency_us, 99.0),
            "p99 {}",
            snap.p99_latency_us
        );
        // Max is exact, not bucketed.
        assert_eq!(snap.max_latency_us, 100.0);
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let metrics = ServeMetrics::default();
        metrics.record_batch(200.0);
        metrics.record_batch(100.0);
        metrics.submitted.add(6);
        metrics.completed.add(6);
        for latency in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
            metrics.latency.record_us(latency);
        }
        metrics.queue_wait.record_us(8.0);
        metrics.queue_wait.record_us(12.0);
        metrics.batch_assembly.record_us(40.0);
        metrics.queue_depth.set(3);
        let snap = metrics.snapshot(CacheStats::default());
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_size - 3.0).abs() < 1e-12);
        assert!(
            close(snap.p50_latency_us, 30.0),
            "p50 {}",
            snap.p50_latency_us
        );
        assert_eq!(snap.max_latency_us, 60.0);
        // Histogram sums are exact, so the means are too.
        assert!((snap.mean_queue_wait_us - 10.0).abs() < 1e-9);
        assert!((snap.mean_assembly_us - 40.0).abs() < 1e-9);
        assert_eq!(snap.queue_depth, 3);
        // 6 requests in 300 µs of device time = 20k requests per device-second.
        assert!((snap.device_throughput_rps - 20_000.0).abs() < 1.0);
    }

    #[test]
    fn memory_is_bounded_under_sustained_recording() {
        // The old implementation pushed every latency into a Vec; this
        // pins the histogram replacement: a million records later, a
        // snapshot is still cheap and counts stay exact.
        let metrics = ServeMetrics::default();
        for i in 0..1_000_000u64 {
            metrics.latency.record_us((i % 10_000) as f64);
        }
        let snap = metrics.snapshot(CacheStats::default());
        assert_eq!(metrics.latency.count(), 1_000_000);
        assert!(
            close(snap.p50_latency_us, 4_999.0),
            "p50 {}",
            snap.p50_latency_us
        );
    }

    #[test]
    fn device_time_rounds_instead_of_truncating() {
        let metrics = ServeMetrics::default();
        // 0.0006 µs = 0.6 ns each: truncation would record 0 forever.
        for _ in 0..1000 {
            metrics.record_batch(0.0006);
        }
        let snap = metrics.snapshot(CacheStats::default());
        assert!(
            (snap.device_time_us - 1.0).abs() < 1e-9,
            "1000 × 0.6 ns must round to 1 ns each, got {} µs",
            snap.device_time_us
        );
    }

    #[test]
    fn adaptation_counters_flow_into_the_snapshot() {
        let metrics = ServeMetrics::default();
        metrics.submitted.add(3);
        metrics.shed.add(1);
        metrics.shed.add(1);
        metrics.deadline_expired.add(1);
        let snap = metrics.snapshot(CacheStats::default());
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.deadline_expired, 1);
    }

    #[test]
    fn snapshot_serializes() {
        let metrics = ServeMetrics::default();
        metrics.record_batch(50.0);
        metrics.latency.record_us(80.0);
        let snap = metrics.snapshot(CacheStats::default());
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
    /// `prometheus_text` for a fixed, hand-recorded state must be what the
    /// parent commit's hand-written exposition rendered for the same state
    /// (`tests/data/prometheus_parent.txt`, captured there on an AVX2
    /// two-lane host) — apart from the three families this table added, and
    /// the pipeline, re-plan and eviction counters and the int8 weight gauge
    /// and kernel series, which are stripped from it here.
    #[test]
    fn prometheus_text_is_the_parents_plus_the_failed_and_panic_families() {
        use crate::batcher::Trigger;
        let metrics = ServeMetrics::default();
        metrics.record_batch(200.0);
        metrics.record_batch(100.0);
        metrics.dispatched[Trigger::Idle as usize].add(1);
        metrics.dispatched[Trigger::Wait as usize].add(1);
        metrics.submitted.add(11);
        metrics.completed.add(6);
        metrics.shed.add(2);
        metrics.deadline_expired.add(1);
        metrics.failed.add(2);
        metrics.queue_depth.set(3);
        for us in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0] {
            metrics.latency.record_us(us);
        }
        metrics.queue_wait.record_us(8.0);
        metrics.queue_wait.record_us(12.0);
        metrics.batch_assembly.record_us(40.0);
        let alpha = metrics.tenant(&TenantId::from("alpha"));
        alpha.completed.add(2);
        alpha.queue_wait.record_us(8.0);
        alpha.queue_wait.record_us(12.0);
        let beta = metrics.tenant(&TenantId::from("beta"));
        beta.completed.add(1);
        beta.queue_wait.record_us(2500.0);
        beta.shed.add(2);
        metrics.panic_message(PanicSite::Batch, &"injected");
        metrics.panic_message(PanicSite::Reoptimize, &String::from("injected"));
        assert_eq!(
            metrics.last_panic.lock().unwrap().as_deref(),
            Some("reoptimize: injected")
        );

        let text = metrics.prometheus_text(&External {
            cache: CacheStats {
                hits: 3,
                misses: 1,
                nearest_served: 1,
                background_inserts: 1,
                entries: 2,
            },
            weights: WeightFootprint { f32_bytes: 640 },
            isa: Isa::Avx2,
            pool: PoolStats {
                lanes: 2,
                op_jobs: 0,
                op_chunks_by_caller: 0,
                op_chunks_by_helper: 0,
            },
        });

        let batches = "ios_batches_total 2\n";
        let dispatch = "# HELP ios_batch_dispatch_total Batches the queue handed out, by the rule \
                        that released each: full, idle (no batch executing), wait (max_wait), \
                        deadline, close.\n\
                        # TYPE ios_batch_dispatch_total counter\n\
                        ios_batch_dispatch_total{trigger=\"full\"} 0\n\
                        ios_batch_dispatch_total{trigger=\"idle\"} 1\n\
                        ios_batch_dispatch_total{trigger=\"wait\"} 1\n\
                        ios_batch_dispatch_total{trigger=\"deadline\"} 0\n\
                        ios_batch_dispatch_total{trigger=\"close\"} 0\n";
        let expired = "ios_requests_deadline_expired_total 1\n";
        let failed = "# HELP ios_requests_failed_total Requests completed as failed: \
                      their batch panicked in the backend.\n\
                      # TYPE ios_requests_failed_total counter\n\
                      ios_requests_failed_total 2\n";
        let panics = "# HELP ios_panics_total Panics caught and isolated, by site: a batch, \
                      an adaptation tick, a background re-optimization.\n\
                      # TYPE ios_panics_total counter\n\
                      ios_panics_total{site=\"batch\"} 1\n\
                      ios_panics_total{site=\"adapt\"} 0\n\
                      ios_panics_total{site=\"reoptimize\"} 1\n";
        // The pipelined-batch counter, the int8 series, the re-plan counter
        // and the eviction counter are gone from the table.
        let removed = [
            "ios_pipelined_batches_total",
            "ios_weight_cache_int8_bytes",
            "path=\"int8\"",
            "ios_adaptation_replans_total",
            "ios_schedule_cache_evictions_total",
        ];
        let parent: String = include_str!("../tests/data/prometheus_parent.txt")
            .lines()
            .filter(|line| !removed.iter().any(|r| line.contains(r)))
            .map(|line| line.to_string() + "\n")
            .collect();
        assert_eq!(parent.matches(expired).count(), 1);
        assert_eq!(parent.matches(batches).count(), 1);
        let expected = parent
            .replacen(batches, &format!("{batches}{dispatch}"), 1)
            .replacen(expired, &format!("{expired}{failed}"), 1)
            + panics;
        assert_eq!(text, expected);
        prom::validate(&text).expect("well-formed exposition");
    }
}
