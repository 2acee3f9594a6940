//! A lightweight span/event tracer.
//!
//! Instrumentation sites call [`Tracer::span`] (timed, recorded on guard
//! drop), [`Tracer::instant`] (a point event) or [`Tracer::record_span_at`]
//! (a span whose start is back-dated, for lifecycles that began on another
//! thread). Records land in a bounded ring buffer sharded by thread:
//! recording never blocks on a reader and never reorders records written by
//! one thread — each record carries a global sequence number and the
//! writer's thread id, so within a thread both `seq` and `start_ns` are
//! monotone.
//!
//! When the tracer is **disabled** (the default for the process-global
//! [`tracer()`]), a span site costs one relaxed atomic load — no clock
//! read, no allocation, no lock — which is what lets the serving hot loop
//! stay permanently instrumented. The telemetry CI gate
//! (`bench/src/bin/telemetry_gate.rs`) holds that cost under 2 % of the
//! serving hot loop.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What a [`TraceRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A timed interval (`start_ns` + `dur_ns`).
    Span,
    /// A point event (`dur_ns` = 0).
    Instant,
}

/// One fixed-size trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global record sequence number (monotone per thread).
    pub seq: u64,
    /// Site name, e.g. `"stage.concurrent"`.
    pub name: &'static str,
    /// Category lane, e.g. `"exec"`, `"serve"`.
    pub cat: &'static str,
    /// Span or instant.
    pub kind: TraceKind,
    /// Start time in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
    /// Primary correlation id (request id, batch id, block index, …);
    /// meaning is per site.
    pub id: u64,
    /// Secondary payload (batch size, group count, …); meaning is per site.
    pub arg: u64,
}

/// Ring shards: recording threads map to shards by thread id, so two
/// threads contend on a shard lock only when they hash together — and
/// never with a reader for long (readers clone and release).
const SHARDS: usize = 16;

#[derive(Default)]
struct Ring {
    records: std::collections::VecDeque<TraceRecord>,
}

/// A bounded span/event recorder. See the [crate docs](crate).
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    seq: AtomicU64,
    per_shard_capacity: usize,
    shards: [Mutex<Ring>; SHARDS],
    dropped: AtomicU64,
}

/// Default total ring capacity of the process-global tracer, in records
/// (rings grow on demand, ≈ 90 bytes a record). A thread fills only its
/// own shard, a sixteenth of this: 16 384 records, sized so that a 20 s
/// traced run of batch-1 Inception inferences — ≈ 180 records each, about
/// 7 000 in all, every one written by the calling thread — loses none.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The recording thread's small dense id (assigned on first use).
fn current_tid() -> u64 {
    TID.with(|t| *t)
}

impl Tracer {
    /// A disabled tracer retaining at most `capacity` records (rounded up
    /// to a multiple of the shard count).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            shards: std::array::from_fn(|_| Mutex::new(Ring::default())),
            dropped: AtomicU64::new(0),
        }
    }

    /// Turns recording on or off. Span guards created while disabled stay
    /// inert even if the tracer is enabled before they drop (they took no
    /// start timestamp).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// Whether spans are currently recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracer's construction — the time base of
    /// every record.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a timed span; the interval ends (and the record is written)
    /// when the returned guard drops. When the tracer is disabled this
    /// costs one atomic load and returns an inert guard.
    #[must_use]
    pub fn span(&self, name: &'static str, cat: &'static str) -> Span<'_> {
        if self.is_enabled() {
            Span {
                tracer: Some(self),
                name,
                cat,
                id: 0,
                arg: 0,
                start_ns: self.now_ns(),
            }
        } else {
            Span {
                tracer: None,
                name,
                cat,
                id: 0,
                arg: 0,
                start_ns: 0,
            }
        }
    }

    /// Records a point event.
    pub fn instant(&self, name: &'static str, cat: &'static str, id: u64) {
        if self.is_enabled() {
            let start_ns = self.now_ns();
            self.push(name, cat, TraceKind::Instant, start_ns, 0, id, 0);
        }
    }

    /// Records a span whose start is back-dated — e.g. a request's queue
    /// wait, whose beginning was observed on the submitting thread but
    /// whose record is written at dispatch.
    pub fn record_span_at(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        dur_ns: u64,
        id: u64,
        arg: u64,
    ) {
        if self.is_enabled() {
            self.push(name, cat, TraceKind::Span, start_ns, dur_ns, id, arg);
        }
    }

    #[allow(clippy::too_many_arguments)] // private; mirrors TraceRecord's fields
    fn push(
        &self,
        name: &'static str,
        cat: &'static str,
        kind: TraceKind,
        start_ns: u64,
        dur_ns: u64,
        id: u64,
        arg: u64,
    ) {
        let tid = current_tid();
        let record = TraceRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            name,
            cat,
            kind,
            start_ns,
            dur_ns,
            tid,
            id,
            arg,
        };
        let mut shard = self.shards[(tid as usize) % SHARDS].lock();
        if shard.records.len() >= self.per_shard_capacity {
            shard.records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.records.push_back(record);
    }

    /// A copy of every retained record, sorted by `(start_ns, seq)`.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            out.extend(shard.records.iter().copied());
        }
        out.sort_by_key(|r| (r.start_ns, r.seq));
        out
    }

    /// Discards every retained record (counters keep running).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().records.clear();
        }
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// A live span: the interval from its creation to its drop. Inert (and
/// nearly free) when the tracer was disabled at creation.
pub struct Span<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    cat: &'static str,
    id: u64,
    arg: u64,
    start_ns: u64,
}

impl Span<'_> {
    /// Sets the span's correlation id (request, batch, block, …).
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Sets the span's secondary payload (batch size, group count, …).
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            let dur_ns = tracer.now_ns().saturating_sub(self.start_ns);
            tracer.push(
                self.name,
                self.cat,
                TraceKind::Span,
                self.start_ns,
                dur_ns,
                self.id,
                self.arg,
            );
        }
    }
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("live", &self.tracer.is_some())
            .finish()
    }
}

/// The process-global tracer every instrumentation site in the workspace
/// records against. Disabled by default; `ServeEngine` users (and the
/// `observe_demo` example) enable it around the window they want a trace
/// of, then export with [`crate::chrome_trace_json`].
#[must_use]
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::with_capacity(DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::with_capacity(64);
        {
            let mut span = t.span("noop", "test");
            span.set_id(1);
        }
        t.instant("noop", "test", 2);
        t.record_span_at("noop", "test", 0, 5, 3, 0);
        assert!(t.records().is_empty());
    }

    #[test]
    fn spans_record_on_drop_with_ids() {
        let t = Tracer::with_capacity(64);
        t.set_enabled(true);
        {
            let mut span = t.span("work", "test");
            span.set_id(42);
            span.set_arg(7);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let records = t.records();
        assert_eq!(records.len(), 1);
        let r = records[0];
        assert_eq!(r.name, "work");
        assert_eq!(r.cat, "test");
        assert_eq!(r.kind, TraceKind::Span);
        assert_eq!(r.id, 42);
        assert_eq!(r.arg, 7);
        assert!(r.dur_ns >= 1_000_000, "slept ≥ 1 ms, got {} ns", r.dur_ns);
    }

    #[test]
    fn guards_created_while_disabled_stay_inert() {
        let t = Tracer::with_capacity(64);
        let span = t.span("early", "test");
        t.set_enabled(true);
        drop(span);
        assert!(
            t.records().is_empty(),
            "a span that took no start timestamp must not record"
        );
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let t = Tracer::with_capacity(SHARDS); // one record per shard
        t.set_enabled(true);
        for i in 0..100 {
            t.instant("e", "test", i);
        }
        // All 100 came from one thread → one shard → capacity 1 survives.
        let records = t.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, 99, "the newest record survives");
        assert_eq!(t.dropped(), 99);
    }

    #[test]
    fn within_a_thread_records_never_reorder() {
        // All 500 records land on one thread → one shard, so size the ring
        // for a 500-record shard.
        let t = Tracer::with_capacity(500 * SHARDS);
        t.set_enabled(true);
        for i in 0..500 {
            t.instant("tick", "test", i);
        }
        let records = t.records();
        assert_eq!(records.len(), 500);
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(records.windows(2).all(|w| w[0].id < w[1].id));
        assert!(records.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }
}
