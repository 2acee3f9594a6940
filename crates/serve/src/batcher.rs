//! The dynamic batching queue, with per-tenant weighted-fair admission.
//!
//! Single-sample requests accumulate in per-tenant FIFO lanes; worker
//! threads take coalesced batches. A batch leaves as soon as `max_batch`
//! requests are queued (across all lanes). A partial batch leaves at once
//! when no batch is executing — on an idle engine a companion could only
//! delay it — and otherwise once the *oldest* queued request has waited
//! `max_wait` (or less when a deadline is near). A batch counts as
//! executing until the [`InFlight`] guard handed out with it drops. Under a
//! deep queue every dispatch is a full batch (maximum device efficiency);
//! under trickle load a lone request goes straight to an idle device.
//!
//! **Weighted-fair dequeue.** Lanes are drained by virtual-time weighted
//! fair queuing: each arrival is stamped with a virtual finish tag
//! (`start + 1/weight`, where `start` continues the lane's previous tag or
//! the queue's virtual clock, whichever is later), and the next request
//! popped is always the smallest head tag across lanes. A single tenant
//! degenerates to plain FIFO — tags ascend in arrival order — so the
//! single-tenant engine behaves exactly as before. With several tenants,
//! one tenant's burst cannot starve another's trickle: the burst only
//! advances its own lane's tags, and the trickle's next request keeps the
//! smallest tag.
//!
//! **Admission** happens entirely inside the queue lock, so every bound is
//! exact even with racing submitters:
//!
//! * **token buckets** — a tenant configured with a rate limit spends one
//!   token per accepted request ([`Refused::RateLimited`] when dry);
//! * **bounded admission** — a hard queue-depth capacity across all lanes;
//! * **tenant-aware shedding** — in shed mode each tenant may hold at most
//!   its weighted share `max(1, cap·w/W)` of the shed capacity (`W` = sum
//!   of weights of lanes with queued work, the submitter included), so the
//!   over-quota tenant is shed first while an under-share tenant is still
//!   admitted. With a single tenant the share equals the full capacity —
//!   the pre-tenant shed semantics.
//!
//! Two runtime-adaptation extensions ride on the same dispatch policy:
//!
//! * **deadline-aware flush** — when queued requests carry deadlines, the
//!   effective wait bound shrinks so the batch dispatches while the most
//!   urgent request still has `predicted_exec` of slack left (a full batch
//!   always dispatches immediately and therefore beats an imminent
//!   deadline flush). The tightest queued deadline is maintained
//!   incrementally (a multiset updated on push/drain), not rescanned per
//!   condvar wakeup;
//! * **bounded admission** above replaces nothing: `push` without a bound
//!   still serves the tests.

use crate::config::TenantConfig;
use crate::metrics::Count;
use crate::request::{Pending, TenantId};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Slack reserved on top of `predicted_exec` when a deadline tightens the
/// flush bound: covers condvar wakeup overshoot and batch assembly on a
/// loaded machine, so a deadline flush lands *before* the expiry check,
/// not in a race with it. A deadline closer than this dispatches
/// immediately.
const DISPATCH_MARGIN: Duration = Duration::from_millis(20);

/// A tenant's token-bucket rate limiter, refilled lazily from elapsed
/// wall clock on each offer. Mutated only under the queue lock, so token
/// accounting is exact under racing submitters.
#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    rate_per_sec: f64,
    burst: f64,
    refilled_at: Instant,
}

impl TokenBucket {
    fn new(rate_per_sec: f64, burst: f64) -> Self {
        TokenBucket {
            // Start full: a tenant's first burst up to `burst` is admitted.
            tokens: burst,
            rate_per_sec,
            burst,
            refilled_at: Instant::now(),
        }
    }

    /// Refills from the elapsed wall clock, then spends one token if
    /// available.
    fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now
            .saturating_duration_since(self.refilled_at)
            .as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate_per_sec).min(self.burst);
        self.refilled_at = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One tenant's FIFO sub-queue plus its WFQ and quota state. Lanes persist
/// once created (the virtual-time continuity and bucket level survive the
/// lane draining empty).
#[derive(Debug)]
struct TenantLane {
    /// Queued requests with their virtual finish tags, in arrival order.
    queue: VecDeque<(f64, Pending)>,
    /// Virtual finish tag of the lane's most recent arrival.
    last_finish: f64,
    weight: u32,
    bucket: Option<TokenBucket>,
}

impl TenantLane {
    fn from_config(config: &TenantConfig) -> Self {
        TenantLane {
            queue: VecDeque::new(),
            last_finish: 0.0,
            weight: config.weight,
            bucket: config
                .rate
                .map(|rate_per_sec| TokenBucket::new(rate_per_sec, config.burst)),
        }
    }
}

#[derive(Debug, Default)]
pub(crate) struct QueueState {
    /// Per-tenant lanes, keyed by tenant id (ordered, so iteration — and
    /// therefore WFQ tie-breaking — is deterministic).
    lanes: BTreeMap<TenantId, TenantLane>,
    /// The WFQ virtual clock: the largest finish tag dispatched so far.
    /// Newly active lanes start from here, so an idle tenant cannot bank
    /// credit while away.
    virtual_clock: f64,
    /// Requests queued across all lanes.
    total: usize,
    /// Multiset of queued deadlines: the tightest is `first_key_value()`,
    /// maintained on push/drain instead of rescanned per condvar wakeup.
    deadlines: BTreeMap<Instant, u32>,
    /// Batches handed out whose [`InFlight`] guard has not dropped yet.
    in_flight: usize,
    closed: bool,
}

impl QueueState {
    /// Stamps the request with its virtual finish tag and queues it on its
    /// tenant's lane. The lane must already exist.
    fn enqueue(&mut self, pending: Pending) {
        let lane = self.lanes.get_mut(&pending.tenant).expect("lane exists");
        let start = self.virtual_clock.max(lane.last_finish);
        let finish = start + 1.0 / f64::from(lane.weight);
        lane.last_finish = finish;
        if let Some(deadline) = pending.deadline {
            *self.deadlines.entry(deadline).or_insert(0) += 1;
        }
        lane.queue.push_back((finish, pending));
        self.total += 1;
    }

    /// Pops the request with the smallest head finish tag across lanes
    /// (ties break toward the lexicographically first tenant).
    fn pop_next(&mut self) -> Option<Pending> {
        let mut next: Option<(TenantId, f64)> = None;
        for (tenant, lane) in &self.lanes {
            if let Some((finish, _)) = lane.queue.front() {
                if next.as_ref().is_none_or(|(_, best)| *finish < *best) {
                    next = Some((tenant.clone(), *finish));
                }
            }
        }
        let (tenant, finish) = next?;
        let lane = self.lanes.get_mut(&tenant).expect("lane exists");
        let (_, pending) = lane.queue.pop_front().expect("non-empty lane");
        self.virtual_clock = self.virtual_clock.max(finish);
        if let Some(deadline) = pending.deadline {
            if let Some(count) = self.deadlines.get_mut(&deadline) {
                *count -= 1;
                if *count == 0 {
                    self.deadlines.remove(&deadline);
                }
            }
        }
        self.total -= 1;
        Some(pending)
    }

    fn drain(&mut self, max_batch: usize) -> Vec<Pending> {
        let take = self.total.min(max_batch);
        (0..take).filter_map(|_| self.pop_next()).collect()
    }

    /// Enqueue time of the oldest queued request (each lane is FIFO, so
    /// the global oldest is the oldest lane head).
    fn oldest_enqueued(&self) -> Option<Instant> {
        self.lanes
            .values()
            .filter_map(|lane| lane.queue.front().map(|(_, p)| p.enqueued_at))
            .min()
    }

    /// The tightest queued deadline, from the incremental multiset.
    fn min_deadline(&self) -> Option<Instant> {
        self.deadlines
            .first_key_value()
            .map(|(deadline, _)| *deadline)
    }

    /// `tenant`'s share of a shed-mode capacity: `max(1, cap·w/W)` over
    /// the lanes with queued work (the submitter counts as active even
    /// with an empty lane). A lone tenant's share is the full capacity.
    fn tenant_share(&self, tenant: &TenantId, capacity: usize) -> usize {
        let mut weight_total: u64 = 0;
        let mut weight_self: u64 = 0;
        for (id, lane) in &self.lanes {
            if !lane.queue.is_empty() || id == tenant {
                weight_total += u64::from(lane.weight);
                if id == tenant {
                    weight_self = u64::from(lane.weight);
                }
            }
        }
        if weight_total == 0 {
            return capacity.max(1);
        }
        usize::try_from((capacity as u64 * weight_self) / weight_total)
            .unwrap_or(capacity)
            .max(1)
    }
}

/// Why the queue refused an offered request. The request is handed back
/// with the reason, so admission can finish it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The queue is closed (engine shutting down).
    Closed,
    /// The queue (or, in shed mode, the tenant's weighted share of it) is
    /// at its admission capacity.
    Full,
    /// The tenant's token bucket is dry.
    RateLimited,
}

/// The rule that released a batch: `max_batch` queued, no batch
/// executing, `max_wait` run out behind an executing batch, a deadline
/// flush, or the queue closing — in the order of [`TRIGGERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trigger {
    Full,
    Idle,
    Wait,
    Deadline,
    Close,
}

/// Each [`Trigger`]'s `trigger` label in `ios_batch_dispatch_total`.
pub(crate) const TRIGGERS: [&str; 5] = ["full", "idle", "wait", "deadline", "close"];

/// A batch the queue handed out, counted as executing until this drops —
/// after the batch's run or the panic guard that caught it, so the count
/// cannot leak.
#[must_use]
pub(crate) struct InFlight<'a> {
    queue: &'a BatchQueue,
    pub trigger: Trigger,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // Never panic here: the guard may drop while a panic unwinds.
        let queue = self.queue;
        let mut state = queue.state.lock();
        state.in_flight -= 1;
        // The engine just went idle: a queued partial batch has nothing
        // left to wait for.
        if state.in_flight == 0 && state.total > 0 {
            queue.available.notify_one();
        }
    }
}

/// A thread-safe dynamic batching queue with per-tenant weighted-fair
/// admission.
#[derive(Debug, Default)]
pub(crate) struct BatchQueue {
    pub(crate) state: Mutex<QueueState>,
    available: Condvar,
    tenants: BTreeMap<String, TenantConfig>,
}

impl BatchQueue {
    #[cfg(test)]
    pub fn new() -> Self {
        BatchQueue::default()
    }

    /// A queue admitting per the given tenant configuration (weights, rate
    /// limits); unknown tenants get [`TenantConfig::default`].
    pub fn with_tenants(tenants: BTreeMap<String, TenantConfig>) -> Self {
        BatchQueue {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            tenants,
        }
    }

    /// Enqueues a request. Returns `false` (dropping the request) if the
    /// queue is closed. (The engine always offers through
    /// [`BatchQueue::push_bounded`]; this unbounded form serves the tests.)
    #[cfg(test)]
    pub fn push(&self, pending: Pending) -> bool {
        self.push_bounded(pending, None, false, &Count::default())
            .is_ok()
    }

    /// Offers a request subject to the tenant's token bucket and an
    /// optional depth capacity. Every check happens under the queue lock,
    /// so the bounds are exact even with racing submitters.
    ///
    /// With `shedding` set, the capacity is applied per tenant as a
    /// weighted share (see [`QueueState::tenant_share`]) instead of as one
    /// shared total, so the over-quota tenant is rejected first.
    ///
    /// An open queue takes every offer on — to enqueue it or to hand it
    /// back for admission to finish as shed — and counts it into
    /// `taken_on` right there: under the lock, so ahead of any worker
    /// handing the request out and of any outcome, and never for an offer
    /// a closed queue turns away.
    ///
    /// A refused request comes back by value for admission to finish;
    /// boxing it would put an allocation on every shed.
    #[allow(clippy::result_large_err)]
    pub fn push_bounded(
        &self,
        pending: Pending,
        capacity: Option<usize>,
        shedding: bool,
        taken_on: &Count,
    ) -> Result<(), (Refused, Pending)> {
        let mut state = self.state.lock();
        if state.closed {
            return Err((Refused::Closed, pending));
        }
        taken_on.add(1);
        if !state.lanes.contains_key(&pending.tenant) {
            let config = self.tenants.get(pending.tenant.name()).cloned();
            let lane = TenantLane::from_config(&config.unwrap_or_default());
            state.lanes.insert(pending.tenant.clone(), lane);
        }
        if let Some(cap) = capacity {
            if shedding {
                let share = state.tenant_share(&pending.tenant, cap);
                let queued = state.lanes[&pending.tenant].queue.len();
                if queued >= share {
                    return Err((Refused::Full, pending));
                }
            } else if state.total >= cap {
                return Err((Refused::Full, pending));
            }
        }
        let now = Instant::now();
        let lane = state.lanes.get_mut(&pending.tenant).expect("lane exists");
        if let Some(bucket) = &mut lane.bucket {
            if !bucket.try_take(now) {
                return Err((Refused::RateLimited, pending));
            }
        }
        state.enqueue(pending);
        // Wake one worker; it re-checks the batching condition itself.
        self.available.notify_one();
        Ok(())
    }

    /// Number of requests currently queued, across all tenants.
    pub fn depth(&self) -> usize {
        self.state.lock().total
    }

    /// Closes the queue: pending requests are still handed out, further
    /// `push` calls are rejected, and workers receive `None` once drained.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Takes the next batch according to the dispatch rule, with the guard
    /// that counts it as executing, or `None` when the queue is closed and
    /// drained.
    ///
    /// Blocks while the queue is empty (and open). A partial batch blocks
    /// only while another batch is in flight, and then only while it is
    /// still inside the oldest request's `max_wait` window *and* no queued
    /// request's deadline is closer than `predicted_exec`, the caller's
    /// estimate of assembly + device time for the batch about to form. A
    /// request with deadline `d` must dispatch by `d - predicted_exec` to
    /// have any chance of completing in time, so the most urgent such bound
    /// tightens the flush deadline. A full batch still dispatches
    /// immediately: at exactly `max_batch` queued the deadline machinery is
    /// never consulted.
    pub fn next_batch(
        &self,
        max_batch: usize,
        max_wait: Duration,
        predicted_exec: Duration,
    ) -> Option<(Vec<Pending>, InFlight<'_>)> {
        // The span covers the whole wait: on a trace timeline it is the
        // gap between a worker going idle and its next batch forming.
        let mut span = ios_telemetry::tracer().span("batcher.next_batch", "serve");
        let dispatch = self.wait_for_batch(max_batch, max_wait, predicted_exec);
        if let Some((batch, _)) = &dispatch {
            span.set_arg(batch.len() as u64);
        }
        dispatch
    }

    fn wait_for_batch(
        &self,
        max_batch: usize,
        max_wait: Duration,
        predicted_exec: Duration,
    ) -> Option<(Vec<Pending>, InFlight<'_>)> {
        let mut state = self.state.lock();
        let trigger = loop {
            if state.total >= max_batch {
                break Trigger::Full;
            }
            if state.closed {
                if state.total == 0 {
                    return None;
                }
                break Trigger::Close;
            }
            let Some(oldest) = state.oldest_enqueued() else {
                state = self.available.wait(state);
                continue;
            };
            if state.in_flight == 0 {
                break Trigger::Idle;
            }
            let mut flush = (oldest + max_wait, Trigger::Wait);
            // The tightest queued deadline may be closer than the oldest
            // request's wait bound; dispatch early enough that it still has
            // predicted_exec of slack, plus a fixed margin for condvar
            // wakeup and assembly jitter — without it a cold engine
            // (predicted_exec zero) would flush a lone request exactly at
            // its deadline and lose the race against its own expiry check.
            // The minimum is maintained incrementally on push/drain, not
            // rescanned per wakeup.
            if let Some(deadline) = state.min_deadline() {
                let reserve = predicted_exec + DISPATCH_MARGIN;
                let by_deadline = deadline.checked_sub(reserve).unwrap_or_else(Instant::now);
                if by_deadline < flush.0 {
                    flush = (by_deadline, Trigger::Deadline);
                }
            }
            let now = Instant::now();
            if now >= flush.0 {
                break flush.1;
            }
            state = self.available.wait_timeout(state, flush.0 - now).0;
        };
        state.in_flight += 1;
        let batch = state.drain(max_batch);
        Some((
            batch,
            InFlight {
                queue: self,
                trigger,
            },
        ))
    }

    /// The incrementally-maintained tightest queued deadline (test hook).
    #[cfg(test)]
    fn min_deadline_incremental(&self) -> Option<Instant> {
        self.state.lock().min_deadline()
    }

    /// The tightest queued deadline recomputed by a full scan — the
    /// reference the incremental multiset must agree with (test hook).
    #[cfg(test)]
    fn min_deadline_scan(&self) -> Option<Instant> {
        let state = self.state.lock();
        state
            .lanes
            .values()
            .flat_map(|lane| lane.queue.iter().filter_map(|(_, p)| p.deadline))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Outcome, RequestId};
    use ios_backend::TensorData;
    use ios_ir::TensorShape;
    use std::sync::mpsc;
    use std::time::Duration;

    fn pending(id: u64) -> (Pending, mpsc::Receiver<Outcome>) {
        pending_with_deadline(id, None)
    }

    fn pending_for(id: u64, tenant: &str) -> (Pending, mpsc::Receiver<Outcome>) {
        let (mut p, rx) = pending(id);
        p.tenant = TenantId::from(tenant);
        (p, rx)
    }

    fn pending_with_deadline(
        id: u64,
        deadline: Option<Instant>,
    ) -> (Pending, mpsc::Receiver<Outcome>) {
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            id: RequestId(id),
            tenant: TenantId::default_tenant(),
            input: TensorData::zeros(TensorShape::new(1, 1, 1, 1)),
            enqueued_at: Instant::now(),
            deadline,
            tenant_metrics: Default::default(),
            respond_to: tx,
        };
        (pending, rx)
    }

    /// The queue's verdict on an offer (a refused request is dropped).
    fn offer(
        queue: &BatchQueue,
        pending: Pending,
        capacity: Option<usize>,
        shedding: bool,
    ) -> Result<(), Refused> {
        queue
            .push_bounded(pending, capacity, shedding, &Count::default())
            .map_err(|(why, _)| why)
    }

    const NO_EXEC: Duration = Duration::ZERO;

    /// Hands out a first batch and keeps it executing: the in-flight batch
    /// a partial batch waits behind.
    fn hold_in_flight(queue: &BatchQueue) -> InFlight<'_> {
        let (p, _rx) = pending(u64::MAX);
        assert!(queue.push(p));
        let (_, in_flight) = queue
            .next_batch(1, Duration::from_secs(60), NO_EXEC)
            .expect("open queue");
        in_flight
    }

    /// A worker thread's next batch and the rule that released it (the
    /// guard drops on the worker).
    fn take_on_a_worker(
        queue: &std::sync::Arc<BatchQueue>,
        max_wait: Duration,
    ) -> std::thread::JoinHandle<Option<(Vec<Pending>, Trigger)>> {
        let queue = std::sync::Arc::clone(queue);
        std::thread::spawn(move || {
            queue
                .next_batch(8, max_wait, NO_EXEC)
                .map(|(batch, in_flight)| (batch, in_flight.trigger))
        })
    }

    #[test]
    fn full_batch_dispatches_immediately() {
        let queue = BatchQueue::new();
        let mut receivers = Vec::new();
        for i in 0..5 {
            let (p, rx) = pending(i);
            assert!(queue.push(p));
            receivers.push(rx);
        }
        let (batch, in_flight) = queue
            .next_batch(4, Duration::from_secs(60), NO_EXEC)
            .expect("open queue");
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].id, RequestId(0));
        assert_eq!(in_flight.trigger, Trigger::Full);
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn partial_batch_waits_for_the_deadline() {
        let queue = BatchQueue::new();
        let _held = hold_in_flight(&queue);
        let (p, _rx) = pending(0);
        queue.push(p);
        let start = Instant::now();
        let (batch, in_flight) = queue
            .next_batch(8, Duration::from_millis(30), NO_EXEC)
            .expect("open queue");
        assert_eq!(batch.len(), 1);
        assert_eq!(in_flight.trigger, Trigger::Wait);
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "dispatched after {:?}, before the wait bound",
            start.elapsed()
        );
    }

    #[test]
    fn an_idle_queue_hands_a_lone_request_out_at_once() {
        let queue = BatchQueue::new();
        let (p, _rx) = pending(0);
        queue.push(p);
        let start = Instant::now();
        let (batch, in_flight) = queue
            .next_batch(8, Duration::from_secs(60), NO_EXEC)
            .expect("open queue");
        assert_eq!(batch.len(), 1);
        assert_eq!(in_flight.trigger, Trigger::Idle);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "no batch was executing, yet the lone request waited out max_wait"
        );
    }

    #[test]
    fn a_partial_batch_waits_while_any_handed_out_batch_still_executes() {
        // The queue counts batches, not a busy flag: with two batches
        // handed out, one of them finishing leaves the engine busy.
        let queue = BatchQueue::new();
        let _held = hold_in_flight(&queue);
        for round in 0..2 {
            let (p, _rx) = pending(round);
            queue.push(p);
            let start = Instant::now();
            let (batch, in_flight) = queue
                .next_batch(8, Duration::from_millis(30), NO_EXEC)
                .expect("open queue");
            assert_eq!((batch.len(), in_flight.trigger), (1, Trigger::Wait));
            assert!(
                start.elapsed() >= Duration::from_millis(25),
                "round {round}: dispatched after {:?} with a batch in flight",
                start.elapsed()
            );
        }
    }

    #[test]
    fn dropping_the_held_guard_dispatches_a_queued_partial_batch_at_once() {
        let queue = std::sync::Arc::new(BatchQueue::new());
        let held = hold_in_flight(&queue);
        let worker = take_on_a_worker(&queue, Duration::from_secs(60));
        let (p, _rx) = pending(0);
        assert!(queue.push(p));
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !worker.is_finished(),
            "a partial batch left while another batch was executing"
        );
        let start = Instant::now();
        drop(held);
        let (batch, trigger) = worker.join().expect("worker").expect("open queue");
        assert_eq!((batch.len(), trigger), (1, Trigger::Idle));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the guard's drop must wake the waiting worker, not max_wait"
        );
    }

    #[test]
    fn lone_request_flushes_on_its_deadline_while_a_worker_waits() {
        // The deadline flush with a *blocked* worker: the worker is already
        // waiting inside `next_batch` when the single request arrives, and
        // must wake on the push, sleep out the request's own deadline, and
        // dispatch a batch of exactly one.
        let queue = std::sync::Arc::new(BatchQueue::new());
        let _held = hold_in_flight(&queue);
        let worker = take_on_a_worker(&queue, Duration::from_millis(25));
        std::thread::sleep(Duration::from_millis(15));
        let start = Instant::now();
        let (p, _rx) = pending(0);
        assert!(queue.push(p));
        let (batch, trigger) = worker.join().expect("worker").expect("open queue");
        assert_eq!((batch.len(), trigger), (1, Trigger::Wait));
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(20),
            "the deadline is measured from the request's enqueue ({waited:?})"
        );
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn exact_max_batch_boundary_dispatches_immediately_and_exactly() {
        let queue = BatchQueue::new();
        let mut receivers = Vec::new();
        for i in 0..4 {
            let (p, rx) = pending(i);
            assert!(queue.push(p));
            receivers.push(rx);
        }
        // Exactly max_batch queued: dispatch now (the 60 s deadline must
        // not be involved), exactly max_batch handed out, nothing left.
        let start = Instant::now();
        let (batch, _) = queue
            .next_batch(4, Duration::from_secs(60), NO_EXEC)
            .expect("open queue");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a full batch must not wait for the deadline"
        );
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.last().unwrap().id, RequestId(3));
        assert_eq!(queue.depth(), 0, "exactly the boundary: queue drained");
        // One more request: it alone must not ride along retroactively.
        let (p, _rx) = pending(4);
        queue.push(p);
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn close_flushes_queued_requests_without_waiting_for_deadlines() {
        // Shutdown with requests still queued: the close must hand them
        // out immediately (no 60 s deadline hang) as one final batch.
        let queue = std::sync::Arc::new(BatchQueue::new());
        let _held = hold_in_flight(&queue);
        let worker = take_on_a_worker(&queue, Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(10));
        let mut receivers = Vec::new();
        for i in 0..3 {
            let (p, rx) = pending(i);
            assert!(queue.push(p));
            receivers.push(rx);
        }
        let start = Instant::now();
        queue.close();
        let (batch, trigger) = worker.join().expect("worker").expect("drains before None");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "close must flush immediately, not wait out the deadline"
        );
        assert_eq!((batch.len(), trigger), (3, Trigger::Close));
        assert!(queue
            .next_batch(8, Duration::from_secs(60), NO_EXEC)
            .is_none());
    }

    #[test]
    fn close_drains_then_stops() {
        let queue = BatchQueue::new();
        let (p, _rx) = pending(0);
        queue.push(p);
        queue.close();
        let (batch, _) = queue
            .next_batch(8, Duration::from_secs(60), NO_EXEC)
            .expect("drains first");
        assert_eq!(batch.len(), 1);
        assert!(queue
            .next_batch(8, Duration::from_secs(60), NO_EXEC)
            .is_none());
        let (p, _rx) = pending(1);
        assert!(!queue.push(p), "closed queue rejects new requests");
    }

    #[test]
    fn blocked_worker_wakes_on_close() {
        let queue = std::sync::Arc::new(BatchQueue::new());
        let worker = take_on_a_worker(&queue, Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert!(worker.join().expect("worker").is_none());
    }

    #[test]
    fn request_deadline_tightens_the_flush_bound() {
        // One queued request whose deadline (150 ms out, with 10 ms of
        // predicted exec) is far tighter than the 60 s max_wait: the batch
        // must flush at deadline - predicted_exec - margin, not at
        // max_wait.
        let queue = BatchQueue::new();
        let _held = hold_in_flight(&queue);
        let (p, _rx) = pending_with_deadline(0, Some(Instant::now() + Duration::from_millis(150)));
        queue.push(p);
        let start = Instant::now();
        let (batch, in_flight) = queue
            .next_batch(8, Duration::from_secs(60), Duration::from_millis(10))
            .expect("open queue");
        assert_eq!((batch.len(), in_flight.trigger), (1, Trigger::Deadline));
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(60) && waited < Duration::from_secs(5),
            "flushed at deadline - predicted_exec - margin, got {waited:?}"
        );
    }

    #[test]
    fn already_expired_deadline_flushes_immediately() {
        // A request whose slack is already gone must not make the worker
        // wait at all; expiry itself is handled downstream at assembly.
        let queue = BatchQueue::new();
        let _held = hold_in_flight(&queue);
        let (p, _rx) = pending_with_deadline(0, Some(Instant::now() - Duration::from_millis(5)));
        queue.push(p);
        let start = Instant::now();
        let (batch, in_flight) = queue
            .next_batch(8, Duration::from_secs(60), Duration::from_millis(10))
            .expect("open queue");
        assert_eq!((batch.len(), in_flight.trigger), (1, Trigger::Deadline));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "expired deadline must flush without waiting"
        );
    }

    #[test]
    fn exact_max_batch_arrival_beats_an_imminent_deadline_flush() {
        // max_batch requests are queued and the oldest carries a deadline
        // about to force a flush: the full-batch condition wins — the
        // dispatch is a full batch of max_batch, immediately, and the
        // deadline never truncates it to a partial batch.
        let queue = BatchQueue::new();
        let mut receivers = Vec::new();
        let (p, rx) = pending_with_deadline(0, Some(Instant::now() + Duration::from_millis(30)));
        queue.push(p);
        receivers.push(rx);
        for i in 1..4 {
            let (p, rx) = pending(i);
            assert!(queue.push(p));
            receivers.push(rx);
        }
        let start = Instant::now();
        let (batch, _) = queue
            .next_batch(4, Duration::from_secs(60), Duration::from_millis(25))
            .expect("open queue");
        assert_eq!(batch.len(), 4, "the full batch dispatches whole");
        assert!(
            start.elapsed() < Duration::from_millis(20),
            "a full batch dispatches immediately, not on the deadline flush"
        );
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn bounded_push_is_exact_under_racing_submitters() {
        // 8 threads race 25 offers each at a capacity-10 queue with no
        // consumer. Exactly 10 are accepted and the rest are Full —
        // the bound is enforced under the queue lock, not approximately.
        let queue = std::sync::Arc::new(BatchQueue::new());
        let accepted = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let full = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let queue = std::sync::Arc::clone(&queue);
                let accepted = std::sync::Arc::clone(&accepted);
                let full = std::sync::Arc::clone(&full);
                scope.spawn(move || {
                    for i in 0..25 {
                        let (p, _rx) = pending(t * 100 + i);
                        match offer(&queue, p, Some(10), false) {
                            Ok(()) => accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                            Err(Refused::Full) => {
                                full.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                            }
                            Err(Refused::Closed) | Err(Refused::RateLimited) => {
                                panic!("queue is open and unlimited")
                            }
                        };
                    }
                });
            }
        });
        let accepted = accepted.load(std::sync::atomic::Ordering::Relaxed);
        let full = full.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(accepted, 10, "exactly capacity requests admitted");
        assert_eq!(accepted + full, 200, "every offer got a verdict");
        assert_eq!(queue.depth(), 10);
    }

    fn two_tenant_queue(alpha_weight: u32, beta_weight: u32) -> BatchQueue {
        let weighted = |weight| TenantConfig {
            weight,
            ..TenantConfig::default()
        };
        BatchQueue::with_tenants(BTreeMap::from([
            ("alpha".to_string(), weighted(alpha_weight)),
            ("beta".to_string(), weighted(beta_weight)),
        ]))
    }

    /// A queue whose tenant `limited` holds `burst` tokens and (practically)
    /// never refills.
    fn rate_limited_queue(burst: f64) -> BatchQueue {
        let limited = TenantConfig {
            rate: Some(1e-9),
            burst,
            ..TenantConfig::default()
        };
        BatchQueue::with_tenants(BTreeMap::from([("limited".to_string(), limited)]))
    }

    #[test]
    fn wfq_interleaves_equal_weight_tenants_despite_a_burst() {
        // Tenant alpha bursts 6 requests before beta's 2 arrive; dequeue
        // must still alternate while both lanes have work — beta's trickle
        // is not stuck behind alpha's burst.
        let queue = two_tenant_queue(1, 1);
        let mut receivers = Vec::new();
        for i in 0..6 {
            let (p, rx) = pending_for(i, "alpha");
            assert_eq!(offer(&queue, p, None, false), Ok(()));
            receivers.push(rx);
        }
        for i in 10..12 {
            let (p, rx) = pending_for(i, "beta");
            assert_eq!(offer(&queue, p, None, false), Ok(()));
            receivers.push(rx);
        }
        let (batch, _) = queue
            .next_batch(8, Duration::from_secs(60), NO_EXEC)
            .expect("open queue");
        let order: Vec<u64> = batch.iter().map(|p| p.id.0).collect();
        assert_eq!(
            order,
            vec![0, 10, 1, 11, 2, 3, 4, 5],
            "equal weights alternate while both lanes are busy"
        );
    }

    #[test]
    fn wfq_serves_tenants_in_proportion_to_their_weights() {
        // alpha weight 3, beta weight 1, both keep 8 queued: a full batch
        // of 8 carries 6 alpha and 2 beta requests.
        let queue = two_tenant_queue(3, 1);
        let mut receivers = Vec::new();
        for i in 0..8 {
            let (p, rx) = pending_for(i, "alpha");
            assert!(offer(&queue, p, None, false).is_ok());
            receivers.push(rx);
            let (p, rx) = pending_for(100 + i, "beta");
            assert!(offer(&queue, p, None, false).is_ok());
            receivers.push(rx);
        }
        let (batch, _) = queue
            .next_batch(8, Duration::from_secs(60), NO_EXEC)
            .expect("open queue");
        let alpha = batch.iter().filter(|p| p.tenant.name() == "alpha").count();
        let beta = batch.iter().filter(|p| p.tenant.name() == "beta").count();
        assert_eq!((alpha, beta), (6, 2), "3:1 weights → 6:2 of a batch of 8");
        // Within each tenant the order is still FIFO.
        let alpha_ids: Vec<u64> = batch
            .iter()
            .filter(|p| p.tenant.name() == "alpha")
            .map(|p| p.id.0)
            .collect();
        assert_eq!(alpha_ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_tenant_wfq_degenerates_to_fifo() {
        let queue = BatchQueue::new();
        let mut receivers = Vec::new();
        for i in 0..10 {
            let (p, rx) = pending(i);
            queue.push(p);
            receivers.push(rx);
        }
        let (batch, _) = queue
            .next_batch(10, Duration::from_secs(60), NO_EXEC)
            .expect("open queue");
        let order: Vec<u64> = batch.iter().map(|p| p.id.0).collect();
        assert_eq!(order, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn token_bucket_is_exact_under_racing_submitters() {
        // A tenant with burst 5 and a (practically) zero refill rate: 8
        // threads race 10 offers each; exactly 5 are admitted, the rest
        // are RateLimited — token accounting under the queue lock.
        let queue = std::sync::Arc::new(rate_limited_queue(5.0));
        let accepted = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let limited = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let queue = std::sync::Arc::clone(&queue);
                let accepted = std::sync::Arc::clone(&accepted);
                let limited = std::sync::Arc::clone(&limited);
                scope.spawn(move || {
                    for i in 0..10 {
                        let (p, _rx) = pending_for(t * 100 + i, "limited");
                        match offer(&queue, p, None, false) {
                            Ok(()) => accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                            Err(Refused::RateLimited) => {
                                limited.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                            }
                            other => panic!("unexpected verdict {other:?}"),
                        };
                    }
                });
            }
        });
        let accepted = accepted.load(std::sync::atomic::Ordering::Relaxed);
        let limited = limited.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(accepted, 5, "exactly the burst is admitted");
        assert_eq!(accepted + limited, 80, "every offer got a verdict");
        assert_eq!(queue.depth(), 5);
    }

    #[test]
    fn rate_limit_only_throttles_its_own_tenant() {
        let queue = rate_limited_queue(2.0);
        let mut receivers = Vec::new();
        for i in 0..5 {
            let (p, rx) = pending_for(i, "limited");
            let verdict = offer(&queue, p, None, false);
            receivers.push(rx);
            if i < 2 {
                assert_eq!(verdict, Ok(()));
            } else {
                assert_eq!(verdict, Err(Refused::RateLimited));
            }
        }
        for i in 10..15 {
            let (p, rx) = pending_for(i, "free");
            assert_eq!(offer(&queue, p, None, false), Ok(()));
            receivers.push(rx);
        }
        assert_eq!(queue.depth(), 7);
    }

    #[test]
    fn shed_mode_limits_each_tenant_to_its_weighted_share() {
        // Shed capacity 4, equal weights. Alpha alone may fill the whole
        // capacity (single-tenant share = cap, the pre-tenant semantics);
        // once beta queues work, each tenant's share is 2 — beta still
        // gets its slice in, and over-share alpha is the one rejected.
        let queue = two_tenant_queue(1, 1);
        let mut receivers = Vec::new();
        for i in 0..4 {
            let (p, rx) = pending_for(i, "alpha");
            assert_eq!(offer(&queue, p, Some(4), true), Ok(()));
            receivers.push(rx);
        }
        // Beta's share is max(1, 4·1/2) = 2: two in, the third rejected.
        for i in 10..12 {
            let (p, rx) = pending_for(i, "beta");
            assert_eq!(offer(&queue, p, Some(4), true), Ok(()));
            receivers.push(rx);
        }
        let (p, _rx) = pending_for(12, "beta");
        assert_eq!(offer(&queue, p, Some(4), true), Err(Refused::Full));
        // Alpha is over its share of 2 now that beta is active.
        let (p, _rx) = pending_for(4, "alpha");
        assert_eq!(offer(&queue, p, Some(4), true), Err(Refused::Full));
        assert_eq!(queue.depth(), 6);
    }

    #[test]
    fn incremental_min_deadline_matches_a_scan_on_randomized_push_drain() {
        // Randomized push/drain sequences over three tenants with a mix of
        // deadline-free and deadline-carrying requests: after every
        // operation the incrementally-maintained minimum deadline must
        // equal a full scan over all lanes.
        let queue = BatchQueue::new();
        let base = Instant::now();
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // xorshift64*: deterministic, no external crates.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng = rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
            rng
        };
        let mut receivers = Vec::new();
        for op in 0..2000u64 {
            let r = next();
            if r % 100 < 70 {
                let tenant = ["alpha", "beta", "gamma"][(r / 100 % 3) as usize];
                let deadline = if r % 2 == 0 {
                    Some(base + Duration::from_millis(next() % 10_000))
                } else {
                    None
                };
                let (mut p, rx) = pending_with_deadline(op, deadline);
                p.tenant = TenantId::from(tenant);
                assert!(offer(&queue, p, None, false).is_ok());
                receivers.push(rx);
            } else {
                let take = (r / 1000 % 4) as usize + 1;
                let mut state = queue.state.lock();
                let _ = state.drain(take);
            }
            assert_eq!(
                queue.min_deadline_incremental(),
                queue.min_deadline_scan(),
                "incremental min deadline diverged from the scan at op {op}"
            );
        }
    }
}
