//! The five stages a request passes through — **admit → assemble →
//! resolve → execute → respond** — and the one place it finishes.
//!
//! [`Shared::admit`] offers the request to the batching queue; the batcher
//! ([`crate::batcher`]) assembles the batch; [`Shared::run_batch`] takes it
//! through resolve ([`Shared::resolve_schedule`], in [`crate::cache`]),
//! execute and respond. Every terminal outcome — shed at admission, expired
//! at assembly, answered by respond, failed in the worker's panic guard —
//! goes through [`Shared::finish`], which is therefore where the identity
//! `submitted = completed + shed + deadline_expired + failed + in_flight`
//! is kept.

use crate::batcher::Refused;
use crate::engine::Shared;
use crate::exec::BatchContext;
use crate::request::{
    InferenceResponse, Pending, Rejected, RequestId, ResponseHandle, ResponseLease, ScheduleSource,
    ServeError, TenantId,
};
use ios_backend::{stack_batch_pooled, TensorData};
use ios_core::NetworkSchedule;
use ios_ir::TensorShape;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A batch after the execute stage: what every member's response reports,
/// plus the stacked outputs still to be split.
struct Executed {
    /// Tracer correlation id: every span and instant of this batch's
    /// lifecycle carries it.
    batch_id: u64,
    batch_size: usize,
    /// End of every member's queue wait.
    dispatched_at: Instant,
    source: ScheduleSource,
    /// Each member's share of the batch's device time, µs.
    device_share_us: f64,
    /// One stacked tensor per network output; `None` from backends that
    /// compute no numerics.
    outputs: Option<Vec<TensorData>>,
}

impl Shared {
    /// **Admit**: validates the request, resolves its tenant's counters
    /// once, and offers it to the queue under the current admission bounds.
    pub(crate) fn admit(
        &self,
        tenant: TenantId,
        input: TensorData,
        budget: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        if input.shape != self.sample_shape {
            return Err(ServeError::WrongInputShape {
                expected: self.sample_shape,
                submitted: input.shape,
            });
        }
        let id = RequestId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (respond_to, receiver) = mpsc::channel();
        let enqueued_at = Instant::now();
        let pending = Pending {
            id,
            tenant_metrics: self.metrics.tenant(&tenant),
            tenant,
            input,
            enqueued_at,
            deadline: budget.map(|b| enqueued_at + b),
            respond_to,
        };
        let (capacity, shedding) = self.admission();
        // The queue counts the submission as it takes the offer on, under
        // its lock: a worker may finish the request before this thread runs
        // again, and no outcome may be counted ahead of its submission.
        let submitted = &self.metrics.submitted;
        match self
            .queue
            .push_bounded(pending, capacity, shedding, submitted)
        {
            Ok(()) => {}
            // The engine never took the request on: not a submission.
            Err((Refused::Closed, _)) => return Err(ServeError::ShuttingDown),
            Err((Refused::Full | Refused::RateLimited, pending)) => {
                // The caller gets this outcome as the return value: with no
                // receiver left, the send in `finish` allocates nothing.
                drop(receiver);
                self.finish(pending, Err(Rejected::Shed));
                return Err(ServeError::Rejected(Rejected::Shed));
            }
        }
        ios_telemetry::tracer().instant("request.enqueue", "request", id.0);
        self.metrics.queue_depth.set(self.queue.depth() as u64);
        Ok(ResponseHandle { id, receiver })
    }

    /// The admission inputs for the next offer: the effective queue
    /// capacity — the configured hard bound, tightened to one batch's
    /// worth of requests while the controller has shed mode engaged
    /// (queued work keeps the device fed; everything beyond it would only
    /// queue-wait past the budget) — and whether shed mode is on. In shed
    /// mode the queue applies the capacity per tenant as a weighted share,
    /// so the over-quota tenant is the one shed.
    fn admission(&self) -> (Option<usize>, bool) {
        let configured = self.config.adapt.admission_capacity;
        if self.adapt.shedding() {
            let shed_cap = self.config.max_batch;
            (Some(configured.map_or(shed_cap, |c| c.min(shed_cap))), true)
        } else {
            (configured, false)
        }
    }

    /// The one place a request reaches its terminal outcome: the global and
    /// tenant counters, the latency and queue-wait histograms, the trace
    /// records and the send all happen here, once (it consumes the request).
    pub(crate) fn finish(&self, pending: Pending, outcome: Result<Served<'_>, Rejected>) {
        let tracer = ios_telemetry::tracer();
        let outcome = match outcome {
            Ok(Served { outputs, batch }) => {
                let total_us = pending.enqueued_at.elapsed().as_secs_f64() * 1e6;
                let queue_us = (batch.dispatched_at - pending.enqueued_at).as_secs_f64() * 1e6;
                self.metrics.completed.add(1);
                self.metrics.latency.record_us(total_us);
                self.metrics.queue_wait.record_us(queue_us);
                pending.tenant_metrics.completed.add(1);
                pending.tenant_metrics.queue_wait.record_us(queue_us);
                if tracer.is_enabled() {
                    // Back-date the queue-wait span to the request's enqueue:
                    // its record lands on this worker's lane, tagged with the
                    // batch that eventually served it.
                    let total_ns = (total_us * 1e3).max(0.0) as u64;
                    let start_ns = tracer.now_ns().saturating_sub(total_ns);
                    let wait_ns = (queue_us * 1e3).max(0.0) as u64;
                    tracer.record_span_at(
                        "request.queue_wait",
                        "request",
                        start_ns,
                        wait_ns,
                        pending.id.0,
                        batch.batch_id,
                    );
                    tracer.instant("request.respond", "request", pending.id.0);
                }
                Ok(InferenceResponse {
                    id: pending.id,
                    outputs,
                    batch_size: batch.batch_size,
                    schedule_source: batch.source,
                    queue_us,
                    total_us,
                    device_us: batch.device_share_us,
                })
            }
            Err(rejected) => {
                let (count, event) = match rejected {
                    Rejected::Shed => {
                        pending.tenant_metrics.shed.add(1);
                        (&self.metrics.shed, "request.shed")
                    }
                    Rejected::DeadlineExceeded => {
                        (&self.metrics.deadline_expired, "request.deadline_expired")
                    }
                    Rejected::Failed => (&self.metrics.failed, "request.failed"),
                };
                count.add(1);
                tracer.instant(event, "request", pending.id.0);
                Err(rejected)
            }
        };
        // A dropped ResponseHandle is fine; the send just fails.
        let _ = pending.respond_to.send(outcome);
    }

    /// One batch through the remaining stages. `requests` stays owned by
    /// the worker's panic guard: whatever a panicking stage leaves in it is
    /// finished there as [`Rejected::Failed`].
    pub(crate) fn run_batch(self: &Arc<Self>, requests: &mut Vec<Pending>) {
        // Requests whose deadline already passed complete as expired *before*
        // any schedule resolution or device dispatch — serving them would
        // burn device time on answers nobody can use.
        let now = Instant::now();
        let (live, expired): (Vec<Pending>, Vec<Pending>) = std::mem::take(requests)
            .into_iter()
            .partition(|p| p.deadline.is_none_or(|d| now < d));
        *requests = live;
        for pending in expired {
            self.finish(pending, Err(Rejected::DeadlineExceeded));
        }
        if requests.is_empty() {
            return;
        }
        let batch_id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
        let mut batch_span = ios_telemetry::tracer().span("batch", "serve");
        batch_span.set_id(batch_id);
        batch_span.set_arg(requests.len() as u64);
        let (schedule, source) = self.resolve_schedule(requests.len());
        let executed = self.execute(batch_id, requests, &schedule, source);
        self.respond(requests, executed);
    }

    /// **Execute**: stacks the inputs, runs the batch and accounts it
    /// (assembly and device-time histograms).
    fn execute(
        &self,
        batch_id: u64,
        requests: &[Pending],
        schedule: &Arc<NetworkSchedule>,
        source: ScheduleSource,
    ) -> Executed {
        let batch_size = requests.len();
        let network = self.instance(batch_size);
        let dispatched_at = Instant::now();
        if let Some(oldest) = requests.iter().map(|p| p.enqueued_at).min() {
            // Batch assembly: the oldest member's enqueue to this dispatch.
            let assembly_us = (dispatched_at - oldest).as_secs_f64() * 1e6;
            self.metrics.batch_assembly.record_us(assembly_us);
        }

        let input_refs: Vec<&TensorData> = requests.iter().map(|p| &p.input).collect();
        let stacked = stack_batch_pooled(&input_refs, &self.io_pool);
        let mut exec_span = ios_telemetry::tracer().span("batch.execute", "serve");
        exec_span.set_id(batch_id);
        let outcome = self.executor.execute(&BatchContext {
            network: &network,
            per_sample: &self.base,
            schedule,
            weights: &self.weights,
            inputs: std::slice::from_ref(&stacked),
        });
        drop(exec_span);
        self.io_pool.recycle_tensor(stacked);
        self.metrics.record_batch(outcome.device_time_us);
        Executed {
            batch_id,
            batch_size,
            dispatched_at,
            source,
            device_share_us: outcome.device_time_us / batch_size as f64,
            outputs: outcome.outputs,
        }
    }

    /// **Respond**: splits the stacked outputs (one per network output)
    /// into per-sample leases drawn from the io pool — a lease's buffer
    /// returns there when the client drops it, the stacked tensors go back
    /// to the backend's pool — and finishes every member with its response.
    fn respond(&self, requests: &mut Vec<Pending>, mut batch: Executed) {
        let stacked_outputs = batch.outputs.take();
        let mut responses: Vec<Vec<ResponseLease>> = (0..batch.batch_size)
            .map(|_| Vec::with_capacity(stacked_outputs.as_ref().map_or(0, Vec::len)))
            .collect();
        if let Some(outputs) = stacked_outputs {
            for stacked_out in &outputs {
                let per_item = stacked_out.shape.elements_per_item();
                let item_shape = TensorShape::new(
                    1,
                    stacked_out.shape.channels,
                    stacked_out.shape.height,
                    stacked_out.shape.width,
                );
                for (i, sample_outputs) in responses.iter_mut().enumerate() {
                    let mut leased = self.io_pool.take_tensor(item_shape);
                    leased
                        .data
                        .copy_from_slice(&stacked_out.data[i * per_item..(i + 1) * per_item]);
                    sample_outputs.push(ResponseLease::pooled(leased, Arc::clone(&self.io_pool)));
                }
            }
            self.executor.recycle_outputs(outputs);
        }
        for (pending, outputs) in requests.drain(..).zip(responses) {
            let served = Served {
                outputs,
                batch: &batch,
            };
            self.finish(pending, Ok(served));
        }
    }
}

/// A served request's response, beyond what its [`Pending`] already holds.
pub(crate) struct Served<'a> {
    outputs: Vec<ResponseLease>,
    batch: &'a Executed,
}
