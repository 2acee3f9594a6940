//! The serving engine: the public handle, the state its threads share and
//! the worker loop driving each batch through the stages (`stages.rs`).

use crate::adapt::AdaptState;
use crate::batcher::BatchQueue;
use crate::config::ServeConfig;
use crate::exec::{BatchExecutor, CpuReferenceExecutor};
use crate::metrics::{External, MetricsSnapshot, PanicSite, ServeMetrics};
use crate::request::{InferenceResponse, Rejected, ResponseHandle, ServeError, TenantId};
use ios_backend::{NetworkWeights, ScratchPool, TensorData};
use ios_core::{optimize_network, NetworkSchedule, SchedulerConfig, SimCostModel};
use ios_ir::{Network, TensorShape};
use ios_sim::{DeviceKind, Simulator};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The host's available parallelism (1 when unknown), which the worker
/// split derives from.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// State shared between the engine handle, its workers and the adaptation
/// controller ([`crate::adapt`]).
pub(crate) struct Shared {
    /// The network at batch size 1: every batch runs it once per sample,
    /// whatever the batch's size.
    pub(crate) base: Arc<Network>,
    /// The one schedule every batch runs: `base` searched once, at start,
    /// by `ServeEngine::planner` under `SchedulerConfig::paper_default()`.
    /// The executor runs each sample on `base`, so this is the schedule
    /// specialized for the shape that executes (the paper's Table 3).
    pub(crate) schedule: Arc<NetworkSchedule>,
    /// Per-sample input shape requests must match.
    pub(crate) sample_shape: TensorShape,
    pub(crate) config: ServeConfig,
    pub(crate) queue: BatchQueue,
    /// Weights are batch-size independent, so one table serves every batch.
    pub(crate) weights: Arc<NetworkWeights>,
    pub(crate) executor: Box<dyn BatchExecutor>,
    /// Pool backing the serving boundary: stacked batch inputs and leased
    /// response tensors. Buffers return here when a [`ResponseLease`]
    /// drops, so steady-state serving performs no fresh tensor allocation
    /// at the boundary.
    pub(crate) io_pool: Arc<ScratchPool>,
    pub(crate) metrics: ServeMetrics,
    /// Live state of the runtime adaptation loop (shed mode, controller
    /// stop signal).
    pub(crate) adapt: AdaptState,
    pub(crate) next_id: AtomicU64,
    /// Batch correlation ids for the tracer: every span and instant a
    /// batch's lifecycle emits carries the same id, so the timeline can be
    /// grouped per batch across worker and request lanes.
    pub(crate) next_batch_id: AtomicU64,
}

impl Shared {
    /// The wall-clock execute-time estimate the deadline-aware batcher
    /// subtracts from the most urgent queued deadline: the mean observed
    /// per-batch device time so far (zero until the first batch lands —
    /// before any measurement the batcher flushes right at the deadline).
    fn predicted_exec(&self) -> Duration {
        let device = &self.metrics.device_time;
        if device.count() == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(device.mean() as u64)
    }

    /// One worker: take batches until the queue closes and drains.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let predicted_exec = self.predicted_exec();
            let Some((mut requests, in_flight)) =
                self.queue
                    .next_batch(self.config.max_batch, self.config.max_wait, predicted_exec)
            else {
                break;
            };
            self.metrics.dispatched[in_flight.trigger as usize].add(1);
            self.metrics.queue_depth.set(self.queue.depth() as u64);
            // A panicking batch (e.g. a custom executor bug) must not kill
            // the worker, nor leave its requests unanswered: every member
            // the stages had not finished yet completes as failed, and the
            // worker moves on to the next batch.
            let run = std::panic::AssertUnwindSafe(|| self.run_batch(&mut requests));
            if let Err(panic) = std::panic::catch_unwind(run) {
                self.metrics.panic_message(PanicSite::Batch, &*panic);
                for pending in requests.drain(..) {
                    self.finish(pending, Err(Rejected::Failed));
                }
            }
            // Only now has the batch stopped executing, on every path: a
            // partial batch another worker holds may leave at once.
            drop(in_flight);
        }
    }
}

/// An online batched inference server for one network.
///
/// ```
/// use ios_serve::{ServeConfig, ServeEngine};
/// use ios_backend::TensorData;
/// # use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
/// # let input = TensorShape::new(1, 4, 6, 6);
/// # let mut b = GraphBuilder::new("doc_tiny", input);
/// # let x = b.input(0);
/// # let a = b.conv2d("a", x, Conv2dParams::relu(4, (3, 3), (1, 1), (1, 1)));
/// # let network = Network::new("doc_tiny", input, vec![Block::new(b.build(vec![a]))]);
///
/// // `network` is any single-input ios_ir::Network.
/// let config = ServeConfig { max_batch: 4, ..ServeConfig::default() };
/// let engine = ServeEngine::start(network.clone(), config);
/// let input = TensorData::random(network.input_shape, 1);
/// let response = engine.infer(input).unwrap();
/// assert_eq!(response.outputs.len(), 1);
/// engine.shutdown();
/// ```
pub struct ServeEngine {
    pub(crate) shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The shed controller thread, when
    /// [`crate::AdaptConfig::shed_queue_wait_budget`] is set.
    controller: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Starts an engine computing real numerics on the CPU reference
    /// backend. The host's cores are split between the configured dispatch
    /// workers so concurrent batches do not oversubscribe the machine.
    #[must_use]
    pub fn start(network: Network, config: ServeConfig) -> Self {
        Self::build(network, config, |config| {
            let per_batch = host_cores().div_ceil(config.workers);
            Box::new(CpuReferenceExecutor::with_max_workers(per_batch))
        })
    }

    /// Starts an engine with a custom execution backend.
    #[must_use]
    pub fn start_with_executor(
        network: Network,
        config: ServeConfig,
        executor: Box<dyn BatchExecutor>,
    ) -> Self {
        Self::build(network, config, |_| executor)
    }

    /// The cost model the engine's one schedule search plans on: the
    /// simulated Tesla V100.
    fn planner() -> SimCostModel {
        SimCostModel::new(Simulator::new(DeviceKind::TeslaV100))
    }

    /// The one start path: `config` is checked before the executor is made,
    /// and the schedule is searched before the workers spawn.
    fn build(
        network: Network,
        config: ServeConfig,
        executor: impl FnOnce(&ServeConfig) -> Box<dyn BatchExecutor>,
    ) -> Self {
        config.check();
        let executor = executor(&config);
        assert!(!network.blocks.is_empty(), "cannot serve an empty network");
        assert_eq!(
            network.blocks[0].graph.input_shapes().len(),
            1,
            "the serving engine batches single-input networks"
        );
        let base = Arc::new(if network.input_shape.batch == 1 {
            network
        } else {
            network.with_batch_size(1)
        });
        let sample_shape = base.input_shape;
        let weights = Arc::new(NetworkWeights::precompute(&base));
        let search = optimize_network(&base, &Self::planner(), &SchedulerConfig::paper_default());

        let shared = Arc::new(Shared {
            schedule: Arc::new(search.schedule),
            sample_shape,
            queue: BatchQueue::with_tenants(config.tenants.clone()),
            weights,
            executor,
            io_pool: Arc::new(ScratchPool::new()),
            metrics: ServeMetrics::default(),
            adapt: AdaptState::default(),
            next_id: AtomicU64::new(0),
            next_batch_id: AtomicU64::new(0),
            base,
            config,
        });

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ios-serve-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn serving worker")
            })
            .collect();

        let controller = shared.config.adapt.shed_queue_wait_budget.map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ios-serve-adapt".to_string())
                .spawn(move || crate::adapt::controller_loop(&shared))
                .expect("spawn adaptation controller")
        });

        ServeEngine {
            shared,
            workers,
            controller,
        }
    }

    /// Submits one single-sample request with no deadline; the returned
    /// handle resolves to the response once its batch executed.
    ///
    /// # Errors
    ///
    /// [`ServeError::WrongInputShape`] if `input` does not match the
    /// network's per-sample input shape, [`ServeError::ShuttingDown`] after
    /// [`ServeEngine::shutdown`] began, and
    /// [`ServeError::Rejected`]`(`[`Rejected::Shed`]`)` when admission
    /// control turned the request away (bounded queue full, or shed mode
    /// with a batch's worth already queued).
    pub fn submit(&self, input: TensorData) -> Result<ResponseHandle, ServeError> {
        self.shared.admit(TenantId::default_tenant(), input, None)
    }

    /// Submits a request on behalf of a named tenant: it queues on the
    /// tenant's own weighted-fair lane, spends a token from the tenant's
    /// bucket when one is configured ([`crate::TenantConfig`]), and counts
    /// toward the tenant's `ios_tenant_*` metrics. Anonymous
    /// [`ServeEngine::submit`] traffic is the same call with the default
    /// tenant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeEngine::submit`];
    /// [`ServeError::Rejected`]`(`[`Rejected::Shed`]`)` additionally
    /// covers an exhausted token bucket and, in shed mode, the tenant
    /// being over its weighted share of the queue.
    pub fn submit_for_tenant(
        &self,
        tenant: impl Into<TenantId>,
        input: TensorData,
    ) -> Result<ResponseHandle, ServeError> {
        self.shared.admit(tenant.into(), input, None)
    }

    /// [`ServeEngine::submit_for_tenant`] with a per-request deadline
    /// budget (see [`ServeEngine::submit_with_deadline`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeEngine::submit_for_tenant`].
    pub fn submit_for_tenant_with_deadline(
        &self,
        tenant: impl Into<TenantId>,
        input: TensorData,
        budget: Duration,
    ) -> Result<ResponseHandle, ServeError> {
        self.shared.admit(tenant.into(), input, Some(budget))
    }

    /// Submits a request that is only worth answering for the next
    /// `budget` of wall clock: the batcher flushes early to make the
    /// deadline, and if it still passes before dispatch the request
    /// completes with [`Rejected::DeadlineExceeded`] (via
    /// [`ResponseHandle::wait_outcome`]) instead of a stale result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeEngine::submit`].
    pub fn submit_with_deadline(
        &self,
        input: TensorData,
        budget: Duration,
    ) -> Result<ResponseHandle, ServeError> {
        self.shared
            .admit(TenantId::default_tenant(), input, Some(budget))
    }

    /// Submits a request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeEngine::submit`].
    pub fn infer(&self, input: TensorData) -> Result<InferenceResponse, ServeError> {
        Ok(self.submit(input)?.wait())
    }

    /// A snapshot of the serving metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The retained records of the process-global tracer, rendered as a
    /// Chrome trace-event JSON array — load it in `chrome://tracing` or
    /// Perfetto. Empty (an empty array) unless
    /// [`ios_telemetry::tracer()`]`.set_enabled(true)` was called around
    /// the window of interest.
    #[must_use]
    pub fn trace_dump(&self) -> String {
        ios_telemetry::chrome_trace_json(&ios_telemetry::tracer().records())
    }

    /// The serving metrics in Prometheus text exposition format — the
    /// metric table of [`crate::metrics`] over this engine's counters, its
    /// weight cache and the process-wide kernel facts.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        self.shared.metrics.prometheus_text(&External {
            weights: self.shared.weights.footprint(),
            isa: ios_backend::simd::active_isa(),
            pool: ios_backend::workers::stats(),
        })
    }

    /// Counters of the engine's serving-boundary pool (stacked inputs and
    /// leased response buffers): `(fresh heap allocations, pool reuses)`.
    /// In steady state — every request shape seen before, leases returned
    /// — the fresh count stays flat.
    #[must_use]
    pub fn io_pool_stats(&self) -> (u64, u64) {
        (
            self.shared.io_pool.fresh_allocations(),
            self.shared.io_pool.reuses(),
        )
    }

    /// Counters of the execution backend's scratch pool, if the backend
    /// has one: `(fresh heap allocations, pool reuses)`.
    #[must_use]
    pub fn executor_pool_stats(&self) -> Option<(u64, u64)> {
        self.shared.executor.pool_stats()
    }

    /// Requests currently waiting in the batching queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Whether the adaptation controller currently has shed mode engaged
    /// (windowed p95 queue wait over the configured budget).
    #[must_use]
    pub fn is_shedding(&self) -> bool {
        self.shared.adapt.shedding()
    }

    /// Name of the served network.
    #[must_use]
    pub fn network_name(&self) -> &str {
        &self.shared.base.name
    }

    /// Stops accepting requests, answers everything already queued, then
    /// returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Stop the shed controller first so no shed-mode flip races the
        // drain below.
        self.shared.adapt.request_stop();
        if let Some(controller) = self.controller.take() {
            let _ = controller.join();
        }
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("network", &self.shared.base.name)
            .field("executor", &self.shared.executor.name())
            .field("max_batch", &self.shared.config.max_batch)
            .field("workers", &self.workers.len())
            .field("last_panic", &self.shared.metrics.last_panic)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    fn tiny_network() -> Network {
        use ios_ir::{Block, Conv2dParams, GraphBuilder};
        let input = TensorShape::new(1, 4, 6, 6);
        let mut b = GraphBuilder::new("engine_tiny", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(4, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[a, c]);
        Network::new("engine_tiny", input, vec![Block::new(b.build(vec![cat]))])
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            max_batch: 4,
            workers: 1,
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn an_idle_engine_answers_a_lone_request_without_waiting_out_max_wait() {
        let net = tiny_network();
        let engine = ServeEngine::start(
            net.clone(),
            ServeConfig {
                max_wait: Duration::from_secs(60),
                ..quick_config()
            },
        );
        let start = Instant::now();
        let response = engine.infer(TensorData::zeros(net.input_shape)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(
            response.queue_us < 10_000.0,
            "queued {} µs on an idle engine",
            response.queue_us
        );
        assert_eq!(engine.metrics().dispatch["idle"], 1);
        engine.shutdown();
    }

    #[test]
    fn serves_single_requests() {
        let net = tiny_network();
        let engine = ServeEngine::start(net.clone(), quick_config());
        let input = TensorData::random(net.input_shape, 5);
        let response = engine.infer(input).unwrap();
        assert_eq!(response.outputs.len(), 1);
        assert_eq!(response.outputs[0].shape, TensorShape::new(1, 8, 6, 6));
        assert!(response.total_us >= response.queue_us);
        engine.shutdown();
    }

    #[test]
    fn rejects_wrong_shapes_and_post_shutdown_submissions() {
        let net = tiny_network();
        let engine = ServeEngine::start(net.clone(), quick_config());
        let wrong = TensorData::zeros(TensorShape::new(1, 3, 6, 6));
        assert!(matches!(
            engine.submit(wrong),
            Err(ServeError::WrongInputShape { .. })
        ));
        engine.shared.queue.close();
        let ok_shape = TensorData::zeros(net.input_shape);
        assert!(matches!(
            engine.submit(ok_shape),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn offers_racing_the_close_never_export_a_phantom_in_flight_request() {
        // Submitters keep offering across the moment the queue closes (the
        // first thing `shutdown` does to it) while a scraper reads the
        // exported counters. A closed queue takes nothing on, so once the
        // requests accepted before the close have drained, `in_flight` is 0
        // and `submitted` stands still at every scrape — however many
        // offers are being turned away at that moment.
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let net = tiny_network();
        let engine = ServeEngine::start(net.clone(), quick_config());
        let closed = AtomicBool::new(false);
        let submitters_left = AtomicU64::new(3);
        let handed_out = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut turned_away = 0;
                    while turned_away < 20_000 {
                        match engine.submit(TensorData::zeros(net.input_shape)) {
                            Ok(handle) => {
                                handle.wait_outcome().expect("accepted requests complete");
                                handed_out.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(ServeError::ShuttingDown) => turned_away += 1,
                            Err(other) => panic!("unexpected refusal: {other}"),
                        }
                    }
                    submitters_left.fetch_sub(1, Ordering::SeqCst);
                });
            }
            scope.spawn(|| {
                let mut drained: Option<u64> = None;
                while submitters_left.load(Ordering::SeqCst) > 0 {
                    let was_closed = closed.load(Ordering::SeqCst);
                    let m = engine.metrics();
                    let outcomes = m.completed + m.shed + m.deadline_expired + m.failed;
                    assert_eq!(m.submitted, outcomes + m.in_flight);
                    match drained {
                        Some(submitted) => assert_eq!(
                            (m.in_flight, m.submitted),
                            (0, submitted),
                            "an offer a closed queue turned away was exported as in flight"
                        ),
                        None if was_closed && m.in_flight == 0 => drained = Some(m.submitted),
                        None => {}
                    }
                }
            });
            while handed_out.load(Ordering::SeqCst) < 30 {
                std::thread::yield_now();
            }
            engine.shared.queue.close();
            closed.store(true, Ordering::SeqCst);
        });
        let m = engine.metrics();
        assert_eq!(
            (m.submitted, m.completed, m.in_flight),
            (handed_out.load(Ordering::SeqCst), m.submitted, 0)
        );
    }

    #[test]
    fn coalesces_deep_queues_into_full_batches() {
        let net = tiny_network();
        let (executor, gate) = crate::common::gated(CpuReferenceExecutor::new());
        let engine = ServeEngine::start_with_executor(
            net.clone(),
            ServeConfig {
                max_wait: Duration::from_millis(50),
                ..quick_config()
            },
            executor,
        );
        // The queue deepens behind a lone request held in flight.
        let held = gate.hold(&engine, TensorData::zeros(net.input_shape));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                engine
                    .submit(TensorData::random(net.input_shape, i))
                    .unwrap()
            })
            .collect();
        gate.release(held);
        let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();
        // All eight went through batches of max_batch = 4.
        assert!(
            responses.iter().all(|r| r.batch_size == 4),
            "batch sizes: {:?}",
            responses.iter().map(|r| r.batch_size).collect::<Vec<_>>()
        );
        let metrics = engine.metrics();
        assert_eq!(metrics.completed, 1 + 8);
        // Every batch handed out is counted once, under the rule that
        // released it: the idle lone request, then two full batches.
        let d = &metrics.dispatch;
        assert_eq!(
            ["full", "idle", "wait", "deadline", "close"].map(|trigger| d[trigger]),
            [2, 1, 0, 0, 0]
        );
        assert_eq!(d.values().sum::<u64>(), metrics.batches);
        assert!(engine
            .prometheus_text()
            .contains("ios_batch_dispatch_total{trigger=\"full\"} 2\n"));
        engine.shutdown();
    }

    /// Batches of every size from 1 to `max_batch` run the engine's one
    /// schedule — the batch-1 search, which is what the executor runs per
    /// sample — and answer bit-identical to `execute_network`.
    #[test]
    fn every_batch_size_runs_the_one_batch_1_schedule_bit_identically() {
        use ios_backend::execute_network;
        let net = tiny_network();
        let config = ServeConfig {
            max_batch: 5,
            max_wait: Duration::from_millis(50),
            ..quick_config()
        };
        let (executor, gate) = crate::common::gated(CpuReferenceExecutor::new());
        let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
        let fresh = optimize_network(
            &net,
            &ServeEngine::planner(),
            &SchedulerConfig::paper_default(),
        );
        assert_eq!(*engine.shared.schedule, fresh.schedule);
        for batch in 1..=5 {
            // Behind a held batch, `batch` queued requests leave as one.
            let held = gate.hold(&engine, TensorData::zeros(net.input_shape));
            let inputs: Vec<_> = (0..batch)
                .map(|seed| TensorData::random(net.input_shape, 100 * batch + seed))
                .collect();
            let handles: Vec<_> = (inputs.iter())
                .map(|input| engine.submit(input.clone()).unwrap())
                .collect();
            gate.release(held);
            for (handle, input) in handles.into_iter().zip(&inputs) {
                let response = handle.wait();
                assert_eq!(
                    response.batch_size as u64, batch,
                    "queued requests ship as one"
                );
                let reference = execute_network(&net, std::slice::from_ref(input));
                assert_eq!(response.outputs.len(), reference.len());
                for (lease, expected) in response.outputs.iter().zip(&reference) {
                    assert_eq!(lease, expected, "batch {batch}");
                }
            }
        }
        let m = engine.metrics();
        assert_eq!(m.batches, 2 * 5, "each size behind one held batch");
        assert_eq!(m.cache.hits, m.batches);
        assert_eq!((m.cache.nearest_served, m.cache.background_inserts), (0, 0));
        engine.shutdown();
    }

    /// A batch that panics still stops counting as executing: with a
    /// second worker free and a 60 s `max_wait`, the next lone request
    /// would otherwise wait out the minute behind a batch that is gone.
    #[test]
    fn a_panicked_batch_leaves_the_engine_idle() {
        let net = tiny_network();
        let config = ServeConfig {
            workers: 2,
            max_wait: Duration::from_secs(60),
            ..quick_config()
        };
        let engine =
            ServeEngine::start_with_executor(net.clone(), config, FailsFirstBatch::boxed());
        let doomed = engine.submit(TensorData::zeros(net.input_shape)).unwrap();
        assert_eq!(doomed.wait_outcome().err(), Some(Rejected::Failed));
        let start = Instant::now();
        let response = engine.infer(TensorData::zeros(net.input_shape)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(
            response.queue_us < 10_000.0,
            "queued {} µs behind a batch that had panicked",
            response.queue_us
        );
        engine.shutdown();
    }

    /// The CPU reference backend, panicking on its first batch.
    struct FailsFirstBatch {
        armed: std::sync::atomic::AtomicBool,
        inner: CpuReferenceExecutor,
    }

    impl FailsFirstBatch {
        fn boxed() -> Box<Self> {
            Box::new(FailsFirstBatch {
                armed: std::sync::atomic::AtomicBool::new(true),
                inner: CpuReferenceExecutor::new(),
            })
        }
    }

    impl BatchExecutor for FailsFirstBatch {
        fn name(&self) -> &'static str {
            "fails-first-batch"
        }
        fn execute(&self, ctx: &crate::exec::BatchContext<'_>) -> crate::exec::BatchOutcome {
            assert!(
                !self.armed.swap(false, Ordering::SeqCst),
                "injected backend fault"
            );
            self.inner.execute(ctx)
        }
    }

    #[test]
    fn a_panicking_backend_does_not_kill_the_worker() {
        let net = tiny_network();
        let engine =
            ServeEngine::start_with_executor(net.clone(), quick_config(), FailsFirstBatch::boxed());
        // The first request's batch panics: its handle observes the drop
        // (wait panics), but the worker must survive…
        let doomed = engine.submit(TensorData::zeros(net.input_shape)).unwrap();
        let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| doomed.wait()));
        assert!(waited.is_err(), "the dropped request must not hang");
        // …and answer the next request normally.
        let response = engine.infer(TensorData::zeros(net.input_shape)).unwrap();
        assert_eq!(response.batch_size, 1);
        engine.shutdown();
    }

    /// The fault matrix, one test per lock the engine takes: `poison`
    /// panics on a thread of its own while it holds that lock. Then a
    /// doomed batch panics (reported under `last_panic`), 16 requests are
    /// served bit-identical to `execute_network`, every request is
    /// accounted for. The shed controller ticks every millisecond. Every wait is bounded: a
    /// lock left broken fails the test, never hangs it.
    fn serves_after_a_panic_holding(poison: impl FnOnce(&Shared) + Send) {
        use crate::config::AdaptConfig;
        use ios_backend::execute_network;
        let net = tiny_network();
        let config = ServeConfig {
            adapt: AdaptConfig {
                tick: Duration::from_millis(1),
                shed_queue_wait_budget: Some(Duration::from_secs(60)),
                ..AdaptConfig::default()
            },
            ..quick_config()
        };
        let engine =
            ServeEngine::start_with_executor(net.clone(), config, FailsFirstBatch::boxed());
        let poisoner = std::thread::scope(|s| s.spawn(|| poison(&engine.shared)).join());
        assert!(poisoner.is_err(), "the poisoning thread panics");
        let deadline = Instant::now() + Duration::from_secs(20);
        let outcome = |mut handle: ResponseHandle| loop {
            match handle.try_wait() {
                Ok(outcome) => return outcome,
                Err(pending) => handle = pending,
            }
            assert!(Instant::now() < deadline, "a request was never answered");
            std::thread::sleep(Duration::from_millis(1));
        };
        let doomed = engine.submit(TensorData::zeros(net.input_shape)).unwrap();
        assert_eq!(outcome(doomed).err(), Some(Rejected::Failed));
        let inputs: Vec<_> = (0..16)
            .map(|seed| TensorData::random(net.input_shape, seed))
            .collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| engine.submit(input.clone()).unwrap())
            .collect();
        for (handle, input) in handles.into_iter().zip(&inputs) {
            let response = outcome(handle).expect("served");
            let reference = execute_network(&net, std::slice::from_ref(input));
            assert_eq!(response.outputs.len(), reference.len());
            for (lease, expected) in response.outputs.iter().zip(&reference) {
                assert_eq!(lease, expected);
            }
        }
        let m = engine.metrics();
        assert_eq!((m.completed, m.failed), (16, 1));
        let outcomes = m.completed + m.shed + m.deadline_expired + m.failed;
        assert_eq!(m.submitted, outcomes + m.in_flight);
        engine.shutdown();
    }

    #[test]
    fn a_panic_holding_the_queue_lock_is_survived() {
        serves_after_a_panic_holding(|shared| {
            let _held = shared.queue.state.lock();
            panic!("injected panic holding the queue lock");
        });
    }

    #[test]
    fn a_panic_holding_the_tenant_metrics_is_survived() {
        serves_after_a_panic_holding(|shared| {
            let _held = shared.metrics.tenants.lock();
            panic!("injected panic holding the tenant metrics");
        });
    }

    #[test]
    fn a_panic_holding_the_last_panic_slot_is_survived() {
        serves_after_a_panic_holding(|shared| {
            let _held = shared.metrics.last_panic.lock();
            panic!("injected panic holding the last-panic slot");
        });
    }

    #[test]
    fn a_panic_holding_the_controller_stop_flag_is_survived() {
        serves_after_a_panic_holding(|shared| {
            let _held = shared.adapt.stop.lock();
            panic!("injected panic holding the controller's stop flag");
        });
    }
}
