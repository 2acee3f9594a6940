//! The serving engine: the public handle, the state its threads share and
//! the worker loop driving each batch through the stages (`stages.rs`).

use crate::adapt::AdaptState;
use crate::batcher::BatchQueue;
use crate::cache::ScheduleCache;
use crate::config::{CostModelKind, ServeConfig};
use crate::exec::{BatchExecutor, CpuReferenceExecutor, SimulatedDeviceExecutor};
use crate::metrics::{External, MetricsSnapshot, PanicSite, ServeMetrics};
use crate::request::{InferenceResponse, Rejected, ResponseHandle, ServeError, TenantId};
use ios_backend::{CpuStageProfiler, NetworkWeights, ScratchPool, TensorData};
use ios_core::{CachingCostModel, CostModel, ProfiledCostModel, SimCostModel};
use ios_ir::{Network, TensorShape};
use ios_sim::Simulator;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The host's available parallelism (1 when unknown), which the worker
/// split derives from.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// State shared between the engine handle, its workers, the adaptation
/// controller ([`crate::adapt`]) and background re-optimization threads.
pub(crate) struct Shared {
    /// The network at batch size 1 (instances for other batch sizes are
    /// derived lazily).
    pub(crate) base: Arc<Network>,
    /// Per-sample input shape requests must match.
    pub(crate) sample_shape: TensorShape,
    pub(crate) config: ServeConfig,
    pub(crate) queue: BatchQueue,
    pub(crate) cache: ScheduleCache,
    /// One thread-safe cost model backs schedule optimization and
    /// background re-optimization (and, for the simulated backend, batch
    /// accounting). Selected by [`ServeConfig::cost_model`]: the analytical
    /// simulator, or stage latencies profiled on the CPU backend.
    pub(crate) cost: Arc<dyn CostModel + Send + Sync>,
    /// Weights are batch-size independent, so one table serves every batch.
    pub(crate) weights: Arc<NetworkWeights>,
    pub(crate) executor: Box<dyn BatchExecutor>,
    /// Pool backing the serving boundary: stacked batch inputs and leased
    /// response tensors. Buffers return here when a [`ResponseLease`]
    /// drops, so steady-state serving performs no fresh tensor allocation
    /// at the boundary.
    pub(crate) io_pool: Arc<ScratchPool>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) instances: Mutex<HashMap<usize, Arc<Network>>>,
    /// Background re-optimizations by batch size
    /// ([`Shared::resolve_schedule`]).
    pub(crate) background: Mutex<HashMap<usize, JoinHandle<()>>>,
    /// Serializes schedule searches ([`Shared::ensure_exact`]).
    pub(crate) optimizing: Mutex<()>,
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
/// let engine = ServeEngine::start(network.clone(), ServeConfig::default().with_max_batch(4));
/// let input = TensorData::random(network.input_shape, 1);
/// let response = engine.infer(input).unwrap();
/// assert_eq!(response.outputs.len(), 1);
/// engine.shutdown();
/// ```
pub struct ServeEngine {
    shared: Arc<Shared>,
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
        let per_batch = host_cores().div_ceil(config.workers.max(1));
        let cost = Self::cost_model_for(&config);
        Self::build(
            network,
            config,
            cost,
            Box::new(CpuReferenceExecutor::with_max_workers(per_batch)),
        )
    }

    /// Starts an engine that accounts batches on the analytical GPU
    /// simulator instead of computing numerics — the configuration for
    /// serving-throughput studies. The batch accounting shares the
    /// scheduling cost model, so [`ServeConfig::cost_model`] is ignored
    /// here: simulated execution is only meaningful against the simulator.
    #[must_use]
    pub fn start_simulated(network: Network, config: ServeConfig) -> Self {
        let cost = Arc::new(CachingCostModel::new(SimCostModel::new(Simulator::new(
            config.device,
        ))));
        let executor = SimulatedDeviceExecutor::new(Arc::clone(&cost));
        Self::build(network, config, cost, Box::new(executor))
    }

    /// Starts an engine with a custom execution backend, optimizing
    /// schedules against the cost model selected by
    /// [`ServeConfig::cost_model`].
    #[must_use]
    pub fn start_with_executor(
        network: Network,
        config: ServeConfig,
        executor: Box<dyn BatchExecutor>,
    ) -> Self {
        let cost = Self::cost_model_for(&config);
        Self::build(network, config, cost, executor)
    }

    /// The scheduling cost model [`ServeConfig::cost_model`] selects.
    fn cost_model_for(config: &ServeConfig) -> Arc<dyn CostModel + Send + Sync> {
        match config.cost_model {
            CostModelKind::Simulated => Arc::new(CachingCostModel::new(SimCostModel::new(
                Simulator::new(config.device),
            ))),
            // Profiled serving policy: 1 warmup + median of 3 — background
            // re-optimization shares the engine's cores with serving, so
            // optimization cost is bounded tighter than offline profiling;
            // the ProfiledCostModel caches per stage on its own.
            CostModelKind::CpuProfiled => Arc::new(ProfiledCostModel::with_policy(
                CpuStageProfiler::new(),
                1,
                3,
            )),
        }
    }

    fn build(
        network: Network,
        config: ServeConfig,
        cost: Arc<dyn CostModel + Send + Sync>,
        executor: Box<dyn BatchExecutor>,
    ) -> Self {
        // The one configuration check: the fields are public, so no
        // builder can guard them. A zero `max_batch` would have the batcher
        // hand out empty batches forever; a zero tick would spin the
        // controller.
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            config.adapt.shed_queue_wait_budget.is_none() || !config.adapt.tick.is_zero(),
            "the adaptation tick must be non-zero"
        );
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

        let shared = Arc::new(Shared {
            sample_shape,
            queue: BatchQueue::with_tenants(config.tenants.clone()),
            cache: ScheduleCache::new(),
            cost,
            weights,
            executor,
            io_pool: Arc::new(ScratchPool::new()),
            metrics: ServeMetrics::default(),
            instances: Mutex::new(HashMap::new()),
            background: Mutex::new(HashMap::new()),
            optimizing: Mutex::new(()),
            adapt: AdaptState::default(),
            next_id: AtomicU64::new(0),
            next_batch_id: AtomicU64::new(0),
            base,
            config,
        });

        // Pre-warm the schedule cache: the configured batch sizes get their
        // specialized schedules before the first request arrives.
        for batch in shared.config.effective_prewarm_batches() {
            shared.ensure_exact(batch);
        }

        let workers = (0..shared.config.workers.max(1))
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

    /// Submits one single-sample request; the returned handle resolves to
    /// the response once its batch executed. When
    /// [`crate::AdaptConfig::default_deadline`] is configured the request
    /// carries that budget as its deadline.
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
        let budget = self.shared.config.adapt.default_deadline;
        self.shared.admit(TenantId::default_tenant(), input, budget)
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
        let budget = self.shared.config.adapt.default_deadline;
        self.shared.admit(tenant.into(), input, budget)
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

    /// A snapshot of the serving metrics, including schedule-cache counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.cache.stats())
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
    /// schedule cache, its weight cache and the process-wide kernel facts.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        self.shared.metrics.prometheus_text(&External {
            cache: self.shared.cache.stats(),
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

    /// Name of the execution backend.
    #[must_use]
    pub fn executor_name(&self) -> &'static str {
        self.shared.executor.name()
    }

    /// Stops accepting requests, answers everything already queued, waits
    /// for background re-optimizations, then returns.
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
        // With the workers gone nothing spawns another re-optimization:
        // wait out the ones still running.
        let fills = std::mem::take(&mut *self.shared.background.lock().expect("background lock"));
        for (_, fill) in fills {
            let _ = fill.join();
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
    use crate::request::ScheduleSource;
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
        ServeConfig::default()
            .with_max_batch(4)
            .with_workers(1)
            .with_max_wait(Duration::from_millis(1))
    }

    #[test]
    fn an_idle_engine_answers_a_lone_request_without_waiting_out_max_wait() {
        let net = tiny_network();
        let engine = ServeEngine::start(
            net.clone(),
            quick_config().with_max_wait(Duration::from_secs(60)),
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
            quick_config().with_max_wait(Duration::from_millis(50)),
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

    #[test]
    fn exact_schedules_hit_the_cache_and_odd_batches_fall_back() {
        let net = tiny_network();
        // Pre-warm only batch 1 and 4; disable background re-optimization so
        // the fallback stays observable.
        let config = quick_config()
            .with_prewarm_batches(vec![1, 4])
            .with_background_reoptimize(false)
            .with_max_wait(Duration::from_millis(30));
        let (executor, gate) = crate::common::gated(CpuReferenceExecutor::new());
        let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
        let hold = || gate.hold(&engine, TensorData::zeros(net.input_shape));

        // Behind a held batch, a full batch of 4 forms → exact cache hit.
        let held = hold();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                engine
                    .submit(TensorData::random(net.input_shape, i))
                    .unwrap()
            })
            .collect();
        gate.release(held);
        let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();
        assert!(responses
            .iter()
            .all(|r| r.schedule_source == ScheduleSource::Exact));

        // A lone pair → batch 2 has no exact schedule; the nearest cached
        // batch (1 or 4) serves it.
        let held = hold();
        let h1 = engine
            .submit(TensorData::random(net.input_shape, 10))
            .unwrap();
        let h2 = engine
            .submit(TensorData::random(net.input_shape, 11))
            .unwrap();
        gate.release(held);
        let (r1, r2) = (h1.wait(), h2.wait());
        for r in [&r1, &r2] {
            assert_eq!(r.batch_size, 2, "the queued pair ships as one batch");
            assert!(
                matches!(r.schedule_source, ScheduleSource::Nearest { optimized_for } if optimized_for == 1 || optimized_for == 4),
                "batch 2 must be served by a nearest schedule, got {:?}",
                r.schedule_source
            );
        }
        let stats = engine.metrics().cache;
        assert!(stats.hits >= 1);
        assert!(stats.nearest_served >= 1);
        engine.shutdown();
    }

    #[test]
    fn background_reoptimization_fills_the_exact_entry() {
        let net = tiny_network();
        let config = quick_config()
            .with_prewarm_batches(vec![4])
            .with_background_reoptimize(true)
            .with_max_wait(Duration::from_millis(5));
        let engine = ServeEngine::start(net.clone(), config);
        // Submit a lone request: batch 1 misses, is served by the batch-4
        // schedule, and background re-optimization inserts the exact entry.
        let response = engine
            .infer(TensorData::random(net.input_shape, 1))
            .unwrap();
        assert_eq!(
            response.schedule_source,
            ScheduleSource::Nearest { optimized_for: 4 }
        );
        // The background thread inserts the exact batch-1 schedule; wait
        // for it (bounded).
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.metrics().cache.background_inserts == 0 {
            assert!(
                Instant::now() < deadline,
                "background re-optimization never completed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The next lone request is served by its exact schedule.
        let response = engine
            .infer(TensorData::random(net.input_shape, 2))
            .unwrap();
        assert_eq!(response.schedule_source, ScheduleSource::Exact);
        engine.shutdown();
    }

    /// The simulator cost model, with one injected fault once armed.
    struct PanicsOnce {
        inner: SimCostModel,
        armed: std::sync::atomic::AtomicBool,
    }

    impl PanicsOnce {
        /// An engine on the CPU backend whose schedule searches go through
        /// a `PanicsOnce`, armed once the pre-warm searches are done.
        fn armed_engine(net: &Network, config: ServeConfig) -> (ServeEngine, Arc<Self>) {
            let cost = Arc::new(PanicsOnce {
                inner: SimCostModel::new(Simulator::new(config.device)),
                armed: std::sync::atomic::AtomicBool::new(false),
            });
            let executor = Box::new(CpuReferenceExecutor::new());
            let engine = ServeEngine::build(net.clone(), config, cost.clone(), executor);
            cost.armed.store(true, Ordering::SeqCst);
            (engine, cost)
        }
    }

    impl CostModel for PanicsOnce {
        fn measurement_count(&self) -> u64 {
            self.inner.measurement_count()
        }
        fn bind<'a>(&'a self, graph: &'a ios_ir::Graph) -> Box<dyn ios_core::GraphCostModel + 'a> {
            assert!(
                !self.armed.swap(false, Ordering::SeqCst),
                "injected profiler fault"
            );
            self.inner.bind(graph)
        }
    }

    /// A background re-optimization that panics (a faulty profiler) must
    /// give its batch size back: the next miss retries it, instead of the
    /// batch size being served by a nearest schedule for good.
    #[test]
    fn a_background_fill_that_panics_once_is_retried() {
        let net = tiny_network();
        let config = quick_config()
            .with_prewarm_batches(vec![4])
            .with_max_wait(Duration::from_millis(2));
        let (engine, cost) = PanicsOnce::armed_engine(&net, config);
        // Lone requests miss batch 1 and are served by the batch-4 schedule
        // while a background fill runs. The first fill hits the fault; a
        // later miss must start another, which lands the exact schedule.
        let deadline = Instant::now() + Duration::from_secs(20);
        while engine.metrics().cache.background_inserts == 0 {
            assert!(
                Instant::now() < deadline,
                "the panicked fill kept its claim: batch 1 is never re-optimized"
            );
            engine.infer(TensorData::zeros(net.input_shape)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!cost.armed.load(Ordering::SeqCst), "the fault fired");
        let response = engine.infer(TensorData::zeros(net.input_shape)).unwrap();
        assert_eq!(response.schedule_source, ScheduleSource::Exact);
        assert_eq!(engine.metrics().cache.background_inserts, 1);
        let text = engine.prometheus_text();
        assert!(
            text.contains("ios_panics_total{site=\"reoptimize\"} 1"),
            "the dead fill is counted when it is reaped"
        );
        engine.shutdown();
    }

    /// A batch that panics still stops counting as executing: with a
    /// second worker free and a 60 s `max_wait`, the next lone request
    /// would otherwise wait out the minute behind a batch that is gone.
    #[test]
    fn a_panicked_batch_leaves_the_engine_idle() {
        let net = tiny_network();
        let config = quick_config()
            .with_workers(2)
            .with_max_wait(Duration::from_secs(60))
            .with_prewarm_batches(vec![])
            .with_background_reoptimize(false);
        // Nothing is pre-warmed, so the first batch searches its schedule
        // inside its run and hits the fault there.
        let (engine, cost) = PanicsOnce::armed_engine(&net, config);
        let doomed = engine.submit(TensorData::zeros(net.input_shape)).unwrap();
        assert_eq!(doomed.wait_outcome().err(), Some(Rejected::Failed));
        assert!(!cost.armed.load(Ordering::SeqCst), "the fault fired");
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

    #[test]
    fn a_panicking_backend_does_not_kill_the_worker() {
        use crate::exec::{BatchContext, BatchExecutor, BatchOutcome};
        use std::sync::atomic::AtomicBool;

        /// Panics on the first batch, behaves afterwards.
        struct FaultyOnce {
            fail_next: AtomicBool,
        }
        impl BatchExecutor for FaultyOnce {
            fn name(&self) -> &'static str {
                "faulty-once"
            }
            fn execute(&self, _ctx: &BatchContext<'_>) -> BatchOutcome {
                if self.fail_next.swap(false, Ordering::SeqCst) {
                    panic!("injected backend fault");
                }
                BatchOutcome {
                    outputs: None,
                    device_time_us: 1.0,
                }
            }
        }

        let net = tiny_network();
        let engine = ServeEngine::start_with_executor(
            net.clone(),
            quick_config(),
            Box::new(FaultyOnce {
                fail_next: AtomicBool::new(true),
            }),
        );
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

    #[test]
    fn simulated_backend_reports_device_time_without_outputs() {
        let net = tiny_network();
        let engine = ServeEngine::start_simulated(net.clone(), quick_config());
        let response = engine.infer(TensorData::zeros(net.input_shape)).unwrap();
        assert!(response.outputs.is_empty());
        assert!(response.device_us > 0.0);
        assert_eq!(engine.executor_name(), "simulated-device");
        engine.shutdown();
    }
}
