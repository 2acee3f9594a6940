//! The serving engine: worker pool wiring the dynamic batcher, the
//! specialized-schedule cache and a batch execution backend together.

use crate::adapt::AdaptState;
use crate::batcher::{BatchQueue, PushResult};
use crate::cache::{ScheduleCache, ScheduleKey};
use crate::config::{CostModelKind, PipelineMode, ServeConfig};
use crate::exec::{BatchContext, BatchExecutor, CpuReferenceExecutor, SimulatedDeviceExecutor};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::request::{
    InferenceResponse, Pending, Rejected, RequestId, ResponseHandle, ResponseLease, ScheduleSource,
    ServeError, TenantId,
};
use ios_backend::{stack_batch_pooled, CpuStageProfiler, NetworkWeights, ScratchPool, TensorData};
use ios_core::{
    network_block_costs, optimize_network, plan_pipeline, CachingCostModel, CostModel,
    NetworkSchedule, PipelinePlan, ProfiledCostModel, SimCostModel,
};
use ios_ir::{Network, SegmentPlan, TensorShape};
use ios_sim::Simulator;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The host's available parallelism (1 when unknown) — the single probe
/// the worker split, the pipeline planner's stage budget and the custom
/// backend default all derive from.
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
    pub(crate) base: Network,
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
    /// The cross-block pipeline plan, when [`ServeConfig::pipeline`] is on
    /// and the backend accepted it; [`Shared::run_batch`] consults it per
    /// batch size to pick pipelined vs flat batched execution.
    pub(crate) pipeline: Mutex<Option<Arc<PipelinePlan>>>,
    /// Per-batch sample-worker cap of the *flat* execution path — what the
    /// pipeline's prediction must beat. [`ServeEngine::start`] splits the
    /// host's cores across its dispatch workers, so this is usually below
    /// the core count; custom backends default to the full host.
    pub(crate) flat_workers: usize,
    pub(crate) instances: Mutex<HashMap<usize, Arc<Network>>>,
    pub(crate) background: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes cold-start synchronous schedule optimizations.
    pub(crate) sync_optimize: Mutex<()>,
    /// Live state of the runtime adaptation loop (shed mode, regret
    /// observations, controller stop signal).
    pub(crate) adapt: AdaptState,
    pub(crate) next_id: AtomicU64,
    /// Batch correlation ids for the tracer: every span and instant a
    /// batch's lifecycle emits carries the same id, so the timeline can be
    /// grouped per batch across worker, pipeline and request lanes.
    pub(crate) next_batch_id: AtomicU64,
}

impl Shared {
    /// The network instance shaped for `batch`, built on first use.
    pub(crate) fn instance(&self, batch: usize) -> Arc<Network> {
        let mut instances = self.instances.lock().expect("instances lock");
        Arc::clone(
            instances
                .entry(batch)
                .or_insert_with(|| Arc::new(self.base.with_batch_size(batch))),
        )
    }

    pub(crate) fn key(&self, batch: usize) -> ScheduleKey {
        ScheduleKey::new(self.base.name.clone(), batch, self.config.device)
    }

    /// Optimizes a schedule specialized for `batch` (synchronously).
    pub(crate) fn optimize(&self, batch: usize) -> Arc<NetworkSchedule> {
        let network = self.instance(batch);
        Arc::new(optimize_network(&network, &self.cost, &self.config.scheduler).schedule)
    }

    /// The Table 3 runtime policy: exact specialized schedule if cached,
    /// else nearest cached batch (kicking off background re-optimization of
    /// the exact one), else optimize synchronously.
    fn resolve_schedule(self: &Arc<Self>, batch: usize) -> (Arc<NetworkSchedule>, ScheduleSource) {
        let key = self.key(batch);
        if let Some(schedule) = self.cache.lookup(&key) {
            return (schedule, ScheduleSource::Exact);
        }
        if let Some((optimized_for, schedule)) = self.cache.nearest_batch(&key) {
            if self.config.background_reoptimize && self.cache.claim_background(&key) {
                let shared = Arc::clone(self);
                let handle = std::thread::Builder::new()
                    .name(format!("ios-serve-reopt-b{batch}"))
                    .spawn(move || {
                        let schedule = shared.optimize(batch);
                        shared.cache.insert_background(shared.key(batch), schedule);
                    })
                    .expect("spawn background re-optimization thread");
                self.background
                    .lock()
                    .expect("background lock")
                    .push(handle);
            }
            return (schedule, ScheduleSource::Nearest { optimized_for });
        }
        // Nothing usable is cached. Serialize synchronous optimizations so
        // cold-starting workers don't all run the same expensive search;
        // whoever loses the race finds the winner's entry on re-check.
        let _only_one_optimizer = self.sync_optimize.lock().expect("sync-optimize lock");
        if let Some(schedule) = self.cache.peek(&key) {
            return (schedule, ScheduleSource::Exact);
        }
        let schedule = self.optimize(batch);
        self.cache.insert(key, Arc::clone(&schedule));
        (schedule, ScheduleSource::FreshlyOptimized)
    }

    /// Builds a fresh cross-block pipeline plan from current cost-model
    /// measurements, or `None` when pipelining is off or the backend can't
    /// run one. Shared by startup planning and the adaptation controller's
    /// re-planning — both then decide separately whether the plan is worth
    /// installing.
    pub(crate) fn build_pipeline_plan(&self) -> Option<PipelinePlan> {
        if self.config.pipeline == PipelineMode::Off || !self.executor.can_pipeline() {
            // Planning measures every block (expensively, for a profiled
            // cost model): don't pay for a plan a flat-only backend would
            // discard anyway.
            return None;
        }
        // The per-sample (batch-1) schedule drives the plan: the pipeline
        // executes one sample per job regardless of serving batch size.
        let key = self.key(1);
        let schedule1 = self.cache.peek(&key).unwrap_or_else(|| {
            let schedule = self.optimize(1);
            self.cache.insert(key, Arc::clone(&schedule));
            schedule
        });
        let stage_workers = host_cores();
        Some(match self.config.pipeline {
            PipelineMode::Forced(segments) => PipelinePlan::for_segments(
                network_block_costs(&self.base, &schedule1, &self.cost),
                SegmentPlan::even(self.base.blocks.len(), segments.max(1)),
                stage_workers,
            ),
            _ => plan_pipeline(
                &self.base,
                &schedule1,
                &self.cost,
                stage_workers,
                self.config.pipeline_max_segments,
            ),
        })
    }

    /// Offers `plan` to the execution backend and installs it as the
    /// serving plan if the backend accepts. The executor's
    /// `prepare_pipeline` is mid-flight-swap safe (in-flight batches hold
    /// their own `Arc`s), so this is also the controller's re-plan commit.
    pub(crate) fn install_pipeline_plan(&self, plan: PipelinePlan) -> bool {
        if self
            .executor
            .prepare_pipeline(self.instance(1), Arc::clone(&self.weights), &plan)
        {
            *self.pipeline.lock().expect("pipeline plan lock") = Some(Arc::new(plan));
            true
        } else {
            false
        }
    }

    /// Plans the cross-block pipeline at startup when
    /// [`ServeConfig::pipeline`] asks for one: measure per-block costs of
    /// the batch-1 schedule with the engine's cost model (for
    /// [`CostModelKind::CpuProfiled`] with pipelining on, those stage
    /// latencies were measured *under concurrent load*), choose segment
    /// boundaries, and offer the plan to the execution backend. The plan
    /// only sticks if the backend can actually execute it.
    fn plan_pipeline_if_configured(self: &Arc<Self>) {
        let Some(plan) = self.build_pipeline_plan() else {
            return;
        };
        // Under `Auto` the pipeline only earns its stage workers if some
        // admissible batch size is actually predicted to route to it — a
        // flat plan, or a multi-segment plan that never beats the capped
        // flat path for any batch up to `max_batch`, stays flat.
        let worth_running = matches!(self.config.pipeline, PipelineMode::Forced(_))
            || (2..=self.config.max_batch)
                .any(|batch| plan.prefers_pipeline_vs(batch, self.flat_workers));
        if worth_running {
            self.install_pipeline_plan(plan);
        }
    }

    /// The wall-clock execute-time estimate the deadline-aware batcher
    /// subtracts from the most urgent queued deadline: the mean observed
    /// per-batch device time so far (zero until the first batch lands —
    /// before any measurement the batcher flushes right at the deadline).
    fn predicted_exec(&self) -> Duration {
        let device = self.metrics.device_time_histogram();
        if device.count() == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(device.mean() as u64)
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

    /// One worker: take batches until the queue closes and drains.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let predicted_exec = self.predicted_exec();
            let Some(batch) =
                self.queue
                    .next_batch(self.config.max_batch, self.config.max_wait, predicted_exec)
            else {
                break;
            };
            self.metrics.set_queue_depth(self.queue.depth());
            // A panicking batch (e.g. a custom executor bug) must not kill
            // the worker: its requests' senders drop (their handles see the
            // disconnect) and the worker moves on to the next batch.
            let shared = Arc::clone(self);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                shared.run_batch(batch);
            }));
            if let Err(panic) = result {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                eprintln!("ios-serve: batch execution panicked: {message}");
            }
        }
    }

    /// The pipeline plan this batch should execute under, per the
    /// configured [`PipelineMode`] and the plan's own per-batch-size
    /// prediction — `None` means flat batched execution. (Under
    /// [`PipelineMode::Off`] no plan is ever stored, so the lock read
    /// already short-circuits.)
    fn pipeline_for(&self, batch: usize) -> Option<Arc<PipelinePlan>> {
        let plan = self.pipeline.lock().expect("pipeline plan lock").clone()?;
        if let PipelineMode::Auto = self.config.pipeline {
            // Compare against the flat path as this engine actually runs
            // it: capped at `flat_workers` sample workers per batch.
            return plan
                .prefers_pipeline_vs(batch, self.flat_workers)
                .then_some(plan);
        }
        Some(plan)
    }

    fn run_batch(self: &Arc<Self>, batch: Vec<Pending>) {
        let tracer = ios_telemetry::tracer();
        // Requests whose deadline already passed complete as expired *before*
        // any schedule resolution or device dispatch — serving them would
        // burn device time on answers nobody can use.
        let now = Instant::now();
        let (batch, expired): (Vec<Pending>, Vec<Pending>) = batch
            .into_iter()
            .partition(|p| p.deadline.is_none_or(|d| now < d));
        for pending in expired {
            self.metrics.record_deadline_expired();
            tracer.instant("request.deadline_expired", "request", pending.id.0);
            let _ = pending.respond_to.send(Err(Rejected::DeadlineExceeded));
        }
        if batch.is_empty() {
            return;
        }
        let batch_id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
        let batch_size = batch.len();
        let mut batch_span = tracer.span("batch", "serve");
        batch_span.set_id(batch_id);
        batch_span.set_arg(batch_size as u64);
        let (schedule, source) = self.resolve_schedule(batch_size);
        let network = self.instance(batch_size);
        let mut pipeline = self.pipeline_for(batch_size);
        let dispatched_at = Instant::now();
        if let Some(oldest) = batch.iter().map(|p| p.enqueued_at).min() {
            // Batch assembly: the oldest member's enqueue to this dispatch.
            let assembly_us = (dispatched_at - oldest).as_secs_f64() * 1e6;
            self.metrics.record_assembly(assembly_us);
        }

        let input_refs: Vec<&TensorData> = batch.iter().map(|p| &p.input).collect();
        let stacked = stack_batch_pooled(&input_refs, &self.io_pool);
        let run = |pipeline: Option<&PipelinePlan>| {
            self.executor.execute(&BatchContext {
                network: &network,
                schedule: &schedule,
                weights: &self.weights,
                inputs: std::slice::from_ref(&stacked),
                pipeline,
            })
        };
        let mut exec_span = tracer.span("batch.execute", "serve");
        exec_span.set_id(batch_id);
        exec_span.set_arg(u64::from(pipeline.is_some()));
        let outcome = if let Some(plan) = pipeline.clone() {
            // A dead pipeline (one stage worker panicked and broke the
            // channel chain) must not take the engine down with it: drop
            // the plan so every later batch goes flat, and salvage *this*
            // batch by retrying it on the flat path right away.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(Some(&plan)))) {
                Ok(outcome) => outcome,
                Err(_) => {
                    eprintln!(
                        "ios-serve: pipelined execution failed; disabling the pipeline \
                         and retrying this batch flat"
                    );
                    *self.pipeline.lock().expect("pipeline plan lock") = None;
                    pipeline = None;
                    run(None)
                }
            }
        } else {
            run(None)
        };
        drop(exec_span);
        self.io_pool.recycle_tensor(stacked);
        self.metrics
            .record_batch(batch_size, outcome.device_time_us, pipeline.is_some());
        if self.config.adapt.enabled && source == ScheduleSource::Exact {
            // Feed the regret sensor: measured device time vs what the
            // schedule's optimizer predicted for exactly this batch size.
            self.adapt
                .observe(batch_size, outcome.device_time_us, schedule.latency_us);
        }

        // Split the stacked outputs (one entry per network output) into
        // per-sample response leases drawn from the io pool; each lease's
        // buffer returns to the pool when the client drops it. The stacked
        // output tensors themselves go back to the backend's pool.
        let mut responses: Vec<Vec<ResponseLease>> = (0..batch_size)
            .map(|_| Vec::with_capacity(outcome.outputs.as_ref().map_or(0, Vec::len)))
            .collect();
        if let Some(outputs) = outcome.outputs {
            for stacked_out in &outputs {
                let per_item = stacked_out.shape.elements_per_item();
                let item_shape = ios_ir::TensorShape::new(
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
        let device_share_us = outcome.device_time_us / batch_size as f64;

        for (pending, outputs) in batch.into_iter().zip(responses) {
            let now = Instant::now();
            let total_us = (now - pending.enqueued_at).as_secs_f64() * 1e6;
            let queue_us = (dispatched_at - pending.enqueued_at).as_secs_f64() * 1e6;
            self.metrics.record_latency(total_us);
            self.metrics.record_queue_wait(queue_us);
            self.metrics
                .tenant(&pending.tenant)
                .record_completed(queue_us);
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
                    batch_id,
                );
                tracer.instant("request.respond", "request", pending.id.0);
            }
            // A dropped ResponseHandle is fine; the send just fails.
            let _ = pending.respond_to.send(Ok(InferenceResponse {
                id: pending.id,
                outputs,
                batch_size,
                schedule_source: source,
                pipelined: pipeline.is_some(),
                queue_us,
                total_us,
                device_us: device_share_us,
            }));
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
    /// The adaptation controller thread, when [`crate::AdaptConfig`]
    /// enabled it.
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
            per_batch,
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
        Self::build(network, config, cost, Box::new(executor), host_cores())
    }

    /// Starts an engine with a custom execution backend, optimizing
    /// schedules against the cost model selected by
    /// [`ServeConfig::cost_model`]. The backend's flat per-batch fan-out is
    /// unknown here, so the pipeline-vs-flat prediction assumes it spans
    /// the whole host.
    #[must_use]
    pub fn start_with_executor(
        network: Network,
        config: ServeConfig,
        executor: Box<dyn BatchExecutor>,
    ) -> Self {
        let cost = Self::cost_model_for(&config);
        Self::build(network, config, cost, executor, host_cores())
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
            //
            // A pipelining engine additionally profiles **under concurrent
            // load** — one background load worker per sibling dispatch
            // worker — because its stages never run on an idle machine:
            // pipeline neighbours and concurrent batches contend for cores
            // and cache, and measurements that ignore that contention
            // mis-rank candidate stages and segment boundaries.
            CostModelKind::CpuProfiled => {
                let load = if config.pipeline == PipelineMode::Off {
                    0
                } else {
                    config.workers.saturating_sub(1)
                };
                Arc::new(ProfiledCostModel::with_policy(
                    CpuStageProfiler::new()
                        .with_background_load(load)
                        .with_precision(config.precision),
                    1,
                    3,
                ))
            }
        }
    }

    fn build(
        network: Network,
        config: ServeConfig,
        cost: Arc<dyn CostModel + Send + Sync>,
        executor: Box<dyn BatchExecutor>,
        flat_workers: usize,
    ) -> Self {
        assert!(!network.blocks.is_empty(), "cannot serve an empty network");
        assert_eq!(
            network.blocks[0].graph.input_shapes().len(),
            1,
            "the serving engine batches single-input networks"
        );
        let base = if network.input_shape.batch == 1 {
            network
        } else {
            network.with_batch_size(1)
        };
        let sample_shape = base.input_shape;
        let weights = Arc::new(NetworkWeights::precompute_as(&base, config.precision));

        let shared = Arc::new(Shared {
            sample_shape,
            queue: BatchQueue::with_tenants(config.tenants.clone()),
            cache: ScheduleCache::new(),
            cost,
            weights,
            executor,
            io_pool: Arc::new(ScratchPool::new()),
            metrics: ServeMetrics::new(),
            pipeline: Mutex::new(None),
            flat_workers: flat_workers.max(1),
            instances: Mutex::new(HashMap::new()),
            background: Mutex::new(Vec::new()),
            sync_optimize: Mutex::new(()),
            adapt: AdaptState::new(),
            next_id: AtomicU64::new(0),
            next_batch_id: AtomicU64::new(0),
            base,
            config,
        });

        // Pre-warm the schedule cache: the configured batch sizes get their
        // specialized schedules before the first request arrives.
        for batch in shared.config.effective_prewarm_batches() {
            let schedule = shared.optimize(batch);
            shared.cache.insert(shared.key(batch), schedule);
        }

        shared.plan_pipeline_if_configured();

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ios-serve-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn serving worker")
            })
            .collect();

        let controller = shared.config.adapt.enabled.then(|| {
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
        self.submit_inner(
            TenantId::default_tenant(),
            input,
            self.shared.config.adapt.default_deadline,
        )
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
        self.submit_inner(
            tenant.into(),
            input,
            self.shared.config.adapt.default_deadline,
        )
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
        self.submit_inner(tenant.into(), input, Some(budget))
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
        self.submit_inner(TenantId::default_tenant(), input, Some(budget))
    }

    fn submit_inner(
        &self,
        tenant: TenantId,
        input: TensorData,
        budget: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        if input.shape != self.shared.sample_shape {
            return Err(ServeError::WrongInputShape {
                expected: self.shared.sample_shape,
                submitted: input.shape,
            });
        }
        let id = RequestId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let (respond_to, receiver) = mpsc::channel();
        let enqueued_at = Instant::now();
        let pending = Pending {
            id,
            tenant: tenant.clone(),
            input,
            enqueued_at,
            deadline: budget.map(|b| enqueued_at + b),
            respond_to,
        };
        let (capacity, shedding) = self.shared.admission();
        match self.shared.queue.push_bounded(pending, capacity, shedding) {
            PushResult::Accepted => {}
            PushResult::Closed => return Err(ServeError::ShuttingDown),
            PushResult::Full | PushResult::RateLimited => {
                self.shared.metrics.record_shed();
                self.shared.metrics.tenant(&tenant).record_shed();
                ios_telemetry::tracer().instant("request.shed", "request", id.0);
                return Err(ServeError::Rejected(Rejected::Shed));
            }
        }
        ios_telemetry::tracer().instant("request.enqueue", "request", id.0);
        self.shared
            .metrics
            .set_queue_depth(self.shared.queue.depth());
        Ok(ResponseHandle { id, receiver })
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

    /// The serving metrics in Prometheus text exposition format: request
    /// counters, queue-depth gauge, schedule-cache counters, weight-cache
    /// footprint gauges (f32 vs int8 bytes), the selected-microkernel-ISA
    /// info gauge (`ios_simd_kernel{path,isa}`), the worker pool's lane
    /// gauge and intra-operator counters (`ios_worker_pool_lanes`,
    /// `ios_intra_op_jobs_total`, `ios_intra_op_chunks_total{by}` —
    /// process-wide, like the pool), the latency /
    /// queue-wait / batch-assembly / device-time histograms (exposed in
    /// microseconds), and per-tenant completed/shed counters and
    /// queue-wait histograms as `ios_tenant_*{tenant="…"}` labelled
    /// series.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        use ios_telemetry::prometheus as prom;
        let m = &self.shared.metrics;
        let cache = self.shared.cache.stats();
        let mut out = String::new();
        prom::counter(
            &mut out,
            "ios_requests_completed_total",
            "Requests answered since the engine started.",
            m.completed(),
        );
        prom::counter(
            &mut out,
            "ios_batches_total",
            "Batches dispatched since the engine started.",
            m.batches(),
        );
        prom::counter(
            &mut out,
            "ios_pipelined_batches_total",
            "Batches executed through the cross-block pipeline.",
            m.pipelined_batches(),
        );
        prom::counter(
            &mut out,
            "ios_requests_shed_total",
            "Requests turned away by admission control (bounded queue or shed mode).",
            m.shed(),
        );
        prom::counter(
            &mut out,
            "ios_requests_deadline_expired_total",
            "Requests completed as expired before reaching the device.",
            m.deadline_expired(),
        );
        prom::counter(
            &mut out,
            "ios_adaptation_replans_total",
            "Telemetry-triggered pipeline/schedule re-plans.",
            m.replans(),
        );
        prom::gauge(
            &mut out,
            "ios_queue_depth",
            "Requests waiting in the batching queue.",
            m.queue_depth() as f64,
        );
        prom::counter(
            &mut out,
            "ios_schedule_cache_hits_total",
            "Exact specialized-schedule cache hits.",
            cache.hits,
        );
        prom::counter(
            &mut out,
            "ios_schedule_cache_misses_total",
            "Schedule-cache lookups with no exact entry.",
            cache.misses,
        );
        prom::counter(
            &mut out,
            "ios_schedule_cache_nearest_total",
            "Batches served by the nearest cached batch size.",
            cache.nearest_served,
        );
        prom::counter(
            &mut out,
            "ios_schedule_cache_background_inserts_total",
            "Exact schedules inserted by background re-optimization.",
            cache.background_inserts,
        );
        prom::counter(
            &mut out,
            "ios_schedule_cache_evictions_total",
            "Schedules evicted for regretting their predicted device time.",
            cache.evictions,
        );
        prom::gauge(
            &mut out,
            "ios_schedule_cache_entries",
            "Schedules currently cached.",
            cache.entries as f64,
        );
        let footprint = self.shared.weights.footprint();
        prom::gauge(
            &mut out,
            "ios_weight_cache_f32_bytes",
            "Bytes of f32 weight arrays held by the weight cache.",
            footprint.f32_bytes as f64,
        );
        prom::gauge(
            &mut out,
            "ios_weight_cache_int8_bytes",
            "Bytes of int8 quantized weights (and scales) held by the weight cache.",
            footprint.int8_bytes as f64,
        );
        let isa = ios_backend::simd::active_isa().name();
        prom::info(
            &mut out,
            "ios_simd_kernel",
            "Selected microkernel ISA per numeric path (info gauge, constant 1).",
            &[
                &[("path", "f32"), ("isa", isa)],
                &[("path", "int8"), ("isa", isa)],
            ],
        );
        let pool = ios_backend::workers::stats();
        prom::gauge(
            &mut out,
            "ios_worker_pool_lanes",
            "Lanes of the process-wide worker pool: its parked helpers plus the caller.",
            pool.lanes as f64,
        );
        prom::counter(
            &mut out,
            "ios_intra_op_jobs_total",
            "Operators split into chunks across worker-pool lanes, process-wide.",
            pool.op_jobs,
        );
        prom::counter_family(
            &mut out,
            "ios_intra_op_chunks_total",
            "Operator chunks run, by lane: the thread that posted the job or a helper.",
            &[
                (&[("by", "caller")], pool.op_chunks_by_caller),
                (&[("by", "helper")], pool.op_chunks_by_helper),
            ],
        );
        prom::histogram_us(
            &mut out,
            "ios_request_latency_us",
            "Request latency, submission to response, microseconds.",
            &m.latency_histogram().snapshot(),
        );
        prom::histogram_us(
            &mut out,
            "ios_request_queue_wait_us",
            "Time requests spent queued before dispatch, microseconds.",
            &m.queue_wait_histogram().snapshot(),
        );
        prom::histogram_us(
            &mut out,
            "ios_batch_assembly_us",
            "Batch assembly time, oldest enqueue to dispatch, microseconds.",
            &m.batch_assembly_histogram().snapshot(),
        );
        prom::histogram_us(
            &mut out,
            "ios_batch_device_time_us",
            "Per-batch (simulated) device time, microseconds.",
            &m.device_time_histogram().snapshot(),
        );
        // Per-tenant labelled series: one sample (or histogram) per tenant
        // seen so far, `{tenant="…"}`. Absent entirely until the first
        // request arrives.
        let tenants = m.tenant_entries();
        if !tenants.is_empty() {
            let labels: Vec<[(&str, &str); 1]> = tenants
                .iter()
                .map(|(tenant, _)| [("tenant", tenant.name())])
                .collect();
            let completed: Vec<(&[(&str, &str)], u64)> = tenants
                .iter()
                .zip(&labels)
                .map(|((_, tm), l)| (l.as_slice(), tm.completed()))
                .collect();
            prom::counter_family(
                &mut out,
                "ios_tenant_requests_completed_total",
                "Requests answered, per tenant.",
                &completed,
            );
            let shed: Vec<(&[(&str, &str)], u64)> = tenants
                .iter()
                .zip(&labels)
                .map(|((_, tm), l)| (l.as_slice(), tm.shed()))
                .collect();
            prom::counter_family(
                &mut out,
                "ios_tenant_requests_shed_total",
                "Requests turned away by admission control, per tenant.",
                &shed,
            );
            let wait_snaps: Vec<ios_telemetry::HistogramSnapshot> = tenants
                .iter()
                .map(|(_, tm)| tm.queue_wait_histogram().snapshot())
                .collect();
            let waits: Vec<(&[(&str, &str)], &ios_telemetry::HistogramSnapshot)> = wait_snaps
                .iter()
                .zip(&labels)
                .map(|(snap, l)| (l.as_slice(), snap))
                .collect();
            prom::histogram_us_family(
                &mut out,
                "ios_tenant_queue_wait_us",
                "Time requests spent queued before dispatch, per tenant, microseconds.",
                &waits,
            );
        }
        out
    }

    /// The cross-block pipeline plan the engine is serving with, if the
    /// configured [`PipelineMode`] produced one and the backend accepted
    /// it. `None` means every batch runs flat batched execution.
    #[must_use]
    pub fn pipeline_plan(&self) -> Option<Arc<PipelinePlan>> {
        self.shared
            .pipeline
            .lock()
            .expect("pipeline plan lock")
            .clone()
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
        // Stop the adaptation controller first so no re-plan or eviction
        // races the drain below.
        self.shared.adapt.request_stop();
        if let Some(controller) = self.controller.take() {
            let _ = controller.join();
        }
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers may have spawned re-optimizations while draining; take
        // the list repeatedly until it stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *self.shared.background.lock().expect("background lock"));
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
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
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ScheduleSource;
    use std::time::Duration;

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
    fn coalesces_deep_queues_into_full_batches() {
        let net = tiny_network();
        let engine = ServeEngine::start(
            net.clone(),
            quick_config().with_max_wait(Duration::from_millis(50)),
        );
        let handles: Vec<_> = (0..8)
            .map(|i| {
                engine
                    .submit(TensorData::random(net.input_shape, i))
                    .unwrap()
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();
        // All eight went through batches of max_batch = 4.
        assert!(
            responses.iter().all(|r| r.batch_size == 4),
            "batch sizes: {:?}",
            responses.iter().map(|r| r.batch_size).collect::<Vec<_>>()
        );
        let metrics = engine.metrics();
        assert_eq!(metrics.completed, 8);
        assert!(metrics.mean_batch_size >= 3.9);
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
        let engine = ServeEngine::start(net.clone(), config);

        // A full batch of 4 → exact cache hit.
        let handles: Vec<_> = (0..4)
            .map(|i| {
                engine
                    .submit(TensorData::random(net.input_shape, i))
                    .unwrap()
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();
        assert!(responses
            .iter()
            .all(|r| r.schedule_source == ScheduleSource::Exact));

        // A lone pair → batch 2 has no exact schedule; the nearest cached
        // batch (1 or 4) serves it.
        let h1 = engine
            .submit(TensorData::random(net.input_shape, 10))
            .unwrap();
        let h2 = engine
            .submit(TensorData::random(net.input_shape, 11))
            .unwrap();
        let (r1, r2) = (h1.wait(), h2.wait());
        for r in [&r1, &r2] {
            if r.batch_size == 2 {
                assert!(
                    matches!(r.schedule_source, ScheduleSource::Nearest { optimized_for } if optimized_for == 1 || optimized_for == 4),
                    "batch 2 must be served by a nearest schedule, got {:?}",
                    r.schedule_source
                );
            }
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

    /// A three-block chain so a forced two-segment pipeline has a real
    /// boundary to cut.
    fn three_block_network() -> Network {
        use ios_ir::{Block, Conv2dParams, GraphBuilder};
        let input = TensorShape::new(1, 4, 6, 6);
        let mut b = GraphBuilder::new("engine_pipe_b0", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[a, c]);
        let block0 = Block::new(b.build(vec![cat]));
        let mut b = GraphBuilder::with_inputs("engine_pipe_b1", block0.graph.output_shapes());
        let x = b.input(0);
        let d = b.conv2d("d", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let block1 = Block::new(b.build(vec![d]));
        let mut b = GraphBuilder::with_inputs("engine_pipe_b2", block1.graph.output_shapes());
        let x = b.input(0);
        let e = b.conv2d("e", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let block2 = Block::new(b.build(vec![e]));
        Network::new("engine_pipe", input, vec![block0, block1, block2])
    }

    #[test]
    fn forced_pipeline_serves_bit_identical_responses() {
        let net = three_block_network();
        let config = quick_config()
            .with_pipeline(crate::PipelineMode::Forced(2))
            .with_max_wait(Duration::from_millis(30));
        let engine = ServeEngine::start(net.clone(), config);
        let plan = engine.pipeline_plan().expect("forced mode must plan");
        assert_eq!(plan.segments.num_segments(), 2);

        let inputs: Vec<TensorData> = (0..4)
            .map(|i| TensorData::random(net.input_shape, 60 + i))
            .collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|t| engine.submit(t.clone()).unwrap())
            .collect();
        let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();
        for (input, response) in inputs.iter().zip(&responses) {
            assert!(response.pipelined, "forced mode routes every batch");
            let solo = ios_backend::execute_network(&net, std::slice::from_ref(input));
            assert_eq!(response.outputs.len(), solo.len());
            for (lease, reference) in response.outputs.iter().zip(&solo) {
                assert_eq!(
                    lease, reference,
                    "pipelined serving must be bit-identical to solo execution"
                );
            }
        }
        let metrics = engine.metrics();
        assert!(metrics.pipelined_batches >= 1);
        assert_eq!(metrics.pipelined_batches, metrics.batches);
        engine.shutdown();
    }

    #[test]
    fn a_dead_pipeline_falls_back_to_flat_execution() {
        use crate::exec::{BatchContext, BatchExecutor, BatchOutcome};
        use ios_core::PipelinePlan;

        /// Accepts the pipeline offer but dies on every pipelined batch —
        /// the shape of a stage-worker panic surfacing through
        /// `execute_batch`; flat execution works fine.
        struct DeadPipeline;
        impl BatchExecutor for DeadPipeline {
            fn name(&self) -> &'static str {
                "dead-pipeline"
            }
            fn execute(&self, ctx: &BatchContext<'_>) -> BatchOutcome {
                assert!(
                    ctx.pipeline.is_none(),
                    "simulated stage-worker death on the pipelined path"
                );
                BatchOutcome {
                    outputs: None,
                    device_time_us: 1.0,
                }
            }
            fn can_pipeline(&self) -> bool {
                true
            }
            fn prepare_pipeline(
                &self,
                _network: Arc<Network>,
                _weights: Arc<NetworkWeights>,
                _plan: &PipelinePlan,
            ) -> bool {
                true
            }
        }

        let net = three_block_network();
        let config = quick_config().with_pipeline(crate::PipelineMode::Forced(2));
        let engine = ServeEngine::start_with_executor(net.clone(), config, Box::new(DeadPipeline));
        assert!(engine.pipeline_plan().is_some());
        // The first batch hits the dead pipeline, falls back to flat
        // mid-batch (the request is salvaged, served un-pipelined) and
        // disables the pipeline for good.
        let response = engine.infer(TensorData::zeros(net.input_shape)).unwrap();
        assert!(!response.pipelined, "the salvaged batch was served flat");
        assert!(
            engine.pipeline_plan().is_none(),
            "a dead pipeline must be disabled"
        );
        // Later batches go straight to the flat path.
        let response = engine.infer(TensorData::zeros(net.input_shape)).unwrap();
        assert!(!response.pipelined);
        let metrics = engine.metrics();
        assert_eq!(metrics.pipelined_batches, 0);
        assert_eq!(metrics.completed, 2);
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
