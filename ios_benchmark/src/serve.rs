//! The two serving workloads. Both drive `ServeEngine` through its public
//! submit calls from one generator thread and check every response bit for
//! bit against `ios_backend::execute_network`.

use crate::gen::{due_latency, poisson_schedule, Rng};
use crate::host::nproc;
use crate::layers;
use crate::run::{ms_since, repeat_setup, repeat_setup_again, Outcome, RunArgs};
use crate::span::Trace;
use crate::stats::{best, mean, median, percentile, sorted};
use crate::table::SLO_MS;
use ios_backend::{execute_network, NetworkWeights, TensorData};
use ios_core::{
    optimize_network, sequential_network_schedule, NetworkSchedule, PipelinePlan, SchedulerConfig,
    SimCostModel,
};
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use ios_serve::{
    BatchContext, BatchExecutor, BatchOutcome, CpuReferenceExecutor, InferenceResponse,
    MetricsSnapshot, Rejected, ResponseHandle, ServeConfig, ServeEngine, TenantConfig,
};
use ios_sim::{DeviceKind, Simulator};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Inputs every request draws from.
const INPUT_POOL: usize = 16;

enum Load {
    /// Requests sent on a seeded Poisson schedule at this rate, whatever the
    /// engine does; each is timed from when it was due.
    Open { rate_per_s: f64 },
    /// This many requests kept outstanding by the one generator thread; each
    /// is timed from its submit call.
    Closed { outstanding: usize },
}

struct Spec {
    build: fn() -> Network,
    config: fn() -> ServeConfig,
    load: Load,
    /// Tenants alternated between, each request carrying a 1 s deadline;
    /// empty for anonymous `submit`.
    tenants: &'static [&'static str],
}

pub fn open_squeezenet(args: RunArgs) -> Outcome {
    run(
        args,
        &Spec {
            build: || ios_models::squeezenet(1),
            config: ServeConfig::default,
            load: Load::Open { rate_per_s: 10.0 },
            tenants: &[],
        },
    )
}

pub fn closed_small(args: RunArgs) -> Outcome {
    run(
        args,
        &Spec {
            build: small_network,
            config: || {
                ServeConfig::default()
                    .with_tenant("even", TenantConfig::default())
                    .with_tenant("odd", TenantConfig::default())
            },
            load: Load::Closed { outstanding: 16 },
            tenants: &["even", "odd"],
        },
    )
}

/// Three blocks of `3x3 || 1x1 -> concat -> 1x1` on 16 channels of 16x16:
/// about a quarter of a millisecond of device time per sample, so the
/// engine's own work is most of each request.
fn small_network() -> Network {
    let input = TensorShape::new(1, 16, 16, 16);
    let mut shape = input;
    let blocks = (0..3)
        .map(|i| {
            let mut b = GraphBuilder::new(format!("small_block{i}"), shape);
            let x = b.input(0);
            let wide = b.conv2d("wide", x, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
            let point = b.conv2d("point", x, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
            let cat = b.concat("cat", &[wide, point]);
            let mix = b.conv2d("mix", cat, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
            let graph = b.build(vec![mix]);
            shape = graph.output_shapes()[0];
            Block::new(graph)
        })
        .collect();
    Network::new("bench_small", input, blocks)
}

/// One request as the client saw it.
struct Record {
    due: Instant,
    sent: Instant,
    submitted: Instant,
    done: Instant,
    /// Answered, and bit-identical to the reference.
    ok: bool,
    queue_us: f64,
    device_us: f64,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        due_latency(self.due, self.done).as_secs_f64() * 1e3
    }
}

struct Phase {
    records: Vec<Record>,
    /// Seconds from the first request being due to the last response.
    window_s: f64,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(Record::latency_ms).collect()
    }

    /// Requests answered correctly (open loop: within the limit).
    fn good(&self, spec: &Spec) -> usize {
        self.records
            .iter()
            .filter(|r| {
                r.ok && (matches!(spec.load, Load::Closed { .. }) || r.latency_ms() <= SLO_MS)
            })
            .count()
    }
}

#[derive(Clone, Copy)]
struct Client<'a> {
    engine: &'a ServeEngine,
    spec: &'a Spec,
    inputs: &'a [TensorData],
    expected: &'a [Vec<TensorData>],
}

impl Client<'_> {
    /// Submits request `index` carrying input `which`; `due` is when it
    /// should have been sent.
    fn send(
        &self,
        index: u64,
        which: usize,
        due: Option<Instant>,
    ) -> (Record, Option<ResponseHandle>) {
        let input = self.inputs[which].clone();
        let sent = Instant::now();
        let handle = self.submit(index, input).ok();
        let record = Record {
            due: due.unwrap_or(sent),
            sent,
            submitted: Instant::now(),
            done: sent,
            ok: false,
            queue_us: 0.0,
            device_us: 0.0,
        };
        (record, handle)
    }

    fn submit(
        &self,
        index: u64,
        input: TensorData,
    ) -> Result<ResponseHandle, ios_serve::ServeError> {
        if self.spec.tenants.is_empty() {
            self.engine.submit(input)
        } else {
            let tenant = self.spec.tenants[index as usize % self.spec.tenants.len()];
            self.engine
                .submit_for_tenant_with_deadline(tenant, input, Duration::from_secs(1))
        }
    }

    fn matches(&self, which: usize, response: &InferenceResponse) -> bool {
        let want = &self.expected[which];
        response.outputs.len() == want.len()
            && response.outputs.iter().zip(want).all(|(got, want)| {
                got.shape == want.shape
                    && got
                        .data
                        .iter()
                        .zip(&want.data)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }

    /// Waits for the engine's answer (a refused request has none) and
    /// completes `record` from it.
    fn finish(&self, mut record: Record, which: usize, handle: Option<ResponseHandle>) -> Record {
        let outcome = handle.map_or(Err(Rejected::Shed), ResponseHandle::wait_outcome);
        record.done = Instant::now();
        if let Ok(response) = outcome {
            record.ok = self.matches(which, &response);
            record.queue_us = response.queue_us;
            record.device_us = response.device_us;
        }
        record
    }

    fn open(&self, seed: u64, rate_per_s: f64, seconds: f64) -> Phase {
        let schedule = poisson_schedule(seed, rate_per_s, Duration::from_secs_f64(seconds));
        let mut pick = Rng::new(seed ^ 0x5EED);
        let records = Mutex::new(Vec::with_capacity(schedule.len()));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (index, offset) in schedule.iter().enumerate() {
                let which = pick.below(self.inputs.len());
                let due = start + *offset;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let (record, handle) = self.send(index as u64, which, Some(due));
                let records = &records;
                // One waiter per request, so each response is stamped when
                // it arrives and not when an earlier one does.
                scope.spawn(move || {
                    let done = self.finish(record, which, handle);
                    records.lock().expect("records lock").push(done);
                });
            }
        });
        let mut records = records.into_inner().expect("records lock");
        records.sort_by_key(|r| r.due);
        let first = records.first().map_or(start, |r| r.due);
        let last = records.iter().map(|r| r.done).max().unwrap_or(start);
        Phase {
            window_s: (last - first).as_secs_f64(),
            records,
        }
    }

    fn closed(&self, seed: u64, outstanding: usize, seconds: f64) -> Phase {
        let mut pick = Rng::new(seed ^ 0x5EED);
        let mut inflight = VecDeque::new();
        let mut records = Vec::new();
        let mut index = 0u64;
        let start = Instant::now();
        loop {
            while inflight.len() < outstanding && start.elapsed().as_secs_f64() < seconds {
                let which = pick.below(self.inputs.len());
                let (record, handle) = self.send(index, which, None);
                inflight.push_back((record, which, handle));
                index += 1;
            }
            let Some((record, which, handle)) = inflight.pop_front() else {
                break;
            };
            records.push(self.finish(record, which, handle));
        }
        Phase {
            window_s: start.elapsed().as_secs_f64(),
            records,
        }
    }

    fn drive(&self, seed: u64, seconds: f64) -> Phase {
        match self.spec.load {
            Load::Open { rate_per_s } => self.open(seed, rate_per_s, seconds),
            Load::Closed { outstanding } => self.closed(seed, outstanding, seconds),
        }
    }
}

/// One `execute` call as the wrapped executor saw it.
struct ExecSpan {
    start: Instant,
    end: Instant,
    /// `device_time_us / batch` exactly as the engine computes the
    /// per-request share it reports, which is how a response is matched to
    /// the batch that produced it.
    share_bits: u64,
}

type ExecLog = Mutex<Vec<ExecSpan>>;

/// The CPU reference executor with a span recorded around every `execute`;
/// every other method is the inner executor's.
struct SpanExecutor {
    inner: CpuReferenceExecutor,
    log: Arc<ExecLog>,
}

impl BatchExecutor for SpanExecutor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(&self, ctx: &BatchContext<'_>) -> BatchOutcome {
        let start = Instant::now();
        let outcome = self.inner.execute(ctx);
        let end = Instant::now();
        let batch = ctx.inputs[0].shape.batch;
        self.log.lock().expect("exec log lock").push(ExecSpan {
            start,
            end,
            share_bits: (outcome.device_time_us / batch as f64).to_bits(),
        });
        outcome
    }

    fn can_pipeline(&self) -> bool {
        self.inner.can_pipeline()
    }

    fn prepare_pipeline(
        &self,
        network: Arc<Network>,
        weights: Arc<NetworkWeights>,
        plan: &PipelinePlan,
    ) -> bool {
        self.inner.prepare_pipeline(network, weights, plan)
    }

    fn recycle_outputs(&self, outputs: Vec<TensorData>) {
        self.inner.recycle_outputs(outputs);
    }

    fn pool_stats(&self) -> Option<(u64, u64)> {
        BatchExecutor::pool_stats(&self.inner)
    }
}

/// Sends a few full batches' worth of requests so pools, caches and lazy
/// set-up are out of the way before timing; every answer is checked.
fn warm_up(client: &Client<'_>, out: &mut Outcome) {
    let phase = client.closed(0, 8, 0.25);
    out.check(phase.records.iter().all(|r| r.ok), || {
        "a warm-up response was wrong or refused".to_string()
    });
}

fn count_failures(out: &mut Outcome, phase: &Phase) {
    // A late answer lowers goodput; only a refused, expired or wrong one is
    // a failed operation.
    let wrong = phase.records.iter().filter(|r| !r.ok).count();
    out.attempted += phase.records.len() as u64;
    out.failed += wrong as u64;
    out.check(wrong == 0, || {
        format!("{wrong} requests were refused, expired or answered wrongly")
    });
}

fn run(args: RunArgs, spec: &Spec) -> Outcome {
    let mut out = Outcome::default();
    let (mut build_ms, mut start_ms) = (Vec::new(), Vec::new());
    let mut build = || {
        let start = Instant::now();
        let network = (spec.build)();
        build_ms.push(ms_since(start));
        let start = Instant::now();
        let engine = ServeEngine::start(network.clone(), (spec.config)());
        start_ms.push(ms_since(start));
        (network, engine)
    };
    let mut discard = |(_, engine): (Network, ServeEngine)| engine.shutdown();
    let (network, engine) = repeat_setup(&mut build, &mut discard, &mut out.setup_s);

    let reference_start = Instant::now();
    let inputs: Vec<TensorData> = (0..INPUT_POOL as u64)
        .map(|i| TensorData::random(network.input_shape, args.seed.wrapping_mul(1000) + i))
        .collect();
    let expected: Vec<Vec<TensorData>> = inputs
        .iter()
        .map(|input| execute_network(&network, std::slice::from_ref(input)))
        .collect();
    let reference_s = reference_start.elapsed().as_secs_f64();

    let client = Client {
        engine: &engine,
        spec,
        inputs: &inputs,
        expected: &expected,
    };
    warm_up(&client, &mut out);

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = client.drive(args.seed, untraced_seconds);
    count_failures(&mut out, &untraced);
    out.latencies_ms = untraced.latencies_ms();
    out.goodput_ops_s = untraced.good(spec) as f64 / untraced.window_s;
    let after = engine.metrics();
    out.check(after.shed == 0 && after.deadline_expired == 0, || {
        format!(
            "engine shed {} and expired {} requests",
            after.shed, after.deadline_expired
        )
    });
    if !args.trace {
        engine.shutdown();
        repeat_setup_again(&mut build, &mut discard, &mut out);
        return out;
    }
    out.layer(
        "serve.slo_share",
        untraced.good(spec) as f64 / untraced.records.len().max(1) as f64,
    );
    let tail = sorted(&out.latencies_ms);
    out.layer("serve.latency_ms_p95", percentile(&tail, 95.0));
    out.layer("serve.latency_ms_p99", percentile(&tail, 99.0));
    engine.shutdown();

    // Traced half: the same engine configuration behind a span-recording
    // executor, the crates' own tracer switched on.
    let config = (spec.config)();
    let workers = config.workers.max(1);
    let log = Arc::new(ExecLog::default());
    let traced_engine = ServeEngine::start_with_executor(
        network.clone(),
        config,
        Box::new(SpanExecutor {
            inner: CpuReferenceExecutor::with_max_workers(nproc().div_ceil(workers)),
            log: Arc::clone(&log),
        }),
    );
    let client = Client {
        engine: &traced_engine,
        spec,
        inputs: &inputs,
        expected: &expected,
    };
    warm_up(&client, &mut out);
    let tracer = ios_telemetry::tracer();
    tracer.clear();
    let dropped_before = tracer.dropped();
    let before = traced_engine.metrics();
    let pool_before = traced_engine.executor_pool_stats().unwrap_or((0, 0));
    let io_before = traced_engine.io_pool_stats();
    let mark = log.lock().expect("exec log lock").len();
    tracer.set_enabled(true);
    let traced = client.drive(args.seed + 1, args.seconds / 2.0);
    tracer.set_enabled(false);
    count_failures(&mut out, &traced);
    let after = traced_engine.metrics();
    let pool_after = traced_engine.executor_pool_stats().unwrap_or((0, 0));
    let io_after = traced_engine.io_pool_stats();
    let dropped = tracer.dropped() - dropped_before;
    let records = tracer.records().len() as u64 + dropped;

    let start = Instant::now();
    let text = traced_engine.prometheus_text();
    let valid = ios_telemetry::prometheus::validate(&text);
    out.layer("telemetry.prometheus_ms", ms_since(start));
    out.check(valid.is_ok(), || {
        format!("prometheus text is invalid: {valid:?}")
    });
    traced_engine.shutdown();

    let spans = std::mem::take(&mut *log.lock().expect("exec log lock"));
    waterfall(&mut out, &traced, &spans[mark..], workers);
    engine_counters(&mut out, &before, &after);
    let (fresh, reuses) = (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1);
    out.layer("backend.arena_fresh", fresh as f64);
    out.layer(
        "backend.arena_reuse_ratio",
        reuses as f64 / (fresh + reuses).max(1) as f64,
    );
    out.layer("serve.io_pool_fresh", (io_after.0 - io_before.0) as f64);
    out.layer(
        "telemetry.records_per_request",
        records as f64 / traced.records.len().max(1) as f64,
    );
    out.layer("telemetry.dropped", dropped as f64);
    out.layer(
        "telemetry.trace_overhead_pct",
        (best(&traced.latencies_ms()) / best(&out.latencies_ms) - 1.0) * 100.0,
    );
    out.layer("models.build_ms", median(&build_ms));
    out.layer("serve.engine_start_ms", median(&start_ms));
    out.layer("bench.reference_s", reference_s);
    out.notes.push(format!(
        "requests: {} untraced, {} traced in {} batches",
        untraced.records.len(),
        traced.records.len(),
        spans.len() - mark
    ));
    backend_side(&mut out, &network, &inputs);
    out
}

/// Links every traced request to the `execute` span of its batch, records
/// `request -> submit | queue | execute | respond` spans and derives the
/// serving waterfall from them.
fn waterfall(out: &mut Outcome, traced: &Phase, exec: &[ExecSpan], workers: usize) {
    let mut by_share: HashMap<u64, Vec<&ExecSpan>> = HashMap::new();
    for span in exec {
        by_share.entry(span.share_bits).or_default().push(span);
    }
    let us = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e6;
    let mut trace = Trace::new(traced.records.first().map_or_else(Instant::now, |r| r.due));
    let (mut submit_us, mut respond_us, mut overhead_us, mut lag_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut whole_us, mut parts_us) = (0.0, 0.0);
    let mut unlinked = 0usize;
    for (id, r) in traced.records.iter().enumerate() {
        lag_ms.push(us(r.due, r.sent) / 1e3);
        if !r.ok {
            continue;
        }
        // Of the batches with this exact device share, the one that ended
        // last before the client held the response.
        let batch = by_share.get(&r.device_us.to_bits()).and_then(|candidates| {
            candidates
                .iter()
                .filter(|e| e.end <= r.done && e.end >= r.submitted)
                .max_by_key(|e| e.end)
        });
        let Some(batch) = batch else {
            unlinked += 1;
            continue;
        };
        let id = id as u64;
        let root = trace.push("request", trace.ns(r.due), trace.ns(r.done), None, id);
        let exec_start = batch.start.max(r.submitted);
        for (name, from, to) in [
            ("submit", r.sent, r.submitted),
            ("queue", r.submitted, exec_start),
            ("execute", exec_start, batch.end),
            ("respond", batch.end, r.done),
        ] {
            trace.push(name, trace.ns(from), trace.ns(to), Some(root), id);
        }
        let (submit, execute) = (us(r.sent, r.submitted), us(batch.start, batch.end));
        let (respond, client) = (us(batch.end, r.done), us(r.sent, r.done));
        submit_us.push(submit);
        respond_us.push(respond);
        overhead_us.push(client - r.queue_us - execute);
        whole_us += client;
        parts_us += submit + r.queue_us + execute + respond;
    }
    let queue_us = sorted(
        &traced
            .records
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.queue_us)
            .collect::<Vec<_>>(),
    );
    let busy_us: f64 = exec.iter().map(|e| us(e.start, e.end)).sum();
    out.layer("serve.submit_us_p50", median(&submit_us));
    out.layer("serve.queue_wait_us_p50", percentile(&queue_us, 50.0));
    out.layer("serve.queue_wait_us_p95", percentile(&queue_us, 95.0));
    out.layer(
        "serve.execute_us_per_batch",
        busy_us / exec.len().max(1) as f64,
    );
    out.layer(
        "serve.executor_busy_share",
        busy_us / 1e6 / (workers as f64 * traced.window_s),
    );
    out.layer("serve.respond_us_p50", median(&respond_us));
    out.layer("serve.overhead_us_per_req", mean(&overhead_us));
    out.layer("bench.gen_lag_ms_p95", percentile(&sorted(&lag_ms), 95.0));
    // Engine-reported queue wait and the wrapped executor's span are
    // independent clocks on the same request; with the client's own submit
    // and respond times they must add up to what the client waited.
    out.reconcile(
        "request = submit + queue + execute + respond (mean us)",
        whole_us / submit_us.len().max(1) as f64,
        parts_us / submit_us.len().max(1) as f64,
    );
    if unlinked * 100 > traced.records.len() {
        out.unreconciled
            .push(format!("{unlinked} responses matched no execute span"));
    }
    out.trace = Some(trace);
}

fn engine_counters(out: &mut Outcome, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let batches = after.batches - before.batches;
    out.layer("serve.batches", batches as f64);
    out.layer(
        "serve.batch_size_mean",
        (after.completed - before.completed) as f64 / batches.max(1) as f64,
    );
    out.layer(
        "serve.cache_hits",
        (after.cache.hits - before.cache.hits) as f64,
    );
    out.layer(
        "serve.cache_nearest_served",
        (after.cache.nearest_served - before.cache.nearest_served) as f64,
    );
    out.layer(
        "serve.cache_background_inserts",
        (after.cache.background_inserts - before.cache.background_inserts) as f64,
    );
    out.layer("serve.shed", after.shed as f64);
    out.layer("serve.deadline_expired", after.deadline_expired as f64);
}

/// What the engine does inside `start`, repeated from outside so its parts
/// can be timed: the pre-warm searches, the weight precompute, and a full
/// batch through the backend.
fn backend_side(out: &mut Outcome, network: &Network, inputs: &[TensorData]) {
    let cost = || SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let config = SchedulerConfig::paper_default();
    let start = Instant::now();
    let schedules: Vec<NetworkSchedule> = [1, 8]
        .into_iter()
        .map(|batch| optimize_network(&network.with_batch_size(batch), &cost(), &config).schedule)
        .collect();
    out.layer("core.optimize_ms", ms_since(start));
    let start = Instant::now();
    let weights = NetworkWeights::precompute(network);
    out.layer("backend.precompute_ms", ms_since(start));
    out.layer(
        "backend.weight_mb",
        weights.footprint().total() as f64 / (1024.0 * 1024.0),
    );
    layers::network_counts(out, &[network]);
    layers::schedule_counts(
        out,
        &schedules[0],
        &sequential_network_schedule(network, &cost()),
    );
    layers::batch_of_eight(out, network, &schedules[1], &weights, inputs);
}
