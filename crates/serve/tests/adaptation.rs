//! The runtime adaptation suite: deadline-aware batching and the
//! telemetry-driven controller's re-planning and regret eviction. (The
//! chaos case of a panic inside a re-plan is an engine unit test.)
//!
//! * deadlines: an already-expired request completes with a typed
//!   rejection **without any device dispatch**; a deadline-carrying
//!   request flushes early instead of waiting out `max_wait`; a mixed
//!   batch serves the live requests and rejects only the expired ones;
//! * re-planning: when the observed batch-size mix shifts, the controller
//!   re-plans (counter observed) and responses stay **bit-identical** to
//!   solo references across the adaptation-triggered schedule swap;
//! * regret: a backend whose measured device time drifts 10× away from
//!   the optimizer's prediction gets its cached schedule evicted (after a
//!   first calibration window bridges the units);
//! * shed latch: a parked request that keeps the queue occupied (but never
//!   fills a window) must not latch shed mode forever — the stale-tick
//!   clause disengages it;
//! * phantom dominant: a traffic mix of full batch-96 dispatches must not
//!   make the controller optimize and cache a schedule for batch 97 (a
//!   log-bucket representative that was never dispatched).

use ios_backend::{execute_network, TensorData};
use ios_ir::Network;
use ios_serve::{BatchContext, BatchExecutor, BatchOutcome, Rejected, ServeConfig, ServeEngine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common {
    use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};

    /// The three-block chain from the concurrency suite: distinct
    /// per-batch schedules, small enough to stress in CI.
    pub fn three_block_network() -> Network {
        let input = TensorShape::new(1, 4, 6, 6);
        let mut b = GraphBuilder::new("adapt_b0", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[a, c]);
        let block0 = Block::new(b.build(vec![cat]));
        let mut b = GraphBuilder::with_inputs("adapt_b1", block0.graph.output_shapes());
        let x = b.input(0);
        let d = b.conv2d("d", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let block1 = Block::new(b.build(vec![d]));
        let mut b = GraphBuilder::with_inputs("adapt_b2", block1.graph.output_shapes());
        let x = b.input(0);
        let e = b.conv2d("e", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let block2 = Block::new(b.build(vec![e]));
        Network::new("adapt_net", input, vec![block0, block1, block2])
    }
}

fn reference_outputs(net: &Network, seed: u64) -> Vec<TensorData> {
    let input = TensorData::random(net.input_shape, seed);
    execute_network(net, std::slice::from_ref(&input))
}

// ---------------------------------------------------------------- deadlines

#[test]
fn an_already_expired_request_is_rejected_without_device_dispatch() {
    let net = common::three_block_network();
    let config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(5));
    let engine = ServeEngine::start(net.clone(), config);
    // A zero budget expires at enqueue: the batcher flushes immediately
    // and assembly must reject it before any schedule resolution or
    // device work.
    let handle = engine
        .submit_with_deadline(TensorData::zeros(net.input_shape), Duration::ZERO)
        .unwrap();
    assert_eq!(
        handle.wait_outcome().err(),
        Some(Rejected::DeadlineExceeded)
    );
    let metrics = engine.metrics();
    assert_eq!(metrics.deadline_expired, 1);
    assert_eq!(metrics.batches, 0, "the expired request never dispatched");
    assert_eq!(metrics.completed, 0);
    assert_eq!(
        metrics.cache.hits + metrics.cache.misses,
        0,
        "no schedule was even resolved"
    );
    engine.shutdown();
}

#[test]
fn a_deadline_flushes_the_batch_early_instead_of_waiting_out_max_wait() {
    let net = common::three_block_network();
    // max_wait is a full minute; only the deadline can explain a prompt
    // answer.
    let config = ServeConfig::default()
        .with_max_batch(8)
        .with_workers(1)
        .with_max_wait(Duration::from_secs(60));
    let engine = ServeEngine::start(net.clone(), config);
    let start = Instant::now();
    let response = engine
        .submit_with_deadline(
            TensorData::random(net.input_shape, 3),
            Duration::from_millis(200),
        )
        .unwrap()
        .wait_outcome()
        .expect("flushed before its deadline");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "deadline-aware flush must beat the 60 s max_wait (took {:?})",
        start.elapsed()
    );
    assert_eq!(response.batch_size, 1);
    for (lease, reference) in response.outputs.iter().zip(&reference_outputs(&net, 3)) {
        assert_eq!(
            lease, reference,
            "an early flush still serves exact numerics"
        );
    }
    engine.shutdown();
}

#[test]
fn a_mixed_batch_serves_live_requests_and_rejects_only_the_expired() {
    let net = common::three_block_network();
    let config = ServeConfig::default()
        .with_max_batch(2)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(50));
    let engine = ServeEngine::start(net.clone(), config);
    // Two requests fill max_batch and dispatch together: one already
    // expired, one with plenty of slack.
    let doomed = engine
        .submit_with_deadline(TensorData::random(net.input_shape, 1), Duration::ZERO)
        .unwrap();
    let live = engine
        .submit_with_deadline(
            TensorData::random(net.input_shape, 2),
            Duration::from_secs(60),
        )
        .unwrap();
    assert_eq!(
        doomed.wait_outcome().err(),
        Some(Rejected::DeadlineExceeded)
    );
    let response = live.wait_outcome().expect("the live request is served");
    assert_eq!(
        response.batch_size, 1,
        "the expired member was partitioned out before stacking"
    );
    for (lease, reference) in response.outputs.iter().zip(&reference_outputs(&net, 2)) {
        assert_eq!(lease, reference);
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.deadline_expired, 1);
    assert_eq!(metrics.completed, 1);
    engine.shutdown();
}

#[test]
fn default_deadline_applies_to_plain_submits() {
    let net = common::three_block_network();
    let config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(1)
        .with_max_wait(Duration::from_secs(60))
        .with_default_deadline(Duration::ZERO);
    let engine = ServeEngine::start(net.clone(), config);
    let handle = engine.submit(TensorData::zeros(net.input_shape)).unwrap();
    assert_eq!(
        handle.wait_outcome().err(),
        Some(Rejected::DeadlineExceeded)
    );
    assert_eq!(engine.metrics().deadline_expired, 1);
    engine.shutdown();
}

// ------------------------------------------------------- mix-shift replan

#[test]
fn a_traffic_mix_shift_triggers_a_replan_and_responses_stay_bit_identical() {
    let net = common::three_block_network();
    let config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![1, 4])
        .with_background_reoptimize(false)
        .with_adaptation(true)
        .with_adapt_tick(Duration::from_millis(5));
    let mut adapt_config = config;
    adapt_config.adapt.min_window_batches = 4;
    let engine = ServeEngine::start(net.clone(), adapt_config);
    let references: Vec<Vec<TensorData>> = (0..4).map(|s| reference_outputs(&net, s)).collect();

    let check = |handles: Vec<ios_serve::ResponseHandle>, seeds: &[u64]| {
        for (handle, &seed) in handles.into_iter().zip(seeds) {
            let response = handle.wait_outcome().expect("no deadline configured");
            for (lease, reference) in response.outputs.iter().zip(&references[seed as usize]) {
                assert_eq!(
                    lease, reference,
                    "response diverged from solo execution across an \
                     adaptation-triggered swap (batch {})",
                    response.batch_size
                );
            }
        }
    };

    // Phase 1: singles until the controller plans for batch 1.
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.metrics().replans < 1 {
        assert!(
            Instant::now() < deadline,
            "controller never re-planned for the single-request mix \
             (replans {}, batches {})",
            engine.metrics().replans,
            engine.metrics().batches
        );
        let seed = 1u64;
        let handle = engine
            .submit(TensorData::random(net.input_shape, seed))
            .unwrap();
        check(vec![handle], &[seed]);
    }

    // Phase 2: bursts of max_batch shift the dominant size to 4; the
    // controller must re-plan again, and the swap must stay invisible in
    // the numerics.
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.metrics().replans < 2 {
        assert!(
            Instant::now() < deadline,
            "controller never re-planned after the mix shifted to bursts \
             (replans {})",
            engine.metrics().replans
        );
        let seeds = [0u64, 1, 2, 3];
        let handles: Vec<_> = seeds
            .iter()
            .map(|&s| {
                engine
                    .submit(TensorData::random(net.input_shape, s))
                    .unwrap()
            })
            .collect();
        check(handles, &seeds);
    }

    let metrics = engine.metrics();
    assert!(
        metrics.replans >= 2,
        "one replan per observed dominant size"
    );
    // The exporter carries the counter.
    let text = engine.prometheus_text();
    assert!(text.contains("ios_adaptation_replans_total"));
    engine.shutdown();
}

// --------------------------------------------------------- regret eviction

/// Reports whatever device time the dial says — the knob that lets a test
/// make measured reality drift away from the optimizer's prediction.
struct DialableDeviceTime {
    device_us: AtomicU64,
}

impl BatchExecutor for DialableDeviceTime {
    fn name(&self) -> &'static str {
        "dialable-device-time"
    }
    fn execute(&self, _ctx: &BatchContext<'_>) -> BatchOutcome {
        BatchOutcome {
            outputs: None,
            device_time_us: self.device_us.load(Ordering::Relaxed) as f64,
        }
    }
}

#[test]
fn schedules_whose_predictions_regret_measured_reality_are_evicted() {
    let net = common::three_block_network();
    let mut config = ServeConfig::default()
        .with_max_batch(1)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![1])
        .with_background_reoptimize(false)
        .with_adaptation(true)
        .with_adapt_tick(Duration::from_millis(5))
        .with_regret_threshold(2.0);
    config.adapt.min_window_batches = 4;
    let dial = Arc::new(DialableDeviceTime {
        device_us: AtomicU64::new(100),
    });
    struct Handle(Arc<DialableDeviceTime>);
    impl BatchExecutor for Handle {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn execute(&self, ctx: &BatchContext<'_>) -> BatchOutcome {
            self.0.execute(ctx)
        }
    }
    let engine =
        ServeEngine::start_with_executor(net.clone(), config, Box::new(Handle(Arc::clone(&dial))));

    // Calibration phase: a steady 100 µs per batch teaches the controller
    // the observed/predicted units bridge. Keep submitting until at least
    // one full window has drained (no eviction must happen here).
    let calibration_until = Instant::now() + Duration::from_millis(100);
    while Instant::now() < calibration_until {
        let _ = engine
            .submit(TensorData::zeros(net.input_shape))
            .unwrap()
            .wait_outcome()
            .unwrap();
    }
    assert_eq!(
        engine.metrics().cache.evictions,
        0,
        "a schedule matching its calibrated prediction must not be evicted"
    );

    // Drift phase: measured device time jumps 10× past the calibrated
    // prediction — well over the 2× regret threshold — and the cached
    // batch-1 schedule must fall out.
    dial.device_us.store(1000, Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.metrics().cache.evictions == 0 {
        assert!(
            Instant::now() < deadline,
            "regretted schedule was never evicted"
        );
        let _ = engine
            .submit(TensorData::zeros(net.input_shape))
            .unwrap()
            .wait_outcome()
            .unwrap();
    }
    let text = engine.prometheus_text();
    assert!(text.contains("ios_schedule_cache_evictions_total"));
    // The engine keeps serving after the eviction (the next miss simply
    // re-optimizes).
    let response = engine
        .submit(TensorData::zeros(net.input_shape))
        .unwrap()
        .wait_outcome()
        .unwrap();
    assert_eq!(response.batch_size, 1);
    engine.shutdown();
}

// -------------------------------------------------- shed latch regression

/// Burns a fixed wall-clock interval per batch, like the overload suite's
/// slow executor — the knob that makes queue waits blow past the shed
/// budget deterministically.
struct SleepyExecutor {
    batch_time: Duration,
}

impl BatchExecutor for SleepyExecutor {
    fn name(&self) -> &'static str {
        "sleepy"
    }
    fn execute(&self, _ctx: &BatchContext<'_>) -> BatchOutcome {
        std::thread::sleep(self.batch_time);
        BatchOutcome {
            outputs: None,
            device_time_us: self.batch_time.as_micros() as f64,
        }
    }
}

/// Regression for the shed-mode latch: a post-overload *trickle* — enough
/// queued work to keep the queue non-empty at every tick, never enough to
/// fill a window — used to keep shed mode engaged forever. The idle clause
/// requires an empty queue and the hysteresis clause requires a full
/// window, so a single parked request starved both disengage paths. The
/// stale-tick clause must now disengage after
/// three sample-free ticks.
#[test]
fn shed_mode_disengages_under_a_trickle_that_never_fills_a_window() {
    let net = common::three_block_network();
    let batch_time = Duration::from_millis(20);
    // max_wait is a full minute: a lone queued request never flushes on
    // its own, pinning the queue depth at 1 for as long as the test runs.
    let mut config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(1)
        .with_max_wait(Duration::from_secs(60))
        .with_prewarm_batches(vec![1, 4])
        .with_background_reoptimize(false)
        .with_adaptation(true)
        .with_adapt_tick(Duration::from_millis(100))
        .with_shed_queue_wait_budget(Duration::from_millis(2))
        .with_regret_threshold(1e9);
    config.adapt.min_window_batches = 4;
    let engine = ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(SleepyExecutor { batch_time }),
    );
    assert!(!engine.is_shedding(), "a fresh engine starts permissive");

    // Overload phase: 32 requests (an exact multiple of max_batch, so the
    // queue drains in full batches with no partial leftover) against a
    // 20 ms server. Queue waits reach ~7 batch times, far past the 2 ms
    // budget, and the controller must engage shed mode mid-drain.
    let burst: Vec<_> = (0..32)
        .map(|i| {
            engine
                .submit(TensorData::random(net.input_shape, i))
                .expect("admission is unbounded before shed mode engages")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !engine.is_shedding() {
        assert!(
            Instant::now() < deadline,
            "shed mode never engaged under the burst (batches {})",
            engine.metrics().batches
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // Park one request. Shed mode caps the (sole) tenant at one batch's
    // worth, and the burst drains four-at-a-time, so the retry loop can
    // only land this request on an *empty* queue — where, at 1 < max_batch
    // with a 60 s max_wait, it sits parked indefinitely.
    let parked = loop {
        match engine.submit(TensorData::random(net.input_shape, 999)) {
            Ok(handle) => break handle,
            Err(ios_serve::ServeError::Rejected(Rejected::Shed)) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    };
    for handle in burst {
        handle.wait_outcome().expect("burst requests complete");
    }

    // The queue now holds exactly the parked request: no window ever
    // reaches min_window_batches again and the queue never drains empty.
    // Pre-fix both disengage clauses are starved and shed mode stays
    // latched forever; the stale-tick clause must release it within a few
    // ticks.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.is_shedding() {
        assert!(
            Instant::now() < deadline,
            "shed mode stayed latched under a trickle: the queue is \
             occupied (depth {}) but no window ever fills, and the \
             stale-tick clause never disengaged it",
            engine.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        engine.queue_depth(),
        1,
        "the parked request kept the queue occupied throughout"
    );
    let parked = match parked.try_wait() {
        Err(still_pending) => still_pending,
        Ok(outcome) => panic!(
            "the parked request must still be pending when shed mode \
             releases, but it resolved to {outcome:?}"
        ),
    };
    // Admission is permissive again: a fresh offer is accepted, not shed.
    let follow_up = engine
        .submit(TensorData::random(net.input_shape, 1000))
        .expect("admission recovered after the stale-tick disengage");
    // Shutdown flushes the two parked requests as a final partial batch.
    engine.shutdown();
    let parked = match parked.try_wait() {
        Ok(outcome) => outcome,
        Err(handle) => handle.wait_outcome(),
    };
    parked.expect("shutdown flushes the parked request");
    follow_up.wait_outcome().expect("and the follow-up");
}

// -------------------------------------- phantom dominant size regression

/// Regression for the histogram-mode phantom: batch-size histogram buckets
/// are exact only below 64, so a window of batch-96 dispatches reports its
/// log-bucket representative 97 as the mode — a batch size that was never
/// dispatched and (with `max_batch = 96`) never can be. The controller
/// used to optimize and cache a schedule for that phantom size on every
/// mix shift; it must snap the dominant size to a dispatchable one.
#[test]
fn a_replan_never_caches_a_schedule_for_a_phantom_batch_size() {
    let net = common::three_block_network();
    let mut config = ServeConfig::default()
        .with_max_batch(96)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(200))
        .with_prewarm_batches(vec![96])
        .with_background_reoptimize(false)
        .with_adaptation(true)
        .with_adapt_tick(Duration::from_millis(5))
        .with_regret_threshold(1e9);
    config.adapt.min_window_batches = 1;
    // A metrics-only executor keeps batch-96 dispatches cheap: this test
    // watches the controller, not the numerics.
    let engine = ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(DialableDeviceTime {
            device_us: AtomicU64::new(100),
        }),
    );
    assert_eq!(
        engine.metrics().cache.entries,
        1,
        "exactly the prewarmed batch-96 schedule is cached at startup"
    );

    // Drive full batches of 96 until the controller re-plans for the
    // observed mix. Submission is microseconds against a 200 ms max_wait,
    // so every dispatch is a full batch of exactly 96.
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.metrics().replans < 1 {
        assert!(
            Instant::now() < deadline,
            "controller never re-planned for the batch-96 mix (batches {})",
            engine.metrics().batches
        );
        let handles: Vec<_> = (0..96)
            .map(|i| {
                engine
                    .submit(TensorData::random(net.input_shape, i))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait_outcome().expect("no deadline configured");
        }
    }
    // Let a few more ticks elapse on the same mix: a phantom dominant
    // would churn the cache on each of them.
    std::thread::sleep(Duration::from_millis(50));

    let metrics = engine.metrics();
    assert!(metrics.replans >= 1, "the mix shift was observed");
    assert_eq!(
        metrics.cache.background_inserts, 0,
        "the dominant size must snap to the (already cached) batch 96 — \
         a background insert means the controller optimized a schedule \
         for a phantom batch size no dispatch can ever use"
    );
    assert_eq!(
        metrics.cache.entries, 1,
        "the cache still holds exactly the prewarmed batch-96 schedule"
    );
    engine.shutdown();
}
