//! The runtime adaptation suite: deadline-aware batching, mixed batch sizes
//! on the engine's one schedule, and the shed controller.
//!
//! * deadlines: an already-expired request completes with a typed
//!   rejection **without any device dispatch**; a deadline-carrying
//!   request flushes early instead of waiting out `max_wait`; a mixed
//!   batch serves the live requests and rejects only the expired ones;
//! * mixed batch sizes: pairs and bursts of four run the one schedule the
//!   engine searched at start, and responses stay **bit-identical** to
//!   solo references;
//! * shed latch: a parked request that keeps the queue occupied (but never
//!   fills a window) must not latch shed mode forever — the stale-tick
//!   clause disengages it.

use ios_backend::{execute_network, TensorData};
use ios_ir::Network;
use ios_serve::{
    AdaptConfig, CpuReferenceExecutor, Rejected, ResponseHandle, ServeConfig, ServeEngine,
};
use std::time::{Duration, Instant};

mod common;

fn reference_outputs(net: &Network, seed: u64) -> Vec<TensorData> {
    let input = TensorData::random(net.input_shape, seed);
    execute_network(net, std::slice::from_ref(&input))
}

// ---------------------------------------------------------------- deadlines

#[test]
fn an_already_expired_request_is_rejected_without_device_dispatch() {
    let net = common::three_block_network();
    let config = ServeConfig {
        max_batch: 4,
        workers: 1,
        max_wait: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(net.clone(), config);
    // A zero budget expires at enqueue: the batcher flushes immediately
    // and assembly must reject it before any device work.
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
    assert_eq!(metrics.cache.hits, 0, "no batch ran its schedule");
    engine.shutdown();
}

#[test]
fn a_deadline_flushes_the_batch_early_instead_of_waiting_out_max_wait() {
    let net = common::three_block_network();
    // max_wait is a full minute and one worker's batch is held in flight,
    // so the other worker waits for companions: only the deadline can
    // explain a prompt answer.
    let config = ServeConfig {
        max_batch: 8,
        workers: 2,
        max_wait: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let (executor, gate) = common::gated(CpuReferenceExecutor::new());
    let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
    let held = gate.hold(&engine, TensorData::zeros(net.input_shape));
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
    let reference = reference_outputs(&net, 3);
    assert_eq!(response.outputs.len(), reference.len());
    for (lease, reference) in response.outputs.iter().zip(&reference) {
        assert_eq!(
            lease, reference,
            "an early flush still serves exact numerics"
        );
    }
    assert_eq!(engine.metrics().dispatch["deadline"], 1);
    gate.release(held);
    engine.shutdown();
}

#[test]
fn a_mixed_batch_serves_live_requests_and_rejects_only_the_expired() {
    let net = common::three_block_network();
    let config = ServeConfig {
        max_batch: 2,
        workers: 1,
        max_wait: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let (executor, gate) = common::gated(CpuReferenceExecutor::new());
    let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
    // Behind a batch held in flight, two requests fill max_batch and
    // dispatch together: one already expired, one with plenty of slack.
    let held = gate.hold(&engine, TensorData::zeros(net.input_shape));
    let doomed = engine
        .submit_with_deadline(TensorData::random(net.input_shape, 1), Duration::ZERO)
        .unwrap();
    let live = engine
        .submit_with_deadline(
            TensorData::random(net.input_shape, 2),
            Duration::from_secs(60),
        )
        .unwrap();
    gate.release(held);
    assert_eq!(
        doomed.wait_outcome().err(),
        Some(Rejected::DeadlineExceeded)
    );
    let response = live.wait_outcome().expect("the live request is served");
    assert_eq!(
        response.batch_size, 1,
        "the expired member was partitioned out before stacking"
    );
    let reference = reference_outputs(&net, 2);
    assert_eq!(response.outputs.len(), reference.len());
    for (lease, reference) in response.outputs.iter().zip(&reference) {
        assert_eq!(lease, reference);
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.deadline_expired, 1);
    assert_eq!(
        metrics.completed,
        1 + 1,
        "the live request and the held one"
    );
    assert_eq!(
        metrics.dispatch["full"], 1,
        "the pair left as one full batch"
    );
    engine.shutdown();
}

// --------------------------------------------------- mixed batch sizes

/// Pairs, coalesced behind a held request, then bursts of `max_batch`:
/// batches of 2 and 4 both run the engine's one schedule, searched for
/// batch 1 at start, and every response is bit-identical to solo
/// execution. (The name is from when a background search swapped batch
/// 2's schedule in mid-flight; the traffic is the same.)
#[test]
fn a_background_fill_swaps_the_schedule_mid_flight_and_responses_stay_bit_identical() {
    let net = common::three_block_network();
    let config = ServeConfig {
        max_batch: 4,
        workers: 1,
        max_wait: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let (executor, gate) = common::gated(CpuReferenceExecutor::new());
    let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
    let references: Vec<Vec<TensorData>> = (0..4).map(|s| reference_outputs(&net, s)).collect();

    let check = |handles: Vec<ResponseHandle>, seeds: &[u64]| -> Vec<usize> {
        handles
            .into_iter()
            .zip(seeds)
            .map(|(handle, &seed)| {
                let response = handle.wait_outcome().expect("no deadline configured");
                assert_eq!(response.outputs.len(), references[seed as usize].len());
                for (lease, reference) in response.outputs.iter().zip(&references[seed as usize]) {
                    assert_eq!(
                        lease, reference,
                        "response diverged from solo execution (batch {})",
                        response.batch_size
                    );
                }
                response.batch_size
            })
            .collect()
    };

    for _ in 0..3 {
        let seeds = [1u64, 2];
        let held = gate.hold(&engine, TensorData::zeros(net.input_shape));
        let handles: Vec<_> = seeds
            .iter()
            .map(|&s| {
                engine
                    .submit(TensorData::random(net.input_shape, s))
                    .unwrap()
            })
            .collect();
        gate.release(held);
        assert_eq!(
            check(handles, &seeds),
            [2, 2],
            "the pair ships as one batch"
        );
    }

    for _ in 0..8 {
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
    let m = engine.metrics();
    assert_eq!(m.cache.hits, m.batches);
    assert_eq!((m.cache.nearest_served, m.cache.background_inserts), (0, 0));
    engine.shutdown();
}

// -------------------------------------------------- shed latch regression

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
    let config = ServeConfig {
        max_batch: 4,
        workers: 1,
        adapt: AdaptConfig {
            tick: Duration::from_millis(100),
            shed_queue_wait_budget: Some(Duration::from_millis(2)),
            min_window_batches: 4,
            ..AdaptConfig::default()
        },
        ..ServeConfig::default()
    };
    let (executor, gate) = common::gated(common::SleepyExecutor { batch_time });
    let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
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

    for handle in burst {
        handle.wait_outcome().expect("burst requests complete");
    }
    // Park one request behind a batch held in flight: the worker is
    // parked at the gate, so the request stays queued for as long as the
    // test runs. Shed mode caps the (sole) tenant at one batch's worth of
    // queued requests, which both fit in.
    let held = gate.hold(&engine, TensorData::random(net.input_shape, 998));
    let parked = engine
        .submit(TensorData::random(net.input_shape, 999))
        .expect("one queued request is within the shed share");

    // The queue now holds exactly the parked request and nothing
    // completes: no window ever reaches min_window_batches again and the
    // queue never drains empty. Pre-fix both disengage clauses are starved
    // and shed mode stays latched forever; the stale-tick clause must
    // release it within a few ticks.
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
    // Once the held batch finishes, the two parked requests leave as one
    // partial batch.
    gate.release(held);
    engine.shutdown();
    let parked = match parked.try_wait() {
        Ok(outcome) => outcome,
        Err(handle) => handle.wait_outcome(),
    };
    parked.expect("the parked request is answered");
    follow_up.wait_outcome().expect("and the follow-up");
}
