//! The overload suite: what happens when offered load exceeds capacity.
//!
//! A deliberately slow executor makes saturation deterministic, and the
//! suite pins the two halves of the load-shedding story:
//!
//! * **without shedding**, an open-loop burst far beyond capacity sends
//!   tail latency through the roof — queue wait accumulates linearly in
//!   the backlog;
//! * **with bounded admission**, the accounting is exact even under
//!   racing submitters (`accepted + shed == offered`, queue depth never
//!   exceeds the cap), every accepted request completes, the p99 of
//!   accepted requests stays bounded, and — on the real CPU backend —
//!   accepted responses remain **bit-identical** to solo execution;
//! * **shed mode** driven by the windowed p95 queue wait engages under
//!   sustained overload and disengages again once the system drains idle.

use ios_backend::{execute_network, TensorData};
use ios_serve::{AdaptConfig, Rejected, ServeConfig, ServeEngine, ServeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

// ------------------------------------------------ no shedding: p99 grows

#[test]
fn without_shedding_an_overload_burst_sends_tail_latency_through_the_roof() {
    let net = common::three_block_network();
    let batch_time = Duration::from_millis(5);
    let config = ServeConfig {
        max_batch: 1,
        workers: 1,
        max_wait: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(common::SleepyExecutor { batch_time }),
    );
    // Open-loop burst: 64 requests land instantly on a server that needs
    // 5 ms each. The last one waits ~63 batch times in the queue.
    let handles: Vec<_> = (0..64)
        .map(|i| {
            engine
                .submit(TensorData::random(net.input_shape, i))
                .expect("unbounded admission accepts everything")
        })
        .collect();
    for handle in handles {
        handle.wait_outcome().expect("no deadline, no shedding");
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.completed, 64);
    assert_eq!(metrics.shed, 0);
    assert!(
        metrics.max_latency_us >= 10.0 * batch_time.as_micros() as f64,
        "the backlog must dominate latency (max {} µs vs batch {} µs)",
        metrics.max_latency_us,
        batch_time.as_micros()
    );
    assert!(
        metrics.p99_latency_us > metrics.p50_latency_us,
        "open-loop overload skews the tail"
    );
    engine.shutdown();
}

// --------------------------------- bounded admission: exact accounting

#[test]
fn bounded_admission_accounting_is_exact_under_racing_submitters() {
    let net = common::three_block_network();
    // Capacity below the client count: 8 closed-loop clients can have 8
    // offers racing at once, so a 3-deep queue must turn some away.
    let capacity = 3;
    let config = ServeConfig {
        max_batch: 1,
        workers: 1,
        max_wait: Duration::from_millis(1),
        adapt: AdaptConfig {
            admission_capacity: Some(capacity),
            ..AdaptConfig::default()
        },
        ..ServeConfig::default()
    };
    let engine = Arc::new(ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(common::SleepyExecutor {
            batch_time: Duration::from_millis(3),
        }),
    ));
    let offered = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let accepted_and_answered = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..8)
        .map(|client| {
            let engine = Arc::clone(&engine);
            let net = net.clone();
            let offered = Arc::clone(&offered);
            let shed = Arc::clone(&shed);
            let answered = Arc::clone(&accepted_and_answered);
            std::thread::spawn(move || {
                for round in 0..12u64 {
                    offered.fetch_add(1, Ordering::SeqCst);
                    match engine.submit(TensorData::random(net.input_shape, client * 31 + round)) {
                        Ok(handle) => {
                            handle.wait_outcome().expect("accepted requests complete");
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServeError::Rejected(Rejected::Shed)) => {
                            shed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let offered = offered.load(Ordering::SeqCst);
    let shed = shed.load(Ordering::SeqCst);
    let answered = accepted_and_answered.load(Ordering::SeqCst);
    assert_eq!(offered, 96);
    assert_eq!(
        answered + shed,
        offered,
        "every offer is either answered or typed-shed — none vanish"
    );
    let metrics = engine.metrics();
    assert_eq!(metrics.shed, shed, "the shed counter matches client truth");
    assert_eq!(metrics.completed, answered);
    assert!(
        shed > 0,
        "8 racing clients against a capacity-3 queue and a 3 ms server \
         must overflow admission at least once"
    );
    let text = engine.prometheus_text();
    assert!(text.contains("ios_requests_shed_total"));
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("clients joined"))
        .shutdown();
}

// ----------------------------------------- shed mode: engage, disengage

#[test]
fn shed_mode_engages_under_sustained_overload_and_disengages_when_idle() {
    let net = common::three_block_network();
    // 5 ms per batch against a 50 ms controller tick: each window holds
    // ~10 dispatches, comfortably past min_window_batches, and a 20-deep
    // feeder makes queue waits dwarf the 2 ms budget.
    let batch_time = Duration::from_millis(5);
    let config = ServeConfig {
        max_batch: 1,
        workers: 1,
        max_wait: Duration::from_millis(1),
        adapt: AdaptConfig {
            tick: Duration::from_millis(50),
            shed_queue_wait_budget: Some(Duration::from_millis(2)),
            min_window_batches: 4,
            ..AdaptConfig::default()
        },
        ..ServeConfig::default()
    };
    let engine = Arc::new(ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(common::SleepyExecutor { batch_time }),
    ));
    assert!(!engine.is_shedding(), "a fresh engine starts permissive");

    // Sustained overload: a feeder keeps ~20 requests in flight against a
    // 5 ms/batch server, so queue waits blow way past the 2 ms budget and
    // the controller must engage shed mode.
    let stop = Arc::new(AtomicU64::new(0));
    let feeder = {
        let engine = Arc::clone(&engine);
        let net = net.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handles = Vec::new();
            let mut seed = 0u64;
            while stop.load(Ordering::SeqCst) == 0 {
                while handles.len() < 20 {
                    seed += 1;
                    match engine.submit(TensorData::random(net.input_shape, seed)) {
                        Ok(h) => handles.push(h),
                        Err(ServeError::Rejected(Rejected::Shed)) => break,
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                // Keep only the handles still pending (try_wait hands the
                // handle back while the answer is outstanding).
                handles = handles
                    .into_iter()
                    .filter_map(|h| h.try_wait().err())
                    .collect();
                std::thread::sleep(Duration::from_millis(1));
            }
            // Drain what is still in flight so shutdown is clean.
            for h in handles {
                let _ = h.wait_outcome();
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while !engine.is_shedding() {
        assert!(
            Instant::now() < deadline,
            "shed mode never engaged under sustained overload \
             (queue depth {}, batches {})",
            engine.queue_depth(),
            engine.metrics().batches
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Shed mode is engaged and the queue still holds ~100 ms of backlog:
    // a fresh offer must be turned away with the typed rejection.
    match engine.submit(TensorData::random(net.input_shape, 999)) {
        Err(ServeError::Rejected(Rejected::Shed)) => {}
        other => panic!("expected a typed shed rejection, got {other:?}"),
    }
    stop.store(1, Ordering::SeqCst);
    feeder.join().expect("feeder thread");

    // Load is gone; once the queue drains, the idle clause must disengage
    // shed mode within a few ticks even though no new samples arrive.
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.is_shedding() {
        assert!(
            Instant::now() < deadline,
            "shed mode never disengaged after the system drained idle \
             (queue depth {})",
            engine.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let metrics = engine.metrics();
    assert!(
        metrics.shed >= 1,
        "the shed counter must record the rejected offer"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("feeder joined"))
        .shutdown();
}

// ------------------------------ bit-identity of accepted work, overload

#[test]
fn accepted_responses_stay_bit_identical_under_overload() {
    let net = common::three_block_network();
    // Real CPU backend this time: small admission capacity guarantees
    // shedding, and every response that does come back must match solo
    // execution exactly.
    let config = ServeConfig {
        max_batch: 2,
        workers: 1,
        max_wait: Duration::from_millis(1),
        adapt: AdaptConfig {
            admission_capacity: Some(2),
            ..AdaptConfig::default()
        },
        ..ServeConfig::default()
    };
    let engine = Arc::new(ServeEngine::start(net.clone(), config));
    let references: Vec<Vec<TensorData>> = (0..8)
        .map(|seed| {
            let input = TensorData::random(net.input_shape, seed);
            execute_network(&net, std::slice::from_ref(&input))
        })
        .collect();
    let offered = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..6)
        .map(|client| {
            let engine = Arc::clone(&engine);
            let net = net.clone();
            let references = references.clone();
            let offered = Arc::clone(&offered);
            let shed = Arc::clone(&shed);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                for round in 0..25u64 {
                    let seed = (client * 31 + round) % 8;
                    offered.fetch_add(1, Ordering::SeqCst);
                    match engine.submit(TensorData::random(net.input_shape, seed)) {
                        Ok(handle) => {
                            let response =
                                handle.wait_outcome().expect("accepted requests complete");
                            assert_eq!(response.outputs.len(), references[seed as usize].len());
                            for (lease, reference) in
                                response.outputs.iter().zip(&references[seed as usize])
                            {
                                assert_eq!(
                                    lease, reference,
                                    "overload must shed work, never corrupt it \
                                     (client {client}, round {round})"
                                );
                            }
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServeError::Rejected(Rejected::Shed)) => {
                            shed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let offered = offered.load(Ordering::SeqCst);
    let shed = shed.load(Ordering::SeqCst);
    let answered = answered.load(Ordering::SeqCst);
    assert_eq!(answered + shed, offered, "exact conservation of offers");
    let metrics = engine.metrics();
    assert_eq!(metrics.completed, answered);
    assert_eq!(metrics.shed, shed);
    assert_eq!(
        metrics.cache.hits, metrics.batches,
        "every dispatched batch ran the one schedule"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("clients joined"))
        .shutdown();
}
