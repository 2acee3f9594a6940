//! Concurrency tests for the serving engine, pinning the invariants that
//! only show up under racing clients, mid-flight schedule swaps and
//! shutdown with work still queued:
//!
//! * responses stay **bit-identical** to solo reference executions while
//!   the background re-optimizer swaps specialized schedules under the
//!   running engine;
//! * schedule-cache and pool counters stay consistent under racing
//!   submit/drop (a repeated stress loop — every batch's resolve is
//!   exactly one exact-cache lookup, so `hits + misses == batches` must
//!   hold whatever the interleaving);
//! * the dynamic batcher's edge cases at engine level: exact max-batch
//!   boundary dispatch, and shutdown with requests still queued — no
//!   hang, every request answered, response leases returned to the pool;
//! * the span tracer's records stay **well-nested per thread** while
//!   batches stream through the engine — the structural invariant a
//!   Chrome trace of a live engine depends on.

use ios_backend::{execute_network, TensorData};
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use ios_serve::{CpuReferenceExecutor, ResponseHandle, ServeConfig, ServeEngine};
use ios_telemetry::TraceKind;
use std::time::{Duration, Instant};

mod common;

/// A three-block chain with a branchy head — big enough to get distinct
/// specialized schedules per batch size, small enough for a stress loop in
/// CI.
fn three_block_network() -> Network {
    let input = TensorShape::new(1, 4, 6, 6);
    let mut b = GraphBuilder::new("conc_b0", input);
    let x = b.input(0);
    let a = b.conv2d("a", x, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
    let c = b.conv2d("c", x, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
    let cat = b.concat("cat", &[a, c]);
    let block0 = Block::new(b.build(vec![cat]));
    let mut b = GraphBuilder::with_inputs("conc_b1", block0.graph.output_shapes());
    let x = b.input(0);
    let d = b.conv2d("d", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let e = b.conv2d("e", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
    let cat = b.concat("cat1", &[d, e]);
    let block1 = Block::new(b.build(vec![cat]));
    let mut b = GraphBuilder::with_inputs("conc_b2", block1.graph.output_shapes());
    let x = b.input(0);
    let f = b.conv2d("f", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
    let block2 = Block::new(b.build(vec![f]));
    Network::new("conc_net", input, vec![block0, block1, block2])
}

/// The solo reference outputs for a seeded input — what every concurrent
/// response must match bit for bit.
fn reference_outputs(net: &Network, seed: u64) -> Vec<TensorData> {
    let input = TensorData::random(net.input_shape, seed);
    execute_network(net, std::slice::from_ref(&input))
}

/// Stress the engine from `clients` threads × `rounds` seeded requests
/// each, asserting every response against its solo reference. Returns the
/// total number of requests issued.
fn stress_bit_identity(engine: &ServeEngine, net: &Network, clients: u64, rounds: u64) -> u64 {
    let references: Vec<Vec<TensorData>> = (0..8).map(|s| reference_outputs(net, s)).collect();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let references = &references;
            scope.spawn(move || {
                for round in 0..rounds {
                    let seed = (client * 31 + round) % 8;
                    let input = TensorData::random(net.input_shape, seed);
                    let response = engine.submit(input).unwrap().wait();
                    let expected = &references[seed as usize];
                    assert_eq!(response.outputs.len(), expected.len());
                    for (lease, reference) in response.outputs.iter().zip(expected) {
                        assert_eq!(
                            lease, reference,
                            "client {client} round {round}: response diverged from solo \
                             execution (batch {}, source {:?})",
                            response.batch_size, response.schedule_source
                        );
                    }
                }
            });
        }
    });
    clients * rounds
}

/// Waits (bounded) until the background re-optimizer has inserted at least
/// one schedule — proof that schedules were swapped under the engine.
/// Bursts of three concurrent requests coalesce into batch sizes that have
/// no exact cached schedule (only batch 1 and the full batch are
/// pre-warmed), so each burst can trigger a background re-optimization.
fn await_background_insert(engine: &ServeEngine, net: &Network) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.metrics().cache.background_inserts == 0 {
        assert!(
            Instant::now() < deadline,
            "background re-optimization never landed"
        );
        let handles: Vec<_> = (0..3)
            .map(|s| {
                engine
                    .submit(TensorData::random(net.input_shape, s))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            let _ = handle.wait();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn responses_stay_bit_identical_while_schedules_swap_mid_flight() {
    let net = three_block_network();
    // Pre-warm only the full batch: every smaller coalesced batch is
    // served by the nearest schedule while the background re-optimizer
    // races to insert the exact one — schedules swap under live traffic.
    let config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(2)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![4])
        .with_background_reoptimize(true);
    let engine = ServeEngine::start(net.clone(), config);
    stress_bit_identity(&engine, &net, 4, 24);
    await_background_insert(&engine, &net);
    // Keep serving after the swaps landed: still bit-identical.
    stress_bit_identity(&engine, &net, 2, 8);
    let metrics = engine.metrics();
    assert!(metrics.cache.background_inserts >= 1);
    assert_eq!(metrics.queue_depth, 0);
    engine.shutdown();
}

#[test]
fn cache_and_pool_counters_stay_consistent_under_racing_submit_and_drop() {
    let net = three_block_network();
    let config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(2)
        .with_max_wait(Duration::from_millis(1))
        .with_background_reoptimize(true);
    let engine = ServeEngine::start(net.clone(), config);

    // Racing clients; every third handle is dropped without waiting (the
    // engine still executes the request — the response send just fails and
    // its leases return to the pool on the spot).
    let total = 6 * 20u64;
    std::thread::scope(|scope| {
        for client in 0..6u64 {
            let engine = &engine;
            let net = &net;
            scope.spawn(move || {
                for round in 0..20u64 {
                    let input = TensorData::random(net.input_shape, client ^ round);
                    let handle = engine.submit(input).unwrap();
                    if (client + round) % 3 == 0 {
                        drop(handle);
                    } else {
                        let response = handle.wait();
                        assert!(!response.outputs.is_empty());
                        drop(response);
                    }
                }
            });
        }
    });

    // Drain fully (workers may still be finishing the last batches), then
    // check the counters add up regardless of the interleaving.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.metrics().completed < total {
        assert!(
            Instant::now() < deadline,
            "engine never drained: {} / {total} completed",
            engine.metrics().completed
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let metrics = engine.metrics();
    assert_eq!(
        metrics.completed, total,
        "every submitted request executes, dropped handle or not"
    );
    assert_eq!(
        metrics.cache.hits + metrics.cache.misses,
        metrics.batches,
        "each batch resolves its schedule with exactly one exact-cache lookup"
    );
    assert!(metrics.cache.nearest_served <= metrics.cache.misses);
    assert!(
        metrics.cache.entries >= 2,
        "pre-warmed entries remain cached"
    );
    assert_eq!(metrics.queue_depth, 0);

    // The pool is steady after the chaos: identical repeat waves allocate
    // nothing fresh at the serving boundary or in the executor.
    let warm = |seed: u64| {
        let response = engine
            .submit(TensorData::random(net.input_shape, seed))
            .unwrap()
            .wait();
        drop(response);
    };
    warm(1);
    let (io_fresh, _) = engine.io_pool_stats();
    let (exec_fresh, _) = engine.executor_pool_stats().expect("cpu backend pools");
    for seed in 0..10 {
        warm(seed);
    }
    let (io_now, _) = engine.io_pool_stats();
    let (exec_now, _) = engine.executor_pool_stats().expect("cpu backend pools");
    assert_eq!(io_now, io_fresh, "serving-boundary pool must stay steady");
    assert_eq!(exec_now, exec_fresh, "executor pool must stay steady");
    engine.shutdown();
}

#[test]
fn shutdown_with_requests_still_queued_answers_them_and_returns_leases() {
    let net = three_block_network();
    // Two workers, one of them parked at the gate with a held batch: the
    // other waits for companions, and with max_wait a minute away,
    // requests sit in the queue until they fill a batch or shutdown
    // flushes them.
    let config = ServeConfig::default()
        .with_max_batch(5)
        .with_workers(2)
        .with_max_wait(Duration::from_secs(60))
        .with_prewarm_batches(vec![3, 5])
        .with_background_reoptimize(false);
    let (executor, gate) = common::gated(CpuReferenceExecutor::new());
    let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
    let references: Vec<Vec<TensorData>> = (0..5).map(|s| reference_outputs(&net, s)).collect();
    let held = gate.hold(&engine, TensorData::zeros(net.input_shape));

    // Wave 1: exactly max_batch queued → dispatches immediately as one
    // full batch (the engine-level exact-boundary case).
    let handles: Vec<_> = (0..5)
        .map(|s| {
            engine
                .submit(TensorData::random(net.input_shape, s))
                .unwrap()
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();
    for (seed, response) in responses.iter().enumerate() {
        assert_eq!(response.batch_size, 5, "exact boundary dispatches full");
        for (lease, reference) in response.outputs.iter().zip(&references[seed]) {
            assert_eq!(lease, reference);
        }
    }
    drop(responses);

    // Wave 2: three requests below the boundary, max_wait a minute away
    // and a batch still held in flight — they are still queued when
    // shutdown begins. Shutdown must flush them (no hang) and answer every
    // handle; the leases those responses hold outlive the engine and
    // return to its pool on drop (the counter-level proof is
    // `shutdown_wave2_reuses_leases`).
    let handles: Vec<_> = (0..3)
        .map(|s| {
            engine
                .submit(TensorData::random(net.input_shape, s))
                .unwrap()
        })
        .collect();
    let responses = std::thread::scope(|scope| {
        let shutdown = scope.spawn(move || {
            let started = Instant::now();
            engine.shutdown();
            started.elapsed()
        });
        // Only the close can have flushed the trio: the held batch keeps
        // the engine busy until the gate is released below.
        let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();
        gate.release(held);
        let took = shutdown.join().expect("shutdown");
        assert!(
            took < Duration::from_secs(30),
            "shutdown must flush the queue, not wait out the 60 s max_wait"
        );
        responses
    });
    for (seed, response) in responses.iter().enumerate() {
        assert_eq!(response.batch_size, 3, "the queued trio ships as one batch");
        for (lease, reference) in response.outputs.iter().zip(&references[seed]) {
            assert_eq!(lease, reference);
        }
    }
}

#[test]
fn serving_spans_stay_well_nested_within_every_thread() {
    // Serve with the process-global tracer on, then check the structural
    // invariants of the captured trace.
    //
    // The tracer is process-global and other tests in this binary may be
    // serving concurrently; that is the point, not a problem — the
    // invariants below are universal (they hold for every engine's
    // threads), and extra traffic only makes them harder to satisfy by
    // accident.
    let net = three_block_network();
    let config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1));
    let engine = ServeEngine::start(net.clone(), config);
    let tracer = ios_telemetry::tracer();
    let dropped_before = tracer.dropped();
    tracer.set_enabled(true);
    // A marker from this thread reveals our tracer tid, which in turn
    // identifies *our* submissions among any concurrent test's records.
    tracer.instant("test.marker", "test", 0);
    let handles: Vec<_> = (0..16)
        .map(|s| {
            engine
                .submit(TensorData::random(net.input_shape, s))
                .unwrap()
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().outputs.len(), 1);
    }
    // Shut down before snapshotting: span guards record on drop, so the
    // last batch's spans only land once the workers have quiesced.
    engine.shutdown();
    tracer.set_enabled(false);
    let records = tracer.records();
    let dropped = tracer.dropped() - dropped_before;
    tracer.clear();

    // Every lane of the instrumentation shows up: serving, executor
    // stages and the request lifecycle.
    for name in [
        "batch",
        "batch.execute",
        "batcher.next_batch",
        "request.enqueue",
        "request.queue_wait",
        "request.respond",
    ] {
        assert!(
            records.iter().any(|r| r.name == name),
            "expected at least one `{name}` record in the trace"
        );
    }
    assert!(
        records
            .iter()
            .any(|r| r.name == "stage.concurrent" || r.name == "stage.merge"),
        "executor stages must be traced"
    );

    // Batch-id correlation: every one of *our* requests' queue-wait spans
    // names the batch that dispatched it, and that batch's span is in the
    // trace. Scoped to our own submissions (found via the marker's tid)
    // because a concurrently-running test's engine may be mid-batch when
    // we snapshot; and only checkable when the ring dropped nothing.
    if dropped == 0 {
        let our_tid = records
            .iter()
            .find(|r| r.name == "test.marker")
            .expect("marker record survives (nothing dropped)")
            .tid;
        let our_requests: std::collections::HashSet<u64> = records
            .iter()
            .filter(|r| r.name == "request.enqueue" && r.tid == our_tid)
            .map(|r| r.id)
            .collect();
        assert_eq!(our_requests.len(), 16, "one enqueue instant per request");
        let batch_ids: std::collections::HashSet<u64> = records
            .iter()
            .filter(|r| r.name == "batch")
            .map(|r| r.id)
            .collect();
        for r in records
            .iter()
            .filter(|r| r.name == "request.queue_wait" && our_requests.contains(&r.id))
        {
            assert!(
                batch_ids.contains(&r.arg),
                "queue-wait span names unknown batch {}",
                r.arg
            );
        }
    }

    // The structural invariant: within one thread, timed spans form a
    // laminar family — any two are disjoint or nested, never partially
    // overlapping. Request-lane spans are excluded by design: queue waits
    // are back-dated onto the worker thread that dispatched the batch, so
    // they legitimately straddle its batch spans.
    let mut by_tid: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for r in &records {
        if r.kind == TraceKind::Span && r.cat != "request" {
            by_tid
                .entry(r.tid)
                .or_default()
                .push((r.start_ns, r.start_ns + r.dur_ns));
        }
    }
    for (tid, mut spans) in by_tid {
        // Parents first: by start ascending, longest first on ties.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut open: Vec<u64> = Vec::new(); // stack of enclosing span ends
        for (start, end) in spans {
            while open.last().is_some_and(|&top| top <= start) {
                open.pop();
            }
            if let Some(&top) = open.last() {
                assert!(
                    end <= top,
                    "thread {tid}: span [{start}, {end}) partially overlaps \
                     an enclosing span ending at {top}"
                );
            }
            open.push(end);
        }
    }
}

#[test]
fn shutdown_wave2_reuses_leases() {
    // The counter variant of the lease-return check: wave 1 fills the io
    // pool, its responses drop (leases return), wave 2 of the same shape
    // must then be allocation-free at the serving boundary — measured
    // *before* shutdown so the engine is still alive to report counters.
    let net = three_block_network();
    let config = ServeConfig::default()
        .with_max_batch(5)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(5))
        .with_prewarm_batches(vec![5])
        .with_background_reoptimize(false);
    let (executor, gate) = common::gated(CpuReferenceExecutor::new());
    let engine = ServeEngine::start_with_executor(net.clone(), config, executor);
    // Each wave queues behind a held batch, so it ships as one batch of
    // the same shape every time; the held response is kept until the wave
    // is answered, so its lease never races the wave's.
    let wave = |count: usize| {
        let held = gate.hold(&engine, TensorData::zeros(net.input_shape));
        let handles: Vec<_> = (0..count)
            .map(|s| {
                engine
                    .submit(TensorData::random(net.input_shape, s as u64))
                    .unwrap()
            })
            .collect();
        let held = gate.release(held);
        for handle in handles {
            drop(handle.wait());
        }
        drop(held);
    };
    wave(5);
    let (io_fresh, _) = engine.io_pool_stats();
    wave(5);
    wave(5);
    let (io_now, io_reuses) = engine.io_pool_stats();
    assert_eq!(
        io_now, io_fresh,
        "repeat waves must reuse returned lease buffers"
    );
    assert!(io_reuses > 0);
    engine.shutdown();
}
