//! Serving correctness: results returned through `ios-serve` must be
//! bit-identical to chaining [`ios::backend::execute_graph`] over the
//! network's blocks, across batch sizes {1, 4, 8} on SqueezeNet, and the
//! schedule cache must hand out batch-specialized schedules with the
//! documented hit/miss behaviour.

use ios::backend::TensorData;
use ios::prelude::*;
use ios::serve::{CpuReferenceExecutor, ScheduleSource, ServeConfig, ServeEngine};
use std::time::{Duration, Instant};

#[path = "../crates/serve/tests/common/mod.rs"]
mod common;

/// The reference: every block executed with `execute_graph`, block outputs
/// resolved and chained into the next block — no serving machinery at all.
fn reference_outputs(network: &Network, input: &TensorData) -> Vec<TensorData> {
    let mut current = vec![input.clone()];
    for block in &network.blocks {
        let op_outputs = ios::backend::execute_graph(&block.graph, &current);
        current = block
            .graph
            .outputs()
            .iter()
            .map(|value| match value {
                ios::ir::Value::Input(i) => current[*i].clone(),
                ios::ir::Value::Op(id) => op_outputs[id.index()].clone(),
            })
            .collect();
    }
    current
}

#[test]
fn served_squeezenet_outputs_are_bit_identical_across_batch_sizes() {
    let network = ios::models::squeezenet(1);

    // Two distinct samples; every batch mixes both, so batch position and
    // content both vary. References are computed once per sample.
    let samples = [
        TensorData::random(network.input_shape, 0xA11CE),
        TensorData::random(network.input_shape, 0xB0B),
    ];
    let references: Vec<Vec<TensorData>> = samples
        .iter()
        .map(|s| reference_outputs(&network, s))
        .collect();

    let config = ServeConfig {
        max_batch: 8,
        workers: 1,
        max_wait: Duration::from_millis(40),
        ..ServeConfig::default()
    };
    let (executor, gate) = common::gated(CpuReferenceExecutor::new());
    let engine = ServeEngine::start_with_executor(network.clone(), config, executor);

    for batch in [1usize, 4, 8] {
        // A lone request leaves the idle engine at once; a larger batch
        // forms behind a batch held in flight.
        let held = (batch > 1).then(|| gate.hold(&engine, samples[0].clone()));
        let sample_idx: Vec<usize> = (0..batch).map(|i| i % samples.len()).collect();
        let handles: Vec<_> = sample_idx
            .iter()
            .map(|&s| {
                engine
                    .submit(samples[s].clone())
                    .expect("engine accepts requests")
            })
            .collect();
        if let Some(held) = held {
            gate.release(held);
        }
        let responses: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();

        for (response, &s) in responses.iter().zip(&sample_idx) {
            assert_eq!(response.batch_size, batch);
            // Batch sizes 1 and 8 were pre-warmed and are served by their
            // exactly specialized schedules; batch 4 by the nearest, 1's.
            let expected = match batch {
                4 => ScheduleSource::Nearest { optimized_for: 1 },
                _ => ScheduleSource::Exact,
            };
            assert_eq!(response.schedule_source, expected, "batch {batch}");
            assert_eq!(response.outputs.len(), references[s].len());
            for (out, reference) in response.outputs.iter().zip(&references[s]) {
                assert_eq!(
                    out, reference,
                    "serving outputs must be bit-identical to execute_graph \
                     (batch {batch}, sample {s})"
                );
            }
        }
    }

    let metrics = engine.metrics();
    assert_eq!(
        metrics.completed,
        1 + 4 + 8 + 2,
        "plus the two held requests"
    );
    assert_eq!(
        (metrics.cache.misses, metrics.cache.nearest_served),
        (1, 1),
        "batch 4 is the one size not pre-warmed"
    );
    assert!(metrics.cache.hits >= 3);
    engine.shutdown();
}

#[test]
fn schedule_cache_serves_specialized_schedules_with_nearest_fallback() {
    // The cache-policy test runs on an executor that computes nothing, so
    // it exercises scheduling and caching only.
    let network = ios::models::squeezenet(1);
    let config = ServeConfig {
        max_batch: 8,
        workers: 1,
        max_wait: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let (executor, gate) = common::gated(common::SleepyExecutor {
        batch_time: Duration::ZERO,
    });
    let engine = ServeEngine::start_with_executor(network.clone(), config, executor);
    let input = || TensorData::zeros(network.input_shape);
    // Requests queued behind a batch held in flight leave together once it
    // finishes (the held lone request is an exact batch-1 hit).
    let behind_a_held_batch = |count: usize| {
        let held = gate.hold(&engine, input());
        let handles: Vec<_> = (0..count)
            .map(|_| engine.submit(input()).unwrap())
            .collect();
        gate.release(held);
        handles
    };

    // Depth 8 → exact batch-8 schedule.
    for handle in behind_a_held_batch(8) {
        let response = handle.wait();
        assert_eq!(response.batch_size, 8);
        assert_eq!(response.schedule_source, ScheduleSource::Exact);
    }

    // Three requests → batch 3 has no exact schedule; the nearest cached
    // batch size (1, distance 2, rather than 8, distance 5) serves it.
    let responses: Vec<_> = behind_a_held_batch(3)
        .into_iter()
        .map(|h| h.wait())
        .collect();
    assert!(responses.iter().all(|r| r.batch_size == 3));
    for response in &responses {
        assert_eq!(
            response.schedule_source,
            ScheduleSource::Nearest { optimized_for: 1 },
            "batch 3 must fall back to the nearest specialized schedule"
        );
    }

    // Background re-optimization eventually installs the exact batch-3
    // schedule; later batch-3 dispatches hit it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.metrics().cache.background_inserts == 0 {
        assert!(
            Instant::now() < deadline,
            "background re-optimization never completed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for handle in behind_a_held_batch(3) {
        assert_eq!(handle.wait().schedule_source, ScheduleSource::Exact);
    }

    let stats = engine.metrics().cache;
    assert!(
        stats.hits >= 2,
        "batch-8 and post-reoptimization batch-3 hits, got {stats:?}"
    );
    assert!(stats.misses >= 1, "the first batch-3 dispatch must miss");
    assert_eq!(stats.nearest_served, 1);
    assert_eq!(stats.background_inserts, 1);
    assert!(stats.entries >= 3, "schedules for batches 1, 8 and 3");
    assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);
    engine.shutdown();
}
