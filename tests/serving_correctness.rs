//! Serving correctness: results returned through `ios-serve` must be
//! bit-identical to chaining [`ios::backend::execute_graph`] over the
//! network's blocks, across batch sizes {1, 4, 8} on SqueezeNet, every one
//! of them run on the schedule the engine searched at start.

use ios::backend::TensorData;
use ios::prelude::*;
use ios::serve::{CpuReferenceExecutor, ServeConfig, ServeEngine};
use std::time::Duration;

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
    assert_eq!(metrics.cache.hits, metrics.batches);
    assert_eq!(
        (
            metrics.cache.nearest_served,
            metrics.cache.background_inserts
        ),
        (0, 0)
    );
    engine.shutdown();
}
