//! Lane-count identity through the facade: a real network under its IOS
//! schedule computes the same bits whether its operators, stage groups and
//! samples run on one lane of the backend's worker pool or are cut up for
//! two, three or seven — and, on a multi-core host, the unforced run really
//! does split operators.

use ios::backend::workers::{self, with_forced_lanes};
use ios::backend::{
    execute_network, execute_network_batched, stack_batch, NetworkWeights, ScratchPool, TensorData,
};
use ios::prelude::*;

#[test]
fn squeezenet_outputs_are_bit_identical_for_every_lane_count() {
    let network = ios::models::squeezenet(1);
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let schedule = optimize_network(&network, &cost, &SchedulerConfig::paper_default()).schedule;
    let weights = NetworkWeights::precompute(&network);
    let arena = ScratchPool::new();
    let samples: Vec<TensorData> = (0..2)
        .map(|i| TensorData::random(network.input_shape, 0x1A9E + i))
        .collect();
    let stacked = stack_batch(&samples.iter().collect::<Vec<_>>());
    let run = |inputs: &TensorData| {
        execute_network_batched(
            &network,
            Some(&schedule),
            &weights,
            std::slice::from_ref(inputs),
            &arena,
        )
    };

    // One lane posts nothing: the serial walk, checked against the plain
    // sequential executor (bit for bit: SqueezeNet's schedule merges
    // nothing that changes a sum).
    let one_lane = with_forced_lanes(1, || run(&samples[0]));
    let reference = execute_network(&network, std::slice::from_ref(&samples[0]));
    assert_eq!(one_lane, reference);

    let jobs_before = workers::stats().op_jobs;
    let unforced = run(&samples[0]);
    assert_eq!(unforced, one_lane, "the host's own lane count");
    if workers::stats().lanes > 1 {
        assert!(
            workers::stats().op_jobs > jobs_before,
            "SqueezeNet's large convolutions are split on a multi-core host"
        );
    }
    for lanes in [2, 3, 7] {
        let split = with_forced_lanes(lanes, || run(&samples[0]));
        assert_eq!(split, one_lane, "{lanes} lanes");
    }

    // Two samples: the sample fan-out, stage groups posted inside it and
    // operator chunks under both.
    let batch_one_lane = with_forced_lanes(1, || run(&stacked));
    for lanes in [2, 7] {
        let split = with_forced_lanes(lanes, || run(&stacked));
        assert_eq!(split, batch_one_lane, "batch of two, {lanes} lanes");
    }
}
