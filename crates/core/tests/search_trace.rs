//! What a traced search writes to the tracer: a fixed, small number of
//! records per block, with the search's counters on them — not one record
//! per stage generated, which on Inception V3 was 5 435 records a search and
//! overflowed the tracer's ring in seconds.
//!
//! The tracer is process-wide, so this file holds a single test.

use ios_core::{optimize_network, SchedulerConfig, SimCostModel};
use ios_sim::{DeviceKind, Simulator};

#[test]
fn a_traced_search_records_two_spans_per_block() {
    let network = ios_models::inception_v3(1);
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let tracer = ios_telemetry::tracer();
    tracer.clear();
    let dropped_before = tracer.dropped();
    tracer.set_enabled(true);
    let report = optimize_network(&network, &cost, &SchedulerConfig::paper_default());
    tracer.set_enabled(false);
    let records = tracer.records();
    assert_eq!(tracer.dropped(), dropped_before);

    let named = |name: &'static str| records.iter().filter(move |r| r.name == name);
    let blocks = network.blocks.len();
    assert_eq!(named("optimize.network").count(), 1);
    assert_eq!(named("optimize.block").count(), blocks);
    assert_eq!(named("dp.solve").count(), blocks);
    assert_eq!(named("dp.cost_model").count(), blocks);
    assert_eq!(records.len(), 1 + 3 * blocks);

    // `dp.solve`: id = transitions, arg = stages generated (memo misses).
    assert_eq!(
        named("dp.solve").map(|r| r.id).sum::<u64>(),
        report.transitions
    );
    let generated = report.transitions - report.stage_memo_hits;
    assert_eq!(named("dp.solve").map(|r| r.arg).sum::<u64>(), generated);
    // `dp.cost_model`: the time inside the cost model, over the same block;
    // id = stages generated, arg = measurements.
    assert_eq!(named("dp.cost_model").map(|r| r.id).sum::<u64>(), generated);
    assert_eq!(
        named("dp.cost_model").map(|r| r.arg).sum::<u64>(),
        report.measurements
    );
    for (solve, cost_model) in named("dp.solve").zip(named("dp.cost_model")) {
        assert!(cost_model.start_ns >= solve.start_ns);
        assert!(cost_model.dur_ns > 0 && cost_model.dur_ns <= solve.dur_ns);
    }
}
