//! Golden results of the schedule search.
//!
//! The dynamic program's bookkeeping — adjacency, grouping, ending
//! enumeration, memo tables, the cost model's per-graph view — may be
//! reorganized for speed, but what it computes may not move: the same
//! endings in the same order, the same measurements, and therefore the same
//! counters and the same schedule down to the bits of every latency. These
//! are the values of the search as it stood before it was made to pay for
//! each ending once (Inception V3 and RandWire-small at batch 1, IOS-Both,
//! r = 3, s = 8, a fresh V100 simulator); `ios_benchmark`'s `sched_search`
//! reports the Inception counters on every run.

use ios_core::{
    optimize_network, OptimizeReport, ParallelizationStrategy, SchedulerConfig, SimCostModel,
};
use ios_ir::Network;
use ios_sim::{DeviceKind, Simulator};

const INCEPTION_DIGEST: u64 = 0x109a_d964_fc6b_e2c9;
const RANDWIRE_DIGEST: u64 = 0x4039_be05_6fe3_3743;

fn search(network: &Network) -> OptimizeReport {
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let report = optimize_network(network, &cost, &SchedulerConfig::paper_default());
    report
        .schedule
        .validate(network)
        .expect("the search returns a valid schedule");
    report
}

/// FNV-1a over every stage as written: operators, strategy, groups in
/// order, and the bits of the measured latency.
fn schedule_digest(report: &OptimizeReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (block, schedule) in report.schedule.block_schedules.iter().enumerate() {
        for stage in &schedule.stages {
            let line = format!(
                "{block} {:?} {:?} {:?} {:#018x}\n",
                stage.ops,
                stage.strategy,
                stage.groups,
                stage.measured_latency_us.to_bits()
            );
            for byte in line.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn inception_v3_search_reproduces_the_recorded_result() {
    let report = search(&ios_models::inception_v3(1));
    assert_eq!(report.transitions, 25_127);
    assert_eq!(report.states, 1_207);
    assert_eq!(report.stage_memo_hits, 19_703);
    assert_eq!(report.measurements, 5_465);
    let stages = || {
        report
            .schedule
            .block_schedules
            .iter()
            .flat_map(|s| &s.stages)
    };
    assert_eq!(stages().count(), 50);
    assert_eq!(
        stages()
            .filter(|s| s.strategy == ParallelizationStrategy::OperatorMerge)
            .count(),
        10
    );
    assert_eq!(
        stages()
            .filter(|s| {
                s.strategy == ParallelizationStrategy::ConcurrentExecution && s.num_groups() > 1
            })
            .count(),
        13
    );
    assert_eq!(report.schedule.latency_us.to_bits(), 0x40a8_8797_ac29_9162);
    assert_eq!(schedule_digest(&report), INCEPTION_DIGEST);
}

#[test]
fn randwire_small_search_reproduces_the_recorded_result() {
    let report = search(&ios_models::randwire_small(1));
    assert_eq!(report.transitions, 443_246);
    assert_eq!(report.states, 5_582);
    assert_eq!(report.stage_memo_hits, 383_452);
    assert_eq!(report.measurements, 59_794);
    assert_eq!(report.schedule.num_stages(), 29);
    assert_eq!(report.schedule.latency_us.to_bits(), 0x4077_b991_bf36_7dd5);
    assert_eq!(schedule_digest(&report), RANDWIRE_DIGEST);
}
