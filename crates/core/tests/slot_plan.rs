//! The op-output slot plan ([`Schedule::slot_plan`]) of every block of the
//! four Table-2 networks, under the sequential and the IOS-Both schedule
//! (planned against the V100 simulator), at batch 1 and 8:
//!
//! * the plan is valid: every operator has a slot, a slot is exactly as
//!   large as its largest tenant, and no two tenants held at one stage
//!   (by [`Graph::live_after`]) share a slot;
//! * [`Schedule::peak_live_bytes`] ≤ [`Schedule::slot_bytes`]: a slot set
//!   holds every live set of the run;
//! * each network's worst block `slot_bytes ÷ peak_live_bytes` is pinned
//!   at its measured value, so a change of the planner shows here.

use ios_core::{optimize_network, Schedule, SchedulerConfig, SimCostModel, SlotPlan};
use ios_sim::{DeviceKind, Simulator};

#[path = "common/slot_check.rs"]
mod slot_check;

use slot_check::check_plan;

#[test]
fn every_table2_block_plan_is_valid_and_holds_its_peak() {
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    // Worst block slot_bytes ÷ peak_live_bytes, in hundredths, over both
    // schedules and both batch sizes, as measured.
    let pinned = [
        ("inception_v3", 138),
        ("randwire", 185),
        ("nasnet", 133),
        ("squeezenet", 100),
    ];
    for batch in [1, 8] {
        for network in ios_models::paper_benchmarks(batch) {
            let ios = optimize_network(&network, &cost, &SchedulerConfig::paper_default()).schedule;
            let mut worst: f64 = 0.0;
            for (block, schedule) in network.blocks.iter().zip(&ios.block_schedules) {
                let graph = &block.graph;
                for (what, schedule) in [
                    ("sequential", &Schedule::sequential(graph)),
                    ("IOS-Both", schedule),
                ] {
                    let case = format!("{} batch {batch} {} {what}", network.name, graph.name());
                    let plan = schedule.slot_plan(graph);
                    check_plan(graph, schedule, &plan, &case);
                    let (slots, peak) = (plan.total_bytes(), schedule.peak_live_bytes(graph));
                    assert_eq!(slots, schedule.slot_bytes(graph), "{case}");
                    assert!(peak <= slots, "{case}: peak {peak} over the slots' {slots}");
                    worst = worst.max(slots as f64 / peak as f64);
                }
            }
            let pin = pinned
                .iter()
                .find(|(name, _)| network.name.starts_with(name));
            let (_, hundredths) = pin.unwrap_or_else(|| panic!("no pin for {}", network.name));
            assert_eq!(
                (worst * 100.0).round() as u64,
                *hundredths,
                "{} batch {batch}: worst block slot_bytes ÷ peak_live_bytes {worst:.4}",
                network.name
            );
        }
    }
}

#[test]
fn an_unshared_plan_gives_every_op_its_own_exact_slot() {
    for network in ios_models::paper_benchmarks(1) {
        for block in &network.blocks {
            let graph = &block.graph;
            let plan = SlotPlan::unshared(graph);
            check_plan(graph, &Schedule::sequential(graph), &plan, graph.name());
            assert_eq!(plan.slot_bytes.len(), graph.len(), "{}", graph.name());
        }
    }
}
