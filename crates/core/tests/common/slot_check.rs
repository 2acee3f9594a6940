//! The validity check of an op-output slot plan
//! (`ios_core::Schedule::slot_plan`), for suites of several crates
//! (included with `#[path]`).

use ios_core::{Schedule, SlotPlan};
use ios_ir::{DType, Graph, OpId, OpSet};

/// Checks `plan` against `schedule` on `graph`; `case` names a failure.
pub fn check_plan(graph: &Graph, schedule: &Schedule, plan: &SlotPlan, case: &str) {
    assert_eq!(plan.slot_of.len(), graph.len(), "{case}: one slot per op");
    let slots = plan.slot_bytes.len();
    assert!(
        plan.slot_of.iter().all(|&slot| slot < slots),
        "{case}: a slot out of range"
    );
    let mut held = vec![OpSet::empty(); schedule.num_stages()];
    let mut done = OpSet::empty();
    for (t, stage) in schedule.stages.iter().enumerate() {
        held[t] = graph.live_after(done).union(stage.ops);
        done = done.union(stage.ops);
    }
    let bytes = |op: OpId| graph.op(op).output_shape.size_bytes(DType::F32) as u64;
    for (slot, &size) in plan.slot_bytes.iter().enumerate() {
        let tenants: Vec<OpId> = (graph.ops().iter())
            .map(|op| op.id)
            .filter(|op| plan.slot_of[op.index()] == slot)
            .collect();
        let largest = tenants.iter().map(|&op| bytes(op)).max();
        assert_eq!(
            largest,
            Some(size),
            "{case}: slot {slot} is its largest tenant"
        );
        for (t, live) in held.iter().enumerate() {
            let sharing = tenants.iter().filter(|op| live.contains(**op)).count();
            assert!(
                sharing <= 1,
                "{case}: slot {slot} has {sharing} tenants at stage {t}"
            );
        }
    }
}
