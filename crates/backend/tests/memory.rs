//! Memory accounting of the releasing block runner, in a test binary of its
//! own: it enables the process-global tracer and counts heap allocations
//! through its own global allocator.
//!
//! * The **memory identity**: the op-output high-water each block measures
//!   (the `arg` of its `block` span) equals [`Schedule::peak_live_bytes`]
//!   exactly, for every Table-2 network under its sequential and IOS-Both
//!   schedules, at batch 1 and per sample inside a batch-8 call. Scratch
//!   (im2col, lane scratch) is not part of it.
//! * **Pool accounting**: once warm, releasing op outputs mid-block makes
//!   the pool churn no fresh buffers, and a whole inference makes no more
//!   heap allocations than the keep-everything runner did.

use ios_backend::workers::with_forced_lanes;
use ios_backend::{execute_network_batched, NetworkWeights, ScratchPool, TensorData};
use ios_core::{optimize_network, NetworkSchedule, Schedule, SchedulerConfig, SimCostModel};
use ios_ir::Network;
use ios_sim::{DeviceKind, Simulator};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Counts the heap allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held by each test: the identity test's enabled tracer would otherwise
/// make the other test's spans allocate ring space.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Heap allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn ios_both(network: &Network) -> NetworkSchedule {
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    optimize_network(network, &cost, &SchedulerConfig::paper_default()).schedule
}

/// One batch-1 inference on one lane, its outputs recycled.
fn infer(
    network: &Network,
    schedule: &NetworkSchedule,
    weights: &NetworkWeights,
    input: &TensorData,
    pool: &ScratchPool,
) {
    let outputs = with_forced_lanes(1, || {
        execute_network_batched(
            network,
            Some(schedule),
            weights,
            std::slice::from_ref(input),
            pool,
        )
    });
    for t in outputs {
        pool.recycle_tensor(t);
    }
}

#[test]
fn measured_op_output_high_water_equals_the_predicted_peak() {
    let _alone = ONE_AT_A_TIME.lock();
    let tracer = ios_telemetry::tracer();
    tracer.set_enabled(true);
    let pool = ScratchPool::new();
    for network in ios_models::paper_benchmarks(1) {
        let weights = NetworkWeights::precompute(&network);
        let ios = ios_both(&network);
        let sequential: Vec<Schedule> = network
            .blocks
            .iter()
            .map(|b| Schedule::sequential(&b.graph))
            .collect();
        for (what, schedule) in [("sequential", None), ("IOS-Both", Some(&ios))] {
            let block_schedules = schedule.map_or(&sequential, |s| &s.block_schedules);
            let predicted: Vec<u64> = network
                .blocks
                .iter()
                .zip(block_schedules)
                .map(|(b, s)| s.peak_live_bytes(&b.graph))
                .collect();
            for batch in [1, 8] {
                let input = TensorData::random(network.input_shape.with_batch(batch), 5);
                tracer.clear();
                let outputs = execute_network_batched(
                    &network.with_batch_size(batch),
                    schedule,
                    &weights,
                    std::slice::from_ref(&input),
                    &pool,
                );
                for t in outputs {
                    pool.recycle_tensor(t);
                }
                // Each lane runs whole samples one after another, block by
                // block: its `block` spans are the per-block peaks, repeated.
                let mut per_lane: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                for r in tracer.records().iter().filter(|r| r.name == "block") {
                    per_lane.entry(r.tid).or_default().push(r.arg);
                }
                let blocks: usize = per_lane.values().map(Vec::len).sum();
                assert_eq!(blocks, batch * predicted.len(), "{} {what}", network.name);
                for measured in per_lane.values() {
                    assert_eq!(
                        *measured,
                        predicted.repeat(measured.len() / predicted.len()),
                        "{} {what} at batch {batch}: per-sample, per-block op-output high-water",
                        network.name
                    );
                }
            }
        }
    }
    tracer.set_enabled(false);
}

#[test]
fn warm_releasing_runner_takes_no_fresh_buffers_and_few_heap_allocations() {
    let _alone = ONE_AT_A_TIME.lock();
    let network = ios_models::inception_v3(1);
    let schedule = ios_both(&network);
    let weights = NetworkWeights::precompute(&network);
    let input = TensorData::random(network.input_shape, 11);
    let pool = ScratchPool::new();
    // The first call fills the pool and builds the merged filters.
    infer(&network, &schedule, &weights, &input, &pool);
    let fresh = pool.fresh_allocations();
    assert!(fresh > 0, "the warm-up fills the pool");
    for round in 0..3 {
        let before = allocations();
        infer(&network, &schedule, &weights, &input, &pool);
        let heap = allocations() - before;
        assert_eq!(
            pool.fresh_allocations(),
            fresh,
            "round {round}: a mid-block release must not make the pool churn"
        );
        // The keep-everything runner made 499 heap allocations per warm
        // call here; a last-use pass that allocated would add at least one
        // per stage.
        assert!(
            heap <= 499,
            "round {round}: {heap} heap allocations per call, more than the 499 the keep-everything runner made"
        );
    }
}
