//! The reference pass's memory, in a test binary of its own: its global
//! allocator counts the live heap bytes of the whole process.
//!
//! * **One operator's weights and one block's buffers**: during
//!   [`execute_network`] on Inception V3 the live heap rises by no more than
//!   the largest operator's weights, plus the largest sequential
//!   [`Schedule::peak_live_bytes`], plus a stated scratch allowance — not by
//!   a block's weights (block 10 holds 31 MiB) or a block's every output.
//! * **Generated per stage, bit for bit**: a schedule run with `None`
//!   generates each stage's weights — every part of a merge included — and
//!   is `to_bits`-equal to the run from precomputed weights.

use ios_backend::workers::with_forced_lanes;
use ios_backend::{
    execute_network, execute_schedule_pooled, BlockWeights, NetworkWeights, OpWeights, ScratchPool,
    TensorData,
};
use ios_core::{
    optimize_network, ParallelizationStrategy, Schedule, SchedulerConfig, SimCostModel,
};
use ios_sim::{DeviceKind, Simulator};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Counts the live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grown(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grown(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grown(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grown(new_size);
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held by each test, so the heap the first measures is its own.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Bytes held by one operator's weights.
fn weight_bytes(weights: &OpWeights) -> usize {
    match weights {
        OpWeights::Conv(filter) => filter.footprint().1,
        OpWeights::SepConv {
            depthwise,
            pointwise,
        } => depthwise.footprint().1 + pointwise.footprint().1,
        OpWeights::MatMul(matrix) => std::mem::size_of_val(&matrix[..]),
    }
}

/// What the reference pass may hold besides one operator's weights and a
/// block's live op outputs, on two lanes: its copy of the caller's input
/// (1.0 MiB), a block's inputs, the lanes' im2col scratch and bookkeeping.
/// The rise measured 15.9–16.6 MiB at every tier, within 0.9 MiB of the
/// other two terms; the pass that held a block's weights rose 35.0 MiB.
const SCRATCH_ALLOWANCE: usize = 4 << 20;

#[test]
fn the_reference_pass_holds_one_operators_weights_and_one_blocks_buffers() {
    let _serial = ONE_AT_A_TIME.lock();
    let net = ios_models::inception_v3(1);
    let weights = NetworkWeights::precompute(&net);
    let largest_weights = (net.blocks.iter().enumerate())
        .flat_map(|(b, block)| {
            let weights = weights.block(b);
            block
                .graph
                .ops()
                .iter()
                .filter_map(move |op| weights.get(op.id))
        })
        .map(weight_bytes)
        .max()
        .expect("Inception V3 has weights");
    drop(weights);
    let largest_live = (net.blocks.iter())
        .map(|b| Schedule::sequential(&b.graph).peak_live_bytes(&b.graph) as usize)
        .max()
        .expect("Inception V3 has blocks");
    let bound = largest_weights + largest_live + SCRATCH_ALLOWANCE;

    let input = TensorData::random(net.input_shape, 3);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    // Two lanes, so the lanes' scratch is the same on every host.
    let outputs = with_forced_lanes(2, || execute_network(&net, std::slice::from_ref(&input)));
    let rise = PEAK.load(Relaxed) - before;
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    eprintln!(
        "live heap rise {:.1} MiB; bound {:.1} = weights {:.1} + live {:.1} + scratch {:.1}",
        mib(rise),
        mib(bound),
        mib(largest_weights),
        mib(largest_live),
        mib(SCRATCH_ALLOWANCE)
    );
    assert!(
        rise <= bound,
        "the reference pass rose {:.1} MiB, over its bound of {:.1} MiB",
        mib(rise),
        mib(bound)
    );
    assert_eq!(
        outputs.len(),
        net.blocks.last().expect("a block").graph.outputs().len()
    );
}

#[test]
fn stages_generate_their_own_weights_bit_identically() {
    let _serial = ONE_AT_A_TIME.lock();
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let pool = ScratchPool::new();
    let mut merges = 0;
    for net in ios_models::paper_benchmarks(1) {
        let ios = optimize_network(&net, &cost, &SchedulerConfig::paper_default()).schedule;
        for (b, block) in net.blocks.iter().enumerate() {
            let graph = &block.graph;
            let precomputed = BlockWeights::precompute(graph);
            let inputs: Vec<TensorData> = (graph.input_shapes().iter().enumerate())
                .map(|(i, shape)| TensorData::random(*shape, 40 + i as u64))
                .collect();
            let schedules = [Schedule::sequential(graph), ios.block_schedules[b].clone()];
            for (schedule, name) in schedules.iter().zip(["sequential", "IOS-Both"]) {
                merges += (schedule.stages.iter())
                    .filter(|s| s.strategy == ParallelizationStrategy::OperatorMerge)
                    .count();
                let run =
                    |weights| execute_schedule_pooled(graph, schedule, &inputs, weights, &pool);
                let (generated, given) = (run(None), run(Some(&precomputed)));
                assert_eq!(generated.len(), given.len());
                for (op, (g, p)) in graph.ops().iter().zip(generated.iter().zip(&given)) {
                    assert_eq!(g.shape, p.shape);
                    assert!(
                        g.data
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(p.data.iter().map(|v| v.to_bits())),
                        "{} block {b} op {} under {name}",
                        net.name,
                        op.name
                    );
                }
                for tensor in generated.into_iter().chain(given) {
                    pool.recycle_tensor(tensor);
                }
            }
        }
    }
    assert!(
        merges > 0,
        "the IOS-Both schedules merge, so merge stages ran"
    );
}
