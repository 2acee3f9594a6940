//! Every schedule in the space runs bit-identically, at its predicted peak
//! and inside its slot plan (ROADMAP item 14).
//!
//! For [`GRAPHS`] random blocks of at most [`MAX_OPS`] operators
//! ([`random_dag`]: convolutions, sibling convolutions that merge,
//! separable convolutions, pooling, add, concat and ReLU), every schedule
//! of the space — each stage a non-empty set of unscheduled operators whose
//! predecessors are scheduled or inside it, run as concurrent execution of
//! its ordered groups, and where eligible also as an operator merge — runs
//! at every supported tier and at 1, 2 and 7 lanes through:
//!
//! * `execute_schedule_pooled`, which keeps every op output: each is
//!   `to_bits`-equal to a naive oracle;
//! * the releasing block runner (`execute_network_batched` on the block as
//!   a network), twice on one fresh pool. Its outputs are the oracle's; its
//!   measured op-output high-water (the `block` span's `arg`) is
//!   [`Schedule::peak_live_bytes`]; the slot buffers it took (the span's
//!   `id`) are [`Schedule::slot_bytes`]; and on one lane the second run
//!   takes nothing fresh and leaves the pool as the first left it. (On
//!   more lanes, how many separable convolutions hold a depthwise buffer
//!   at once depends on how their groups overlap in time, and the pool
//!   keeps what was held at once.)
//!
//! Every slot plan is checked valid: no two outputs held at one stage share
//! a slot. The 200 blocks have 1 765 schedules, which run in about 5 s. A
//! failure names the seed that rebuilds its graph.

use ios_backend::ops_cpu::{conv2d_naive, conv_weights, sep_conv_seeds};
use ios_backend::simd::{supported_isas, with_forced_isa};
use ios_backend::workers::with_forced_lanes;
use ios_backend::{
    execute_network_batched, execute_schedule_pooled, relu_fold_plan, weight_seed, FoldedRelu,
    NetworkWeights, ScratchPool, TensorData,
};
use ios_core::{try_merge, NetworkSchedule, ParallelizationStrategy, Schedule, Stage};
use ios_ir::{
    Activation, Block, Conv2dParams, EndingEnumerator, Graph, Network, OpId, OpKind, OpSet,
    PoolKind, PoolParams, TensorShape, Value,
};
use proptest::test_runner::TestRng;

// This suite draws smaller blocks than `random_dag` itself.
#[allow(dead_code)]
#[path = "../../core/tests/common/random_dag.rs"]
mod random_dag;
#[path = "../../core/tests/common/slot_check.rs"]
mod slot_check;

/// Random blocks checked.
const GRAPHS: u64 = 200;

/// The largest block checked: every schedule of up to four operators (at
/// most 75 without merges) fits the suite's time.
const MAX_OPS: usize = 4;

/// Every schedule of `graph`, merge variants included.
fn every_schedule(graph: &Graph) -> Vec<Schedule> {
    let n = graph.len();
    let enumerator = EndingEnumerator::new(graph);
    let preds: Vec<u32> = (0..n)
        .map(|op| (graph.predecessors(OpId(op)).iter()).fold(0, |m, p| m | 1 << p.index()))
        .collect();
    // The ways to run each operator mask as one stage.
    let stages: Vec<Vec<Stage>> = (0..1u32 << n)
        .map(|mask| {
            let ops: OpSet = (0..n).filter(|op| mask & 1 << op != 0).map(OpId).collect();
            if ops.is_empty() {
                return Vec::new();
            }
            let stage = |strategy, groups| Stage {
                ops,
                strategy,
                groups,
                measured_latency_us: 0.0,
            };
            let concurrent = ParallelizationStrategy::ConcurrentExecution;
            let mut ways = vec![stage(concurrent, enumerator.ordered_groups(ops))];
            if let Some(merged) = try_merge(graph, ops) {
                ways.push(stage(
                    ParallelizationStrategy::OperatorMerge,
                    vec![merged.parts],
                ));
            }
            ways
        })
        .collect();
    let mut schedules = Vec::new();
    let mut path = Vec::new();
    walk(graph, &preds, &stages, 0, &mut path, &mut schedules);
    schedules
}

/// Every schedule continuing `path`, whose stages cover `done`.
fn walk(
    graph: &Graph,
    preds: &[u32],
    stages: &[Vec<Stage>],
    done: u32,
    path: &mut Vec<Stage>,
    schedules: &mut Vec<Schedule>,
) {
    let rest = ((1u32 << graph.len()) - 1) & !done;
    if rest == 0 {
        schedules.push(Schedule::new(graph.name(), path.clone()));
        return;
    }
    let mut mask = rest;
    while mask != 0 {
        let ready = (0..graph.len())
            .filter(|op| mask & 1 << op != 0)
            .all(|op| preds[op] & !(done | mask) == 0);
        if ready {
            for stage in &stages[mask as usize] {
                path.push(stage.clone());
                walk(graph, preds, stages, done | mask, path, schedules);
                path.pop();
            }
        }
        mask = (mask - 1) & rest;
    }
}

/// The 3×3 window pooling of `random_dag`, one output element at a time:
/// the maximum, or the mean over the taps inside the input.
fn naive_pool(input: &TensorData, params: &PoolParams) -> TensorData {
    let shape = input.shape;
    let (kh, kw) = params.kernel;
    let mut out = TensorData::zeros(shape);
    for n in 0..shape.batch {
        for c in 0..shape.channels {
            for y in 0..shape.height {
                for x in 0..shape.width {
                    let max = params.kind == PoolKind::Max;
                    let (mut acc, mut count) = (if max { f32::NEG_INFINITY } else { 0.0 }, 0);
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (y + ky).checked_sub(params.padding.0);
                            let ix = (x + kx).checked_sub(params.padding.1);
                            let (Some(iy), Some(ix)) = (iy, ix) else {
                                continue;
                            };
                            if iy >= shape.height || ix >= shape.width {
                                continue;
                            }
                            let v = input.at(n, c, iy, ix);
                            acc = if max { acc.max(v) } else { acc + v };
                            count += 1;
                        }
                    }
                    out.set(n, c, y, x, if max { acc } else { acc / count as f32 });
                }
            }
        }
    }
    out
}

/// Every op output of `graph` by the naive loops: convolutions through
/// `conv2d_naive` with the weights regenerated from `weight_seed`, a
/// separable one as a ReLU copy, a grouped depthwise and a pointwise naive
/// convolution, the rest element by element. A convolution that absorbs
/// the standalone ReLU behind it (`relu_fold_plan`) stores its output
/// rectified.
fn naive_graph(graph: &Graph, inputs: &[TensorData]) -> Vec<TensorData> {
    let mut outputs: Vec<TensorData> = Vec::with_capacity(graph.len());
    let fold = relu_fold_plan(graph);
    for op in graph.ops() {
        let args: Vec<&TensorData> = (op.inputs.iter())
            .map(|v| match v {
                Value::Input(i) => &inputs[*i],
                Value::Op(src) => &outputs[src.index()],
            })
            .collect();
        let seed = weight_seed(graph, op.id);
        let in_c = args[0].shape.channels;
        let relu = |mut t: TensorData| {
            t.data.iter_mut().for_each(|v| *v = v.max(0.0));
            t
        };
        let mut out = match &op.kind {
            OpKind::Conv2d(p) => {
                let weights = conv_weights(seed, p.out_channels, in_c / p.groups, p.kernel);
                conv2d_naive(args[0], p, &weights)
            }
            OpKind::SepConv2d(p) => {
                let (dw_seed, pw_seed) = sep_conv_seeds(seed);
                let dw = Conv2dParams {
                    out_channels: in_c,
                    groups: in_c,
                    activation: Activation::None,
                    ..*p
                };
                let pw = Conv2dParams::plain(p.out_channels, (1, 1), (1, 1), (0, 0));
                let depthwise = conv2d_naive(
                    &relu(args[0].clone()),
                    &dw,
                    &conv_weights(dw_seed, in_c, 1, p.kernel),
                );
                conv2d_naive(
                    &depthwise,
                    &pw,
                    &conv_weights(pw_seed, p.out_channels, in_c, (1, 1)),
                )
            }
            OpKind::Pool(p) => naive_pool(args[0], p),
            OpKind::Concat => {
                let shape = op.output_shape;
                let mut out = TensorData::zeros(shape);
                let mut c0 = 0;
                for t in &args {
                    for c in 0..t.shape.channels {
                        for y in 0..shape.height {
                            for x in 0..shape.width {
                                out.set(0, c0 + c, y, x, t.at(0, c, y, x));
                            }
                        }
                    }
                    c0 += t.shape.channels;
                }
                out
            }
            OpKind::Add => {
                let mut out = args[0].clone();
                for t in &args[1..] {
                    out.data.iter_mut().zip(&t.data).for_each(|(o, v)| *o += v);
                }
                out
            }
            OpKind::Relu => relu(args[0].clone()),
            kind => panic!("random_dag draws no {kind:?}"),
        };
        if fold[op.id.index()] == FoldedRelu::FuseRelu {
            out = relu(out);
        }
        assert_eq!(out.shape, op.output_shape, "oracle shape of {}", op.name);
        outputs.push(out);
    }
    outputs
}

/// `a` and `b` hold the same bits.
fn same_bits(a: &TensorData, b: &TensorData) -> bool {
    a.shape == b.shape
        && a.data
            .iter()
            .map(|v| v.to_bits())
            .eq(b.data.iter().map(|v| v.to_bits()))
}

/// The `block` span of the run just made: (its `id`, its `arg`).
fn block_span() -> (u64, u64) {
    let records = ios_telemetry::tracer().records();
    let blocks: Vec<_> = records.iter().filter(|r| r.name == "block").collect();
    assert_eq!(blocks.len(), 1, "one block span per run");
    (blocks[0].id, blocks[0].arg)
}

/// Every check of the module doc on `graph` and each of its schedules;
/// returns the schedules checked and how many of them merge.
fn check_graph(graph: &Graph, case: &str) -> (usize, usize) {
    let shape: TensorShape = graph.input_shapes()[0];
    let inputs = vec![TensorData::random(shape, 7)];
    let naive = naive_graph(graph, &inputs);
    let network = Network::new(graph.name(), shape, vec![Block::new(graph.clone())]);
    let weights = NetworkWeights::precompute(&network);
    let declared: Vec<usize> = (graph.outputs().iter())
        .map(|v| v.as_op().expect("random_dag outputs ops").index())
        .collect();
    let schedules = every_schedule(graph);
    for (s, schedule) in schedules.iter().enumerate() {
        let case = format!("{case}, schedule {s} of {}", schedules.len());
        let plan = schedule.slot_plan(graph);
        slot_check::check_plan(graph, schedule, &plan, &case);
        let (peak, slots) = (schedule.peak_live_bytes(graph), plan.total_bytes());
        let planned = NetworkSchedule {
            network_name: graph.name().to_string(),
            label: "enumerated".to_string(),
            block_schedules: vec![schedule.clone()],
            latency_us: 0.0,
        };
        for isa in supported_isas() {
            for lanes in [1, 2, 7] {
                let case = format!("{case}, {isa}, {lanes} lanes");
                with_forced_isa(isa, || {
                    with_forced_lanes(lanes, || {
                        let pool = ScratchPool::new();
                        let all = execute_schedule_pooled(
                            graph,
                            schedule,
                            &inputs,
                            Some(weights.block(0)),
                            &pool,
                        );
                        for (op, (got, want)) in all.iter().zip(&naive).enumerate() {
                            assert!(same_bits(got, want), "{case}: op {op} kept");
                        }
                        let pool = ScratchPool::new();
                        let mut left = None;
                        for run in 0..2 {
                            ios_telemetry::tracer().clear();
                            let outputs = execute_network_batched(
                                &network,
                                Some(&planned),
                                &weights,
                                &inputs,
                                &pool,
                            );
                            for (got, &op) in outputs.iter().zip(&declared) {
                                assert!(same_bits(got, &naive[op]), "{case}: output {op}");
                            }
                            let (retained, high_water) = block_span();
                            assert_eq!(high_water, peak, "{case}: run {run} high-water");
                            if run == 0 {
                                assert_eq!(retained, slots, "{case}: slot bytes taken");
                            }
                            outputs.into_iter().for_each(|t| pool.recycle_tensor(t));
                            let now = (
                                pool.fresh_allocations(),
                                pool.pooled(),
                                pool.pooled_elements(),
                            );
                            if let (Some(before), 1) = (left, lanes) {
                                assert_eq!(now, before, "{case}: pool after run {run}");
                            }
                            left = Some(now);
                        }
                    });
                });
            }
        }
    }
    let merge = |s: &&Schedule| {
        (s.stages.iter()).any(|stage| stage.strategy == ParallelizationStrategy::OperatorMerge)
    };
    (schedules.len(), schedules.iter().filter(merge).count())
}

#[test]
fn every_schedule_of_small_blocks_runs_bit_identically_at_its_peak_in_its_slots() {
    ios_telemetry::tracer().set_enabled(true);
    let (mut schedules, mut sep_convs, mut merges) = (0, 0, 0);
    for case in 0..GRAPHS {
        let seed = TestRng::deterministic(case).next_u64();
        let graph = random_dag::random_dag_of(seed, MAX_OPS);
        let kinds = graph.ops().iter().map(|op| &op.kind);
        sep_convs += kinds.filter(|k| matches!(k, OpKind::SepConv2d(_))).count();
        let (checked, merging) = check_graph(&graph, &format!("seed {seed:#x}"));
        schedules += checked;
        merges += merging;
    }
    ios_telemetry::tracer().set_enabled(false);
    assert_eq!(schedules, 1765, "the space of the {GRAPHS} blocks");
    assert!(
        sep_convs >= 20,
        "only {sep_convs} separable convolutions drawn"
    );
    assert!(merges >= 20, "only {merges} schedules with a merge");
}
