//! `infer_inception_b1`: Inception V3 at batch 1 under the IOS schedule,
//! the paper's Figure 7 experiment on real numerics.

use crate::layers;
use crate::run::{ms_since, repeat_setup, repeat_setup_again, Outcome, RunArgs};
use crate::span::Trace;
use crate::stats::{best, mean, median};
use crate::table::INCEPTION_BLOCKS;
use ios_backend::{
    execute_network, execute_network_batched, execute_schedule_pooled, max_abs_difference,
    NetworkWeights, ScratchPool, TensorData,
};
use ios_core::{
    optimize_network, sequential_network_schedule, NetworkSchedule, OptimizeReport, Schedule,
    SchedulerConfig, SimCostModel,
};
use ios_ir::{Graph, Network, Value};
use ios_sim::{DeviceKind, Simulator};
use std::time::Instant;

struct Ready {
    network: Network,
    ios: OptimizeReport,
    weights: NetworkWeights,
    pool: ScratchPool,
}

/// Times of the parts of one set-up, in ms.
#[derive(Default)]
struct Parts {
    build: Vec<f64>,
    optimize: Vec<f64>,
    precompute: Vec<f64>,
}

fn cost_model() -> SimCostModel {
    SimCostModel::new(Simulator::new(DeviceKind::TeslaV100))
}

fn set_up(parts: &mut Parts) -> Ready {
    let start = Instant::now();
    let network = ios_models::inception_v3(1);
    parts.build.push(ms_since(start));
    let start = Instant::now();
    let ios = optimize_network(&network, &cost_model(), &SchedulerConfig::paper_default());
    parts.optimize.push(ms_since(start));
    let start = Instant::now();
    let weights = NetworkWeights::precompute(&network);
    parts.precompute.push(ms_since(start));
    Ready {
        network,
        ios,
        weights,
        pool: ScratchPool::new(),
    }
}

impl Ready {
    /// One whole-network inference; the caller recycles the outputs.
    fn infer(&self, schedule: &NetworkSchedule, input: &TensorData) -> Vec<TensorData> {
        execute_network_batched(
            &self.network,
            Some(schedule),
            &self.weights,
            std::slice::from_ref(input),
            &self.pool,
        )
    }

    fn recycle(&self, tensors: Vec<TensorData>) {
        for tensor in tensors {
            self.pool.recycle_tensor(tensor);
        }
    }
}

/// A copy of `tensor` in storage drawn from `pool`.
fn pooled_copy(tensor: &TensorData, pool: &ScratchPool) -> TensorData {
    let mut copy = pool.take_tensor(tensor.shape);
    copy.data.copy_from_slice(&tensor.data);
    copy
}

/// The declared outputs of a block, moved out of its per-operator outputs;
/// everything else goes back to the pool — what the backend does between
/// the blocks of a whole-network pass, without a heap allocation.
fn block_outputs(
    graph: &Graph,
    inputs: Vec<TensorData>,
    op_outputs: Vec<TensorData>,
    pool: &ScratchPool,
) -> Vec<TensorData> {
    let mut op_outputs: Vec<Option<TensorData>> = op_outputs.into_iter().map(Some).collect();
    let mut outputs: Vec<TensorData> = Vec::with_capacity(graph.outputs().len());
    for value in graph.outputs() {
        let tensor = match value {
            Value::Input(i) => pooled_copy(&inputs[*i], pool),
            // An operator listed as an output twice can be moved out once.
            Value::Op(id) => match op_outputs[id.index()].take() {
                Some(tensor) => tensor,
                None => {
                    let first = graph.outputs().iter().position(|v| v == value);
                    pooled_copy(&outputs[first.expect("an earlier occurrence")], pool)
                }
            },
        };
        outputs.push(tensor);
    }
    for tensor in inputs.into_iter().chain(op_outputs.into_iter().flatten()) {
        pool.recycle_tensor(tensor);
    }
    outputs
}

/// One inference run block by block through the public per-block entry,
/// with a span per block under one `infer` span. Returns the per-block
/// milliseconds and the outputs.
fn infer_by_block(
    ready: &Ready,
    schedules: &[Schedule],
    input: &TensorData,
    trace: &mut Trace,
    request: u64,
) -> (Vec<f64>, Vec<TensorData>) {
    let start = Instant::now();
    let root = trace.push("infer", trace.ns(start), 0, None, request);
    let mut current = vec![pooled_copy(input, &ready.pool)];
    let mut block_ms = Vec::with_capacity(schedules.len());
    for (index, (block, schedule)) in ready.network.blocks.iter().zip(schedules).enumerate() {
        let begin = Instant::now();
        let op_outputs = execute_schedule_pooled(
            &block.graph,
            schedule,
            &current,
            Some(ready.weights.block(index)),
            &ready.pool,
        );
        let end = Instant::now();
        block_ms.push((end - begin).as_secs_f64() * 1e3);
        trace.push(
            format!("block[{index}]"),
            trace.ns(begin),
            trace.ns(end),
            Some(root),
            request,
        );
        current = block_outputs(&block.graph, current, op_outputs, &ready.pool);
    }
    trace.spans[root].end_ns = trace.ns(Instant::now());
    (block_ms, current)
}

fn bit_identical(a: &[TensorData], b: &[TensorData]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape == y.shape
                && x.data
                    .iter()
                    .zip(&y.data)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut parts = Parts::default();
    let mut build = || set_up(&mut parts);
    let ready = repeat_setup(&mut build, &mut drop, &mut out.setup_s);

    // Reference outputs: the plain sequential executor (weights regenerated
    // on the fly), outside set-up.
    let reference_start = Instant::now();
    let sequential = sequential_network_schedule(&ready.network, &cost_model());
    let inputs: Vec<TensorData> = (0..2)
        .map(|i| TensorData::random(ready.network.input_shape, args.seed.wrapping_mul(2) + i))
        .collect();
    let expected: Vec<Vec<TensorData>> = inputs
        .iter()
        .map(|input| execute_network(&ready.network, std::slice::from_ref(input)))
        .collect();
    let reference_s = reference_start.elapsed().as_secs_f64();

    out.check(ready.ios.schedule.validate(&ready.network).is_ok(), || {
        "the IOS schedule does not validate".to_string()
    });
    out.check(
        ready.ios.schedule.latency_us <= sequential.latency_us + 1e-6,
        || "the IOS schedule is predicted slower than sequential".to_string(),
    );

    // Warm-up fills the scratch pool and fixes the outputs every later
    // repeat must reproduce bit for bit.
    let first: Vec<Vec<TensorData>> = inputs
        .iter()
        .zip(&expected)
        .map(|(input, want)| {
            let got = ready.infer(&ready.ios.schedule, input);
            let diff = max_abs_difference(&got, want);
            out.check(diff <= 1e-3, || {
                format!("IOS output differs from sequential by {diff}")
            });
            let seq = ready.infer(&sequential, input);
            out.check(bit_identical(&seq, want), || {
                "scheduled sequential output differs from the reference".to_string()
            });
            ready.recycle(seq);
            got
        })
        .collect();

    // An IOS inference must repeat its first output bit for bit, a
    // sequential one the reference.
    let verify = |got: &[TensorData], which: usize, what: &str, out: &mut Outcome| {
        out.attempted += 1;
        if !bit_identical(got, &first[which]) && !bit_identical(got, &expected[which]) {
            out.failed += 1;
            out.check(false, || format!("{what} is not reproducible"));
        }
    };
    let timed = |schedule: &NetworkSchedule, i: usize, out: &mut Outcome| -> f64 {
        let which = i % inputs.len();
        let start = Instant::now();
        let got = ready.infer(schedule, &inputs[which]);
        let elapsed = ms_since(start);
        verify(&got, which, "a whole-network inference", out);
        ready.recycle(got);
        elapsed
    };

    if !args.trace {
        let window = Instant::now();
        let mut i = 0;
        while window.elapsed().as_secs_f64() < args.seconds {
            let ms = timed(&ready.ios.schedule, i, &mut out);
            out.latencies_ms.push(ms);
            i += 1;
        }
        out.goodput_ops_s = (out.attempted - out.failed) as f64 / window.elapsed().as_secs_f64();
        repeat_setup_again(&mut build, &mut drop, &mut out);
        return out;
    }

    // Traced run: one loop of five steps, so every number below saw the same
    // host — whole-network inference under the IOS schedule twice and under
    // the sequential one once (the crates' tracer off), then the same
    // inference block by block under each schedule, spans and tracer on.
    let tracer = ios_telemetry::tracer();
    tracer.clear();
    let dropped_before = tracer.dropped();
    let mut trace = Trace::new(Instant::now());
    let blocks = ready.network.blocks.len();
    let mut by_block = [vec![Vec::new(); blocks], vec![Vec::new(); blocks]];
    let (mut seq_ms, mut traced_ms, mut block_sums) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fresh, mut reuses) = (0, 0);
    let window = Instant::now();
    let mut step = 0usize;
    while window.elapsed().as_secs_f64() < args.seconds || step < 10 {
        let round = step / 5;
        match step % 5 {
            whole @ 0..=2 => {
                let before = (ready.pool.fresh_allocations(), ready.pool.reuses());
                if whole == 2 {
                    let ms = timed(&sequential, round, &mut out);
                    seq_ms.push(ms);
                } else {
                    let ms = timed(&ready.ios.schedule, round, &mut out);
                    out.latencies_ms.push(ms);
                }
                fresh += ready.pool.fresh_allocations() - before.0;
                reuses += ready.pool.reuses() - before.1;
            }
            by_block_step => {
                let kind = by_block_step - 3;
                let schedules = [&ready.ios.schedule, &sequential][kind];
                let which = round % inputs.len();
                tracer.set_enabled(true);
                let start = Instant::now();
                let (block_ms, got) = infer_by_block(
                    &ready,
                    &schedules.block_schedules,
                    &inputs[which],
                    &mut trace,
                    step as u64,
                );
                if kind == 0 {
                    traced_ms.push(ms_since(start));
                    block_sums.push(block_ms.iter().sum::<f64>());
                }
                tracer.set_enabled(false);
                verify(&got, which, "a block-by-block inference", &mut out);
                ready.recycle(got);
                for (block, ms) in block_ms.into_iter().enumerate() {
                    by_block[kind][block].push(ms);
                }
            }
        }
        step += 1;
    }
    // What a back-to-back caller of the IOS schedule alone would get.
    out.goodput_ops_s = 1e3 / mean(&out.latencies_ms);
    let passes = (traced_ms.len() * 2) as u64;
    let records = tracer.records().len() as u64 + (tracer.dropped() - dropped_before);

    // Whole and parts are compared round by round — the two whole-network
    // inferences of a round against the block-by-block pass that followed
    // them within a second — and the median round is reported, so a change
    // of the host's state during the run does not read as overhead. The
    // speed-up is a ratio of interleaved medians.
    let rounds: Vec<(f64, f64, f64)> = out
        .latencies_ms
        .chunks_exact(2)
        .zip(block_sums.iter().zip(&traced_ms))
        .map(|(whole, (blocks, traced))| ((whole[0] + whole[1]) / 2.0, *blocks, *traced))
        .collect();
    let chain_overhead_ms = median(&rounds.iter().map(|r| r.0 - r.1).collect::<Vec<_>>());
    let trace_overhead = median(&rounds.iter().map(|r| r.2 / r.0 - 1.0).collect::<Vec<_>>());
    let infer_ms = best(&out.latencies_ms);
    let (ios_p50, seq_p50) = (median(&out.latencies_ms), median(&seq_ms));
    for (kind, name) in ["ios", "seq"].into_iter().enumerate() {
        for (block, samples) in by_block[kind].iter().enumerate().take(INCEPTION_BLOCKS) {
            out.layer(format!("backend.block_ms.{name}.{block:02}"), best(samples));
        }
    }
    let speedup = seq_p50 / ios_p50;
    layers::network_counts(&mut out, &[&ready.network]);
    layers::schedule_counts(&mut out, &ready.ios.schedule, &sequential);
    let predicted = sequential.latency_us / ready.ios.schedule.latency_us;
    out.layer("sim.speedup_error_ratio", predicted / speedup);
    out.layer("sim.measurements", ready.ios.measurements as f64);
    out.layer("core.transitions", ready.ios.transitions as f64);
    out.layer("core.states", ready.ios.states as f64);
    out.layer("core.stage_memo_hits", ready.ios.stage_memo_hits as f64);
    out.layer("models.build_ms", median(&parts.build));
    out.layer("core.optimize_ms", median(&parts.optimize));
    out.layer("backend.precompute_ms", median(&parts.precompute));
    out.layer(
        "backend.weight_mb",
        ready.weights.footprint().total() as f64 / (1024.0 * 1024.0),
    );
    out.layer("backend.block_ms_sum", best(&block_sums));
    out.layer("backend.chain_overhead_ms", chain_overhead_ms);
    out.layer("backend.ios_ms_p50", ios_p50);
    out.layer("backend.seq_ms_p50", seq_p50);
    out.layer("backend.ios_speedup", speedup);
    out.layer(
        "backend.gflops_per_s",
        ready.network.total_flops() as f64 / (infer_ms * 1e-3) / 1e9,
    );
    out.layer("backend.arena_fresh", fresh as f64);
    out.layer(
        "backend.arena_reuse_ratio",
        reuses as f64 / (fresh + reuses).max(1) as f64,
    );
    out.layer(
        "telemetry.records_per_request",
        records as f64 / passes as f64,
    );
    out.layer(
        "telemetry.dropped",
        (tracer.dropped() - dropped_before) as f64,
    );
    out.layer("telemetry.trace_overhead_pct", trace_overhead * 100.0);
    out.layer("bench.reference_s", reference_s);
    out.notes.push(format!(
        "whole-network samples: {} IOS, {} sequential; block-by-block passes: {passes}",
        out.latencies_ms.len(),
        seq_ms.len()
    ));

    // Inside a block-by-block pass the blocks must account for the whole.
    let (whole_ns, self_ns) = trace.totals_ns("infer");
    out.reconcile(
        "infer span = sum of block spans",
        whole_ns as f64 / 1e6,
        (whole_ns - self_ns) as f64 / 1e6,
    );
    // Whole-network time against the block-by-block pass is reported, not
    // asserted: they are different inferences, a second apart on this host.
    out.notes.push(format!(
        "whole-network ms - sum of block ms, median round: {chain_overhead_ms:.3} ms ({:.2} % of {ios_p50:.3} ms)",
        chain_overhead_ms / ios_p50 * 100.0
    ));
    out.trace = Some(trace);
    out
}
