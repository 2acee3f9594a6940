//! `sched_gate` — CI acceptance gate for the schedule that serves.
//!
//! Each benchmark block (Inception-V3 mixed blocks, RandWire random
//! stages) is planned by the IOS dynamic program
//! ([`SchedulerConfig::paper_default`]) on the analytical simulator of the
//! `--device` (the V100 by default — the model the serving engine plans
//! on), and that schedule is executed on the CPU backend against
//! sequential execution (plain topological order), the paper's baseline.
//! Before timing, the schedule must pass [`Schedule::validate`] and produce
//! outputs `to_bits`-equal to sequential execution. The two schedules of a
//! block are timed in one [`paired_rounds`] call after one untimed warm-up
//! round, so every round runs them back to back; beside the best-of times
//! the bar judges, the table reports the quartiles of the per-round
//! sequential ÷ IOS ratio.
//!
//! The table also reports, and does not judge, how far the planner's
//! prediction is from the CPU: its predicted sequential ÷ IOS speedup, that
//! prediction ÷ the median measured speedup, and the IOS schedule's
//! predicted µs ÷ its measured best µs.
//!
//! The acceptance bar is host-aware, because inter-operator concurrency is
//! a hardware property: on a host with ≥ 2 cores the IOS schedule must beat
//! sequential execution by a **geomean ≥ 1.10×**; on a single-core host no
//! schedule can beat sequential wall-clock through concurrency, and the
//! gate enforces no-regression (geomean ≥ 0.95×) instead.
//!
//! Judged and reported (`BENCH_sched.json`) through [`ios_bench::gate`].
//! Two more tables are reported and not judged: each Table-2 network's
//! predicted peak of live op-output bytes under its sequential and IOS-Both
//! schedules — the memory cost of concurrency — and, for every merge stage
//! of Inception V3's and SqueezeNet's IOS-Both schedules, its whole block
//! timed three ways: as planned, with that stage's parts as one concurrent
//! stage, and with its parts one after another.
//!
//! Run with: `cargo run --release -p ios-bench --bin sched_gate`
//! (`--quick` times fewer blocks over fewer rounds for CI's PR lane).

use ios_backend::{execute_schedule_pooled, BlockWeights, ScratchPool, TensorData};
use ios_bench::{cells, geomean, paired_rounds, Gate, Table};
use ios_core::{
    optimize_network, schedule_graph, sequential_schedule, try_merge, ParallelizationStrategy,
    Schedule, SchedulerConfig, SimCostModel, Stage,
};
use ios_ir::{Graph, OpKind};
use ios_models::RandWireConfig;
use ios_sim::{DeviceKind, Simulator};
use std::process::ExitCode;

/// A compact human-readable summary of a schedule's stage decomposition,
/// e.g. `"6 stages [c2 c1 m2 c1 c1 c1]"` (`c` = concurrent groups,
/// `m` = merged operators).
fn decomposition(schedule: &Schedule) -> String {
    let stages: Vec<String> = schedule
        .stages
        .iter()
        .map(|s| match s.strategy {
            ParallelizationStrategy::ConcurrentExecution => format!("c{}", s.num_groups()),
            ParallelizationStrategy::OperatorMerge => format!("m{}", s.len()),
        })
        .collect();
    format!("{} stages [{}]", schedule.num_stages(), stages.join(" "))
}

/// The benchmark blocks: Inception-V3 mixed blocks (wide, mergeable 1×1
/// branches) and RandWire random stages (many independent sep-conv nodes).
fn gate_blocks(quick: bool) -> Vec<(String, Graph)> {
    let inception = ios_models::inception_v3(1);
    let randwire = ios_models::randwire::randwire(
        1,
        RandWireConfig {
            nodes_per_stage: 12,
            ..RandWireConfig::default()
        },
    );
    let mut picks: Vec<(String, Graph)> = Vec::new();
    let inception_blocks: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 9] };
    for &i in inception_blocks {
        picks.push((
            format!("inception_v3/b{i}"),
            inception.blocks[i].graph.clone(),
        ));
    }
    let randwire_blocks: &[usize] = if quick { &[1] } else { &[1, 2] };
    for &i in randwire_blocks {
        picks.push((format!("randwire/b{i}"), randwire.blocks[i].graph.clone()));
    }
    picks
}

/// The memory cost of concurrency, reported and not judged: each Table-2
/// network's predicted peak of live op-output bytes
/// ([`Schedule::peak_live_bytes`], the largest block's) at batch 1 under
/// its sequential and its IOS-Both schedule (planned against the
/// simulator), the largest IOS ÷ sequential ratio of any one block, and
/// the bytes a run retains for op outputs ([`Schedule::slot_bytes`], the
/// largest block's) under each schedule.
fn peak_live_table(device: DeviceKind) -> Table {
    let mut table = Table::new(
        "Predicted peak live op-output bytes and slot-plan bytes, batch 1: sequential vs IOS-Both",
        &[
            ("network", "network"),
            ("seq_peak_mb", "seq MB"),
            ("ios_peak_mb", "IOS-Both MB"),
            ("ios_over_seq", "IOS ÷ seq"),
            ("worst_block_ratio", "worst block IOS ÷ seq"),
            ("seq_slot_mb", "seq slots MB"),
            ("ios_slot_mb", "IOS-Both slots MB"),
        ],
    );
    let cost = SimCostModel::new(Simulator::new(device));
    for network in ios_models::paper_benchmarks(1) {
        let ios = optimize_network(&network, &cost, &SchedulerConfig::paper_default()).schedule;
        let mut seq_slots = 0;
        let mut ios_slots = 0;
        let peaks: Vec<(u64, u64)> = network
            .blocks
            .iter()
            .zip(&ios.block_schedules)
            .map(|(block, schedule)| {
                let graph = &block.graph;
                let sequential = Schedule::sequential(graph);
                seq_slots = u64::max(seq_slots, sequential.slot_bytes(graph));
                ios_slots = u64::max(ios_slots, schedule.slot_bytes(graph));
                (
                    sequential.peak_live_bytes(graph),
                    schedule.peak_live_bytes(graph),
                )
            })
            .collect();
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let seq_peak = peaks.iter().map(|p| p.0).max().unwrap_or(0);
        let ios_peak = peaks.iter().map(|p| p.1).max().unwrap_or(0);
        let worst_block = peaks
            .iter()
            .map(|&(seq, ios)| ios as f64 / seq as f64)
            .fold(0.0, f64::max);
        table.row(cells![
            network.name.as_str(),
            mb(seq_peak),
            mb(ios_peak),
            ios_peak as f64 / seq_peak as f64,
            worst_block,
            mb(seq_slots),
            mb(ios_slots),
        ]);
    }
    table
}

/// A block ready to run: its precomputed weights, deterministic inputs and
/// one scratch pool, with a bit-exactness check against sequential
/// execution.
struct BlockRun<'g> {
    graph: &'g Graph,
    weights: BlockWeights,
    inputs: Vec<TensorData>,
    pool: ScratchPool,
    /// The outputs of sequential execution, bit for bit.
    reference: Vec<Vec<u32>>,
}

impl<'g> BlockRun<'g> {
    fn new(graph: &'g Graph) -> Self {
        let inputs: Vec<TensorData> = graph
            .input_shapes()
            .iter()
            .enumerate()
            .map(|(i, s)| TensorData::random(*s, 77 + i as u64))
            .collect();
        let mut run = BlockRun {
            graph,
            weights: BlockWeights::precompute(graph),
            inputs,
            pool: ScratchPool::new(),
            reference: Vec::new(),
        };
        run.reference = run.output_bits(&Schedule::sequential(graph));
        run
    }

    /// Every op output of one run of `schedule`.
    fn execute(&self, schedule: &Schedule) -> Vec<TensorData> {
        execute_schedule_pooled(
            self.graph,
            schedule,
            &self.inputs,
            Some(&self.weights),
            &self.pool,
        )
    }

    /// Every op output of one run of `schedule`, as bits.
    fn output_bits(&self, schedule: &Schedule) -> Vec<Vec<u32>> {
        let outputs = self.execute(schedule);
        let bits = outputs
            .iter()
            .map(|t| t.data.iter().map(|v| v.to_bits()).collect())
            .collect();
        for t in outputs {
            self.pool.recycle_tensor(t);
        }
        bits
    }

    /// Panics unless `schedule` is valid for the block and runs it
    /// `to_bits`-equal to sequential execution: only then is timing it
    /// meaningful.
    fn check(&self, name: &str, schedule: &Schedule) {
        if let Err(reason) = schedule.validate(self.graph) {
            panic!("{name}: invalid schedule: {reason}");
        }
        assert!(
            self.output_bits(schedule) == self.reference,
            "{name}: the schedule must be bit-identical to sequential execution"
        );
    }

    /// One run of `schedule`, its outputs handed back to the pool.
    fn run(&self, schedule: &Schedule) {
        for t in self.execute(schedule) {
            self.pool.recycle_tensor(t);
        }
    }
}

/// `schedule` with its stage `index` replaced by a concurrent stage of
/// `groups`.
fn with_stage(schedule: &Schedule, index: usize, groups: Vec<Vec<ios_ir::OpId>>) -> Schedule {
    let mut rewritten = schedule.clone();
    let stage = &mut rewritten.stages[index];
    *stage = Stage {
        ops: stage.ops,
        strategy: ParallelizationStrategy::ConcurrentExecution,
        groups,
        measured_latency_us: stage.measured_latency_us,
    };
    rewritten
}

/// Operator merge on the CPU, reported and not judged: for every merge
/// stage of Inception V3's and SqueezeNet's batch-1 IOS-Both schedules
/// (planned against the simulator), its whole block timed through
/// [`execute_schedule_pooled`], alternated after one warm-up round, three
/// ways — the schedule as planned (the merged walk: one patch block per
/// column block, every part's filter streamed over it), the same schedule
/// with that stage's parts as one concurrent stage (a group each), and
/// with its parts as one group run in sequence.
fn merge_table(device: DeviceKind, iters: usize) -> Table {
    let mut table = Table::new(
        "Whole blocks around each merge stage of the IOS-Both schedules, batch 1: merged vs concurrent vs sequential stage",
        &[
            ("network", "network"),
            ("block", "block"),
            ("parts", "parts (kernel:out_c)"),
            ("input", "input c×h×w"),
            ("merged_ms", "merged ms"),
            ("concurrent_ms", "concurrent ms"),
            ("sequential_ms", "sequential ms"),
            // Per-round ratios: the three schedules ran back to back.
            ("concurrent_over_merged", "concurrent ÷ merged median"),
            ("sequential_over_merged", "sequential ÷ merged median"),
        ],
    );
    let cost = SimCostModel::new(Simulator::new(device));
    for network in [ios_models::inception_v3(1), ios_models::squeezenet(1)] {
        let ios = optimize_network(&network, &cost, &SchedulerConfig::paper_default()).schedule;
        for (index, (block, schedule)) in
            network.blocks.iter().zip(&ios.block_schedules).enumerate()
        {
            let graph = &block.graph;
            let block_run = BlockRun::new(graph);
            let merges = (schedule.stages.iter().enumerate())
                .filter(|(_, s)| s.strategy == ParallelizationStrategy::OperatorMerge);
            for (at, stage) in merges {
                let merged = try_merge(graph, stage.ops).expect("a merge stage merges");
                let parts: Vec<String> = merged
                    .parts
                    .iter()
                    .map(|&op| match &graph.op(op).kind {
                        OpKind::Conv2d(p) => {
                            format!("{}x{}:{}", p.kernel.0, p.kernel.1, p.out_channels)
                        }
                        _ => unreachable!("merged parts are convolutions"),
                    })
                    .collect();
                let alone = merged.parts.iter().map(|&op| vec![op]).collect();
                let concurrent = with_stage(schedule, at, alone);
                let sequential = with_stage(schedule, at, vec![merged.parts.clone()]);
                let name = format!("{}/b{index} stage {at}", network.name);
                block_run.check(&name, &concurrent);
                block_run.check(&name, &sequential);
                let mut variants: [&mut dyn FnMut(); 3] = [
                    &mut || block_run.run(schedule),
                    &mut || block_run.run(&concurrent),
                    &mut || block_run.run(&sequential),
                ];
                paired_rounds(1, &mut variants);
                let rounds = paired_rounds(iters, &mut variants);
                let shape = merged.input_shape;
                table.row(cells![
                    network.name.as_str(),
                    format!("b{index}"),
                    parts.join(" "),
                    format!("{}×{}×{}", shape.channels, shape.height, shape.width),
                    rounds.best_ms(0),
                    rounds.best_ms(1),
                    rounds.best_ms(2),
                    rounds.median_speedup(1, 0),
                    rounds.median_speedup(2, 0),
                ]);
            }
        }
    }
    table
}

fn main() -> ExitCode {
    let mut gate = Gate::from_args("sched");
    let iters = if gate.opts.quick { 5 } else { 9 };
    let device = gate.opts.device;
    gate.fact("planner", device.to_string());
    gate.fact("timed_runs", iters);

    let mut table = Table::new(
        "IOS schedules planned on the simulator, executed on the CPU: IOS vs sequential",
        &[
            ("block", "block"),
            ("ops", "ops"),
            // Stage latency measurements the search asked the planner for.
            ("measurements", "measurements"),
            ("seq_ms", "seq ms"),
            ("ios_ms", "ios ms"),
            ("speedup_vs_seq", "vs seq"),
            // Per-round ratios: the two schedules ran back to back.
            ("seq_over_ios_q1", "seq ÷ ios q1"),
            ("seq_over_ios_median", "seq ÷ ios median"),
            ("seq_over_ios_q3", "seq ÷ ios q3"),
            // The planner's own view, reported and not judged.
            ("predicted_speedup", "predicted seq ÷ ios"),
            ("predicted_over_measured", "predicted ÷ measured speedup"),
            ("ios_error_ratio", "ios predicted ÷ measured µs"),
            ("decomposition", "schedule"),
        ],
    );
    let cost = SimCostModel::new(Simulator::new(device));
    for (name, graph) in &gate_blocks(gate.opts.quick) {
        let ios = schedule_graph(graph, &cost, &SchedulerConfig::paper_default());
        let predicted_seq_us = sequential_schedule(graph, &cost).total_measured_latency_us();
        let block_run = BlockRun::new(graph);
        block_run.check(name, &ios.schedule);
        let sequential = Schedule::sequential(graph);
        let mut run_sequential = || block_run.run(&sequential);
        let mut run_ios = || block_run.run(&ios.schedule);
        let mut variants: [&mut dyn FnMut(); 2] = [&mut run_sequential, &mut run_ios];
        // One untimed round warms the pool and the caches for both.
        paired_rounds(1, &mut variants);
        let rounds = paired_rounds(iters, &mut variants);
        let [seq_ms, ios_ms] = [0, 1].map(|variant| rounds.best_ms(variant));
        let [q1, median, q3] = rounds.speedup_quartiles(0, 1);
        let predicted_speedup = predicted_seq_us / ios.latency_us;
        table.row(cells![
            name.as_str(),
            graph.len(),
            ios.measurements,
            seq_ms,
            ios_ms,
            seq_ms / ios_ms,
            q1,
            median,
            q3,
            predicted_speedup,
            predicted_speedup / median,
            ios.latency_us / (ios_ms * 1e3),
            decomposition(&ios.schedule),
        ]);
    }
    gate.table(&table);
    gate.table(&peak_live_table(device));
    gate.table(&merge_table(device, iters));

    // Inter-operator concurrency is a hardware property: with one core no
    // schedule beats sequential wall-clock, and the bar is no-regression.
    let bar = gate.by_cores(1.10, 0.95);
    gate.at_least(
        format!("geomean speedup, {device}-planned IOS vs sequential"),
        geomean(&table.column("speedup_vs_seq")),
        bar,
    );
    gate.finish()
}
