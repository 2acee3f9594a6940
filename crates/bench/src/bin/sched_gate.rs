//! `sched_gate` — CI acceptance gate for profile-guided scheduling.
//!
//! Closes the paper's optimize → profile → execute loop and measures what
//! it buys: each benchmark block (Inception-V3 mixed blocks, RandWire
//! random stages) is optimized by the IOS dynamic program against a
//! [`ProfiledCostModel`] whose stage latencies are **measured on the CPU
//! execution backend** (`CpuStageProfiler`, warmup + median-of-N repeats
//! per stage; the DP's stage memo asks for each stage once), and the
//! winning schedule is then executed on that same backend against two
//! references:
//!
//! * **sequential execution** (plain topological order) — the paper's
//!   baseline; the headline gate number;
//! * the **sim-guided schedule** (optimized against the analytical V100
//!   simulator, executed on the CPU) — quantifying what profiling on the
//!   *actual* substrate is worth over optimizing for the wrong device.
//!
//! The profiled schedule must also preserve semantics (checked against
//! sequential execution before timing: exact for finite inputs). The three
//! schedules of a block are timed in one [`paired_rounds`] call, so every
//! round runs them back to back; beside the best-of times the bar judges,
//! the table reports the quartiles of the per-round sequential ÷ profiled
//! ratio and the median per-round sim-guided ÷ profiled ratio.
//!
//! The acceptance bar is host-aware, because inter-operator concurrency is
//! a hardware property: on a host with ≥ 2 cores the profiled IOS schedule
//! must beat sequential execution by a **geomean ≥ 1.10×**; on a
//! single-core host no schedule can beat sequential wall-clock through
//! concurrency, the profiled model's job is to *recognize* that and
//! converge to (near-)sequential schedules, and the gate enforces
//! no-regression (geomean ≥ 0.95×) instead.
//!
//! Judged and reported (`BENCH_sched.json`) through [`ios_bench::gate`]:
//! per-block timings, the profiled-vs-simulated stage decompositions and
//! whether they diverged — the README's "schedule divergence" table is
//! generated from this. Two more tables are reported and not judged: each
//! Table-2 network's predicted peak of live op-output bytes under its
//! sequential and IOS-Both schedules — the memory cost of concurrency — and
//! every merge stage of Inception V3's and SqueezeNet's IOS-Both schedules
//! timed three ways: as the merged walk, as its parts in one concurrent
//! stage, and as its parts one after another.
//!
//! Run with: `cargo run --release -p ios-bench --bin sched_gate`
//! (`--quick` profiles fewer blocks with fewer repeats for CI's PR lane).

use ios_backend::{
    execute_schedule_pooled, max_abs_difference, BlockWeights, CpuStageProfiler, ScratchPool,
    TensorData,
};
use ios_bench::{cells, geomean, paired_rounds, Gate, Table};
use ios_core::{
    optimize_network, schedule_graph, try_merge, ParallelizationStrategy, ProfiledCostModel,
    Schedule, SchedulerConfig, SimCostModel, StageProfiler,
};
use ios_ir::{Graph, OpId, OpKind};
use ios_models::RandWireConfig;
use ios_sim::{DeviceKind, Simulator};
use std::process::ExitCode;
use std::time::Instant;

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

/// Operator merge on the CPU, reported and not judged: every merge stage of
/// Inception V3's and SqueezeNet's batch-1 IOS-Both schedules (planned
/// against the simulator) timed best-of-`iters` three ways on warmed stage
/// state — the merged walk (one patch block per column block, every part's
/// filter streamed over it), its parts as one concurrent stage (a group
/// each) and its parts one after another on the caller.
fn merge_table(device: DeviceKind, iters: usize) -> Table {
    let mut table = Table::new(
        "Merge stages of the IOS-Both schedules, batch 1: merged walk vs concurrent vs sequential",
        &[
            ("network", "network"),
            ("block", "block"),
            ("parts", "parts (kernel:out_c)"),
            ("input", "input c×h×w"),
            ("merged_ms", "merged ms"),
            ("concurrent_ms", "concurrent ms"),
            ("sequential_ms", "sequential ms"),
            ("concurrent_over_merged", "concurrent ÷ merged"),
            ("sequential_over_merged", "sequential ÷ merged"),
        ],
    );
    let cost = SimCostModel::new(Simulator::new(device));
    let profiler = CpuStageProfiler::new();
    for network in [ios_models::inception_v3(1), ios_models::squeezenet(1)] {
        let ios = optimize_network(&network, &cost, &SchedulerConfig::paper_default()).schedule;
        for (index, (block, schedule)) in
            network.blocks.iter().zip(&ios.block_schedules).enumerate()
        {
            let graph = &block.graph;
            let merges = schedule
                .stages
                .iter()
                .filter(|s| s.strategy == ParallelizationStrategy::OperatorMerge);
            for stage in merges {
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
                let alone: Vec<Vec<OpId>> = merged.parts.iter().map(|&op| vec![op]).collect();
                let one_by_one = [merged.parts.clone()];
                let mut run_merged = || profiler.run_merge(graph, &merged);
                let mut run_concurrent = || profiler.run_concurrent(graph, &alone);
                let mut run_sequential = || profiler.run_concurrent(graph, &one_by_one);
                let mut variants: [&mut dyn FnMut(); 3] =
                    [&mut run_merged, &mut run_concurrent, &mut run_sequential];
                // One warm-up round fills the stage state and the pool.
                paired_rounds(1, &mut variants);
                let rounds = paired_rounds(iters, &mut variants);
                let ms = [rounds.best_ms(0), rounds.best_ms(1), rounds.best_ms(2)];
                let shape = merged.input_shape;
                table.row(cells![
                    network.name.as_str(),
                    format!("b{index}"),
                    parts.join(" "),
                    format!("{}×{}×{}", shape.channels, shape.height, shape.width),
                    ms[0],
                    ms[1],
                    ms[2],
                    ms[1] / ms[0],
                    ms[2] / ms[0],
                ]);
            }
        }
    }
    table
}

fn main() -> ExitCode {
    let mut gate = Gate::from_args("sched");
    let quick = gate.opts.quick;
    let iters = if quick { 5 } else { 9 };
    // Profiling policy: the gate's DP measures hundreds of distinct stages
    // per block, so quick mode trades repeats for wall time.
    let (warmup, repeats) = if quick { (1, 2) } else { (1, 3) };
    let config = if quick {
        SchedulerConfig::paper_default().with_pruning(2, 4)
    } else {
        SchedulerConfig::paper_default().with_pruning(3, 6)
    };
    gate.fact("profile_policy", format!("{warmup}+{repeats} (median)"));
    gate.fact("timed_runs", iters);

    let mut table = Table::new(
        "Profile-guided scheduling: IOS-DP on measured CPU stage latencies",
        &[
            ("block", "block"),
            ("ops", "ops"),
            // Stage latency measurements the profiled optimization performed.
            ("measurements", "stage profiles"),
            ("optimize_s", "optimize s"),
            ("seq_ms", "seq ms"),
            ("ios_ms", "ios ms"),
            ("sim_guided_ms", "sim-guided ms"),
            ("speedup_vs_seq", "vs seq"),
            ("speedup_vs_sim_guided", "vs sim-guided"),
            // Per-round ratios: the three schedules ran back to back.
            ("seq_over_ios_q1", "seq ÷ ios q1"),
            ("seq_over_ios_median", "seq ÷ ios median"),
            ("seq_over_ios_q3", "seq ÷ ios q3"),
            ("sim_over_ios_median", "sim ÷ ios median"),
            ("cpu_decomposition", "cpu schedule"),
            ("sim_decomposition", "sim schedule"),
            // Whether the two cost models picked different decompositions.
            ("diverged", "diverged"),
        ],
    );
    let mut diverged_blocks = 0usize;
    for (name, graph) in &gate_blocks(quick) {
        // Optimize against stage latencies measured on the CPU backend…
        let profiled = ProfiledCostModel::with_policy(CpuStageProfiler::new(), warmup, repeats);
        let started = Instant::now();
        let ios = schedule_graph(graph, &profiled, &config);
        let optimize_s = started.elapsed().as_secs_f64();
        println!("  {name}: optimized in {optimize_s:.1}s");
        // …and against the analytical V100 simulator for comparison.
        let sim_cost = SimCostModel::new(Simulator::new(gate.opts.device));
        let sim = schedule_graph(graph, &sim_cost, &config);

        let weights = BlockWeights::precompute(graph);
        let pool = ScratchPool::new();
        let inputs: Vec<TensorData> = graph
            .input_shapes()
            .iter()
            .enumerate()
            .map(|(i, s)| TensorData::random(*s, 77 + i as u64))
            .collect();

        // The gate is only meaningful if the profiled schedule is correct.
        let sequential = Schedule::sequential(graph);
        let reference = execute_schedule_pooled(graph, &sequential, &inputs, Some(&weights), &pool);
        let scheduled =
            execute_schedule_pooled(graph, &ios.schedule, &inputs, Some(&weights), &pool);
        let diff = max_abs_difference(&reference, &scheduled);
        assert!(
            diff == 0.0,
            "{name}: profiled schedule must preserve semantics (diff = {diff})"
        );
        for t in reference.into_iter().chain(scheduled) {
            pool.recycle_tensor(t);
        }

        let run = |schedule: &Schedule| {
            for t in execute_schedule_pooled(graph, schedule, &inputs, Some(&weights), &pool) {
                pool.recycle_tensor(t);
            }
        };
        // One call: each round runs sequential, profiled and sim-guided
        // back to back, so a change of host state covers all three.
        let rounds = paired_rounds(
            iters,
            &mut [
                &mut || run(&sequential),
                &mut || run(&ios.schedule),
                &mut || run(&sim.schedule),
            ],
        );
        let [seq_ms, ios_ms, sim_guided_ms] = [0, 1, 2].map(|variant| rounds.best_ms(variant));
        let [seq_q1, seq_median, seq_q3] = rounds.speedup_quartiles(0, 1);

        let diverged = ios
            .schedule
            .stages
            .iter()
            .map(|s| (s.ops, s.strategy))
            .ne(sim.schedule.stages.iter().map(|s| (s.ops, s.strategy)));
        diverged_blocks += usize::from(diverged);
        table.row(cells![
            name.as_str(),
            graph.len(),
            ios.measurements,
            optimize_s,
            seq_ms,
            ios_ms,
            sim_guided_ms,
            seq_ms / ios_ms,
            sim_guided_ms / ios_ms,
            seq_q1,
            seq_median,
            seq_q3,
            rounds.median_speedup(2, 1),
            decomposition(&ios.schedule),
            decomposition(&sim.schedule),
            diverged,
        ]);
    }
    gate.table(&table);
    gate.table(&peak_live_table(gate.opts.device));
    gate.table(&merge_table(gate.opts.device, iters));

    gate.fact("diverged_blocks", diverged_blocks);
    gate.fact(
        "geomean_speedup_vs_sim_guided",
        geomean(&table.column("speedup_vs_sim_guided")),
    );
    // Inter-operator concurrency is a hardware property: with one core no
    // schedule beats sequential wall-clock, the profiled model's job is to
    // converge to (near-)sequential schedules, and the bar is no-regression.
    let bar = gate.by_cores(1.10, 0.95);
    gate.at_least(
        "geomean speedup, profiled IOS vs sequential",
        geomean(&table.column("speedup_vs_seq")),
        bar,
    );
    gate.finish()
}
