//! `sched_gate` — CI acceptance gate for profile-guided scheduling.
//!
//! Closes the paper's optimize → profile → execute loop and measures what
//! it buys: each benchmark block (Inception-V3 mixed blocks, RandWire
//! random stages) is optimized by the IOS dynamic program against a
//! [`ProfiledCostModel`] whose stage latencies are **measured on the CPU
//! execution backend** (`CpuStageProfiler`, warmup + median-of-N repeats
//! per distinct stage), and the winning schedule is then executed on that
//! same backend against two references:
//!
//! * **sequential execution** (plain topological order) — the paper's
//!   baseline; the headline gate number;
//! * the **sim-guided schedule** (optimized against the analytical V100
//!   simulator, executed on the CPU) — quantifying what profiling on the
//!   *actual* substrate is worth over optimizing for the wrong device.
//!
//! The profiled schedule must also preserve semantics (checked against
//! sequential execution before timing, ≤ 1e-3 for padded-kernel merges).
//!
//! The acceptance bar is host-aware, because inter-operator concurrency is
//! a hardware property: on a host with ≥ 2 cores the profiled IOS schedule
//! must beat sequential execution by a **geomean ≥ 1.10×**; on a
//! single-core host no schedule can beat sequential wall-clock through
//! concurrency, the profiled model's job is to *recognize* that and
//! converge to (near-)sequential schedules, and the gate enforces
//! no-regression (geomean ≥ 0.95×) instead. The JSON report records which
//! bar was enforced.
//!
//! A machine-readable report is always written to `BENCH_sched.json` (and
//! additionally to `--json PATH` when given): per-block timings, the
//! profiled-vs-simulated stage decompositions and whether they diverged —
//! the README's "schedule divergence" table is generated from this.
//!
//! Run with: `cargo run --release -p ios-bench --bin sched_gate`
//! (`--quick` profiles fewer blocks with fewer repeats for CI's PR lane).

use ios_backend::{
    execute_graph_pooled, execute_schedule_pooled, max_abs_difference, BlockWeights,
    CpuStageProfiler, ScratchPool, TensorData,
};
use ios_bench::{fmt3, geomean, maybe_write_json, paired_rounds, render_table, BenchOptions};
use ios_core::{
    schedule_graph, ParallelizationStrategy, ProfiledCostModel, Schedule, SchedulerConfig,
    SimCostModel,
};
use ios_ir::Graph;
use ios_models::RandWireConfig;
use ios_sim::Simulator;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct SchedRow {
    block: String,
    ops: usize,
    /// Stage latency measurements the profiled optimization performed.
    profiled_stages: u64,
    seq_ms: f64,
    ios_ms: f64,
    sim_guided_ms: f64,
    speedup_vs_seq: f64,
    speedup_vs_sim_guided: f64,
    /// `stages(strategy summary)` of the CPU-profiled schedule.
    cpu_decomposition: String,
    /// `stages(strategy summary)` of the sim-optimized schedule.
    sim_decomposition: String,
    /// Whether the two cost models picked different stage decompositions.
    diverged: bool,
}

#[derive(Serialize)]
struct Report {
    rows: Vec<SchedRow>,
    geomean_speedup_vs_seq: f64,
    geomean_speedup_vs_sim_guided: f64,
    host_parallelism: usize,
    acceptance_bar: f64,
    multi_core_bar: f64,
    diverged_blocks: usize,
    pass: bool,
}

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

fn main() {
    let opts = BenchOptions::from_args();
    let iters = if opts.quick { 5 } else { 9 };
    // Profiling policy: the gate's DP measures hundreds of distinct stages
    // per block, so quick mode trades repeats for wall time.
    let (warmup, repeats) = if opts.quick { (1, 2) } else { (1, 3) };
    let config = if opts.quick {
        SchedulerConfig::paper_default().with_pruning(2, 4)
    } else {
        SchedulerConfig::paper_default().with_pruning(3, 6)
    };
    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let cases = gate_blocks(opts.quick);
    println!(
        "sched_gate: {} blocks, profile policy {warmup}+{repeats} (median), best of {iters} \
         timed runs, host parallelism {host_parallelism} (quick = {})",
        cases.len(),
        opts.quick
    );

    let mut rows = Vec::new();
    for (name, graph) in &cases {
        // Optimize against stage latencies measured on the CPU backend…
        let profiled = ProfiledCostModel::with_policy(CpuStageProfiler::new(), warmup, repeats);
        let started = Instant::now();
        let ios = schedule_graph(graph, &profiled, &config);
        let optimize_s = started.elapsed().as_secs_f64();
        // …and against the analytical V100 simulator for comparison.
        let sim_cost = SimCostModel::new(Simulator::new(opts.device));
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
        let reference = execute_graph_pooled(graph, &inputs, Some(&weights), &pool);
        let scheduled =
            execute_schedule_pooled(graph, &ios.schedule, &inputs, Some(&weights), &pool);
        let diff = max_abs_difference(&reference, &scheduled);
        assert!(
            diff <= 1e-3,
            "{name}: profiled schedule must preserve semantics (diff = {diff})"
        );
        for t in reference.into_iter().chain(scheduled) {
            pool.recycle_tensor(t);
        }
        // Warm the sim-guided path's merged-weight cache too.
        for t in execute_schedule_pooled(graph, &sim.schedule, &inputs, Some(&weights), &pool) {
            pool.recycle_tensor(t);
        }

        let mut run_sequential = || {
            for t in execute_graph_pooled(graph, &inputs, Some(&weights), &pool) {
                pool.recycle_tensor(t);
            }
        };
        let run_scheduled = |schedule| {
            for t in execute_schedule_pooled(graph, schedule, &inputs, Some(&weights), &pool) {
                pool.recycle_tensor(t);
            }
        };
        // One variant per call: best-of-N each, measured back to back.
        let seq_ms = paired_rounds(iters, &mut [&mut run_sequential]).best_ms(0);
        let ios_ms = paired_rounds(iters, &mut [&mut || run_scheduled(&ios.schedule)]).best_ms(0);
        let sim_guided_ms =
            paired_rounds(iters, &mut [&mut || run_scheduled(&sim.schedule)]).best_ms(0);

        let cpu_decomposition = decomposition(&ios.schedule);
        let sim_decomposition = decomposition(&sim.schedule);
        let diverged = ios
            .schedule
            .stages
            .iter()
            .map(|s| (s.ops, s.strategy))
            .ne(sim.schedule.stages.iter().map(|s| (s.ops, s.strategy)));
        println!(
            "  {name}: optimized in {optimize_s:.1}s ({} stage profiles)",
            ios.measurements
        );
        rows.push(SchedRow {
            block: name.clone(),
            ops: graph.len(),
            profiled_stages: ios.measurements,
            seq_ms,
            ios_ms,
            sim_guided_ms,
            speedup_vs_seq: seq_ms / ios_ms,
            speedup_vs_sim_guided: sim_guided_ms / ios_ms,
            cpu_decomposition,
            sim_decomposition,
            diverged,
        });
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.block.clone(),
                fmt3(r.seq_ms),
                fmt3(r.ios_ms),
                fmt3(r.sim_guided_ms),
                fmt3(r.speedup_vs_seq),
                fmt3(r.speedup_vs_sim_guided),
                r.cpu_decomposition.clone(),
                r.sim_decomposition.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Profile-guided scheduling: IOS-DP on measured CPU stage latencies",
            &[
                "block",
                "seq ms",
                "ios ms",
                "sim-guided ms",
                "vs seq",
                "vs sim-guided",
                "cpu schedule",
                "sim schedule",
            ],
            &table_rows,
        )
    );

    let vs_seq: Vec<f64> = rows.iter().map(|r| r.speedup_vs_seq).collect();
    let vs_sim: Vec<f64> = rows.iter().map(|r| r.speedup_vs_sim_guided).collect();
    let mean_seq = geomean(&vs_seq);
    let mean_sim = geomean(&vs_sim);
    let diverged_blocks = rows.iter().filter(|r| r.diverged).count();

    let multi_core_bar = 1.10;
    let single_core_bar = 0.95;
    let bar = if host_parallelism >= 2 {
        multi_core_bar
    } else {
        println!(
            "single-core host: inter-operator concurrency cannot beat sequential wall-clock \
             here; the profiled model's job is to converge to (near-)sequential schedules, so \
             the gate enforces no-regression (>= {single_core_bar:.2}x). On hosts with >= 2 \
             cores (CI) the bar is >= {multi_core_bar:.2}x."
        );
        single_core_bar
    };
    let pass = mean_seq >= bar;
    println!(
        "geomean speedup vs sequential: {mean_seq:.3}x (enforced bar: >= {bar:.2}x); \
         vs sim-guided schedules: {mean_sim:.3}x; {diverged_blocks}/{} blocks diverged",
        rows.len()
    );
    println!("RESULT: {}", if pass { "PASS" } else { "FAIL" });

    let report = Report {
        rows,
        geomean_speedup_vs_seq: mean_seq,
        geomean_speedup_vs_sim_guided: mean_sim,
        host_parallelism,
        acceptance_bar: bar,
        multi_core_bar,
        diverged_blocks,
        pass,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_sched.json", json) {
                eprintln!("failed to write BENCH_sched.json: {e}");
            }
        }
        Err(e) => eprintln!("failed to serialize BENCH_sched.json: {e}"),
    }
    maybe_write_json(&opts, &report);
    if !pass {
        std::process::exit(1);
    }
}
