//! `sched_search`: the cost of the IOS dynamic program itself — one
//! operation optimizes Inception V3 at batch 1 with the paper's pruning
//! (r = 3, s = 8) against a fresh simulator cost model.
//!
//! The operation is kept short (about 18 ms) on purpose: the host's
//! undisturbed stretches last from a few hundred milliseconds to a few
//! seconds, and only an operation that fits inside one can be timed
//! repeatably. RandWire-small (about 1 s per search, 0.44 M transitions)
//! is searched twice in the traced run and reported per layer; NasNet-A
//! (13–14 s per search on the seed host) does not fit a run at all.

use crate::layers;
use crate::run::{ms_since, repeat_setup, repeat_setup_again, Outcome, RunArgs};
use crate::span::Trace;
use crate::stats::{best, mean, median};
use ios_core::{
    optimize_network, schedule_graph, sequential_network_schedule, NetworkSchedule, OptimizeReport,
    SchedulerConfig, SimCostModel,
};
use ios_ir::{endings_of, Network, OpSet};
use ios_sim::{DeviceKind, Simulator};
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

fn cost_model() -> SimCostModel {
    SimCostModel::new(Simulator::new(DeviceKind::TeslaV100))
}

/// The results of one search that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    transitions: u64,
    states: u64,
    measurements: u64,
    stage_memo_hits: u64,
    stages: usize,
    latency_bits: u64,
}

struct Checker<'a> {
    network: &'a Network,
    sequential: &'a NetworkSchedule,
    first: Option<Counters>,
}

impl Checker<'_> {
    /// Validates one search's schedule and compares its counters with the
    /// first search's.
    fn search(&mut self, out: &mut Outcome, report: &OptimizeReport) {
        out.attempted += 1;
        let problems = out.problems.len();
        let valid = report.schedule.validate(self.network);
        out.check(valid.is_ok(), || format!("invalid schedule: {valid:?}"));
        out.check(
            report.schedule.latency_us <= self.sequential.latency_us + 1e-6,
            || "the schedule is predicted slower than sequential".to_string(),
        );
        let counters = Counters {
            transitions: report.transitions,
            states: report.states,
            measurements: report.measurements,
            stage_memo_hits: report.stage_memo_hits,
            stages: report.schedule.num_stages(),
            latency_bits: report.schedule.latency_us.to_bits(),
        };
        let first = self.first.get_or_insert_with(|| counters.clone());
        out.check(*first == counters, || {
            format!("search counters changed between repeats: {first:?} then {counters:?}")
        });
        if out.problems.len() > problems {
            out.failed += 1;
        }
    }
}

/// One search block by block through `schedule_graph`, with spans
/// `search -> block[i]`. Returns the assembled report and the slowest
/// block's seconds.
fn traced_search(
    network: &Network,
    config: &SchedulerConfig,
    trace: &mut Trace,
    request: u64,
) -> (OptimizeReport, f64) {
    let cost = cost_model();
    let root = trace.push("search", trace.ns(Instant::now()), 0, None, request);
    let mut slowest_block = 0.0f64;
    let mut report = OptimizeReport {
        schedule: NetworkSchedule {
            network_name: network.name.clone(),
            label: config.variant.to_string(),
            block_schedules: Vec::new(),
            latency_us: 0.0,
        },
        transitions: 0,
        states: 0,
        measurements: 0,
        stage_memo_hits: 0,
        search_seconds: 0.0,
        block_latencies_us: Vec::new(),
    };
    for (index, block) in network.blocks.iter().enumerate() {
        let start = Instant::now();
        let result = schedule_graph(&block.graph, &cost, config);
        let end = Instant::now();
        slowest_block = slowest_block.max((end - start).as_secs_f64());
        trace.push(
            format!("block[{index}]"),
            trace.ns(start),
            trace.ns(end),
            Some(root),
            request,
        );
        report.transitions += result.transitions;
        report.states += result.states;
        report.measurements += result.measurements;
        report.stage_memo_hits += result.stage_memo_hits;
        report.search_seconds += result.search_seconds;
        report.schedule.latency_us += result.latency_us;
        report.block_latencies_us.push(result.latency_us);
        report.schedule.block_schedules.push(result.schedule);
    }
    trace.spans[root].end_ns = trace.ns(Instant::now());
    (report, slowest_block)
}

/// `ir.endings_per_s`: `endings_of` over the states the dynamic program
/// reaches in the widest block (the first 300, breadth first).
fn endings_per_second(network: &Network, config: &SchedulerConfig) -> f64 {
    let Some(block) = network
        .blocks
        .iter()
        .max_by_key(|b| ios_ir::dag_width(&b.graph))
    else {
        return 0.0;
    };
    let mut seen: BTreeSet<u128> = BTreeSet::new();
    let mut queue = VecDeque::from([block.graph.all_ops()]);
    let mut endings = 0u64;
    let start = Instant::now();
    while let Some(state) = queue.pop_front() {
        if seen.len() >= 300 {
            break;
        }
        if state.is_empty() || !seen.insert(state.bits()) {
            continue;
        }
        let found: Vec<OpSet> = endings_of(&block.graph, state, config.pruning);
        endings += found.len() as u64;
        queue.extend(found.into_iter().map(|ending| state.difference(ending)));
    }
    endings as f64 / start.elapsed().as_secs_f64()
}

/// `sim.measure_stage_us`: mean simulator time per stage measurement over
/// the stages the search finally chose.
fn measure_stage_us(network: &Network, schedule: &NetworkSchedule) -> f64 {
    let simulator = Simulator::new(DeviceKind::TeslaV100);
    let mut calls = 0u64;
    let start = Instant::now();
    for _ in 0..20 {
        for (block, chosen) in network.blocks.iter().zip(&schedule.block_schedules) {
            for stage in &chosen.stages {
                std::hint::black_box(simulator.measure_stage(&block.graph, &stage.groups));
                calls += 1;
            }
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
}

pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut build_ms = Vec::new();
    let mut build = || {
        let start = Instant::now();
        let network = ios_models::inception_v3(1);
        build_ms.push(ms_since(start));
        network
    };
    let network = repeat_setup(&mut build, &mut drop, &mut out.setup_s);
    let config = SchedulerConfig::paper_default();

    let reference_start = Instant::now();
    let sequential = sequential_network_schedule(&network, &cost_model());
    let reference_s = reference_start.elapsed().as_secs_f64();
    let mut checker = Checker {
        network: &network,
        sequential: &sequential,
        first: None,
    };

    // The traced run alternates a whole search (the crates' tracer off) with
    // one run block by block (spans and tracer on), so both see the same
    // host.
    let tracer = ios_telemetry::tracer();
    tracer.clear();
    let dropped_before = tracer.dropped();
    let mut trace = Trace::new(Instant::now());
    let (mut traced_ms, mut slowest_block) = (Vec::new(), Vec::new());
    let window = Instant::now();
    let mut last = None;
    while window.elapsed().as_secs_f64() < args.seconds || last.is_none() {
        let start = Instant::now();
        let report = optimize_network(&network, &cost_model(), &config);
        out.latencies_ms.push(ms_since(start));
        checker.search(&mut out, &report);
        last = Some(report);
        if args.trace {
            tracer.set_enabled(true);
            let start = Instant::now();
            let searches = traced_ms.len() as u64;
            let (report, block_s) = traced_search(&network, &config, &mut trace, searches);
            traced_ms.push(ms_since(start));
            tracer.set_enabled(false);
            checker.search(&mut out, &report);
            slowest_block.push(block_s);
        }
    }
    // What a back-to-back caller of `optimize_network` alone would get.
    out.goodput_ops_s = 1e3 / mean(&out.latencies_ms);
    let Some(last) = last.filter(|_| args.trace) else {
        repeat_setup_again(&mut build, &mut drop, &mut out);
        return out;
    };
    let searches = traced_ms.len() as u64;
    let dropped = tracer.dropped() - dropped_before;
    let records = tracer.records().len() as u64 + dropped;

    // The wider search, outside the timed window: the better of two.
    let randwire = ios_models::randwire_small(1);
    let randwire_s = (0..2)
        .map(|_| {
            let start = Instant::now();
            let report = optimize_network(&randwire, &cost_model(), &config);
            let seconds = start.elapsed().as_secs_f64();
            out.check(report.schedule.validate(&randwire).is_ok(), || {
                "RandWire-small: invalid schedule".to_string()
            });
            seconds
        })
        .fold(f64::INFINITY, f64::min);

    let search_s = best(&out.latencies_ms) / 1e3;
    layers::network_counts(&mut out, &[&network]);
    layers::schedule_counts(&mut out, &last.schedule, &sequential);
    out.layer("models.build_ms", median(&build_ms));
    out.layer("ir.endings_per_s", endings_per_second(&randwire, &config));
    out.layer("sim.measurements", last.measurements as f64);
    out.layer(
        "sim.measure_stage_us",
        measure_stage_us(&network, &last.schedule),
    );
    out.layer("core.search_s.randwire", randwire_s);
    out.layer("core.search_s.inception", search_s);
    out.layer("core.block_search_s_max", best(&slowest_block));
    out.layer("core.transitions", last.transitions as f64);
    out.layer("core.states", last.states as f64);
    out.layer("core.stage_memo_hits", last.stage_memo_hits as f64);
    out.layer("core.transitions_per_s", last.transitions as f64 / search_s);
    out.layer(
        "telemetry.records_per_request",
        records as f64 / searches as f64,
    );
    out.layer("telemetry.dropped", dropped as f64);
    out.layer(
        "telemetry.trace_overhead_pct",
        // Each traced search against the whole search just before it.
        median(
            &traced_ms
                .iter()
                .zip(&out.latencies_ms)
                .map(|(traced, whole)| (traced / whole - 1.0) * 100.0)
                .collect::<Vec<_>>(),
        ),
    );
    out.layer("bench.reference_s", reference_s);
    out.notes.push(format!(
        "searches: {} through optimize_network, {searches} block by block",
        out.latencies_ms.len()
    ));

    let (whole_ns, self_ns) = trace.totals_ns("search");
    out.reconcile(
        "search span = sum of block spans",
        whole_ns as f64 / 1e6,
        (whole_ns - self_ns) as f64 / 1e6,
    );
    out.trace = Some(trace);
    out
}
