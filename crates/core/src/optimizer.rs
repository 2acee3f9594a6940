//! Network-level optimization.
//!
//! Modern CNNs stack blocks, and blocks are sequentially dependent, so IOS
//! optimizes each block independently and concatenates the per-block
//! schedules (Section 4.2). This module provides that driver, the network
//! level baselines, and re-evaluation of an existing schedule under a
//! different cost model (the machinery behind the Table 3 specialization
//! study).

use crate::baselines::{greedy_schedule, sequential_schedule};
use crate::cost_model::CostModel;
use crate::dp::schedule_graph;
use crate::merge::try_merge;
use crate::schedule::{ParallelizationStrategy, Schedule};
use crate::variants::SchedulerConfig;
use ios_ir::Network;
use serde::{Deserialize, Serialize};

/// A schedule for every block of a network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSchedule {
    /// Name of the scheduled network.
    pub network_name: String,
    /// Human-readable label of how this schedule was produced
    /// (e.g. `"IOS-Both"`, `"Sequential"`, `"Greedy"`).
    pub label: String,
    /// One schedule per block, in block order.
    pub block_schedules: Vec<Schedule>,
    /// Predicted end-to-end latency in µs (sum of block latencies) under the
    /// cost model the schedule was produced with.
    pub latency_us: f64,
}

impl NetworkSchedule {
    /// End-to-end latency in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.latency_us / 1e3
    }

    /// Throughput in images per second for the given batch size.
    #[must_use]
    pub fn throughput(&self, batch: usize) -> f64 {
        if self.latency_us <= 0.0 {
            0.0
        } else {
            batch as f64 / (self.latency_us / 1e6)
        }
    }

    /// Total number of stages across all blocks.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.block_schedules.iter().map(Schedule::num_stages).sum()
    }

    /// Validates every block schedule against the corresponding block graph.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, network: &Network) -> Result<(), String> {
        if self.block_schedules.len() != network.blocks.len() {
            return Err(format!(
                "schedule has {} block schedules, network has {} blocks",
                self.block_schedules.len(),
                network.blocks.len()
            ));
        }
        for (schedule, block) in self.block_schedules.iter().zip(&network.blocks) {
            schedule.validate(&block.graph)?;
        }
        Ok(())
    }
}

/// Search statistics of a network-level optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeReport {
    /// The optimized schedule.
    pub schedule: NetworkSchedule,
    /// Total `(S, S′)` transitions explored across all blocks.
    pub transitions: u64,
    /// Total dynamic-programming states across all blocks.
    pub states: u64,
    /// Total stage-latency measurements requested from the cost model.
    pub measurements: u64,
    /// Total stage-generation memo hits across all blocks (endings reused
    /// across DP states without re-deriving groups or re-measuring).
    pub stage_memo_hits: u64,
    /// Wall-clock search time in seconds.
    pub search_seconds: f64,
    /// Per-block latency in µs (used by the Figure 16 block-wise study).
    pub block_latencies_us: Vec<f64>,
}

/// Optimizes every block of `network` with the IOS dynamic program.
#[must_use]
pub fn optimize_network<C: CostModel>(
    network: &Network,
    cost_model: &C,
    config: &SchedulerConfig,
) -> OptimizeReport {
    let mut block_schedules = Vec::with_capacity(network.blocks.len());
    let mut block_latencies = Vec::with_capacity(network.blocks.len());
    let mut transitions = 0;
    let mut states = 0;
    let mut measurements = 0;
    let mut stage_memo_hits = 0;
    let mut search_seconds = 0.0;
    let mut total_latency = 0.0;

    let tracer = ios_telemetry::tracer();
    let mut network_span = tracer.span("optimize.network", "optimize");
    network_span.set_arg(network.blocks.len() as u64);

    for (block_index, block) in network.blocks.iter().enumerate() {
        let mut block_span = tracer.span("optimize.block", "optimize");
        block_span.set_id(block_index as u64);
        block_span.set_arg(block.graph.len() as u64);
        let result = schedule_graph(&block.graph, cost_model, config);
        transitions += result.transitions;
        states += result.states;
        measurements += result.measurements;
        stage_memo_hits += result.stage_memo_hits;
        search_seconds += result.search_seconds;
        total_latency += result.latency_us;
        block_latencies.push(result.latency_us);
        block_schedules.push(result.schedule);
    }

    OptimizeReport {
        schedule: NetworkSchedule {
            network_name: network.name.clone(),
            label: config.variant.to_string(),
            block_schedules,
            latency_us: total_latency,
        },
        transitions,
        states,
        measurements,
        stage_memo_hits,
        search_seconds,
        block_latencies_us: block_latencies,
    }
}

/// Builds the network-level sequential baseline schedule.
#[must_use]
pub fn sequential_network_schedule<C: CostModel>(
    network: &Network,
    cost_model: &C,
) -> NetworkSchedule {
    baseline_schedule(network, cost_model, "Sequential", sequential_schedule)
}

/// Builds the network-level greedy baseline schedule.
#[must_use]
pub fn greedy_network_schedule<C: CostModel>(network: &Network, cost_model: &C) -> NetworkSchedule {
    baseline_schedule(network, cost_model, "Greedy", greedy_schedule)
}

fn baseline_schedule<C: CostModel>(
    network: &Network,
    cost_model: &C,
    label: &str,
    build: impl Fn(&ios_ir::Graph, &C) -> Schedule,
) -> NetworkSchedule {
    let block_schedules: Vec<Schedule> = network
        .blocks
        .iter()
        .map(|b| build(&b.graph, cost_model))
        .collect();
    let latency_us = block_schedules
        .iter()
        .map(Schedule::total_measured_latency_us)
        .sum();
    NetworkSchedule {
        network_name: network.name.clone(),
        label: label.to_string(),
        block_schedules,
        latency_us,
    }
}

/// Re-measures an existing schedule's latency on (possibly) different
/// execution conditions: another batch size, device or kernel library.
///
/// The stage *structure* is kept; every stage is re-measured with
/// `cost_model` against the block graphs of `network` (which must have the
/// same operator structure as the network the schedule was produced for —
/// [`Network::with_batch_size`] guarantees this).
///
/// This is the primitive behind Table 3: a schedule specialized for batch 32
/// executed at batch 1 keeps its stage structure but pays batch-1 latencies.
#[must_use]
pub fn evaluate_network<C: CostModel>(
    network: &Network,
    schedule: &NetworkSchedule,
    cost_model: &C,
) -> f64 {
    network_block_costs(network, schedule, cost_model)
        .iter()
        .sum()
}

/// Re-measures an existing schedule block by block: element `i` is the
/// latency of block `i`'s stages under `cost_model`; [`evaluate_network`]
/// is its sum.
///
/// # Panics
///
/// Panics if the schedule and network block counts differ.
#[must_use]
pub fn network_block_costs<C: CostModel>(
    network: &Network,
    schedule: &NetworkSchedule,
    cost_model: &C,
) -> Vec<f64> {
    assert_eq!(
        network.blocks.len(),
        schedule.block_schedules.len(),
        "schedule and network block counts differ"
    );
    network
        .blocks
        .iter()
        .zip(&schedule.block_schedules)
        .map(|(block, block_schedule)| {
            let stage_cost = cost_model.bind(&block.graph);
            block_schedule
                .stages
                .iter()
                .map(|stage| match stage.strategy {
                    ParallelizationStrategy::ConcurrentExecution => {
                        stage_cost.concurrent_latency(&stage.groups)
                    }
                    ParallelizationStrategy::OperatorMerge => {
                        match try_merge(&block.graph, stage.ops) {
                            Some(merged) => stage_cost.merge_latency(&merged),
                            // Fall back to concurrent execution if the stage
                            // is no longer mergeable (cannot happen for pure
                            // batch re-shaping, but keeps evaluation total).
                            None => stage_cost.concurrent_latency(&stage.groups),
                        }
                    }
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::SimCostModel;
    use crate::variants::IosVariant;
    use ios_sim::{DeviceKind, Simulator};

    fn small_network() -> Network {
        // The Figure 2 block stacked twice keeps tests fast while exercising
        // the multi-block path.
        let single = ios_models::figure2_block(1);
        let block0 = single.blocks[0].clone();
        let out_shape = block0.graph.output_shapes()[0];
        let mut b = ios_ir::GraphBuilder::new("second", out_shape);
        let x = b.input(0);
        let a = b.conv2d(
            "a2",
            x,
            ios_ir::Conv2dParams::relu(256, (1, 1), (1, 1), (0, 0)),
        );
        let c = b.conv2d(
            "c2",
            x,
            ios_ir::Conv2dParams::relu(256, (3, 3), (1, 1), (1, 1)),
        );
        let cat = b.concat("cat2", &[a, c]);
        let block1 = ios_ir::Block::new(b.build(vec![cat]));
        Network::new("two_block", single.input_shape, vec![block0, block1])
    }

    #[test]
    fn optimize_network_beats_baselines() {
        let net = small_network();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let config = SchedulerConfig::paper_default();
        let report = optimize_network(&net, &cost, &config);
        assert!(report.schedule.validate(&net).is_ok());
        assert_eq!(report.block_latencies_us.len(), 2);

        let seq = sequential_network_schedule(&net, &cost);
        let greedy = greedy_network_schedule(&net, &cost);
        assert!(seq.validate(&net).is_ok());
        assert!(greedy.validate(&net).is_ok());
        assert!(report.schedule.latency_us <= seq.latency_us + 1e-6);
        assert!(report.schedule.latency_us <= greedy.latency_us + 1e-6);
        assert!(report.measurements > 0);
        assert!(report.transitions > 0);
    }

    #[test]
    fn throughput_and_latency_helpers() {
        let net = small_network();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let seq = sequential_network_schedule(&net, &cost);
        assert!(seq.latency_ms() > 0.0);
        let t1 = seq.throughput(1);
        let t8 = seq.throughput(8);
        assert!((t8 / t1 - 8.0).abs() < 1e-9);
        assert!(seq.num_stages() >= net.num_operators());
    }

    #[test]
    fn evaluate_network_matches_original_measurement() {
        let net = small_network();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let config = SchedulerConfig::for_variant(IosVariant::Parallel);
        let report = optimize_network(&net, &cost, &config);
        let re_evaluated = evaluate_network(&net, &report.schedule, &cost);
        assert!(
            (re_evaluated - report.schedule.latency_us).abs() / report.schedule.latency_us < 1e-9,
            "re-evaluated {re_evaluated}, original {}",
            report.schedule.latency_us
        );
    }

    #[test]
    fn evaluate_network_on_other_device_differs() {
        let net = small_network();
        let v100 = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let k80 = SimCostModel::new(Simulator::new(DeviceKind::TeslaK80));
        let report = optimize_network(&net, &v100, &SchedulerConfig::paper_default());
        let on_k80 = evaluate_network(&net, &report.schedule, &k80);
        assert!(
            on_k80 > report.schedule.latency_us,
            "K80 must be slower than V100"
        );
    }

    #[test]
    #[should_panic(expected = "block counts differ")]
    fn evaluate_rejects_mismatched_networks() {
        let net = small_network();
        let single = ios_models::figure2_block(1);
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let report = optimize_network(&single, &cost, &SchedulerConfig::paper_default());
        let _ = evaluate_network(&net, &report.schedule, &cost);
    }
}
