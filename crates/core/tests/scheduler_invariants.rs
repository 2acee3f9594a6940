//! Property tests pinning the dynamic program's optimality invariants on
//! randomized graphs:
//!
//! * the DP schedule's simulated cost never exceeds the sequential
//!   baseline's (the DP explores one-operator-per-stage partitions, so a
//!   correct minimization can only improve on them);
//! * the per-run stage memo fires on graphs with shared endings — wide
//!   Inception-style blocks reach the same ending from many states, so
//!   `GenerateStage` must be served from the memo, not re-derived;
//! * one search never asks its cost model twice for the same stage, which
//!   is why no cost model keeps a stage cache ([`RecordingCostModel`]).

use ios_core::{
    schedule_graph, sequential_schedule, CostModel, GraphCostModel, MergedConv, SchedulerConfig,
    SimCostModel,
};
use ios_ir::{Graph, OpId};
use ios_models::randwire::{randwire, RandWireConfig};
use ios_sim::{DeviceKind, Simulator};
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;

/// The V100 simulator, counting every request a bound view has already
/// answered: a concurrent stage by its groups, a merge by its parts.
struct RecordingCostModel {
    inner: SimCostModel,
    repeats: Cell<u64>,
}

impl RecordingCostModel {
    fn new() -> Self {
        RecordingCostModel {
            inner: SimCostModel::new(Simulator::new(DeviceKind::TeslaV100)),
            repeats: Cell::new(0),
        }
    }
}

impl CostModel for RecordingCostModel {
    fn measurement_count(&self) -> u64 {
        self.inner.measurement_count()
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        Box::new(RecordingView {
            inner: self.inner.bind(graph),
            repeats: &self.repeats,
            concurrent: RefCell::default(),
            merges: RefCell::default(),
        })
    }
}

struct RecordingView<'a> {
    inner: Box<dyn GraphCostModel + 'a>,
    repeats: &'a Cell<u64>,
    concurrent: RefCell<HashSet<Vec<Vec<OpId>>>>,
    merges: RefCell<HashSet<Vec<OpId>>>,
}

impl RecordingView<'_> {
    fn record(&self, first_time: bool) {
        if !first_time {
            self.repeats.set(self.repeats.get() + 1);
        }
    }
}

impl GraphCostModel for RecordingView<'_> {
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
        self.record(self.concurrent.borrow_mut().insert(groups.to_vec()));
        self.inner.concurrent_latency(groups)
    }

    fn merge_latency(&self, merged: &MergedConv) -> f64 {
        self.record(self.merges.borrow_mut().insert(merged.parts.clone()));
        self.inner.merge_latency(merged)
    }
}

/// An Inception-style block: `branches` parallel convolutions over a
/// shared input, concatenated — the shape that makes endings shared
/// between many DP states.
fn branchy_graph(branches: usize, channels: usize, spatial: usize) -> ios_ir::Graph {
    use ios_ir::{Conv2dParams, GraphBuilder, TensorShape};
    let mut b = GraphBuilder::new(
        format!("prop_branchy_{branches}x{channels}"),
        TensorShape::new(1, channels, spatial, spatial),
    );
    let x = b.input(0);
    let kernels = [(1usize, 1usize), (3, 3), (5, 5)];
    let outs: Vec<_> = (0..branches)
        .map(|i| {
            let (kh, kw) = kernels[i % kernels.len()];
            b.conv2d(
                format!("branch{i}"),
                x,
                Conv2dParams::relu(channels, (kh, kw), (1, 1), (kh / 2, kw / 2)),
            )
        })
        .collect();
    let cat = b.concat("cat", &outs);
    b.build(vec![cat])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// RandWire stages are adversarial for a scheduler: random small-world
    /// wiring with multi-input summations. Whatever the wiring, the DP's
    /// predicted latency must never lose to executing the operators one by
    /// one.
    #[test]
    fn dp_schedule_never_costs_more_than_sequential_on_randwire(
        seed in any::<u64>(),
        nodes in 4usize..9,
        p_percent in 0usize..100,
        channels in 8usize..17,
    ) {
        let net = randwire(1, RandWireConfig {
            nodes_per_stage: nodes,
            stages: 1,
            k: 2,
            p: p_percent as f64 / 100.0,
            channels,
            seed,
        });
        let graph = &net.blocks[0].graph;
        let cost = RecordingCostModel::new();
        let result = schedule_graph(graph, &cost, &SchedulerConfig::paper_default());
        prop_assert_eq!(cost.repeats.get(), 0, "the search asked for a stage twice");
        prop_assert!(result.schedule.validate(graph).is_ok());
        let seq = sequential_schedule(graph, &cost).total_measured_latency_us();
        prop_assert!(
            result.latency_us <= seq + seq.abs() * 1e-9 + 1e-6,
            "DP latency {} must not exceed sequential {}",
            result.latency_us,
            seq
        );
    }

    /// Wide Inception-style blocks share single-operator (and wider)
    /// endings between many states: the DP must serve repeats from the
    /// stage memo, and still never lose to the sequential baseline.
    #[test]
    fn stage_memo_fires_on_shared_endings(
        branches in 2usize..6,
        channels in 4usize..13,
        spatial in 6usize..13,
    ) {
        let graph = branchy_graph(branches, channels, spatial);
        let cost = RecordingCostModel::new();
        let result = schedule_graph(&graph, &cost, &SchedulerConfig::paper_default());
        prop_assert_eq!(cost.repeats.get(), 0, "the search asked for a stage twice");
        prop_assert!(result.schedule.validate(&graph).is_ok());
        prop_assert!(
            result.stage_memo_hits > 0,
            "shared endings must hit the stage memo (transitions {}, states {})",
            result.transitions,
            result.states
        );
        prop_assert!(result.stage_memo_hits < result.transitions);
        let seq = sequential_schedule(&graph, &cost).total_measured_latency_us();
        prop_assert!(result.latency_us <= seq + seq.abs() * 1e-9 + 1e-6);
    }
}
