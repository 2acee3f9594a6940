//! The dynamic program against an exhaustive oracle (the paper's §4 claim:
//! unpruned, Algorithm 1 is optimal within its schedule space).
//!
//! For random blocks of at most eight operators ([`random_dag`]) and the
//! Table-2 blocks as small, the oracle enumerates every schedule forwards:
//! a sequence of stages, each a non-empty set of unscheduled operators
//! whose predecessors are scheduled or inside the stage. A stage costs
//! what IOS-Both's `GenerateStage` charges it — concurrent execution of
//! its `ordered_groups`, or an operator merge where one is eligible,
//! whichever is cheaper — and a schedule costs the sum of its stages.
//! Under the V100 simulator and under a hashed random stage cost
//! (optimality must hold for any additive cost), every graph checks that:
//!
//! * unpruned IOS-Both finds the oracle's minimum (relative 1e-9: the two
//!   sum in different orders);
//! * pruned searches find no less;
//! * the oracle enumerates exactly Table 1's schedule count,
//!   `block_statistics(.., PruningLimits::unpruned()).num_schedules`;
//! * `Schedule::validate` accepts every enumerated schedule.
//!
//! A failure names the seed that rebuilds its graph (or the Table-2
//! block).

use ios_core::{
    block_statistics, schedule_graph, try_merge, CostModel, GraphCostModel, IosVariant, MergedConv,
    ParallelizationStrategy, PruningLimits, Schedule, SchedulerConfig, SimCostModel, Stage,
};
use ios_ir::{EndingEnumerator, Graph, OpId, OpSet};
use ios_sim::{DeviceKind, Simulator};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

#[path = "common/random_dag.rs"]
mod random_dag;

/// A stage cost drawn by hashing the stage's operators with a seed: no
/// structure for a search to exploit, the same value whenever it is asked.
struct HashedCost {
    seed: u64,
    measurements: AtomicU64,
}

/// SplitMix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl HashedCost {
    /// A latency in [1, 1001) µs for one `(stage, strategy)`.
    fn latency(&self, ops: OpSet, strategy: u64) -> f64 {
        self.measurements.fetch_add(1, Ordering::Relaxed);
        let bits = ops.bits();
        let h = mix(self.seed ^ mix(bits as u64 ^ mix((bits >> 64) as u64 ^ strategy)));
        1.0 + (h % 1_000_000) as f64 / 1000.0
    }
}

impl CostModel for HashedCost {
    fn measurement_count(&self) -> u64 {
        self.measurements.load(Ordering::Relaxed)
    }

    fn bind<'a>(&'a self, _graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        Box::new(self)
    }
}

impl GraphCostModel for &HashedCost {
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
        self.latency(groups.iter().flatten().copied().collect(), 0)
    }

    fn merge_latency(&self, merged: &MergedConv) -> f64 {
        self.latency(merged.parts.iter().copied().collect(), 1)
    }
}

/// What the oracle found over every schedule of a graph.
struct Exhaustive {
    /// The cheapest schedule's latency, summed stage by stage.
    min_latency_us: f64,
    /// Number of schedules enumerated.
    schedules: u64,
}

/// The exhaustive oracle of one graph under one cost model.
struct Oracle<'g> {
    graph: &'g Graph,
    enumerator: EndingEnumerator,
    stage_cost: Box<dyn GraphCostModel + 'g>,
    /// Direct predecessors of each operator, as bit masks.
    preds: Vec<u32>,
    /// `GenerateStage` of IOS-Both for each operator mask, made on first use.
    stages: Vec<Option<Stage>>,
    best: f64,
    schedules: u64,
}

/// The operators of a bit mask.
fn ops_of(mask: u32) -> OpSet {
    (0..32)
        .filter(|bit| mask & (1 << bit) != 0)
        .map(OpId)
        .collect()
}

impl<'g> Oracle<'g> {
    fn run(graph: &'g Graph, cost: &'g dyn CostModel) -> Exhaustive {
        let n = graph.len();
        assert!(n <= random_dag::MAX_OPS);
        let preds = (0..n)
            .map(|op| {
                graph
                    .predecessors(OpId(op))
                    .iter()
                    .fold(0, |mask, pred| mask | 1 << pred.index())
            })
            .collect();
        let mut oracle = Oracle {
            graph,
            enumerator: EndingEnumerator::new(graph),
            stage_cost: cost.bind(graph),
            preds,
            stages: vec![None; 1 << n],
            best: f64::INFINITY,
            schedules: 0,
        };
        oracle.walk(0, 0.0, &mut Vec::new());
        Exhaustive {
            min_latency_us: oracle.best,
            schedules: oracle.schedules,
        }
    }

    /// IOS-Both's stage for `mask`: concurrent execution of its ordered
    /// groups, or the merge when one is eligible and cheaper.
    fn stage(&mut self, mask: u32) -> &Stage {
        if self.stages[mask as usize].is_none() {
            let ops = ops_of(mask);
            let groups = self.enumerator.ordered_groups(ops);
            let concurrent = self.stage_cost.concurrent_latency(&groups);
            let merged = try_merge(self.graph, ops)
                .map(|merged| (self.stage_cost.merge_latency(&merged), merged));
            let stage = match merged {
                Some((latency, merged)) if latency < concurrent => Stage {
                    ops,
                    strategy: ParallelizationStrategy::OperatorMerge,
                    groups: vec![merged.parts],
                    measured_latency_us: latency,
                },
                _ => Stage {
                    ops,
                    strategy: ParallelizationStrategy::ConcurrentExecution,
                    groups,
                    measured_latency_us: concurrent,
                },
            };
            self.stages[mask as usize] = Some(stage);
        }
        self.stages[mask as usize].as_ref().expect("made above")
    }

    /// Every schedule that continues `path` (whose stages cover `done` and
    /// cost `latency`): each next stage is a non-empty subset of the rest
    /// whose operators' predecessors are done or inside it.
    fn walk(&mut self, done: u32, latency: f64, path: &mut Vec<u32>) {
        let all = (1u32 << self.graph.len()) - 1;
        let rest = all & !done;
        if rest == 0 {
            self.schedules += 1;
            self.best = self.best.min(latency);
            let stages = path.iter().map(|&mask| self.stage(mask).clone()).collect();
            let schedule = Schedule::new(self.graph.name(), stages);
            if let Err(error) = schedule.validate(self.graph) {
                panic!(
                    "{}: an enumerated schedule is invalid: {error}",
                    self.graph.name()
                );
            }
            return;
        }
        let mut stage = rest;
        while stage != 0 {
            let ready = (0..self.graph.len())
                .filter(|op| stage & (1 << op) != 0)
                .all(|op| self.preds[op] & !(done | stage) == 0);
            if ready {
                let cost = self.stage(stage).measured_latency_us;
                path.push(stage);
                self.walk(done | stage, latency + cost, path);
                path.pop();
            }
            stage = (stage - 1) & rest;
        }
    }
}

/// Runs every check on `graph` under `cost`; `case` names the failure.
fn check_against_oracle(graph: &Graph, cost: &dyn CostModel, case: &str) {
    let oracle = Oracle::run(graph, cost);
    let unpruned = SchedulerConfig {
        variant: IosVariant::Both,
        pruning: PruningLimits::unpruned(),
    };
    let found = schedule_graph(graph, &cost, &unpruned);
    let tolerance = 1e-9 * oracle.min_latency_us;
    assert!(
        (found.latency_us - oracle.min_latency_us).abs() <= tolerance,
        "{case}: unpruned IOS-Both found {} µs, the oracle {} µs",
        found.latency_us,
        oracle.min_latency_us
    );
    assert!(found.schedule.validate(graph).is_ok(), "{case}");
    for pruned in [
        SchedulerConfig::paper_default(),
        SchedulerConfig::paper_default().with_pruning(2, 2),
    ] {
        let latency = schedule_graph(graph, &cost, &pruned).latency_us;
        assert!(
            latency >= oracle.min_latency_us - tolerance,
            "{case}: {:?} found {latency} µs, under the oracle's {} µs",
            pruned.pruning,
            oracle.min_latency_us
        );
    }
    let table1 = block_statistics(graph, PruningLimits::unpruned()).num_schedules;
    assert_eq!(
        oracle.schedules as f64, table1,
        "{case}: the oracle enumerated {} schedules, Table 1 counts {table1}",
        oracle.schedules
    );
}

/// Both cost models on one graph.
/// Both cost models on one graph, the hashed one drawn from `seed`.
fn check_both(graph: &Graph, seed: u64, case: &str) {
    let sim = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    check_against_oracle(graph, &sim, &format!("{case}, V100 simulator"));
    let hashed = HashedCost {
        seed,
        measurements: AtomicU64::new(0),
    };
    check_against_oracle(graph, &hashed, &format!("{case}, hashed cost"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn unpruned_ios_both_is_the_exhaustive_optimum(seed in any::<u64>()) {
        check_both(&random_dag::random_dag(seed), seed, &format!("seed {seed:#x}"));
    }
}

/// The same checks on every block of the four Table-2 networks small
/// enough to enumerate.
#[test]
fn small_table2_blocks_are_the_exhaustive_optimum() {
    let mut checked = 0;
    for network in ios_models::paper_benchmarks(1) {
        let small = network.blocks.iter().map(|block| &block.graph);
        for graph in small.filter(|graph| graph.len() <= random_dag::MAX_OPS) {
            check_both(
                graph,
                checked,
                &format!("{} {}", network.name, graph.name()),
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} Table-2 blocks of ≤ 8 ops");
}

/// The generator covers what the oracle is meant to see: blocks of every
/// size up to eight, merge-eligible sibling convolutions, and each
/// operator kind.
#[test]
fn the_generated_blocks_cover_merges_and_every_operator_kind() {
    let mut kinds = std::collections::BTreeSet::new();
    let mut sizes = std::collections::BTreeSet::new();
    let mut with_merge = 0;
    for case in 0..240 {
        let seed = TestRng::deterministic(case).next_u64();
        let graph = random_dag::random_dag(seed);
        sizes.insert(graph.len());
        kinds.extend(graph.ops().iter().map(|op| op.kind.type_name()));
        let all = graph.all_ops().bits() as u32;
        let mut stage = all;
        let mut merges = false;
        while stage != 0 && !merges {
            merges = try_merge(&graph, ops_of(stage)).is_some();
            stage = (stage - 1) & all;
        }
        with_merge += usize::from(merges);
    }
    assert_eq!(sizes, (1..=random_dag::MAX_OPS).collect());
    for kind in ["Conv2d", "Pool", "Add", "Concat", "Relu"] {
        assert!(kinds.contains(kind), "no {kind} generated");
    }
    assert!(
        with_merge >= 24,
        "only {with_merge} of 240 blocks can merge"
    );
}
