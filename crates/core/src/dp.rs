//! The IOS dynamic-programming scheduler (Algorithm 1 of the paper).
//!
//! `cost[S]` — the latency of an optimal schedule for the operator subset
//! `S` — satisfies
//!
//! ```text
//! cost[S] = min over endings S′ of S ( cost[S − S′] + stage_latency[S′] )
//! ```
//!
//! where `stage_latency[S′]` is the measured latency of `S′` under the better
//! of the two parallelization strategies. The recursion is memoized on `S`
//! (an [`OpSet`] bitset), endings are enumerated subject to the pruning
//! strategy `P(r, s)`, and the optimal schedule is reconstructed from the
//! recorded `choice[S]`.

use crate::cost_model::{CostModel, GraphCostModel};
use crate::merge::{try_merge, MergedConv};
use crate::schedule::{ParallelizationStrategy, Schedule, Stage};
use crate::variants::SchedulerConfig;
use ios_ir::opset::OpSetMap;
use ios_ir::{EndingEnumerator, Graph, OpId, OpSet};
use std::rc::Rc;
use std::time::Instant;

/// The outcome of `GenerateStage(S′)`: measured latency, winning strategy
/// and execution groups.
#[derive(Debug)]
struct GeneratedStage {
    latency_us: f64,
    strategy: ParallelizationStrategy,
    groups: Vec<Vec<OpId>>,
}

/// `cost[S]` and `choice[S]` of Algorithm 1: the latency of an optimal
/// schedule of a state, and the last stage of one.
#[derive(Debug)]
struct Solved {
    cost: f64,
    stage_ops: OpSet,
    stage: Rc<GeneratedStage>,
}

/// Result of scheduling one graph.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The schedule found by IOS.
    pub schedule: Schedule,
    /// Predicted latency of the schedule (sum of measured stage latencies).
    pub latency_us: f64,
    /// Number of `(S, S′)` transitions explored — the quantity bounded by the
    /// theorem of Section 4.2 and reported in Table 1.
    pub transitions: u64,
    /// Number of distinct dynamic-programming states visited.
    pub states: u64,
    /// Number of stage-latency measurements requested from the cost model.
    pub measurements: u64,
    /// Number of `(S, S′)` transitions whose stage was served from the
    /// per-run stage memo instead of re-deriving groups and re-measuring:
    /// `GenerateStage(S′)` depends only on the ending `S′`, not on the
    /// state `S`, so each distinct ending is generated once.
    pub stage_memo_hits: u64,
    /// Wall-clock time spent searching, in seconds.
    pub search_seconds: f64,
}

/// The IOS scheduler for a single graph.
pub struct Scheduler<'a, C: CostModel> {
    graph: &'a Graph,
    cost_model: &'a C,
    /// `cost_model` bound to `graph`: what the search measures through.
    stage_cost: Box<dyn GraphCostModel + 'a>,
    config: SchedulerConfig,
    enumerator: EndingEnumerator,
    /// The recursion's memo, by state.
    solved: OpSetMap<Solved>,
    /// `GenerateStage` results memoized by the ending `S′`: the same ending
    /// is reachable from many states, but its groups and measured latency
    /// do not depend on the state it is subtracted from. States whose
    /// minimum an ending wins share the entry (`Rc`); nothing is copied
    /// until the final schedule is written out.
    stage_memo: OpSetMap<Option<Rc<GeneratedStage>>>,
    stage_memo_hits: u64,
    transitions: u64,
    /// Nanoseconds spent inside the cost model — memo misses are where it
    /// runs. Kept only while the tracer records (`None` otherwise), and
    /// reported once per block.
    cost_model_ns: Option<u64>,
}

impl<'a, C: CostModel> Scheduler<'a, C> {
    /// Creates a scheduler for `graph` using `cost_model` to measure stages.
    #[must_use]
    pub fn new(graph: &'a Graph, cost_model: &'a C, config: SchedulerConfig) -> Self {
        Scheduler {
            graph,
            cost_model,
            stage_cost: cost_model.bind(graph),
            config,
            enumerator: EndingEnumerator::new(graph),
            solved: OpSetMap::default(),
            stage_memo: OpSetMap::default(),
            stage_memo_hits: 0,
            transitions: 0,
            cost_model_ns: None,
        }
    }

    /// Runs the dynamic program and returns the best schedule found.
    ///
    /// This is `InterOperatorScheduler` of Algorithm 1: solve the recursion
    /// for the full operator set, then walk `choice[·]` backwards to
    /// assemble the stages.
    #[must_use]
    pub fn run(mut self) -> ScheduleResult {
        let start = Instant::now();
        let measurements_before = self.cost_model.measurement_count();
        let all = self.graph.all_ops();
        let total_latency = {
            // One span per block, carrying the search's counters; the time
            // inside the cost model is a second span over the same block.
            let tracer = ios_telemetry::tracer();
            let mut span = tracer.span("dp.solve", "optimize");
            let solve_start_ns = tracer.now_ns();
            self.cost_model_ns = tracer.is_enabled().then_some(0);
            let total = self.solve(all);
            let generated = self.transitions - self.stage_memo_hits;
            span.set_id(self.transitions);
            span.set_arg(generated);
            if let Some(cost_model_ns) = self.cost_model_ns {
                tracer.record_span_at(
                    "dp.cost_model",
                    "optimize",
                    solve_start_ns,
                    cost_model_ns,
                    generated,
                    self.cost_model.measurement_count() - measurements_before,
                );
            }
            total
        };

        // Reconstruct the schedule from the recorded choices (L6-11).
        let mut stages_rev: Vec<Stage> = Vec::new();
        let mut state = all;
        while !state.is_empty() {
            let choice = &self.solved[&state];
            stages_rev.push(Stage {
                ops: choice.stage_ops,
                strategy: choice.stage.strategy,
                groups: choice.stage.groups.clone(),
                measured_latency_us: choice.stage.latency_us,
            });
            state = state.difference(choice.stage_ops);
        }
        stages_rev.reverse();
        let schedule = Schedule::new(self.graph.name(), stages_rev);

        ScheduleResult {
            schedule,
            latency_us: total_latency,
            transitions: self.transitions,
            states: self.solved.len() as u64,
            measurements: self.cost_model.measurement_count() - measurements_before,
            stage_memo_hits: self.stage_memo_hits,
            search_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// `Scheduler(S)` of Algorithm 1: minimal latency over all schedules of
    /// the operator subset `S`, memoized.
    fn solve(&mut self, state: OpSet) -> f64 {
        if state.is_empty() {
            return 0.0;
        }
        if let Some(solved) = self.solved.get(&state) {
            return solved.cost;
        }
        let mut best_cost = f64::INFINITY;
        let mut best_choice: Option<(OpSet, Rc<GeneratedStage>)> = None;
        for ending in self.enumerator.endings(state, self.config.pruning) {
            self.transitions += 1;
            let stage = match self.stage_memo.get(&ending) {
                Some(cached) => {
                    self.stage_memo_hits += 1;
                    cached.clone()
                }
                None => {
                    let generated = self.generate_stage(ending).map(Rc::new);
                    self.stage_memo.insert(ending, generated.clone());
                    generated
                }
            };
            let Some(stage) = stage else {
                continue;
            };
            let cost = self.solve(state.difference(ending)) + stage.latency_us;
            if cost < best_cost {
                best_cost = cost;
                best_choice = Some((ending, stage));
            }
        }
        let (stage_ops, stage) =
            best_choice.expect("every non-empty state has at least one ending");
        self.solved.insert(
            state,
            Solved {
                cost: best_cost,
                stage_ops,
                stage,
            },
        );
        best_cost
    }

    /// `GenerateStage(S′)` of Algorithm 1: pick the better parallelization
    /// strategy for the candidate stage and return its measured latency.
    ///
    /// Returns `None` when the variant forbids every applicable strategy
    /// (e.g. IOS-Merge on a multi-operator stage that cannot merge).
    fn generate_stage(&mut self, stage_ops: OpSet) -> Option<GeneratedStage> {
        // Concurrent execution is always applicable; under the IOS-Merge
        // variant it is only allowed for single-operator stages (which makes
        // IOS-Merge degenerate to the sequential schedule when nothing can
        // merge, as observed for RandWire and NasNet in Figure 6).
        let parallel_allowed = self.config.variant.allows_parallel() || stage_ops.len() == 1;
        let merged = if self.config.variant.allows_merge() && stage_ops.len() > 1 {
            try_merge(self.graph, stage_ops)
        } else {
            None
        };
        let groups = parallel_allowed.then(|| self.enumerator.ordered_groups(stage_ops));

        let entered = self.cost_model_ns.map(|_| Instant::now());
        let concurrent = groups
            .as_deref()
            .map(|groups| self.stage_cost.concurrent_latency(groups));
        let merge = merged.as_ref().map(|m| self.stage_cost.merge_latency(m));
        if let (Some(total), Some(entered)) = (self.cost_model_ns.as_mut(), entered) {
            *total += entered.elapsed().as_nanos() as u64;
        }

        let merge_stage = |latency_us, merged: MergedConv| GeneratedStage {
            latency_us,
            strategy: ParallelizationStrategy::OperatorMerge,
            groups: vec![merged.parts],
        };
        match (concurrent.zip(groups), merge.zip(merged)) {
            (Some((c, _)), Some((m, merged))) if m < c => Some(merge_stage(m, merged)),
            (Some((latency_us, groups)), _) => Some(GeneratedStage {
                latency_us,
                strategy: ParallelizationStrategy::ConcurrentExecution,
                groups,
            }),
            (None, Some((m, merged))) => Some(merge_stage(m, merged)),
            (None, None) => None,
        }
    }
}

/// Convenience wrapper: schedules a graph with the given cost model and
/// configuration.
#[must_use]
pub fn schedule_graph<C: CostModel>(
    graph: &Graph,
    cost_model: &C,
    config: &SchedulerConfig,
) -> ScheduleResult {
    Scheduler::new(graph, cost_model, *config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::testing::UnitCostModel;
    use crate::cost_model::SimCostModel;
    use crate::variants::IosVariant;
    use ios_ir::{Conv2dParams, GraphBuilder, PruningLimits, TensorShape};
    use ios_sim::{DeviceKind, Simulator};

    /// Figure 5's graph: a → b, c independent.
    fn fig5() -> Graph {
        let mut b = GraphBuilder::new("fig5", TensorShape::new(1, 64, 14, 14));
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let bb = b.conv2d("b", a, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(64, (1, 1), (1, 1), (0, 0)));
        b.build(vec![bb, c])
    }

    /// A wide block with four independent convolutions (Figure 2 shape).
    fn wide_block() -> Graph {
        let mut b = GraphBuilder::new("wide", TensorShape::new(1, 384, 15, 15));
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(384, (3, 3), (1, 1), (1, 1)));
        let bb = b.conv2d("b", x, Conv2dParams::relu(768, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(384, (3, 3), (1, 1), (1, 1)));
        let d = b.conv2d("d", x, Conv2dParams::relu(768, (3, 3), (1, 1), (1, 1)));
        let cat = b.concat("cat", &[a, bb, c, d]);
        b.build(vec![cat])
    }

    #[test]
    fn figure5_example_explores_the_expected_state_space() {
        // With the unit cost model (each op 10 µs, a stage costs the largest
        // group's serial time plus 1 µs overhead), the best schedule for
        // a→b, c puts everything in one stage with groups {a, b} and {c}:
        // max(20, 10) + 1 = 21 µs. The critical path alone is 20 µs, so no
        // schedule can do better.
        let g = fig5();
        let cost = UnitCostModel::default();
        let result = schedule_graph(
            &g,
            &cost,
            &SchedulerConfig::for_variant(IosVariant::Parallel),
        );
        assert!(result.schedule.validate(&g).is_ok());
        assert_eq!(result.schedule.num_stages(), 1);
        assert!(
            (result.latency_us - 21.0).abs() < 1e-9,
            "latency = {}",
            result.latency_us
        );
        // Figure 5 (2) shows 6 states including ∅ (we do not memoize ∅) and
        // 12 transitions.
        assert_eq!(result.states, 5);
        assert_eq!(result.transitions, 12);
    }

    #[test]
    fn optimal_latency_never_worse_than_baselines() {
        let g = wide_block();
        let sim = Simulator::new(DeviceKind::TeslaV100);
        let cost = SimCostModel::new(sim);
        let config = SchedulerConfig::paper_default();
        let ios = schedule_graph(&g, &cost, &config);
        assert!(ios.schedule.validate(&g).is_ok());

        let seq = crate::baselines::sequential_schedule(&g, &cost);
        let greedy = crate::baselines::greedy_schedule(&g, &cost);
        assert!(ios.latency_us <= seq.total_measured_latency_us() + 1e-6);
        assert!(ios.latency_us <= greedy.total_measured_latency_us() + 1e-6);
        // On a wide under-utilizing block the improvement must be material
        // (Figure 2 reports ~1.45× over sequential).
        assert!(
            seq.total_measured_latency_us() / ios.latency_us > 1.2,
            "speedup = {}",
            seq.total_measured_latency_us() / ios.latency_us
        );
    }

    #[test]
    fn merge_variant_uses_operator_merge_on_shared_input_convs() {
        let g = wide_block();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let result = schedule_graph(&g, &cost, &SchedulerConfig::for_variant(IosVariant::Merge));
        assert!(result.schedule.validate(&g).is_ok());
        let used_merge = result
            .schedule
            .stages
            .iter()
            .any(|s| s.strategy == ParallelizationStrategy::OperatorMerge);
        assert!(
            used_merge,
            "IOS-Merge should merge the shared-input convolutions"
        );
    }

    #[test]
    fn parallel_variant_never_merges() {
        let g = wide_block();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let result = schedule_graph(
            &g,
            &cost,
            &SchedulerConfig::for_variant(IosVariant::Parallel),
        );
        assert!(result
            .schedule
            .stages
            .iter()
            .all(|s| s.strategy == ParallelizationStrategy::ConcurrentExecution));
    }

    #[test]
    fn both_variant_is_at_least_as_good_as_each_single_variant() {
        let g = wide_block();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let both = schedule_graph(&g, &cost, &SchedulerConfig::for_variant(IosVariant::Both));
        let merge = schedule_graph(&g, &cost, &SchedulerConfig::for_variant(IosVariant::Merge));
        let parallel = schedule_graph(
            &g,
            &cost,
            &SchedulerConfig::for_variant(IosVariant::Parallel),
        );
        assert!(both.latency_us <= merge.latency_us + 1e-6);
        assert!(both.latency_us <= parallel.latency_us + 1e-6);
    }

    #[test]
    fn tighter_pruning_reduces_transitions_but_may_cost_latency() {
        let g = wide_block();
        let cost = UnitCostModel::default();
        let loose = schedule_graph(&g, &cost, &SchedulerConfig::default().with_pruning(3, 8));
        let tight = schedule_graph(&g, &cost, &SchedulerConfig::default().with_pruning(1, 1));
        assert!(tight.transitions < loose.transitions);
        assert!(tight.latency_us >= loose.latency_us - 1e-9);
        // r = 1, s = 1 forces one operator per stage → the sequential schedule.
        assert_eq!(tight.schedule.num_stages(), g.len());
    }

    #[test]
    fn chain_graph_schedules_sequentially() {
        let mut b = GraphBuilder::new("chain", TensorShape::new(1, 32, 8, 8));
        let mut v = b.input(0);
        for i in 0..5 {
            v = b.conv2d(
                format!("c{i}"),
                v,
                Conv2dParams::relu(32, (3, 3), (1, 1), (1, 1)),
            );
        }
        let g = b.build(vec![v]);
        let cost = UnitCostModel::default();
        let result = schedule_graph(&g, &cost, &SchedulerConfig::paper_default());
        assert!(result.schedule.validate(&g).is_ok());
        // A chain offers no concurrency: every stage is a single group, and
        // the unit cost model makes grouping consecutive operators into one
        // stage save the per-stage overhead, so the scheduler packs the
        // chain into ⌈5 / r⌉ = 2 stages under the default pruning (r = 3).
        assert!(result.schedule.stages.iter().all(|s| s.num_groups() == 1));
        assert_eq!(result.schedule.num_stages(), 2);
        assert!((result.latency_us - 52.0).abs() < 1e-9);
    }

    #[test]
    fn unpruned_search_matches_pruned_on_small_graphs() {
        // On a graph this small the pruned and unpruned searches must find
        // the same optimum (pruning only removes large stages).
        let g = fig5();
        let cost = UnitCostModel::default();
        let pruned = schedule_graph(&g, &cost, &SchedulerConfig::paper_default());
        let mut unpruned_cfg = SchedulerConfig::paper_default();
        unpruned_cfg.pruning = PruningLimits::unpruned();
        let unpruned = schedule_graph(&g, &cost, &unpruned_cfg);
        assert!((pruned.latency_us - unpruned.latency_us).abs() < 1e-9);
    }

    #[test]
    fn scheduler_reports_search_statistics() {
        let g = wide_block();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let result = schedule_graph(&g, &cost, &SchedulerConfig::paper_default());
        assert!(result.transitions >= result.states);
        assert!(result.measurements > 0);
        assert!(result.search_seconds >= 0.0);
    }

    #[test]
    fn stage_memo_deduplicates_repeat_endings() {
        // The wide block reaches the same single-operator endings from many
        // states; each must be generated (and measured) only once.
        let g = wide_block();
        let cost = UnitCostModel::default();
        let result = schedule_graph(&g, &cost, &SchedulerConfig::paper_default());
        assert!(
            result.stage_memo_hits > 0,
            "repeat endings must hit the stage memo"
        );
        assert!(result.stage_memo_hits < result.transitions);
        // Every transition either hit the memo or generated a fresh entry,
        // and fresh entries are bounded by the distinct-ending count.
        let distinct = result.transitions - result.stage_memo_hits;
        assert!(distinct >= result.schedule.num_stages() as u64);
    }
}
