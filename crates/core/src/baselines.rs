//! The two baseline schedules of Section 6.1.
//!
//! * The **sequential schedule** executes the operators one by one in a
//!   topological order — what cuDNN-based frameworks do by default.
//! * The **greedy schedule** (Tang et al., 2018) repeatedly puts every
//!   operator whose predecessors have completed into the next stage and runs
//!   them all concurrently, which packs early stages and starves late ones
//!   (Figure 2's second schedule).

use crate::cost_model::CostModel;
use crate::schedule::{ParallelizationStrategy, Schedule, Stage};
use ios_ir::{EndingEnumerator, Graph, OpSet};

/// Builds the sequential schedule: one operator per stage, topological order.
#[must_use]
pub fn sequential_schedule<C: CostModel>(graph: &Graph, cost_model: &C) -> Schedule {
    let stage_cost = cost_model.bind(graph);
    let stages = graph
        .topological_order()
        .into_iter()
        .map(|op| {
            let groups = vec![vec![op]];
            let latency = stage_cost.concurrent_latency(&groups);
            Stage {
                ops: OpSet::singleton(op),
                strategy: ParallelizationStrategy::ConcurrentExecution,
                groups,
                measured_latency_us: latency,
            }
        })
        .collect();
    Schedule::new(graph.name(), stages)
}

/// Builds the greedy schedule: each stage contains every operator whose
/// predecessors have all been scheduled in earlier stages; operators of a
/// stage are grouped into connected components and executed concurrently.
#[must_use]
pub fn greedy_schedule<C: CostModel>(graph: &Graph, cost_model: &C) -> Schedule {
    let stage_cost = cost_model.bind(graph);
    let index = EndingEnumerator::new(graph);
    let mut scheduled = OpSet::empty();
    let all = graph.all_ops();
    let mut stages = Vec::new();
    while scheduled != all {
        let ready: OpSet = all
            .difference(scheduled)
            .iter()
            .filter(|op| index.predecessors(*op).is_subset(scheduled))
            .collect();
        assert!(
            !ready.is_empty(),
            "dependency cycle while building the greedy schedule"
        );
        let groups = index.ordered_groups(ready);
        let latency = stage_cost.concurrent_latency(&groups);
        stages.push(Stage {
            ops: ready,
            strategy: ParallelizationStrategy::ConcurrentExecution,
            groups,
            measured_latency_us: latency,
        });
        scheduled = scheduled.union(ready);
    }
    Schedule::new(graph.name(), stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_model::testing::UnitCostModel;
    use ios_ir::{Conv2dParams, GraphBuilder, OpId, TensorShape};

    /// Figure 2's situation: conv b depends on a preceding conv, the other
    /// three are ready immediately.
    fn staggered_graph() -> Graph {
        let mut b = GraphBuilder::new("staggered", TensorShape::new(1, 64, 14, 14));
        let x = b.input(0);
        let pre = b.conv2d("pre", x, Conv2dParams::relu(64, (1, 1), (1, 1), (0, 0)));
        let a = b.conv2d("a", x, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let bb = b.conv2d("b", pre, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let cat = b.concat("cat", &[a, bb, c]);
        b.build(vec![cat])
    }

    #[test]
    fn sequential_schedule_is_one_op_per_stage() {
        let g = staggered_graph();
        let cost = UnitCostModel::default();
        let s = sequential_schedule(&g, &cost);
        assert_eq!(s.num_stages(), g.len());
        assert!(s.validate(&g).is_ok());
        assert!(s.stages.iter().all(|st| st.len() == 1));
        // 5 ops × (10 + 1) µs with the unit cost model.
        assert!((s.total_measured_latency_us() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_schedule_packs_ready_operators() {
        let g = staggered_graph();
        let cost = UnitCostModel::default();
        let s = greedy_schedule(&g, &cost);
        assert!(s.validate(&g).is_ok());
        // Stage 1: pre, a, c (all ready). Stage 2: b. Stage 3: cat.
        assert_eq!(s.num_stages(), 3);
        assert_eq!(s.stages[0].len(), 3);
        assert!(s.stages[0].ops.contains(OpId(0)));
        assert!(s.stages[0].ops.contains(OpId(1)));
        assert!(s.stages[0].ops.contains(OpId(3)));
        assert_eq!(s.stages[1].len(), 1);
        assert_eq!(s.stages[2].len(), 1);
    }

    #[test]
    fn greedy_is_faster_than_sequential_under_unit_costs() {
        let g = staggered_graph();
        let cost = UnitCostModel::default();
        let seq = sequential_schedule(&g, &cost);
        let greedy = greedy_schedule(&g, &cost);
        assert!(greedy.total_measured_latency_us() < seq.total_measured_latency_us());
    }

    #[test]
    fn baselines_handle_single_operator_graphs() {
        let mut b = GraphBuilder::new("single", TensorShape::new(1, 8, 8, 8));
        let x = b.input(0);
        let c = b.conv2d("only", x, Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)));
        let g = b.build(vec![c]);
        let cost = UnitCostModel::default();
        assert_eq!(sequential_schedule(&g, &cost).num_stages(), 1);
        assert_eq!(greedy_schedule(&g, &cost).num_stages(), 1);
    }
}
