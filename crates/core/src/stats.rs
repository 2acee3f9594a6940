//! Schedule-space statistics (Table 1 of the paper).
//!
//! For the largest block of each benchmark network, the paper reports the
//! number of operators `n`, the DAG width `d`, the transition upper bound
//! `C(n/d + 2, 2)^d`, the real number of `(S, S′)` transitions and the total
//! number of feasible schedules. This module computes all of these without
//! running the latency-aware dynamic program: transition and schedule counts
//! only depend on the graph structure.

use ios_ir::opset::OpSetMap;
use ios_ir::{dag_width, transition_upper_bound, EndingEnumerator, Graph, OpSet, PruningLimits};
use serde::{Deserialize, Serialize};

/// The Table 1 row for one block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockStats {
    /// Name of the block's graph.
    pub name: String,
    /// Number of operators `n`.
    pub n: usize,
    /// DAG width `d`.
    pub width: usize,
    /// The upper bound `∏ C(cᵢ + 2, 2)` on the number of transitions.
    pub transition_bound: f64,
    /// The real number of `(S, S′)` pairs explored by a search under the
    /// given pruning strategy.
    pub transitions: u64,
    /// The total number of feasible schedules (can be astronomically large,
    /// e.g. 9.2 × 10²² for RandWire, hence a float).
    pub num_schedules: f64,
}

/// Computes the Table 1 statistics for a graph.
///
/// `pruning` restricts the endings as it does in the search; pass
/// [`PruningLimits::unpruned`] for the counts reported in the paper.
#[must_use]
pub fn block_statistics(graph: &Graph, pruning: PruningLimits) -> BlockStats {
    let enumerator = EndingEnumerator::new(graph);
    let mut schedule_counts: OpSetMap<f64> = OpSetMap::default();
    let mut transitions = 0u64;
    let num_schedules = count_schedules(
        &enumerator,
        graph.all_ops(),
        pruning,
        &mut schedule_counts,
        &mut transitions,
    );
    BlockStats {
        name: graph.name().to_string(),
        n: graph.len(),
        width: dag_width(graph),
        transition_bound: transition_upper_bound(graph),
        transitions,
        num_schedules,
    }
}

/// Number of schedules of `state`. A state's endings are visited, never
/// stored: RandWire's largest block has 1.2 × 10⁶ transitions unpruned.
fn count_schedules(
    enumerator: &EndingEnumerator,
    state: OpSet,
    pruning: PruningLimits,
    memo: &mut OpSetMap<f64>,
    transitions: &mut u64,
) -> f64 {
    if state.is_empty() {
        return 1.0;
    }
    if let Some(&cached) = memo.get(&state) {
        return cached;
    }
    let mut total = 0.0;
    enumerator.for_each_ending(state, pruning, |ending| {
        *transitions += 1;
        total += count_schedules(
            enumerator,
            state.difference(ending),
            pruning,
            memo,
            transitions,
        );
    });
    memo.insert(state, total);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_ir::{Conv2dParams, GraphBuilder, TensorShape};

    fn conv() -> Conv2dParams {
        Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0))
    }

    /// A chain of `n` operators has exactly 2^(n-1) schedules (each gap is
    /// either a stage boundary or not) … except that for a chain every stage
    /// must be a contiguous run, so the count is the number of compositions
    /// of n, which is 2^(n-1).
    #[test]
    fn chain_schedule_count_is_compositions() {
        for n in 1..=6usize {
            let mut b = GraphBuilder::new("chain", TensorShape::new(1, 8, 8, 8));
            let mut v = b.input(0);
            for i in 0..n {
                v = b.conv2d(format!("c{i}"), v, conv());
            }
            let g = b.build(vec![v]);
            let stats = block_statistics(&g, PruningLimits::unpruned());
            assert_eq!(stats.n, n);
            assert_eq!(stats.width, 1);
            assert_eq!(stats.num_schedules, 2f64.powi(n as i32 - 1), "n = {n}");
        }
    }

    /// Two independent operators: schedules are {a}{b}, {b}{a}, {a,b} → 3.
    /// (Figure 5 uses exactly this structure for the {a, c} sub-state.)
    #[test]
    fn two_independent_ops_have_three_schedules() {
        let mut b = GraphBuilder::new("pair", TensorShape::new(1, 8, 8, 8));
        let x = b.input(0);
        let a = b.conv2d("a", x, conv());
        let c = b.conv2d("c", x, conv());
        let g = b.build(vec![a, c]);
        let stats = block_statistics(&g, PruningLimits::unpruned());
        assert_eq!(stats.num_schedules, 3.0);
        assert_eq!(stats.width, 2);
        // Transitions: state {a,c}: endings {a},{c},{a,c} (3); states {a},{c}: 1 each → 5.
        assert_eq!(stats.transitions, 5);
        // SqueezeNet-like scale check: the bound must dominate the real count.
        assert!(stats.transition_bound >= stats.transitions as f64);
    }

    /// The Figure 5 graph (a → b, c independent) has the schedule count one
    /// can enumerate by hand: 8.
    #[test]
    fn figure5_schedule_count() {
        let mut b = GraphBuilder::new("fig5", TensorShape::new(1, 8, 8, 8));
        let x = b.input(0);
        let a = b.conv2d("a", x, conv());
        let _bb = b.conv2d("b", a, conv());
        let _c = b.conv2d("c", x, conv());
        let g = b.build(vec![]);
        let stats = block_statistics(&g, PruningLimits::unpruned());
        // Enumerate by hand: stage partitions of {a,b,c} respecting a→b.
        // 1 stage: {a,b,c}
        // 2 stages: {a}{b,c}, {a,b}{c}, {a,c}{b}, {c}{a,b}, {b? no}…
        //   valid: ({a},{b,c}), ({a,b},{c}), ({a,c},{b}), ({c},{a,b}) = 4
        // 3 stages: orderings of singleton stages with a before b:
        //   abc, acb, cab = 3
        // total = 8.
        assert_eq!(stats.num_schedules, 8.0);
        assert_eq!(stats.transitions, 12);
        assert_eq!(stats.width, 2);
    }

    #[test]
    fn pruning_reduces_transitions_and_schedules() {
        let mut b = GraphBuilder::new("wide", TensorShape::new(1, 8, 8, 8));
        let x = b.input(0);
        let outs: Vec<_> = (0..5)
            .map(|i| b.conv2d(format!("c{i}"), x, conv()))
            .collect();
        let g = b.build(outs);
        let unpruned = block_statistics(&g, PruningLimits::unpruned());
        // Five independent operators: at most two (singleton) groups per stage.
        let pruned = block_statistics(&g, PruningLimits::new(1, 2));
        assert!(pruned.transitions < unpruned.transitions);
        assert!(pruned.num_schedules < unpruned.num_schedules);
        assert_eq!(pruned.n, unpruned.n);
    }

    #[test]
    fn bound_is_tight_for_chain_families() {
        // Figure 13: d chains of c operators reach the bound exactly.
        let net = ios_models::worst_case_chains(3, 3, 1);
        let g = &net.blocks[0].graph;
        let stats = block_statistics(g, PruningLimits::unpruned());
        assert_eq!(stats.transition_bound, 10f64.powi(3));
        // The bound counts (S, S′) pairs including empty endings; the search
        // only explores non-empty endings, so the real count is the bound
        // minus one per state: 10³ − 4³ = 936.
        assert_eq!(stats.transitions, 936);
        assert!((stats.transitions as f64) <= stats.transition_bound);
        assert!((stats.transitions as f64) > 0.9 * stats.transition_bound);
    }
}
