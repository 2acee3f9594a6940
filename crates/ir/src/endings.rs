//! Enumeration of *endings*.
//!
//! Given the remaining operator set `S` of a graph `G`, an ending `S′ ⊆ S`
//! is a subset such that every edge between `S − S′` and `S′` starts in
//! `S − S′` and ends in `S′` (Section 4.1, Figure 4 of the paper).
//! Equivalently, `S′` is closed under successors *within `S`*: if `u ∈ S′`
//! and `(u, v) ∈ E` with `v ∈ S`, then `v ∈ S′`.
//!
//! The IOS dynamic program enumerates the endings of every reachable state,
//! optionally restricted by the pruning strategy `P(r, s)` which bounds the
//! number of operators per group (`r`) and the number of groups per stage
//! (`s`).

use crate::graph::{kahn_order, Graph};
use crate::op::OpId;
use crate::opset::OpSet;

/// The pruning strategy `P(r, s)` of Section 4.3.
///
/// An ending is admitted only if, when partitioned into groups (connected
/// components within the stage), it has at most `max_groups` groups and each
/// group has at most `max_group_size` operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PruningLimits {
    /// Maximum number of operators per group (`r` in the paper).
    pub max_group_size: usize,
    /// Maximum number of groups per stage (`s` in the paper).
    pub max_groups: usize,
}

impl PruningLimits {
    /// The default pruning strategy used throughout the paper's evaluation:
    /// `r = 3`, `s = 8`.
    #[must_use]
    pub fn paper_default() -> Self {
        PruningLimits {
            max_group_size: 3,
            max_groups: 8,
        }
    }

    /// No pruning: every ending is admitted (used for the Table 1 counts).
    #[must_use]
    pub fn unpruned() -> Self {
        PruningLimits {
            max_group_size: usize::MAX,
            max_groups: usize::MAX,
        }
    }

    /// Creates a pruning strategy with explicit `r` and `s`.
    #[must_use]
    pub fn new(max_group_size: usize, max_groups: usize) -> Self {
        PruningLimits {
            max_group_size,
            max_groups,
        }
    }

    /// Upper bound on the number of operators an admissible ending may have.
    #[must_use]
    pub fn max_stage_ops(&self) -> usize {
        self.max_group_size.saturating_mul(self.max_groups)
    }

    /// Checks whether a candidate stage satisfies `P`: groups are the
    /// connected components of `stage` inside `graph`.
    ///
    /// This is the definition of `P`, and the oracle the tests hold
    /// [`EndingEnumerator::for_each_ending`] to; the enumeration itself
    /// tracks group sizes as it goes and never calls it.
    #[must_use]
    pub fn admits(&self, graph: &Graph, stage: OpSet) -> bool {
        if stage.len() > self.max_stage_ops() {
            return false;
        }
        let mut groups = 0;
        EndingEnumerator::new(graph).groups(stage).all(|group| {
            groups += 1;
            groups <= self.max_groups && group.len() <= self.max_group_size
        })
    }
}

impl Default for PruningLimits {
    fn default() -> Self {
        PruningLimits::paper_default()
    }
}

/// The per-graph index of the scheduler: adjacency as bitsets and the
/// topological order, computed once, and on top of them ending enumeration,
/// stage grouping and group ordering that allocate nothing per call.
///
/// Construct once per graph and reuse across all dynamic-programming states.
#[derive(Debug, Clone)]
pub struct EndingEnumerator {
    /// Direct predecessors per operator.
    preds: Vec<OpSet>,
    /// Direct successors per operator.
    succs: Vec<OpSet>,
    /// Undirected neighbours per operator: `preds ∪ succs`.
    neighbors: Vec<OpSet>,
    /// Topological order of the whole graph ([`Graph::topological_order`]).
    topo: Vec<OpId>,
    /// Position of each operator in `topo`.
    rank: Vec<usize>,
}

impl EndingEnumerator {
    /// Builds the index for a graph.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        let preds = graph.predecessor_sets();
        let succs = graph.successor_sets();
        let neighbors = preds.iter().zip(&succs).map(|(p, s)| p.union(*s)).collect();
        let topo = kahn_order(&preds, &succs);
        let mut rank = vec![0; preds.len()];
        for (position, op) in topo.iter().enumerate() {
            rank[op.index()] = position;
        }
        EndingEnumerator {
            preds,
            succs,
            neighbors,
            topo,
            rank,
        }
    }

    /// Direct predecessors of `op`.
    #[must_use]
    pub fn predecessors(&self, op: OpId) -> OpSet {
        self.preds[op.index()]
    }

    /// The connected component of `seed` in the undirected dependency graph
    /// restricted to `within` (which must contain `seed`).
    fn component(&self, seed: OpId, within: OpSet) -> OpSet {
        let mut component = OpSet::singleton(seed);
        let mut frontier = component;
        while !frontier.is_empty() {
            let reached = frontier.iter().fold(OpSet::empty(), |acc, op| {
                acc.union(self.neighbors[op.index()])
            });
            frontier = reached.intersection(within).difference(component);
            component = component.union(frontier);
        }
        component
    }

    /// The groups of a stage: connected components of the undirected
    /// dependency graph restricted to `set`, in order of their smallest
    /// operator id (see [`Graph::groups_of`]).
    pub fn groups(&self, set: OpSet) -> impl Iterator<Item = OpSet> + '_ {
        let mut remaining = set;
        std::iter::from_fn(move || {
            let group = self.component(remaining.first()?, set);
            remaining = remaining.difference(group);
            Some(group)
        })
    }

    /// The operators of `group` in topological order — the order a group's
    /// operators execute in (see [`Graph::sequential_order_of`]).
    pub fn order(&self, group: OpSet) -> impl Iterator<Item = OpId> + '_ {
        self.ranks_of(group)
            .iter()
            .map(|rank| self.topo[rank.index()])
    }

    /// A stage written the way a schedule stores it: its
    /// [groups](Self::groups), each in [execution order](Self::order).
    #[must_use]
    pub fn ordered_groups(&self, stage: OpSet) -> Vec<Vec<OpId>> {
        self.groups(stage)
            .map(|group| self.order(group).collect())
            .collect()
    }

    /// `set` mapped to topological positions: bit `i` stands for `topo[i]`,
    /// so walking the bits walks the operators in topological order.
    fn ranks_of(&self, set: OpSet) -> OpSet {
        set.iter().map(|op| OpId(self.rank[op.index()])).collect()
    }

    /// Calls `visit` with every non-empty ending of `state` that `limits`
    /// admits, each exactly once.
    ///
    /// The enumeration processes operators in reverse topological order and
    /// decides include/exclude for each; an operator may be included only if
    /// all of its successors inside `state` have already been included, which
    /// yields each successor-closed subset exactly once. Groups are tracked
    /// on the way down: the operators already included that touch a new one
    /// are exactly its successors, so including it merges their groups into
    /// one. Groups only ever merge and grow, hence a group over `r` cuts the
    /// whole subtree, while the group count can still fall and is checked
    /// when the ending is complete.
    pub fn for_each_ending(&self, state: OpSet, limits: PruningLimits, visit: impl FnMut(OpSet)) {
        Walk {
            index: self,
            state,
            limits,
            max_ops: limits.max_stage_ops(),
            // Limits no ending of `state` can exceed need no bookkeeping.
            track_groups: limits.max_group_size < state.len() || limits.max_groups < state.len(),
            visit,
        }
        .recurse(self.ranks_of(state), OpSet::empty(), 0);
    }

    /// Collects [`EndingEnumerator::for_each_ending`] into a vector.
    #[must_use]
    pub fn endings(&self, state: OpSet, limits: PruningLimits) -> Vec<OpSet> {
        let mut out = Vec::new();
        self.for_each_ending(state, limits, |ending| out.push(ending));
        out
    }

    /// Verifies that `candidate` is a valid ending of `state`.
    #[must_use]
    pub fn is_ending(&self, state: OpSet, candidate: OpSet) -> bool {
        if candidate.is_empty() || !candidate.is_subset(state) {
            return false;
        }
        candidate.iter().all(|op| {
            self.succs[op.index()]
                .intersection(state)
                .is_subset(candidate)
        })
    }
}

/// One run of [`EndingEnumerator::for_each_ending`]: what stays fixed while
/// the recursion descends.
struct Walk<'a, F> {
    index: &'a EndingEnumerator,
    state: OpSet,
    limits: PruningLimits,
    max_ops: usize,
    track_groups: bool,
    visit: F,
}

impl<F: FnMut(OpSet)> Walk<'_, F> {
    /// `pending` holds the undecided operators of the state as topological
    /// positions, `current` the operators included so far, `groups` the
    /// number of groups `current` forms (untracked, the number of operators
    /// in it, which no limit in force is below).
    fn recurse(&mut self, mut pending: OpSet, current: OpSet, groups: usize) {
        let Some(position) = pending.last() else {
            if !current.is_empty() && groups <= self.limits.max_groups {
                (self.visit)(current);
            }
            return;
        };
        pending.remove(position);
        let op = self.index.topo[position.index()];
        // Branch 1: exclude `op`.
        self.recurse(pending, current, groups);
        // Branch 2: include `op`, allowed only if every successor of `op`
        // inside `state` is already included and the size bounds hold.
        if current.len() >= self.max_ops {
            return;
        }
        let succs = self.index.succs[op.index()].intersection(self.state);
        if !succs.is_subset(current) {
            return;
        }
        let mut groups = groups + 1;
        if self.track_groups {
            let mut group_size = 1;
            let mut unmerged = succs;
            while let Some(seed) = unmerged.first() {
                let merged = self.index.component(seed, current);
                unmerged = unmerged.difference(merged);
                group_size += merged.len();
                groups -= 1;
            }
            if group_size > self.limits.max_group_size {
                return;
            }
        }
        let mut with_op = current;
        with_op.insert(op);
        self.recurse(pending, with_op, groups);
    }
}

/// Convenience wrapper: enumerates the endings of `state` in `graph` that
/// satisfy the pruning strategy `limits`.
///
/// Builds an [`EndingEnumerator`] for this one call; hold one when
/// enumerating the endings of many states of the same graph.
#[must_use]
pub fn endings_of(graph: &Graph, state: OpSet, limits: PruningLimits) -> Vec<OpSet> {
    EndingEnumerator::new(graph).endings(state, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::op::Conv2dParams;
    use crate::tensor::TensorShape;
    use proptest::prelude::*;

    /// Figure 5 graph: a → b, c independent.
    fn fig5() -> Graph {
        let mut b = GraphBuilder::new("fig5", TensorShape::new(1, 16, 8, 8));
        let input = b.input(0);
        let a = b.conv2d("a", input, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
        let bb = b.conv2d("b", a, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", input, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
        b.build(vec![bb, c])
    }

    /// A diamond: a → {b, c} → d.
    fn diamond() -> Graph {
        let mut g = GraphBuilder::new("diamond", TensorShape::new(1, 16, 8, 8));
        let input = g.input(0);
        let a = g.conv2d("a", input, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
        let b = g.conv2d("b", a, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
        let c = g.conv2d("c", a, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
        let d = g.concat("d", &[b, c]);
        g.build(vec![d])
    }

    #[test]
    fn figure5_endings_of_full_state() {
        let g = fig5();
        let e = EndingEnumerator::new(&g);
        let endings = e.endings(g.all_ops(), PruningLimits::unpruned());
        // Figure 5 (2) enumerates the endings of {a,b,c}: {b}, {c}, {b,c},
        // {a,b}, {a,b,c}, {a,c}... wait — {a,c} is not shown; check:
        // an ending containing a must contain its successor b.
        // Valid endings: {b}, {c}, {b,c}, {a,b}, {a,b,c} → 5.
        assert_eq!(endings.len(), 5);
        for s in &endings {
            assert!(e.is_ending(g.all_ops(), *s));
        }
    }

    #[test]
    fn endings_respect_successor_closure() {
        let g = diamond();
        let e = EndingEnumerator::new(&g);
        let all = g.all_ops();
        let endings = e.endings(all, PruningLimits::unpruned());
        // `a` may only appear in the full set; `d` alone is an ending.
        for s in &endings {
            if s.contains(OpId(0)) {
                assert_eq!(
                    s.len(),
                    4,
                    "ending containing the source must be the full set: {s:?}"
                );
            }
        }
        assert!(endings.contains(&OpSet::singleton(OpId(3))));
        // d, {b,d}, {c,d}, {b,c,d}, {a,b,c,d} = 5 endings.
        assert_eq!(endings.len(), 5);
    }

    #[test]
    fn endings_of_substate() {
        let g = fig5();
        let e = EndingEnumerator::new(&g);
        // State {a, c} (b already scheduled — not reachable in the real DP,
        // but enumeration must still be correct for arbitrary states).
        let state: OpSet = [OpId(0), OpId(2)].into_iter().collect();
        let endings = e.endings(state, PruningLimits::unpruned());
        // a and c are unrelated inside the state → {a}, {c}, {a,c}.
        assert_eq!(endings.len(), 3);
    }

    #[test]
    fn max_ops_bound_respected() {
        let g = diamond();
        let e = EndingEnumerator::new(&g);
        let endings = e.endings(g.all_ops(), PruningLimits::new(1, 1));
        assert!(endings.iter().all(|s| s.len() == 1));
        assert_eq!(endings.len(), 1); // only {d}
    }

    #[test]
    fn pruning_limits_admit() {
        let g = fig5();
        let limits = PruningLimits::new(1, 2);
        // {a, b} has a group of size 2 → rejected by r=1.
        let ab: OpSet = [OpId(0), OpId(1)].into_iter().collect();
        assert!(!limits.admits(&g, ab));
        // {b, c} are two singleton groups → admitted.
        let bc: OpSet = [OpId(1), OpId(2)].into_iter().collect();
        assert!(limits.admits(&g, bc));
        assert_eq!(PruningLimits::paper_default().max_group_size, 3);
        assert_eq!(PruningLimits::paper_default().max_groups, 8);
    }

    #[test]
    fn endings_of_helper_applies_pruning() {
        let g = fig5();
        let pruned = endings_of(&g, g.all_ops(), PruningLimits::new(1, 8));
        // Endings with the a-b pair grouped together are removed.
        assert!(pruned
            .iter()
            .all(|s| g.groups_of(*s).iter().all(|grp| grp.len() <= 1)));
        let unpruned = endings_of(&g, g.all_ops(), PruningLimits::unpruned());
        assert_eq!(unpruned.len(), 5);
    }

    #[test]
    fn is_ending_rejects_non_subsets_and_empty() {
        let g = fig5();
        let e = EndingEnumerator::new(&g);
        let state: OpSet = [OpId(1), OpId(2)].into_iter().collect();
        assert!(!e.is_ending(state, OpSet::empty()));
        assert!(!e.is_ending(state, OpSet::singleton(OpId(0))));
    }

    /// Builds a random layered DAG for property testing.
    fn random_layered_graph(layer_sizes: &[usize], edge_bits: u64) -> Graph {
        let mut b = GraphBuilder::new("rand", TensorShape::new(1, 8, 8, 8));
        let input = b.input(0);
        let mut prev: Vec<crate::graph::Value> = vec![input];
        let mut bit = 0;
        for (li, &n) in layer_sizes.iter().enumerate() {
            let mut layer = Vec::new();
            for i in 0..n {
                // Each node takes one or two predecessors from the previous layer.
                let p0 = prev[(edge_bits >> (bit % 60)) as usize % prev.len()];
                bit += 3;
                let v = b.conv2d(
                    format!("l{li}_{i}"),
                    p0,
                    Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)),
                );
                layer.push(v);
            }
            prev = layer;
        }
        b.build(prev)
    }

    /// A random DAG of up to twelve operators: every operator reads one or
    /// two earlier operators of any layer (or the graph input), so stages
    /// have groups that merge through shared successors and skip edges.
    fn random_dag(layer_sizes: &[usize], mut bits: u64) -> Graph {
        let mut b = GraphBuilder::new("dag", TensorShape::new(1, 8, 8, 8));
        let input = b.input(0);
        let mut earlier: Vec<crate::graph::Value> = Vec::new();
        let mut next = |n: usize| {
            bits = bits
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (bits >> 33) as usize % n
        };
        for (li, &n) in layer_sizes.iter().enumerate() {
            let mut layer = Vec::new();
            for i in 0..n {
                let name = format!("l{li}_{i}");
                let conv = Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0));
                let v = if earlier.is_empty() {
                    b.conv2d(name, input, conv)
                } else if next(2) == 0 {
                    b.conv2d(name, earlier[next(earlier.len())], conv)
                } else {
                    let (p, q) = (earlier[next(earlier.len())], earlier[next(earlier.len())]);
                    b.add_op(name, &[p, q])
                };
                layer.push(v);
            }
            earlier.extend(layer);
        }
        let outputs = earlier.clone();
        b.build(outputs)
    }

    /// `Graph::groups_of` as it was before the index: a flood fill per
    /// component over freshly built adjacency, sorted by smallest member.
    fn flood_fill_groups(graph: &Graph, set: OpSet) -> Vec<OpSet> {
        let preds = graph.predecessor_sets();
        let succs = graph.successor_sets();
        let mut remaining = set;
        let mut groups = Vec::new();
        while let Some(seed) = remaining.first() {
            let mut group = OpSet::empty();
            let mut stack = vec![seed];
            while let Some(cur) = stack.pop() {
                if !group.contains(cur) {
                    group.insert(cur);
                    let neighbors = preds[cur.index()].union(succs[cur.index()]);
                    stack.extend(neighbors.intersection(set).iter());
                }
            }
            remaining = remaining.difference(group);
            groups.push(group);
        }
        groups.sort_by_key(|g| g.first().map_or(usize::MAX, OpId::index));
        groups
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The pruned enumeration yields exactly the endings `P(r, s)`
        /// admits — `{S′ ⊆ S : is_ending(S, S′) ∧ admits(S′)}` by brute
        /// force over every subset — each once, for arbitrary states.
        #[test]
        fn prop_pruned_enumeration_matches_brute_force(
            bits in any::<u64>(), state_bits in any::<u16>(),
            l1 in 1usize..4, l2 in 1usize..4, l3 in 1usize..4, l4 in 1usize..4,
        ) {
            let g = random_dag(&[l1, l2, l3, l4], bits);
            let e = EndingEnumerator::new(&g);
            let member = |mask: u16, op: OpId| mask >> op.index() & 1 == 1;
            let state: OpSet = g.all_ops().iter().filter(|op| member(state_bits, *op)).collect();
            for state in [g.all_ops(), state] {
                let members: Vec<OpId> = state.iter().collect();
                let subsets: Vec<OpSet> = (1u16..1 << members.len())
                    .map(|mask| (0..members.len()).filter(|i| mask >> i & 1 == 1).map(|i| members[i]).collect())
                    .collect();
                for limits in [
                    PruningLimits::new(1, 1),
                    PruningLimits::new(1, 8),
                    PruningLimits::new(2, 3),
                    PruningLimits::new(3, 8),
                    PruningLimits::unpruned(),
                ] {
                    let mut expected: Vec<OpSet> = subsets
                        .iter()
                        .copied()
                        .filter(|s| e.is_ending(state, *s) && limits.admits(&g, *s))
                        .collect();
                    expected.sort();
                    let mut found = e.endings(state, limits);
                    found.sort();
                    prop_assert_eq!(&found, &expected, "state {:?}, limits {:?}", state, limits);
                    prop_assert_eq!(endings_of(&g, state, limits).len(), expected.len());
                }
            }
        }

        /// The index's `groups` and `order` are the flood fill and the
        /// filtered Kahn order they replaced, element for element.
        #[test]
        fn prop_index_groups_and_order_match_the_graph_walks(
            bits in any::<u64>(), set_bits in any::<u16>(),
            l1 in 1usize..4, l2 in 1usize..4, l3 in 1usize..4, l4 in 1usize..4,
        ) {
            let g = random_dag(&[l1, l2, l3, l4], bits);
            let e = EndingEnumerator::new(&g);
            let set: OpSet = g.all_ops().iter().filter(|op| set_bits >> op.index() & 1 == 1).collect();
            for set in [g.all_ops(), set] {
                let groups: Vec<OpSet> = e.groups(set).collect();
                prop_assert_eq!(&groups, &flood_fill_groups(&g, set));
                prop_assert_eq!(&groups, &g.groups_of(set));
                let ordered: Vec<Vec<OpId>> =
                    groups.iter().map(|group| g.sequential_order_of(*group)).collect();
                prop_assert_eq!(e.ordered_groups(set), ordered);
                for group in groups.into_iter().chain([set]) {
                    let kahn: Vec<OpId> = g
                        .topological_order()
                        .into_iter()
                        .filter(|op| group.contains(*op))
                        .collect();
                    prop_assert_eq!(e.order(group).collect::<Vec<_>>(), kahn.clone());
                    prop_assert_eq!(g.sequential_order_of(group), kahn);
                }
            }
            for op in g.all_ops().iter() {
                prop_assert_eq!(e.predecessors(op).iter().collect::<Vec<_>>(), g.predecessors(op));
            }
        }

        /// Every enumerated ending satisfies the closure property.
        #[test]
        fn prop_endings_are_valid(bits in any::<u64>(),
                                  l1 in 1usize..4, l2 in 1usize..4, l3 in 1usize..3) {
            let g = random_layered_graph(&[l1, l2, l3], bits);
            let e = EndingEnumerator::new(&g);
            let all = g.all_ops();
            let endings = e.endings(all, PruningLimits::unpruned());
            for s in &endings {
                prop_assert!(e.is_ending(all, *s));
            }
            // Endings are unique.
            let mut sorted = endings.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), endings.len());
            // The full set is always an ending.
            prop_assert!(endings.contains(&all));
        }

        /// Removing an ending from a state yields a state whose complement is
        /// still an ending of the full set (Lemma 1/2 of the paper).
        #[test]
        fn prop_ending_composition(bits in any::<u64>(), l1 in 1usize..4, l2 in 1usize..4) {
            let g = random_layered_graph(&[l1, l2], bits);
            let e = EndingEnumerator::new(&g);
            let all = g.all_ops();
            for s1 in e.endings(all, PruningLimits::unpruned()) {
                let rest = all.difference(s1);
                if rest.is_empty() { continue; }
                for s2 in e.endings(rest, PruningLimits::unpruned()) {
                    // S1 ∪ S2 must also be an ending of V (Lemma 1).
                    prop_assert!(e.is_ending(all, s1.union(s2)));
                }
            }
        }
    }
}
