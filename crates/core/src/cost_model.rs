//! Cost models: how the scheduler measures candidate stages.
//!
//! The paper's `GenerateStage` measures each candidate stage directly on the
//! target device. [`CostModel`] abstracts that measurement so the dynamic
//! program can run against the `ios-sim` simulator ([`SimCostModel`]) or
//! any synthetic model used in tests.
//!
//! A search asks for thousands of stage latencies on one graph, so whatever
//! a model can work out from the graph alone — the kernel each operator
//! lowers to — is computed once per graph: [`CostModel::bind`] returns a
//! [`GraphCostModel`], the model's view of that graph, and the scheduler,
//! the baselines and the re-evaluation of a schedule all measure through
//! one view per block. No model caches stages: the dynamic program
//! generates each ending's stage once per search (its stage memo, as in
//! the paper's Algorithm 1), so one search never asks for a stage twice.

use crate::merge::MergedConv;
use ios_ir::{Graph, OpId};
use ios_sim::{KernelSpec, Simulator};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A source of stage latencies for the scheduler.
pub trait CostModel {
    /// Number of latency measurements performed so far. The paper's
    /// "optimization cost" is dominated by on-device profiling, so the
    /// measurement count is the hardware-independent proxy reported by the
    /// Figure 9 and Figure 12 reproductions.
    fn measurement_count(&self) -> u64;

    /// This model's view of one graph — the one way to ask it for a
    /// latency. Whatever the model can work out from the graph alone is
    /// done here, once; callers bind once per graph and measure every stage
    /// through the view.
    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a>;
}

/// A [`CostModel`] bound to one graph by [`CostModel::bind`].
pub trait GraphCostModel {
    /// Latency (µs) of executing `groups` with the "concurrent execution"
    /// strategy: groups run concurrently, operators inside a group run
    /// sequentially in the given order.
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64;

    /// Latency (µs) of executing a merged convolution (plus its split).
    fn merge_latency(&self, merged: &MergedConv) -> f64;
}

// Cost models take `&self` everywhere, so a reference to one is a cost
// model too, `&dyn CostModel` included.
impl<C: CostModel + ?Sized> CostModel for &C {
    fn measurement_count(&self) -> u64 {
        (**self).measurement_count()
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        (**self).bind(graph)
    }
}

/// Cost model backed by the analytical GPU simulator.
#[derive(Debug)]
pub struct SimCostModel {
    simulator: Simulator,
    measurements: AtomicU64,
}

impl SimCostModel {
    /// Wraps a simulator.
    #[must_use]
    pub fn new(simulator: Simulator) -> Self {
        SimCostModel {
            simulator,
            measurements: AtomicU64::new(0),
        }
    }

    /// The underlying simulator.
    #[must_use]
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }
}

impl CostModel for SimCostModel {
    fn measurement_count(&self) -> u64 {
        self.measurements.load(Ordering::Relaxed)
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        Box::new(SimGraphCost {
            model: self,
            graph,
            kernels: vec![OnceCell::new(); graph.len()],
        })
    }
}

/// [`SimCostModel`] on one graph: each operator is lowered to its kernel
/// the first time a stage contains it, and every stage after that borrows
/// the kernel.
struct SimGraphCost<'a> {
    model: &'a SimCostModel,
    graph: &'a Graph,
    kernels: Vec<OnceCell<KernelSpec>>,
}

impl SimGraphCost<'_> {
    fn kernel(&self, op: OpId) -> &KernelSpec {
        self.kernels[op.index()].get_or_init(|| self.model.simulator.kernel(self.graph, op))
    }
}

impl GraphCostModel for SimGraphCost<'_> {
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
        self.model.measurements.fetch_add(1, Ordering::Relaxed);
        let streams = groups
            .iter()
            .map(|group| group.iter().map(|op| self.kernel(*op)));
        self.model.simulator.latency_us(streams)
    }

    fn merge_latency(&self, merged: &MergedConv) -> f64 {
        self.model.measurements.fetch_add(1, Ordering::Relaxed);
        // The merged convolution kernel (fully described by `merged`)…
        let conv = ios_sim::conv2d_kernel(
            String::new(),
            merged.input_shape,
            merged.params,
            self.model.simulator.library(),
        );
        // …followed by the split (modeled as an element-wise copy kernel).
        let split_elems = (merged.split_bytes() / 8) as usize; // read+write → elements
        let split = KernelSpec {
            name: String::new(),
            flops: 0,
            mem_bytes: merged.split_bytes(),
            working_set_bytes: merged.split_bytes(),
            thread_blocks: (split_elems / 256).max(1),
            compute_efficiency: 1.0,
            memory_efficiency: 0.85,
        };
        self.model.simulator.latency_us([[conv, split].iter()])
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! A synthetic cost model with simple, fully predictable behaviour used
    //! by the scheduler unit tests: each operator costs `base_us`, a stage
    //! costs the maximum over its groups of the sum of their operator costs
    //! plus `stage_overhead_us`, and merged stages cost the sum of operator
    //! costs times `merge_factor`.

    use super::*;

    #[derive(Debug)]
    pub struct UnitCostModel {
        pub base_us: f64,
        pub stage_overhead_us: f64,
        pub merge_factor: f64,
        pub measurements: AtomicU64,
    }

    impl Default for UnitCostModel {
        fn default() -> Self {
            UnitCostModel {
                base_us: 10.0,
                stage_overhead_us: 1.0,
                merge_factor: 0.8,
                measurements: AtomicU64::new(0),
            }
        }
    }

    impl CostModel for UnitCostModel {
        fn measurement_count(&self) -> u64 {
            self.measurements.load(Ordering::Relaxed)
        }

        fn bind<'a>(&'a self, _graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
            Box::new(self)
        }
    }

    impl GraphCostModel for &UnitCostModel {
        fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
            self.measurements.fetch_add(1, Ordering::Relaxed);
            let max_group = groups
                .iter()
                .map(|g| g.len() as f64 * self.base_us)
                .fold(0.0, f64::max);
            max_group + self.stage_overhead_us
        }

        fn merge_latency(&self, merged: &MergedConv) -> f64 {
            self.measurements.fetch_add(1, Ordering::Relaxed);
            merged.parts.len() as f64 * self.base_us * self.merge_factor + self.stage_overhead_us
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_ir::{Conv2dParams, GraphBuilder, TensorShape};
    use ios_sim::DeviceKind;

    fn two_branch_graph_at(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("two_branch", TensorShape::new(batch, 128, 16, 16));
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)));
        let cat = b.concat("cat", &[a, c]);
        b.build(vec![cat])
    }

    fn two_branch_graph() -> Graph {
        two_branch_graph_at(1)
    }

    #[test]
    fn sim_cost_model_measures_and_counts() {
        let g = two_branch_graph();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let seq = cost.bind(&g).concurrent_latency(&[vec![OpId(0), OpId(1)]]);
        let conc = cost
            .bind(&g)
            .concurrent_latency(&[vec![OpId(0)], vec![OpId(1)]]);
        assert!(conc < seq);
        assert_eq!(cost.measurement_count(), 2);
    }

    #[test]
    fn merge_latency_beats_sequential_for_shared_input_convs() {
        let g = two_branch_graph();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let merged = crate::merge::try_merge(&g, [OpId(0), OpId(1)].into_iter().collect()).unwrap();
        let merge = cost.bind(&g).merge_latency(&merged);
        let seq = cost.bind(&g).concurrent_latency(&[vec![OpId(0), OpId(1)]]);
        assert!(merge < seq, "merge {merge} vs sequential {seq}");
    }

    #[test]
    fn caching_never_mixes_graphs_or_batch_sizes() {
        // Operator ids repeat across blocks and across batch-resized
        // instances of one block: each graph is its own measurement.
        let g1 = two_branch_graph_at(1);
        let g8 = two_branch_graph_at(8);
        let mut other_name = GraphBuilder::new("other_block", TensorShape::new(1, 128, 16, 16));
        let x = other_name.input(0);
        let a = other_name.conv2d("a", x, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
        let c = other_name.conv2d("c", x, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
        let cat = other_name.concat("cat", &[a, c]);
        let other = other_name.build(vec![cat]);

        // Same name, same shapes, same op count — only the kernel size of
        // one conv differs.
        let mut same_shape = GraphBuilder::new("two_branch", TensorShape::new(1, 128, 16, 16));
        let x = same_shape.input(0);
        let a = same_shape.conv2d("a", x, Conv2dParams::relu(128, (1, 1), (1, 1), (0, 0)));
        let c = same_shape.conv2d("c", x, Conv2dParams::relu(128, (1, 1), (1, 1), (0, 0)));
        let cat = same_shape.concat("cat", &[a, c]);
        let params_only = same_shape.build(vec![cat]);

        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let groups = vec![vec![OpId(0)], vec![OpId(1)]];
        let l1 = cost.bind(&g1).concurrent_latency(&groups);
        let l8 = cost.bind(&g8).concurrent_latency(&groups);
        let lo = cost.bind(&other).concurrent_latency(&groups);
        let lp = cost.bind(&params_only).concurrent_latency(&groups);
        assert_eq!(cost.measurement_count(), 4);
        assert!(
            lp < l1,
            "the 1×1-kernel variant must be cheaper than its 3×3 twin ({lp} vs {l1})"
        );
        assert!(
            l8 > l1,
            "batch 8 must cost more than batch 1 ({l8} vs {l1})"
        );
        assert!(
            lo < l1,
            "the 1×1/16-channel block must be cheaper ({lo} vs {l1})"
        );
    }

    #[test]
    fn cost_models_are_thread_safe_and_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimCostModel>();

        // `&C` is a cost model itself (blanket impl), `&dyn CostModel` too.
        fn takes_cost_model<C: CostModel>(c: C) -> u64 {
            c.measurement_count()
        }
        let g = two_branch_graph();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let _ = cost
            .bind(&g)
            .concurrent_latency(&[vec![OpId(0)], vec![OpId(1)]]);
        assert_eq!(takes_cost_model(&cost), 1);
        assert_eq!(takes_cost_model(&cost as &dyn CostModel), 1);
    }
}
