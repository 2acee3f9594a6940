//! The stage-latency measurer used by the scheduler.
//!
//! The paper's `GenerateStage` directly measures the latency of a candidate
//! stage on the hardware; [`Simulator`] plays that role here. It lowers
//! graph operators to kernels for a given library and runs the
//! multi-stream stage simulation on a given device. Measurements are
//! deterministic: the same stage always measures the same latency.

use crate::device::{DeviceKind, DeviceSpec, ExecutionOverheads};
use crate::kernel::{kernel_for_op, KernelLibrary, KernelSpec};
use crate::stream::{simulate_stage, stage_latency_us, KernelEvent};
use ios_ir::{Graph, OpId};
use serde::{Deserialize, Serialize};

/// Result of measuring one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMeasurement {
    /// Measured latency in µs.
    pub latency_us: f64,
    /// Kernel-level timeline of the (last) simulated run.
    pub events: Vec<KernelEvent>,
    /// Total floating point work of the stage.
    pub total_flops: u64,
}

impl StageMeasurement {
    /// Utilization of the stage relative to the device peak.
    #[must_use]
    pub fn utilization(&self, device: &DeviceSpec) -> f64 {
        crate::cost::utilization(self.total_flops, self.latency_us, device)
    }
}

/// The simulated execution engine: lowers operators to kernels and measures
/// stage latencies on a simulated device.
#[derive(Debug)]
pub struct Simulator {
    device: DeviceSpec,
    library: KernelLibrary,
    overheads: ExecutionOverheads,
}

impl Simulator {
    /// Creates a simulator for a device preset with the IOS execution-engine
    /// overheads and the cuDNN kernel library — the paper's configuration.
    #[must_use]
    pub fn new(device: DeviceKind) -> Self {
        Simulator::with_settings(
            device.spec(),
            KernelLibrary::CuDnn,
            ExecutionOverheads::ios_engine(),
        )
    }

    /// Creates a fully customized simulator.
    #[must_use]
    pub fn with_settings(
        device: DeviceSpec,
        library: KernelLibrary,
        overheads: ExecutionOverheads,
    ) -> Self {
        Simulator {
            device,
            library,
            overheads,
        }
    }

    /// The device being simulated.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The kernel library operators are lowered with.
    #[must_use]
    pub fn library(&self) -> KernelLibrary {
        self.library
    }

    /// The host-side overheads in effect.
    #[must_use]
    pub fn overheads(&self) -> ExecutionOverheads {
        self.overheads
    }

    /// Lowers one operator to its kernel.
    #[must_use]
    pub fn kernel(&self, graph: &Graph, op: OpId) -> KernelSpec {
        kernel_for_op(graph, op, self.library)
    }

    /// Measures a stage given explicit kernel groups.
    #[must_use]
    pub fn measure_kernel_stage(&self, groups: &[Vec<KernelSpec>]) -> StageMeasurement {
        let sim = simulate_stage(groups, &self.device, self.overheads);
        StageMeasurement {
            latency_us: sim.latency_us,
            events: sim.events,
            total_flops: sim.total_flops,
        }
    }

    /// The `latency_us` of [`Simulator::measure_kernel_stage`] without its
    /// timeline: the same simulation loop, so the two agree bit for bit. Each stream is an iterator over kernels the
    /// caller lowered beforehand (see [`Simulator::kernel`]) — this is the
    /// form a search uses, which measures thousands of stages over the same
    /// few operators.
    #[must_use]
    pub fn latency_us<'a, I>(&self, groups: impl IntoIterator<Item = I>) -> f64
    where
        I: ExactSizeIterator<Item = &'a KernelSpec>,
    {
        stage_latency_us(groups, &self.device, self.overheads)
    }

    /// Measures a stage of graph operators executed with "concurrent
    /// execution": each inner slice is one group (executed sequentially in
    /// the given order), groups run concurrently.
    #[must_use]
    pub fn measure_stage(&self, graph: &Graph, groups: &[Vec<OpId>]) -> StageMeasurement {
        let kernel_groups: Vec<Vec<KernelSpec>> = groups
            .iter()
            .map(|g| g.iter().map(|op| self.kernel(graph, *op)).collect())
            .collect();
        self.measure_kernel_stage(&kernel_groups)
    }

    /// Measures the purely sequential execution of a list of operators (one
    /// group, one stream).
    #[must_use]
    pub fn measure_sequential(&self, graph: &Graph, ops: &[OpId]) -> StageMeasurement {
        self.measure_stage(graph, &[ops.to_vec()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_ir::{Conv2dParams, GraphBuilder, TensorShape};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn branchy_graph(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("branchy", TensorShape::new(batch, 256, 16, 16));
        let input = b.input(0);
        let a = b.conv2d("a", input, Conv2dParams::relu(256, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", input, Conv2dParams::relu(256, (3, 3), (1, 1), (1, 1)));
        let d = b.conv2d("d", input, Conv2dParams::relu(128, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[a, c, d]);
        b.build(vec![cat])
    }

    #[test]
    fn measure_stage_concurrent_vs_sequential() {
        let g = branchy_graph(1);
        let sim = Simulator::new(DeviceKind::TeslaV100);
        let ops = [OpId(0), OpId(1), OpId(2)];
        let seq = sim.measure_sequential(&g, &ops);
        let conc = sim.measure_stage(&g, &[vec![OpId(0)], vec![OpId(1)], vec![OpId(2)]]);
        assert!(conc.latency_us < seq.latency_us);
        assert_eq!(seq.total_flops, conc.total_flops);
        assert!(conc.utilization(sim.device()) > seq.utilization(sim.device()));
        assert_eq!(seq.events.len(), 3);
    }

    #[test]
    fn deterministic_measurements_are_repeatable() {
        let g = branchy_graph(1);
        let sim = Simulator::new(DeviceKind::TeslaV100);
        let a = sim.measure_stage(&g, &[vec![OpId(0)], vec![OpId(1)]]);
        let b = sim.measure_stage(&g, &[vec![OpId(0)], vec![OpId(1)]]);
        assert_eq!(a.latency_us, b.latency_us);
    }

    /// Random stages over real blocks: every group is a random run of the
    /// block's operators in id order (valid or not as a schedule stage —
    /// the simulator only sees streams of kernels).
    fn random_stages(graph: &Graph, rng: &mut StdRng, count: usize) -> Vec<Vec<Vec<OpId>>> {
        (0..count)
            .map(|_| {
                let mut groups = vec![Vec::new(); rng.gen_range(1..7)];
                for op in 0..graph.len() {
                    if rng.gen_bool(0.4) {
                        let group = rng.gen_range(0..groups.len());
                        groups[group].push(OpId(op));
                    }
                }
                groups
            })
            .collect()
    }

    #[test]
    fn latency_only_pass_is_bit_identical_to_the_full_measurement() {
        let mut rng = StdRng::seed_from_u64(14);
        for batch in [1, 32] {
            let network = ios_models::inception_v3(batch);
            for block in network.blocks.iter().step_by(3) {
                let graph = &block.graph;
                let stages = random_stages(graph, &mut rng, 12);
                for device in [
                    DeviceKind::TeslaV100,
                    DeviceKind::TeslaK80,
                    DeviceKind::A100,
                ] {
                    for library in [KernelLibrary::CuDnn, KernelLibrary::TensorRt] {
                        let sim = Simulator::with_settings(
                            device.spec(),
                            library,
                            ExecutionOverheads::ios_engine(),
                        );
                        let kernels: Vec<KernelSpec> = (0..graph.len())
                            .map(|op| sim.kernel(graph, OpId(op)))
                            .collect();
                        for groups in &stages {
                            let expected = sim.measure_stage(graph, groups).latency_us;
                            let got = sim.latency_us(
                                groups
                                    .iter()
                                    .map(|g| g.iter().map(|op| &kernels[op.index()])),
                            );
                            assert_eq!(
                                got.to_bits(),
                                expected.to_bits(),
                                "{} {device:?} {library:?} {groups:?}",
                                graph.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn library_changes_latency() {
        let g = branchy_graph(1);
        let cudnn = Simulator::new(DeviceKind::TeslaV100);
        let trt = Simulator::with_settings(
            DeviceKind::TeslaV100.spec(),
            KernelLibrary::TensorRt,
            ExecutionOverheads::ios_engine(),
        );
        let ops = [OpId(0), OpId(1), OpId(2), OpId(3)];
        let a = cudnn.measure_sequential(&g, &ops).latency_us;
        let b = trt.measure_sequential(&g, &ops).latency_us;
        assert!(
            b < a,
            "TensorRT kernels should be faster than stock cuDNN ({b} vs {a})"
        );
        assert_eq!(trt.library(), KernelLibrary::TensorRt);
    }

    #[test]
    fn batch_size_scales_latency_sublinearly_then_linearly() {
        // Going from batch 1 to batch 32 must cost less than 32× (the device
        // is underutilized at batch 1), and clearly more than 4×.
        let sim = Simulator::new(DeviceKind::TeslaV100);
        let g1 = branchy_graph(1);
        let g32 = branchy_graph(32);
        let ops = [OpId(0), OpId(1), OpId(2), OpId(3)];
        let l1 = sim.measure_sequential(&g1, &ops).latency_us;
        let l32 = sim.measure_sequential(&g32, &ops).latency_us;
        let ratio = l32 / l1;
        assert!(ratio < 32.0, "ratio {ratio}");
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn empty_stage_measures_zero() {
        let g = branchy_graph(1);
        let sim = Simulator::new(DeviceKind::TeslaV100);
        let m = sim.measure_stage(&g, &[]);
        assert_eq!(m.latency_us, 0.0);
        assert_eq!(m.total_flops, 0);
    }
}
