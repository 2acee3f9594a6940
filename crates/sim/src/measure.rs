//! The stage-latency measurer used by the scheduler.
//!
//! The paper's `GenerateStage` directly measures the latency of a candidate
//! stage on the hardware; [`Simulator`] plays that role here. It lowers
//! graph operators to kernels for a given library, runs the multi-stream
//! stage simulation on a given device, and (optionally) adds multiplicative
//! measurement noise so that robustness of the dynamic program to noisy
//! profiles can be tested.

use crate::device::{DeviceKind, DeviceSpec, ExecutionOverheads};
use crate::kernel::{kernel_for_op, KernelLibrary, KernelSpec};
use crate::stream::{simulate_stage, stage_latency_us, KernelEvent};
use ios_ir::{Graph, OpId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the measurement process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasureConfig {
    /// Standard deviation of the multiplicative Gaussian measurement noise
    /// (0.0 = deterministic measurements, the default).
    pub noise_std: f64,
    /// Seed of the noise generator.
    pub seed: u64,
    /// Number of repetitions averaged per measurement (the paper repeats
    /// each experiment 5 times); only meaningful when noise is enabled.
    pub repeats: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            noise_std: 0.0,
            seed: 0x105,
            repeats: 1,
        }
    }
}

impl MeasureConfig {
    /// Deterministic measurements (no noise).
    #[must_use]
    pub fn deterministic() -> Self {
        MeasureConfig::default()
    }

    /// Noisy measurements with the given relative standard deviation,
    /// averaged over `repeats` runs.
    #[must_use]
    pub fn noisy(noise_std: f64, seed: u64, repeats: usize) -> Self {
        MeasureConfig {
            noise_std,
            seed,
            repeats: repeats.max(1),
        }
    }
}

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
    config: MeasureConfig,
    rng: Mutex<StdRng>,
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
            MeasureConfig::deterministic(),
        )
    }

    /// Creates a fully customized simulator.
    #[must_use]
    pub fn with_settings(
        device: DeviceSpec,
        library: KernelLibrary,
        overheads: ExecutionOverheads,
        config: MeasureConfig,
    ) -> Self {
        let rng = Mutex::new(StdRng::seed_from_u64(config.seed));
        Simulator {
            device,
            library,
            overheads,
            config,
            rng,
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
            latency_us: self.measured(sim.latency_us),
            events: sim.events,
            total_flops: sim.total_flops,
        }
    }

    /// The `latency_us` of [`Simulator::measure_kernel_stage`] without its
    /// timeline: the same simulation loop and the same noise draws, so the
    /// two agree bit for bit. Each stream is an iterator over kernels the
    /// caller lowered beforehand (see [`Simulator::kernel`]) — this is the
    /// form a search uses, which measures thousands of stages over the same
    /// few operators.
    #[must_use]
    pub fn latency_us<'a, I>(&self, groups: impl IntoIterator<Item = I>) -> f64
    where
        I: ExactSizeIterator<Item = &'a KernelSpec>,
    {
        self.measured(stage_latency_us(groups, &self.device, self.overheads))
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

    /// What the configured measurement process reports for a stage whose
    /// simulated latency is `latency`: the value itself, or the mean of
    /// `repeats` noisy readings of it (the simulation is deterministic, so
    /// repeats differ only in their noise).
    fn measured(&self, latency: f64) -> f64 {
        if self.config.noise_std <= 0.0 {
            return latency;
        }
        let mut rng = self.rng.lock();
        let mut total = 0.0;
        let repeats = self.config.repeats.max(1);
        for _ in 0..repeats {
            // Box-Muller transform on two uniform samples to avoid depending
            // on rand_distr just for a Gaussian.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            total += (latency * (1.0 + self.config.noise_std * z)).max(latency * 0.2);
        }
        total / repeats as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_ir::{Conv2dParams, GraphBuilder, TensorShape};

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

    #[test]
    fn noisy_measurements_vary_but_average_close() {
        let g = branchy_graph(1);
        let clean = Simulator::new(DeviceKind::TeslaV100);
        let noisy = Simulator::with_settings(
            DeviceKind::TeslaV100.spec(),
            KernelLibrary::CuDnn,
            ExecutionOverheads::ios_engine(),
            MeasureConfig::noisy(0.05, 42, 16),
        );
        let truth = clean
            .measure_stage(&g, &[vec![OpId(0)], vec![OpId(1)]])
            .latency_us;
        let measured = noisy
            .measure_stage(&g, &[vec![OpId(0)], vec![OpId(1)]])
            .latency_us;
        assert!(measured > 0.0);
        assert!(
            (measured - truth).abs() / truth < 0.2,
            "measured {measured}, truth {truth}"
        );
        // Two consecutive noisy measurements differ.
        let m2 = noisy
            .measure_stage(&g, &[vec![OpId(0)], vec![OpId(1)]])
            .latency_us;
        assert_ne!(measured, m2);
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
                        for config in [
                            MeasureConfig::deterministic(),
                            MeasureConfig::noisy(0.05, 7, 3),
                        ] {
                            // Two simulators with equal seeds: equal results
                            // throughout mean both passes drew the same
                            // number of noise samples per stage.
                            let make = || {
                                Simulator::with_settings(
                                    device.spec(),
                                    library,
                                    ExecutionOverheads::ios_engine(),
                                    config,
                                )
                            };
                            let (full, fast) = (make(), make());
                            let kernels: Vec<KernelSpec> = (0..graph.len())
                                .map(|op| fast.kernel(graph, OpId(op)))
                                .collect();
                            for groups in &stages {
                                let expected = full.measure_stage(graph, groups).latency_us;
                                let got = fast.latency_us(
                                    groups
                                        .iter()
                                        .map(|g| g.iter().map(|op| &kernels[op.index()])),
                                );
                                assert_eq!(
                                    got.to_bits(),
                                    expected.to_bits(),
                                    "{} {device:?} {library:?} {config:?} {groups:?}",
                                    graph.name()
                                );
                            }
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
            MeasureConfig::deterministic(),
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
