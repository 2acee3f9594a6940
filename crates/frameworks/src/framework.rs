//! Baseline framework models.

use ios_core::{sequential_network_schedule, SimCostModel};
use ios_ir::{Conv2dParams, Graph, Network, OpId, OpKind, Value};
use ios_sim::{DeviceKind, ExecutionOverheads, KernelLibrary, Simulator};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The baseline frameworks of Figure 7 / Figure 11 / Figure 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// TensorFlow with stock cuDNN kernels and high per-op overhead.
    TensorFlow,
    /// TensorFlow with XLA: element-wise operators are fused away.
    TensorFlowXla,
    /// TASO: graph substitutions (merging same-type operators that share an
    /// input) on top of cuDNN, executed sequentially.
    Taso,
    /// TVM compiling convolutions to cuDNN calls.
    TvmCuDnn,
    /// TensorRT: fused conv+activation, tuned kernel selection.
    TensorRt,
    /// TVM with auto-tuned (Ansor-style) kernels — the intra-operator
    /// parallelism specialist of Figure 12.
    TvmAutoTune,
}

impl FrameworkKind {
    /// All cuDNN-based baselines of Figure 7 (excludes TVM-AutoTune, which
    /// the paper compares separately in Figure 12).
    #[must_use]
    pub fn cudnn_baselines() -> &'static [FrameworkKind] {
        &[
            FrameworkKind::TensorFlow,
            FrameworkKind::TensorFlowXla,
            FrameworkKind::Taso,
            FrameworkKind::TvmCuDnn,
            FrameworkKind::TensorRt,
        ]
    }

    /// Every modeled framework.
    #[must_use]
    pub fn all() -> &'static [FrameworkKind] {
        &[
            FrameworkKind::TensorFlow,
            FrameworkKind::TensorFlowXla,
            FrameworkKind::Taso,
            FrameworkKind::TvmCuDnn,
            FrameworkKind::TensorRt,
            FrameworkKind::TvmAutoTune,
        ]
    }

    /// The kernel library the framework executes with.
    #[must_use]
    pub fn library(self) -> KernelLibrary {
        match self {
            FrameworkKind::TensorFlow
            | FrameworkKind::TensorFlowXla
            | FrameworkKind::Taso
            | FrameworkKind::TvmCuDnn => KernelLibrary::CuDnn,
            FrameworkKind::TensorRt => KernelLibrary::TensorRt,
            FrameworkKind::TvmAutoTune => KernelLibrary::TvmAutoTuned,
        }
    }

    /// Host-side overheads of the framework's executor.
    #[must_use]
    pub fn overheads(self) -> ExecutionOverheads {
        match self {
            FrameworkKind::TensorFlow => ExecutionOverheads::new(14.0, 0.0),
            FrameworkKind::TensorFlowXla => ExecutionOverheads::new(8.0, 0.0),
            FrameworkKind::Taso => ExecutionOverheads::new(4.0, 0.0),
            FrameworkKind::TvmCuDnn => ExecutionOverheads::new(4.0, 0.0),
            FrameworkKind::TensorRt => ExecutionOverheads::new(2.5, 0.0),
            FrameworkKind::TvmAutoTune => ExecutionOverheads::new(4.0, 0.0),
        }
    }

    /// True if the framework fuses standalone element-wise operators
    /// (ReLU, Add, Identity) into their producers.
    #[must_use]
    pub fn fuses_elementwise(self) -> bool {
        matches!(
            self,
            FrameworkKind::TensorFlowXla
                | FrameworkKind::Taso
                | FrameworkKind::TensorRt
                | FrameworkKind::TvmAutoTune
        )
    }

    /// True if the framework merges same-type convolutions that share an
    /// input (TASO's horizontal graph substitution).
    #[must_use]
    pub fn merges_shared_input_convs(self) -> bool {
        matches!(self, FrameworkKind::Taso)
    }

    /// Approximate optimization cost for the four benchmark networks, in GPU
    /// hours (Figure 12's right panel: TVM ≈ 208 h, the cuDNN-based
    /// frameworks are essentially free, IOS ≈ 3 h).
    #[must_use]
    pub fn optimization_cost_gpu_hours(self) -> f64 {
        match self {
            FrameworkKind::TvmAutoTune => 208.0,
            FrameworkKind::TensorRt => 0.5,
            FrameworkKind::Taso => 0.3,
            _ => 0.05,
        }
    }
}

impl fmt::Display for FrameworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FrameworkKind::TensorFlow => "Tensorflow",
            FrameworkKind::TensorFlowXla => "Tensorflow-XLA",
            FrameworkKind::Taso => "TASO",
            FrameworkKind::TvmCuDnn => "TVM-cuDNN",
            FrameworkKind::TensorRt => "TensorRT",
            FrameworkKind::TvmAutoTune => "TVM-AutoTune",
        };
        write!(f, "{name}")
    }
}

/// Result of executing a network with a baseline framework.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameworkResult {
    /// Framework label.
    pub framework: String,
    /// Network name.
    pub network: String,
    /// End-to-end latency in µs.
    pub latency_us: f64,
    /// Throughput in images/s for the network's batch size.
    pub throughput: f64,
    /// Number of kernels launched after the framework's graph rewrites.
    pub kernels: usize,
}

/// A baseline framework bound to a device.
#[derive(Debug)]
pub struct Framework {
    kind: FrameworkKind,
    simulator: Simulator,
}

impl Framework {
    /// Creates the framework model for a device preset.
    #[must_use]
    pub fn new(kind: FrameworkKind, device: DeviceKind) -> Self {
        let simulator = Simulator::with_settings(device.spec(), kind.library(), kind.overheads());
        Framework { kind, simulator }
    }

    /// The framework kind.
    #[must_use]
    pub fn kind(&self) -> FrameworkKind {
        self.kind
    }

    /// Executes (sequentially) the network after applying the framework's
    /// graph rewrites, and reports latency and throughput.
    #[must_use]
    pub fn measure(&self, network: &Network) -> FrameworkResult {
        let batch = network.input_shape.batch;
        let mut latency = 0.0;
        let mut kernels = 0;
        let cost = SimCostModel::new(Simulator::with_settings(
            self.simulator.device().clone(),
            self.kind.library(),
            self.kind.overheads(),
        ));
        for block in &network.blocks {
            let rewritten = self.rewrite(&block.graph);
            let schedule = sequential_network_schedule(
                &Network::new(
                    rewritten.name(),
                    network.input_shape,
                    vec![ios_ir::Block::new(rewritten.clone())],
                ),
                &cost,
            );
            latency += schedule.latency_us;
            kernels += rewritten.len();
        }
        FrameworkResult {
            framework: self.kind.to_string(),
            network: network.name.clone(),
            latency_us: latency,
            throughput: if latency > 0.0 {
                batch as f64 / (latency / 1e6)
            } else {
                0.0
            },
            kernels,
        }
    }

    /// Applies the framework's graph rewrites to one block graph.
    #[must_use]
    pub fn rewrite(&self, graph: &Graph) -> Graph {
        let mut rewritten = graph.clone();
        if self.kind.merges_shared_input_convs() {
            rewritten = merge_shared_input_convs(&rewritten);
        }
        if self.kind.fuses_elementwise() {
            rewritten = fuse_elementwise(&rewritten);
        }
        rewritten
    }
}

/// Removes standalone element-wise operators (ReLU, Identity, Add with one
/// input) by forwarding their input, modeling XLA/TensorRT fusion.
fn fuse_elementwise(graph: &Graph) -> Graph {
    use ios_ir::GraphBuilder;
    let mut b = GraphBuilder::with_inputs(graph.name(), graph.input_shapes().to_vec());
    let mut mapping: Vec<Option<Value>> = vec![None; graph.len()];
    let resolve = |v: &Value, mapping: &[Option<Value>]| -> Value {
        match v {
            Value::Input(i) => Value::Input(*i),
            Value::Op(id) => mapping[id.index()].expect("producer already processed"),
        }
    };
    for op in graph.ops() {
        let fused_away = matches!(op.kind, OpKind::Relu | OpKind::Identity)
            || (matches!(op.kind, OpKind::Add) && op.inputs.len() == 1);
        if fused_away {
            mapping[op.id.index()] = Some(resolve(&op.inputs[0], &mapping));
            continue;
        }
        let inputs: Vec<Value> = op.inputs.iter().map(|v| resolve(v, &mapping)).collect();
        mapping[op.id.index()] = Some(b.add(op.name.clone(), op.kind.clone(), &inputs));
    }
    let outputs: Vec<Value> = graph
        .outputs()
        .iter()
        .map(|v| resolve(v, &mapping))
        .collect();
    b.build(outputs)
}

/// Merges groups of dense convolutions that share the same input value, the
/// same kernel size and the same stride into one wider convolution (TASO's
/// "merge conv" substitution). Downstream consumers read the merged tensor
/// through an added split-like 1×1 view; for latency purposes the merged
/// convolution plus the original concat structure is what matters, so the
/// rewrite keeps per-consumer `Identity` taps.
fn merge_shared_input_convs(graph: &Graph) -> Graph {
    use ios_ir::GraphBuilder;
    use std::collections::HashMap;

    // Group candidate convs by (input value, kernel, stride, activation).
    type SharedConvKey = (Value, (usize, usize), (usize, usize), bool);
    let mut groups: HashMap<SharedConvKey, Vec<OpId>> = HashMap::new();
    for op in graph.ops() {
        if let OpKind::Conv2d(p) = &op.kind {
            if p.groups == 1 && op.inputs.len() == 1 {
                groups
                    .entry((op.inputs[0], p.kernel, p.stride, p.activation.is_some()))
                    .or_default()
                    .push(op.id);
            }
        }
    }
    let merged_groups: Vec<Vec<OpId>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    if merged_groups.is_empty() {
        return graph.clone();
    }
    let mut group_of: HashMap<OpId, usize> = HashMap::new();
    for (gi, g) in merged_groups.iter().enumerate() {
        for op in g {
            group_of.insert(*op, gi);
        }
    }

    let mut b = GraphBuilder::with_inputs(graph.name(), graph.input_shapes().to_vec());
    let mut mapping: Vec<Option<Value>> = vec![None; graph.len()];
    let mut merged_built: HashMap<usize, Value> = HashMap::new();
    let resolve = |v: &Value, mapping: &[Option<Value>]| -> Value {
        match v {
            Value::Input(i) => Value::Input(*i),
            Value::Op(id) => mapping[id.index()].expect("producer already processed"),
        }
    };

    for op in graph.ops() {
        if let Some(&gi) = group_of.get(&op.id) {
            let members = &merged_groups[gi];
            // Build the merged convolution the first time a member is seen.
            merged_built.entry(gi).or_insert_with(|| {
                let first = graph.op(members[0]);
                let params = match &first.kind {
                    OpKind::Conv2d(p) => *p,
                    _ => unreachable!("group members are convolutions"),
                };
                let total_out: usize = members
                    .iter()
                    .map(|m| match &graph.op(*m).kind {
                        OpKind::Conv2d(p) => p.out_channels,
                        _ => 0,
                    })
                    .sum();
                let merged_params = Conv2dParams {
                    out_channels: total_out,
                    ..params
                };
                let input = resolve(&first.inputs[0], &mapping);
                let merged = b.conv2d(format!("merged_{}", first.name), input, merged_params);
                merged
            });
            let merged = merged_built[&gi];
            // Each original output becomes an identity view of the merged
            // tensor (channel slicing does not change the cost model's view
            // of downstream operators materially).
            mapping[op.id.index()] = Some(b.identity(format!("view_{}", op.name), merged));
            continue;
        }
        let inputs: Vec<Value> = op.inputs.iter().map(|v| resolve(v, &mapping)).collect();
        mapping[op.id.index()] = Some(b.add(op.name.clone(), op.kind.clone(), &inputs));
    }
    let outputs: Vec<Value> = graph
        .outputs()
        .iter()
        .map(|v| resolve(v, &mapping))
        .collect();
    b.build(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sets() {
        assert_eq!(FrameworkKind::TensorRt.to_string(), "TensorRT");
        assert_eq!(FrameworkKind::cudnn_baselines().len(), 5);
        assert_eq!(FrameworkKind::all().len(), 6);
        assert!(FrameworkKind::TvmAutoTune.library() == KernelLibrary::TvmAutoTuned);
    }

    #[test]
    fn xla_fuses_elementwise_ops() {
        let net = ios_models::resnet50(1);
        let fw = Framework::new(FrameworkKind::TensorFlowXla, DeviceKind::TeslaV100);
        let block = &net.blocks[1].graph;
        let rewritten = fw.rewrite(block);
        assert!(
            rewritten.len() < block.len(),
            "XLA should remove standalone ReLU/Identity ops"
        );
        assert!(rewritten.validate().is_ok());
    }

    #[test]
    fn taso_merges_parallel_same_shape_convs() {
        // The Figure 2 block has two pairs of identical-shape convolutions
        // sharing the input; TASO merges each pair.
        let net = ios_models::figure2_block(1);
        let fw = Framework::new(FrameworkKind::Taso, DeviceKind::TeslaV100);
        let block = &net.blocks[0].graph;
        let rewritten = fw.rewrite(block);
        let convs = rewritten
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Conv2d(_)))
            .count();
        // All four convolutions share the input, kernel size and stride, so
        // TASO's substitution collapses them into a single wide convolution.
        assert_eq!(
            convs, 1,
            "four identical-shape convolutions should merge into one"
        );
        assert!(rewritten.validate().is_ok());
    }

    #[test]
    fn framework_latency_ordering_is_sensible() {
        // TensorFlow (heavy overhead, no fusion) must be the slowest cuDNN
        // baseline; TensorRT must be the fastest.
        let net = ios_models::squeezenet(1);
        let device = DeviceKind::TeslaV100;
        let tf = Framework::new(FrameworkKind::TensorFlow, device).measure(&net);
        let xla = Framework::new(FrameworkKind::TensorFlowXla, device).measure(&net);
        let trt = Framework::new(FrameworkKind::TensorRt, device).measure(&net);
        assert!(tf.latency_us > xla.latency_us);
        assert!(xla.latency_us > trt.latency_us);
        assert!(trt.throughput > tf.throughput);
        assert!(trt.kernels <= tf.kernels);
    }

    #[test]
    fn measure_reports_kernel_counts() {
        let net = ios_models::figure2_block(1);
        let trt = Framework::new(FrameworkKind::TensorRt, DeviceKind::TeslaV100).measure(&net);
        assert!(trt.kernels >= 2);
        assert_eq!(trt.network, "figure2");
    }
}
