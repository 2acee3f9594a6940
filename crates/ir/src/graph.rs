//! Computation graphs and their builder.
//!
//! A [`Graph`] is a directed acyclic graph of [`Op`]s. Edges are implied by
//! each operator's `inputs` list, matching the paper's definition of the
//! computation graph `G = (V, E)` where each edge `(u, v)` is a tensor
//! produced by `u` and consumed by `v`.

use crate::endings::EndingEnumerator;
use crate::error::IrError;
use crate::op::{Activation, Conv2dParams, MatMulParams, Op, OpId, OpKind, PoolParams};
use crate::opset::{OpSet, MAX_OPS};
use crate::tensor::{DType, TensorShape};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A value flowing along an edge of the graph: either one of the graph's
/// external inputs or the output of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// The `i`-th external input of the graph.
    Input(usize),
    /// The output of operator `OpId`.
    Op(OpId),
}

impl Value {
    /// The operator id if this value is an operator output.
    #[must_use]
    pub fn as_op(self) -> Option<OpId> {
        match self {
            Value::Op(id) => Some(id),
            Value::Input(_) => None,
        }
    }
}

/// An immutable computation graph.
///
/// Graphs are constructed through [`GraphBuilder`], which performs shape
/// inference and validation eagerly so that a successfully built graph is
/// always well formed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    inputs: Vec<TensorShape>,
    ops: Vec<Op>,
    outputs: Vec<Value>,
}

impl Graph {
    /// Name of the graph (e.g. `"inception_v3/block_5"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shapes of the external inputs.
    #[must_use]
    pub fn input_shapes(&self) -> &[TensorShape] {
        &self.inputs
    }

    /// The graph's operators, indexed by `OpId`.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the graph has no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operator with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this graph.
    #[must_use]
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// The graph's output values.
    #[must_use]
    pub fn outputs(&self) -> &[Value] {
        &self.outputs
    }

    /// Shapes of the graph outputs.
    #[must_use]
    pub fn output_shapes(&self) -> Vec<TensorShape> {
        self.outputs.iter().map(|v| self.value_shape(*v)).collect()
    }

    /// Shape of an arbitrary value.
    #[must_use]
    pub fn value_shape(&self, value: Value) -> TensorShape {
        match value {
            Value::Input(i) => self.inputs[i],
            Value::Op(id) => self.op(id).output_shape,
        }
    }

    /// Shapes of the inputs of an operator.
    #[must_use]
    pub fn op_input_shapes(&self, id: OpId) -> Vec<TensorShape> {
        self.op(id)
            .inputs
            .iter()
            .map(|v| self.value_shape(*v))
            .collect()
    }

    /// Floating point operations of a single operator.
    #[must_use]
    pub fn op_flops(&self, id: OpId) -> u64 {
        self.op(id).flops(&self.op_input_shapes(id))
    }

    /// Memory traffic of a single operator in bytes (FP32).
    #[must_use]
    pub fn op_memory_bytes(&self, id: OpId) -> u64 {
        self.op(id)
            .memory_bytes(&self.op_input_shapes(id), DType::F32)
    }

    /// Total floating point operations of the whole graph.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.ops.iter().map(|op| self.op_flops(op.id)).sum()
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn total_parameters(&self) -> usize {
        self.ops
            .iter()
            .map(|op| op.num_parameters(&self.op_input_shapes(op.id)))
            .sum()
    }

    /// The full operator set of the graph, `V`.
    #[must_use]
    pub fn all_ops(&self) -> OpSet {
        OpSet::full(self.ops.len())
    }

    /// Direct predecessors of `id` (operators only; external inputs do not
    /// create scheduling dependencies).
    #[must_use]
    pub fn predecessors(&self, id: OpId) -> Vec<OpId> {
        let mut preds: Vec<OpId> = self
            .op(id)
            .inputs
            .iter()
            .filter_map(|v| v.as_op())
            .collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// The op outputs still live once the ops of `done` have run: those of
    /// `done` that are graph outputs or have a reader outside `done`. When
    /// `done` is the set of ops a schedule executed before a stage
    /// boundary — the DP's state — these are exactly the outputs an
    /// executor must still hold there.
    #[must_use]
    pub fn live_after(&self, done: OpSet) -> OpSet {
        let mut read_later: OpSet = self.outputs.iter().filter_map(|v| v.as_op()).collect();
        for op in self.ops.iter().filter(|op| !done.contains(op.id)) {
            read_later.extend(op.inputs.iter().filter_map(|v| v.as_op()));
        }
        read_later.intersection(done)
    }

    /// Direct successors of `id`.
    #[must_use]
    pub fn successors(&self, id: OpId) -> Vec<OpId> {
        let mut succs = Vec::new();
        for op in &self.ops {
            if op.inputs.iter().any(|v| v.as_op() == Some(id)) {
                succs.push(op.id);
            }
        }
        succs
    }

    /// Adjacency as predecessor bitsets: `preds[i]` contains the direct
    /// predecessors of operator `i`.
    #[must_use]
    pub fn predecessor_sets(&self) -> Vec<OpSet> {
        self.ops
            .iter()
            .map(|op| op.inputs.iter().filter_map(|v| v.as_op()).collect())
            .collect()
    }

    /// Adjacency as successor bitsets: `succs[i]` contains the direct
    /// successors of operator `i`.
    #[must_use]
    pub fn successor_sets(&self) -> Vec<OpSet> {
        let mut succs = vec![OpSet::empty(); self.ops.len()];
        for op in &self.ops {
            for v in &op.inputs {
                if let Some(p) = v.as_op() {
                    succs[p.index()].insert(op.id);
                }
            }
        }
        succs
    }

    /// Number of edges (dependencies between operators).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.predecessor_sets().iter().map(|s| s.len()).sum()
    }

    /// A topological ordering of the operators.
    ///
    /// Because the builder assigns ids in insertion order and only allows
    /// operators to consume already-defined values, the identity ordering is
    /// always topological; this method nevertheless recomputes one by Kahn's
    /// algorithm so it stays valid for graphs deserialized from external
    /// sources.
    #[must_use]
    pub fn topological_order(&self) -> Vec<OpId> {
        kahn_order(&self.predecessor_sets(), &self.successor_sets())
    }

    /// Transitive closure: `reach[i]` is the set of operators reachable from
    /// `i` (excluding `i` itself).
    #[must_use]
    pub fn reachability(&self) -> Vec<OpSet> {
        let succs = self.successor_sets();
        let order = self.topological_order();
        let mut reach = vec![OpSet::empty(); self.ops.len()];
        for &id in order.iter().rev() {
            let mut r = succs[id.index()];
            for s in succs[id.index()].iter() {
                r = r.union(reach[s.index()]);
            }
            reach[id.index()] = r;
        }
        reach
    }

    /// Partitions the operators of `set` into groups: connected components of
    /// the *undirected* dependency graph restricted to `set`, ordered by
    /// their smallest operator id.
    ///
    /// This is exactly how the paper forms the groups of a "concurrent
    /// execution" stage: operators connected by an edge inside the stage end
    /// up in the same group and are executed sequentially, while different
    /// groups run concurrently.
    ///
    /// Builds an [`EndingEnumerator`] for this one call; hold one and use
    /// [`EndingEnumerator::groups`] when partitioning many sets.
    #[must_use]
    pub fn groups_of(&self, set: OpSet) -> Vec<OpSet> {
        EndingEnumerator::new(self).groups(set).collect()
    }

    /// Orders the operators of a group in a topologically valid sequence
    /// (operators in a group execute sequentially). One-call form of
    /// [`EndingEnumerator::order`].
    #[must_use]
    pub fn sequential_order_of(&self, group: OpSet) -> Vec<OpId> {
        EndingEnumerator::new(self).order(group).collect()
    }

    /// Validates the structural invariants of the graph (acyclicity, input
    /// references, operator count).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.ops.len() > MAX_OPS {
            return Err(IrError::TooManyOperators {
                count: self.ops.len(),
                max: MAX_OPS,
            });
        }
        for op in &self.ops {
            for v in &op.inputs {
                match v {
                    Value::Input(i) if *i >= self.inputs.len() => {
                        return Err(IrError::UnknownValue {
                            op: op.name.clone(),
                        })
                    }
                    Value::Op(id) if id.index() >= self.ops.len() => {
                        return Err(IrError::UnknownValue {
                            op: op.name.clone(),
                        })
                    }
                    _ => {}
                }
            }
        }
        if self.topological_order().len() != self.ops.len() {
            return Err(IrError::CyclicGraph {
                graph: self.name.clone(),
            });
        }
        Ok(())
    }
}

/// Kahn's algorithm over adjacency bitsets. Operators on a cycle are left
/// out, which is how [`Graph::validate`] detects one.
pub(crate) fn kahn_order(preds: &[OpSet], succs: &[OpSet]) -> Vec<OpId> {
    let mut indegree: Vec<usize> = preds.iter().map(|p| p.len()).collect();
    let mut queue: VecDeque<OpId> = (0..preds.len())
        .filter(|&i| indegree[i] == 0)
        .map(OpId)
        .collect();
    let mut order = Vec::with_capacity(preds.len());
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for s in succs[id.index()].iter() {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push_back(s);
            }
        }
    }
    order
}

/// Builder for [`Graph`]s with eager shape inference.
///
/// Every `add_*` method returns the [`Value`] produced by the new operator so
/// that model definitions read like straight-line tensor programs.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    name: String,
    inputs: Vec<TensorShape>,
    ops: Vec<Op>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with a single external input.
    #[must_use]
    pub fn new(name: impl Into<String>, input: TensorShape) -> Self {
        GraphBuilder {
            name: name.into(),
            inputs: vec![input],
            ops: Vec::new(),
        }
    }

    /// Creates a builder for a graph with several external inputs (used by
    /// NasNet cells, which consume the two previous cell outputs).
    #[must_use]
    pub fn with_inputs(name: impl Into<String>, inputs: Vec<TensorShape>) -> Self {
        GraphBuilder {
            name: name.into(),
            inputs,
            ops: Vec::new(),
        }
    }

    /// The value of the `i`-th external input.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn input(&self, i: usize) -> Value {
        assert!(i < self.inputs.len(), "input {i} out of range");
        Value::Input(i)
    }

    /// Number of operators added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operators have been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Shape of an already-defined value.
    #[must_use]
    pub fn shape_of(&self, value: Value) -> TensorShape {
        match value {
            Value::Input(i) => self.inputs[i],
            Value::Op(id) => self.ops[id.index()].output_shape,
        }
    }

    /// Adds an operator with explicit kind and inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if shape inference fails.
    pub fn try_add(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        inputs: &[Value],
    ) -> Result<Value, IrError> {
        let name = name.into();
        let input_shapes: Vec<TensorShape> = inputs.iter().map(|v| self.shape_of(*v)).collect();
        let output_shape = Op::infer_output_shape(&name, &kind, &input_shapes)?;
        let id = OpId(self.ops.len());
        self.ops.push(Op {
            id,
            name,
            kind,
            inputs: inputs.to_vec(),
            output_shape,
        });
        Ok(Value::Op(id))
    }

    /// Adds an operator, panicking on shape errors.
    ///
    /// Model definitions use this convenience wrapper; a shape error in a
    /// model builder is a programming bug, not a runtime condition.
    ///
    /// # Panics
    ///
    /// Panics if shape inference fails.
    pub fn add(&mut self, name: impl Into<String>, kind: OpKind, inputs: &[Value]) -> Value {
        let name = name.into();
        match self.try_add(name.clone(), kind, inputs) {
            Ok(v) => v,
            Err(e) => panic!("failed to add operator `{name}`: {e}"),
        }
    }

    /// Adds a 2-D convolution.
    pub fn conv2d(&mut self, name: impl Into<String>, input: Value, params: Conv2dParams) -> Value {
        self.add(name, OpKind::Conv2d(params), &[input])
    }

    /// Adds a depthwise-separable convolution (the "Relu-SepConv" unit).
    pub fn sep_conv2d(
        &mut self,
        name: impl Into<String>,
        input: Value,
        params: Conv2dParams,
    ) -> Value {
        self.add(name, OpKind::SepConv2d(params), &[input])
    }

    /// Adds a pooling operator.
    pub fn pool(&mut self, name: impl Into<String>, input: Value, params: PoolParams) -> Value {
        self.add(name, OpKind::Pool(params), &[input])
    }

    /// Adds a matrix multiplication (fully connected layer).
    pub fn matmul(&mut self, name: impl Into<String>, input: Value, out_features: usize) -> Value {
        self.add(
            name,
            OpKind::MatMul(MatMulParams {
                out_features,
                activation: Activation::None,
            }),
            &[input],
        )
    }

    /// Adds a channel concatenation.
    pub fn concat(&mut self, name: impl Into<String>, inputs: &[Value]) -> Value {
        self.add(name, OpKind::Concat, inputs)
    }

    /// Adds an element-wise addition.
    pub fn add_op(&mut self, name: impl Into<String>, inputs: &[Value]) -> Value {
        self.add(name, OpKind::Add, inputs)
    }

    /// Adds a standalone ReLU.
    pub fn relu(&mut self, name: impl Into<String>, input: Value) -> Value {
        self.add(name, OpKind::Relu, &[input])
    }

    /// Adds an identity operator.
    pub fn identity(&mut self, name: impl Into<String>, input: Value) -> Value {
        self.add(name, OpKind::Identity, &[input])
    }

    /// Finishes the graph with the given output values.
    ///
    /// # Panics
    ///
    /// Panics if the resulting graph fails validation (which indicates a bug
    /// in the calling model definition, since the builder validates each
    /// operator as it is added).
    #[must_use]
    pub fn build(self, outputs: Vec<Value>) -> Graph {
        let graph = Graph {
            name: self.name,
            inputs: self.inputs,
            ops: self.ops,
            outputs,
        };
        graph.validate().expect("builder produced an invalid graph");
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three-operator example of Figure 5: `a → b`, `c` independent.
    pub(crate) fn figure5_graph() -> Graph {
        let mut b = GraphBuilder::new("fig5", TensorShape::new(1, 64, 28, 28));
        let input = b.input(0);
        let a = b.conv2d("a", input, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let _bv = b.conv2d("b", a, Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)));
        let _c = b.conv2d("c", input, Conv2dParams::relu(64, (1, 1), (1, 1), (0, 0)));
        b.build(vec![Value::Op(OpId(1)), Value::Op(OpId(2))])
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let g = figure5_graph();
        assert_eq!(g.len(), 3);
        assert_eq!(g.op(OpId(0)).name, "a");
        assert_eq!(g.op(OpId(1)).name, "b");
        assert_eq!(g.op(OpId(2)).name, "c");
    }

    #[test]
    fn predecessors_and_successors() {
        let g = figure5_graph();
        assert_eq!(g.predecessors(OpId(1)), vec![OpId(0)]);
        assert_eq!(g.successors(OpId(0)), vec![OpId(1)]);
        assert!(g.predecessors(OpId(2)).is_empty());
        assert!(g.successors(OpId(2)).is_empty());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn topological_order_is_valid() {
        let g = figure5_graph();
        let order = g.topological_order();
        assert_eq!(order.len(), 3);
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(OpId(0)) < pos(OpId(1)));
    }

    #[test]
    fn reachability_transitive() {
        let mut b = GraphBuilder::new("chain", TensorShape::new(1, 8, 8, 8));
        let input = b.input(0);
        let a = b.conv2d("a", input, Conv2dParams::plain(8, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("b", a, Conv2dParams::plain(8, (3, 3), (1, 1), (1, 1)));
        let d = b.conv2d("c", c, Conv2dParams::plain(8, (3, 3), (1, 1), (1, 1)));
        let g = b.build(vec![d]);
        let reach = g.reachability();
        assert!(reach[0].contains(OpId(2)));
        assert!(reach[0].contains(OpId(1)));
        assert!(!reach[2].contains(OpId(0)));
    }

    #[test]
    fn groups_are_connected_components() {
        let g = figure5_graph();
        // {a, b, c}: a-b connected, c separate → two groups.
        let groups = g.groups_of(g.all_ops());
        assert_eq!(groups.len(), 2);
        let sizes: Vec<usize> = groups.iter().map(|s| s.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
        // {b, c}: not connected → two singleton groups.
        let bc: OpSet = [OpId(1), OpId(2)].into_iter().collect();
        assert_eq!(g.groups_of(bc).len(), 2);
    }

    #[test]
    fn sequential_order_respects_dependencies() {
        let g = figure5_graph();
        let ab: OpSet = [OpId(0), OpId(1)].into_iter().collect();
        assert_eq!(g.sequential_order_of(ab), vec![OpId(0), OpId(1)]);
    }

    #[test]
    fn total_flops_is_sum_of_ops() {
        let g = figure5_graph();
        let total = g.total_flops();
        let by_hand: u64 = (0..3).map(|i| g.op_flops(OpId(i))).sum();
        assert_eq!(total, by_hand);
        assert!(total > 0);
        assert!(g.total_parameters() > 0);
    }

    #[test]
    fn output_shapes_reported() {
        let g = figure5_graph();
        let shapes = g.output_shapes();
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0], TensorShape::new(1, 64, 28, 28));
    }

    #[test]
    fn multi_input_graphs() {
        let shapes = vec![
            TensorShape::new(1, 32, 14, 14),
            TensorShape::new(1, 32, 14, 14),
        ];
        let mut b = GraphBuilder::with_inputs("two_in", shapes);
        let x = b.input(0);
        let y = b.input(1);
        let sum = b.add_op("sum", &[x, y]);
        let g = b.build(vec![sum]);
        assert_eq!(g.input_shapes().len(), 2);
        assert_eq!(g.output_shapes()[0].channels, 32);
    }

    #[test]
    fn validate_catches_bad_input_reference() {
        let g = figure5_graph();
        // Forge a reference to a non-existent input by rebuilding the struct
        // through serde (fields are private, so round-trip through JSON).
        let mut json: serde_json::Value = serde_json::to_value(&g).unwrap();
        json["ops"][0]["inputs"][0] = serde_json::json!({ "Input": 7 });
        let bad: Graph = serde_json::from_value(json).unwrap();
        assert!(matches!(bad.validate(), Err(IrError::UnknownValue { .. })));
    }

    #[test]
    fn serde_roundtrip() {
        let g = figure5_graph();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "failed to add operator")]
    fn add_panics_on_shape_error() {
        let mut b = GraphBuilder::new("bad", TensorShape::new(1, 64, 28, 28));
        let input = b.input(0);
        let small = b.pool("pool", input, PoolParams::max((2, 2), (2, 2), (0, 0)));
        let _ = b.concat("cat", &[input, small]);
    }
}
