//! Schedule and stage types.
//!
//! A schedule `Q = {(S₁, T₁), …, (S_k, T_k)}` partitions the operators of a
//! graph into stages executed sequentially; each stage is executed with one
//! of the two parallelization strategies of Section 3.

use ios_ir::{DType, Graph, OpId, OpSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The parallelization strategy of a stage (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParallelizationStrategy {
    /// Operators are partitioned into groups; groups run concurrently on
    /// separate streams, operators inside a group run sequentially.
    ConcurrentExecution,
    /// All operators of the stage are merged into one larger operator
    /// followed by a split.
    OperatorMerge,
}

impl fmt::Display for ParallelizationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelizationStrategy::ConcurrentExecution => write!(f, "concurrent execution"),
            ParallelizationStrategy::OperatorMerge => write!(f, "operator merge"),
        }
    }
}

/// One stage of a schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// The operators of the stage.
    pub ops: OpSet,
    /// The parallelization strategy chosen for the stage.
    pub strategy: ParallelizationStrategy,
    /// The execution groups: for concurrent execution these are the
    /// connected components of the stage (each executed sequentially in the
    /// stored order); for operator merge there is a single group listing the
    /// merged operators.
    pub groups: Vec<Vec<OpId>>,
    /// The stage latency measured by the cost model when the stage was
    /// chosen, in µs.
    pub measured_latency_us: f64,
}

impl Stage {
    /// Number of operators in the stage.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the stage contains no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of concurrent groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// The op-output storage of one block run ([`Schedule::slot_plan`]): each
/// operator's slot, and each slot's size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPlan {
    /// The slot of each operator, by operator index.
    pub slot_of: Vec<usize>,
    /// The bytes of each slot (f32): its largest tenant's output.
    pub slot_bytes: Vec<u64>,
}

impl SlotPlan {
    /// One slot per operator, exactly its output: the plan of a run that
    /// keeps every op output.
    #[must_use]
    pub fn unshared(graph: &Graph) -> Self {
        SlotPlan {
            slot_of: (0..graph.len()).collect(),
            slot_bytes: (graph.ops().iter())
                .map(|op| op.output_shape.size_bytes(DType::F32) as u64)
                .collect(),
        }
    }

    /// The bytes of every slot together.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.slot_bytes.iter().sum()
    }
}

/// A complete schedule for one graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Name of the graph this schedule belongs to.
    pub graph_name: String,
    /// Stages in execution order.
    pub stages: Vec<Stage>,
}

impl Schedule {
    /// Creates a schedule from its stages.
    #[must_use]
    pub fn new(graph_name: impl Into<String>, stages: Vec<Stage>) -> Self {
        Schedule {
            graph_name: graph_name.into(),
            stages,
        }
    }

    /// The sequential schedule of `graph`: one operator per stage, in
    /// topological order, with no latency measured. Executing it runs the
    /// graph operator by operator.
    #[must_use]
    pub fn sequential(graph: &Graph) -> Self {
        let stages = graph
            .topological_order()
            .into_iter()
            .map(|op| Stage {
                ops: OpSet::singleton(op),
                strategy: ParallelizationStrategy::ConcurrentExecution,
                groups: vec![vec![op]],
                measured_latency_us: 0.0,
            })
            .collect();
        Schedule::new(graph.name(), stages)
    }

    /// Number of stages.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Sum of the measured latencies of all stages, in µs.
    #[must_use]
    pub fn total_measured_latency_us(&self) -> f64 {
        self.stages.iter().map(|s| s.measured_latency_us).sum()
    }

    /// The stage sets in order (useful for Graphviz rendering).
    #[must_use]
    pub fn stage_sets(&self) -> Vec<OpSet> {
        self.stages.iter().map(|s| s.ops).collect()
    }

    /// Index of the stage containing each operator.
    #[must_use]
    pub fn stage_of(&self, op: OpId) -> Option<usize> {
        self.stages.iter().position(|s| s.ops.contains(op))
    }

    /// Validates that the schedule is feasible for `graph`:
    ///
    /// * every operator appears in exactly one stage;
    /// * for every dependency edge `(u, v)`, `u` is scheduled no later than
    ///   `v`, and if they share a stage they share a group with `u` ordered
    ///   before `v`;
    /// * the groups of each stage partition the stage's operators.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        let mut seen = OpSet::empty();
        for (si, stage) in self.stages.iter().enumerate() {
            let mut group_union = OpSet::empty();
            for group in &stage.groups {
                for op in group {
                    if !stage.ops.contains(*op) {
                        return Err(format!(
                            "stage {si}: group operator {op} not in the stage set"
                        ));
                    }
                    if group_union.contains(*op) {
                        return Err(format!("stage {si}: operator {op} appears in two groups"));
                    }
                    group_union.insert(*op);
                }
            }
            if group_union != stage.ops {
                return Err(format!("stage {si}: groups do not cover the stage"));
            }
            if !seen.is_disjoint(stage.ops) {
                return Err(format!("stage {si}: operators scheduled twice"));
            }
            seen = seen.union(stage.ops);
        }
        if seen != graph.all_ops() {
            return Err(format!(
                "schedule covers {} operators, graph has {}",
                seen.len(),
                graph.len()
            ));
        }
        // Dependency order.
        for op in graph.ops() {
            let v_stage = self.stage_of(op.id).expect("covered");
            for pred in graph.predecessors(op.id) {
                let u_stage = self.stage_of(pred).expect("covered");
                if u_stage > v_stage {
                    return Err(format!(
                        "operator {} (stage {v_stage}) depends on {} scheduled later (stage {u_stage})",
                        op.name,
                        graph.op(pred).name
                    ));
                }
                if u_stage == v_stage {
                    let stage = &self.stages[v_stage];
                    let same_group = stage.groups.iter().find(|g| g.contains(&op.id));
                    match same_group {
                        Some(g) if g.contains(&pred) => {
                            let pu = g.iter().position(|x| *x == pred).expect("present");
                            let pv = g.iter().position(|x| *x == op.id).expect("present");
                            if pu > pv {
                                return Err(format!(
                                    "stage {v_stage}: {} ordered before its dependency {}",
                                    op.name,
                                    graph.op(pred).name
                                ));
                            }
                        }
                        _ if stage.strategy == ParallelizationStrategy::OperatorMerge => {
                            // Merged operators are computed simultaneously from
                            // the shared input; dependencies inside a merged
                            // stage are impossible by the merge eligibility
                            // rule, so reaching this arm means the stage is
                            // malformed.
                            return Err(format!(
                                "stage {v_stage}: merged stage contains dependent operators {} → {}",
                                graph.op(pred).name,
                                op.name
                            ));
                        }
                        _ => {
                            return Err(format!(
                                "stage {v_stage}: dependent operators {} → {} are in different groups",
                                graph.op(pred).name,
                                op.name
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The predicted peak of live op-output bytes (f32) when the schedule
    /// runs stage by stage and each output is released at the end of the
    /// stage of its last reader. The set of ops executed before a stage is
    /// the DP's state (§4), and it fixes the live set exactly
    /// ([`Graph::live_after`]), so the peak is the maximum over stages of
    /// the live bytes before the stage plus the bytes of its outputs. Graph
    /// inputs and scratch are not counted.
    #[must_use]
    pub fn peak_live_bytes(&self, graph: &Graph) -> u64 {
        let bytes = |set: OpSet| -> u64 {
            set.iter()
                .map(|op| graph.op(op).output_shape.size_bytes(DType::F32) as u64)
                .sum()
        };
        let mut done = OpSet::empty();
        let mut peak = 0;
        for stage in &self.stages {
            peak = peak.max(bytes(graph.live_after(done)) + bytes(stage.ops));
            done = done.union(stage.ops);
        }
        peak
    }

    /// Where each op output of one run of the schedule is stored: one slot
    /// per operator, shared only by outputs never held at the same stage.
    /// An output is held from its stage to the last stage that reads it —
    /// a graph output to the last stage — by the [`Graph::live_after`] rule
    /// that [`Schedule::peak_live_bytes`] sums, so the outputs of one stage
    /// never share a slot. Assigned greedy by size (Pisarchyk & Lee, 2020;
    /// TFLite's arena planner): largest output first, each into the
    /// smallest slot free at all its stages, or a new slot of its size. A
    /// slot is as large as its first, largest tenant.
    ///
    /// # Panics
    ///
    /// Panics if the schedule has more than 128 stages.
    #[must_use]
    pub fn slot_plan(&self, graph: &Graph) -> SlotPlan {
        assert!(self.stages.len() <= 128, "a slot plan covers 128 stages");
        // Per op: its bytes, its index and the stages it is held at (bit
        // `t` for stage `t`), largest first.
        let mut tenants: Vec<(u64, usize, u128)> = (graph.ops().iter())
            .map(|op| {
                (
                    op.output_shape.size_bytes(DType::F32) as u64,
                    op.id.index(),
                    0,
                )
            })
            .collect();
        let mut done = OpSet::empty();
        for (t, stage) in self.stages.iter().enumerate() {
            for op in graph.live_after(done).union(stage.ops).iter() {
                tenants[op.index()].2 |= 1 << t;
            }
            done = done.union(stage.ops);
        }
        tenants.sort_by_key(|&(bytes, _, _)| std::cmp::Reverse(bytes));
        let mut plan = SlotPlan {
            slot_of: vec![0; graph.len()],
            slot_bytes: Vec::with_capacity(graph.len()),
        };
        for (i, &(bytes, op, held)) in tenants.iter().enumerate() {
            let free = |slot: &usize| {
                (tenants[..i].iter())
                    .all(|&(_, other, taken)| plan.slot_of[other] != *slot || taken & held == 0)
            };
            let slot = (0..plan.slot_bytes.len())
                .filter(free)
                .min_by_key(|&slot| plan.slot_bytes[slot]);
            plan.slot_of[op] = slot.unwrap_or_else(|| {
                plan.slot_bytes.push(bytes);
                plan.slot_bytes.len() - 1
            });
        }
        plan
    }

    /// The bytes of [`Schedule::slot_plan`]'s slots: what a run of the
    /// schedule retains for op outputs, beside the
    /// [`Schedule::peak_live_bytes`] it holds live at most.
    #[must_use]
    pub fn slot_bytes(&self, graph: &Graph) -> u64 {
        self.slot_plan(graph).total_bytes()
    }

    /// Renders the schedule as a compact human-readable table.
    #[must_use]
    pub fn render(&self, graph: &Graph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "schedule for `{}` ({} stages):",
            self.graph_name,
            self.num_stages()
        );
        for (i, stage) in self.stages.iter().enumerate() {
            let groups: Vec<String> = stage
                .groups
                .iter()
                .map(|g| {
                    let names: Vec<&str> = g.iter().map(|op| graph.op(*op).name.as_str()).collect();
                    format!("{{{}}}", names.join(", "))
                })
                .collect();
            let _ = writeln!(
                out,
                "  stage {}: [{}] via {} ({:.1} µs)",
                i + 1,
                groups.join(" | "),
                stage.strategy,
                stage.measured_latency_us
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_ir::{Conv2dParams, GraphBuilder, TensorShape};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("diamond", TensorShape::new(1, 16, 8, 8));
        let input = b.input(0);
        let a = b.conv2d("a", input, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
        let x = b.conv2d("x", a, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
        let y = b.conv2d("y", a, Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)));
        let d = b.concat("d", &[x, y]);
        b.build(vec![d])
    }

    fn stage(ops: &[usize], groups: &[&[usize]], strategy: ParallelizationStrategy) -> Stage {
        Stage {
            ops: ops.iter().map(|&i| OpId(i)).collect(),
            strategy,
            groups: groups
                .iter()
                .map(|g| g.iter().map(|&i| OpId(i)).collect())
                .collect(),
            measured_latency_us: 1.0,
        }
    }

    #[test]
    fn peak_live_bytes_follows_the_executed_set() {
        // Every op output is 16·8·8 f32s (4 KiB) but the concat's, 8 KiB.
        let g = diamond();
        let unit = 16 * 8 * 8 * 4;
        let concurrent = ParallelizationStrategy::ConcurrentExecution;
        // a | x, y together (a still read) | d, x and y read for the last
        // time: a dies after the middle stage.
        let wide = Schedule::new(
            "diamond",
            vec![
                stage(&[0], &[&[0]], concurrent),
                stage(&[1, 2], &[&[1], &[2]], concurrent),
                stage(&[3], &[&[3]], concurrent),
            ],
        );
        assert_eq!(wide.peak_live_bytes(&g), 4 * unit, "x + y + d");
        // One op a stage: a and x are live while y runs; then x, y and d.
        let sequential = Schedule::sequential(&g);
        assert_eq!(sequential.peak_live_bytes(&g), 4 * unit);
        // One stage holds every output at its end.
        let one = Schedule::new(
            "diamond",
            vec![stage(&[0, 1, 2, 3], &[&[0, 1, 2, 3]], concurrent)],
        );
        assert_eq!(one.peak_live_bytes(&g), 5 * unit);
    }

    #[test]
    fn valid_schedule_passes() {
        let g = diamond();
        let s = Schedule::new(
            "diamond",
            vec![
                stage(&[0], &[&[0]], ParallelizationStrategy::ConcurrentExecution),
                stage(
                    &[1, 2],
                    &[&[1], &[2]],
                    ParallelizationStrategy::ConcurrentExecution,
                ),
                stage(&[3], &[&[3]], ParallelizationStrategy::ConcurrentExecution),
            ],
        );
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.num_stages(), 3);
        assert_eq!(s.stage_of(OpId(2)), Some(1));
        assert!((s.total_measured_latency_us() - 3.0).abs() < 1e-12);
        let rendered = s.render(&g);
        assert!(rendered.contains("stage 2"));
        assert!(rendered.contains("concurrent execution"));
    }

    #[test]
    fn missing_operator_fails() {
        let g = diamond();
        let s = Schedule::new(
            "diamond",
            vec![stage(
                &[0, 1, 2],
                &[&[0, 1, 2]],
                ParallelizationStrategy::ConcurrentExecution,
            )],
        );
        assert!(s.validate(&g).unwrap_err().contains("covers 3 operators"));
    }

    #[test]
    fn dependency_violation_fails() {
        let g = diamond();
        let s = Schedule::new(
            "diamond",
            vec![
                stage(
                    &[1, 2],
                    &[&[1], &[2]],
                    ParallelizationStrategy::ConcurrentExecution,
                ),
                stage(&[0], &[&[0]], ParallelizationStrategy::ConcurrentExecution),
                stage(&[3], &[&[3]], ParallelizationStrategy::ConcurrentExecution),
            ],
        );
        assert!(s.validate(&g).unwrap_err().contains("scheduled later"));
    }

    #[test]
    fn same_stage_dependency_requires_group_order() {
        let g = diamond();
        // a and x in the same stage, same group, correct order: fine.
        let ok = Schedule::new(
            "diamond",
            vec![
                stage(
                    &[0, 1],
                    &[&[0, 1]],
                    ParallelizationStrategy::ConcurrentExecution,
                ),
                stage(&[2], &[&[2]], ParallelizationStrategy::ConcurrentExecution),
                stage(&[3], &[&[3]], ParallelizationStrategy::ConcurrentExecution),
            ],
        );
        assert!(ok.validate(&g).is_ok());
        // Reversed order inside the group: rejected.
        let bad = Schedule::new(
            "diamond",
            vec![
                stage(
                    &[0, 1],
                    &[&[1, 0]],
                    ParallelizationStrategy::ConcurrentExecution,
                ),
                stage(&[2], &[&[2]], ParallelizationStrategy::ConcurrentExecution),
                stage(&[3], &[&[3]], ParallelizationStrategy::ConcurrentExecution),
            ],
        );
        assert!(bad.validate(&g).unwrap_err().contains("ordered before"));
        // Different groups in the same stage: rejected.
        let split = Schedule::new(
            "diamond",
            vec![
                stage(
                    &[0, 1],
                    &[&[0], &[1]],
                    ParallelizationStrategy::ConcurrentExecution,
                ),
                stage(&[2], &[&[2]], ParallelizationStrategy::ConcurrentExecution),
                stage(&[3], &[&[3]], ParallelizationStrategy::ConcurrentExecution),
            ],
        );
        assert!(split.validate(&g).unwrap_err().contains("different groups"));
    }

    #[test]
    fn duplicated_or_uncovered_group_ops_fail() {
        let g = diamond();
        let dup = Schedule::new(
            "diamond",
            vec![
                stage(&[0], &[&[0]], ParallelizationStrategy::ConcurrentExecution),
                stage(
                    &[1, 2],
                    &[&[1, 2], &[2]],
                    ParallelizationStrategy::ConcurrentExecution,
                ),
                stage(&[3], &[&[3]], ParallelizationStrategy::ConcurrentExecution),
            ],
        );
        assert!(dup.validate(&g).unwrap_err().contains("two groups"));
        let uncovered = Schedule::new(
            "diamond",
            vec![
                stage(&[0], &[&[0]], ParallelizationStrategy::ConcurrentExecution),
                stage(
                    &[1, 2],
                    &[&[1]],
                    ParallelizationStrategy::ConcurrentExecution,
                ),
                stage(&[3], &[&[3]], ParallelizationStrategy::ConcurrentExecution),
            ],
        );
        assert!(uncovered.validate(&g).unwrap_err().contains("do not cover"));
    }

    #[test]
    fn serde_roundtrip() {
        let s = Schedule::new(
            "x",
            vec![stage(&[0], &[&[0]], ParallelizationStrategy::OperatorMerge)],
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(
            ParallelizationStrategy::ConcurrentExecution.to_string(),
            "concurrent execution"
        );
        assert_eq!(
            ParallelizationStrategy::OperatorMerge.to_string(),
            "operator merge"
        );
    }
}
