//! Cross-crate correctness tests: every schedule the scheduler or the
//! baselines produce must (a) be structurally valid and (b) compute exactly
//! the same tensors as the original graph on the CPU reference backend,
//! including property-based random graphs.

use ios::backend::verify_schedule;
use ios::prelude::*;
use proptest::prelude::*;

fn cost() -> SimCostModel {
    SimCostModel::new(Simulator::new(DeviceKind::TeslaV100))
}

#[test]
fn ios_schedules_for_squeezenet_blocks_preserve_semantics() {
    let network = ios::models::squeezenet(1);
    let cost = cost();
    let config = SchedulerConfig::paper_default();
    // Verify the three structurally distinct fire blocks (first, pooled, last).
    for idx in [1usize, 3, 8] {
        let graph = &network.blocks[idx].graph;
        let result = schedule_graph(graph, &cost, &config);
        assert!(result.schedule.validate(graph).is_ok());
        let diff = verify_schedule(graph, &result.schedule, 0xF00D + idx as u64);
        assert_eq!(diff, 0.0, "block {idx}: difference {diff}");
    }
}

#[test]
fn merged_stages_preserve_semantics_on_figure2_block() {
    let network = ios::models::figure2_block(1);
    let graph = &network.blocks[0].graph;
    let cost = cost();
    let merge_only = schedule_graph(
        graph,
        &cost,
        &SchedulerConfig::for_variant(IosVariant::Merge),
    );
    assert!(merge_only
        .schedule
        .stages
        .iter()
        .any(|s| s.strategy == ParallelizationStrategy::OperatorMerge));
    let diff = verify_schedule(graph, &merge_only.schedule, 77);
    assert_eq!(diff, 0.0, "difference {diff}");
}

/// Random layered graph generator for property tests: every operator picks
/// one or two producers among the previous values, with a mix of operator
/// kinds, so scheduling has real dependency structure to respect.
fn arbitrary_graph(seed: u64, ops: usize) -> Graph {
    let mut builder = GraphBuilder::new(format!("prop_{seed}"), TensorShape::new(1, 16, 12, 12));
    let mut values = vec![builder.input(0)];
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..ops {
        let pick = values[(next() as usize) % values.len()];
        let choice = next() % 4;
        let v = match choice {
            0 => builder.conv2d(
                format!("conv{i}"),
                pick,
                Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)),
            ),
            1 => builder.conv2d(
                format!("proj{i}"),
                pick,
                Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)),
            ),
            2 => {
                let other = values[(next() as usize) % values.len()];
                let (a_shape, b_shape) = (builder.shape_of(pick), builder.shape_of(other));
                if a_shape == b_shape {
                    builder.add_op(format!("add{i}"), &[pick, other])
                } else {
                    builder.relu(format!("relu{i}"), pick)
                }
            }
            _ => builder.relu(format!("relu{i}"), pick),
        };
        values.push(v);
    }
    let out = *values.last().expect("non-empty");
    builder.build(vec![out])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random graphs: the IOS schedule is valid, never slower than the
    /// sequential baseline under the same cost model, and numerically
    /// equivalent to the reference execution.
    #[test]
    fn prop_ios_schedule_valid_fast_and_correct(seed in any::<u64>(), ops in 3usize..9) {
        let graph = arbitrary_graph(seed, ops);
        let cost = cost();
        let config = SchedulerConfig::paper_default();
        let result = schedule_graph(&graph, &cost, &config);
        prop_assert!(result.schedule.validate(&graph).is_ok());

        let sequential = sequential_schedule(&graph, &cost);
        prop_assert!(result.latency_us <= sequential.total_measured_latency_us() + 1e-6);

        let diff = verify_schedule(&graph, &result.schedule, seed);
        prop_assert_eq!(diff, 0.0, "difference {diff}");
    }

    /// The greedy baseline is always valid and also numerically equivalent.
    #[test]
    fn prop_greedy_schedule_valid_and_correct(seed in any::<u64>(), ops in 3usize..9) {
        let graph = arbitrary_graph(seed, ops);
        let cost = cost();
        let schedule = greedy_schedule(&graph, &cost);
        prop_assert!(schedule.validate(&graph).is_ok());
        let diff = verify_schedule(&graph, &schedule, seed ^ 0xABC);
        prop_assert_eq!(diff, 0.0, "difference {diff}");
    }
}
