//! Criterion benchmark: cost of the IOS dynamic-programming search itself
//! (the right axis of Figure 9), as a function of the pruning parameters and
//! of the block width, and of whole networks — `optimize_network/*` times
//! what `ios_benchmark`'s `sched_search` workload times (Inception V3) and
//! reports per layer (RandWire-small): a full IOS-Both search at r = 3,
//! s = 8 against a fresh simulator cost model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ios_core::{optimize_network, schedule_graph, IosVariant, SchedulerConfig, SimCostModel};
use ios_models::{figure2_block, inception::inception_v3_last_block, worst_case_chains};
use ios_sim::{DeviceKind, Simulator};

fn bench_pruning(c: &mut Criterion) {
    let graph = inception_v3_last_block(1);
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let mut group = c.benchmark_group("scheduler/pruning");
    group.sample_size(10);
    for (r, s) in [(1usize, 3usize), (2, 3), (3, 3), (3, 8)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("r{r}_s{s}")),
            &(r, s),
            |b, &(r, s)| {
                let config = SchedulerConfig::for_variant(IosVariant::Both).with_pruning(r, s);
                b.iter(|| schedule_graph(&graph, &cost, &config));
            },
        );
    }
    group.finish();
}

fn bench_block_width(c: &mut Criterion) {
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let config = SchedulerConfig::paper_default();
    let mut group = c.benchmark_group("scheduler/width");
    group.sample_size(10);
    for width in [2usize, 3, 4] {
        let net = worst_case_chains(width, 3, 1);
        let graph = net.blocks[0].graph.clone();
        group.bench_with_input(BenchmarkId::from_parameter(width), &graph, |b, graph| {
            b.iter(|| schedule_graph(graph, &cost, &config));
        });
    }
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let net = figure2_block(1);
    let graph = net.blocks[0].graph.clone();
    let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
    let mut group = c.benchmark_group("scheduler/variant");
    group.sample_size(20);
    for variant in [IosVariant::Merge, IosVariant::Parallel, IosVariant::Both] {
        group.bench_with_input(
            BenchmarkId::from_parameter(variant.to_string()),
            &variant,
            |b, &v| {
                let config = SchedulerConfig::for_variant(v);
                b.iter(|| schedule_graph(&graph, &cost, &config));
            },
        );
    }
    group.finish();
}

fn bench_networks(c: &mut Criterion) {
    let config = SchedulerConfig::paper_default();
    let mut group = c.benchmark_group("optimize_network");
    group.sample_size(10);
    for (name, network) in [
        ("inception_v3", ios_models::inception_v3(1)),
        ("randwire_small", ios_models::randwire_small(1)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &network, |b, network| {
            b.iter(|| {
                let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
                optimize_network(network, &cost, &config)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pruning,
    bench_block_width,
    bench_variants,
    bench_networks
);
criterion_main!(benches);
