//! Criterion micro-bench: the im2col + blocked-GEMM convolution engine vs
//! the naive 7-deep reference loop, on Inception- and SqueezeNet-shaped
//! layers. The CI acceptance gate for the same comparison lives in
//! `src/bin/conv_gate.rs`; this bench is for profiling kernel changes.
//!
//! Run with: `cargo bench -p ios-bench --bench conv_kernels`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ios_backend::ops_cpu::conv2d_naive;
use ios_backend::{conv2d, ConvEpilogue, ScratchPool};
use ios_bench::conv_bench_shapes;

fn bench_conv_kernels(c: &mut Criterion) {
    let arena = ScratchPool::new();
    let mut group = c.benchmark_group("conv_kernels");
    group.sample_size(5);
    for case in conv_bench_shapes(true) {
        let (input, weights, packed) = case.operands();
        group.bench_with_input(BenchmarkId::new("naive", case.name), &case, |b, case| {
            b.iter(|| conv2d_naive(&input, &case.params, &weights))
        });
        group.bench_with_input(
            BenchmarkId::new("im2col_gemm", case.name),
            &case,
            |b, case| {
                b.iter(|| {
                    let out = conv2d(
                        &input,
                        &case.params,
                        &packed,
                        &ConvEpilogue::default(),
                        &arena,
                    );
                    arena.recycle_tensor(out);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_conv_kernels);
criterion_main!(benches);
