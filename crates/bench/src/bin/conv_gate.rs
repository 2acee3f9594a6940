//! `conv_gate` — CI acceptance gate for the CPU convolution engine.
//!
//! Times the im2col + register-blocked GEMM convolution
//! ([`conv2d`], the filter packed outside the timed region as
//! weight precomputation does) against the naive 7-deep reference loop
//! ([`conv2d_naive`]) on the Inception-/SqueezeNet-shaped layers of
//! [`ios_bench::conv_bench_shapes`], after first asserting the two are
//! **bit-identical** on every shape. The acceptance bar is a geometric
//! mean speedup ≥ 3×. Each row also states the kernel's arithmetic rate
//! (`gflops`) and `pct_of_peak` against the host's FMA ceiling at the
//! active SIMD tier, which the gate measures itself
//! ([`ios_bench::mul_add_peak_gflops`] on every worker-pool lane at once) —
//! reported, not judged; a row above 100 % would be a bug in the probe.
//!
//! Judged and reported (`BENCH_conv.json`) through [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin conv_gate`
//! (`--quick` halves the channel counts and the iteration count).

use ios_backend::ops_cpu::conv2d_naive;
use ios_backend::{conv2d, ConvEpilogue, ScratchPool};
use ios_bench::{
    cells, conv_bench_shapes, geomean, mul_add_peak_gflops, paired_rounds, Cell, Gate, Table,
};
use std::hint::black_box;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut gate = Gate::from_args("conv");
    let iters = if gate.opts.quick { 3 } else { 5 };
    let arena = ScratchPool::new();
    let unfused = ConvEpilogue::default();
    let cases = conv_bench_shapes(gate.opts.quick);
    let active = ios_backend::simd::active_isa();
    let peak_gflops = mul_add_peak_gflops(active, gate.host.lanes, iters * 3);
    gate.fact("timed_runs", iters);
    gate.fact("peak_gflops", peak_gflops);

    let mut table = Table::new(
        "Convolution kernels: naive loop vs im2col + blocked GEMM",
        &[
            ("shape", "shape"),
            ("macs", "MACs"),
            ("naive_ms", "naive ms"),
            ("gemm_ms", "gemm ms"),
            ("speedup", "speedup"),
            ("gflops", "gflops"),
            ("pct_of_peak", "pct of peak"),
        ],
    );
    for case in &cases {
        let (input, weights, packed) = case.operands();

        // The gate is only meaningful if the fast path is exact.
        let fast = conv2d(&input, &case.params, &packed, &unfused, &arena);
        let reference = conv2d_naive(&input, &case.params, &weights);
        assert_eq!(
            fast, reference,
            "{}: im2col/GEMM output must be bit-identical to the naive kernel",
            case.name
        );
        arena.recycle_tensor(fast);

        let mut naive = || drop(black_box(conv2d_naive(&input, &case.params, &weights)));
        let mut gemm = || {
            let out = conv2d(&input, &case.params, &packed, &unfused, &arena);
            arena.recycle_tensor(out);
        };
        let naive_ms = paired_rounds(iters, &mut [&mut naive]).best_ms(0);
        let gemm_ms = paired_rounds(iters * 3, &mut [&mut gemm]).best_ms(0);
        let gflops = case.gflops(gemm_ms);
        table.row(cells![
            case.name,
            case.macs(),
            naive_ms,
            gemm_ms,
            naive_ms / gemm_ms,
            Cell::Num(gflops, 1),
            Cell::Num(100.0 * gflops / peak_gflops, 1),
        ]);
    }
    gate.table(&table);

    let mean = geomean(&table.column("speedup"));
    gate.at_least("geomean speedup, GEMM vs naive", mean, 3.0);
    gate.finish()
}
