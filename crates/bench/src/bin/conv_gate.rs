//! `conv_gate` — CI acceptance gate for the CPU convolution engine.
//!
//! Times the im2col + register-blocked GEMM convolution
//! ([`conv2d_packed_pooled`], the filter packed outside the timed region as
//! weight precomputation does) against the naive 7-deep reference loop
//! ([`conv2d_naive`]) on the Inception-/SqueezeNet-shaped layers of
//! [`ios_bench::conv_bench_shapes`], after first asserting the two are
//! **bit-identical** on every shape. The acceptance bar is a geometric
//! mean speedup ≥ 3×. Each row also states the kernel's arithmetic rate
//! (`gflops`) and `pct_of_peak` against the host's no-FMA `mul` + `add`
//! ceiling at the active SIMD tier, which the gate measures itself
//! ([`ios_bench::mul_add_peak_gflops`] on every worker-pool lane at once) —
//! reported, not judged.
//!
//! A machine-readable report is always written to `BENCH_conv.json` (and
//! additionally to `--json PATH` when given) so the kernel's performance
//! trajectory is tracked across PRs.
//!
//! Run with: `cargo run --release -p ios-bench --bin conv_gate`
//! (`--quick` halves the channel counts and the iteration count).

use ios_backend::ops_cpu::{conv2d_naive, conv2d_packed_pooled, conv_weights};
use ios_backend::{PackedFilter, ScratchPool, TensorData};
use ios_bench::{
    conv_bench_shapes, fmt3, geomean, maybe_write_json, mul_add_peak_gflops, paired_rounds,
    render_table, BenchOptions,
};
use serde::Serialize;
use std::hint::black_box;

#[derive(Debug, Clone, Serialize)]
struct ConvRow {
    shape: String,
    macs: u64,
    naive_ms: f64,
    gemm_ms: f64,
    speedup: f64,
    gflops: f64,
    pct_of_peak: f64,
}

#[derive(Serialize)]
struct Report {
    active_isa: String,
    lanes: usize,
    peak_gflops: f64,
    rows: Vec<ConvRow>,
    geomean_speedup: f64,
    acceptance_bar: f64,
    pass: bool,
}

fn main() {
    let opts = BenchOptions::from_args();
    let iters = if opts.quick { 3 } else { 5 };
    let arena = ScratchPool::new();
    let cases = conv_bench_shapes(opts.quick);
    let active = ios_backend::simd::active_isa();
    let lanes = ios_backend::workers::stats().lanes;
    let peak_gflops = mul_add_peak_gflops(active, lanes, iters * 3);
    println!(
        "conv_gate: {} shapes, best of {iters} runs each (active isa = {active}, mul+add peak = \
         {peak_gflops:.1} GFLOP/s on {lanes} lanes, quick = {})",
        cases.len(),
        opts.quick
    );

    let mut rows = Vec::new();
    for case in &cases {
        let input = TensorData::random(case.input, 7);
        let in_c_per_group = case.input.channels / case.params.groups;
        let weights = conv_weights(
            11,
            case.params.out_channels,
            in_c_per_group,
            case.params.kernel,
        );

        let packed = PackedFilter::pack(
            &weights,
            case.params.out_channels,
            case.params.groups,
            in_c_per_group * case.params.kernel.0 * case.params.kernel.1,
        );

        // The gate is only meaningful if the fast path is exact.
        let fast = conv2d_packed_pooled(&input, &case.params, &packed, &arena);
        let reference = conv2d_naive(&input, &case.params, &weights);
        assert_eq!(
            fast, reference,
            "{}: im2col/GEMM output must be bit-identical to the naive kernel",
            case.name
        );
        arena.recycle_tensor(fast);

        let mut naive = || drop(black_box(conv2d_naive(&input, &case.params, &weights)));
        let mut gemm = || {
            let out = conv2d_packed_pooled(&input, &case.params, &packed, &arena);
            arena.recycle_tensor(out);
        };
        let naive_ms = paired_rounds(iters, &mut [&mut naive]).best_ms(0);
        let gemm_ms = paired_rounds(iters * 3, &mut [&mut gemm]).best_ms(0);
        let gflops = case.gflops(gemm_ms);
        rows.push(ConvRow {
            shape: case.name.to_string(),
            macs: case.macs(),
            naive_ms,
            gemm_ms,
            speedup: naive_ms / gemm_ms,
            gflops,
            pct_of_peak: 100.0 * gflops / peak_gflops,
        });
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                r.macs.to_string(),
                fmt3(r.naive_ms),
                fmt3(r.gemm_ms),
                fmt3(r.speedup),
                format!("{:.1}", r.gflops),
                format!("{:.1}", r.pct_of_peak),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Convolution kernels: naive loop vs im2col + blocked GEMM",
            &[
                "shape",
                "MACs",
                "naive ms",
                "gemm ms",
                "speedup",
                "gflops",
                "pct of peak",
            ],
            &table_rows,
        )
    );

    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    let mean = geomean(&speedups);
    let bar = 3.0;
    let pass = mean >= bar;
    println!("geomean speedup: {mean:.2}x (acceptance bar: >= {bar:.2}x)");
    println!("RESULT: {}", if pass { "PASS" } else { "FAIL" });

    let report = Report {
        active_isa: active.name().to_string(),
        lanes,
        peak_gflops,
        rows,
        geomean_speedup: mean,
        acceptance_bar: bar,
        pass,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_conv.json", json) {
                eprintln!("failed to write BENCH_conv.json: {e}");
            }
        }
        Err(e) => eprintln!("failed to serialize BENCH_conv.json: {e}"),
    }
    maybe_write_json(&opts, &report);
    if !pass {
        std::process::exit(1);
    }
}
