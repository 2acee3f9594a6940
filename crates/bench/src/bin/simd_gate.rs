//! `simd_gate` — CI acceptance gate for the explicit AVX2 f32 GEMM
//! microkernel behind the runtime SIMD dispatch (`ios_backend::simd`).
//!
//! On the serving-hot layer shapes of [`ios_bench::simd_bench_shapes`],
//! each run with a full bias + residual + ReLU epilogue:
//!
//! 1. **Bit-identity across ISAs** — before any timing, the f32 kernel
//!    ([`conv2d_im2col_packed_fused`]) is run under *every* ISA this host
//!    supports via `with_forced_isa` and asserted bitwise equal to the
//!    scalar-forced reference. A single differing bit fails the gate.
//! 2. **Host-aware speedup bar** — on AVX2 hosts, the active kernel must
//!    beat the auto-vectorized SSE2-tier baseline by a geomean ≥ 1.4×;
//!    on hosts without AVX2 the explicit path does not exist, so the bar
//!    degrades to a ≥ 0.95× no-regression check against the same tier
//!    (the dispatch itself must not cost anything measurable).
//!
//! Speedups are medians of per-round paired ratios (baseline and wide
//! variants run adjacently within each round, so a noisy stretch on a
//! shared single-core CI host cancels out of the ratio, and the median
//! discards the rounds a burst split in half); the reported per-variant
//! times are best-of-N. A machine-readable report is always written to
//! `BENCH_simd.json` (and additionally to `--json PATH` when given).
//!
//! Run with: `cargo run --release -p ios-bench --bin simd_gate`
//! (`--quick` lowers the round count; the shapes stay full-size).

use ios_backend::gemm::conv2d_im2col_packed_fused;
use ios_backend::ops_cpu::conv_weights;
use ios_backend::simd::{self, Isa};
use ios_backend::{ConvEpilogue, PackedFilter, ScratchPool, TensorData};
use ios_bench::{
    fmt3, geomean, maybe_write_json, paired_rounds, render_table, simd_bench_shapes, BenchOptions,
};
use ios_ir::{Activation, Conv2dParams};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct SimdRow {
    shape: String,
    baseline_ms: f64,
    wide_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    active_isa: String,
    baseline_isa: String,
    rows: Vec<SimdRow>,
    geomean_speedup: f64,
    acceptance_bar: f64,
    bit_identical: bool,
    pass: bool,
}

fn main() {
    let opts = BenchOptions::from_args();
    let iters = if opts.quick { 9 } else { 15 };
    let arena = ScratchPool::new();
    let cases = simd_bench_shapes();

    let active = simd::active_isa();
    // On AVX2 hosts the baseline is the previous production kernel: the
    // auto-vectorized tile at the SSE2 tier. Elsewhere there is no wider
    // kernel to compare, so the "baseline" is the active tier itself and
    // the bar is a pure no-regression check on the dispatch overhead.
    let baseline = if active == Isa::Avx2 {
        Isa::Sse2
    } else {
        active
    };
    let bar = if active == Isa::Avx2 { 1.4 } else { 0.95 };
    println!(
        "simd_gate: {} shapes, best of {iters} rounds each (active isa = {active}, \
         baseline isa = {baseline}, bar = {bar:.2}x, quick = {})",
        cases.len(),
        opts.quick
    );

    let supported: Vec<Isa> = [Isa::Scalar, Isa::Sse2, Isa::Avx2]
        .into_iter()
        .filter(|&i| i <= simd::detected_isa())
        .collect();

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
        let k_len = in_c_per_group * case.params.kernel.0 * case.params.kernel.1;
        let packed = PackedFilter::pack(
            &weights,
            case.params.out_channels,
            case.params.groups,
            k_len,
        );

        // Full serving-hot epilogue so the vectorized store is on the
        // measured (and verified) path.
        let plain = Conv2dParams {
            activation: Activation::None,
            ..case.params
        };
        let bias = conv_weights(13, case.params.out_channels, 1, (1, 1));
        let out_shape = {
            let probe = conv2d_im2col_packed_fused(
                &input,
                &plain,
                &packed,
                &ConvEpilogue::default(),
                &arena,
            );
            let shape = probe.shape;
            arena.recycle_tensor(probe);
            shape
        };
        let residual = TensorData::random(out_shape, 17);
        let ep = ConvEpilogue {
            input_relu: false,
            bias: Some(&bias),
            residual: Some(&residual),
            relu: true,
        };

        let run_on = |isa: Isa| {
            simd::with_forced_isa(isa, || {
                conv2d_im2col_packed_fused(&input, &plain, &packed, &ep, &arena)
            })
        };

        // The gate is only meaningful if every ISA computes the same bits.
        let reference = run_on(Isa::Scalar);
        for &isa in &supported[1..] {
            let out = run_on(isa);
            assert_eq!(
                out, reference,
                "{}: f32 kernel must be bit-identical on {isa}",
                case.name
            );
            arena.recycle_tensor(out);
        }
        arena.recycle_tensor(reference);

        // Baseline and wide variants interleave within every round; the
        // speedup is the median of the per-round paired ratios and the
        // reported times are best-of-N (same harness as quant_gate, so
        // single-core CI hosts don't produce noisy verdicts).
        let run_packed = || {
            let out = conv2d_im2col_packed_fused(&input, &plain, &packed, &ep, &arena);
            arena.recycle_tensor(out);
        };
        let rounds = paired_rounds(
            iters,
            &mut [
                &mut || simd::with_forced_isa(baseline, run_packed),
                &mut || simd::with_forced_isa(active, run_packed),
            ],
        );
        rows.push(SimdRow {
            shape: case.name.to_string(),
            baseline_ms: rounds.best_ms(0),
            wide_ms: rounds.best_ms(1),
            speedup: rounds.median_speedup(0, 1),
        });
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                fmt3(r.baseline_ms),
                fmt3(r.wide_ms),
                fmt3(r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("f32 GEMM microkernel: {baseline} baseline vs {active}"),
            &["shape", "baseline ms", "wide ms", "speedup"],
            &table_rows,
        )
    );

    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    let mean = geomean(&speedups);
    let pass = mean >= bar;
    println!("geomean speedup: {mean:.3}x (acceptance bar: >= {bar:.2}x)");
    println!("RESULT: {}", if pass { "PASS" } else { "FAIL" });

    let report = Report {
        active_isa: active.name().to_string(),
        baseline_isa: baseline.name().to_string(),
        rows,
        geomean_speedup: mean,
        acceptance_bar: bar,
        bit_identical: true,
        pass,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_simd.json", json) {
                eprintln!("failed to write BENCH_simd.json: {e}");
            }
        }
        Err(e) => eprintln!("failed to serialize BENCH_simd.json: {e}"),
    }
    maybe_write_json(&opts, &report);
    if !pass {
        std::process::exit(1);
    }
}
