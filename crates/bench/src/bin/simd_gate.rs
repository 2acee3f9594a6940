//! `simd_gate` — CI acceptance gate for the explicit-vector tiers of the
//! f32 GEMM microkernel behind the runtime SIMD dispatch
//! (`ios_backend::simd`).
//!
//! On the serving-hot layer shapes of [`ios_bench::simd_bench_shapes`],
//! each run with a full bias + residual + ReLU epilogue:
//!
//! 1. **Bit-identity across ISAs** — before any timing, the f32 kernel
//!    ([`conv2d_im2col_packed_fused`]) is run under *every* ISA this host
//!    supports via `with_forced_isa` and asserted bitwise equal to the
//!    scalar-forced reference. A single differing bit fails the gate.
//! 2. **Host-aware speedup bar** — at AVX2 and wider, the active kernel
//!    must beat the auto-vectorized SSE2-tier baseline by a geomean ≥ 1.4×;
//!    below AVX2 no explicit tier exists, so the bar degrades to a ≥ 0.95×
//!    no-regression check against the same tier (the dispatch itself must
//!    not cost anything measurable).
//! 3. **No explicit tier slower than the one below it** — on every row
//!    the active tier must reach ≥ 0.95× of the next narrower tier
//!    (AVX-512 vs AVX2, AVX2 vs SSE2): a wider tile never loses a shape.
//! 4. **Roofline** — each row states its arithmetic rate (`gflops`) and
//!    `pct_of_peak` against the host's no-FMA `mul` + `add` ceiling at the
//!    active width, which the gate measures itself
//!    ([`ios_bench::mul_add_peak_gflops`] on every worker-pool lane at
//!    once). Reported, not judged.
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
    fmt3, geomean, maybe_write_json, mul_add_peak_gflops, paired_rounds, render_table,
    simd_bench_shapes, BenchOptions,
};
use ios_ir::{Activation, Conv2dParams};
use serde::Serialize;

#[derive(Debug, Clone, Serialize)]
struct SimdRow {
    shape: String,
    baseline_ms: f64,
    /// Best time at the tier just below the active one (`None` below
    /// AVX2, where every tier runs the same portable row).
    next_narrower_ms: Option<f64>,
    wide_ms: f64,
    speedup: f64,
    /// Median paired ratio next-narrower ÷ active.
    narrower_speedup: Option<f64>,
    gflops: f64,
    pct_of_peak: f64,
}

#[derive(Serialize)]
struct Report {
    active_isa: String,
    baseline_isa: String,
    next_narrower_isa: Option<String>,
    lanes: usize,
    peak_gflops: f64,
    rows: Vec<SimdRow>,
    geomean_speedup: f64,
    acceptance_bar: f64,
    min_narrower_speedup: Option<f64>,
    narrower_bar: f64,
    bit_identical: bool,
    pass: bool,
}

fn main() {
    let opts = BenchOptions::from_args();
    let iters = if opts.quick { 9 } else { 15 };
    let arena = ScratchPool::new();
    let cases = simd_bench_shapes();

    let active = simd::active_isa();
    let supported = simd::supported_isas();
    // At an explicit-vector tier the baseline is the auto-vectorized tile
    // at the SSE2 tier. Below there is no wider kernel to compare, so the
    // "baseline" is the active tier itself and the bar is a pure
    // no-regression check on the dispatch overhead.
    let explicit = active >= Isa::Avx2;
    let baseline = if explicit { Isa::Sse2 } else { active };
    let bar = if explicit { 1.4 } else { 0.95 };
    // The tier just below an explicit one. (Scalar and SSE2 run the same
    // portable row, so below AVX2 there is no narrower f32 kernel.)
    let narrower = supported.iter().copied().rfind(|&i| explicit && i < active);
    let narrower_bar = 0.95;
    // The tiers timed, interleaved within every round: the baseline first,
    // the active tier last (a second run of the baseline's tier below AVX2),
    // the next narrower tier between them unless it is the baseline.
    let mut tiers = vec![baseline];
    let narrower_index = narrower.map(|n| {
        if n != baseline {
            tiers.push(n);
        }
        tiers.len() - 1
    });
    tiers.push(active);
    let active_index = tiers.len() - 1;
    let lanes = ios_backend::workers::stats().lanes;
    let peak_gflops = mul_add_peak_gflops(active, lanes, iters);
    println!(
        "simd_gate: {} shapes, best of {iters} rounds each (active isa = {active}, \
         baseline isa = {baseline}, bar = {bar:.2}x, mul+add peak = {peak_gflops:.1} GFLOP/s \
         on {lanes} lanes, quick = {})",
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

        // The tiers interleave within every round; a speedup is the median
        // of the per-round paired ratios and the reported times are
        // best-of-N (same harness as quant_gate, so single-core CI hosts
        // don't produce noisy verdicts).
        let run_packed = || {
            let out = conv2d_im2col_packed_fused(&input, &plain, &packed, &ep, &arena);
            arena.recycle_tensor(out);
        };
        let mut runs: Vec<_> = tiers
            .iter()
            .map(|&tier| move || simd::with_forced_isa(tier, run_packed))
            .collect();
        let mut variants: Vec<&mut dyn FnMut()> =
            runs.iter_mut().map(|r| r as &mut dyn FnMut()).collect();
        let rounds = paired_rounds(iters, &mut variants);
        let wide_ms = rounds.best_ms(active_index);
        let gflops = case.gflops(wide_ms);
        rows.push(SimdRow {
            shape: case.name.to_string(),
            baseline_ms: rounds.best_ms(0),
            next_narrower_ms: narrower_index.map(|n| rounds.best_ms(n)),
            wide_ms,
            speedup: rounds.median_speedup(0, active_index),
            narrower_speedup: narrower_index.map(|n| rounds.median_speedup(n, active_index)),
            gflops,
            pct_of_peak: 100.0 * gflops / peak_gflops,
        });
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let or_dash = |v: Option<f64>| v.map_or_else(|| "-".to_string(), fmt3);
            vec![
                r.shape.clone(),
                fmt3(r.baseline_ms),
                or_dash(r.next_narrower_ms),
                fmt3(r.wide_ms),
                fmt3(r.speedup),
                or_dash(r.narrower_speedup),
                format!("{:.1}", r.gflops),
                format!("{:.1}", r.pct_of_peak),
            ]
        })
        .collect();
    let narrower_name = narrower.map_or("-", Isa::name);
    println!(
        "{}",
        render_table(
            &format!(
                "f32 GEMM microkernel: {baseline} baseline and next narrower \
                 ({narrower_name}) vs {active}"
            ),
            &[
                "shape",
                "baseline ms",
                "next narrower ms",
                "wide ms",
                "speedup",
                "vs narrower",
                "gflops",
                "pct of peak",
            ],
            &table_rows,
        )
    );

    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    let mean = geomean(&speedups);
    let min_narrower = rows
        .iter()
        .filter_map(|r| r.narrower_speedup)
        .reduce(f64::min);
    let pass = mean >= bar && min_narrower.is_none_or(|m| m >= narrower_bar);
    println!("geomean speedup: {mean:.3}x (acceptance bar: >= {bar:.2}x)");
    if let Some(m) = min_narrower {
        println!(
            "slowest row vs {narrower_name}: {m:.3}x (no-regression bar: >= {narrower_bar:.2}x)"
        );
    }
    println!("RESULT: {}", if pass { "PASS" } else { "FAIL" });

    let report = Report {
        active_isa: active.name().to_string(),
        baseline_isa: baseline.name().to_string(),
        next_narrower_isa: narrower.map(|n| n.name().to_string()),
        lanes,
        peak_gflops,
        rows,
        geomean_speedup: mean,
        acceptance_bar: bar,
        min_narrower_speedup: min_narrower,
        narrower_bar,
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
