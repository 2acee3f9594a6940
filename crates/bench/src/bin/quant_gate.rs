//! `quant_gate` — CI acceptance gate for epilogue fusion and the int8
//! quantized execution path.
//!
//! On the serving-hot layer shapes of [`ios_bench::quant_bench_shapes`] —
//! the backbone layers that actually carry epilogues — each run with a
//! full bias + residual + ReLU epilogue:
//!
//! 1. **Fused f32 ≥ 1.01×** (geomean) over the PR-4 baseline — the packed
//!    kernel followed by bias, residual-add and ReLU executed the way the
//!    pre-fusion engine served them: as separate elementwise ops, each
//!    writing a fresh arena tensor — after asserting the fused path is
//!    **bit-identical** to those separate passes.
//! 2. **Int8 ≥ 1.48×** (geomean) over the fused f32 kernel, with the
//!    quantized output **byte-identical** to the naive integer oracle on
//!    the smallest shape, and the calibration error against the f32 kernel
//!    within the documented `k_len · s_in · s_w[oc] · 128` bound on every
//!    shape.
//!
//! Both f32 references are *pinned at the SSE2 tier* (forced through the
//! dispatch module), the tier these bars were calibrated against in
//! PR 7 — a gate baseline should stay fixed so the bars keep detecting
//! regressions in the paths this gate owns (fusion and the int8 kernel)
//! rather than flipping whenever a wider f32 tier improves. The pin names
//! a tier, not a frozen kernel, so the int8 bar is spelled as what it was
//! calibrated to and what has moved under it since ([`INT8_BAR`]). The fused
//! bar is a *no-regression floor*, not a magnitude claim: the measured
//! geomean is ~1.05× on the 1-core CI host but its run-to-run spread
//! reaches ±0.03, so the bar sits at 1.01× — it trips the moment fusion
//! stops paying for itself while staying clear of scheduler noise. The
//! explicit AVX2 f32 tile (PR 9) outruns the int8 path outright, so the
//! active-tier fused time and the int8-vs-active ratio are reported
//! informationally (`fuse x@act` column, `int8_vs_active_*` JSON fields)
//! without a bar; the cross-tier f32 comparison itself is `simd_gate`'s
//! job. On AVX2 hosts int8's value is the ~4× smaller weight cache, not
//! latency — see the README "Quantized execution" section.
//!
//! Speedups are medians of per-round paired ratios (the variants run
//! adjacently within each round, so a noisy stretch on a shared host
//! cancels out of the ratio); the reported per-variant times are
//! best-of-N. A machine-readable report is always written to
//! `BENCH_quant.json` (and additionally to `--json PATH` when given).
//!
//! Run with: `cargo run --release -p ios-bench --bin quant_gate`
//! (`--quick` lowers the iteration count; the shapes stay full-size).

use ios_backend::gemm::{conv2d_im2col_packed_fused, conv2d_im2col_quant_fused};
use ios_backend::ops_cpu::{conv2d_naive_quant, conv2d_packed_pooled, conv_weights};
use ios_backend::simd::{self, Isa};
use ios_backend::{
    sample_scale, ConvEpilogue, PackedFilter, QuantizedFilter, ScratchPool, TensorData,
};
use ios_bench::{
    fmt3, geomean, maybe_write_json, paired_rounds, quant_bench_shapes, render_table, BenchOptions,
};
use ios_ir::{Activation, Conv2dParams};
use serde::Serialize;

/// The int8 bar: PR 7 calibrated it as ≥ 1.8× over the SSE2-tier f32
/// tile of its day. PR 16 wrote that tile once for every tier, which took
/// the per-k-step slice bounds checks out of the SSE2 tier's loop: on this
/// gate's shapes the pinned f32 reference became 1.22× faster (sixteen
/// alternated parent/change runs, int8 ÷ pinned-f32 1.85 → 1.51) while
/// int8 did not move (int8 ÷ the AVX2 f32 tile, whose loop is the
/// parent's: 0.79 → 0.82). The same int8 time therefore reads
/// 1.8 / 1.22 = 1.48 — the bar asks of the int8 kernel exactly what it
/// asked before, no less and with no margin added.
const INT8_BAR: f64 = 1.48;

#[derive(Debug, Clone, Serialize)]
struct QuantRow {
    shape: String,
    baseline_ms: f64,
    fused_ms: f64,
    fused_active_ms: f64,
    int8_ms: f64,
    fused_speedup: f64,
    int8_speedup: f64,
    int8_vs_active_fused: f64,
    max_calibration_error: f64,
    calibration_bound: f64,
}

#[derive(Serialize)]
struct Report {
    pinned_isa: String,
    active_isa: String,
    rows: Vec<QuantRow>,
    fused_geomean_speedup: f64,
    int8_geomean_speedup: f64,
    int8_vs_active_geomean: f64,
    fused_acceptance_bar: f64,
    int8_acceptance_bar: f64,
    pass: bool,
}

fn main() {
    let opts = BenchOptions::from_args();
    // The fusion bar is a ~5 % effect, so even quick mode needs enough
    // paired rounds for the per-round median to settle on a 1-core host.
    let iters = if opts.quick { 13 } else { 21 };
    let arena = ScratchPool::new();
    let cases = quant_bench_shapes();
    // The fusion and int8 bars are calibrated against the SSE2-tier f32
    // kernel (see the module docs); the active tier rides along unbarred.
    let pinned = Isa::Sse2.min(simd::detected_isa());
    let active = simd::active_isa();
    println!(
        "quant_gate: {} shapes, best of {iters} runs each (f32 reference pinned at {pinned}, \
         active isa = {active}, quick = {})",
        cases.len(),
        opts.quick
    );

    // The byte-identity oracle run is O(naive); do it once, on the
    // cheapest shape.
    let oracle_shape = cases
        .iter()
        .min_by_key(|c| c.input.num_elements())
        .map(|c| c.name)
        .unwrap_or_default();

    let mut rows = Vec::new();
    let mut calibration_ok = true;
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
        let quant = QuantizedFilter::quantize(
            &weights,
            case.params.out_channels,
            case.params.groups,
            k_len,
        );

        // Epilogue operands: per-output-channel bias and a full residual
        // tensor, applied with ReLU — the serving-hot epilogue shape.
        let plain = Conv2dParams {
            activation: Activation::None,
            ..case.params
        };
        let out_channels = case.params.out_channels;
        let bias = conv_weights(13, out_channels, 1, (1, 1));
        let out_shape = {
            let probe = conv2d_packed_pooled(&input, &plain, &packed, &arena);
            let shape = probe.shape;
            arena.recycle_tensor(probe);
            shape
        };
        let residual = TensorData::random(out_shape, 17);
        let plane = out_shape.height * out_shape.width;
        let ep = ConvEpilogue {
            input_relu: false,
            bias: Some(&bias),
            residual: Some(&residual),
            relu: true,
        };

        // PR-4 baseline: the packed kernel, then bias, residual-add and
        // ReLU the way the pre-fusion engine actually served them — as
        // separate elementwise graph ops, each reading its input and
        // writing a fresh arena tensor (the same arithmetic order the
        // fused store uses, so the bit-identity assert below holds).
        let run_baseline = || {
            let conv = conv2d_packed_pooled(&input, &plain, &packed, &arena);
            let mut biased = arena.take_tensor(conv.shape);
            for n in 0..conv.shape.batch {
                for (oc, &bv) in bias.iter().enumerate() {
                    let start = (n * out_channels + oc) * plane;
                    let src = &conv.data[start..start + plane];
                    for (d, &v) in biased.data[start..start + plane].iter_mut().zip(src) {
                        *d = v + bv;
                    }
                }
            }
            arena.recycle_tensor(conv);
            let mut added = arena.take_tensor(biased.shape);
            for ((d, &v), &r) in added.data.iter_mut().zip(&biased.data).zip(&residual.data) {
                *d = v + r;
            }
            arena.recycle_tensor(biased);
            let mut out = arena.take_tensor(added.shape);
            for (d, &v) in out.data.iter_mut().zip(&added.data) {
                *d = v.max(0.0);
            }
            arena.recycle_tensor(added);
            out
        };
        let run_fused = || conv2d_im2col_packed_fused(&input, &plain, &packed, &ep, &arena);
        let run_int8 = || conv2d_im2col_quant_fused(&input, &plain, &quant, &ep, &arena);

        // The gate is only meaningful if fusion is exact.
        let baseline_out = run_baseline();
        let fused_out = run_fused();
        assert_eq!(
            fused_out, baseline_out,
            "{}: fused epilogue must be bit-identical to the separate passes",
            case.name
        );
        arena.recycle_tensor(baseline_out);

        // Int8 accuracy: calibration bound on every shape, byte-identity
        // to the naive integer oracle on the cheapest one.
        let int8_out = run_int8();
        if case.name == oracle_shape {
            let oracle = conv2d_naive_quant(&input, &plain, &quant, &ep);
            assert_eq!(
                int8_out, oracle,
                "{}: int8 fast path must be byte-identical to the naive oracle",
                case.name
            );
        }
        let s_in = sample_scale(&input.data, false);
        let mut max_err = 0.0f64;
        let mut bound = 0.0f64;
        for oc in 0..out_channels {
            let oc_bound = f64::from(k_len as f32 * s_in * quant.scales()[oc] * 128.0);
            bound = bound.max(oc_bound);
            for n in 0..out_shape.batch {
                let start = (n * out_channels + oc) * plane;
                for i in 0..plane {
                    let d = f64::from((int8_out.data[start + i] - fused_out.data[start + i]).abs());
                    max_err = max_err.max(d);
                    if d > oc_bound {
                        calibration_ok = false;
                    }
                }
            }
        }
        arena.recycle_tensor(fused_out);
        arena.recycle_tensor(int8_out);

        // The variants are interleaved within every round, and each
        // speedup is the *median of the per-round paired ratios*: a noisy
        // stretch on the (shared) host covers a whole adjacent
        // baseline/fused/int8 group, so the round's ratio stays clean
        // even when its absolute times do not, and the median discards the
        // rounds a burst split in half. The reported times are best-of-N.
        // Baseline and barred-fused run at the pinned tier; the active-tier
        // fused time and int8 run at the live dispatch.
        let rounds = paired_rounds(
            iters,
            &mut [
                &mut || simd::with_forced_isa(pinned, || arena.recycle_tensor(run_baseline())),
                &mut || simd::with_forced_isa(pinned, || arena.recycle_tensor(run_fused())),
                &mut || arena.recycle_tensor(run_fused()),
                &mut || arena.recycle_tensor(run_int8()),
            ],
        );
        rows.push(QuantRow {
            shape: case.name.to_string(),
            baseline_ms: rounds.best_ms(0),
            fused_ms: rounds.best_ms(1),
            fused_active_ms: rounds.best_ms(2),
            int8_ms: rounds.best_ms(3),
            fused_speedup: rounds.median_speedup(0, 1),
            int8_speedup: rounds.median_speedup(1, 3),
            int8_vs_active_fused: rounds.median_speedup(2, 3),
            max_calibration_error: max_err,
            calibration_bound: bound,
        });
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                fmt3(r.baseline_ms),
                fmt3(r.fused_ms),
                fmt3(r.fused_active_ms),
                fmt3(r.int8_ms),
                fmt3(r.fused_speedup),
                fmt3(r.int8_speedup),
                fmt3(r.int8_vs_active_fused),
                format!("{:.2e}", r.max_calibration_error),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Epilogue fusion + int8: separate passes vs fused f32 (pinned tier) vs quantized",
            &[
                "shape",
                "separate ms",
                "fused ms",
                "fused@act ms",
                "int8 ms",
                "fuse x",
                "int8 x",
                "int8 x@act",
                "max |err|",
            ],
            &table_rows,
        )
    );

    let fused_mean = geomean(&rows.iter().map(|r| r.fused_speedup).collect::<Vec<_>>());
    let int8_mean = geomean(&rows.iter().map(|r| r.int8_speedup).collect::<Vec<_>>());
    let active_mean = geomean(
        &rows
            .iter()
            .map(|r| r.int8_vs_active_fused)
            .collect::<Vec<_>>(),
    );
    let fused_bar = 1.01;
    let int8_bar = INT8_BAR;
    let pass = fused_mean >= fused_bar && int8_mean >= int8_bar && calibration_ok;
    println!(
        "fused-f32 geomean speedup ({pinned} tier): {fused_mean:.3}x (bar: >= {fused_bar:.2}x)"
    );
    println!(
        "int8 geomean speedup over fused-f32 ({pinned} tier): {int8_mean:.3}x (bar: >= {int8_bar:.2}x)"
    );
    println!(
        "int8 geomean vs fused-f32 at the active tier ({active}): {active_mean:.3}x (informational)"
    );
    println!(
        "calibration: {}",
        if calibration_ok {
            "within bound on every shape"
        } else {
            "BOUND EXCEEDED"
        }
    );
    println!("RESULT: {}", if pass { "PASS" } else { "FAIL" });

    let report = Report {
        pinned_isa: pinned.name().to_string(),
        active_isa: active.name().to_string(),
        rows,
        fused_geomean_speedup: fused_mean,
        int8_geomean_speedup: int8_mean,
        int8_vs_active_geomean: active_mean,
        fused_acceptance_bar: fused_bar,
        int8_acceptance_bar: int8_bar,
        pass,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write("BENCH_quant.json", json) {
                eprintln!("failed to write BENCH_quant.json: {e}");
            }
        }
        Err(e) => eprintln!("failed to serialize BENCH_quant.json: {e}"),
    }
    maybe_write_json(&opts, &report);
    if !pass {
        std::process::exit(1);
    }
}
