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
//! informationally (`fused@act ms` and `int8 x@act` columns, the
//! `int8_vs_active_geomean` fact) without a bar; the cross-tier f32
//! comparison itself is `simd_gate`'s job. On AVX2 hosts int8's value is
//! the ~4× smaller weight cache, not latency — see the README "Quantized
//! execution" section.
//!
//! Speedups are medians of per-round paired ratios (the variants run
//! adjacently within each round, so a noisy stretch on a shared host
//! cancels out of the ratio); the reported per-variant times are
//! best-of-N. Judged and reported (`BENCH_quant.json`) through
//! [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin quant_gate`
//! (`--quick` lowers the iteration count; the shapes stay full-size).

use ios_backend::ops_cpu::conv2d_naive_quant;
use ios_backend::simd::{self, Isa};
use ios_backend::{conv2d, sample_scale, ConvEpilogue, ConvKernel, QuantizedFilter, ScratchPool};
use ios_bench::{cells, geomean, paired_rounds, quant_bench_shapes, Gate, Table};
use std::process::ExitCode;

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

fn main() -> ExitCode {
    let mut gate = Gate::from_args("quant");
    // The fusion bar is a ~5 % effect, so even quick mode needs enough
    // paired rounds for the per-round median to settle on a 1-core host.
    let iters = if gate.opts.quick { 13 } else { 21 };
    let arena = ScratchPool::new();
    let cases = quant_bench_shapes();
    // The fusion and int8 bars are calibrated against the SSE2-tier f32
    // kernel (see the module docs); the active tier rides along unbarred.
    let pinned = Isa::Sse2.min(simd::detected_isa());
    gate.fact("pinned_isa", pinned.name());
    gate.fact("paired_rounds", iters);

    // The byte-identity oracle run is O(naive); do it once, on the
    // cheapest shape.
    let oracle_shape = cases
        .iter()
        .min_by_key(|c| c.input.num_elements())
        .map(|c| c.name)
        .unwrap_or_default();

    let mut table = Table::new(
        "Epilogue fusion + int8: separate passes vs fused f32 (pinned tier) vs quantized",
        &[
            ("shape", "shape"),
            ("baseline_ms", "separate ms"),
            ("fused_ms", "fused ms"),
            ("fused_active_ms", "fused@act ms"),
            ("int8_ms", "int8 ms"),
            ("fused_speedup", "fuse x"),
            ("int8_speedup", "int8 x"),
            ("int8_vs_active_fused", "int8 x@act"),
            ("max_calibration_error", "max |err|"),
            ("calibration_bound", "|err| bound"),
        ],
    );
    let mut calibration_ok = true;
    for case in &cases {
        let (input, weights, packed) = case.operands();
        let (out_channels, k_len) = (case.params.out_channels, case.k_len());
        let quant = QuantizedFilter::quantize(&weights, out_channels, case.params.groups, k_len);
        let int8 = ConvKernel::Int8(quant.clone());

        // Epilogue operands: per-output-channel bias and a full residual
        // tensor, applied with ReLU — the serving-hot epilogue shape.
        let (plain, bias, residual) = case.epilogue_operands();
        let out_shape = residual.shape;
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
            let conv = conv2d(&input, &plain, &packed, &ConvEpilogue::default(), &arena);
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
        let run_fused = || conv2d(&input, &plain, &packed, &ep, &arena);
        let run_int8 = || conv2d(&input, &plain, &int8, &ep, &arena);

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
        table.row(cells![
            case.name,
            rounds.best_ms(0),
            rounds.best_ms(1),
            rounds.best_ms(2),
            rounds.best_ms(3),
            rounds.median_speedup(0, 1),
            rounds.median_speedup(1, 3),
            rounds.median_speedup(2, 3),
            max_err,
            bound,
        ]);
    }
    gate.table(&table);

    gate.fact(
        "int8_vs_active_geomean",
        geomean(&table.column("int8_vs_active_fused")),
    );
    gate.at_least(
        format!("fused-f32 geomean speedup over separate passes ({pinned} tier)"),
        geomean(&table.column("fused_speedup")),
        1.01,
    );
    gate.at_least(
        format!("int8 geomean speedup over fused-f32 ({pinned} tier)"),
        geomean(&table.column("int8_speedup")),
        INT8_BAR,
    );
    gate.check(
        "calibration error within bound on every shape",
        calibration_ok,
    );
    gate.finish()
}
