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
//! 2. **Int8 within its calibration bound** — the quantized output is
//!    **byte-identical** to the naive integer oracle on the smallest
//!    shape, and the calibration error against the f32 kernel stays within
//!    the documented `k_len · s_in · s_w[oc] · 128` bound on every shape.
//!
//! Everything runs at the active tier. The fused bar is a *no-regression
//! floor*, not a magnitude claim: the saving is a few percent of a layer
//! and its run-to-run spread reaches ±0.03 on the 1-core CI host, so the
//! bar sits at 1.01× — it trips the moment fusion stops paying for itself
//! while staying clear of scheduler noise. Int8 has no latency bar: from
//! AVX2 up the f32 tile is one `vfmadd231ps` per sixteen MACs and outruns
//! the `vpmaddwd` path outright, and below AVX2 the f32 tiers are `fmaf`
//! reference tiers nobody serves from. Int8's value is the ~4× smaller
//! weight cache — see the README "Quantized execution" section — so its
//! time and the int8-vs-f32 ratio are reported (`int8 ms`, `int8 x`, the
//! `int8_vs_active_geomean` fact), not judged.
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
use ios_backend::{conv2d, sample_scale, ConvEpilogue, ConvKernel, QuantizedFilter, ScratchPool};
use ios_bench::{cells, geomean, paired_rounds, quant_bench_shapes, Gate, Table};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut gate = Gate::from_args("quant");
    // The fusion bar is a ~5 % effect, so even quick mode needs enough
    // paired rounds for the per-round median to settle on a 1-core host.
    let iters = if gate.opts.quick { 13 } else { 21 };
    let arena = ScratchPool::new();
    let cases = quant_bench_shapes();
    gate.fact("paired_rounds", iters);

    // The byte-identity oracle run is O(naive); do it once, on the
    // cheapest shape.
    let oracle_shape = cases
        .iter()
        .min_by_key(|c| c.input.num_elements())
        .map(|c| c.name)
        .unwrap_or_default();

    let mut table = Table::new(
        "Epilogue fusion + int8: separate passes vs fused f32 vs quantized",
        &[
            ("shape", "shape"),
            ("baseline_ms", "separate ms"),
            ("fused_ms", "fused ms"),
            ("int8_ms", "int8 ms"),
            ("fused_speedup", "fuse x"),
            ("int8_vs_active_fused", "int8 x"),
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
        let rounds = paired_rounds(
            iters,
            &mut [
                &mut || arena.recycle_tensor(run_baseline()),
                &mut || arena.recycle_tensor(run_fused()),
                &mut || arena.recycle_tensor(run_int8()),
            ],
        );
        table.row(cells![
            case.name,
            rounds.best_ms(0),
            rounds.best_ms(1),
            rounds.best_ms(2),
            rounds.median_speedup(0, 1),
            rounds.median_speedup(1, 2),
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
        "fused-f32 geomean speedup over separate passes",
        geomean(&table.column("fused_speedup")),
        1.01,
    );
    gate.check(
        "calibration error within bound on every shape",
        calibration_ok,
    );
    gate.finish()
}
