//! `conv_gate` — CI acceptance gate for the CPU convolution engine.
//!
//! Two tables, two bars:
//!
//! 1. **GEMM ≥ 3× naive** (geomean) — times the im2col + register-blocked
//!    GEMM convolution ([`conv2d`], the filter packed outside the timed
//!    region as weight precomputation does) against the naive 7-deep
//!    reference loop ([`conv2d_naive`]) on the Inception-/SqueezeNet-shaped
//!    layers of [`ios_bench::conv_bench_shapes`], after first asserting the
//!    two are **bit-identical** on every shape. Each row also states the
//!    kernel's arithmetic rate (`gflops`) and `pct_of_peak` against the
//!    host's FMA ceiling at the active SIMD tier, which the gate measures
//!    itself ([`ios_bench::mul_add_peak_gflops`] on every worker-pool lane at
//!    once) — reported, not judged; a row above 100 % would be a bug in the
//!    probe.
//! 2. **Fused epilogue ≥ 1.01×** (geomean) — on the backbone layers of
//!    [`ios_bench::epilogue_bench_shapes`] that actually carry a bias +
//!    residual + ReLU epilogue, the packed kernel with the epilogue fused
//!    into its tile writeback against the same kernel followed by bias,
//!    residual-add and ReLU executed the way the pre-fusion engine served
//!    them: as separate elementwise ops, each writing a fresh arena tensor —
//!    after asserting the fused path is **bit-identical** to those separate
//!    passes. The bar is a *no-regression floor*, not a magnitude claim: the
//!    saving is a few percent of a layer and its run-to-run spread reaches
//!    ±0.03 on a 1-core host, so it sits at 1.01× — it trips the moment
//!    fusion stops paying for itself while staying clear of scheduler noise.
//!    Its speedups are medians of per-round paired ratios (the two variants
//!    run adjacently within each round, so a noisy stretch on a shared host
//!    cancels out of the ratio); the reported times are best-of-N.
//!
//! Everything runs at the active tier. Judged and reported
//! (`BENCH_conv.json`) through [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin conv_gate`
//! (`--quick` halves the first table's channel counts and lowers both
//! tables' iteration counts; the epilogue shapes stay full-size).

use ios_backend::ops_cpu::conv2d_naive;
use ios_backend::{conv2d, ConvEpilogue, ScratchPool};
use ios_bench::{
    cells, conv_bench_shapes, epilogue_bench_shapes, geomean, mul_add_peak_gflops, paired_rounds,
    Cell, Gate, Table,
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
    epilogue_rows(&mut gate, &arena);
    gate.finish()
}

/// The fused-epilogue rows: bit-identity to the separate passes, then both
/// variants timed in paired rounds, judged on the geomean of their ratios.
fn epilogue_rows(gate: &mut Gate, arena: &ScratchPool) {
    // The fusion bar is a ~5 % effect, so even quick mode needs enough
    // paired rounds for the per-round median to settle on a 1-core host.
    let iters = if gate.opts.quick { 13 } else { 21 };
    gate.fact("paired_rounds", iters);
    let mut table = Table::new(
        "Epilogue fusion: separate passes vs fused",
        &[
            ("shape", "shape"),
            ("baseline_ms", "separate ms"),
            ("fused_ms", "fused ms"),
            ("fused_speedup", "fuse x"),
        ],
    );
    for case in &epilogue_bench_shapes() {
        let (input, _, packed) = case.operands();
        let out_channels = case.params.out_channels;

        // Epilogue operands: per-output-channel bias and a full residual
        // tensor, applied with ReLU — the serving-hot epilogue shape.
        let (plain, bias, residual) = case.epilogue_operands();
        let plane = residual.shape.height * residual.shape.width;
        let ep = ConvEpilogue {
            input_relu: false,
            bias: Some(&bias),
            residual: Some(&residual),
            relu: true,
        };

        // The pre-fusion baseline: the packed kernel, then bias,
        // residual-add and ReLU the way the pre-fusion engine served them —
        // as separate elementwise graph ops, each reading its input and
        // writing a fresh arena tensor (the same arithmetic order the fused
        // store uses, so the bit-identity assert below holds).
        let run_baseline = || {
            let conv = conv2d(&input, &plain, &packed, &ConvEpilogue::default(), arena);
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
        let run_fused = || conv2d(&input, &plain, &packed, &ep, arena);

        // The bar is only meaningful if fusion is exact.
        let baseline_out = run_baseline();
        let fused_out = run_fused();
        assert_eq!(
            fused_out, baseline_out,
            "{}: fused epilogue must be bit-identical to the separate passes",
            case.name
        );
        arena.recycle_tensor(baseline_out);
        arena.recycle_tensor(fused_out);

        // The variants are interleaved within every round, and the speedup
        // is the *median of the per-round paired ratios*: a noisy stretch
        // on the (shared) host covers an adjacent baseline/fused pair, so
        // the round's ratio stays clean even when its absolute times do
        // not, and the median discards the rounds a burst split in half.
        let rounds = paired_rounds(
            iters,
            &mut [&mut || arena.recycle_tensor(run_baseline()), &mut || {
                arena.recycle_tensor(run_fused())
            }],
        );
        table.row(cells![
            case.name,
            rounds.best_ms(0),
            rounds.best_ms(1),
            rounds.median_speedup(0, 1),
        ]);
    }
    gate.table(&table);
    gate.at_least(
        "fused-f32 geomean speedup over separate passes",
        geomean(&table.column("fused_speedup")),
        1.01,
    );
}
