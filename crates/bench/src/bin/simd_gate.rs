//! `simd_gate` — CI acceptance gate for the explicit-vector tiers of the
//! f32 GEMM microkernel behind the runtime SIMD dispatch
//! (`ios_backend::simd`).
//!
//! On the serving-hot layer shapes of [`ios_bench::simd_bench_shapes`],
//! each run with a full bias + residual + ReLU epilogue:
//!
//! 1. **Bit-identity across ISAs** — before any timing, the f32 kernel
//!    ([`conv2d`]) is run under *every* ISA this host
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
//! times are best-of-N. Judged and reported (`BENCH_simd.json`) through
//! [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin simd_gate`
//! (`--quick` lowers the round count; the shapes stay full-size).

use ios_backend::simd::{self, Isa};
use ios_backend::{conv2d, ConvEpilogue, ScratchPool};
use ios_bench::{
    cells, geomean, mul_add_peak_gflops, paired_rounds, simd_bench_shapes, Cell, Gate, Table,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut gate = Gate::from_args("simd");
    let iters = if gate.opts.quick { 9 } else { 15 };
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
    let peak_gflops = mul_add_peak_gflops(active, gate.host.lanes, iters);
    gate.fact("baseline_isa", baseline.name());
    gate.fact("next_narrower_isa", narrower.map(Isa::name));
    gate.fact("paired_rounds", iters);
    gate.fact("peak_gflops", peak_gflops);

    let mut table = Table::new(
        format!(
            "f32 GEMM microkernel: {baseline} baseline and next narrower ({}) vs {active}",
            narrower.map_or("-", Isa::name)
        ),
        &[
            ("shape", "shape"),
            ("baseline_ms", "baseline ms"),
            // At the tier just below the active one (missing below AVX2,
            // where every tier runs the same portable row).
            ("next_narrower_ms", "next narrower ms"),
            ("wide_ms", "wide ms"),
            ("speedup", "speedup"),
            // Median paired ratio next-narrower ÷ active.
            ("narrower_speedup", "vs narrower"),
            ("gflops", "gflops"),
            ("pct_of_peak", "pct of peak"),
        ],
    );
    for case in &cases {
        let (input, _, packed) = case.operands();
        // Full serving-hot epilogue so the vectorized store is on the
        // measured (and verified) path.
        let (plain, bias, residual) = case.epilogue_operands();
        let ep = ConvEpilogue {
            input_relu: false,
            bias: Some(&bias),
            residual: Some(&residual),
            relu: true,
        };

        let run_on =
            |isa: Isa| simd::with_forced_isa(isa, || conv2d(&input, &plain, &packed, &ep, &arena));

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
            let out = conv2d(&input, &plain, &packed, &ep, &arena);
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
        table.row(cells![
            case.name,
            rounds.best_ms(0),
            narrower_index.map(|n| rounds.best_ms(n)),
            wide_ms,
            rounds.median_speedup(0, active_index),
            narrower_index.map(|n| rounds.median_speedup(n, active_index)),
            Cell::Num(gflops, 1),
            Cell::Num(100.0 * gflops / peak_gflops, 1),
        ]);
    }
    gate.table(&table);
    // Asserted above, on every shape at every supported tier.
    gate.fact("bit_identical", true);

    gate.at_least(
        format!("geomean speedup, {active} vs {baseline}"),
        geomean(&table.column("speedup")),
        bar,
    );
    if let Some(slowest) = table
        .column("narrower_speedup")
        .into_iter()
        .reduce(f64::min)
    {
        gate.at_least("slowest row vs the next narrower tier", slowest, 0.95);
    }
    gate.finish()
}
