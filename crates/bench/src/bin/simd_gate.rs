//! `simd_gate` — CI acceptance gate for the hardware-FMA tiers of the f32
//! kernels behind the runtime SIMD dispatch (`ios_backend::simd`): the GEMM
//! microkernel, judged, and the pooling window, reported.
//!
//! On the serving-hot layer shapes of [`ios_bench::simd_bench_shapes`],
//! each run with a full bias + residual + ReLU epilogue:
//!
//! 1. **Bit-identity across ISAs** — before any timing, the f32 kernel
//!    ([`conv2d`]) is run under *every* ISA this host
//!    supports via `with_forced_isa` and asserted bitwise equal to the
//!    scalar-forced reference. A single differing bit fails the gate.
//! 2. **No wider tier slower than the one below it** — the baseline is the
//!    narrowest hardware-FMA tier (AVX2). On an AVX-512 host every row
//!    must reach ≥ 0.95× of it: a wider tile never loses a shape. At AVX2
//!    itself, and at the portable tiers, there is no narrower kernel worth
//!    racing — the baseline is the active tier run a second time and the
//!    bar a geomean ≥ 0.95× no-regression check (the dispatch itself must
//!    not cost anything measurable).
//! 3. **Reference-tier cost** — below AVX2 there is no FMA instruction, so
//!    the portable row keeps the one-rounding contract through libm's
//!    `fmaf`: exact and slow. The scalar-forced run of the identity check
//!    is timed (one run per shape) and printed beside the active tier.
//!    Reported, not judged.
//! 4. **Roofline** — each row states its arithmetic rate (`gflops`) and
//!    `pct_of_peak` against the host's FMA ceiling at the active width,
//!    which the gate measures itself ([`ios_bench::mul_add_peak_gflops`] on
//!    every worker-pool lane at once). Reported, not judged; a row above
//!    100 % would be a bug in the probe.
//! 5. **Pooling window** — Inception V3's four pool shapes (the 3×3/1
//!    padded averages of its 35×35, 17×17 and 8×8 blocks, the stem's 3×3/2
//!    max), each first asserted bit-identical across every supported tier,
//!    then timed at every tier: best ms per tier, the active tier's median
//!    paired speedup over AVX2 (`vs avx2`), and against a byte roofline —
//!    `gbps`, input plus output bytes over the best time, and `pct_of_bw`
//!    of the copy bandwidth the gate measures ([`ios_bench::copy_peak_gbps`]
//!    on every lane at once). Reported, not judged; above 100 % would be a
//!    probe bug.
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

use ios_backend::ops_cpu::pool;
use ios_backend::simd::{self, Isa};
use ios_backend::{conv2d, ConvEpilogue, ScratchPool, TensorData};
use ios_bench::{
    cells, copy_peak_gbps, geomean, mul_add_peak_gflops, paired_rounds, simd_bench_shapes, Cell,
    Gate, Table,
};
use ios_ir::{PoolParams, TensorShape};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut gate = Gate::from_args("simd");
    let iters = if gate.opts.quick { 9 } else { 15 };
    let arena = ScratchPool::new();
    let cases = simd_bench_shapes();

    let active = simd::active_isa();
    let supported = simd::supported_isas();
    // The narrowest hardware-FMA tier is the baseline of a wider one; at
    // that tier and below the "baseline" is the active tier itself and the
    // bar a pure no-regression check on the dispatch overhead.
    let baseline = active.min(Isa::Avx2);
    let peak_gflops = mul_add_peak_gflops(active, gate.host.lanes, iters);
    gate.fact("baseline_isa", baseline.name());
    gate.fact("paired_rounds", iters);
    gate.fact("peak_gflops", peak_gflops);

    let mut table = Table::new(
        format!("f32 GEMM microkernel: {baseline} baseline vs {active}, scalar reference"),
        &[
            ("shape", "shape"),
            ("baseline_ms", "baseline ms"),
            ("wide_ms", "wide ms"),
            ("speedup", "speedup"),
            // One run at the scalar tier: the `fmaf` reference row.
            ("reference_ms", "reference ms"),
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
        let start = std::time::Instant::now();
        let reference = run_on(Isa::Scalar);
        let reference_ms = start.elapsed().as_secs_f64() * 1e3;
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

        // Baseline and active tier interleave within every round; the
        // speedup is the median of the per-round paired ratios and the
        // reported times are best-of-N (same harness as conv_gate, so
        // single-core CI hosts don't produce noisy verdicts).
        let rounds = paired_rounds(
            iters,
            &mut [&mut || arena.recycle_tensor(run_on(baseline)), &mut || {
                arena.recycle_tensor(run_on(active))
            }],
        );
        let wide_ms = rounds.best_ms(1);
        let gflops = case.gflops(wide_ms);
        table.row(cells![
            case.name,
            rounds.best_ms(0),
            wide_ms,
            rounds.median_speedup(0, 1),
            reference_ms,
            Cell::Num(gflops, 1),
            Cell::Num(100.0 * gflops / peak_gflops, 1),
        ]);
    }
    gate.table(&table);
    // Asserted above, on every shape at every supported tier.
    gate.fact("bit_identical", true);

    let speedups = table.column("speedup");
    if active > baseline {
        let slowest = speedups.into_iter().fold(f64::INFINITY, f64::min);
        gate.at_least(
            format!("slowest row, {active} vs {baseline}"),
            slowest,
            0.95,
        );
    } else {
        gate.at_least(
            format!("geomean, {active} through the dispatch vs itself"),
            geomean(&speedups),
            0.95,
        );
    }
    pool_rows(&mut gate, iters, &arena);
    gate.finish()
}

/// Inception V3's pool shapes: the 3×3/1 padded average of each block
/// size, then the stem's 3×3/2 max.
fn inception_pools() -> [(&'static str, TensorShape, PoolParams); 4] {
    let avg = PoolParams::avg((3, 3), (1, 1), (1, 1));
    [
        ("avg_3x3_35x35x288", TensorShape::new(1, 288, 35, 35), avg),
        ("avg_3x3_17x17x768", TensorShape::new(1, 768, 17, 17), avg),
        ("avg_3x3_8x8x2048", TensorShape::new(1, 2048, 8, 8), avg),
        (
            "max_3x3s2_147x147x64",
            TensorShape::new(1, 64, 147, 147),
            PoolParams::max((3, 3), (2, 2), (0, 0)),
        ),
    ]
}

/// The pooling window's rows: bit-identity across the supported tiers, then
/// every tier timed in interleaved rounds, stated against the copy roofline.
fn pool_rows(gate: &mut Gate, iters: usize, arena: &ScratchPool) {
    let (active, supported) = (simd::active_isa(), simd::supported_isas());
    let copy_gbps = copy_peak_gbps(gate.host.lanes, iters);
    gate.fact("copy_peak_gbps", copy_gbps);
    let mut table = Table::new(
        format!("pooling window per tier: {active} vs avx2, copy roofline"),
        &[
            ("shape", "shape"),
            ("scalar_ms", "scalar ms"),
            ("avx2_ms", "avx2 ms"),
            ("avx512_ms", "avx512 ms"),
            ("vs_avx2", "vs avx2"),
            ("gbps", "gbps"),
            ("pct_of_bw", "pct of bw"),
        ],
    );
    for (name, shape, params) in inception_pools() {
        let input = TensorData::random(shape, 25);
        let run_on = |isa: Isa| simd::with_forced_isa(isa, || pool(&input, &params, arena));
        let reference = run_on(Isa::Scalar);
        for &isa in &supported[1..] {
            let out = run_on(isa);
            assert_eq!(
                out, reference,
                "{name}: pooling must be bit-identical on {isa}"
            );
            arena.recycle_tensor(out);
        }
        let bytes = (input.data.len() + reference.data.len()) * std::mem::size_of::<f32>();
        arena.recycle_tensor(reference);
        // A pooling is well under a millisecond: ten times the convolution
        // rows' rounds, every tier once per round.
        let mut runs: Vec<_> = supported
            .iter()
            .map(|&isa| move || arena.recycle_tensor(run_on(isa)))
            .collect();
        let mut variants: Vec<&mut dyn FnMut()> =
            runs.iter_mut().map(|run| run as &mut dyn FnMut()).collect();
        let rounds = paired_rounds(iters * 10, &mut variants);
        // Variant `i` of the rounds is tier `supported[i]`.
        let at = |isa: Isa| supported.iter().position(|&s| s == isa);
        let wide = at(active).expect("the active tier is supported");
        let gbps = bytes as f64 / rounds.best_ms(wide) / 1e6;
        let mut row = cells![name];
        row.extend(Isa::ALL.map(|isa| Cell::from(at(isa).map(|i| rounds.best_ms(i)))));
        row.extend(cells![
            at(Isa::Avx2).map(|avx2| rounds.median_speedup(avx2, wide)),
            Cell::Num(gbps, 1),
            Cell::Num(100.0 * gbps / copy_gbps, 1),
        ]);
        table.row(row);
    }
    gate.table(&table);
}
