//! # ios-bench — experiment harness for the IOS reproduction
//!
//! One binary per table/figure of the paper and one per acceptance gate
//! (see `src/bin/`), plus the shared plumbing in this library:
//! schedule/framework sweeps, table rendering, normalization, geometric
//! means, the paired-round timer, and [`gate`] — the one way a gate judges,
//! reports (`BENCH_<gate>.json`) and exits.
//!
//! Every binary but `pairs` (see its docs) accepts, and rejects anything
//! else with a usage line and exit status 2:
//!
//! * `--device v100|k80|2080ti` — the simulated GPU (default V100);
//! * `--batch N` — batch size where applicable (default 1);
//! * `--quick` — smaller model variants and tighter pruning so the full
//!   suite finishes quickly on a laptop-class machine;
//! * `--json PATH` — also write the rows as a JSON report.
//!
//! Run everything with `cargo run --release -p ios-bench --bin run_all`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ios_backend::gemm::mul_add_probe;
use ios_backend::ops_cpu::conv_weights;
use ios_backend::simd::Isa;
use ios_backend::{PackedFilter, TensorData};
use ios_core::{
    greedy_network_schedule, optimize_network, sequential_network_schedule, IosVariant,
    NetworkSchedule, SchedulerConfig, SimCostModel,
};
use ios_frameworks::{Framework, FrameworkKind};
use ios_ir::{Activation, Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use ios_models::RandWireConfig;
use ios_sim::{DeviceKind, Simulator};
use serde::Serialize;

pub mod gate;

pub use gate::{Cell, Gate, Table};

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Simulated device.
    pub device: DeviceKind,
    /// Batch size.
    pub batch: usize,
    /// Quick mode: smaller models, tighter pruning.
    pub quick: bool,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            device: DeviceKind::TeslaV100,
            batch: 1,
            quick: false,
            json: None,
        }
    }
}

impl BenchOptions {
    /// Parses the options from `std::env::args`; a malformed command line
    /// prints why and the usage line, and exits with status 2.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|error| gate::exit_usage(&error))
    }

    /// Parses the options from the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Says what is wrong with the first argument that is not one of the
    /// four flags, lacks its value, or has a value that does not parse.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = BenchOptions::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--device" => opts.device = parse_device(&value()?)?,
                "--batch" => {
                    let text = value()?;
                    let batch = text.parse();
                    opts.batch = batch.map_err(|_| format!("--batch {text:?} is not a count"))?;
                }
                "--json" => opts.json = Some(value()?),
                "--quick" => opts.quick = true,
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(opts)
    }

    /// The scheduler configuration implied by the options (quick mode uses
    /// a tighter pruning strategy, cf. Figure 9).
    #[must_use]
    pub fn scheduler_config(&self, variant: IosVariant) -> SchedulerConfig {
        let cfg = SchedulerConfig::for_variant(variant);
        if self.quick {
            cfg.with_pruning(2, 4)
        } else {
            cfg
        }
    }

    /// The benchmark networks of Table 2 at this batch size (smaller
    /// variants in quick mode).
    #[must_use]
    pub fn benchmark_networks(&self) -> Vec<Network> {
        if self.quick {
            vec![
                ios_models::inception_v3(self.batch),
                ios_models::randwire::randwire(
                    self.batch,
                    RandWireConfig {
                        nodes_per_stage: 12,
                        ..RandWireConfig::default()
                    },
                ),
                ios_models::nasnet::nasnet_with(self.batch, 44, 6),
                ios_models::squeezenet(self.batch),
            ]
        } else {
            ios_models::paper_benchmarks(self.batch)
        }
    }
}

fn parse_device(name: &str) -> Result<DeviceKind, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "v100" => DeviceKind::TeslaV100,
        "k80" => DeviceKind::TeslaK80,
        "2080ti" | "rtx2080ti" => DeviceKind::Rtx2080Ti,
        "1080" | "gtx1080" => DeviceKind::Gtx1080,
        "980ti" | "gtx980ti" => DeviceKind::Gtx980Ti,
        "a100" => DeviceKind::A100,
        _ => return Err(format!("unknown device {name:?}")),
    })
}

/// One labelled measurement row (latency + derived throughput).
#[derive(Debug, Clone, Serialize)]
pub struct MeasurementRow {
    /// Method / framework label.
    pub label: String,
    /// Network name.
    pub network: String,
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in images per second.
    pub throughput: f64,
}

/// Builds the five schedules compared in Figure 6 / Figure 14 and measures
/// them: Sequential, Greedy, IOS-Merge, IOS-Parallel, IOS-Both.
#[must_use]
pub fn schedule_comparison(network: &Network, opts: &BenchOptions) -> Vec<MeasurementRow> {
    let cost = SimCostModel::new(Simulator::new(opts.device));
    let batch = network.input_shape.batch;
    let mut rows = Vec::new();
    let mut push = |label: &str, schedule: &NetworkSchedule| {
        rows.push(MeasurementRow {
            label: label.to_string(),
            network: network.name.clone(),
            latency_ms: schedule.latency_ms(),
            throughput: schedule.throughput(batch),
        });
    };
    push("Sequential", &sequential_network_schedule(network, &cost));
    push("Greedy", &greedy_network_schedule(network, &cost));
    for variant in [IosVariant::Merge, IosVariant::Parallel, IosVariant::Both] {
        let report = optimize_network(network, &cost, &opts.scheduler_config(variant));
        push(&variant.to_string(), &report.schedule);
    }
    rows
}

/// Measures the cuDNN-based baseline frameworks plus IOS on one network
/// (Figure 7 / Figure 15), or all frameworks when `include_tvm` is set
/// (Figure 11 / Figure 12 building block).
#[must_use]
pub fn framework_comparison(
    network: &Network,
    opts: &BenchOptions,
    include_tvm: bool,
) -> Vec<MeasurementRow> {
    let batch = network.input_shape.batch;
    let kinds: Vec<FrameworkKind> = if include_tvm {
        FrameworkKind::all().to_vec()
    } else {
        FrameworkKind::cudnn_baselines().to_vec()
    };
    let mut rows: Vec<MeasurementRow> = kinds
        .iter()
        .map(|kind| {
            let result = Framework::new(*kind, opts.device).measure(network);
            MeasurementRow {
                label: kind.to_string(),
                network: network.name.clone(),
                latency_ms: result.latency_us / 1e3,
                throughput: result.throughput,
            }
        })
        .collect();
    let cost = SimCostModel::new(Simulator::new(opts.device));
    let ios = optimize_network(network, &cost, &opts.scheduler_config(IosVariant::Both)).schedule;
    rows.push(MeasurementRow {
        label: "IOS".to_string(),
        network: network.name.clone(),
        latency_ms: ios.latency_ms(),
        throughput: ios.throughput(batch),
    });
    rows
}

/// Geometric mean of a non-empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Normalizes throughputs to the best value per network (the y-axis of
/// Figures 6, 7, 14 and 15): returns `(label, normalized)` pairs.
#[must_use]
pub fn normalize_by_best(rows: &[MeasurementRow]) -> Vec<(String, f64)> {
    let best = rows.iter().map(|r| r.throughput).fold(0.0f64, f64::max);
    rows.iter()
        .map(|r| {
            (
                r.label.clone(),
                if best > 0.0 { r.throughput / best } else { 0.0 },
            )
        })
        .collect()
}

/// Renders an ASCII table.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    let _ = writeln!(out, "| {} |", header_line.join(" | "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{c:<width$}",
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect();
        let _ = writeln!(out, "| {} |", cells.join(" | "));
    }
    out
}

/// Formats a float with three significant decimals.
#[must_use]
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

/// One convolution layer shape benchmarked by the `conv_kernels` bench and
/// the `conv_gate` CI binary.
#[derive(Debug, Clone)]
pub struct ConvCase {
    /// Short shape label.
    pub name: &'static str,
    /// Input tensor shape.
    pub input: ios_ir::TensorShape,
    /// Convolution parameters.
    pub params: ios_ir::Conv2dParams,
}

impl ConvCase {
    /// Depth of the layer's GEMM reduction: input channels per group ×
    /// kernel taps.
    #[must_use]
    pub fn k_len(&self) -> usize {
        self.input.channels / self.params.groups * self.params.kernel.0 * self.params.kernel.1
    }

    /// Multiply-accumulates of one run of the layer (two FLOPs each).
    #[must_use]
    pub fn macs(&self) -> u64 {
        let p = &self.params;
        let (oh, ow) = self.input.conv_output_hw(p.kernel, p.stride, p.padding);
        (self.input.batch * p.out_channels * self.k_len() * oh * ow) as u64
    }

    /// What every kernel gate and bench runs the layer on: a seeded random
    /// input, seeded natural-layout weights, and those weights packed (as
    /// weight precomputation does, outside any timed region).
    #[must_use]
    pub fn operands(&self) -> (TensorData, Vec<f32>, PackedFilter) {
        let p = &self.params;
        let weights = conv_weights(11, p.out_channels, self.input.channels / p.groups, p.kernel);
        let packed = PackedFilter::pack(&weights, p.out_channels, p.groups, self.k_len());
        let input = TensorData::random(self.input, 7);
        (input, weights, packed)
    }

    /// The serving-hot epilogue `conv_gate` and `simd_gate` run the layer
    /// with: the layer's parameters minus their activation (the epilogue's
    /// ReLU stands in for it), a per-output-channel bias and a residual
    /// tensor of the output's shape.
    #[must_use]
    pub fn epilogue_operands(&self) -> (Conv2dParams, Vec<f32>, TensorData) {
        let p = self.params;
        let (oh, ow) = self.input.conv_output_hw(p.kernel, p.stride, p.padding);
        let out_shape = TensorShape::new(self.input.batch, p.out_channels, oh, ow);
        let plain = Conv2dParams {
            activation: Activation::None,
            ..p
        };
        let bias = conv_weights(13, p.out_channels, 1, (1, 1));
        (plain, bias, TensorData::random(out_shape, 17))
    }

    /// The layer's arithmetic rate at `ms` per run, in GFLOP/s.
    #[must_use]
    pub fn gflops(&self, ms: f64) -> f64 {
        2.0 * self.macs() as f64 / (ms * 1e6)
    }
}

/// The Inception V3 layers `conv_gate` and `simd_gate` share, channel
/// counts divided by `s`: what `infer_inception_b1` spends its time in and
/// the ResNet rows (K ≤ 1152, planes of whole tiles) do not show — a deep
/// factorized 7×7 on the 17×17 grid, the widest pointwise on the 8×8 grid
/// (four column sub-blocks: the row a chunk cut that is wide before it is
/// balanced loses), a 5×5 on the 35×35 grid, and the im2col-bound stem.
fn inception_v3_shapes(s: usize) -> Vec<ConvCase> {
    vec![
        ConvCase {
            // Inception-B 1×7 of the 7×7 branches: 17×17, k = 1344.
            name: "inception_1x7_17",
            input: TensorShape::new(1, 192 / s, 17, 17),
            params: Conv2dParams::relu(192 / s, (1, 7), (1, 1), (0, 3)),
        },
        ConvCase {
            // Inception-C branch-1 pointwise: 8×8 = 64 columns, k = 2048.
            name: "inception_c_1x1_8",
            input: TensorShape::new(1, 2048 / s, 8, 8),
            params: Conv2dParams::relu(384 / s, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // Inception-A 5×5: 35×35, k = 1200.
            name: "inception_5x5_35",
            input: TensorShape::new(1, 48 / s, 35, 35),
            params: Conv2dParams::relu(64 / s, (5, 5), (1, 1), (2, 2)),
        },
        ConvCase {
            // Stem conv3: 147×147, 32 → 64 channels — few rows per patch
            // value, so building the patch block is most of the layer.
            name: "stem_3x3_147",
            input: TensorShape::new(1, 32 / s, 147, 147),
            params: Conv2dParams::relu(64 / s, (3, 3), (1, 1), (1, 1)),
        },
    ]
}

/// The convolution shapes the kernel bench and gate run: Inception- and
/// SqueezeNet-shaped layers covering 3×3, pointwise, strided-downsample
/// and grouped cases, then `inception_v3_shapes`. `quick` halves the
/// channel counts.
#[must_use]
pub fn conv_bench_shapes(quick: bool) -> Vec<ConvCase> {
    let s = if quick { 2 } else { 1 };
    let mut cases = vec![
        ConvCase {
            // Inception-v3 mixed-block 3×3 branch shape.
            name: "inception_3x3",
            input: TensorShape::new(1, 96 / s, 15, 15),
            params: Conv2dParams::relu(96 / s, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // Inception 1×1 bottleneck: the pointwise fast path.
            name: "inception_1x1",
            input: TensorShape::new(1, 128 / s, 15, 15),
            params: Conv2dParams::relu(128 / s, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // SqueezeNet fire-module 3×3 expand.
            name: "squeezenet_expand3",
            input: TensorShape::new(1, 16, 27, 27),
            params: Conv2dParams::relu(64 / s, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // Strided downsampling layer.
            name: "downsample_s2",
            input: TensorShape::new(1, 64 / s, 27, 27),
            params: Conv2dParams::relu(64 / s, (3, 3), (2, 2), (1, 1)),
        },
    ];
    cases.extend(inception_v3_shapes(s));
    cases
}

/// The convolution shapes `conv_gate`'s epilogue table runs: the layers of
/// serving CNN backbones that actually *carry* a bias + residual-add +
/// ReLU epilogue — ResNet basic-block ending 3×3s and bottleneck
/// expansion 1×1s (the convs the residual joins), MobileNetV2-style
/// shallow-`k` expansion pointwises, and Inception branch convs feeding a
/// concat. Epilogue fusion pays where the epilogue's whole-tensor passes
/// are a real fraction of the conv (shallow `k`, large output planes);
/// deep-`k` interior 3×3s keep their epilogue-free fast path and stay
/// covered by [`simd_bench_shapes`] / `simd_gate`. The shapes are never
/// scaled down in quick mode — shrinking the channels would pull the patch
/// matrices back under the L2 cache and change the compute-vs-traffic
/// regime the gate measures.
#[must_use]
pub fn epilogue_bench_shapes() -> Vec<ConvCase> {
    vec![
        ConvCase {
            // ResNet basic-block conv2: the 3×3 the residual joins.
            name: "resnet_3x3_56",
            input: TensorShape::new(1, 64, 56, 56),
            params: Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // ResNet bottleneck expansion at 56²: 64 → 256 pointwise.
            name: "bottleneck_1x1_56",
            input: TensorShape::new(1, 64, 56, 56),
            params: Conv2dParams::relu(256, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // ResNet conv3 bottleneck expansion at 28²: 128 → 512.
            name: "bottleneck_1x1_28",
            input: TensorShape::new(1, 128, 28, 28),
            params: Conv2dParams::relu(512, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // MobileNetV2-style expansion at 112²: shallow k, huge plane.
            name: "mb_expand_1x1_112",
            input: TensorShape::new(1, 32, 112, 112),
            params: Conv2dParams::relu(192, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // MobileNetV2-style expansion at 56².
            name: "mb_expand_1x1_56",
            input: TensorShape::new(1, 24, 56, 56),
            params: Conv2dParams::relu(144, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // Inception mixed-block 3×3 branch feeding the concat.
            name: "inception_3x3",
            input: TensorShape::new(1, 96, 15, 15),
            params: Conv2dParams::relu(96, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // Inception 1×1 bottleneck branch.
            name: "inception_1x1",
            input: TensorShape::new(1, 128, 15, 15),
            params: Conv2dParams::relu(128, (1, 1), (1, 1), (0, 0)),
        },
    ]
}

/// The convolution shapes the `simd_gate` CI binary runs: the f32 GEMM
/// register tile under its serving-hot regimes — ResNet body 3×3s (deep
/// `k`, the tile-bound case the AVX2 kernel targets), a strided
/// downsample, a bottleneck pointwise (pure GEMM), a compact Inception 3×3
/// so small-`m` layers with edge tiles stay visible, then the full-size
/// `inception_v3_shapes`. Like the epilogue set, never scaled down in quick
/// mode — that would shift the compute-vs-traffic regime; `simd_gate
/// --quick` reduces the round count instead.
#[must_use]
pub fn simd_bench_shapes() -> Vec<ConvCase> {
    let mut cases = vec![
        ConvCase {
            // ResNet conv2_x body: 56×56, 64 channels, k = 576.
            name: "resnet_3x3_56",
            input: TensorShape::new(1, 64, 56, 56),
            params: Conv2dParams::relu(64, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // ResNet conv3_x body: 28×28, 128 channels, k = 1152.
            name: "resnet_3x3_28",
            input: TensorShape::new(1, 128, 28, 28),
            params: Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)),
        },
        ConvCase {
            // ResNet conv3 downsample entry: strided 3×3.
            name: "resnet_3x3_s2",
            input: TensorShape::new(1, 128, 56, 56),
            params: Conv2dParams::relu(128, (3, 3), (2, 2), (1, 1)),
        },
        ConvCase {
            // ResNet bottleneck expansion pointwise: pure GEMM, k = 128.
            name: "bottleneck_1x1_28",
            input: TensorShape::new(1, 128, 28, 28),
            params: Conv2dParams::relu(512, (1, 1), (1, 1), (0, 0)),
        },
        ConvCase {
            // Inception mixed-block 3×3 branch: compact, edge tiles.
            name: "inception_3x3",
            input: TensorShape::new(1, 96, 15, 15),
            params: Conv2dParams::relu(96, (3, 3), (1, 1), (1, 1)),
        },
    ];
    cases.extend(inception_v3_shapes(1));
    cases
}

/// The serving workload of `adapt_gate` and `tenant_gate`: a three-block
/// branchy stack, heavy enough (~16-channel 3×3 convs) that execution time
/// dominates scheduling jitter, small enough that a gate finishes in
/// seconds.
#[must_use]
pub fn gate_network() -> Network {
    let input = TensorShape::new(1, 16, 12, 12);
    let mut shape = input;
    let mut blocks = Vec::with_capacity(3);
    for i in 0..3 {
        let mut b = GraphBuilder::new(format!("serve_gate_b{i}"), shape);
        let x = b.input(0);
        let a = b.conv2d(
            format!("b{i}_a3"),
            x,
            Conv2dParams::relu(16, (3, 3), (1, 1), (1, 1)),
        );
        let c = b.conv2d(
            format!("b{i}_c1"),
            x,
            Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)),
        );
        let cat = b.concat(format!("b{i}_cat"), &[a, c]);
        let block = Block::new(b.build(vec![cat]));
        shape = block.graph.output_shapes()[0];
        blocks.push(block);
    }
    Network::new("serve_gate_net", input, blocks)
}

/// Wall times of interleaved timing rounds, per variant, in milliseconds —
/// the timing harness of the gate binaries ([`paired_rounds`]).
#[derive(Debug, Clone)]
pub struct Rounds {
    /// `times_ms[variant][round]`.
    times_ms: Vec<Vec<f64>>,
}

impl Rounds {
    /// Best (minimum) wall time of `variant` over the rounds — the time a
    /// gate reports.
    #[must_use]
    pub fn best_ms(&self, variant: usize) -> f64 {
        self.times_ms[variant]
            .iter()
            .fold(f64::INFINITY, |best, &t| best.min(t))
    }

    /// Median over the rounds of `time(slower) / time(faster)` within each
    /// round — the speedup a gate judges. The variants of one round ran
    /// adjacently, so a noisy stretch on a shared host covers both sides
    /// of that round's ratio, and the median discards the rounds a burst
    /// split in half.
    #[must_use]
    pub fn median_speedup(&self, slower: usize, faster: usize) -> f64 {
        self.speedup_quartiles(slower, faster)[1]
    }

    /// q1, median and q3 of the same per-round ratios.
    #[must_use]
    pub fn speedup_quartiles(&self, slower: usize, faster: usize) -> [f64; 3] {
        let ratios: Vec<f64> = self.times_ms[slower]
            .iter()
            .zip(&self.times_ms[faster])
            .map(|(s, f)| s / f)
            .collect();
        quartiles(&ratios)
    }
}

/// The `p`-th quantile (0 ≤ p ≤ 1) of `values`, linearly interpolated
/// between the nearest ranks.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = p * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// q1, median and q3 of `values`.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|p| quantile(values, p))
}

/// Times `rounds` rounds of `variants`, running every variant once per
/// round, in order. A single variant makes this plain best-of-N timing.
pub fn paired_rounds(rounds: usize, variants: &mut [&mut dyn FnMut()]) -> Rounds {
    let mut times_ms = vec![Vec::with_capacity(rounds); variants.len()];
    for _ in 0..rounds {
        for (variant, times) in variants.iter_mut().zip(&mut times_ms) {
            let start = std::time::Instant::now();
            variant();
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    Rounds { times_ms }
}

/// The f32 fused-multiply-add ceiling of this host at tier `isa`, measured:
/// the best aggregate rate over `rounds` rounds of `threads` threads each
/// running [`ios_backend::gemm::mul_add_probe`] — the f32 tile's own
/// independent `fma` chains, through the tile's own vector rows, from
/// registers — in GFLOP/s. This is the roofline a gate states
/// `pct_of_peak` against: from AVX2 up the hardware's FMA peak (the tile's
/// one instruction per MAC is the machine's), at the portable tiers the
/// rate of libm's `fmaf`.
///
/// # Panics
///
/// Panics if `isa` is wider than the host executes.
#[must_use]
pub fn mul_add_peak_gflops(isa: Isa, threads: usize, rounds: usize) -> f64 {
    const STEPS: usize = 1 << 19;
    let barrier = std::sync::Barrier::new(threads);
    let mut best = 0.0f64;
    for _ in 0..rounds {
        // Every thread starts at the barrier and times its own loop; the
        // round took as long as its slowest thread.
        let (flops, slowest) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let start = std::time::Instant::now();
                        let flops = mul_add_probe(isa, std::hint::black_box(STEPS));
                        (flops, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("peak probe thread"))
                .fold((0u64, 0.0f64), |(f, t), (flops, secs)| {
                    (f + flops, t.max(secs))
                })
        });
        best = best.max(flops as f64 / slowest / 1e9);
    }
    best
}

/// The host's streaming copy bandwidth, measured: the best aggregate rate
/// over `rounds` rounds of `threads` threads each copying a buffer of its
/// own four times — 8 MiB, four times the 2 MiB L2 of the reference host,
/// so the copy streams from beyond the core's caches — in GB/s, counting
/// bytes read plus bytes written. This is the byte roofline a gate states a
/// bandwidth-bound kernel's `pct_of_bw` against, built like
/// [`mul_add_peak_gflops`], and the stream-bandwidth probe of the host.
#[must_use]
pub fn copy_peak_gbps(threads: usize, rounds: usize) -> f64 {
    const FLOATS: usize = 2 << 20;
    const COPIES: usize = 4;
    let mut buffers: Vec<(Vec<f32>, Vec<f32>)> = (0..threads)
        .map(|_| (vec![1.0; FLOATS], vec![0.0; FLOATS]))
        .collect();
    let barrier = std::sync::Barrier::new(threads);
    let mut best = 0.0f64;
    for _ in 0..rounds {
        // Every thread faults its pages in, starts at the barrier and times
        // its own copies; the round took as long as its slowest thread.
        let slowest = std::thread::scope(|scope| {
            let handles: Vec<_> = buffers
                .iter_mut()
                .map(|(src, dst)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        dst.copy_from_slice(src);
                        barrier.wait();
                        let start = std::time::Instant::now();
                        for _ in 0..COPIES {
                            dst.copy_from_slice(std::hint::black_box(&src[..]));
                        }
                        std::hint::black_box(&dst);
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("copy probe thread"))
                .fold(0.0f64, f64::max)
        });
        let bytes = threads * COPIES * 2 * FLOATS * std::mem::size_of::<f32>();
        best = best.max(bytes as f64 / slowest / 1e9);
    }
    best
}

/// Writes any serializable value to `path` as pretty JSON — the one writer
/// behind every report; a failure is reported on stderr, not fatal.
pub fn write_json<T: Serialize>(path: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("failed to write {path}: {e}");
            }
        }
        Err(e) => eprintln!("failed to serialize {path}: {e}"),
    }
}

/// Writes `value` to the `--json PATH` of `opts`, if one was given.
pub fn maybe_write_json<T: Serialize>(opts: &BenchOptions, value: &T) {
    if let Some(path) = &opts.json {
        write_json(path, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_normalize() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        let rows = vec![
            MeasurementRow {
                label: "a".into(),
                network: "n".into(),
                latency_ms: 2.0,
                throughput: 500.0,
            },
            MeasurementRow {
                label: "b".into(),
                network: "n".into(),
                latency_ms: 1.0,
                throughput: 1000.0,
            },
        ];
        let normalized = normalize_by_best(&rows);
        assert_eq!(normalized[1].1, 1.0);
        assert_eq!(normalized[0].1, 0.5);
    }

    #[test]
    fn table_rendering_contains_cells() {
        let t = render_table("t", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("== t =="));
        assert!(t.contains("| a "));
        assert!(t.contains("| 1 "));
        assert_eq!(fmt3(1.23456), "1.235");
    }

    #[test]
    fn schedule_comparison_orders_ios_first_on_figure2() {
        let opts = BenchOptions::default();
        let net = ios_models::figure2_block(1);
        let rows = schedule_comparison(&net, &opts);
        assert_eq!(rows.len(), 5);
        let best_label = rows
            .iter()
            .max_by(|a, b| a.throughput.partial_cmp(&b.throughput).unwrap())
            .unwrap()
            .label
            .clone();
        assert_eq!(best_label, "IOS-Both");
        let seq = rows.iter().find(|r| r.label == "Sequential").unwrap();
        let both = rows.iter().find(|r| r.label == "IOS-Both").unwrap();
        assert!(seq.latency_ms / both.latency_ms > 1.1);
    }

    #[test]
    fn framework_comparison_includes_ios_row() {
        let opts = BenchOptions::default();
        let net = ios_models::figure2_block(1);
        let rows = framework_comparison(&net, &opts, false);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.label == "IOS"));
        assert!(rows.iter().any(|r| r.label == "TensorRT"));
    }

    #[test]
    fn conv_case_counts_macs_and_every_tier_has_a_peak() {
        let case = ConvCase {
            name: "t",
            input: ios_ir::TensorShape::new(2, 6, 9, 9),
            params: ios_ir::Conv2dParams {
                groups: 2,
                ..ios_ir::Conv2dParams::plain(8, (3, 3), (2, 2), (1, 1))
            },
        };
        // 5×5 outputs, k = 3 channels · 9 taps per group.
        assert_eq!(case.macs(), 2 * 8 * 27 * 25);
        assert!((case.gflops(1.0) - 2.0 * case.macs() as f64 / 1e6).abs() < 1e-12);
        // The operands fit the layer: the packed kernel reproduces the
        // naive one on them, and the residual has the output's shape.
        let (input, weights, packed) = case.operands();
        let pool = ios_backend::ScratchPool::new();
        let unfused = ios_backend::ConvEpilogue::default();
        let out = ios_backend::conv2d(&input, &case.params, &packed, &unfused, &pool);
        let naive = ios_backend::ops_cpu::conv2d_naive(&input, &case.params, &weights);
        assert_eq!(out, naive);
        let (plain, bias, residual) = case.epilogue_operands();
        assert_eq!(plain.activation, Activation::None);
        assert_eq!((bias.len(), residual.shape), (8, out.shape));
        // The probe runs (and finishes with a finite positive rate) at
        // every tier the host executes, on one thread and on two.
        for isa in ios_backend::simd::supported_isas() {
            for threads in [1, 2] {
                let peak = mul_add_peak_gflops(isa, threads, 1);
                assert!(peak.is_finite() && peak > 0.0, "{isa} x{threads}: {peak}");
            }
        }
    }

    #[test]
    fn the_copy_probe_reports_a_finite_rate_on_one_thread_and_two() {
        for threads in [1, 2] {
            let gbps = copy_peak_gbps(threads, 1);
            assert!(gbps.is_finite() && gbps > 0.0, "x{threads}: {gbps}");
        }
    }

    #[test]
    fn paired_rounds_time_every_variant_once_per_round() {
        let (mut slow_runs, mut fast_runs) = (0, 0);
        let rounds = paired_rounds(
            5,
            &mut [
                &mut || {
                    slow_runs += 1;
                    std::thread::sleep(std::time::Duration::from_millis(4));
                },
                &mut || {
                    fast_runs += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                },
            ],
        );
        assert_eq!((slow_runs, fast_runs), (5, 5));
        assert!(rounds.best_ms(0) >= 4.0 && rounds.best_ms(1) >= 1.0);
        assert!(rounds.best_ms(1) < rounds.best_ms(0));
        assert!(rounds.median_speedup(0, 1) > 1.5);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        // A single outlier round must not move the verdict.
        assert_eq!(quantile(&[1.0, 1.0, 100.0], 0.5), 1.0);
    }

    #[test]
    fn simd_shapes_cover_deep_k_and_edge_tiles() {
        let shapes = simd_bench_shapes();
        assert!(shapes.len() >= 4);
        assert!(shapes.iter().any(|c| c.name == "resnet_3x3_56"));
        assert!(shapes.iter().any(|c| c.params.kernel == (1, 1)));
        // Both kernel gates end in the Inception V3 rows: full-size here
        // (the 8×8 pointwise is four column sub-blocks of k = 2048), halved
        // channels in `conv_gate --quick`.
        for (cases, s) in [
            (shapes, 1),
            (conv_bench_shapes(false), 1),
            (conv_bench_shapes(true), 2),
        ] {
            let tail: Vec<_> = cases[cases.len() - 4..]
                .iter()
                .map(|c| (c.name, c.k_len()))
                .collect();
            let want = [
                ("inception_1x7_17", 1344 / s),
                ("inception_c_1x1_8", 2048 / s),
                ("inception_5x5_35", 1200 / s),
                ("stem_3x3_147", 288 / s),
            ];
            assert_eq!(tail, want);
        }
    }

    #[test]
    fn options_parse_device_names() {
        assert_eq!(parse_device("k80"), Ok(DeviceKind::TeslaK80));
        assert_eq!(parse_device("2080ti"), Ok(DeviceKind::Rtx2080Ti));
        assert_eq!(parse_device("V100"), Ok(DeviceKind::TeslaV100));
        assert!(parse_device("anything").is_err());
        let opts = BenchOptions::default();
        assert_eq!(opts.batch, 1);
        assert!(!opts.quick);
    }

    #[test]
    fn options_parse_the_four_flags_and_reject_everything_else() {
        let parse = |line: &str| BenchOptions::parse(line.split_whitespace().map(String::from));
        let opts = parse("--quick --device k80 --batch 32 --json out.json").expect("well-formed");
        assert!(opts.quick);
        assert_eq!(opts.device, DeviceKind::TeslaK80);
        assert_eq!(opts.batch, 32);
        assert_eq!(opts.json.as_deref(), Some("out.json"));
        assert!(!parse("").expect("no flags").quick);
        // Refused, not defaulted: a typo must not run the full-size gate.
        for malformed in [
            "--quik",
            "--batch many",
            "--device gtx9000",
            "--json",
            "quick",
        ] {
            let error = parse(malformed).expect_err(malformed);
            assert!(!error.is_empty());
        }
    }
}
