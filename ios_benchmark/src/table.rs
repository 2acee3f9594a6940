//! The one table of metrics and workloads. `BENCHMARK.json`, `--list`, the
//! result line of every run and the README are all written from it, so
//! they cannot drift (a unit test compares the committed `BENCHMARK.json`).

use serde_json::{Map, Value};

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Number of Inception V3 blocks, each with its own per-layer timing.
pub const INCEPTION_BLOCKS: usize = 11;

/// Latency limit of the open-loop workload: a request answered later than
/// this (or wrongly, or not at all) misses.
pub const SLO_MS: f64 = 300.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees; reported by every workload's
/// untraced run and gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// A metric of one crate, measured from the benchmark's side of that
/// crate's public calls in the traced run. `exact` counters repeat exactly
/// between runs of one program.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

impl PerLayer {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or_default()
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub generator: &'static str,
    pub seed_use: &'static str,
}

pub fn end_to_end() -> Vec<EndToEnd> {
    use Better::Lower;
    vec![
        EndToEnd {
            name: "latency_ms_best",
            unit: "ms",
            better: Lower,
            bound: 0.25,
            what: "mean of the run's three fastest operations - an inference, a search, or a request timed from when it was due - i.e. the operation while the host did not disturb it",
        },
        EndToEnd {
            name: "peak_rss_mb",
            unit: "MB",
            better: Lower,
            bound: 0.25,
            what: "VmHWM of the workload's process",
        },
        EndToEnd {
            name: "setup_s",
            unit: "s",
            better: Lower,
            bound: 0.25,
            what: "mean of the three fastest of the repeated set-ups: model build, schedule optimize or pre-warm, weight precompute, engine start - up to the first possible answer (reference outputs excluded)",
        },
    ]
}

pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "infer_inception_b1",
            why: "Paper Fig. 7 on real numerics: Inception V3 batch 1 under the IOS schedule; backend does nearly all the work, core and sim only in set-up, serve none",
            generator: "closed loop, one caller, back-to-back inferences for the whole window",
            seed_use: "two input tensors",
        },
        Workload {
            name: "sched_search",
            why: "Paper Fig. 9 / Table 1 cost axis: full IOS-Both r=3 s=8 search of Inception V3 against a fresh simulator cost model; core, ir and sim only - a kernel change must not move it",
            generator: "closed loop, one caller, back-to-back searches for the whole window",
            seed_use: "none: the search has no random input, so runs differ by host noise only",
        },
        Workload {
            name: "serve_open_squeezenet",
            why: "Independent users on a Table-2 network: seeded Poisson arrivals at 10 req/s (about half of capacity) into ServeEngine; partial batches, max_wait flushes and queueing that a closed loop hides",
            generator: "open loop, 10 req/s, Poisson gaps conditioned on the count, each request timed from its due time, 300 ms limit",
            seed_use: "arrival times, 16-tensor input pool, which input each request carries",
        },
        Workload {
            name: "serve_closed_small",
            why: "Serving overhead: a 3-block 16-channel 16x16 net, 16 requests outstanding, two equal tenants with 1 s deadlines; admission, WFQ lanes, stacking, leases and wake-ups are most of each request",
            generator: "closed loop, one generator thread keeping 16 requests outstanding, alternating two tenants",
            seed_use: "16-tensor input pool, which input each request carries",
        },
    ]
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
        exact,
        moves,
    }
}

pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    const SETUP: &str = "setup_s on every workload";
    const SEARCH: &str = "latency_ms_best on sched_search";
    const INFER: &str = "latency_ms_best on infer_inception_b1";
    const CLOSED: &str = "latency_ms_best on serve_closed_small";
    const OPEN: &str = "latency_ms_best on serve_open_squeezenet";
    let mut m = vec![
        layer("models.build_ms", "ms", Lower, false, SETUP),
        layer(
            "models.ops",
            "count",
            Lower,
            true,
            "context for backend.gflops_per_s",
        ),
        layer(
            "models.blocks",
            "count",
            Lower,
            true,
            "context for backend.block_ms.*",
        ),
        layer(
            "models.mflops",
            "MFLOP",
            Lower,
            true,
            "context for backend.gflops_per_s",
        ),
        layer("ir.endings_per_s", "1/s", Higher, false, SEARCH),
        layer("ir.dag_width_max", "count", Lower, true, SEARCH),
        layer("sim.measurements", "count", Lower, true, SEARCH),
        layer("sim.measure_stage_us", "us", Lower, false, SEARCH),
        layer(
            "sim.predicted_speedup",
            "ratio",
            Higher,
            true,
            "explains backend.ios_speedup",
        ),
        layer(
            "sim.speedup_error_ratio",
            "ratio",
            Lower,
            false,
            "cost-model error seen from outside, on infer_inception_b1",
        ),
        layer("core.search_s.randwire", "s", Lower, false, SEARCH),
        layer("core.search_s.inception", "s", Lower, false, SEARCH),
        layer("core.block_search_s_max", "s", Lower, false, SEARCH),
        layer("core.transitions", "count", Lower, true, SEARCH),
        layer("core.states", "count", Lower, true, SEARCH),
        layer("core.stage_memo_hits", "count", Higher, true, SEARCH),
        layer("core.transitions_per_s", "1/s", Higher, false, SEARCH),
        layer(
            "core.optimize_ms",
            "ms",
            Lower,
            false,
            "setup_s on the three non-search workloads",
        ),
        layer("core.stages", "count", Lower, true, INFER),
        layer("core.merge_stages", "count", Higher, true, INFER),
        layer("core.concurrent_stages", "count", Higher, true, INFER),
        layer("backend.precompute_ms", "ms", Lower, false, SETUP),
        layer("backend.weight_mb", "MB", Lower, true, "peak_rss_mb"),
    ];
    for kind in ["ios", "seq"] {
        for block in 0..INCEPTION_BLOCKS {
            m.push(layer(
                format!("backend.block_ms.{kind}.{block:02}"),
                "ms",
                Lower,
                false,
                INFER,
            ));
        }
    }
    m.extend([
        layer("backend.block_ms_sum", "ms", Lower, false, INFER),
        layer("backend.chain_overhead_ms", "ms", Lower, false, INFER),
        layer("backend.ios_ms_p50", "ms", Lower, false, "numerator side of backend.ios_speedup"),
        layer("backend.seq_ms_p50", "ms", Lower, false, "denominator side of backend.ios_speedup"),
        layer("backend.ios_speedup", "ratio", Higher, false, "the paper's headline ratio, interleaved medians; latency_ms_best on infer_inception_b1"),
        layer("backend.gflops_per_s", "GFLOP/s", Higher, false, INFER),
        layer("backend.bytes_per_flop", "B/FLOP", Lower, true, "computed from tensor sizes; context for backend.gflops_per_s"),
        layer("backend.arena_fresh", "count", Lower, true, "bench.latency_ms_p90 and peak_rss_mb"),
        layer("backend.arena_reuse_ratio", "ratio", Higher, false, "bench.latency_ms_p90 and peak_rss_mb"),
        layer("backend.batched_ms.b8", "ms", Lower, false, "serve.slo_share on serve_open_squeezenet (bursts)"),
        layer("backend.stack_ms.b8", "ms", Lower, false, CLOSED),
        layer("backend.split_ms.b8", "ms", Lower, false, CLOSED),
        layer("serve.engine_start_ms", "ms", Lower, false, "setup_s on the serve workloads"),
        layer("serve.submit_us_p50", "us", Lower, false, CLOSED),
        layer("serve.queue_wait_us_p50", "us", Lower, false, OPEN),
        layer("serve.queue_wait_us_p95", "us", Lower, false, "bench.latency_ms_p90 on serve_open_squeezenet"),
        layer("serve.batch_size_mean", "count", Higher, false, CLOSED),
        layer("serve.batches", "count", Lower, false, CLOSED),
        layer("serve.execute_us_per_batch", "us", Lower, false, CLOSED),
        layer("serve.executor_busy_share", "share", Lower, false, "rises toward 1 before bench.latency_ms_p90 does"),
        layer("serve.respond_us_p50", "us", Lower, false, CLOSED),
        layer("serve.overhead_us_per_req", "us", Lower, false, "bounds bench.goodput_ops_s on serve_closed_small"),
        layer("serve.latency_ms_p95", "ms", Lower, false, "open-loop tail, informational"),
        layer("serve.latency_ms_p99", "ms", Lower, false, "tail on serve_closed_small (>= 100 k samples)"),
        layer("serve.slo_share", "share", Higher, false, "bench.goodput_ops_s on serve_open_squeezenet"),
        layer("serve.cache_hits", "count", Higher, false, CLOSED),
        layer("serve.cache_nearest_served", "count", Lower, false, "bench.latency_ms_p90 on the serve workloads"),
        layer("serve.cache_background_inserts", "count", Lower, false, "setup_s if pre-warm grows"),
        layer("serve.io_pool_fresh", "count", Lower, false, "bench.latency_ms_p90 and peak_rss_mb"),
        layer("serve.shed", "count", Lower, true, "failed operations (expected 0)"),
        layer("serve.deadline_expired", "count", Lower, true, "failed operations (expected 0)"),
        layer("telemetry.records_per_request", "count", Lower, false, CLOSED),
        layer("telemetry.dropped", "count", Lower, false, "trace completeness"),
        layer("telemetry.trace_overhead_pct", "%", Lower, false, "traced vs untraced latency_ms_best within one run"),
        layer("telemetry.prometheus_ms", "ms", Lower, false, "scrape cost beside bench.goodput_ops_s on serve_closed_small"),
        layer("bench.latency_ms_p50", "ms", Lower, false, "median operation time; follows the host's state, so it informs and does not gate"),
        layer("bench.latency_ms_p90", "ms", Lower, false, "tail operation time; informs, does not gate"),
        layer("bench.goodput_ops_s", "1/s", Higher, false, "operations answered correctly (open loop: within 300 ms of being due) per second; informs, does not gate"),
        layer("bench.gen_lag_ms_p95", "ms", Lower, false, "how late the open-loop generator ran"),
        layer("bench.calib_ms_before", "ms", Lower, false, "host disturbance before the workload"),
        layer("bench.calib_ms_after", "ms", Lower, false, "host disturbance after the workload"),
        layer("bench.reference_s", "s", Lower, false, "time spent computing reference outputs, outside setup_s"),
        layer("bench.unexplained_share", "share", Lower, false, "part of the traced whole its child spans do not account for"),
    ]);
    m
}

pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = Map::new();
    for (key, value) in pairs {
        map.insert(key, value);
    }
    Value::Object(map)
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn texts(items: &[&str]) -> Value {
    Value::Array(items.iter().map(|s| text(s)).collect())
}

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "ios_benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let number = |v: f64| serde_json::to_value(v).expect("a finite number");
    let manifest = object(vec![
        ("command", texts(&COMMAND)),
        ("paths", texts(&["ios_benchmark"])),
        (
            "run_seconds",
            serde_json::to_value(RUN_SECONDS).expect("an integer"),
        ),
        (
            "workloads",
            Value::Array(
                workloads()
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                end_to_end()
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", number(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(&m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut out = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
    out.push('\n');
    out
}

/// `--list`: every metric and workload, from the same table.
pub fn print_list() {
    println!("END-TO-END METRICS (every workload's untraced run reports all of them)");
    for m in end_to_end() {
        println!(
            "  {:<16} {:<5} {:<6} bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nPER-LAYER METRICS (traced run; # repeats exactly; 0 where the layer is not on the workload's path)");
    for m in per_layer() {
        println!(
            "  {:<34}{} {:<8} {:<6} [{}] -> {}",
            m.name,
            if m.exact { "#" } else { " " },
            m.unit,
            m.better.as_str(),
            m.layer(),
            m.moves
        );
    }
    println!("\nWORKLOADS ({RUN_SECONDS} s measured per run)");
    for w in workloads() {
        println!(
            "  {}\n    generator: {}\n    seed:      {}\n    why:       {}",
            w.name, w.generator, w.seed_use, w.why
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_manifest_is_the_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with: ios_benchmark --manifest > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        let loads = workloads();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!((2..=8).contains(&loads.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = e2e.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        names.extend(loads.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &e2e {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &layers {
            assert!(valid_unit(m.unit), "bad unit {}", m.unit);
        }
        for w in &loads {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound));
    }
}
