//! `telemetry_gate` — CI acceptance gate for the `ios-telemetry` subsystem.
//!
//! The observability layer is only allowed to stay permanently wired into
//! the serving hot loop if it is effectively free when nobody is looking
//! and honest when somebody is. Two bars, both measured, both enforced:
//!
//! * **Disabled-tracer overhead ≤ 2 %.** The instrumentation is compiled
//!   in unconditionally, so the cost of a *disabled* site is the one that
//!   every request always pays. The gate measures that cost directly (a
//!   tight loop of span create/drop on a disabled tracer), counts how many
//!   sites one served request actually crosses (by enabling the global
//!   tracer around a closed-loop serving run and counting records), and
//!   requires `sites/request x cost/site` to stay under 2 % of the
//!   measured per-request wall time.
//!
//! * **Histogram percentile error ≤ 5 %.** Latency percentiles in
//!   `MetricsSnapshot` come from the log-bucketed [`Histogram`], whose
//!   design bound is 1/64 ≈ 1.6 % relative error. The gate records a
//!   deterministic log-uniform workload (the shape serving latencies
//!   take: microseconds to seconds), compares every reported percentile
//!   against the exact nearest-rank value of the sorted data, and also
//!   requires the count and sum to match exactly.
//!
//! Judged and reported (`BENCH_telemetry.json`) through
//! [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin telemetry_gate`
//! (`--quick` shortens the serving stream and the sampled workload).

use ios_backend::TensorData;
use ios_bench::{cells, Cell, Gate, Table};
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use ios_serve::{ServeConfig, ServeEngine};
use ios_telemetry::{tracer, Histogram, Tracer};
use std::process::ExitCode;
use std::time::Instant;

/// A two-block branchy network — small enough that a closed-loop request
/// completes in well under a millisecond, branchy enough that a request
/// crosses every instrumentation lane (batcher, engine, executor stages).
fn gate_network() -> Network {
    let input = TensorShape::new(1, 8, 12, 12);
    let mut b = GraphBuilder::new("telemetry_gate_b0", input);
    let x = b.input(0);
    let a = b.conv2d("a3", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let c = b.conv2d("c1", x, Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)));
    let cat = b.concat("cat", &[a, c]);
    let block0 = Block::new(b.build(vec![cat]));
    let mut b = GraphBuilder::with_inputs("telemetry_gate_b1", block0.graph.output_shapes());
    let x = b.input(0);
    let d = b.conv2d("d1", x, Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)));
    let block1 = Block::new(b.build(vec![d]));
    Network::new("telemetry_gate_net", input, vec![block0, block1])
}

/// Cost of one disabled span site: create + drop an inert guard. Best of
/// `reps` tight loops, nanoseconds per site.
fn disabled_site_cost_ns(iters: u64, reps: usize) -> f64 {
    // A local tracer takes the identical code path as the process-global
    // one (`span()` checks one relaxed atomic and returns an inert guard)
    // without depending on global state.
    let t = Tracer::with_capacity(64);
    assert!(!t.is_enabled());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(t.span("gate.noop", "gate"));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    assert!(
        t.records().is_empty(),
        "a disabled tracer must not record anything"
    );
    best
}

/// Serves `n` closed-loop requests (submit, wait, repeat) and returns the
/// wall time per request in nanoseconds.
fn serve_closed_loop(engine: &ServeEngine, network: &Network, n: usize, seed0: u64) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        let _ = engine
            .submit(TensorData::random(network.input_shape, seed0 + i as u64))
            .expect("accepted")
            .wait();
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Deterministic 64-bit LCG (the bench harness takes no RNG dependency).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// A log-uniform duration in nanoseconds, spanning ~1 µs to ~1 s — the
/// dynamic range serving latencies actually cover, and the regime where a
/// linear-bucket histogram would be hopeless.
fn log_uniform_ns(state: &mut u64) -> u64 {
    let e = 10 + (lcg(state) % 20); // octave in [2^10, 2^29]
    (1u64 << e) + lcg(state) % (1u64 << e)
}

fn main() -> ExitCode {
    let mut gate = Gate::from_args("telemetry");
    let quick = gate.opts.quick;
    let requests = if quick { 32 } else { 128 };
    let warmup = 8;
    let (site_iters, site_reps) = if quick {
        (1_000_000u64, 3)
    } else {
        (5_000_000u64, 5)
    };
    let histogram_values = if quick { 20_000 } else { 200_000 };

    // --- Bar 1: disabled-tracer overhead on the serving hot loop --------
    let per_site_ns = disabled_site_cost_ns(site_iters, site_reps);

    let network = gate_network();
    // max_batch 1: every request dispatches immediately, so the closed
    // loop times the per-request hot path, not the batcher's wait policy.
    let engine = ServeEngine::start(
        network.clone(),
        ServeConfig::default().with_max_batch(1).with_workers(1),
    );
    // Warm-up: first requests pay schedule optimization + cache fill.
    serve_closed_loop(&engine, &network, warmup, 0);

    // Timed phase, tracer disabled — the configuration every production
    // request runs under.
    assert!(!tracer().is_enabled());
    let request_ns = serve_closed_loop(&engine, &network, requests, 1_000);

    // Counting phase, tracer enabled: how many sites does one request
    // actually cross end to end?
    tracer().clear();
    let dropped_before = tracer().dropped();
    tracer().set_enabled(true);
    serve_closed_loop(&engine, &network, requests, 10_000);
    tracer().set_enabled(false);
    let records = tracer().records().len() as u64 + (tracer().dropped() - dropped_before);
    tracer().clear();
    engine.shutdown();

    let sites_per_request = records as f64 / requests as f64;
    assert!(
        sites_per_request >= 3.0,
        "an enabled request must cross the batcher, engine and executor lanes \
         (saw {sites_per_request:.1} records/request — instrumentation went missing?)"
    );
    let overhead_pct = 100.0 * sites_per_request * per_site_ns / request_ns;
    let mut overhead = Table::new(
        "Disabled-tracer overhead on the serving hot loop",
        &[
            ("requests", "requests"),
            ("per_site_ns", "ns/site"),
            ("sites_per_request", "sites/req"),
            ("request_us", "us/req"),
        ],
    );
    overhead.row(cells![
        requests,
        per_site_ns,
        sites_per_request,
        request_ns / 1e3
    ]);
    gate.table(&overhead);

    // --- Bar 2: histogram percentile accuracy ---------------------------
    let histogram = Histogram::new();
    let mut state = 0x00c0_ffee_u64;
    let mut values: Vec<u64> = Vec::with_capacity(histogram_values);
    for _ in 0..histogram_values {
        let v = log_uniform_ns(&mut state);
        histogram.record(v);
        values.push(v);
    }
    assert_eq!(histogram.count(), histogram_values as u64);
    assert_eq!(
        histogram.sum(),
        values.iter().sum::<u64>(),
        "count and sum must be exact, only quantiles are approximate"
    );
    values.sort_unstable();

    let ps = [50.0, 90.0, 95.0, 99.0, 99.9];
    let approx = histogram.percentiles(&ps).expect("non-empty");
    let mut percentiles = Table::new(
        "Histogram percentiles vs exact nearest-rank (log-uniform ns)",
        &[
            ("p", "p"),
            ("exact_ns", "exact ns"),
            ("histogram_ns", "histogram ns"),
            ("rel_err_pct", "rel err %"),
        ],
    );
    for (&p, &histogram_ns) in ps.iter().zip(&approx) {
        let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
        let exact_ns = values[rank.min(values.len()) - 1];
        let rel_err_pct = 100.0 * (histogram_ns as f64 - exact_ns as f64).abs() / exact_ns as f64;
        percentiles.row(cells![Cell::Num(p, 1), exact_ns, histogram_ns, rel_err_pct]);
    }
    gate.table(&percentiles);
    gate.fact("histogram_values", histogram_values);
    gate.fact("design_bound_pct", 100.0 * Histogram::MAX_RELATIVE_ERROR);

    gate.at_most(
        "disabled-tracer overhead, % of request time",
        overhead_pct,
        2.0,
    );
    let worst = percentiles.column("rel_err_pct");
    gate.at_most(
        "worst histogram percentile error, %",
        worst.into_iter().fold(0.0, f64::max),
        5.0,
    );
    gate.finish()
}
