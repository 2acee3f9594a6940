//! `adapt_gate` — CI acceptance gate for the runtime adaptation loop.
//!
//! Three phases, each on a fresh [`ios_serve::ServeEngine`] over the real
//! CPU reference backend:
//!
//! 1. **Baseline** — one closed-loop client measures the unloaded
//!    engine-side p99 latency (enqueue → completion, from the serving
//!    metrics histogram — free of client-thread wakeup jitter).
//! 2. **Overload with shedding** — four closed-loop clients race a
//!    capacity-1 admission queue with the shed controller armed; a shed
//!    client backs off for about one unloaded service time before it
//!    offers again (a client that re-offers in a spin loop takes a core
//!    away from the worker it is waiting for, and measures that). Offers
//!    are either answered or typed-shed (exact conservation), at least one
//!    offer must be shed, every accepted response is checked
//!    **bit-identical** against solo execution, and the accepted-request
//!    p99 must stay within the acceptance bar of the unloaded p99 —
//!    load shedding converts overload into rejections, not latency.
//! 3. **Mid-flight schedule swap** — only batch 4 is prewarmed, so lone
//!    requests are served by its schedule until background
//!    re-optimization lands batch 1's exact one; bursts of 4 follow. The
//!    gate requires **≥ 1 background insert** and zero bit-exactness
//!    violations across the swap.
//!
//! Both percentiles are taken over a thousand or more requests (sub-ms
//! each): a p99 over the ~50 the quick mode used to serve is their maximum,
//! and one scheduler hiccup decided the verdict.
//!
//! The latency bar is host-aware: on hosts with
//! ≥ 2 cores the accepted-p99 must stay ≤ 3× the unloaded p99; on a
//! single-core host client threads, worker and controller all contend for
//! one CPU, so the gate relaxes the ratio to 6× (shedding still has to
//! prove exact accounting and bit-identity there).
//!
//! Judged and reported (`BENCH_adapt.json`) through [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin adapt_gate`
//! (`--quick` shortens the request streams for CI).

use ios_backend::{execute_network, TensorData};
use ios_bench::{cells, gate_network, Gate, Table};
use ios_serve::{Rejected, ScheduleSource, ServeConfig, ServeEngine, ServeError};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let mut gate = Gate::from_args("adapt");
    let net = gate_network();
    let references: Vec<Vec<TensorData>> = (0..8)
        .map(|seed| {
            let input = TensorData::random(net.input_shape, seed);
            execute_network(&net, std::slice::from_ref(&input))
        })
        .collect();
    let baseline_requests: usize = if gate.opts.quick { 1000 } else { 3000 };
    let overload_accepted_target = baseline_requests as u64;
    let overload_clients = 4usize;

    // ---- Phase 1: unloaded baseline --------------------------------
    let engine = ServeEngine::start(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(1)
            .with_workers(1)
            .with_prewarm_batches(vec![1])
            .with_background_reoptimize(false),
    );
    for i in 0..baseline_requests {
        let seed = (i % 8) as u64;
        let response = engine
            .submit(TensorData::random(net.input_shape, seed))
            .expect("unloaded engine accepts")
            .wait_outcome()
            .expect("unloaded engine serves");
        assert_eq!(response.outputs.len(), references[seed as usize].len());
    }
    // Engine-side p99 (enqueue -> completion): the latency the serving
    // system is responsible for, free of client-thread wakeup jitter —
    // on a loaded single-core host the OS can park a *client* for
    // milliseconds after its answer is ready, and that is not the
    // engine's tail.
    let baseline_p99 = engine.metrics().p99_latency_us / 1e3;
    engine.shutdown();

    // ---- Phase 2: overload with shedding ---------------------------
    // Capacity 1 bounds how much backlog an accepted request can sit
    // behind; the shed controller is armed with a budget near the
    // unloaded p99 so sustained overload also flips shed mode.
    let mut config = ServeConfig::default()
        .with_max_batch(1)
        .with_workers(1)
        .with_prewarm_batches(vec![1])
        .with_background_reoptimize(false)
        .with_admission_capacity(1)
        .with_adapt_tick(Duration::from_millis(10))
        .with_shed_queue_wait_budget(Duration::from_secs_f64(baseline_p99 / 1e3));
    config.adapt.min_window_batches = 4;
    let engine = Arc::new(ServeEngine::start(net.clone(), config));
    let shed_backoff = Duration::from_secs_f64(baseline_p99 / 1e3);
    let offered = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let accepted = Arc::new(AtomicU64::new(0));
    let bitexact_checks = Arc::new(AtomicU64::new(0));
    let bitexact_violations = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for client in 0..overload_clients as u64 {
            let engine = Arc::clone(&engine);
            let net = &net;
            let references = &references;
            let offered = Arc::clone(&offered);
            let shed = Arc::clone(&shed);
            let accepted = Arc::clone(&accepted);
            let checks = Arc::clone(&bitexact_checks);
            let violations = Arc::clone(&bitexact_violations);
            scope.spawn(move || {
                let mut round = 0;
                while accepted.load(Ordering::SeqCst) < overload_accepted_target {
                    let seed = (client * 31 + round) % 8;
                    round += 1;
                    offered.fetch_add(1, Ordering::SeqCst);
                    match engine.submit(TensorData::random(net.input_shape, seed)) {
                        Ok(handle) => {
                            let response =
                                handle.wait_outcome().expect("accepted requests complete");
                            accepted.fetch_add(1, Ordering::SeqCst);
                            checks.fetch_add(1, Ordering::SeqCst);
                            if response
                                .outputs
                                .iter()
                                .zip(&references[seed as usize])
                                .any(|(lease, reference)| lease != reference)
                            {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Err(ServeError::Rejected(Rejected::Shed)) => {
                            shed.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(shed_backoff);
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
            });
        }
    });
    let overload_shed = shed.load(Ordering::SeqCst);
    let metrics = engine.metrics();
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("clients joined"));
    engine.shutdown();
    let overload_offered = offered.load(Ordering::SeqCst);
    let overload_accepted = accepted.load(Ordering::SeqCst);
    assert_eq!(
        overload_accepted + overload_shed,
        overload_offered,
        "every offer is either answered or typed-shed"
    );
    assert_eq!(
        metrics.shed, overload_shed,
        "the shed counter matches client truth"
    );
    // Same engine-side percentile as the baseline: only accepted
    // requests ever enter the latency histogram.
    let overload_p99 = metrics.p99_latency_us / 1e3;
    let p99_ratio = overload_p99 / baseline_p99;

    // ---- Phase 3: mid-flight schedule swap, bit-identical across it --
    let config = ServeConfig::default()
        .with_max_batch(4)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![4])
        .with_background_reoptimize(true);
    let engine = ServeEngine::start(net.clone(), config);
    let check = |handles: Vec<ios_serve::ResponseHandle>, seeds: &[u64]| {
        let mut sources = Vec::with_capacity(seeds.len());
        for (handle, &seed) in handles.into_iter().zip(seeds) {
            let response = handle.wait_outcome().expect("no deadline in this phase");
            bitexact_checks.fetch_add(1, Ordering::SeqCst);
            if response
                .outputs
                .iter()
                .zip(&references[seed as usize])
                .any(|(lease, reference)| lease != reference)
            {
                bitexact_violations.fetch_add(1, Ordering::SeqCst);
            }
            sources.push(response.schedule_source);
        }
        sources
    };
    // Singles are served by the prewarmed batch-4 schedule until the
    // background fill lands batch 1's exact one; then bursts of 4.
    let stop_at = Instant::now() + Duration::from_secs(60);
    while Instant::now() < stop_at {
        let handle = engine
            .submit(TensorData::random(net.input_shape, 1))
            .unwrap();
        if check(vec![handle], &[1])[0] == ScheduleSource::Exact {
            break;
        }
    }
    for _ in 0..8 {
        let seeds = [0u64, 1, 2, 3];
        let handles: Vec<_> = seeds
            .iter()
            .map(|&s| {
                engine
                    .submit(TensorData::random(net.input_shape, s))
                    .unwrap()
            })
            .collect();
        check(handles, &seeds);
    }
    let background_inserts = engine.metrics().cache.background_inserts;
    engine.shutdown();

    // ---- Verdict ---------------------------------------------------
    let checks = bitexact_checks.load(Ordering::SeqCst);
    let violations = bitexact_violations.load(Ordering::SeqCst);
    let mut table = Table::new(
        "Runtime adaptation gate: shed-mode tail latency and the mid-flight schedule swap",
        &[
            ("baseline_requests", "unloaded requests"),
            ("baseline_p99_ms", "unloaded p99 ms"),
            ("overload_clients", "clients"),
            ("overload_offered", "offered"),
            ("overload_accepted", "accepted"),
            ("overload_shed", "shed"),
            ("overload_p99_ms", "overload p99 ms"),
            ("background_inserts", "background inserts"),
            ("bitexact_checks", "bit-exact checks"),
            ("bitexact_violations", "violations"),
        ],
    );
    table.row(cells![
        baseline_requests,
        baseline_p99,
        overload_clients,
        overload_offered,
        overload_accepted,
        overload_shed,
        overload_p99,
        background_inserts,
        checks,
        violations,
    ]);
    gate.table(&table);

    // On one core the clients, the worker and the controller contend for
    // the same CPU, so the latency ratio relaxes; accounting, shedding and
    // bit-identity are enforced everywhere.
    let ratio_bar = gate.by_cores(3.0, 6.0);
    gate.at_most(
        "accepted p99 under overload / unloaded p99",
        p99_ratio,
        ratio_bar,
    );
    gate.at_least("offers shed", overload_shed as f64, 1.0);
    gate.at_most("bit-exactness violations", violations as f64, 0.0);
    gate.at_least(
        "background inserts observed",
        background_inserts as f64,
        1.0,
    );
    gate.finish()
}
