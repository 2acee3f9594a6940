//! `tenant_gate` — CI acceptance gate for multi-tenant admission.
//!
//! Two phases, each on a fresh [`ios_serve::ServeEngine`] over the real
//! CPU reference backend:
//!
//! 1. **Weighted fairness** — two *equal-weight* tenants offer load at a
//!    3:1 ratio against a saturated single-worker server. Weighted-fair
//!    dequeue must split completed throughput evenly regardless of the
//!    offered skew: the gate requires the completed-count ratio to stay
//!    within 1.25× of parity while both lanes are backlogged.
//! 2. **Quota enforcement** — a token-bucket-limited tenant is offered
//!    load well above its refill rate. Every over-quota offer must come
//!    back as the typed [`Rejected::Shed`] (exact conservation:
//!    `accepted + shed == offered`), the per-tenant metrics must agree
//!    with client-side truth, and the accepted count must stay within
//!    `burst + rate · elapsed + slack` — the bucket cannot leak.
//!
//! The gate also round-trips the engine's Prometheus exposition (now
//! carrying `ios_tenant_*{tenant="…"}` labelled series) through the
//! telemetry validator.
//!
//! Judged and reported (`BENCH_tenant.json`) through [`ios_bench::gate`].
//!
//! Run with: `cargo run --release -p ios-bench --bin tenant_gate`
//! (`--quick` shortens both phases for CI).

use ios_backend::TensorData;
use ios_bench::{cells, gate_network, Gate, Table};
use ios_serve::{Rejected, ServeConfig, ServeEngine, ServeError, TenantConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tenant_completed(engine: &ServeEngine, tenant: &str) -> u64 {
    engine
        .metrics()
        .tenants
        .iter()
        .find(|t| t.tenant == tenant)
        .map_or(0, |t| t.completed)
}

fn main() -> ExitCode {
    let mut gate = Gate::from_args("tenant");
    let net = gate_network();
    let fairness_target = if gate.opts.quick { 240u64 } else { 600 };
    let quota_offers = if gate.opts.quick { 60u64 } else { 120 };

    // ---- Phase 1: equal weights split a 3:1 offered load evenly ------
    // One worker, batch 1: every dispatch is a pure weighted-fair choice.
    // The burst tenant keeps 9 requests outstanding, the trickle tenant 3
    // (the 3:1 offered skew); equal weights mean the dequeue must ignore
    // that skew as long as both lanes are backlogged.
    let config = ServeConfig::default()
        .with_max_batch(1)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![1])
        .with_background_reoptimize(false)
        .with_tenant("burst", TenantConfig::default())
        .with_tenant("trickle", TenantConfig::default());
    let engine = Arc::new(ServeEngine::start(net.clone(), config));
    let stop = Arc::new(AtomicBool::new(false));
    let feeders: Vec<_> = [("burst", 9usize), ("trickle", 3usize)]
        .into_iter()
        .map(|(tenant, depth)| {
            let engine = Arc::clone(&engine);
            let net = net.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut outstanding = Vec::new();
                let mut seed = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    while outstanding.len() < depth {
                        seed += 1;
                        let handle = engine
                            .submit_for_tenant(tenant, TensorData::random(net.input_shape, seed))
                            .expect("fairness phase runs unmetered");
                        outstanding.push(handle);
                    }
                    outstanding = outstanding
                        .into_iter()
                        .filter_map(|h| h.try_wait().err())
                        .collect();
                    std::thread::sleep(Duration::from_micros(300));
                }
                for handle in outstanding {
                    let _ = handle.wait_outcome();
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(120);
    while engine.metrics().completed < fairness_target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let burst_completed = tenant_completed(&engine, "burst");
    let trickle_completed = tenant_completed(&engine, "trickle");
    stop.store(true, Ordering::SeqCst);
    for feeder in feeders {
        feeder.join().expect("feeder thread");
    }
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("feeders joined"))
        .shutdown();
    // A starved lane (zero completed) makes this infinite, which fails.
    let fairness_ratio = burst_completed.max(trickle_completed) as f64
        / burst_completed.min(trickle_completed) as f64;

    // ---- Phase 2: the token bucket cannot leak -----------------------
    let rate = 20.0;
    let burst = 5.0;
    let config = ServeConfig::default()
        .with_max_batch(8)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![1])
        .with_background_reoptimize(false)
        .with_tenant("metered", TenantConfig::default().with_rate(rate, burst))
        .with_tenant("bystander", TenantConfig::default());
    let engine = ServeEngine::start(net.clone(), config);
    let mut accepted_handles = Vec::new();
    let mut quota_shed = 0u64;
    let quota_started = Instant::now();
    for i in 0..quota_offers {
        match engine.submit_for_tenant("metered", TensorData::random(net.input_shape, i)) {
            Ok(handle) => accepted_handles.push(handle),
            Err(ServeError::Rejected(Rejected::Shed)) => quota_shed += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let quota_elapsed = quota_started.elapsed().as_secs_f64();
    let quota_accepted = accepted_handles.len() as u64;
    for handle in accepted_handles {
        handle
            .wait_outcome()
            .expect("accepted metered requests complete");
    }
    // A bystander rides along untouched by the neighbor's exhausted bucket.
    engine
        .submit_for_tenant("bystander", TensorData::random(net.input_shape, 0))
        .expect("an unmetered tenant is never rate-limited")
        .wait_outcome()
        .expect("bystander completes");
    let snapshot = engine.metrics();
    let metered = snapshot
        .tenants
        .iter()
        .find(|t| t.tenant == "metered")
        .expect("metered tenant reported");
    let quota_accept_bound = burst + rate * quota_elapsed + 3.0;
    let text = engine.prometheus_text();
    let prometheus_series = match ios_telemetry::prometheus::validate(&text) {
        Ok(series) => series,
        Err(e) => {
            println!("tenant_gate: prometheus exposition failed validation: {e}");
            0
        }
    };
    engine.shutdown();

    // ---- Verdict -----------------------------------------------------
    let mut table = Table::new(
        "Multi-tenant admission gate: weighted fairness and quota enforcement",
        &[
            ("fairness_target_completed", "fairness target"),
            ("burst_completed", "burst done"),
            ("trickle_completed", "trickle done"),
            ("quota_rate_per_sec", "quota rate/s"),
            ("quota_burst", "quota burst"),
            ("quota_offered", "quota offered"),
            ("quota_accepted", "quota accepted"),
            ("quota_shed", "quota shed"),
            ("quota_elapsed_s", "quota elapsed s"),
            ("prometheus_series", "prometheus series"),
        ],
    );
    table.row(cells![
        fairness_target,
        burst_completed,
        trickle_completed,
        rate,
        burst,
        quota_offers,
        quota_accepted,
        quota_shed,
        quota_elapsed,
        prometheus_series,
    ]);
    gate.table(&table);

    gate.at_most(
        "completed-count ratio of two equal-weight tenants under 3:1 load",
        fairness_ratio,
        1.25,
    );
    gate.at_least("over-quota offers shed", quota_shed as f64, 1.0);
    gate.check(
        "every quota offer is accepted or shed",
        quota_accepted + quota_shed == quota_offers,
    );
    gate.at_most(
        "quota accepted vs burst + rate x elapsed + slack",
        quota_accepted as f64,
        quota_accept_bound,
    );
    gate.at_least(
        "quota accepted vs the bucket's burst",
        quota_accepted as f64,
        burst,
    );
    gate.check(
        "metered tenant's completed and shed metrics match client truth",
        metered.completed == quota_accepted && metered.shed == quota_shed,
    );
    gate.at_least("prometheus series validated", prometheus_series as f64, 1.0);
    gate.check(
        "exposition carries the metered tenant's shed series",
        text.contains(r#"ios_tenant_requests_shed_total{tenant="metered"}"#),
    );
    gate.finish()
}
