//! The multi-tenant admission suite: weighted-fair scheduling, per-tenant
//! quotas, and the tenant dimension of the metrics surface.
//!
//! * **fairness** — racing closed-loop submitters for a weight-3 and a
//!   weight-1 tenant share a saturated single-worker server in proportion
//!   to their weights;
//! * **quotas** — a token-bucket-limited tenant admits *exactly* its burst
//!   under racing submitters (the bucket is spent inside the queue lock),
//!   its overflow is turned away with the typed [`Rejected::Shed`], and an
//!   unlimited tenant riding alongside is untouched;
//! * **isolation of numerics** — responses stay bit-identical to solo
//!   [`execute_network`] runs regardless of which tenant submitted, and
//!   anonymous [`ServeEngine::submit`] traffic lands on the `default`
//!   tenant;
//! * **export** — per-tenant completed/shed/queue-wait series reach the
//!   Prometheus exposition as `ios_tenant_*{tenant="…"}` families that
//!   round-trip through the telemetry validator.

use ios_backend::{execute_network, TensorData};
use ios_serve::{MetricsSnapshot, Rejected, ServeConfig, ServeEngine, ServeError, TenantConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

fn tenant_snapshot<'a>(
    snapshot: &'a MetricsSnapshot,
    tenant: &str,
) -> &'a ios_serve::TenantMetricsSnapshot {
    snapshot
        .tenants
        .iter()
        .find(|t| t.tenant == tenant)
        .unwrap_or_else(|| {
            panic!(
                "tenant {tenant} missing from snapshot: {:?}",
                snapshot.tenants
            )
        })
}

// ------------------------------------------------------ weighted fairness

#[test]
fn a_saturated_server_divides_throughput_by_tenant_weight() {
    let net = common::three_block_network();
    // One worker, 2 ms per single-request batch: the server is the
    // bottleneck, both lanes stay backlogged, and every dispatch decision
    // is a pure weighted-fair-queuing choice between the two tenants.
    let config = ServeConfig {
        max_batch: 1,
        workers: 1,
        max_wait: Duration::from_millis(1),
        ..ServeConfig::default()
    }
    .with_tenant(
        "heavy",
        TenantConfig {
            weight: 3,
            ..TenantConfig::default()
        },
    )
    .with_tenant(
        "light",
        TenantConfig {
            weight: 1,
            ..TenantConfig::default()
        },
    );
    let engine = Arc::new(ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(common::SleepyExecutor {
            batch_time: Duration::from_millis(2),
        }),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    // One closed-loop feeder per tenant keeps 8 requests outstanding, so
    // neither lane ever runs dry while the measurement is taken.
    let feeders: Vec<_> = ["heavy", "light"]
        .into_iter()
        .map(|tenant| {
            let engine = Arc::clone(&engine);
            let net = net.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut outstanding = Vec::new();
                let mut seed = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    while outstanding.len() < 8 {
                        seed += 1;
                        let handle = engine
                            .submit_for_tenant(tenant, TensorData::random(net.input_shape, seed))
                            .expect("admission is unbounded and unmetered");
                        outstanding.push(handle);
                    }
                    outstanding = outstanding
                        .into_iter()
                        .filter_map(|h| h.try_wait().err())
                        .collect();
                    std::thread::sleep(Duration::from_micros(500));
                }
                for handle in outstanding {
                    let _ = handle.wait_outcome();
                }
            })
        })
        .collect();

    // Measure once 400 weighted-fair decisions have been made.
    let deadline = Instant::now() + Duration::from_secs(60);
    while engine.metrics().completed < 400 {
        assert!(
            Instant::now() < deadline,
            "the server never reached 400 completions (completed {})",
            engine.metrics().completed
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let snapshot = engine.metrics();
    stop.store(true, Ordering::SeqCst);
    for feeder in feeders {
        feeder.join().expect("feeder thread");
    }

    let heavy = tenant_snapshot(&snapshot, "heavy").completed;
    let light = tenant_snapshot(&snapshot, "light").completed;
    assert!(light > 0, "the weight-1 tenant must not be starved");
    let ratio = heavy as f64 / light as f64;
    assert!(
        (2.4..=3.6).contains(&ratio),
        "a 3:1 weight split must yield ~3:1 throughput on a saturated \
         server (heavy {heavy}, light {light}, ratio {ratio:.2})"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("feeders joined"))
        .shutdown();
}

// ------------------------------------------------- quotas under the race

#[test]
fn a_token_bucket_admits_exactly_its_burst_and_spares_the_neighbor() {
    let net = common::three_block_network();
    // The metered tenant gets a burst of 5 and a refill rate so slow it
    // contributes nothing on the test's time scale: admission must come
    // out to *exactly* 5 no matter how the 8 submitters race. The free
    // tenant carries no bucket at all.
    let config = ServeConfig {
        max_batch: 8,
        workers: 1,
        max_wait: Duration::from_millis(1),
        ..ServeConfig::default()
    }
    .with_tenant(
        "metered",
        TenantConfig {
            rate: Some(1e-9),
            burst: 5.0,
            ..TenantConfig::default()
        },
    )
    .with_tenant("free", TenantConfig::default());
    let engine = Arc::new(ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(common::SleepyExecutor {
            batch_time: Duration::from_millis(1),
        }),
    ));
    let accepted = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for client in 0..8u64 {
            let engine = Arc::clone(&engine);
            let net = net.clone();
            let accepted = Arc::clone(&accepted);
            let shed = Arc::clone(&shed);
            scope.spawn(move || {
                for round in 0..10u64 {
                    match engine.submit_for_tenant(
                        "metered",
                        TensorData::random(net.input_shape, client * 31 + round),
                    ) {
                        Ok(handle) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            handle.wait_outcome().expect("accepted requests complete");
                        }
                        Err(ServeError::Rejected(Rejected::Shed)) => {
                            shed.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
            });
        }
    });
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        5,
        "the bucket must admit exactly its burst under racing submitters"
    );
    assert_eq!(shed.load(Ordering::SeqCst), 75, "everything else is shed");

    // The neighbor's admission is untouched by the metered tenant burning
    // through its quota.
    let free_handles: Vec<_> = (0..10)
        .map(|i| {
            engine
                .submit_for_tenant("free", TensorData::random(net.input_shape, i))
                .expect("an unmetered tenant is never rate-limited")
        })
        .collect();
    for handle in free_handles {
        handle
            .wait_outcome()
            .expect("free-tenant requests complete");
    }

    let snapshot = engine.metrics();
    let metered = tenant_snapshot(&snapshot, "metered");
    assert_eq!(metered.completed, 5);
    assert_eq!(
        metered.shed, 75,
        "the per-tenant shed counter matches client truth"
    );
    let free = tenant_snapshot(&snapshot, "free");
    assert_eq!(free.completed, 10);
    assert_eq!(free.shed, 0, "the over-quota tenant is the one shed");
    assert_eq!(
        snapshot.shed, 75,
        "the engine-wide counter aggregates the per-tenant ones"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("scope joined"))
        .shutdown();
}

// -------------------------------------------- numerics across the tenants

#[test]
fn tenant_responses_stay_bit_identical_to_solo_execution() {
    let net = common::three_block_network();
    // Real CPU backend: interleaved traffic from two named tenants plus
    // anonymous submits, every response checked against solo references.
    let config = ServeConfig {
        max_batch: 4,
        workers: 1,
        max_wait: Duration::from_millis(1),
        ..ServeConfig::default()
    }
    .with_tenant(
        "alpha",
        TenantConfig {
            weight: 2,
            ..TenantConfig::default()
        },
    )
    .with_tenant("beta", TenantConfig::default());
    let engine = ServeEngine::start(net.clone(), config);
    let references: Vec<Vec<TensorData>> = (0..4)
        .map(|seed| {
            let input = TensorData::random(net.input_shape, seed);
            execute_network(&net, std::slice::from_ref(&input))
        })
        .collect();
    for round in 0..4u64 {
        let submits: Vec<(Option<&str>, u64)> = vec![
            (Some("alpha"), round % 4),
            (Some("beta"), (round + 1) % 4),
            (None, (round + 2) % 4),
        ];
        let handles: Vec<_> = submits
            .iter()
            .map(|&(tenant, seed)| {
                let input = TensorData::random(net.input_shape, seed);
                let handle = match tenant {
                    Some(name) => engine.submit_for_tenant(name, input),
                    None => engine.submit(input),
                };
                (handle.expect("no quotas configured"), seed)
            })
            .collect();
        for (handle, seed) in handles {
            let response = handle.wait_outcome().expect("no deadline configured");
            assert_eq!(response.outputs.len(), references[seed as usize].len());
            for (lease, reference) in response.outputs.iter().zip(&references[seed as usize]) {
                assert_eq!(
                    lease, reference,
                    "a tenant's response diverged from solo execution \
                     (round {round}, seed {seed})"
                );
            }
        }
    }
    let snapshot = engine.metrics();
    assert_eq!(tenant_snapshot(&snapshot, "alpha").completed, 4);
    assert_eq!(tenant_snapshot(&snapshot, "beta").completed, 4);
    assert_eq!(
        tenant_snapshot(&snapshot, "default").completed,
        4,
        "anonymous submits land on the default tenant"
    );
    assert_eq!(snapshot.completed, 12);
    engine.shutdown();
}

// ----------------------------------------------------- labelled exposition

#[test]
fn prometheus_export_carries_labelled_tenant_series_and_validates() {
    let net = common::three_block_network();
    let config = ServeConfig {
        max_batch: 4,
        workers: 1,
        max_wait: Duration::from_millis(1),
        ..ServeConfig::default()
    }
    .with_tenant("alpha", TenantConfig::default())
    .with_tenant(
        "metered",
        TenantConfig {
            rate: Some(1e-9),
            burst: 1.0,
            ..TenantConfig::default()
        },
    );
    let engine = ServeEngine::start(net.clone(), config);
    for seed in 0..3 {
        engine
            .submit_for_tenant("alpha", TensorData::random(net.input_shape, seed))
            .unwrap()
            .wait_outcome()
            .expect("alpha is unmetered");
    }
    // One offer fits the burst, the second exhausts it.
    engine
        .submit_for_tenant("metered", TensorData::random(net.input_shape, 9))
        .unwrap()
        .wait_outcome()
        .expect("the first offer fits the burst");
    match engine.submit_for_tenant("metered", TensorData::random(net.input_shape, 10)) {
        Err(ServeError::Rejected(Rejected::Shed)) => {}
        other => panic!("expected a typed shed rejection, got {other:?}"),
    }

    let text = engine.prometheus_text();
    assert!(
        text.contains(r#"ios_tenant_requests_completed_total{tenant="alpha"} 3"#),
        "labelled completed counter missing:\n{text}"
    );
    assert!(
        text.contains(r#"ios_tenant_requests_shed_total{tenant="metered"} 1"#),
        "labelled shed counter missing:\n{text}"
    );
    assert!(
        text.contains(r#"ios_tenant_queue_wait_us_sum{tenant="alpha"}"#),
        "labelled queue-wait histogram missing:\n{text}"
    );
    let series = ios_telemetry::prometheus::validate(&text)
        .expect("the tenant-labelled exposition must round-trip the validator");
    assert!(series > 0, "the exposition is non-empty");
    engine.shutdown();
}
