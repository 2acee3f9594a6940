//! The accounting suite: every request the engine answers for reaches
//! exactly one terminal outcome, and the exported counters say so —
//! `submitted = completed + shed + deadline_expired + failed + in_flight`.
//!
//! One engine is driven through every way a request can end — a panicking
//! backend, an expired deadline, bounded-admission shedding with requests
//! parked mid-flight, and a drain at shutdown — and after each phase the snapshot must agree with the
//! tally the test keeps from what its own handles resolved to.

use ios_backend::TensorData;
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use ios_serve::{
    BatchContext, BatchExecutor, BatchOutcome, MetricsSnapshot, Rejected, ServeConfig, ServeEngine,
    ServeError,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn two_block_network() -> Network {
    let input = TensorShape::new(1, 4, 6, 6);
    let mut b = GraphBuilder::new("acct_b0", input);
    let x = b.input(0);
    let a = b.conv2d("a", x, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
    let block0 = Block::new(b.build(vec![a]));
    let mut b = GraphBuilder::with_inputs("acct_b1", block0.graph.output_shapes());
    let x = b.input(0);
    let c = b.conv2d("c", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
    let block1 = Block::new(b.build(vec![c]));
    Network::new("acct_net", input, vec![block0, block1])
}

/// What the test tells the backend to do with the batches it is handed.
#[derive(Default)]
struct Script {
    /// Panic on the next batch.
    fail_next: AtomicBool,
    /// While set, a batch announces itself on `entered` and then
    /// blocks until `release` yields.
    hold: AtomicBool,
}

/// Runs every batch as the [`Script`] says. Computes no numerics.
struct ScriptedExecutor {
    script: Arc<Script>,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl BatchExecutor for ScriptedExecutor {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn execute(&self, _ctx: &BatchContext<'_>) -> BatchOutcome {
        if self.script.fail_next.swap(false, Ordering::SeqCst) {
            panic!("injected backend fault");
        }
        if self.script.hold.load(Ordering::SeqCst) {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        BatchOutcome {
            outputs: None,
            device_time_us: 1.0,
        }
    }
}

/// The test's own tally of how its requests ended.
#[derive(Default)]
struct Tally {
    completed: u64,
    shed: u64,
    deadline_expired: u64,
    failed: u64,
}

impl Tally {
    /// The snapshot must satisfy the exported identity and agree, counter
    /// by counter, with what the test observed through its handles.
    fn check(&self, phase: &str, m: &MetricsSnapshot, in_flight: u64) {
        assert_eq!(
            m.submitted,
            m.completed + m.shed + m.deadline_expired + m.failed + m.in_flight,
            "{phase}: the exported identity"
        );
        assert_eq!(
            (
                m.completed,
                m.shed,
                m.deadline_expired,
                m.failed,
                m.in_flight
            ),
            (
                self.completed,
                self.shed,
                self.deadline_expired,
                self.failed,
                in_flight
            ),
            "{phase}: (completed, shed, expired, failed, in flight)"
        );
    }
}

#[test]
fn every_request_is_accounted_for_through_every_way_it_can_end() {
    let net = two_block_network();
    let input = || TensorData::zeros(net.input_shape);
    let script = Arc::new(Script::default());
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let config = ServeConfig::default()
        .with_max_batch(1)
        .with_workers(1)
        .with_max_wait(Duration::from_millis(1))
        .with_prewarm_batches(vec![1])
        .with_background_reoptimize(false)
        .with_admission_capacity(2);
    let engine = ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(ScriptedExecutor {
            script: Arc::clone(&script),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        }),
    );
    let mut tally = Tally::default();
    tally.check("fresh engine", &engine.metrics(), 0);

    // A panicking backend: the request resolves to a typed failure — not a
    // channel disconnect — and the worker survives.
    script.fail_next.store(true, Ordering::SeqCst);
    let doomed = engine.submit(input()).unwrap();
    assert_eq!(doomed.wait_outcome().unwrap_err(), Rejected::Failed);
    tally.failed += 1;
    tally.check("panicking backend", &engine.metrics(), 0);

    // An expired deadline: a zero budget has passed by batch assembly.
    let late = engine
        .submit_with_deadline(input(), Duration::ZERO)
        .unwrap();
    assert_eq!(late.wait_outcome().unwrap_err(), Rejected::DeadlineExceeded);
    tally.deadline_expired += 1;
    tally.check("expired deadline", &engine.metrics(), 0);

    // Shedding, observed mid-flight: one request held inside the backend,
    // two parked in the queue (its capacity), the fourth turned away.
    script.hold.store(true, Ordering::SeqCst);
    let mut parked = vec![engine.submit(input()).unwrap()];
    entered.recv().unwrap();
    parked.push(engine.submit(input()).unwrap());
    parked.push(engine.submit(input()).unwrap());
    assert_eq!(
        engine.submit(input()).unwrap_err(),
        ServeError::Rejected(Rejected::Shed)
    );
    tally.shed += 1;
    tally.check("held mid-flight", &engine.metrics(), 3);
    script.hold.store(false, Ordering::SeqCst);
    release.send(()).unwrap();
    for handle in parked {
        handle.wait_outcome().expect("parked requests complete");
        tally.completed += 1;
    }
    tally.check("released", &engine.metrics(), 0);

    // The exposition carries the same counts, the two new families
    // included.
    let text = engine.prometheus_text();
    ios_telemetry::prometheus::validate(&text).expect("well-formed exposition");
    for line in [
        "ios_requests_completed_total 3",
        "ios_requests_shed_total 1",
        "ios_requests_deadline_expired_total 1",
        "ios_requests_failed_total 1",
        "ios_panics_total{site=\"batch\"} 1",
    ] {
        assert!(text.lines().any(|l| l == line), "missing {line:?}");
    }

    // A normal drain: requests still queued when shutdown begins are
    // answered, not dropped.
    let draining: Vec<_> = (0..2).map(|_| engine.submit(input()).unwrap()).collect();
    let before = engine.metrics();
    assert_eq!(before.submitted, 8, "every offer above was counted once");
    engine.shutdown();
    for handle in draining {
        handle.wait_outcome().expect("drained at shutdown");
    }
}

/// Racing submitters under a scraper, then a drain: the queue counts a
/// submission as it takes the offer on (under its lock), so no scrape may
/// show more requests in flight than the submitters have been handed and
/// not yet seen resolved — and every scrape satisfies the identity. (An
/// offer racing the *close* itself is only reachable inside the crate —
/// `shutdown` takes the engine by value — and is pinned by the engine's
/// unit test `offers_racing_the_close_never_export_a_phantom_in_flight_request`.)
#[test]
fn a_scrape_never_sees_more_in_flight_than_the_submitters_hold() {
    use std::sync::atomic::AtomicU64;
    const SUBMITTERS: u64 = 3;
    const OFFERS_EACH: u64 = 300;
    let net = two_block_network();
    let (entered_tx, _entered) = mpsc::channel();
    let (_release, release_rx) = mpsc::channel();
    let config = ServeConfig::default()
        .with_max_batch(2)
        .with_workers(1)
        .with_max_wait(Duration::from_micros(50))
        .with_prewarm_batches(vec![1, 2])
        .with_background_reoptimize(false)
        .with_admission_capacity(1);
    let engine = ServeEngine::start_with_executor(
        net.clone(),
        config,
        Box::new(ScriptedExecutor {
            script: Arc::default(),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        }),
    );
    let (offered, resolved, shed) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let submitters_left = AtomicU64::new(SUBMITTERS);
    let parting: Vec<_> = std::thread::scope(|scope| {
        scope.spawn(|| {
            while submitters_left.load(Ordering::SeqCst) > 0 {
                let resolved_before = resolved.load(Ordering::SeqCst);
                let m = engine.metrics();
                let offered_after = offered.load(Ordering::SeqCst);
                let outcomes = m.completed + m.shed + m.deadline_expired + m.failed;
                assert_eq!(m.submitted, outcomes + m.in_flight, "the exported identity");
                assert!(
                    m.in_flight <= SUBMITTERS.min(offered_after - resolved_before),
                    "{} in flight, {offered_after} offered, {resolved_before} resolved",
                    m.in_flight
                );
            }
        });
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..OFFERS_EACH {
                        offered.fetch_add(1, Ordering::SeqCst);
                        match engine.submit(TensorData::zeros(net.input_shape)) {
                            Ok(handle) => drop(handle.wait_outcome().expect("served")),
                            Err(ServeError::Rejected(Rejected::Shed)) => {
                                shed.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(other) => panic!("unexpected refusal: {other}"),
                        }
                        resolved.fetch_add(1, Ordering::SeqCst);
                    }
                    // One more, left unresolved for the drain below.
                    offered.fetch_add(1, Ordering::SeqCst);
                    let parting = engine.submit(TensorData::zeros(net.input_shape));
                    submitters_left.fetch_sub(1, Ordering::SeqCst);
                    parting
                })
            })
            .collect();
        submitters.into_iter().map(|s| s.join().unwrap()).collect()
    });
    let parted = parting.iter().filter(|p| p.is_ok()).count() as u64;
    let m = engine.metrics();
    assert_eq!(m.submitted, SUBMITTERS * (OFFERS_EACH + 1));
    assert_eq!(m.shed, shed.load(Ordering::SeqCst) + (SUBMITTERS - parted));
    assert!(m.in_flight <= parted);
    engine.shutdown();
    for handle in parting.into_iter().flatten() {
        handle.wait_outcome().expect("drained at shutdown");
    }
}
