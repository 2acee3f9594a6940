//! End-to-end serving invariants: responses bit-identical to solo
//! `execute_graph`-style runs, schedule-cache counters advancing, and a
//! fully allocation-free steady-state serving boundary — request in,
//! response lease dropped, every pooled buffer back home.

use ios_backend::{execute_network, TensorData};
use ios_serve::{
    CostModelKind, CpuReferenceExecutor, ResponseHandle, ResponseLease, ServeConfig, ServeEngine,
};
use std::time::{Duration, Instant};

/// A two-block network with mergeable branches so the served schedules can
/// exercise both concurrent and operator-merge stages.
fn serve_network() -> ios_ir::Network {
    use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, PoolParams, TensorShape};
    let input = TensorShape::new(1, 8, 10, 10);
    let mut b = GraphBuilder::new("boundary_b0", input);
    let x = b.input(0);
    let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let c = b.conv2d("c", x, Conv2dParams::relu(8, (1, 1), (1, 1), (0, 0)));
    let p = b.pool("p", x, PoolParams::max((2, 2), (1, 1), (0, 0)));
    let cat = b.concat("cat", &[a, c]);
    let block0 = Block::new(b.build(vec![cat, p]));

    let shapes = block0.graph.output_shapes();
    let mut b = GraphBuilder::with_inputs("boundary_b1", shapes);
    let x0 = b.input(0);
    let x1 = b.input(1);
    let d = b.conv2d("d", x0, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let e = b.conv2d("e", x1, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
    let block1 = Block::new(b.build(vec![d, e]));
    Network::new("boundary_net", input, vec![block0, block1])
}

/// Dynamic batching must not perturb numerics: every response of a
/// coalesced batch is bit-identical to running its sample alone through
/// the sequential reference executor.
#[test]
fn batched_responses_are_bit_identical_to_solo_runs() {
    let net = serve_network();
    let engine = ServeEngine::start(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(4)
            .with_workers(1)
            .with_max_wait(Duration::from_millis(30)),
    );
    let samples: Vec<TensorData> = (0..8)
        .map(|i| TensorData::random(net.input_shape, 400 + i))
        .collect();
    let handles: Vec<_> = samples
        .iter()
        .map(|s| engine.submit(s.clone()).unwrap())
        .collect();
    let responses: Vec<_> = handles.into_iter().map(ResponseHandle::wait).collect();

    for (sample, response) in samples.iter().zip(&responses) {
        let reference = execute_network(&net, std::slice::from_ref(sample));
        assert_eq!(response.outputs.len(), reference.len());
        for (leased, expected) in response.outputs.iter().zip(&reference) {
            assert_eq!(
                leased, expected,
                "served output must be bit-identical to the solo reference run"
            );
        }
    }
    assert!(
        responses.iter().any(|r| r.batch_size > 1),
        "load this deep must coalesce"
    );
    engine.shutdown();
}

/// Repeat traffic at a pre-warmed batch size must be served from the
/// schedule cache — the hit counter advances, nothing is re-optimized.
#[test]
fn schedule_cache_hits_advance_under_repeat_traffic() {
    let net = serve_network();
    let engine = ServeEngine::start(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(2)
            .with_workers(1)
            .with_prewarm_batches(vec![1])
            .with_background_reoptimize(false)
            .with_max_wait(Duration::from_millis(1)),
    );
    for i in 0..4 {
        let _ = engine
            .infer(TensorData::random(net.input_shape, 900 + i))
            .unwrap();
    }
    let stats = engine.metrics().cache;
    assert!(
        stats.hits >= 4,
        "every lone request hits the pre-warmed batch-1 schedule (hits = {})",
        stats.hits
    );
    assert_eq!(stats.misses, 0, "pre-warmed traffic never misses");
    engine.shutdown();
}

/// The full serving boundary is allocation-free in steady state: after a
/// warm-up request, neither the engine's io pool (stacked inputs + leased
/// responses) nor the backend's scratch pool (op loop + stacked outputs)
/// allocates fresh buffers, as long as clients drop their leases. A single
/// dispatch worker and a single sample worker make the pools' take/recycle
/// sequences deterministic.
#[test]
fn steady_state_serving_boundary_is_allocation_free() {
    let net = serve_network();
    let engine = ServeEngine::start_with_executor(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(1)
            .with_workers(1)
            .with_prewarm_batches(vec![1])
            .with_background_reoptimize(false)
            .with_max_wait(Duration::from_millis(1)),
        Box::new(CpuReferenceExecutor::with_max_workers(1)),
    );

    // Warm-up: fills both pools and the merged-weight cache.
    for i in 0..3 {
        let response = engine
            .infer(TensorData::random(net.input_shape, 70 + i))
            .unwrap();
        assert_eq!(response.outputs.len(), 2);
        // Leases drop here, returning their buffers to the io pool.
    }
    let (io_fresh, _) = engine.io_pool_stats();
    let (exec_fresh, _) = engine
        .executor_pool_stats()
        .expect("the CPU backend reports pool stats");
    assert!(io_fresh > 0, "warm-up fills the io pool");
    assert!(exec_fresh > 0, "warm-up fills the executor pool");

    let reference = engine
        .infer(TensorData::random(net.input_shape, 7))
        .unwrap();
    let expected: Vec<TensorData> = reference
        .outputs
        .iter()
        .map(|lease| lease.tensor().clone())
        .collect();
    drop(reference);

    for round in 0..5 {
        let response = engine
            .infer(TensorData::random(net.input_shape, 7))
            .unwrap();
        for (leased, want) in response.outputs.iter().zip(&expected) {
            assert_eq!(leased, want, "round {round}: steady state is deterministic");
        }
        drop(response);
        let (io_now, io_reuses) = engine.io_pool_stats();
        let (exec_now, exec_reuses) = engine.executor_pool_stats().unwrap();
        assert_eq!(
            io_now, io_fresh,
            "round {round}: the serving boundary must not allocate fresh io buffers"
        );
        assert_eq!(
            exec_now, exec_fresh,
            "round {round}: the backend must not allocate fresh scratch buffers"
        );
        assert!(io_reuses > 0);
        assert!(exec_reuses > 0);
    }
    engine.shutdown();
}

/// Profile-guided serving: an engine whose scheduler *measures* candidate
/// stages on the CPU backend (instead of simulating a GPU) serves
/// responses bit-identical to the sequential reference, and its background
/// re-optimizer inserts a profiled schedule for an uncached batch size
/// (observed through the cache's background-insert counter).
#[test]
fn cpu_profiled_engine_serves_bit_identically_and_reoptimizes_in_background() {
    let net = serve_network();
    let engine = ServeEngine::start(
        net.clone(),
        ServeConfig::default()
            .with_cost_model(CostModelKind::CpuProfiled)
            .with_max_batch(4)
            .with_workers(1)
            .with_prewarm_batches(vec![4])
            .with_background_reoptimize(true)
            .with_max_wait(Duration::from_millis(1)),
    );

    // A lone request: batch 1 has no exact schedule, so it is served by
    // the pre-warmed (profiled) batch-4 schedule and kicks off background
    // re-optimization — which profiles on the CPU backend too.
    let sample = TensorData::random(net.input_shape, 2024);
    let response = engine.infer(sample.clone()).unwrap();
    let reference = execute_network(&net, std::slice::from_ref(&sample));
    assert_eq!(response.outputs.len(), reference.len());
    for (leased, expected) in response.outputs.iter().zip(&reference) {
        assert_eq!(
            leased, expected,
            "profiled-schedule output must be bit-identical to the reference"
        );
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.metrics().cache.background_inserts == 0 {
        assert!(
            Instant::now() < deadline,
            "background re-optimization against the profiled model never completed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        engine.metrics().cache.background_inserts >= 1,
        "the re-optimizer must insert a profiled schedule"
    );

    // Serving with the freshly profiled exact schedule is still exact.
    let again = engine.infer(sample.clone()).unwrap();
    for (leased, expected) in again.outputs.iter().zip(&reference) {
        assert_eq!(leased, expected);
    }
    engine.shutdown();
}

/// A detached lease keeps its tensor alive independently of the engine,
/// and cloning a response detaches the copies.
#[test]
fn leases_can_be_detached_and_cloned() {
    let net = serve_network();
    let engine = ServeEngine::start(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(1)
            .with_workers(1)
            .with_max_wait(Duration::from_millis(1)),
    );
    let response = engine
        .infer(TensorData::random(net.input_shape, 123))
        .unwrap();
    let cloned = response.clone();
    let mut tensors: Vec<TensorData> = Vec::new();
    for lease in response.outputs {
        tensors.push(lease.into_tensor());
    }
    engine.shutdown();
    // Both the detached tensors and the cloned response outlive the engine.
    for (owned, leased) in tensors.iter().zip(&cloned.outputs) {
        assert_eq!(leased, owned);
        assert!(owned.shape.num_elements() > 0);
    }
}

/// Clone-detach semantics are drop-order independent: dropping the pooled
/// original before or after its detached clone leaves the clone intact,
/// and a still-pooled lease survives the engine itself (its buffer returns
/// to the pool the lease holds alive, whenever the client lets go).
#[test]
fn lease_clones_survive_any_drop_order_and_leases_outlive_the_engine() {
    let net = serve_network();
    let engine = ServeEngine::start(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(1)
            .with_workers(1)
            .with_max_wait(Duration::from_millis(1)),
    );
    let sample = TensorData::random(net.input_shape, 321);
    let reference = execute_network(&net, std::slice::from_ref(&sample));

    // Original dropped first: the buffer returns to the pool while the
    // detached clone keeps its own copy.
    let mut response = engine.infer(sample.clone()).unwrap();
    let original: ResponseLease = response.outputs.remove(0);
    let clone = original.clone();
    drop(original);
    assert_eq!(clone, reference[0]);

    // Clone dropped first: the pooled original stays readable.
    let mut response = engine.infer(sample.clone()).unwrap();
    let original: ResponseLease = response.outputs.remove(0);
    let clone = original.clone();
    drop(clone);
    assert_eq!(original, reference[0]);

    // A pooled (non-detached) lease outlives the engine: the lease's Arc
    // keeps the io pool alive, and dropping it afterwards is safe.
    let mut survivor = engine.infer(sample).unwrap();
    let held: ResponseLease = survivor.outputs.remove(0);
    drop(survivor);
    engine.shutdown();
    assert_eq!(held, reference[0]);
    drop(held);
}

/// Mixed clone/drop traffic keeps the serving-boundary pool counters flat:
/// detached clones are plain heap tensors (they never draw from or return
/// to the io pool), so a steady-state loop that clones some responses and
/// drops originals and clones in varying order must not allocate fresh io
/// buffers once warmed.
#[test]
fn pool_counters_stay_flat_across_mixed_clone_drop_sequences() {
    let net = serve_network();
    let engine = ServeEngine::start_with_executor(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(1)
            .with_workers(1)
            .with_prewarm_batches(vec![1])
            .with_background_reoptimize(false)
            .with_max_wait(Duration::from_millis(1)),
        Box::new(CpuReferenceExecutor::with_max_workers(1)),
    );
    // Warm the pools (and detach one clone so the clone path itself is
    // warm before counters are snapshotted).
    for i in 0..3 {
        let response = engine
            .infer(TensorData::random(net.input_shape, 60 + i))
            .unwrap();
        let _warm_clone = response.outputs[0].clone();
    }
    let (io_fresh, _) = engine.io_pool_stats();

    let mut detached: Vec<ResponseLease> = Vec::new();
    for round in 0..6 {
        let mut response = engine
            .infer(TensorData::random(net.input_shape, 60))
            .unwrap();
        match round % 3 {
            // Keep a detached clone, drop the pooled original immediately.
            0 => {
                let clone = response.outputs[0].clone();
                drop(response);
                detached.push(clone);
            }
            // Drop the clone first, then the original.
            1 => {
                let clone = response.outputs[1].clone();
                drop(clone);
                drop(response);
            }
            // Detach by ownership: the tensor leaves the pool for good —
            // but `into_tensor` must not *allocate* io buffers either.
            _ => {
                let owned = response.outputs.remove(0).into_tensor();
                assert!(owned.shape.num_elements() > 0);
                drop(response);
                // The permanently detached buffer is replaced by the next
                // round's take; that take may allocate fresh exactly once.
            }
        }
        let (io_now, _) = engine.io_pool_stats();
        // Rounds 0/1 recycle every pooled buffer; round 2 removes one
        // buffer from the pool permanently, so the *following* round may
        // allocate one replacement. Bound the drift accordingly: by round
        // r, at most ceil(r/3) permanent detachments have happened.
        let detachments = (round / 3 + 1) as u64;
        assert!(
            io_now <= io_fresh + detachments,
            "round {round}: io fresh allocations {io_now} exceed warmed {io_fresh} \
             plus {detachments} permanent detachment(s)"
        );
    }
    // The detached clones are still readable after all that churn.
    for lease in &detached {
        assert!(lease.shape.num_elements() > 0);
    }
    engine.shutdown();
}

/// An engine serves responses bit-identical to the flat reference path,
/// and its Prometheus exposition reports the weight-cache footprint and the
/// selected microkernel tier in a `prometheus::validate`-clean document.
#[test]
fn f32_engine_serves_the_flat_reference_and_reports_its_footprint() {
    use ios_backend::{execute_network_batched, NetworkWeights, ScratchPool};

    let net = serve_network();
    let engine = ServeEngine::start(
        net.clone(),
        ServeConfig::default()
            .with_max_batch(2)
            .with_workers(1)
            .with_max_wait(Duration::from_millis(1)),
    );
    let weights = NetworkWeights::precompute(&net);
    let pool = ScratchPool::new();
    for i in 0..3 {
        let sample = TensorData::random(net.input_shape, 700 + i);
        let response = engine.infer(sample.clone()).unwrap();
        let reference = execute_network_batched(&net, None, &weights, &[sample], &pool);
        assert_eq!(response.outputs.len(), reference.len());
        for (leased, expected) in response.outputs.iter().zip(&reference) {
            assert_eq!(
                leased, expected,
                "serving must be bit-identical to the flat reference"
            );
        }
    }

    let text = engine.prometheus_text();
    let samples = ios_telemetry::prometheus::validate(&text).expect("well-formed exposition");
    assert!(samples > 0);
    assert!(text.contains("ios_weight_cache_f32_bytes"));
    // The selected-microkernel info gauge reports, constant-1 style, the
    // dispatch module's active tier.
    let isa = ios_backend::simd::active_isa();
    assert!(
        text.contains(&format!("ios_simd_kernel{{path=\"f32\",isa=\"{isa}\"}} 1")),
        "missing f32 simd kernel info gauge in:\n{text}"
    );
    engine.shutdown();
}
