//! Cross-block pipelined network execution.
//!
//! [`crate::execute_network_batched`] exploits parallelism *across* the
//! samples of one batch, with a barrier at the end: every sample runs the
//! whole network, and the batch completes when the slowest worker does. A
//! pipeline cuts the network's block sequence into contiguous segments
//! ([`SegmentPlan`]) instead and gives each segment a long-lived stage
//! worker: samples stream through the segments, so block `k` of sample
//! `i + 1` overlaps block `k + 1` of sample `i` — and, because the workers
//! outlive any one batch, the tail of batch `n` overlaps the head of batch
//! `n + 1`. That cross-batch overlap is what removes flat batching's two
//! idle sources: the `ceil(batch / workers)` straggler round and the
//! end-of-batch drain.
//!
//! Each stage worker runs its blocks through the same per-sample pooled
//! executor the batched path uses ([`crate::batch`]'s block-range runner),
//! with each block under its IOS-optimized schedule — so per-sample
//! results are **bit-identical** to [`crate::execute_network_batched`] and
//! to solo [`crate::execute_network`] runs, for every segmentation
//! (including the degenerate single-segment and one-segment-per-block
//! plans).
//!
//! Jobs carry their schedule as an `Arc`, so concurrent batches may run
//! under *different* schedules (a serving engine's background re-optimizer
//! swaps specialized schedules mid-flight); a sample finishes under the
//! schedule it entered with.

use crate::arena::ScratchPool;
use crate::batch::{
    execute_network_blocks_pooled, sample_pooled, stack_batch_pooled, NetworkWeights,
};
use crate::tensor_data::TensorData;
use ios_core::NetworkSchedule;
use ios_ir::{Network, SegmentPlan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// One sample travelling through the pipeline.
struct Job {
    /// Position of the sample within its batch (restack order).
    index: usize,
    /// The sample's current inter-block tensors: network inputs at entry,
    /// segment outputs in flight.
    tensors: Vec<TensorData>,
    /// The schedule this sample executes under (per-block stage
    /// schedules; `None` runs every block sequentially). Carried per job
    /// so in-flight samples are unaffected by schedule swaps.
    schedule: Option<Arc<NetworkSchedule>>,
    /// Where the finished sample reports back — each batch collects on its
    /// own channel, so concurrent batches can interleave freely.
    done: mpsc::Sender<(usize, Vec<TensorData>)>,
}

/// A network executor with long-lived pipeline stage workers, one per
/// segment of a [`SegmentPlan`].
///
/// [`PipelinedNetworkExecutor::execute_batch`] may be called from several
/// threads at once; their samples interleave in the pipeline (that is the
/// point — cross-batch overlap) and each call collects exactly its own
/// samples. All tensor storage is drawn from the shared [`ScratchPool`]
/// handed to [`PipelinedNetworkExecutor::new`]: recycle the returned
/// stacked outputs into it to keep steady-state execution allocation-free.
///
/// Dropping the executor closes the intake and joins every stage worker.
pub struct PipelinedNetworkExecutor {
    entry: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    network: Arc<Network>,
    pool: Arc<ScratchPool>,
    plan: SegmentPlan,
    samples_started: AtomicU64,
    samples_finished: AtomicU64,
}

impl PipelinedNetworkExecutor {
    /// Spawns one stage worker per segment of `plan`.
    ///
    /// `network` must be the **batch-1** instance (the pipeline executes
    /// one sample per job); `weights` its precomputed weights; `pool` the
    /// arena all per-sample and output storage is drawn from.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover the network's block list or the
    /// network is not at batch size 1.
    #[must_use]
    pub fn new(
        network: Arc<Network>,
        weights: Arc<NetworkWeights>,
        plan: SegmentPlan,
        pool: Arc<ScratchPool>,
    ) -> Self {
        assert_eq!(
            plan.num_blocks(),
            network.blocks.len(),
            "segment plan and network block counts differ"
        );
        assert_eq!(
            network.blocks.len(),
            weights.num_blocks(),
            "weights and network block counts differ"
        );
        assert_eq!(
            network.input_shape.batch, 1,
            "the pipeline executes per-sample: pass the batch-1 network instance"
        );

        // Build the channel chain back to front: worker `k` receives jobs
        // from `k - 1` and forwards to `k + 1`; the last worker reports to
        // each job's own `done` channel.
        let mut next: Option<mpsc::Sender<Job>> = None;
        let mut workers = Vec::with_capacity(plan.num_segments());
        for index in (0..plan.num_segments()).rev() {
            let (tx, rx) = mpsc::channel::<Job>();
            let forward = next.replace(tx);
            let range = plan.segment(index);
            let network = Arc::clone(&network);
            let weights = Arc::clone(&weights);
            let pool = Arc::clone(&pool);
            let handle = std::thread::Builder::new()
                .name(format!("ios-pipe-seg{index}"))
                .spawn(move || {
                    stage_worker(
                        &network,
                        &weights,
                        index,
                        range,
                        &pool,
                        &rx,
                        forward.as_ref(),
                    );
                })
                .expect("spawn pipeline stage worker");
            workers.push(handle);
        }
        PipelinedNetworkExecutor {
            entry: next,
            workers,
            network,
            pool,
            plan,
            samples_started: AtomicU64::new(0),
            samples_finished: AtomicU64::new(0),
        }
    }

    /// The segment boundaries this pipeline runs.
    #[must_use]
    pub fn plan(&self) -> &SegmentPlan {
        &self.plan
    }

    /// `(samples fed, samples completed)` since construction. Equal
    /// whenever no sample is in flight — the drained-pipeline invariant
    /// concurrency tests pin down.
    #[must_use]
    pub fn sample_counters(&self) -> (u64, u64) {
        (
            self.samples_started.load(Ordering::Acquire),
            self.samples_finished.load(Ordering::Acquire),
        )
    }

    /// Streams the samples of a stacked batch through the pipeline and
    /// restacks their outputs in sample order. Per-sample results are
    /// bit-identical to [`crate::execute_network_batched`] with the same
    /// schedule, and to solo [`crate::execute_network`] runs.
    ///
    /// The returned stacked tensors draw from the executor's pool; recycle
    /// them there to keep the boundary allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or disagrees on batch size, if the
    /// schedule does not match the network, or if a stage worker died
    /// (a panicking operator kills the pipeline — the owner should drop
    /// and rebuild it).
    #[must_use]
    pub fn execute_batch(
        &self,
        schedule: Option<&Arc<NetworkSchedule>>,
        inputs: &[TensorData],
    ) -> Vec<TensorData> {
        assert!(!inputs.is_empty(), "cannot execute a batch of no inputs");
        let batch = inputs[0].shape.batch;
        assert!(batch > 0, "cannot execute a batch of zero samples");
        assert!(
            inputs.iter().all(|t| t.shape.batch == batch),
            "stacked inputs must agree on batch size"
        );
        if let Some(s) = schedule {
            assert_eq!(
                self.network.blocks.len(),
                s.block_schedules.len(),
                "schedule and network block counts differ"
            );
        }
        let entry = self.entry.as_ref().expect("pipeline intake open");
        let (done_tx, done_rx) = mpsc::channel();
        for n in 0..batch {
            let tensors: Vec<TensorData> = inputs
                .iter()
                .map(|t| sample_pooled(t, n, &self.pool))
                .collect();
            self.samples_started.fetch_add(1, Ordering::AcqRel);
            let job = Job {
                index: n,
                tensors,
                schedule: schedule.map(Arc::clone),
                done: done_tx.clone(),
            };
            if let Err(mpsc::SendError(job)) = entry.send(job) {
                recycle_job(job, &self.pool);
                panic!("pipeline stage worker died");
            }
        }
        // Drop our own sender so a dead worker surfaces as a disconnect
        // instead of a hang.
        drop(done_tx);

        let mut per_sample: Vec<Option<Vec<TensorData>>> = (0..batch).map(|_| None).collect();
        for _ in 0..batch {
            let (index, outputs) = done_rx
                .recv()
                .expect("pipeline stage worker died mid-batch");
            self.samples_finished.fetch_add(1, Ordering::AcqRel);
            per_sample[index] = Some(outputs);
        }

        let num_outputs = per_sample[0].as_ref().expect("sample executed").len();
        let mut stacked = Vec::with_capacity(num_outputs);
        for o in 0..num_outputs {
            let samples: Vec<&TensorData> = per_sample
                .iter()
                .map(|sample| &sample.as_ref().expect("sample executed")[o])
                .collect();
            stacked.push(stack_batch_pooled(&samples, &self.pool));
        }
        for sample in per_sample.into_iter().flatten() {
            for t in sample {
                self.pool.recycle_tensor(t);
            }
        }
        stacked
    }
}

impl Drop for PipelinedNetworkExecutor {
    fn drop(&mut self) {
        // Closing the intake cascades: each worker exits when its receiver
        // disconnects, dropping its forward sender in turn.
        drop(self.entry.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for PipelinedNetworkExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedNetworkExecutor")
            .field("network", &self.network.name)
            .field("plan", &self.plan.to_string())
            .finish()
    }
}

/// One pipeline stage: run every incoming sample through the segment's
/// block range, then forward it (or report it done).
///
/// When the tracer is enabled, each worker emits its occupancy onto the
/// `pipeline` lane: `pipeline.idle` (waiting on the intake channel),
/// `pipeline.busy` (executing a sample's blocks) and `pipeline.forward`
/// (handing off downstream) — all tagged with the segment index, so a
/// trace shows per-segment utilization and where the pipeline bubbles are.
fn stage_worker(
    network: &Network,
    weights: &NetworkWeights,
    segment: usize,
    range: std::ops::Range<usize>,
    pool: &ScratchPool,
    jobs: &mpsc::Receiver<Job>,
    forward: Option<&mpsc::Sender<Job>>,
) {
    let tracer = ios_telemetry::tracer();
    loop {
        let received = {
            let mut idle = tracer.span("pipeline.idle", "pipeline");
            idle.set_id(segment as u64);
            jobs.recv()
        };
        let Ok(mut job) = received else {
            return;
        };
        let mut busy = tracer.span("pipeline.busy", "pipeline");
        busy.set_id(segment as u64);
        busy.set_arg(job.index as u64);
        // A panicking operator is contained here rather than unwinding the
        // worker thread: jobs still buffered in this worker's channel
        // would be dropped un-recycled with it. On panic the sample is
        // abandoned (its collector sees the done-channel disconnect) and
        // the worker becomes a sink, recycling everything still in flight
        // until the intake closes — the pool's accounting stays exact up
        // to the panicking sample's own mid-block intermediates.
        let tensors = std::mem::take(&mut job.tensors);
        let schedule = job.schedule.clone();
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_network_blocks_pooled(
                network,
                schedule.as_deref(),
                weights,
                range.clone(),
                tensors,
                pool,
            )
        }));
        match executed {
            Ok(tensors) => job.tensors = tensors,
            Err(_) => {
                drop(job);
                while let Ok(job) = jobs.recv() {
                    recycle_job(job, pool);
                }
                return;
            }
        }
        drop(busy);
        let mut handoff = tracer.span("pipeline.forward", "pipeline");
        handoff.set_id(segment as u64);
        match forward {
            Some(next) => {
                // A dead downstream stage: the pipeline is broken, but the
                // pool's accounting must stay exact. Recycle the failed
                // job, then keep receiving as a sink — recycling every
                // further job (each collector sees its done-channel
                // disconnect) — until the intake closes.
                if let Err(mpsc::SendError(job)) = next.send(job) {
                    recycle_job(job, pool);
                    while let Ok(job) = jobs.recv() {
                        recycle_job(job, pool);
                    }
                    return;
                }
            }
            None => {
                let Job {
                    index,
                    tensors,
                    done,
                    ..
                } = job;
                // The collector may have given up (its batch panicked);
                // recycle the orphaned outputs instead of leaking them
                // from the pool.
                if let Err(mpsc::SendError((_, tensors))) = done.send((index, tensors)) {
                    for t in tensors {
                        pool.recycle_tensor(t);
                    }
                }
            }
        }
    }
}

/// Returns a dead job's tensor storage to the pool (dropping its `done`
/// sender, which its collector observes as a disconnect).
fn recycle_job(job: Job, pool: &ScratchPool) {
    for tensor in job.tensors {
        pool.recycle_tensor(tensor);
    }
}

/// One-shot pipelined execution: builds a pipeline for `plan`, streams the
/// batch through it and tears it down. The bit-exactness reference point
/// for [`PipelinedNetworkExecutor`] users and the property-test entry;
/// serving runtimes keep a persistent executor instead (construction
/// spawns threads and clones the weight table).
///
/// `network` may be shaped for any batch size; the batch-1 instance is
/// derived when needed. Outputs are plain heap-owned tensors.
///
/// # Panics
///
/// Same conditions as [`PipelinedNetworkExecutor::execute_batch`].
#[must_use]
pub fn execute_network_pipelined(
    network: &Network,
    schedule: Option<&NetworkSchedule>,
    weights: &NetworkWeights,
    inputs: &[TensorData],
    plan: &SegmentPlan,
) -> Vec<TensorData> {
    let per_sample = if network.input_shape.batch == 1 {
        network.clone()
    } else {
        network.with_batch_size(1)
    };
    let executor = PipelinedNetworkExecutor::new(
        Arc::new(per_sample),
        Arc::new(weights.clone()),
        plan.clone(),
        Arc::new(ScratchPool::new()),
    );
    let schedule = schedule.map(|s| Arc::new(s.clone()));
    executor.execute_batch(schedule.as_ref(), inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{execute_network, execute_network_batched, split_batch, stack_batch};
    use ios_core::{optimize_network, SchedulerConfig, SimCostModel};
    use ios_ir::{Block, Conv2dParams, GraphBuilder, PoolParams, TensorShape};
    use ios_sim::{DeviceKind, Simulator};

    /// Four chained blocks with branches and two-output hand-offs, so
    /// segment boundaries carry more than one tensor.
    fn four_block_network() -> Network {
        let input = TensorShape::new(1, 6, 8, 8);
        let mut b = GraphBuilder::new("pipe_b0", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
        let cat = b.concat("cat", &[a, c]);
        let p = b.pool("p", x, PoolParams::max((2, 2), (2, 2), (0, 0)));
        let block0 = Block::new(b.build(vec![cat, p]));

        let shapes = block0.graph.output_shapes();
        let mut b = GraphBuilder::with_inputs("pipe_b1", shapes);
        let x0 = b.input(0);
        let x1 = b.input(1);
        let d = b.conv2d("d", x0, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
        let e = b.conv2d("e", x1, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
        let block1 = Block::new(b.build(vec![d, e]));

        let shapes = block1.graph.output_shapes();
        let mut b = GraphBuilder::with_inputs("pipe_b2", shapes);
        let x0 = b.input(0);
        let f = b.conv2d("f", x0, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
        let g = b.conv2d("g", x0, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
        let s = b.add_op("s", &[f, g]);
        let block2 = Block::new(b.build(vec![s]));

        let shapes = block2.graph.output_shapes();
        let mut b = GraphBuilder::with_inputs("pipe_b3", shapes);
        let x0 = b.input(0);
        let h = b.conv2d("h", x0, Conv2dParams::relu(4, (3, 3), (1, 1), (1, 1)));
        let block3 = Block::new(b.build(vec![h]));
        Network::new("pipe_net", input, vec![block0, block1, block2, block3])
    }

    #[test]
    fn pipelined_matches_batched_and_solo_for_every_plan() {
        let net = four_block_network();
        let weights = NetworkWeights::precompute(&net);
        let batch = 3;
        let samples: Vec<TensorData> = (0..batch)
            .map(|i| TensorData::random(net.input_shape, 400 + i as u64))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = stack_batch(&refs);
        let arena = ScratchPool::new();
        let flat =
            execute_network_batched(&net, None, &weights, std::slice::from_ref(&stacked), &arena);

        for plan in [
            SegmentPlan::single(4),
            SegmentPlan::even(4, 2),
            SegmentPlan::from_starts(4, vec![0, 3]).unwrap(),
            SegmentPlan::per_block(4),
        ] {
            let piped = execute_network_pipelined(
                &net,
                None,
                &weights,
                std::slice::from_ref(&stacked),
                &plan,
            );
            assert_eq!(piped, flat, "plan {plan} diverged from flat batched");
        }
        // And against solo per-sample execution.
        let per_output: Vec<Vec<TensorData>> = flat.iter().map(split_batch).collect();
        for (i, sample) in samples.iter().enumerate() {
            let solo = execute_network(&net, std::slice::from_ref(sample));
            for (o, solo_out) in solo.iter().enumerate() {
                assert_eq!(&per_output[o][i], solo_out);
            }
        }
    }

    #[test]
    fn pipelined_respects_ios_schedules() {
        let net = four_block_network();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let schedule = optimize_network(&net, &cost, &SchedulerConfig::paper_default()).schedule;
        let weights = NetworkWeights::precompute(&net);
        let samples: Vec<TensorData> = (0..2)
            .map(|i| TensorData::random(net.input_shape, 500 + i as u64))
            .collect();
        let refs: Vec<&TensorData> = samples.iter().collect();
        let stacked = stack_batch(&refs);
        let arena = ScratchPool::new();
        let flat = execute_network_batched(
            &net,
            Some(&schedule),
            &weights,
            std::slice::from_ref(&stacked),
            &arena,
        );
        let plan = SegmentPlan::even(4, 2);
        let piped = execute_network_pipelined(&net, Some(&schedule), &weights, &[stacked], &plan);
        assert_eq!(piped, flat);
    }

    #[test]
    fn persistent_pipeline_interleaves_batches_and_stays_allocation_free() {
        let net = four_block_network();
        let weights = Arc::new(NetworkWeights::precompute(&net));
        let pool = Arc::new(ScratchPool::new());
        let executor = PipelinedNetworkExecutor::new(
            Arc::new(net.clone()),
            Arc::clone(&weights),
            SegmentPlan::even(4, 2),
            Arc::clone(&pool),
        );

        let batch = |seed: u64, n: usize| {
            let samples: Vec<TensorData> = (0..n)
                .map(|i| TensorData::random(net.input_shape, seed + i as u64))
                .collect();
            let refs: Vec<&TensorData> = samples.iter().collect();
            stack_batch(&refs)
        };

        // Warm-up pass fills the pool.
        let warm = executor.execute_batch(None, &[batch(7, 3)]);
        let expected: Vec<TensorData> = warm.iter().map(|t| (*t).clone()).collect();
        for t in warm {
            pool.recycle_tensor(t);
        }

        // Concurrent batches from two threads interleave in the pipeline;
        // each collects exactly its own samples.
        let other = batch(90, 2);
        let arena = ScratchPool::new();
        let other_expected =
            execute_network_batched(&net, None, &weights, std::slice::from_ref(&other), &arena);
        std::thread::scope(|scope| {
            let exec = &executor;
            let expected = &expected;
            let pool = &pool;
            scope.spawn(move || {
                for _ in 0..4 {
                    let out = exec.execute_batch(None, &[batch(7, 3)]);
                    assert_eq!(&out, expected);
                    for t in out {
                        pool.recycle_tensor(t);
                    }
                }
            });
            let other = &other;
            let other_expected = &other_expected;
            scope.spawn(move || {
                for _ in 0..4 {
                    let out = exec.execute_batch(None, std::slice::from_ref(other));
                    assert_eq!(&out, other_expected);
                    for t in out {
                        pool.recycle_tensor(t);
                    }
                }
            });
        });

        let (started, finished) = executor.sample_counters();
        assert_eq!(
            started, finished,
            "drained pipeline has no samples in flight"
        );
        assert_eq!(started, 3 + 4 * 3 + 4 * 2);

        // Steady state: once the pool has seen the peak concurrent demand,
        // a repeat batch allocates nothing fresh.
        let warmed = pool.fresh_allocations();
        let again = executor.execute_batch(None, &[batch(7, 3)]);
        assert_eq!(again, expected);
        for t in again {
            pool.recycle_tensor(t);
        }
        assert_eq!(
            pool.fresh_allocations(),
            warmed,
            "steady-state pipelined execution must not allocate"
        );
        assert!(pool.reuses() > 0);
    }

    #[test]
    #[should_panic(expected = "segment plan and network block counts differ")]
    fn mismatched_plan_is_rejected() {
        let net = four_block_network();
        let weights = NetworkWeights::precompute(&net);
        let _ = execute_network_pipelined(
            &net,
            None,
            &weights,
            &[TensorData::zeros(net.input_shape)],
            &SegmentPlan::single(3),
        );
    }
}
