//! Cost models: how the scheduler measures candidate stages.
//!
//! The paper's `GenerateStage` measures each candidate stage directly on the
//! target device. [`CostModel`] abstracts that measurement so the dynamic
//! program can run against the `ios-sim` simulator ([`SimCostModel`]), a
//! cached wrapper ([`CachingCostModel`]), or any synthetic model used in
//! tests.
//!
//! A search asks for thousands of stage latencies on one graph, so whatever
//! a model can work out from the graph alone — the kernel each operator
//! lowers to, the fingerprint its cache entries are keyed by — is computed
//! once per graph: [`CostModel::bind`] returns a [`GraphCostModel`], the
//! model's view of that graph, and the scheduler, the baselines and the
//! re-evaluation of a schedule all measure through one view per block.
//!
//! Real devices enter through the [`StageProfiler`] capability: anything
//! that can *execute* a candidate stage once (an execution backend, a
//! remote device worker) becomes a full profiling cost model by wrapping it
//! in [`ProfiledCostModel`], which adds the measurement policy — warmup
//! runs, median-of-N timed repeats, and a stage-fingerprint cache so the
//! dynamic program never profiles the same stage twice. This closes the
//! paper's optimize → profile → execute loop: the scheduler optimizes
//! against latencies measured on the very backend that will run the
//! schedule.

use crate::merge::MergedConv;
use ios_ir::{Graph, OpId};
use ios_sim::{KernelSpec, Simulator};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A source of stage latencies for the scheduler.
pub trait CostModel {
    /// Number of latency measurements performed so far. The paper's
    /// "optimization cost" is dominated by on-device profiling, so the
    /// measurement count is the hardware-independent proxy reported by the
    /// Figure 9 and Figure 12 reproductions.
    fn measurement_count(&self) -> u64;

    /// This model's view of one graph — the one way to ask it for a
    /// latency. Whatever the model can work out from the graph alone is
    /// done here, once; callers bind once per graph and measure every stage
    /// through the view.
    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a>;
}

/// A [`CostModel`] bound to one graph by [`CostModel::bind`].
pub trait GraphCostModel {
    /// Latency (µs) of executing `groups` with the "concurrent execution"
    /// strategy: groups run concurrently, operators inside a group run
    /// sequentially in the given order.
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64;

    /// Latency (µs) of executing a merged convolution (plus its split).
    fn merge_latency(&self, merged: &MergedConv) -> f64;
}

// Cost models take `&self` everywhere, so references and shared pointers are
// cost models too. This is what lets one `CachingCostModel` back both the
// serving-time schedule cache and background re-optimization threads (the
// `ios-serve` runtime shares an `Arc<CachingCostModel<SimCostModel>>`).
impl<C: CostModel + ?Sized> CostModel for &C {
    fn measurement_count(&self) -> u64 {
        (**self).measurement_count()
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        (**self).bind(graph)
    }
}

impl<C: CostModel + ?Sized> CostModel for std::sync::Arc<C> {
    fn measurement_count(&self) -> u64 {
        (**self).measurement_count()
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        (**self).bind(graph)
    }
}

/// Cost model backed by the analytical GPU simulator.
#[derive(Debug)]
pub struct SimCostModel {
    simulator: Simulator,
    measurements: AtomicU64,
}

impl SimCostModel {
    /// Wraps a simulator.
    #[must_use]
    pub fn new(simulator: Simulator) -> Self {
        SimCostModel {
            simulator,
            measurements: AtomicU64::new(0),
        }
    }

    /// The underlying simulator.
    #[must_use]
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }
}

impl CostModel for SimCostModel {
    fn measurement_count(&self) -> u64 {
        self.measurements.load(Ordering::Relaxed)
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        Box::new(SimGraphCost {
            model: self,
            graph,
            kernels: vec![OnceCell::new(); graph.len()],
        })
    }
}

/// [`SimCostModel`] on one graph: each operator is lowered to its kernel
/// the first time a stage contains it, and every stage after that borrows
/// the kernel.
struct SimGraphCost<'a> {
    model: &'a SimCostModel,
    graph: &'a Graph,
    kernels: Vec<OnceCell<KernelSpec>>,
}

impl SimGraphCost<'_> {
    fn kernel(&self, op: OpId) -> &KernelSpec {
        self.kernels[op.index()].get_or_init(|| self.model.simulator.kernel(self.graph, op))
    }
}

impl GraphCostModel for SimGraphCost<'_> {
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
        self.model.measurements.fetch_add(1, Ordering::Relaxed);
        let streams = groups
            .iter()
            .map(|group| group.iter().map(|op| self.kernel(*op)));
        self.model.simulator.latency_us(streams)
    }

    fn merge_latency(&self, merged: &MergedConv) -> f64 {
        self.model.measurements.fetch_add(1, Ordering::Relaxed);
        // The merged convolution kernel (fully described by `merged`)…
        let conv = ios_sim::conv2d_kernel(
            String::new(),
            merged.input_shape,
            merged.params,
            self.model.simulator.library(),
        );
        // …followed by the split (modeled as an element-wise copy kernel).
        let split_elems = (merged.split_bytes() / 8) as usize; // read+write → elements
        let split = KernelSpec {
            name: String::new(),
            flops: 0,
            mem_bytes: merged.split_bytes(),
            working_set_bytes: merged.split_bytes(),
            thread_blocks: (split_elems / 256).max(1),
            compute_efficiency: 1.0,
            memory_efficiency: 0.85,
        };
        self.model.simulator.latency_us([[conv, split].iter()])
    }
}

/// The capability of executing a candidate stage once on a real execution
/// substrate — the device half of the paper's on-device profiler.
///
/// Implementations run the stage exactly as the production executor would
/// (concurrent groups on real threads, merged stages through the merged
/// weight tensor plus split) but do not time anything themselves:
/// [`ProfiledCostModel`] owns the measurement policy (warmup, repeats,
/// median, caching) so every profiler gets the same treatment. The CPU
/// execution backend provides `CpuStageProfiler` in `ios-backend`.
pub trait StageProfiler {
    /// Executes `groups` once with the concurrent-execution strategy
    /// (groups concurrently, operators of a group sequentially in order).
    fn run_concurrent(&self, graph: &Graph, groups: &[Vec<OpId>]);

    /// Executes a merged convolution stage (merged kernel + split) once.
    fn run_merge(&self, graph: &Graph, merged: &MergedConv);

    /// Short label of the profiled substrate, for reports.
    fn device_name(&self) -> &'static str {
        "unknown-device"
    }
}

// Like cost models, profilers take `&self` everywhere: references and
// shared pointers to a profiler are profilers too, so one warmed-up
// substrate can back several cost models (e.g. a serving engine and a
// background re-optimizer).
impl<P: StageProfiler + ?Sized> StageProfiler for &P {
    fn run_concurrent(&self, graph: &Graph, groups: &[Vec<OpId>]) {
        (**self).run_concurrent(graph, groups);
    }

    fn run_merge(&self, graph: &Graph, merged: &MergedConv) {
        (**self).run_merge(graph, merged);
    }

    fn device_name(&self) -> &'static str {
        (**self).device_name()
    }
}

impl<P: StageProfiler + ?Sized> StageProfiler for std::sync::Arc<P> {
    fn run_concurrent(&self, graph: &Graph, groups: &[Vec<OpId>]) {
        (**self).run_concurrent(graph, groups);
    }

    fn run_merge(&self, graph: &Graph, merged: &MergedConv) {
        (**self).run_merge(graph, merged);
    }

    fn device_name(&self) -> &'static str {
        (**self).device_name()
    }
}

/// Stage latencies keyed by the measured graph's fingerprint, then by the
/// stage (`K` is how the stage is written down). The fingerprint is taken
/// once per bound graph, and a lookup borrows the stage, so a hit neither
/// hashes the graph nor copies the key.
///
/// Entries are keyed by the *graph* (see [`graph_fingerprint`]) as well as
/// the stage because operator ids repeat across the blocks of a network and
/// across batch-resized instances of the same block: a stage-only key would
/// silently serve block 0's latency for block 3's stage, or batch-1
/// latencies for a batch-32 instance.
struct StageCache<K>(Mutex<HashMap<u64, HashMap<K, f64>>>);

impl<K: Hash + Eq> StageCache<K> {
    fn new() -> Self {
        StageCache(Mutex::new(HashMap::new()))
    }

    fn get<Q>(&self, fingerprint: u64, stage: &Q) -> Option<f64>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.lock().get(&fingerprint)?.get(stage).copied()
    }

    fn insert(&self, fingerprint: u64, stage: K, latency_us: f64) {
        self.0
            .lock()
            .entry(fingerprint)
            .or_default()
            .insert(stage, latency_us);
    }

    fn len(&self) -> usize {
        self.0.lock().values().map(HashMap::len).sum()
    }
}

/// Cache of concurrent-execution stages, written down as their groups.
type ConcurrentStageCache = StageCache<Vec<Vec<OpId>>>;
/// Cache of operator-merge stages, written down as the merged parts.
type MergeStageCache = StageCache<Vec<OpId>>;

/// A structural fingerprint of a graph, distinguishing the graphs a stage
/// key may otherwise collide across: different blocks (names differ),
/// different batch sizes of one block (shapes differ), and same-shaped
/// graphs whose operators differ only in hyper-parameters (kinds differ).
/// Shared by [`CachingCostModel`], [`ProfiledCostModel`] and the backend
/// profiling harness (which keys its per-graph weights/inputs by it).
#[must_use]
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    graph.name().hash(&mut hasher);
    graph.input_shapes().hash(&mut hasher);
    for op in graph.ops() {
        op.kind.hash(&mut hasher);
        op.inputs.hash(&mut hasher);
        op.output_shape.hash(&mut hasher);
    }
    hasher.finish()
}

/// A cost model that *measures* stage latency on a [`StageProfiler`]
/// instead of simulating it — the paper's §4 profiling loop.
///
/// Every distinct stage is profiled once: `warmup` untimed runs (filling
/// weight caches, scratch pools and the branch predictor), then `repeats`
/// timed runs whose **median** is the reported latency (the median is
/// robust against one preempted run, which on shared CI hosts is the
/// dominant noise source). Results are cached by the same key the
/// [`CachingCostModel`] uses (graph fingerprint plus stage), so a dynamic
/// program that revisits a stage from many states pays for it once.
///
/// Measurements are **serialized**: concurrent callers (a synchronous
/// optimizer racing a background re-optimizer) take a measurement lock,
/// re-check the cache, and only then profile — otherwise two threads would
/// time the same device simultaneously and each would cache the other's
/// interference (a stage latency inflated by lock waits, forever).
pub struct ProfiledCostModel<P> {
    profiler: P,
    warmup: u32,
    repeats: u32,
    concurrent_cache: ConcurrentStageCache,
    merge_cache: MergeStageCache,
    /// Held across one full warmup-plus-repeats measurement so timed runs
    /// never overlap (and never time another thread's lock wait).
    measure_lock: Mutex<()>,
    /// Distinct stages profiled (cache misses).
    profiled: AtomicU64,
    /// Total stage executions requested from the profiler (warmup included).
    stage_runs: AtomicU64,
    hits: AtomicU64,
}

impl<P: std::fmt::Debug> std::fmt::Debug for ProfiledCostModel<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfiledCostModel")
            .field("profiler", &self.profiler)
            .field("warmup", &self.warmup)
            .field("repeats", &self.repeats)
            .field("profiled", &self.profiled.load(Ordering::Relaxed))
            .field("stage_runs", &self.stage_runs.load(Ordering::Relaxed))
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .finish()
    }
}

impl<P: StageProfiler> ProfiledCostModel<P> {
    /// Wraps a profiler with the default policy: 1 warmup run and the
    /// median of 5 timed repeats per distinct stage.
    #[must_use]
    pub fn new(profiler: P) -> Self {
        Self::with_policy(profiler, 1, 5)
    }

    /// Wraps a profiler with an explicit measurement policy. `repeats` is
    /// clamped to at least 1; serving runtimes that re-optimize in the
    /// background typically drop to `(1, 3)` to bound optimization cost.
    #[must_use]
    pub fn with_policy(profiler: P, warmup: u32, repeats: u32) -> Self {
        ProfiledCostModel {
            profiler,
            warmup,
            repeats: repeats.max(1),
            concurrent_cache: StageCache::new(),
            merge_cache: StageCache::new(),
            measure_lock: Mutex::new(()),
            profiled: AtomicU64::new(0),
            stage_runs: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The wrapped profiler.
    #[must_use]
    pub fn profiler(&self) -> &P {
        &self.profiler
    }

    /// Number of distinct stages profiled so far.
    #[must_use]
    pub fn profiled_stages(&self) -> u64 {
        self.profiled.load(Ordering::Relaxed)
    }

    /// Total stage executions performed (warmup + timed, all stages).
    #[must_use]
    pub fn stage_runs(&self) -> u64 {
        self.stage_runs.load(Ordering::Relaxed)
    }

    /// Number of latency requests served from the stage cache.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Runs the measurement policy over one stage-execution closure:
    /// `warmup` untimed runs, then the median of `repeats` timed runs, µs.
    fn measure(&self, mut run: impl FnMut()) -> f64 {
        for _ in 0..self.warmup {
            run();
        }
        let mut samples: Vec<f64> = (0..self.repeats)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        self.stage_runs
            .fetch_add(u64::from(self.warmup + self.repeats), Ordering::Relaxed);
        self.profiled.fetch_add(1, Ordering::Relaxed);
        samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let mid = samples.len() / 2;
        if samples.len() % 2 == 1 {
            samples[mid]
        } else {
            0.5 * (samples[mid - 1] + samples[mid])
        }
    }

    /// One stage's latency: from `cache` if it is there, else measured —
    /// one measurement at a time, re-checking under the measurement lock so
    /// a racing caller that just profiled this stage is served its result
    /// instead of profiling it again.
    fn cached_or_measured<K, Q>(
        &self,
        cache: &StageCache<K>,
        fingerprint: u64,
        stage: &Q,
        run: impl FnMut(),
    ) -> f64
    where
        K: Hash + Eq + Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(cached) = cache.get(fingerprint, stage) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        let _one_at_a_time = self.measure_lock.lock();
        if let Some(cached) = cache.get(fingerprint, stage) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        let value = self.measure(run);
        cache.insert(fingerprint, stage.to_owned(), value);
        value
    }
}

impl<P: StageProfiler> CostModel for ProfiledCostModel<P> {
    fn measurement_count(&self) -> u64 {
        self.profiled.load(Ordering::Relaxed)
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        Box::new(ProfiledGraphCost {
            model: self,
            graph,
            fingerprint: graph_fingerprint(graph),
        })
    }
}

/// [`ProfiledCostModel`] on one graph, fingerprinted once.
struct ProfiledGraphCost<'a, P> {
    model: &'a ProfiledCostModel<P>,
    graph: &'a Graph,
    fingerprint: u64,
}

impl<P: StageProfiler> GraphCostModel for ProfiledGraphCost<'_, P> {
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
        let model = self.model;
        model.cached_or_measured(&model.concurrent_cache, self.fingerprint, groups, || {
            model.profiler.run_concurrent(self.graph, groups);
        })
    }

    fn merge_latency(&self, merged: &MergedConv) -> f64 {
        let model = self.model;
        let parts = merged.parts.as_slice();
        model.cached_or_measured(&model.merge_cache, self.fingerprint, parts, || {
            model.profiler.run_merge(self.graph, merged);
        })
    }
}

/// A memoizing wrapper around another cost model.
///
/// The dynamic program may evaluate the same stage as the ending of many
/// different states; on real hardware each evaluation is a fresh profiling
/// run, so the paper caches stage latencies — this wrapper plays that role
/// and also lets the reproduction count *distinct* profiled stages.
///
/// The caches use interior mutability behind [`Mutex`]es, so a single
/// instance is `Send + Sync` (given a `Send + Sync` inner model) and can be
/// measured from many threads concurrently — the serving runtime relies on
/// this to share one cost model between its schedule cache and background
/// re-optimization workers.
pub struct CachingCostModel<C> {
    inner: C,
    concurrent_cache: ConcurrentStageCache,
    merge_cache: MergeStageCache,
    hits: AtomicU64,
}

impl<C: std::fmt::Debug> std::fmt::Debug for CachingCostModel<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingCostModel")
            .field("inner", &self.inner)
            .field("cached_concurrent", &self.concurrent_cache.len())
            .field("cached_merge", &self.merge_cache.len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .finish()
    }
}

impl<C: CostModel> CachingCostModel<C> {
    /// Wraps a cost model with a cache.
    #[must_use]
    pub fn new(inner: C) -> Self {
        CachingCostModel {
            inner,
            concurrent_cache: StageCache::new(),
            merge_cache: StageCache::new(),
            hits: AtomicU64::new(0),
        }
    }

    /// Number of cache hits (measurements avoided).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The wrapped cost model.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: CostModel> CostModel for CachingCostModel<C> {
    fn measurement_count(&self) -> u64 {
        self.inner.measurement_count()
    }

    fn bind<'a>(&'a self, graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
        Box::new(CachedGraphCost {
            model: self,
            inner: self.inner.bind(graph),
            fingerprint: graph_fingerprint(graph),
        })
    }
}

/// [`CachingCostModel`] on one graph: the graph fingerprinted and the inner
/// model bound once.
struct CachedGraphCost<'a, C> {
    model: &'a CachingCostModel<C>,
    inner: Box<dyn GraphCostModel + 'a>,
    fingerprint: u64,
}

impl<C> GraphCostModel for CachedGraphCost<'_, C> {
    fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
        let cache = &self.model.concurrent_cache;
        if let Some(cached) = cache.get(self.fingerprint, groups) {
            self.model.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        let value = self.inner.concurrent_latency(groups);
        cache.insert(self.fingerprint, groups.to_vec(), value);
        value
    }

    fn merge_latency(&self, merged: &MergedConv) -> f64 {
        let cache = &self.model.merge_cache;
        if let Some(cached) = cache.get(self.fingerprint, merged.parts.as_slice()) {
            self.model.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        let value = self.inner.merge_latency(merged);
        cache.insert(self.fingerprint, merged.parts.clone(), value);
        value
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! A synthetic cost model with simple, fully predictable behaviour used
    //! by the scheduler unit tests: each operator costs `base_us`, a stage
    //! costs the maximum over its groups of the sum of their operator costs
    //! plus `stage_overhead_us`, and merged stages cost the sum of operator
    //! costs times `merge_factor`.

    use super::*;

    #[derive(Debug)]
    pub struct UnitCostModel {
        pub base_us: f64,
        pub stage_overhead_us: f64,
        pub merge_factor: f64,
        pub measurements: AtomicU64,
    }

    impl Default for UnitCostModel {
        fn default() -> Self {
            UnitCostModel {
                base_us: 10.0,
                stage_overhead_us: 1.0,
                merge_factor: 0.8,
                measurements: AtomicU64::new(0),
            }
        }
    }

    impl CostModel for UnitCostModel {
        fn measurement_count(&self) -> u64 {
            self.measurements.load(Ordering::Relaxed)
        }

        fn bind<'a>(&'a self, _graph: &'a Graph) -> Box<dyn GraphCostModel + 'a> {
            Box::new(self)
        }
    }

    impl GraphCostModel for &UnitCostModel {
        fn concurrent_latency(&self, groups: &[Vec<OpId>]) -> f64 {
            self.measurements.fetch_add(1, Ordering::Relaxed);
            let max_group = groups
                .iter()
                .map(|g| g.len() as f64 * self.base_us)
                .fold(0.0, f64::max);
            max_group + self.stage_overhead_us
        }

        fn merge_latency(&self, merged: &MergedConv) -> f64 {
            self.measurements.fetch_add(1, Ordering::Relaxed);
            merged.parts.len() as f64 * self.base_us * self.merge_factor + self.stage_overhead_us
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_ir::{Conv2dParams, GraphBuilder, TensorShape};
    use ios_sim::DeviceKind;

    fn two_branch_graph_at(batch: usize) -> Graph {
        let mut b = GraphBuilder::new("two_branch", TensorShape::new(batch, 128, 16, 16));
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)));
        let c = b.conv2d("c", x, Conv2dParams::relu(128, (3, 3), (1, 1), (1, 1)));
        let cat = b.concat("cat", &[a, c]);
        b.build(vec![cat])
    }

    fn two_branch_graph() -> Graph {
        two_branch_graph_at(1)
    }

    #[test]
    fn sim_cost_model_measures_and_counts() {
        let g = two_branch_graph();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let seq = cost.bind(&g).concurrent_latency(&[vec![OpId(0), OpId(1)]]);
        let conc = cost
            .bind(&g)
            .concurrent_latency(&[vec![OpId(0)], vec![OpId(1)]]);
        assert!(conc < seq);
        assert_eq!(cost.measurement_count(), 2);
    }

    #[test]
    fn merge_latency_beats_sequential_for_shared_input_convs() {
        let g = two_branch_graph();
        let cost = SimCostModel::new(Simulator::new(DeviceKind::TeslaV100));
        let merged = crate::merge::try_merge(&g, [OpId(0), OpId(1)].into_iter().collect()).unwrap();
        let merge = cost.bind(&g).merge_latency(&merged);
        let seq = cost.bind(&g).concurrent_latency(&[vec![OpId(0), OpId(1)]]);
        assert!(merge < seq, "merge {merge} vs sequential {seq}");
    }

    #[test]
    fn caching_never_mixes_graphs_or_batch_sizes() {
        // Operator ids repeat across blocks and across batch-resized
        // instances of one block, so the cache key must include the graph.
        let g1 = two_branch_graph_at(1);
        let g8 = two_branch_graph_at(8);
        let mut other_name = GraphBuilder::new("other_block", TensorShape::new(1, 128, 16, 16));
        let x = other_name.input(0);
        let a = other_name.conv2d("a", x, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
        let c = other_name.conv2d("c", x, Conv2dParams::relu(16, (1, 1), (1, 1), (0, 0)));
        let cat = other_name.concat("cat", &[a, c]);
        let other = other_name.build(vec![cat]);

        // Same name, same shapes, same op count — only the kernel size of
        // one conv differs: still a distinct cache entry.
        let mut same_shape = GraphBuilder::new("two_branch", TensorShape::new(1, 128, 16, 16));
        let x = same_shape.input(0);
        let a = same_shape.conv2d("a", x, Conv2dParams::relu(128, (1, 1), (1, 1), (0, 0)));
        let c = same_shape.conv2d("c", x, Conv2dParams::relu(128, (1, 1), (1, 1), (0, 0)));
        let cat = same_shape.concat("cat", &[a, c]);
        let params_only = same_shape.build(vec![cat]);

        let cost = CachingCostModel::new(SimCostModel::new(Simulator::new(DeviceKind::TeslaV100)));
        let groups = vec![vec![OpId(0)], vec![OpId(1)]];
        let l1 = cost.bind(&g1).concurrent_latency(&groups);
        let l8 = cost.bind(&g8).concurrent_latency(&groups);
        let lo = cost.bind(&other).concurrent_latency(&groups);
        let lp = cost.bind(&params_only).concurrent_latency(&groups);
        assert_eq!(
            cost.cache_hits(),
            0,
            "four distinct graphs must be four cache entries"
        );
        assert_eq!(cost.inner().measurement_count(), 4);
        assert!(
            lp < l1,
            "the 1×1-kernel variant must be cheaper than its 3×3 twin ({lp} vs {l1})"
        );
        assert!(
            l8 > l1,
            "batch 8 must cost more than batch 1 ({l8} vs {l1})"
        );
        assert!(
            lo < l1,
            "the 1×1/16-channel block must be cheaper ({lo} vs {l1})"
        );
        // Repeats still hit.
        let again = cost.bind(&g8).concurrent_latency(&groups);
        assert_eq!(again, l8);
        assert_eq!(cost.cache_hits(), 1);
    }

    #[test]
    fn cost_models_are_thread_safe_and_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimCostModel>();
        assert_send_sync::<CachingCostModel<SimCostModel>>();

        // One shared caching model measured from several threads at once;
        // every thread must observe the same latency and the distinct-stage
        // count must not double-count the shared stage.
        let g = two_branch_graph();
        let cost = std::sync::Arc::new(CachingCostModel::new(SimCostModel::new(Simulator::new(
            DeviceKind::TeslaV100,
        ))));
        let groups = vec![vec![OpId(0)], vec![OpId(1)]];
        let expected = cost.bind(&g).concurrent_latency(&groups);
        let results: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cost = std::sync::Arc::clone(&cost);
                    let g = &g;
                    let groups = &groups;
                    scope.spawn(move || cost.bind(g).concurrent_latency(groups))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("measurement thread"))
                .collect()
        });
        assert!(results.iter().all(|&r| r == expected));
        assert_eq!(
            cost.inner().measurement_count(),
            1,
            "all threads must hit the cache"
        );
        assert_eq!(cost.cache_hits(), 4);

        // `&C` and `Arc<C>` are cost models themselves (blanket impls).
        fn takes_cost_model<C: CostModel>(c: C) -> u64 {
            c.measurement_count()
        }
        assert_eq!(takes_cost_model(&*cost), 1);
        assert_eq!(takes_cost_model(std::sync::Arc::clone(&cost)), 1);
    }

    /// A profiler that counts its runs and idles a deterministic amount so
    /// the measured medians are stable enough to assert against.
    #[derive(Debug, Default)]
    struct CountingProfiler {
        concurrent_runs: AtomicU64,
        merge_runs: AtomicU64,
    }

    impl StageProfiler for CountingProfiler {
        fn run_concurrent(&self, _graph: &Graph, groups: &[Vec<OpId>]) {
            self.concurrent_runs.fetch_add(1, Ordering::Relaxed);
            // Busy-work proportional to the widest group so latencies are
            // positive and monotone in stage size.
            let ops: usize = groups.iter().map(Vec::len).max().unwrap_or(0);
            std::hint::black_box((0..ops * 500).map(|i| i as f64).sum::<f64>());
        }

        fn run_merge(&self, _graph: &Graph, merged: &MergedConv) {
            self.merge_runs.fetch_add(1, Ordering::Relaxed);
            std::hint::black_box((0..merged.parts.len() * 500).map(|i| i as f64).sum::<f64>());
        }

        fn device_name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn profiled_model_runs_warmup_plus_repeats_once_per_stage() {
        let g = two_branch_graph();
        let cost = ProfiledCostModel::with_policy(CountingProfiler::default(), 2, 3);
        let groups = vec![vec![OpId(0)], vec![OpId(1)]];
        let first = cost.bind(&g).concurrent_latency(&groups);
        assert!(first > 0.0, "profiled latency must be positive");
        assert_eq!(
            cost.profiler().concurrent_runs.load(Ordering::Relaxed),
            5,
            "2 warmup + 3 timed runs"
        );
        assert_eq!(cost.profiled_stages(), 1);
        assert_eq!(cost.stage_runs(), 5);
        assert_eq!(cost.measurement_count(), 1);

        // A repeat request is served from the stage cache: no further runs.
        let again = cost.bind(&g).concurrent_latency(&groups);
        assert_eq!(again, first);
        assert_eq!(cost.profiler().concurrent_runs.load(Ordering::Relaxed), 5);
        assert_eq!(cost.cache_hits(), 1);

        // Merge stages profile through the merge path.
        let merged = crate::merge::try_merge(&g, [OpId(0), OpId(1)].into_iter().collect()).unwrap();
        let m = cost.bind(&g).merge_latency(&merged);
        assert!(m > 0.0);
        assert_eq!(cost.profiler().merge_runs.load(Ordering::Relaxed), 5);
        assert_eq!(cost.profiled_stages(), 2);
    }

    #[test]
    fn racing_callers_profile_a_stage_once() {
        // Several threads request the same uncached stage at once: the
        // measurement lock serializes them, the re-check under the lock
        // turns the losers into cache hits, and the profiler runs only one
        // warmup+repeats sequence — no double-profiled, interference-timed
        // entry can land in the cache.
        let g = two_branch_graph();
        let cost = std::sync::Arc::new(ProfiledCostModel::with_policy(
            CountingProfiler::default(),
            1,
            3,
        ));
        let groups = vec![vec![OpId(0)], vec![OpId(1)]];
        let results: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cost = std::sync::Arc::clone(&cost);
                    let g = &g;
                    let groups = &groups;
                    scope.spawn(move || cost.bind(g).concurrent_latency(groups))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("measurement thread"))
                .collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            cost.profiler().concurrent_runs.load(Ordering::Relaxed),
            4,
            "exactly one warmup + 3 repeats despite 4 racing callers"
        );
        assert_eq!(cost.profiled_stages(), 1);
        assert_eq!(cost.cache_hits(), 3);
    }

    #[test]
    fn profiled_model_distinguishes_graphs_like_the_caching_model() {
        // The same stage key on two batch-resized instances of one block
        // must be profiled separately (the fingerprint includes shapes).
        let g1 = two_branch_graph_at(1);
        let g8 = two_branch_graph_at(8);
        let cost = ProfiledCostModel::with_policy(CountingProfiler::default(), 0, 1);
        let groups = vec![vec![OpId(0)], vec![OpId(1)]];
        let _ = cost.bind(&g1).concurrent_latency(&groups);
        let _ = cost.bind(&g8).concurrent_latency(&groups);
        assert_eq!(
            cost.profiled_stages(),
            2,
            "batch-1 and batch-8 instances must be distinct profile entries"
        );
        assert_eq!(cost.cache_hits(), 0);
    }

    #[test]
    fn profiled_model_drives_the_scheduler_end_to_end() {
        // The whole DP runs against a profiler-backed model; the schedule
        // must be valid and the profiler must have been exercised.
        let g = two_branch_graph();
        let cost = ProfiledCostModel::with_policy(CountingProfiler::default(), 1, 3);
        let result =
            crate::dp::schedule_graph(&g, &cost, &crate::variants::SchedulerConfig::default());
        assert!(result.schedule.validate(&g).is_ok());
        assert!(result.latency_us > 0.0);
        assert!(cost.profiled_stages() > 0);
        assert!(cost.stage_runs() >= cost.profiled_stages() * 4);

        // Profilers are shareable through the blanket impls.
        fn takes_profiler<P: StageProfiler>(p: P) -> &'static str {
            p.device_name()
        }
        assert_eq!(takes_profiler(cost.profiler()), "counting");
        assert_eq!(
            takes_profiler(std::sync::Arc::new(CountingProfiler::default())),
            "counting"
        );
    }

    #[test]
    fn caching_avoids_repeat_measurements() {
        let g = two_branch_graph();
        let cost = CachingCostModel::new(SimCostModel::new(Simulator::new(DeviceKind::TeslaV100)));
        let groups = vec![vec![OpId(0)], vec![OpId(1)]];
        let a = cost.bind(&g).concurrent_latency(&groups);
        let b = cost.bind(&g).concurrent_latency(&groups);
        assert_eq!(a, b);
        assert_eq!(cost.measurement_count(), 1);
        assert_eq!(cost.cache_hits(), 1);
        // Merge caching too.
        let merged = crate::merge::try_merge(&g, [OpId(0), OpId(1)].into_iter().collect()).unwrap();
        let m1 = cost.bind(&g).merge_latency(&merged);
        let m2 = cost.bind(&g).merge_latency(&merged);
        assert_eq!(m1, m2);
        assert_eq!(cost.cache_hits(), 2);
        assert!(cost.inner().measurement_count() >= 2);
    }
}
