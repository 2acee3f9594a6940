//! Serving runtime configuration.

use ios_core::SchedulerConfig;
use ios_sim::DeviceKind;
use std::collections::BTreeMap;
use std::time::Duration;

/// Admission parameters of one tenant: its weighted-fair-queuing weight
/// and an optional token-bucket rate limit, both enforced inside the
/// batching queue's lock (exact under racing submitters).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Weighted-fair-queuing weight: under contention a tenant receives
    /// dispatch slots in proportion to its weight. Must be at least 1.
    pub weight: u32,
    /// Sustained admission rate in requests per second, enforced by a
    /// token bucket refilled continuously. `None` leaves the tenant
    /// unlimited (subject only to the global admission capacity).
    pub rate: Option<f64>,
    /// Token-bucket capacity: the largest burst admitted at once when the
    /// bucket is full. Only meaningful with a `rate`.
    pub burst: f64,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            rate: None,
            burst: 8.0,
        }
    }
}

impl TenantConfig {
    /// A tenant with the given WFQ weight (no rate limit).
    ///
    /// # Panics
    ///
    /// Panics when `weight` is zero.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "a tenant weight must be at least 1");
        self.weight = weight;
        self
    }

    /// Sets a token-bucket rate limit: at most `burst` requests admitted
    /// at once, refilled at `rate` requests per second.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not positive or `burst` is below 1.
    #[must_use]
    pub fn with_rate(mut self, rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "a tenant rate must be positive");
        assert!(burst >= 1.0, "a tenant burst must admit at least 1 request");
        self.rate = Some(rate);
        self.burst = burst;
        self
    }
}

/// Per-tenant admission configuration: named tenants with explicit
/// [`TenantConfig`]s. Any *unknown* tenant (including the default tenant
/// anonymous traffic maps to) gets [`TenantConfig::default`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantsConfig {
    /// Explicitly configured tenants, by name. (A `BTreeMap` so exports
    /// and shares iterate deterministically.)
    pub tenants: BTreeMap<String, TenantConfig>,
}

impl TenantsConfig {
    /// The admission parameters for `tenant`: its explicit entry, or
    /// [`TenantConfig::default`].
    #[must_use]
    pub fn for_tenant(&self, tenant: &str) -> TenantConfig {
        self.tenants.get(tenant).cloned().unwrap_or_default()
    }
}

/// Which cost model the engine optimizes (and background re-optimizes)
/// schedules against — the serving face of the paper's §4 profiling loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModelKind {
    /// The analytical GPU simulator for `device`: fast to evaluate, but
    /// blind to how the *actual* execution substrate behaves.
    #[default]
    Simulated,
    /// Stage latencies **measured on the CPU execution backend** (warmup +
    /// median-of-N repeats per distinct stage, cached): the schedule that
    /// wins the DP is the schedule that is fastest on the backend that
    /// will execute it. The right choice when the engine serves real
    /// numerics through the CPU executor.
    CpuProfiled,
}

/// Configuration of the runtime adaptation loop: the telemetry-driven shed
/// controller, bounded admission and deadlines. Everything here is opt-in —
/// the default is a fully static engine.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// How often the controller wakes to inspect its telemetry window.
    /// Must be non-zero when a shed budget is set.
    pub tick: Duration,
    /// Minimum number of samples a window must contain before the
    /// controller acts on it — guards against shedding on statistically
    /// vacuous evidence.
    pub min_window_batches: u64,
    /// Queue-wait budget for load shedding: when the windowed p95 queue
    /// wait exceeds this, the engine enters shed mode (new requests beyond
    /// a batch's worth are rejected with [`crate::Rejected::Shed`]) until
    /// the windowed p95 falls back below half the budget (hysteresis).
    /// The controller thread runs exactly when this is set; `None` spawns
    /// nothing.
    pub shed_queue_wait_budget: Option<Duration>,
    /// Hard bound on the admission queue depth, enforced exactly under the
    /// queue lock. Offers beyond it are rejected with
    /// [`crate::Rejected::Shed`] regardless of shed mode. `None` leaves
    /// the queue unbounded.
    pub admission_capacity: Option<usize>,
    /// Deadline budget applied to every plain [`crate::ServeEngine::submit`]
    /// (measured from submission). `None` means plain submissions carry no
    /// deadline.
    pub default_deadline: Option<Duration>,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            tick: Duration::from_millis(20),
            min_window_batches: 8,
            shed_queue_wait_budget: None,
            admission_capacity: None,
            default_deadline: None,
        }
    }
}

/// Configuration of a [`crate::ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The (simulated) device schedules are specialized for.
    pub device: DeviceKind,
    /// The cost model schedules are optimized against.
    pub cost_model: CostModelKind,
    /// Largest batch the dynamic batcher coalesces. Requests are dispatched
    /// as soon as `max_batch` are queued. Must be at least 1.
    pub max_batch: usize,
    /// Longest time a partial batch waits for companions while another
    /// batch executes; an idle engine dispatches it at once.
    pub max_wait: Duration,
    /// Number of worker threads executing batches.
    pub workers: usize,
    /// Scheduler configuration used when (re-)optimizing schedules.
    pub scheduler: SchedulerConfig,
    /// Batch sizes whose specialized schedules are optimized at startup;
    /// `None` means the default of `[1, max_batch]`. Other batch sizes are
    /// served by the nearest cached schedule until a background
    /// re-optimization produces their exact one.
    pub prewarm_batches: Option<Vec<usize>>,
    /// Whether a cache miss on an exact batch size triggers background
    /// re-optimization for that batch size (Table 3 as a runtime policy).
    pub background_reoptimize: bool,
    /// Runtime adaptation loop (shed controller, admission bound,
    /// deadlines). Disabled by default.
    pub adapt: AdaptConfig,
    /// Per-tenant admission: WFQ weights and token-bucket rate limits.
    /// The default (every tenant on [`TenantConfig::default`]: weight 1,
    /// no rate limit) makes multi-tenancy invisible until configured.
    pub tenants: TenantsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(4);
        ServeConfig {
            device: DeviceKind::TeslaV100,
            cost_model: CostModelKind::default(),
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            workers,
            scheduler: SchedulerConfig::paper_default(),
            prewarm_batches: None,
            background_reoptimize: true,
            adapt: AdaptConfig::default(),
            tenants: TenantsConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Sets the maximum batch size (pre-warmed by default, unless an
    /// explicit pre-warm list was configured). The engine refuses to start
    /// with zero.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the device schedules are specialized for.
    #[must_use]
    pub fn with_device(mut self, device: DeviceKind) -> Self {
        self.device = device;
        self
    }

    /// Sets the cost model schedules are optimized against
    /// ([`CostModelKind::CpuProfiled`] closes the optimize→profile→execute
    /// loop for engines executing on the CPU backend).
    #[must_use]
    pub fn with_cost_model(mut self, cost_model: CostModelKind) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Sets the number of worker threads.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker is required");
        self.workers = workers;
        self
    }

    /// Sets [`ServeConfig::max_wait`].
    #[must_use]
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the batch sizes optimized at startup (overriding the default
    /// of `[1, max_batch]`).
    #[must_use]
    pub fn with_prewarm_batches(mut self, batches: Vec<usize>) -> Self {
        self.prewarm_batches = Some(batches);
        self
    }

    /// The batch sizes the engine pre-warms: the configured list, or
    /// `[1, max_batch]` when none was set.
    #[must_use]
    pub fn effective_prewarm_batches(&self) -> Vec<usize> {
        let mut batches = self
            .prewarm_batches
            .clone()
            .unwrap_or_else(|| vec![1, self.max_batch]);
        batches.retain(|&b| b >= 1);
        batches.sort_unstable();
        batches.dedup();
        batches
    }

    /// Enables or disables background re-optimization on exact-batch misses.
    #[must_use]
    pub fn with_background_reoptimize(mut self, enabled: bool) -> Self {
        self.background_reoptimize = enabled;
        self
    }

    /// Sets the controller's tick interval (non-zero when a shed budget is
    /// set; checked when the engine starts).
    #[must_use]
    pub fn with_adapt_tick(mut self, tick: Duration) -> Self {
        self.adapt.tick = tick;
        self
    }

    /// Sets the queue-wait p95 budget that triggers load shedding, which
    /// starts the controller thread that hosts the shed policy.
    #[must_use]
    pub fn with_shed_queue_wait_budget(mut self, budget: Duration) -> Self {
        self.adapt.shed_queue_wait_budget = Some(budget);
        self
    }

    /// Bounds the admission queue depth (exact, enforced under the queue
    /// lock). Works with or without the controller.
    #[must_use]
    pub fn with_admission_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "admission capacity must be at least 1");
        self.adapt.admission_capacity = Some(capacity);
        self
    }

    /// Applies a default deadline budget to every plain `submit`.
    #[must_use]
    pub fn with_default_deadline(mut self, budget: Duration) -> Self {
        self.adapt.default_deadline = Some(budget);
        self
    }

    /// Configures one named tenant's admission parameters (WFQ weight,
    /// token-bucket rate limit). Call once per tenant; submit traffic on
    /// its behalf with [`crate::ServeEngine::submit_for_tenant`].
    #[must_use]
    pub fn with_tenant(mut self, name: impl Into<String>, tenant: TenantConfig) -> Self {
        self.tenants.tenants.insert(name.into(), tenant);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let config = ServeConfig::default()
            .with_max_batch(32)
            .with_device(DeviceKind::TeslaK80)
            .with_workers(2)
            .with_max_wait(Duration::from_millis(5))
            .with_background_reoptimize(false)
            .with_cost_model(CostModelKind::CpuProfiled);
        assert_eq!(config.max_batch, 32);
        assert_eq!(config.effective_prewarm_batches(), vec![1, 32]);
        assert_eq!(config.device, DeviceKind::TeslaK80);
        assert_eq!(config.workers, 2);
        assert!(!config.background_reoptimize);
        assert_eq!(config.cost_model, CostModelKind::CpuProfiled);
        assert_eq!(
            ServeConfig::default().cost_model,
            CostModelKind::Simulated,
            "the simulator remains the default model"
        );
    }

    #[test]
    fn explicit_prewarm_survives_later_max_batch_changes() {
        let config = ServeConfig::default()
            .with_prewarm_batches(vec![2, 16, 0, 16])
            .with_max_batch(32);
        assert_eq!(
            config.effective_prewarm_batches(),
            vec![2, 16],
            "an explicit pre-warm list must not be overwritten (zeros and dups dropped)"
        );
    }

    /// Starts an engine on a one-convolution network: the configuration
    /// checks run before anything is optimized or spawned.
    fn start(config: ServeConfig) {
        use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
        let input = TensorShape::new(1, 2, 4, 4);
        let mut b = GraphBuilder::new("config_tiny", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(2, (1, 1), (1, 1), (0, 0)));
        let network = Network::new("config_tiny", input, vec![Block::new(b.build(vec![a]))]);
        crate::ServeEngine::start(network, config).shutdown();
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn zero_batch_rejected() {
        start(ServeConfig::default().with_max_batch(0));
    }

    /// The fields are public, so a zero set by assignment bypasses every
    /// builder; the batcher would then hand out empty batches forever.
    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn a_field_assigned_zero_max_batch_is_rejected_at_start() {
        let mut config = ServeConfig::default().with_workers(1);
        config.max_batch = 0;
        start(config);
    }

    /// A zero tick would make the shed controller spin.
    #[test]
    #[should_panic(expected = "the adaptation tick must be non-zero")]
    fn a_zero_tick_with_a_shed_budget_is_rejected_at_start() {
        start(
            ServeConfig::default()
                .with_shed_queue_wait_budget(Duration::from_millis(10))
                .with_adapt_tick(Duration::ZERO),
        );
    }

    #[test]
    fn adaptation_stays_opt_in_and_builders_compose() {
        let default = ServeConfig::default();
        assert!(
            default.adapt.shed_queue_wait_budget.is_none(),
            "the shed controller is opt-in"
        );
        assert!(default.adapt.admission_capacity.is_none());
        assert!(default.adapt.default_deadline.is_none());

        let config = ServeConfig::default()
            .with_shed_queue_wait_budget(Duration::from_millis(10))
            .with_admission_capacity(64)
            .with_default_deadline(Duration::from_millis(50))
            .with_adapt_tick(Duration::from_millis(5));
        assert_eq!(
            config.adapt.shed_queue_wait_budget,
            Some(Duration::from_millis(10))
        );
        assert_eq!(config.adapt.admission_capacity, Some(64));
        assert_eq!(
            config.adapt.default_deadline,
            Some(Duration::from_millis(50))
        );
        assert_eq!(config.adapt.tick, Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "admission capacity must be at least 1")]
    fn zero_admission_capacity_rejected() {
        let _ = ServeConfig::default().with_admission_capacity(0);
    }
}
