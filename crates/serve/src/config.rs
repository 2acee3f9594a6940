//! Serving runtime configuration.

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
    /// unlimited (subject only to the global admission capacity); a rate
    /// must be positive.
    pub rate: Option<f64>,
    /// Token-bucket capacity: the largest burst admitted at once when the
    /// bucket is full. Only meaningful with a `rate`, and then at least 1.
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

/// Configuration of the runtime adaptation loop: the telemetry-driven shed
/// controller and bounded admission. Everything here is opt-in — the
/// default is a fully static engine.
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
    /// the queue unbounded; a bound must be at least 1.
    pub admission_capacity: Option<usize>,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            tick: Duration::from_millis(20),
            min_window_batches: 8,
            shed_queue_wait_budget: None,
            admission_capacity: None,
        }
    }
}

/// Configuration of a [`crate::ServeEngine`]: plain data. Set the fields
/// you need over the defaults (`ServeConfig { max_batch: 4,
/// ..ServeConfig::default() }`); the engine checks the whole configuration
/// once, when it starts, and panics on an invalid field.
///
/// How the schedule is planned is not configured: the engine searches one,
/// for the network at batch size 1, with `SchedulerConfig::paper_default()`
/// against the simulated V100 when it starts, and every batch of every size
/// runs it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch the dynamic batcher coalesces. Requests are dispatched
    /// as soon as `max_batch` are queued. Must be at least 1.
    pub max_batch: usize,
    /// Longest time a partial batch waits for companions while another
    /// batch executes; an idle engine dispatches it at once.
    pub max_wait: Duration,
    /// Number of worker threads executing batches. Must be at least 1.
    pub workers: usize,
    /// Runtime adaptation loop (shed controller, admission bound).
    /// Disabled by default.
    pub adapt: AdaptConfig,
    /// Per-tenant admission by tenant name; a tenant not named here (the
    /// default tenant included) gets [`TenantConfig::default`], so
    /// multi-tenancy is invisible until configured.
    pub tenants: BTreeMap<String, TenantConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(4);
        ServeConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            workers,
            adapt: AdaptConfig::default(),
            tenants: BTreeMap::new(),
        }
    }
}

impl ServeConfig {
    /// Configures one named tenant's admission parameters (WFQ weight,
    /// token-bucket rate limit). Call once per tenant; submit traffic on
    /// its behalf with [`crate::ServeEngine::submit_for_tenant`].
    #[must_use]
    pub fn with_tenant(mut self, name: impl Into<String>, tenant: TenantConfig) -> Self {
        self.tenants.insert(name.into(), tenant);
        self
    }

    /// The one configuration check, run when an engine starts (the fields
    /// are plain data, so nothing guards them before): panics on the first
    /// invalid field, named in the message. Nothing downstream clamps.
    pub(crate) fn check(&self) {
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(self.workers >= 1, "at least one worker is required");
        let adapt = &self.adapt;
        assert!(
            adapt.shed_queue_wait_budget.is_none() || !adapt.tick.is_zero(),
            "the adaptation tick must be non-zero"
        );
        assert!(
            adapt.admission_capacity != Some(0),
            "admission capacity must be at least 1"
        );
        for (name, tenant) in &self.tenants {
            assert!(
                tenant.weight >= 1,
                "tenant {name}: a tenant weight must be at least 1"
            );
            if let Some(rate) = tenant.rate {
                assert!(rate > 0.0, "tenant {name}: a tenant rate must be positive");
                assert!(
                    tenant.burst >= 1.0,
                    "tenant {name}: a tenant burst must admit at least 1 request"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fields set over the defaults compose: each keeps its value, and
    /// the result passes the start-time check.
    #[test]
    fn builder_methods_compose() {
        let config = ServeConfig {
            max_batch: 32,
            workers: 2,
            max_wait: Duration::from_millis(5),
            ..ServeConfig::default()
        };
        assert_eq!(config.max_batch, 32);
        assert_eq!(config.workers, 2);
        assert_eq!(config.max_wait, Duration::from_millis(5));
        config.check();
    }

    /// Everything beyond batching is opt-in: the defaults shed nothing,
    /// bound nothing and name no tenant; adaptation fields set over them
    /// compose and pass the start-time check.
    #[test]
    fn adaptation_stays_opt_in_and_builders_compose() {
        let default = ServeConfig::default();
        assert!(
            default.adapt.shed_queue_wait_budget.is_none(),
            "the shed controller is opt-in"
        );
        assert!(default.adapt.admission_capacity.is_none());
        assert!(default.tenants.is_empty());

        let config = ServeConfig {
            adapt: AdaptConfig {
                shed_queue_wait_budget: Some(Duration::from_millis(10)),
                admission_capacity: Some(64),
                tick: Duration::from_millis(5),
                ..AdaptConfig::default()
            },
            ..ServeConfig::default()
        };
        assert_eq!(
            config.adapt.shed_queue_wait_budget,
            Some(Duration::from_millis(10))
        );
        assert_eq!(config.adapt.admission_capacity, Some(64));
        assert_eq!(config.adapt.tick, Duration::from_millis(5));
        config.check();
    }

    /// A one-convolution network to start engines on.
    fn network() -> ios_ir::Network {
        use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
        let input = TensorShape::new(1, 2, 4, 4);
        let mut b = GraphBuilder::new("config_tiny", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(2, (1, 1), (1, 1), (0, 0)));
        Network::new("config_tiny", input, vec![Block::new(b.build(vec![a]))])
    }

    /// Starts an engine on [`network`]: the configuration checks run
    /// before anything is optimized or spawned.
    fn start(config: ServeConfig) {
        crate::ServeEngine::start(network(), config).shutdown();
    }

    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn zero_batch_rejected() {
        start(ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        });
    }

    /// Every engine constructor goes through the one check, the one taking
    /// a custom executor included.
    #[test]
    #[should_panic(expected = "max_batch must be at least 1")]
    fn a_field_assigned_zero_max_batch_is_rejected_at_start() {
        let config = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        let executor = Box::new(crate::common::SleepyExecutor {
            batch_time: Duration::ZERO,
        });
        crate::ServeEngine::start_with_executor(network(), config, executor).shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one worker is required")]
    fn zero_workers_rejected() {
        start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
    }

    /// A zero tick would make the shed controller spin.
    #[test]
    #[should_panic(expected = "the adaptation tick must be non-zero")]
    fn a_zero_tick_with_a_shed_budget_is_rejected_at_start() {
        start(ServeConfig {
            adapt: AdaptConfig {
                shed_queue_wait_budget: Some(Duration::from_millis(10)),
                tick: Duration::ZERO,
                ..AdaptConfig::default()
            },
            ..ServeConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "admission capacity must be at least 1")]
    fn zero_admission_capacity_rejected() {
        start(ServeConfig {
            adapt: AdaptConfig {
                admission_capacity: Some(0),
                ..AdaptConfig::default()
            },
            ..ServeConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "tenant heavy: a tenant weight must be at least 1")]
    fn a_zero_tenant_weight_is_rejected_at_start() {
        let heavy = TenantConfig {
            weight: 0,
            ..TenantConfig::default()
        };
        start(ServeConfig::default().with_tenant("heavy", heavy));
    }

    #[test]
    #[should_panic(expected = "tenant capped: a tenant rate must be positive")]
    fn a_non_positive_tenant_rate_is_rejected_at_start() {
        let capped = TenantConfig {
            rate: Some(0.0),
            ..TenantConfig::default()
        };
        start(ServeConfig::default().with_tenant("capped", capped));
    }

    /// NaN compares false against everything, so a `rate <= 0` check would
    /// let it through to a bucket that never refills.
    #[test]
    #[should_panic(expected = "tenant capped: a tenant rate must be positive")]
    fn a_nan_tenant_rate_is_rejected_at_start() {
        let capped = TenantConfig {
            rate: Some(f64::NAN),
            ..TenantConfig::default()
        };
        start(ServeConfig::default().with_tenant("capped", capped));
    }

    #[test]
    #[should_panic(expected = "tenant capped: a tenant burst must admit at least 1 request")]
    fn a_rate_limit_whose_burst_admits_nothing_is_rejected_at_start() {
        let capped = TenantConfig {
            rate: Some(10.0),
            burst: 0.5,
            ..TenantConfig::default()
        };
        start(ServeConfig::default().with_tenant("capped", capped));
    }
}
