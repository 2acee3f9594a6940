//! The runtime adaptation loop: a controller thread that closes the
//! paper's Table-3 specialization insight *at runtime*.
//!
//! The startup path optimizes schedules against the traffic it assumes;
//! this module makes the engine adapt to the traffic it actually observes,
//! using the `ios-telemetry` histograms as its only sensor. Each controller
//! tick takes a windowed delta
//! ([`ios_telemetry::HistogramSnapshot::window_delta`]) of the queue-wait
//! and batch-size histograms — exact under racing writers — and acts on
//! three channels:
//!
//! 1. **Load shedding** — when the windowed p95 queue wait exceeds the
//!    configured budget, shed mode engages: admission tightens to one
//!    batch's worth of queued requests and everything beyond is rejected
//!    with [`crate::Rejected::Shed`]. Hysteresis (disengage at half the
//!    budget) keeps the mode from flapping at the boundary.
//! 2. **Re-planning** — when the dominant observed batch size (the
//!    window's mode) differs from what the serving plan was built for,
//!    the controller re-plans: it makes sure the dominant batch size has
//!    an exact specialized schedule cached.
//! 3. **Regret eviction** — per exact-schedule batch size, observed mean
//!    device time is compared against the optimizer's prediction. The
//!    first window calibrates the units (simulated µs vs wall µs); after
//!    that, a window whose observed mean exceeds `regret_threshold ×` the
//!    calibrated prediction evicts the cache entry, forcing a fresh
//!    optimization on next use.
//!
//! Every tick runs inside `catch_unwind`: a panicking re-plan leaves the
//! engine serving on its old plan and the controller alive for the next
//! tick, and is counted under `ios_panics_total{site="adapt"}`.

use crate::engine::Shared;
use crate::metrics::PanicSite;
use ios_telemetry::HistogramSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Shed mode disengages after this many *consecutive* controller ticks
/// whose window held fewer than `min_window_batches` samples: post-overload
/// trickle traffic never fills a window, so without this bound a latched
/// shed mode would keep rejecting traffic the engine could easily serve.
/// (A full window re-evaluates shedding on its own evidence and resets the
/// count.)
const SHED_STALE_TICKS: u64 = 3;

/// Per-batch-size accumulator of observed vs predicted device time,
/// drained by the controller each tick.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Observation {
    /// Batches observed since the last drain.
    pub count: u64,
    /// Sum of measured per-batch device time, µs.
    pub device_sum_us: f64,
    /// Sum of the serving schedule's predicted latency, µs (one term per
    /// batch; the prediction can change mid-window if the entry refreshes).
    pub predicted_sum_us: f64,
}

/// Live adaptation state shared between workers, submitters and the
/// controller thread.
#[derive(Debug, Default)]
pub(crate) struct AdaptState {
    /// Whether shed mode is engaged (set only by the controller; read by
    /// every submit).
    shed_mode: AtomicBool,
    /// Consecutive controller ticks whose queue-wait window stayed below
    /// `min_window_batches` while shed mode was engaged — the sensor for
    /// the trickle-traffic disengage path.
    stale_ticks: AtomicU64,
    /// Batch size the current schedule focus was chosen for; `None` until
    /// the first window-driven re-plan.
    planned_for: Mutex<Option<usize>>,
    /// Regret sensor: per-batch-size observations since the last tick.
    observations: Mutex<HashMap<usize, Observation>>,
    /// Per-batch-size units calibration: first-window observed/predicted
    /// ratio, bridging simulated-vs-wall time scales.
    calibration: Mutex<HashMap<usize, f64>>,
    /// Stop signal for the controller thread.
    stop: Mutex<bool>,
    stop_signal: Condvar,
}

impl AdaptState {
    /// Whether shed mode is currently engaged.
    pub fn shedding(&self) -> bool {
        self.shed_mode.load(Ordering::Relaxed)
    }

    /// Records one exact-schedule batch execution for the regret sensor.
    pub fn observe(&self, batch: usize, device_time_us: f64, predicted_us: f64) {
        let mut observations = self.observations.lock().expect("observations lock");
        let entry = observations.entry(batch).or_default();
        entry.count += 1;
        entry.device_sum_us += device_time_us;
        entry.predicted_sum_us += predicted_us;
    }

    /// Asks the controller thread to exit at its next wakeup.
    pub fn request_stop(&self) {
        *self.stop.lock().expect("stop lock") = true;
        self.stop_signal.notify_all();
    }
}

/// The sliding window the controller deltas against: last tick's
/// snapshots of its two sensor histograms.
struct Window {
    queue_wait: HistogramSnapshot,
    batch_size: HistogramSnapshot,
}

/// The adaptation controller: ticks until [`AdaptState::request_stop`],
/// isolating each tick behind `catch_unwind` so a panicking re-plan (e.g.
/// a faulty cost model) leaves the engine serving on its old plan and the
/// controller alive.
pub(crate) fn controller_loop(shared: &Arc<Shared>) {
    let mut window = Window {
        queue_wait: shared.metrics.queue_wait.snapshot(),
        batch_size: shared.metrics.batch_size.snapshot(),
    };
    loop {
        let stopped = shared.adapt.stop.lock().expect("stop lock");
        let (stopped, _) = shared
            .adapt
            .stop_signal
            .wait_timeout_while(stopped, shared.config.adapt.tick, |stopped| !*stopped)
            .expect("stop lock");
        if *stopped {
            return;
        }
        drop(stopped);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.adaptation_tick(&mut window);
        }));
        if let Err(panic) = result {
            shared.metrics.panic_message(PanicSite::Adapt, &*panic);
        }
    }
}

impl Shared {
    /// One controller tick: window the sensors, then run the shed, re-plan
    /// and regret policies on the windowed evidence.
    fn adaptation_tick(self: &Arc<Self>, window: &mut Window) {
        let queue_wait_now = self.metrics.queue_wait.snapshot();
        let batch_size_now = self.metrics.batch_size.snapshot();
        let wait_window = queue_wait_now.window_delta(&window.queue_wait);
        let size_window = batch_size_now.window_delta(&window.batch_size);
        window.queue_wait = queue_wait_now;
        window.batch_size = batch_size_now;

        self.update_shed_mode(&wait_window);
        self.regret_sweep();
        self.replan_on_mix_shift(&size_window);
    }

    /// Shed policy: engage when the windowed p95 queue wait exceeds the
    /// budget, disengage when it falls below half of it (hysteresis), when
    /// the system has drained idle (no samples, empty queue), or when
    /// [`SHED_STALE_TICKS`] consecutive ticks pass
    /// without a full window's worth of samples. Without the idle clause a
    /// shed engine that scared all traffic away would never see the
    /// samples needed to disengage; without the stale-tick bound a
    /// post-overload *trickle* — enough traffic to keep the queue
    /// occasionally non-empty, never enough to fill a window — would keep
    /// shed mode latched indefinitely, rejecting load the engine could
    /// easily serve.
    fn update_shed_mode(&self, wait_window: &HistogramSnapshot) {
        let Some(budget) = self.config.adapt.shed_queue_wait_budget else {
            return;
        };
        let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
        match wait_window.percentile(95.0) {
            Some(p95_ns) if wait_window.count >= self.config.adapt.min_window_batches => {
                self.adapt.stale_ticks.store(0, Ordering::Relaxed);
                let was = self.adapt.shed_mode.load(Ordering::Relaxed);
                let now = if p95_ns > budget_ns {
                    true
                } else if p95_ns.saturating_mul(2) < budget_ns {
                    false
                } else {
                    was
                };
                if now != was {
                    self.adapt.shed_mode.store(now, Ordering::Relaxed);
                    ios_telemetry::tracer().instant("adapt.shed_mode", "adapt", u64::from(now));
                }
            }
            _ => {
                if !self.adapt.shed_mode.load(Ordering::Relaxed) {
                    self.adapt.stale_ticks.store(0, Ordering::Relaxed);
                    return;
                }
                let drained_idle = self.queue.depth() == 0;
                let stale =
                    self.adapt.stale_ticks.fetch_add(1, Ordering::Relaxed) + 1 >= SHED_STALE_TICKS;
                if (drained_idle || stale) && self.adapt.shed_mode.swap(false, Ordering::Relaxed) {
                    self.adapt.stale_ticks.store(0, Ordering::Relaxed);
                    ios_telemetry::tracer().instant("adapt.shed_mode", "adapt", 0);
                }
            }
        }
    }

    /// Regret policy: drain the per-batch-size observations that have a
    /// full window; the first window per batch size calibrates units, and
    /// later windows evict the cached schedule when measured reality
    /// regrets the (calibrated) prediction past the threshold.
    fn regret_sweep(&self) {
        let min = self.config.adapt.min_window_batches;
        let ready: Vec<(usize, Observation)> = {
            let mut observations = self.adapt.observations.lock().expect("observations lock");
            let keys: Vec<usize> = observations
                .iter()
                .filter(|(_, o)| o.count >= min)
                .map(|(&b, _)| b)
                .collect();
            keys.into_iter()
                .filter_map(|b| observations.remove(&b).map(|o| (b, o)))
                .collect()
        };
        for (batch, observation) in ready {
            let observed_mean = observation.device_sum_us / observation.count as f64;
            let predicted_mean = observation.predicted_sum_us / observation.count as f64;
            if !(predicted_mean > 0.0 && observed_mean.is_finite()) {
                continue;
            }
            let mut calibration = self.adapt.calibration.lock().expect("calibration lock");
            match calibration.get(&batch) {
                None => {
                    // First full window: learn the units bridge between
                    // the optimizer's time scale (possibly simulated) and
                    // the measured one.
                    calibration.insert(batch, observed_mean / predicted_mean);
                }
                Some(&scale) => {
                    let expected = predicted_mean * scale;
                    if expected > 0.0
                        && observed_mean > self.config.adapt.regret_threshold * expected
                        && self.cache.evict(batch)
                    {
                        ios_telemetry::tracer().instant("adapt.evict", "adapt", batch as u64);
                        // Re-calibrate from scratch once a fresh schedule
                        // lands.
                        calibration.remove(&batch);
                    }
                }
            }
        }
    }

    /// Re-plan policy: when a full window's dominant batch size differs
    /// from what the engine last planned for, re-specialize — make sure
    /// the dominant size has an exact cached schedule.
    fn replan_on_mix_shift(self: &Arc<Self>, size_window: &HistogramSnapshot) {
        if size_window.count < self.config.adapt.min_window_batches {
            return;
        }
        let Some(dominant) = size_window.mode() else {
            return;
        };
        // Histogram values are exact only below 64; past that, `mode()`
        // returns a log-bucket representative that may be a batch size
        // that was never dispatched (a window of batch-96 dispatches
        // reports 97 with `max_batch = 96`). Snap to the nearest
        // dispatchable size — at most `max_batch`, at least 1 — so the
        // controller never optimizes and caches a schedule for a phantom
        // batch size, churning `planned_for` against reality.
        let dominant = usize::try_from(dominant)
            .unwrap_or(self.config.max_batch)
            .clamp(1, self.config.max_batch);
        if *self.adapt.planned_for.lock().expect("planned-for lock") == Some(dominant) {
            return;
        }
        let tracer = ios_telemetry::tracer();
        let mut span = tracer.span("adapt.replan", "adapt");
        span.set_arg(dominant as u64);
        self.metrics.replans.add(1);
        // The dominant batch size deserves its exact specialized schedule:
        // optimize it now (off the serving path — this is the controller
        // thread) if the cache doesn't hold one.
        self.ensure_exact(dominant);
        // Only remember the shift once the whole re-plan committed: a
        // panic above leaves `planned_for` unchanged, so the next tick
        // retries (and the chaos suite can observe the old plan serving).
        *self.adapt.planned_for.lock().expect("planned-for lock") = Some(dominant);
    }
}
