//! The runtime adaptation loop: a controller thread that sheds load when
//! queueing outgrows its budget.
//!
//! The controller's only sensor is the `ios-telemetry` queue-wait
//! histogram. Each tick takes a windowed delta of it
//! ([`ios_telemetry::HistogramSnapshot::window_delta`], exact under racing
//! writers); when the windowed p95 queue wait exceeds the configured
//! budget, shed mode engages: admission tightens to one batch's worth of
//! queued requests and everything beyond is rejected with
//! [`crate::Rejected::Shed`]. Hysteresis (disengage at half the budget)
//! keeps the mode from flapping at the boundary.
//!
//! The controller never touches the schedule: the engine searches its one
//! schedule when it starts.
//!
//! Every tick runs inside `catch_unwind`: a panicking tick leaves the
//! controller alive for the next one and is counted under
//! `ios_panics_total{site="adapt"}`.

use crate::engine::Shared;
use crate::metrics::PanicSite;
use ios_telemetry::HistogramSnapshot;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shed mode disengages after this many *consecutive* controller ticks
/// whose window held fewer than `min_window_batches` samples: post-overload
/// trickle traffic never fills a window, so without this bound a latched
/// shed mode would keep rejecting traffic the engine could easily serve.
/// (A full window re-evaluates shedding on its own evidence and resets the
/// count.)
const SHED_STALE_TICKS: u64 = 3;

/// Live adaptation state shared between submitters and the controller
/// thread.
#[derive(Debug, Default)]
pub(crate) struct AdaptState {
    /// Whether shed mode is engaged (set only by the controller; read by
    /// every submit).
    shed_mode: AtomicBool,
    /// Consecutive controller ticks whose queue-wait window stayed below
    /// `min_window_batches` while shed mode was engaged — the sensor for
    /// the trickle-traffic disengage path.
    stale_ticks: AtomicU64,
    /// Stop signal for the controller thread.
    pub(crate) stop: Mutex<bool>,
    stop_signal: Condvar,
}

impl AdaptState {
    /// Whether shed mode is currently engaged.
    pub fn shedding(&self) -> bool {
        self.shed_mode.load(Ordering::Relaxed)
    }

    /// Asks the controller thread to exit at its next wakeup.
    pub fn request_stop(&self) {
        *self.stop.lock() = true;
        self.stop_signal.notify_all();
    }
}

/// The adaptation controller: ticks until [`AdaptState::request_stop`],
/// isolating each tick behind `catch_unwind` so a panicking tick leaves the
/// engine serving and the controller alive.
pub(crate) fn controller_loop(shared: &Arc<Shared>) {
    // The sliding window the controller deltas against: last tick's
    // snapshot of the queue-wait histogram.
    let mut window = shared.metrics.queue_wait.snapshot();
    loop {
        let stopped = shared.adapt.stop.lock();
        let (stopped, _) = shared.adapt.stop_signal.wait_timeout_while(
            stopped,
            shared.config.adapt.tick,
            |stopped| !*stopped,
        );
        if *stopped {
            return;
        }
        drop(stopped);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let now = shared.metrics.queue_wait.snapshot();
            let wait_window = now.window_delta(&window);
            window = now;
            shared.update_shed_mode(&wait_window);
        }));
        if let Err(panic) = result {
            shared.metrics.panic_message(PanicSite::Adapt, &*panic);
        }
    }
}

impl Shared {
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
}
