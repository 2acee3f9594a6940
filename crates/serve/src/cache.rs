//! The specialized-schedule cache.
//!
//! Table 3 of the paper shows that an IOS schedule is only optimal for the
//! `(batch size, device)` it was profiled on. An online server sees many
//! batch sizes, so this cache materializes that insight as a runtime
//! policy: an engine serves one network on one device, so its schedules
//! are keyed by batch size, optimized lazily on first miss, and an
//! exact-batch miss can be served by the *nearest* cached batch size
//! (schedule stage structure is valid at any batch) while a background
//! worker optimizes the exact one. Background
//! re-optimization runs against whatever cost model the engine was
//! configured with — with `CostModelKind::CpuProfiled` the schedule that
//! lands in the cache was *measured* on the serving backend, not simulated.
//!
//! The policy itself — `Shared::resolve_schedule` and its
//! `Shared::ensure_exact` half — lives at the bottom of this module:
//! every part of the engine that needs a schedule (pre-warm, the resolve
//! stage) gets it there. Entries are never removed: the cost models the
//! engine searches against do not learn, so a second search for a batch
//! size returns the schedule already cached, and background
//! re-optimization is the one path that brings in an exact schedule
//! after start-up.

use crate::engine::Shared;
use crate::metrics::{Count, PanicSite};
use crate::request::ScheduleSource;
use ios_core::{optimize_network, NetworkSchedule};
use ios_ir::Network;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Exact-key lookups that found a schedule.
    pub hits: u64,
    /// Exact-key lookups that found nothing.
    pub misses: u64,
    /// Batches served by a nearest-batch schedule while the exact one was
    /// missing.
    pub nearest_served: u64,
    /// Schedules inserted by background re-optimization.
    pub background_inserts: u64,
    /// Number of schedules currently cached.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of exact lookups that hit, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe cache of one engine's batch-specialized network schedules,
/// keyed by the batch size each was optimized for.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: Mutex<HashMap<usize, Arc<NetworkSchedule>>>,
    hits: Count,
    misses: Count,
    nearest_served: Count,
    background_inserts: Count,
}

impl ScheduleCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// Looks up the schedule specialized for exactly `batch`, counting a
    /// hit or miss.
    #[must_use]
    pub fn lookup(&self, batch: usize) -> Option<Arc<NetworkSchedule>> {
        let found = self.peek(batch);
        match &found {
            Some(_) => self.hits.add(1),
            None => self.misses.add(1),
        }
        found
    }

    /// Like [`ScheduleCache::lookup`], but without touching the hit/miss
    /// counters — for double-checked paths that already counted the miss.
    #[must_use]
    pub fn peek(&self, batch: usize) -> Option<Arc<NetworkSchedule>> {
        self.entries
            .lock()
            .expect("cache lock")
            .get(&batch)
            .cloned()
    }

    /// Inserts the schedule optimized for `batch`.
    pub fn insert(&self, batch: usize, schedule: Arc<NetworkSchedule>) {
        self.entries
            .lock()
            .expect("cache lock")
            .insert(batch, schedule);
    }

    /// The cached schedule whose batch size is nearest to `batch` (ties
    /// prefer the smaller batch). Counts a nearest-serve when found.
    #[must_use]
    pub fn nearest_batch(&self, batch: usize) -> Option<(usize, Arc<NetworkSchedule>)> {
        let entries = self.entries.lock().expect("cache lock");
        let best = entries
            .iter()
            .min_by_key(|(&cached, _)| (cached.abs_diff(batch), cached))
            .map(|(&cached, schedule)| (cached, Arc::clone(schedule)));
        drop(entries);
        if best.is_some() {
            self.nearest_served.add(1);
        }
        best
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            nearest_served: self.nearest_served.get(),
            background_inserts: self.background_inserts.get(),
            entries: self.entries.lock().expect("cache lock").len() as u64,
        }
    }
}

impl Shared {
    /// The network instance shaped for `batch`, built on first use (batch 1
    /// is the base instance itself).
    pub(crate) fn instance(&self, batch: usize) -> Arc<Network> {
        if batch == 1 {
            return Arc::clone(&self.base);
        }
        let mut instances = self.instances.lock().expect("instances lock");
        Arc::clone(
            instances
                .entry(batch)
                .or_insert_with(|| Arc::new(self.base.with_batch_size(batch))),
        )
    }

    /// The schedule specialized for exactly `batch`: the cached one, else
    /// optimized now (synchronously) and cached. The flag tells whether
    /// this call ran the search.
    pub(crate) fn ensure_exact(&self, batch: usize) -> (Arc<NetworkSchedule>, bool) {
        // One search at a time: racing callers (cold-starting workers, a
        // background fill) would all run the same expensive
        // search; whoever loses the race finds the winner's entry. The lock
        // guards no data, so a search that panicked poisons nothing.
        let _one_search = self
            .optimizing
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(schedule) = self.cache.peek(batch) {
            return (schedule, false);
        }
        let network = self.instance(batch);
        let schedule =
            Arc::new(optimize_network(&network, &self.cost, &self.config.scheduler).schedule);
        self.cache.insert(batch, Arc::clone(&schedule));
        (schedule, true)
    }

    /// The Table 3 runtime policy: exact specialized schedule if cached,
    /// else nearest cached batch (filling in the exact one in the
    /// background), else optimize synchronously.
    pub(crate) fn resolve_schedule(
        self: &Arc<Self>,
        batch: usize,
    ) -> (Arc<NetworkSchedule>, ScheduleSource) {
        if let Some(schedule) = self.cache.lookup(batch) {
            return (schedule, ScheduleSource::Exact);
        }
        if let Some((optimized_for, schedule)) = self.cache.nearest_batch(batch) {
            if self.config.background_reoptimize {
                self.fill_in_background(batch);
            }
            return (schedule, ScheduleSource::Nearest { optimized_for });
        }
        match self.ensure_exact(batch) {
            (schedule, true) => (schedule, ScheduleSource::FreshlyOptimized),
            (schedule, false) => (schedule, ScheduleSource::Exact),
        }
    }

    /// Optimizes the exact schedule for `batch` on a background thread,
    /// unless one is already at it: a batch size is claimed for as long as
    /// its thread runs.
    fn fill_in_background(self: &Arc<Self>, batch: usize) {
        let mut fills = self.background.lock().expect("background lock");
        if fills.get(&batch).is_some_and(|fill| !fill.is_finished()) {
            return;
        }
        let shared = Arc::clone(self);
        let fill = std::thread::Builder::new()
            .name(format!("ios-serve-reopt-b{batch}"))
            .spawn(move || {
                if shared.ensure_exact(batch).1 {
                    shared.cache.background_inserts.add(1);
                }
            })
            .expect("spawn background re-optimization thread");
        // Replacing a finished fill reaps it. One that died (a panicking
        // cost model) left no entry behind, so this is its retry — the
        // batch size is not left on a nearest schedule for good.
        if let Some(Err(panic)) = fills.insert(batch, fill).map(JoinHandle::join) {
            self.metrics.panic_message(PanicSite::Reoptimize, &*panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ios_core::Schedule;

    fn schedule(batch: usize) -> Arc<NetworkSchedule> {
        Arc::new(NetworkSchedule {
            network_name: "net".to_string(),
            label: format!("batch{batch}"),
            block_schedules: vec![Schedule::new("g", vec![])],
            latency_us: batch as f64,
        })
    }

    #[test]
    fn exact_hits_and_misses_are_counted() {
        let cache = ScheduleCache::new();
        assert!(cache.lookup(4).is_none());
        cache.insert(4, schedule(4));
        assert_eq!(cache.lookup(4).unwrap().label, "batch4");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_batch_prefers_closest_then_smaller() {
        let cache = ScheduleCache::new();
        cache.insert(1, schedule(1));
        cache.insert(8, schedule(8));
        let (batch, _) = cache.nearest_batch(6).unwrap();
        assert_eq!(batch, 8);
        let (batch, _) = cache.nearest_batch(3).unwrap();
        assert_eq!(
            batch, 1,
            "equidistant from 1 and 8 minus... 3 is nearer to 1"
        );
        // Ties prefer the smaller batch; an empty cache has no candidates.
        cache.insert(5, schedule(5));
        assert_eq!(cache.nearest_batch(3).unwrap().0, 1);
        assert!(ScheduleCache::new().nearest_batch(6).is_none());
    }
}
