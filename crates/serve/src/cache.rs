//! The specialized-schedule cache: one table per engine, keyed by batch
//! size.
//!
//! Table 3 of the paper shows that an IOS schedule is only optimal for the
//! `(batch size, device)` it was profiled on. An engine serves one network
//! on one device, so it keeps one `Entry` per batch size it meets
//! (`Shared::batches`): the network instance, the schedule once searched,
//! and the background fill searching it. `Shared::resolve_schedule` is the
//! one policy every batch gets its schedule from: the exact one if cached,
//! else the *nearest* cached batch size (stage structure is valid at any
//! batch) while a background fill searches the exact one. The engine
//! pre-warms batch sizes 1 and `max_batch` before its workers start, so a
//! nearest schedule always exists and no batch waits for a search.
//! Searches (`Shared::ensure_exact`) run the paper's default scheduler
//! configuration against the engine's cost model, the simulated V100.
//! Entries are never removed: the cost model does not learn, so a second
//! search would find the same schedule.

use crate::engine::Shared;
use crate::metrics::PanicSite;
use crate::request::ScheduleSource;
use ios_core::{optimize_network, NetworkSchedule, SchedulerConfig};
use ios_ir::Network;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
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

/// What an engine keeps for one batch size, made on the size's first use.
pub(crate) struct Entry {
    /// The network shaped for this batch size (batch 1: the base itself).
    network: Arc<Network>,
    /// The schedule specialized for this batch size, once searched.
    schedule: Option<Arc<NetworkSchedule>>,
    /// The background fill searching `schedule`, until reaped or joined.
    fill: Option<JoinHandle<()>>,
}

impl Shared {
    /// `batch`'s entry in `table`, made on first use.
    fn entry<'t>(&self, table: &'t mut BTreeMap<usize, Entry>, batch: usize) -> &'t mut Entry {
        table.entry(batch).or_insert_with(|| Entry {
            network: if batch == 1 {
                Arc::clone(&self.base)
            } else {
                Arc::new(self.base.with_batch_size(batch))
            },
            schedule: None,
            fill: None,
        })
    }

    /// Searches the schedule specialized for exactly `batch` and caches
    /// it, unless it is cached already. Tells whether this call searched.
    pub(crate) fn ensure_exact(&self, batch: usize) -> bool {
        // One search at a time: background fills of several batch sizes
        // do not compete with each other for the cores serving requests.
        let _one_search = self.optimizing.lock();
        let network = {
            let mut table = self.batches.lock();
            let entry = self.entry(&mut table, batch);
            if entry.schedule.is_some() {
                return false;
            }
            Arc::clone(&entry.network)
        };
        // The search runs outside the table: batches of every other size
        // keep resolving meanwhile.
        let config = SchedulerConfig::paper_default();
        let schedule = Arc::new(optimize_network(&network, &self.cost, &config).schedule);
        self.entry(&mut self.batches.lock(), batch).schedule = Some(schedule);
        true
    }

    /// The Table 3 runtime policy (see the module docs).
    pub(crate) fn resolve_schedule(
        self: &Arc<Self>,
        batch: usize,
    ) -> (Arc<NetworkSchedule>, ScheduleSource) {
        let mut table = self.batches.lock();
        if let Some(schedule) = table.get(&batch).and_then(|e| e.schedule.as_ref()) {
            self.metrics.cache_hits.add(1);
            return (Arc::clone(schedule), ScheduleSource::Exact);
        }
        self.metrics.cache_misses.add(1);
        // The nearest cached batch size; ties prefer the smaller batch.
        let (optimized_for, schedule) = table
            .iter()
            .filter_map(|(&cached, entry)| Some((cached, entry.schedule.as_ref()?)))
            .min_by_key(|&(cached, _)| (cached.abs_diff(batch), cached))
            .map(|(cached, schedule)| (cached, Arc::clone(schedule)))
            .expect("batch size 1 is pre-warmed");
        self.metrics.nearest_served.add(1);
        self.fill_in_background(&mut table, batch);
        (schedule, ScheduleSource::Nearest { optimized_for })
    }

    /// Optimizes the exact schedule for `batch` on a background thread,
    /// unless one is already at it: a batch size is claimed for as long as
    /// its thread runs.
    fn fill_in_background(self: &Arc<Self>, table: &mut BTreeMap<usize, Entry>, batch: usize) {
        let entry = self.entry(table, batch);
        if entry.fill.as_ref().is_some_and(|fill| !fill.is_finished()) {
            return;
        }
        let shared = Arc::clone(self);
        let fill = std::thread::Builder::new()
            .name(format!("ios-serve-reopt-b{batch}"))
            .spawn(move || {
                if shared.ensure_exact(batch) {
                    shared.metrics.background_inserts.add(1);
                }
            })
            .expect("spawn background re-optimization thread");
        // Replacing a finished fill reaps it. One that died (a panicking
        // cost model) left no schedule behind, so this is its retry — the
        // batch size is not left on a nearest schedule for good.
        if let Some(Err(panic)) = entry.fill.replace(fill).map(JoinHandle::join) {
            self.metrics.panic_message(PanicSite::Reoptimize, &*panic);
        }
    }

    /// The schedule-cache counters, with the number of batch sizes that
    /// have a schedule.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        let table = self.batches.lock();
        let entries = table.values().filter(|e| e.schedule.is_some()).count();
        CacheStats {
            hits: self.metrics.cache_hits.get(),
            misses: self.metrics.cache_misses.get(),
            nearest_served: self.metrics.nearest_served.get(),
            background_inserts: self.metrics.background_inserts.get(),
            entries: entries as u64,
        }
    }

    /// Joins every background fill still running or not yet reaped.
    pub(crate) fn join_fills(&self) {
        let mut table = self.batches.lock();
        let fills: Vec<_> = table.values_mut().filter_map(|e| e.fill.take()).collect();
        drop(table);
        fills.into_iter().for_each(|fill| drop(fill.join()));
    }
}

#[cfg(test)]
mod tests {
    use crate::{ScheduleSource, ServeConfig, ServeEngine};
    use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
    use std::time::Duration;

    /// An engine over a one-conv network, pre-warmed at batch sizes 1 and
    /// `max_batch`. Its executor computes nothing: these tests only
    /// resolve schedules.
    fn engine_with(max_batch: usize) -> ServeEngine {
        let input = TensorShape::new(1, 4, 6, 6);
        let mut b = GraphBuilder::new("cache_tiny", input);
        let x = b.input(0);
        let a = b.conv2d("a", x, Conv2dParams::relu(4, (3, 3), (1, 1), (1, 1)));
        let network = Network::new("cache_tiny", input, vec![Block::new(b.build(vec![a]))]);
        let config = ServeConfig {
            max_batch,
            ..ServeConfig::default()
        };
        let executor = Box::new(crate::common::SleepyExecutor {
            batch_time: Duration::ZERO,
        });
        ServeEngine::start_with_executor(network, config, executor)
    }

    #[test]
    fn exact_hits_and_misses_are_counted() {
        let engine = engine_with(4);
        let (_, source) = engine.shared.resolve_schedule(4);
        assert_eq!(source, ScheduleSource::Exact);
        let (_, source) = engine.shared.resolve_schedule(2);
        assert_eq!(source, ScheduleSource::Nearest { optimized_for: 1 });
        // The miss started batch 2's fill; once it lands, batch 2 is exact.
        engine.shared.join_fills();
        let stats = engine.metrics().cache;
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 3));
        assert_eq!((stats.nearest_served, stats.background_inserts), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(engine.shared.resolve_schedule(2).1, ScheduleSource::Exact);
    }

    #[test]
    fn nearest_batch_prefers_closest_then_smaller() {
        let engine = engine_with(5);
        let nearest = |batch| match engine.shared.resolve_schedule(batch).1 {
            ScheduleSource::Nearest { optimized_for } => optimized_for,
            other => panic!("batch {batch} resolved {other:?}"),
        };
        // Holding the search lock keeps every fill from landing, so each
        // batch size below is still served by batch 1's or batch 5's.
        let no_fills = engine.shared.optimizing.lock();
        assert_eq!(nearest(4), 5);
        assert_eq!(nearest(2), 1);
        assert_eq!(nearest(3), 1, "ties prefer the smaller batch");
        drop(no_fills);
        engine.shared.join_fills();
        assert_eq!(engine.metrics().cache.entries, 5);
    }
}
