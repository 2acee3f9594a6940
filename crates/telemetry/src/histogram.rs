//! A lock-free, log-bucketed histogram with bounded memory and bounded
//! relative error.
//!
//! Values are non-negative integers (the stack records durations in
//! nanoseconds). The bucket layout is the classic hybrid linear/log scheme:
//! values below 32 get one bucket each (exact), and every power-of-two
//! octave above that is split into 32 sub-buckets, so a bucket's width is
//! at most 1/32 of its lower bound. Reporting a bucket's midpoint therefore
//! bounds the relative quantile error at 1/64 ≈ 1.6 % — well inside the
//! 5 % accuracy bar the telemetry CI gate enforces — while the whole
//! `u64` value range fits in a fixed 1920-bucket table (15 KiB of atomics).
//!
//! Recording is wait-free: one relaxed `fetch_add` on the bucket, count and
//! sum, plus `fetch_min`/`fetch_max` for the exact extrema. Count and sum
//! are integer atomics, so they stay *exact* under any interleaving of
//! racing writers — the property the concurrency tests pin down.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear buckets below `1 << SUB_BITS`; `1 << SUB_BITS` sub-buckets per
/// octave above.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32
/// Total bucket count: indices are `((e - SUB_BITS) << SUB_BITS) + SUB + sub`
/// for exponent `e` in `SUB_BITS..64`, preceded by the `2 * SUB` exact
/// low-value buckets the formula degenerates into.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB; // 1920

/// Bucket index of `value` (total order preserving).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let e = 63 - value.leading_zeros();
        let sub = ((value >> (e - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        // The `+ SUB` offset makes e == SUB_BITS reproduce the identity
        // mapping, so buckets stay exact up to 2 * SUB - 1.
        (((e - SUB_BITS) as usize) << SUB_BITS) + SUB + sub
    }
}

/// `(lower bound, width)` of bucket `index`.
#[inline]
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        (index as u64, 1)
    } else {
        let octave = (index - SUB) >> SUB_BITS; // e - SUB_BITS
        let sub = ((index - SUB) & (SUB - 1)) as u64;
        ((SUB as u64 + sub) << octave, 1u64 << octave)
    }
}

/// Midpoint of bucket `index` — the representative value percentile queries
/// report.
#[inline]
fn bucket_mid(index: usize) -> u64 {
    let (lower, width) = bucket_bounds(index);
    lower + (width >> 1)
}

/// `value` clamped to the recorded `[min, max]` — unless a reader raced a
/// record and saw its count before its extremes (`min` above `max`), in
/// which case the bucket value goes out unclamped.
fn clamp_to_extremes(value: u64, min: u64, max: u64) -> u64 {
    if min <= max {
        value.clamp(min, max)
    } else {
        value
    }
}

/// A thread-safe log-bucketed histogram of `u64` values (nanoseconds, by
/// convention, throughout this workspace).
///
/// Memory is fixed at construction (1920 atomic buckets); recording any
/// number of values cannot grow it. Count and sum are exact; percentiles
/// carry at most [`Histogram::MAX_RELATIVE_ERROR`] relative error.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Upper bound on the relative error of any percentile query: half a
    /// bucket width over the bucket's lower bound, `1/64`.
    pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 64.0;

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Wait-free; safe to call from any number of
    /// threads concurrently.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration given in microseconds, rounding (not truncating)
    /// to the nearest nanosecond. Negative inputs are a caller bug
    /// (debug-asserted) and clamp to zero in release builds.
    pub fn record_us(&self, us: f64) {
        debug_assert!(us >= 0.0, "recorded a negative duration: {us} µs");
        self.record((us * 1e3).round().max(0.0) as u64);
    }

    /// Number of recorded values (exact).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (exact, wrapping on `u64` overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (exact), or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest recorded value (exact), or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean of recorded values, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Folds another histogram's contents into this one. Both may keep
    /// recording concurrently; the merge is the sum of what each bucket
    /// held at its read point.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Nearest-rank percentile (`p` in `0..=100`), or `None` when empty.
    /// The result is clamped to the exact recorded `[min, max]`, so the
    /// extremes are exact; interior quantiles carry at most
    /// [`Histogram::MAX_RELATIVE_ERROR`].
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.percentiles(&[p]).map(|v| v[0])
    }

    /// Several nearest-rank percentiles in **one pass** over the buckets.
    /// `ps` must be ascending (debug-asserted); returns `None` when the
    /// histogram is empty.
    #[must_use]
    pub fn percentiles(&self, ps: &[f64]) -> Option<Vec<u64>> {
        debug_assert!(
            ps.windows(2).all(|w| w[0] <= w[1]),
            "percentile queries must be ascending"
        );
        let count = self.count();
        if count == 0 || ps.is_empty() {
            return None;
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(ps.len());
        let mut seen = 0u64;
        let mut bucket = 0usize;
        for &p in ps {
            let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
            let rank = rank.min(count);
            while seen < rank && bucket < NUM_BUCKETS {
                seen += self.buckets[bucket].load(Ordering::Relaxed);
                bucket += 1;
            }
            // `bucket - 1` holds the ranked value (the loop advanced past it).
            out.push(clamp_to_extremes(
                bucket_mid(bucket.saturating_sub(1)),
                min,
                max,
            ));
        }
        Some(out)
    }

    /// A point-in-time copy of the histogram's contents.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Resets every bucket and counter to empty.
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

/// A serializable point-in-time copy of a [`Histogram`]: only the
/// non-empty buckets, as `(bucket index, count)` pairs in ascending index
/// order, plus the exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded — what [`window_delta`] of two
    /// identical snapshots produces, and the natural "no window yet" seed
    /// for controllers keeping a previous snapshot between ticks.
    ///
    /// [`window_delta`]: HistogramSnapshot::window_delta
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Whether the snapshot holds no recorded values. Empty snapshots
    /// answer `None` to every percentile query — a controller watching a
    /// window can never act on a vacuous p95.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The values recorded between `earlier` and `self`, as a snapshot —
    /// the *windowed* view an adaptation controller acts on: take a
    /// snapshot each tick and delta it against the previous tick's.
    ///
    /// Count and sum are the exact differences of the two snapshots'
    /// fields, and each bucket's count is the exact difference for that
    /// bucket (bucket counters are monotone, so the per-field subtraction
    /// is exact even when the two snapshots raced live writers). The
    /// all-time `min`/`max` cannot be windowed, so the delta's extrema are
    /// the bucket *bounds* of its first and last non-empty bucket — within
    /// one bucket width of the true window extrema, preserving the
    /// [`Histogram::MAX_RELATIVE_ERROR`] percentile bound.
    ///
    /// An empty window (`earlier == self`) yields a snapshot whose
    /// percentile queries return `None`, never a fake zero.
    #[must_use]
    pub fn window_delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut prev = earlier.buckets.iter().peekable();
        for &(index, n) in &self.buckets {
            let mut before = 0u64;
            while let Some(&&(pi, pn)) = prev.peek() {
                if pi < index {
                    prev.next();
                } else {
                    if pi == index {
                        before = pn;
                        prev.next();
                    }
                    break;
                }
            }
            let delta = n.saturating_sub(before);
            if delta > 0 {
                buckets.push((index, delta));
            }
        }
        let min = buckets
            .first()
            .map_or(u64::MAX, |&(i, _)| bucket_bounds(i as usize).0);
        let max = buckets.last().map_or(0, |&(i, _)| {
            let (lower, width) = bucket_bounds(i as usize);
            lower + (width - 1)
        });
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
            buckets,
        }
    }

    /// Nearest-rank percentile (`p` in `0..=100`), or `None` when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        self.percentiles(&[p]).map(|v| v[0])
    }

    /// Several nearest-rank percentiles in one pass over the buckets.
    /// `ps` must be ascending (debug-asserted); `None` when the snapshot
    /// is empty — callers must handle the no-data case explicitly instead
    /// of mistaking an empty window for "p95 = 0".
    #[must_use]
    pub fn percentiles(&self, ps: &[f64]) -> Option<Vec<u64>> {
        debug_assert!(
            ps.windows(2).all(|w| w[0] <= w[1]),
            "percentile queries must be ascending"
        );
        if self.count == 0 || ps.is_empty() {
            return None;
        }
        let mut out = Vec::with_capacity(ps.len());
        let mut seen = 0u64;
        let mut next = self.buckets.iter();
        let mut current: Option<u32> = None;
        for &p in ps {
            let rank = (((p / 100.0) * self.count as f64).ceil().max(1.0) as u64).min(self.count);
            while seen < rank {
                match next.next() {
                    Some(&(index, n)) => {
                        seen += n;
                        current = Some(index);
                    }
                    // A racing writer bumped `count` after the buckets
                    // were read; the heaviest recorded bucket stands in.
                    None => break,
                }
            }
            out.push(match current {
                Some(index) => clamp_to_extremes(bucket_mid(index as usize), self.min, self.max),
                None => self.max,
            });
        }
        Some(out)
    }

    /// Mean of recorded values, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper bound, cumulative count)` pairs over the non-empty buckets,
    /// ascending — the shape a Prometheus histogram exposition needs.
    #[must_use]
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut seen = 0u64;
        self.buckets
            .iter()
            .map(|&(index, n)| {
                seen += n;
                let (lower, width) = bucket_bounds(index as usize);
                (lower.saturating_add(width), seen)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_read_racing_the_first_record_does_not_panic() {
        // The state a reader sees between `record`'s count and its
        // min / max updates, live and snapshotted.
        let h = Histogram::new();
        h.buckets[bucket_index(1_000)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        let mid = Some(bucket_mid(bucket_index(1_000)));
        assert_eq!(h.percentile(50.0), mid);
        assert_eq!(h.snapshot().percentile(50.0), mid);
    }

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..64 {
            for delta in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(delta));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i >= last, "index must be monotone in the value ({v})");
            assert!(i < NUM_BUCKETS);
            let (lower, width) = bucket_bounds(i);
            assert!(
                lower <= v && (v - lower) < width,
                "value {v} outside its bucket [{lower}, {lower}+{width})"
            );
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.sum(), (0..64).sum::<u64>());
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
        // Each small value has its own bucket, so every percentile is exact.
        assert_eq!(h.percentile(50.0), Some(31));
        assert_eq!(h.percentile(100.0), Some(63));
    }

    #[test]
    fn percentiles_stay_within_the_error_bound() {
        let h = Histogram::new();
        let values: Vec<u64> = (1..=10_000u64).map(|i| i * 137 + (i * i) % 911).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank.min(sorted.len()) - 1] as f64;
            let approx = h.percentile(p).unwrap() as f64;
            assert!(
                (approx - exact).abs() / exact <= Histogram::MAX_RELATIVE_ERROR,
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
        // One-pass multi-percentile agrees with the one-at-a-time queries.
        let many = h.percentiles(&[1.0, 50.0, 99.0]).unwrap();
        assert_eq!(many[0], h.percentile(1.0).unwrap());
        assert_eq!(many[1], h.percentile(50.0).unwrap());
        assert_eq!(many[2], h.percentile(99.0).unwrap());
    }

    #[test]
    fn merge_adds_contents() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [5u64, 500, 50_000] {
            a.record(v);
        }
        for v in [7u64, 700, 70_000, 7_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 7);
        assert_eq!(a.sum(), 5 + 500 + 50_000 + 7 + 700 + 70_000 + 7_000_000);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(7_000_000));
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let h = Histogram::new();
        for v in [3u64, 3, 900, 123_456_789] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.percentile(50.0), h.percentile(50.0));
    }

    #[test]
    fn record_us_rounds_to_nanoseconds() {
        let h = Histogram::new();
        // 0.0006 µs = 0.6 ns: truncation would drop it to 0; rounding keeps 1.
        h.record_us(0.0006);
        assert_eq!(h.sum(), 1);
        h.record_us(2.5); // 2500 ns
        assert_eq!(h.sum(), 2501);
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        h.record(7);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(7));
    }

    #[test]
    fn window_delta_is_exactly_the_values_recorded_in_between() {
        let h = Histogram::new();
        for v in [5u64, 80, 80, 1_000] {
            h.record(v);
        }
        let a = h.snapshot();
        let window = [7u64, 80, 2_000_000, 13];
        for &v in &window {
            h.record(v);
        }
        let b = h.snapshot();
        let delta = b.window_delta(&a);
        assert_eq!(delta.count, window.len() as u64);
        assert_eq!(delta.sum, window.iter().sum::<u64>());
        // The delta's buckets are the window's values, bucket for bucket.
        let oracle = Histogram::new();
        for &v in &window {
            oracle.record(v);
        }
        assert_eq!(delta.buckets, oracle.snapshot().buckets);
        // Extrema are within one bucket of the true window extrema.
        assert!(delta.min <= 7 && delta.max >= 2_000_000);
        let p50 = delta.percentile(50.0).unwrap() as f64;
        assert!((p50 - 13.0).abs() <= 13.0 * Histogram::MAX_RELATIVE_ERROR);
    }

    #[test]
    fn empty_window_never_reports_percentiles() {
        let h = Histogram::new();
        h.record(42);
        let a = h.snapshot();
        let delta = a.window_delta(&a);
        assert!(delta.is_empty());
        assert_eq!(delta.percentile(95.0), None, "a vacuous p95 must be None");
        assert_eq!(delta.percentiles(&[50.0, 95.0]), None);
        assert_eq!(delta, HistogramSnapshot::empty().window_delta(&a));
        assert_eq!(HistogramSnapshot::empty().percentile(50.0), None);
    }

    #[test]
    fn snapshot_percentiles_match_the_live_histogram() {
        let h = Histogram::new();
        for i in 1..=5_000u64 {
            h.record(i * 91 % 70_001);
        }
        let snap = h.snapshot();
        for p in [1.0, 50.0, 95.0, 99.0] {
            assert_eq!(snap.percentile(p), h.percentile(p), "p{p}");
        }
        let many = snap.percentiles(&[1.0, 50.0, 95.0, 99.0]).unwrap();
        assert_eq!(many[2], snap.percentile(95.0).unwrap());
    }

    #[test]
    fn cumulative_counts_ascend_to_the_total() {
        let h = Histogram::new();
        for v in [10u64, 20, 20, 4_000, 90_000] {
            h.record(v);
        }
        let cum = h.snapshot().cumulative();
        assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cum.last().unwrap().1, 5);
    }
}
