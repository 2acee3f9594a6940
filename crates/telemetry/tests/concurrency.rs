//! Concurrency tests for `ios-telemetry`, pinning the properties that make
//! the subsystem safe to leave wired into a multi-threaded serving engine:
//!
//! * histogram **count and sum stay exact integers** under any
//!   interleaving of racing recorders — bucket counts, count and sum are
//!   independent relaxed atomics, and the test proves no increment is lost;
//! * the tracer **never reorders records written by one thread**, even
//!   with many threads recording at once: within a thread both the global
//!   sequence number and the timestamp are monotone.

use ios_telemetry::{Histogram, HistogramSnapshot, TraceKind, Tracer};
use proptest::prelude::*;

#[test]
fn racing_recorders_keep_count_and_sum_exact() {
    let h = Histogram::new();
    let threads = 8u64;
    let per_thread = 50_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let h = &h;
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Deterministic values spanning several octaves.
                    h.record(t * 1_000_003 + i * 37);
                }
            });
        }
    });
    let expected_sum: u64 = (0..threads)
        .flat_map(|t| (0..per_thread).map(move |i| t * 1_000_003 + i * 37))
        .sum();
    assert_eq!(h.count(), threads * per_thread, "no recorded value lost");
    assert_eq!(h.sum(), expected_sum, "sum is exact, not sampled");
    // The buckets also add up: percentile mass equals the exact count.
    let snap = h.snapshot();
    assert_eq!(
        snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
        threads * per_thread
    );
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, (threads - 1) * 1_000_003 + (per_thread - 1) * 37);
}

#[test]
fn window_deltas_stay_exact_and_conserved_under_racing_writers() {
    // The adaptation controller's sensor: snapshot each tick, delta
    // against the previous tick. Under racing writers every delta must be
    // non-negative bucket-by-bucket (counters are monotone), its count and
    // sum must equal the exact difference of the two snapshots, and the
    // deltas must *conserve*: chained over the whole run they add back up
    // to the final totals — no recorded value is double-counted or lost.
    let h = Histogram::new();
    let writers = 4u64;
    let per_thread = 40_000u64;
    let snapshots = std::thread::scope(|scope| {
        for t in 0..writers {
            let h = &h;
            scope.spawn(move || {
                for i in 0..per_thread {
                    h.record(t * 999_983 + i * 17);
                }
            });
        }
        // The reader ticks while the writers race.
        let mut snaps = vec![HistogramSnapshot::empty()];
        for _ in 0..50 {
            snaps.push(h.snapshot());
            std::thread::yield_now();
        }
        snaps
    });
    // One more snapshot after the scope joined every writer: quiescent.
    let last = h.snapshot();
    assert_eq!(last.count, writers * per_thread);

    let mut chained_count = 0u64;
    let mut chained_sum = 0u64;
    let mut chained_buckets: std::collections::BTreeMap<u32, u64> =
        std::collections::BTreeMap::new();
    let all: Vec<&HistogramSnapshot> = snapshots.iter().chain(std::iter::once(&last)).collect();
    for pair in all.windows(2) {
        let delta = pair[1].window_delta(pair[0]);
        assert_eq!(delta.count, pair[1].count - pair[0].count);
        assert_eq!(delta.sum, pair[1].sum - pair[0].sum);
        if delta.is_empty() {
            assert_eq!(delta.percentile(95.0), None);
        }
        for &(index, n) in &delta.buckets {
            assert!(n > 0, "deltas keep only non-empty buckets");
            *chained_buckets.entry(index).or_default() += n;
        }
        chained_count += delta.count;
        chained_sum += delta.sum;
    }
    assert_eq!(chained_count, last.count, "windows conserve the count");
    assert_eq!(chained_sum, last.sum, "windows conserve the sum");
    let rebuilt: Vec<(u32, u64)> = chained_buckets.into_iter().collect();
    assert_eq!(
        rebuilt, last.buckets,
        "chained window deltas rebuild the final bucket contents exactly"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-writer exactness: whatever was recorded between two
    /// snapshots, `window_delta` is bucket-for-bucket the histogram of
    /// exactly those values.
    #[test]
    fn window_delta_equals_the_window_contents(
        before in proptest::collection::vec(0u64..2_000_000, 0..200),
        window in proptest::collection::vec(0u64..2_000_000, 0..200),
    ) {
        let h = Histogram::new();
        for &v in &before {
            h.record(v);
        }
        let a = h.snapshot();
        for &v in &window {
            h.record(v);
        }
        let delta = h.snapshot().window_delta(&a);
        let oracle = Histogram::new();
        for &v in &window {
            oracle.record(v);
        }
        let expected = oracle.snapshot();
        prop_assert_eq!(delta.count, expected.count);
        prop_assert_eq!(delta.sum, expected.sum);
        prop_assert_eq!(&delta.buckets, &expected.buckets);
        if window.is_empty() {
            prop_assert_eq!(delta.percentile(95.0), None);
        } else {
            // The windowed p95 is within the histogram's error bound of
            // the exact nearest-rank p95 of the window's values.
            let mut sorted = window.clone();
            sorted.sort_unstable();
            let rank = ((0.95 * sorted.len() as f64).ceil().max(1.0) as usize).min(sorted.len());
            let exact = sorted[rank - 1] as f64;
            let approx = delta.percentile(95.0).unwrap() as f64;
            prop_assert!(
                (approx - exact).abs() <= exact.max(1.0) * Histogram::MAX_RELATIVE_ERROR,
                "windowed p95 {} vs exact {}", approx, exact
            );
        }
    }
}

#[test]
fn many_threads_never_reorder_any_single_threads_records() {
    let threads = 8u64;
    let per_thread = 1_000u64;
    // Threads hash to ring shards by thread id; size every shard for the
    // worst case of all threads colliding on one.
    let tracer = Tracer::with_capacity((threads * per_thread) as usize * 16);
    tracer.set_enabled(true);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let tracer = &tracer;
            scope.spawn(move || {
                for i in 0..per_thread {
                    // id encodes (thread, step) so the reader can replay
                    // each thread's stream.
                    tracer.instant("tick", "test", t << 32 | i);
                }
            });
        }
    });
    let records = tracer.records();
    assert_eq!(records.len() as u64, threads * per_thread);
    assert_eq!(tracer.dropped(), 0);

    let mut by_writer: std::collections::HashMap<u64, Vec<_>> = std::collections::HashMap::new();
    for r in records {
        assert_eq!(r.kind, TraceKind::Instant);
        by_writer.entry(r.id >> 32).or_default().push(r);
    }
    assert_eq!(by_writer.len() as u64, threads);
    for (writer, stream) in by_writer {
        // `records()` sorts by (start_ns, seq); within one writer that
        // order must reproduce program order exactly.
        assert_eq!(stream.len() as u64, per_thread);
        for (step, r) in stream.iter().enumerate() {
            assert_eq!(
                r.id & 0xffff_ffff,
                step as u64,
                "writer {writer} reordered its records"
            );
        }
        assert!(stream.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(stream.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        // One writer thread = one tracer tid.
        assert!(stream.windows(2).all(|w| w[0].tid == w[1].tid));
    }
}
