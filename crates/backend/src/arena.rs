//! Scratch-buffer arena: a thread-safe pool of `f32` buffers reused across
//! operator executions.
//!
//! The hot serving loop runs the same network shapes for every batch, so the
//! executor's working set — im2col patch matrices, activation copies, op
//! output tensors that die after their last reader — is identical from
//! request to request. [`ScratchPool`] recycles those buffers: once the pool
//! has seen one batch of a given shape profile, steady-state execution
//! performs zero heap allocation in the op loop. Counters distinguish fresh
//! heap allocations from pool reuses so tests can assert the steady state.
//!
//! Buffers handed out by [`ScratchPool::take`] have *unspecified contents*
//! (they may hold data from a previous use); every caller in this crate
//! fully overwrites what it takes. Use [`ScratchPool::take_zeroed`] when
//! zero-initialized memory is required.

use crate::tensor_data::TensorData;
use ios_ir::TensorShape;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe pool of reusable `Vec<f32>` scratch buffers.
///
/// `take`/`recycle` are cheap (one short mutex hold each — the free list is
/// kept sorted by capacity, so acquisition is a binary search); the pool is
/// shared by the lanes of concurrent-stage and batched execution.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<FreeList>,
    fresh: AtomicU64,
    reused: AtomicU64,
}

/// The pooled buffers plus a running total of their capacities.
#[derive(Debug, Default)]
struct FreeList {
    /// Free buffers, sorted ascending by capacity.
    bufs: Vec<Vec<f32>>,
    /// Sum of the pooled buffers' capacities, in elements.
    elements: usize,
}

/// An upper bound on retained buffers; beyond it, recycled buffers are
/// dropped instead of pooled so a pathological workload cannot grow the
/// pool without bound.
const MAX_POOLED_BUFFERS: usize = 256;

/// An upper bound on total retained capacity (64 MiB of `f32`s); the pool
/// backs the process-global convenience entry points, so the cap limits
/// how much a one-shot large execution can leave pinned for the process
/// lifetime.
const MAX_POOLED_ELEMENTS: usize = 16 << 20;

impl ScratchPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Takes a buffer of length `len` with unspecified contents, reusing
    /// the smallest pooled buffer with enough capacity — and at most twice
    /// it, so big buffers stay available for the big requests that need
    /// them. Without that bound, a buffer an executor released mid-block
    /// would go to a much smaller tensor of a sample on another lane, the
    /// next large request would allocate afresh, and the pool's retained
    /// capacity would ratchet up with every unlucky interleaving.
    #[must_use]
    pub fn take(&self, len: usize) -> Vec<f32> {
        let recycled = {
            let mut free = self.free.lock();
            // The list is sorted by capacity: the first fit is the best fit.
            let i = free.bufs.partition_point(|buf| buf.capacity() < len);
            (i < free.bufs.len() && free.bufs[i].capacity() <= 2 * len).then(|| {
                let buf = free.bufs.remove(i);
                free.elements -= buf.capacity();
                buf
            })
        };
        match recycled {
            Some(mut buf) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Takes a zero-filled buffer of length `len`.
    #[must_use]
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to the pool for future reuse. Dropped instead of
    /// retained when the pool is at its buffer-count or total-capacity cap.
    pub fn recycle(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock();
        if free.bufs.len() >= MAX_POOLED_BUFFERS
            || free.elements + buf.capacity() > MAX_POOLED_ELEMENTS
        {
            return;
        }
        let i = free.bufs.partition_point(|b| b.capacity() < buf.capacity());
        free.elements += buf.capacity();
        free.bufs.insert(i, buf);
    }

    /// Takes a tensor of `shape` whose element contents are unspecified;
    /// callers must overwrite every element.
    #[must_use]
    pub fn take_tensor(&self, shape: TensorShape) -> TensorData {
        TensorData {
            shape,
            data: self.take(shape.num_elements()),
        }
    }

    /// Takes a zero-filled tensor of `shape`.
    #[must_use]
    pub fn take_tensor_zeroed(&self, shape: TensorShape) -> TensorData {
        TensorData {
            shape,
            data: self.take_zeroed(shape.num_elements()),
        }
    }

    /// Returns a tensor's storage to the pool.
    pub fn recycle_tensor(&self, tensor: TensorData) {
        self.recycle(tensor.data);
    }

    /// Number of buffers allocated fresh from the heap (pool misses).
    #[must_use]
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// Number of buffers served from the pool (pool hits).
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Buffers currently sitting in the pool.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.free.lock().bufs.len()
    }

    /// Total capacity currently retained by the pool, in `f32` elements.
    #[must_use]
    pub fn pooled_elements(&self) -> usize {
        self.free.lock().elements
    }
}

/// The process-wide pool backing the convenience entry points
/// ([`crate::execute_graph`] and friends) that do not thread an explicit
/// pool. Long-running processes reuse its buffers across calls.
#[must_use]
pub fn global_pool() -> &'static ScratchPool {
    static GLOBAL: std::sync::OnceLock<ScratchPool> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(ScratchPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_capacity() {
        let pool = ScratchPool::new();
        let a = pool.take(1024);
        assert_eq!(a.len(), 1024);
        assert_eq!(pool.fresh_allocations(), 1);
        pool.recycle(a);
        let b = pool.take(512);
        assert_eq!(b.len(), 512);
        assert_eq!(pool.fresh_allocations(), 1, "shrinking take must reuse");
        assert_eq!(pool.reuses(), 1);
        pool.recycle(b);
        // A bigger request than any pooled capacity allocates fresh.
        let c = pool.take(4096);
        assert_eq!(pool.fresh_allocations(), 2);
        pool.recycle(c);
    }

    #[test]
    fn take_prefers_smallest_fitting_buffer() {
        let pool = ScratchPool::new();
        let small = pool.take(16);
        let big = pool.take(1 << 20);
        pool.recycle(big);
        pool.recycle(small);
        let again = pool.take(8);
        assert!(
            again.capacity() < 1 << 20,
            "an 8-element take must not consume the megabyte buffer"
        );
    }

    #[test]
    fn take_leaves_a_buffer_over_twice_the_request_pooled() {
        let pool = ScratchPool::new();
        pool.recycle(pool.take(1024));
        let half = pool.take(512);
        assert_eq!(pool.fresh_allocations(), 1, "twice the request is reused");
        pool.recycle(half);
        let small = pool.take(511);
        assert_eq!(pool.fresh_allocations(), 2, "more than twice is not");
        assert_eq!(pool.pooled(), 1, "the big buffer stays for a big request");
        pool.recycle(small);
    }

    #[test]
    fn capacity_cap_drops_oversized_recycles() {
        let pool = ScratchPool::new();
        let huge = pool.take(MAX_POOLED_ELEMENTS + 1);
        pool.recycle(huge);
        assert_eq!(pool.pooled(), 0, "an over-cap buffer must not be retained");
        assert_eq!(pool.pooled_elements(), 0);
        let small = pool.take(64);
        pool.recycle(small);
        assert_eq!(pool.pooled(), 1);
        assert!(pool.pooled_elements() >= 64);
    }

    #[test]
    fn zeroed_take_clears_recycled_contents() {
        let pool = ScratchPool::new();
        let mut a = pool.take(8);
        a.fill(7.0);
        pool.recycle(a);
        let b = pool.take_zeroed(8);
        assert!(b.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn tensor_round_trip() {
        let pool = ScratchPool::new();
        let shape = TensorShape::new(1, 2, 3, 4);
        let t = pool.take_tensor_zeroed(shape);
        assert_eq!(t.shape, shape);
        assert_eq!(t.data.len(), 24);
        pool.recycle_tensor(t);
        let u = pool.take_tensor(shape);
        assert_eq!(pool.reuses(), 1);
        pool.recycle_tensor(u);
    }
}
