//! Scratch-buffer arena: a thread-safe pool of `f32` buffers reused across
//! operator executions.
//!
//! The hot serving loop runs the same network shapes for every batch, so the
//! executor's working set is identical from request to request: each
//! block's op-output slots, planned once per schedule
//! (`ios_core::Schedule::slot_plan`) and taken from the pool at the block's
//! start, the block outputs handed to the next block, a separable
//! convolution's depthwise intermediate and the serving boundary's stacked
//! tensors. [`ScratchPool`] recycles those buffers: once the pool has seen
//! one batch of a given shape profile, steady-state execution on one sample
//! lane performs zero heap allocation in the op loop. On more lanes the
//! pool keeps the peak simultaneous demand, which depends on how the lanes
//! interleave, so a later run can still take a fresh buffer (`random_dag`
//! seed `0x2f3eef8e450828d4`, schedule 29, at 2 lanes). Counters
//! distinguish fresh heap allocations from pool reuses so tests can assert
//! the one-lane steady state.
//! Lane scratch (im2col blocks, pooling windows) is thread-local and never
//! passes through the pool.
//!
//! Buffers handed out by [`ScratchPool::take`] have *unspecified contents*
//! (they may hold data from a previous use); every caller in this crate
//! fully overwrites what it takes.

use crate::tensor_data::TensorData;
use ios_ir::TensorShape;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe pool of reusable `Vec<f32>` scratch buffers.
///
/// `take`/`recycle` are cheap (one short mutex hold each — the free list is
/// kept sorted by capacity, so acquisition is a binary search); the pool is
/// shared by the lanes of concurrent-stage and batched execution. Nothing
/// caps what it retains: what a run gives back is what its slot plans and
/// block outputs took, so a pool keeps at most what its callers held at
/// once.
#[derive(Debug, Default)]
pub struct ScratchPool {
    /// Free buffers, sorted ascending by capacity.
    free: Mutex<Vec<Vec<f32>>>,
    fresh: AtomicU64,
    reused: AtomicU64,
}

impl ScratchPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Takes a buffer of length `len` with unspecified contents, reusing
    /// the smallest pooled buffer with enough capacity.
    #[must_use]
    pub fn take(&self, len: usize) -> Vec<f32> {
        let recycled = {
            let mut free = self.free.lock();
            // The list is sorted by capacity: the first fit is the best fit.
            let i = free.partition_point(|buf| buf.capacity() < len);
            (i < free.len()).then(|| free.remove(i))
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

    /// Returns a buffer to the pool for future reuse.
    pub fn recycle(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock();
        let i = free.partition_point(|b| b.capacity() < buf.capacity());
        free.insert(i, buf);
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
        self.free.lock().len()
    }

    /// Total capacity currently retained by the pool, in `f32` elements.
    #[must_use]
    pub fn pooled_elements(&self) -> usize {
        self.free.lock().iter().map(Vec::capacity).sum()
    }
}

/// Where a kernel's output storage comes from: a buffer taken from a pool,
/// or the operator's planned slot (`ios_core::SlotPlan`), resized to the
/// output. Its contents are unspecified either way.
pub(crate) enum Output<'a> {
    /// Take the output from this pool.
    Pool(&'a ScratchPool),
    /// Write the output into this buffer.
    Slot(Vec<f32>),
}

impl Output<'_> {
    /// The output tensor of `shape`.
    pub(crate) fn tensor(self, shape: TensorShape) -> TensorData {
        match self {
            Output::Pool(pool) => pool.take_tensor(shape),
            Output::Slot(mut data) => {
                data.resize(shape.num_elements(), 0.0);
                TensorData { shape, data }
            }
        }
    }
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
    fn tensor_round_trip() {
        let pool = ScratchPool::new();
        let shape = TensorShape::new(1, 2, 3, 4);
        let t = pool.take_tensor(shape);
        assert_eq!(t.shape, shape);
        assert_eq!(t.data.len(), 24);
        pool.recycle_tensor(t);
        let u = pool.take_tensor(shape);
        assert_eq!(pool.reuses(), 1);
        pool.recycle_tensor(u);
    }
}
