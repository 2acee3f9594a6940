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
//!
//! Operators are generic over the [`Arena`] capability rather than the
//! concrete pool, so a schedule-stage group worker can route its scratch
//! through a [`ScratchScope`] — an uncontended thread-local free list that
//! falls back to (and drains back into) the shared [`ScratchPool`] — and
//! the hot op loop stops taking the shared mutex for every intermediate
//! buffer.

use crate::tensor_data::TensorData;
use ios_ir::TensorShape;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The scratch-allocation capability the operator kernels draw from: take
/// a buffer, give it back. Implemented by the shared, thread-safe
/// [`ScratchPool`] and by the single-threaded [`ScratchScope`] wrapper a
/// group worker holds; both hand out plain `Vec<f32>` buffers, so tensors
/// taken from a scope may be recycled into any pool (and vice versa).
pub trait Arena {
    /// Takes a buffer of length `len` with unspecified contents.
    fn take(&self, len: usize) -> Vec<f32>;

    /// Returns a buffer for future reuse.
    fn recycle(&self, buf: Vec<f32>);

    /// Takes a zero-filled buffer of length `len`.
    fn take_zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Takes a tensor of `shape` with unspecified element contents.
    fn take_tensor(&self, shape: TensorShape) -> TensorData {
        TensorData {
            shape,
            data: self.take(shape.num_elements()),
        }
    }

    /// Takes a zero-filled tensor of `shape`.
    fn take_tensor_zeroed(&self, shape: TensorShape) -> TensorData {
        TensorData {
            shape,
            data: self.take_zeroed(shape.num_elements()),
        }
    }

    /// Returns a tensor's storage for future reuse.
    fn recycle_tensor(&self, tensor: TensorData) {
        self.recycle(tensor.data);
    }
}

impl<A: Arena + ?Sized> Arena for &A {
    fn take(&self, len: usize) -> Vec<f32> {
        (**self).take(len)
    }

    fn recycle(&self, buf: Vec<f32>) {
        (**self).recycle(buf);
    }
}

/// A thread-safe pool of reusable `Vec<f32>` scratch buffers.
///
/// `take`/`recycle` are cheap (one short mutex hold each — the free list is
/// kept sorted by capacity, so acquisition is a binary search); the pool is
/// shared by the scoped worker threads of concurrent-stage and batched
/// execution.
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

impl Arena for ScratchPool {
    fn take(&self, len: usize) -> Vec<f32> {
        ScratchPool::take(self, len)
    }

    fn recycle(&self, buf: Vec<f32>) {
        ScratchPool::recycle(self, buf);
    }
}

/// A per-worker scratch scope: an uncontended free list in front of a
/// shared [`ScratchPool`].
///
/// Each schedule-stage group worker creates one scope for its op loop.
/// `take` serves from the local list first (counted as a reuse on the
/// parent so the fresh/reuse accounting stays in one place) and falls back
/// to the parent pool on a miss; `recycle` keeps the buffer local. When the
/// scope drops — at the end of the group — every retained buffer drains
/// back into the parent, so nothing is stranded and the parent's
/// steady-state "no fresh allocations" invariant is preserved across any
/// worker-to-buffer assignment.
///
/// The scope is intentionally **not** `Sync`: it belongs to one worker
/// thread. Cross-thread sharing goes through the parent pool.
#[derive(Debug)]
pub struct ScratchScope<'a> {
    parent: &'a ScratchPool,
    /// Local free buffers, sorted ascending by capacity (like the parent).
    local: RefCell<Vec<Vec<f32>>>,
}

impl<'a> ScratchScope<'a> {
    /// A new, empty scope draining into `parent` on drop.
    #[must_use]
    pub fn new(parent: &'a ScratchPool) -> Self {
        ScratchScope {
            parent,
            local: RefCell::new(Vec::new()),
        }
    }

    /// The shared pool this scope falls back to and drains into.
    #[must_use]
    pub fn parent(&self) -> &'a ScratchPool {
        self.parent
    }

    /// Buffers currently held locally by this scope.
    #[must_use]
    pub fn held(&self) -> usize {
        self.local.borrow().len()
    }
}

impl Arena for ScratchScope<'_> {
    fn take(&self, len: usize) -> Vec<f32> {
        let recycled = {
            let mut local = self.local.borrow_mut();
            let i = local.partition_point(|buf| buf.capacity() < len);
            (i < local.len()).then(|| local.remove(i))
        };
        match recycled {
            Some(mut buf) => {
                // A local hit is still a pool reuse: count it on the parent
                // so fresh/reuse accounting has a single source of truth.
                self.parent.reused.fetch_add(1, Ordering::Relaxed);
                buf.resize(len, 0.0);
                buf
            }
            None => self.parent.take(len),
        }
    }

    fn recycle(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut local = self.local.borrow_mut();
        let i = local.partition_point(|b| b.capacity() < buf.capacity());
        local.insert(i, buf);
    }
}

impl Drop for ScratchScope<'_> {
    fn drop(&mut self) {
        for buf in self.local.borrow_mut().drain(..) {
            self.parent.recycle(buf);
        }
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
    fn scope_serves_locally_and_drains_to_parent() {
        let pool = ScratchPool::new();
        // Warm the parent with one buffer.
        pool.recycle(pool.take(256));
        let (fresh0, reused0) = (pool.fresh_allocations(), pool.reuses());
        {
            let scope = ScratchScope::new(&pool);
            // Miss locally, hit the parent: a parent reuse, no fresh alloc.
            let a = Arena::take(&scope, 128);
            assert_eq!(pool.fresh_allocations(), fresh0);
            assert_eq!(pool.reuses(), reused0 + 1);
            Arena::recycle(&scope, a);
            assert_eq!(scope.held(), 1);
            assert_eq!(pool.pooled(), 0, "the buffer stays local to the scope");
            // Local hit: counted as a parent reuse, parent untouched.
            let b = Arena::take(&scope, 64);
            assert_eq!(pool.reuses(), reused0 + 2);
            assert_eq!(pool.fresh_allocations(), fresh0);
            Arena::recycle(&scope, b);
            // A take larger than anything pooled allocates fresh (through
            // the parent, so the counter advances there).
            let big = Arena::take(&scope, 4096);
            assert_eq!(pool.fresh_allocations(), fresh0 + 1);
            Arena::recycle(&scope, big);
            assert_eq!(scope.held(), 2);
        }
        // Scope dropped: both buffers drained back to the parent.
        assert_eq!(pool.pooled(), 2);
    }

    #[test]
    fn scope_prefers_smallest_fitting_local_buffer() {
        let pool = ScratchPool::new();
        let scope = ScratchScope::new(&pool);
        let big = Arena::take(&scope, 1 << 16);
        let little = Arena::take(&scope, 32);
        Arena::recycle(&scope, big);
        Arena::recycle(&scope, little);
        let small = Arena::take(&scope, 8);
        assert!(
            small.capacity() < 1 << 16,
            "an 8-element take must not consume the 64K buffer"
        );
    }

    #[test]
    fn scope_drains_to_parent_on_panic() {
        // The drain is Drop-based, so it runs during unwinding too: a
        // panicking stage worker cannot strand the buffers its scope
        // retained. (Buffers the worker itself still holds at panic time
        // are the executor's responsibility — see its GroupOutputs guard.)
        let pool = ScratchPool::new();
        pool.recycle(pool.take(256));
        let fresh = pool.fresh_allocations();
        for round in 0..3 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let scope = ScratchScope::new(&pool);
                let a = Arena::take(&scope, 200);
                Arena::recycle(&scope, a);
                assert_eq!(pool.pooled(), 0, "the buffer is held locally");
                panic!("injected worker fault");
            }));
            assert!(result.is_err());
            assert_eq!(
                pool.pooled(),
                1,
                "round {round}: the scope must drain its buffer on unwind"
            );
            assert_eq!(
                pool.fresh_allocations(),
                fresh,
                "round {round}: repeat panics must not grow the pool"
            );
        }
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
