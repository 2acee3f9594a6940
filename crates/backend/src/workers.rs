//! One process-wide worker pool: the lanes every kind of backend
//! parallelism draws on.
//!
//! The pool holds `available_parallelism() − 1` threads, created when the
//! first job is posted and parked on a condition variable whenever no job
//! is open. It has one primitive, [`parallel_for`]: the caller posts a job
//! of `chunks` chunks and immediately starts claiming chunk indices from
//! the job's atomic counter; whichever pool threads are idle claim from the
//! same counter. The caller therefore never waits for a helper to *start* —
//! a job no helper reaches is simply run by its caller, chunk after chunk —
//! and only waits at the end for chunks a helper has already claimed.
//!
//! Three layers post jobs here, so together they occupy at most `lanes()`
//! cores instead of each guessing at oversubscription:
//!
//! * the samples of a stacked batch ([`crate::execute_network_batched`]),
//! * the groups of a concurrent IOS stage (`execute_stage`),
//! * the chunks of one operator — a convolution's tile grid, a pooling's
//!   channel planes (intra-operator parallelism, `op_chunks`).
//!
//! Jobs nest: a stage group running on a helper posts its convolutions'
//! chunks like any other caller. A caller that has run out of its own
//! chunks, and is waiting for a helper's last one, helps open *operator*
//! jobs meanwhile, so a lane that finishes its stage group early works on
//! the sibling group's operator chunks. It never picks up a sample or a
//! stage group there: an operator chunk holds about one grain of work, a
//! group or sample could hold the caller's finished job back by
//! milliseconds.
//!
//! A helper starts on a CPU of its own: Linux starts a thread where its
//! parent runs and wakes it where it last ran, and where nothing balances
//! load afterwards (a cpuset with `sched_load_balance` off, as containers
//! set it) a helper left on its first caller's CPU takes turns with that
//! caller for ever — the split operator no faster than an unsplit one, and a
//! run's speed decided by where its threads happened to start. So the first
//! thing lane `k` does is move to the `k`-th allowed CPU after the one it was
//! born on (`leave_cpu`); it is placed, not pinned.
//!
//! A chunk that panics does not take the pool down: the payload is kept,
//! the job's other chunks drain, and the panic resumes on the caller.
//!
//! Thread-scoped overrides — [`crate::simd::with_forced_isa`] and
//! [`with_forced_lanes`] — travel with the job: a helper runs a chunk under
//! the overrides of the thread that posted it.

use crate::simd::{self, Isa};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Multiply-accumulates (or pooling taps) an operator chunk must hold
/// before the operator is split: an operator of fewer than two grains runs
/// on its caller alone.
///
/// Chosen by measurement on the 2-vCPU seed host (see README,
/// "Intra-operator parallelism"): a grain took ≈ 35 µs at the AVX2 tile's
/// ≈ 30 GMAC/s per core, and a parked helper joins ≈ 35 µs after the job
/// is posted (a 4.6 M-MAC pointwise convolution runs in 95–107 µs on two
/// lanes against 129 µs on one, 65 µs being the ideal). Below two grains
/// the caller has finished before the helper arrives; from two grains up a
/// split cannot lose more than the wake-up call. Re-measured with the
/// 8 × 48 AVX-512 tile (`taskset -c 0 simd_gate`, nine rows): 24–41 GMAC/s
/// on one core, a grain of 26–44 µs — the constant was not retuned.
pub const GRAIN_MACS: usize = 1 << 20;

/// Chunks per lane a split operator is cut into. More chunks than lanes
/// lets the claim counter balance a helper that joins late or runs on a
/// slower core; the cost of a chunk boundary is one atomic add.
const CHUNKS_PER_LANE: usize = 4;

thread_local! {
    /// Thread-scoped lane-count override installed by [`with_forced_lanes`].
    static FORCED_LANES: Cell<Option<usize>> = const { Cell::new(None) };
    /// This lane's chunk scratch, grown to its high-water mark.
    static SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// What a chunk inherits from the thread that posted its job.
#[derive(Clone, Copy)]
struct Inherited {
    isa: Option<Isa>,
    lanes: Option<usize>,
}

impl Inherited {
    fn current() -> Inherited {
        Inherited {
            isa: simd::isa_override(),
            lanes: FORCED_LANES.with(Cell::get),
        }
    }

    /// Installs these values on the current thread, returning the ones
    /// they replace.
    fn install(self) -> Inherited {
        Inherited {
            isa: simd::set_isa_override(self.isa),
            lanes: FORCED_LANES.with(|c| c.replace(self.lanes)),
        }
    }
}

/// One posted job: `chunks` calls of `body`, claimed through `next`.
struct Job {
    /// The caller's closure with its lifetime erased. Dereferenced only by
    /// a thread that claimed a chunk index below `chunks`; the caller does
    /// not return from [`run`] before every claimed chunk has finished.
    body: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    /// Chunks not yet finished.
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    inherited: Inherited,
    /// Operator-level jobs are the ones the exported counters count and
    /// the only ones a waiting caller helps (see [`Pool::finish`]).
    operator: bool,
}

// SAFETY: `body` points at a `Sync` closure that outlives every
// dereference (see the field's comment); every other field is `Sync`.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.chunks
    }

    /// Claims and runs chunks until none is left unclaimed.
    fn work(&self, pool: &Pool, by_caller: bool) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            let previous = self.inherited.install();
            // SAFETY: `chunk < chunks` was claimed above, so the caller is
            // still inside `run` and the closure is alive.
            let body = unsafe { &*self.body };
            let outcome = catch_unwind(AssertUnwindSafe(|| body(chunk)));
            previous.install();
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            if self.operator {
                let counter = if by_caller {
                    &OP_CHUNKS_BY_CALLER
                } else {
                    &OP_CHUNKS_BY_HELPER
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            // Release: the chunk's writes happen before the caller's
            // acquire load that sees the count reach zero.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 && !by_caller {
                // The caller may be blocked waiting for exactly this.
                let state = pool.lock();
                if state.sleepers > 0 {
                    pool.wake.notify_all();
                }
            }
        }
    }
}

struct State {
    /// Jobs that may still have unclaimed chunks, oldest first.
    open: Vec<Arc<Job>>,
    /// Threads blocked on `wake`: parked helpers and waiting callers.
    sleepers: usize,
    spawned: bool,
}

struct Pool {
    state: Mutex<State>,
    wake: Condvar,
    /// Helper threads the pool runs (one fewer than the host's cores).
    helpers: usize,
}

static OP_JOBS: AtomicU64 = AtomicU64::new(0);
static OP_CHUNKS_BY_CALLER: AtomicU64 = AtomicU64::new(0);
static OP_CHUNKS_BY_HELPER: AtomicU64 = AtomicU64::new(0);

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            open: Vec::new(),
            sleepers: 0,
            spawned: false,
        }),
        wake: Condvar::new(),
        helpers: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            - 1,
    })
}

impl Pool {
    /// The pool's state. A poisoned lock is entered anyway: no code path
    /// panics while holding it, and every update leaves it valid.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until `wake` is notified.
    fn sleep<'a>(&self, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        state.sleepers += 1;
        let mut state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
        state.sleepers -= 1;
        state
    }

    /// Opens `job` to helpers, starting them on first use.
    fn post(&'static self, job: &Arc<Job>) {
        let mut state = self.lock();
        if !state.spawned {
            state.spawned = true;
            for lane in 0..self.helpers {
                // A host that refuses the thread runs with fewer lanes:
                // callers complete their own jobs regardless.
                let _ = std::thread::Builder::new()
                    .name(format!("ios-lane-{}", lane + 1))
                    .spawn(move || self.help_forever(lane + 1));
            }
        }
        state.open.push(Arc::clone(job));
        if state.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    fn help_forever(&self, lane: usize) -> ! {
        leave_cpu(lane);
        let mut state = self.lock();
        loop {
            match state.open.iter().find(|job| job.has_unclaimed()) {
                Some(job) => {
                    let job = Arc::clone(job);
                    drop(state);
                    job.work(self, false);
                    state = self.lock();
                }
                None => state = self.sleep(state),
            }
        }
    }

    /// Closes `job` to new helpers and waits until the chunks helpers
    /// already claimed have finished, helping open operator jobs
    /// meanwhile.
    fn finish(&self, job: &Arc<Job>) {
        let mut state = self.lock();
        state.open.retain(|open| !Arc::ptr_eq(open, job));
        while job.pending.load(Ordering::Acquire) != 0 {
            match state
                .open
                .iter()
                .find(|other| other.operator && other.has_unclaimed())
            {
                Some(other) => {
                    let other = Arc::clone(other);
                    drop(state);
                    other.work(self, false);
                    state = self.lock();
                }
                None => state = self.sleep(state),
            }
        }
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Moves the calling thread to the `lane`-th after the one it runs on
/// (cyclically) of the CPUs it is allowed on — lanes `1..` born on one CPU
/// land on CPUs of their own — and leaves its affinity mask as it was: the
/// thread is placed once, not pinned. Does nothing where the thread has
/// nowhere else to go or the platform offers no such call.
fn leave_cpu(lane: usize) {
    #[cfg(target_os = "linux")]
    {
        // 1024 CPUs, the C library's `cpu_set_t`.
        let mut allowed = [0u64; 16];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: pid 0 is the calling thread; `allowed` is `bytes` long.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return;
        }
        let cpus: Vec<usize> = (0..bytes * 8)
            .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        // SAFETY: no arguments, no memory touched.
        let here = unsafe { sched_getcpu() };
        let Some(at) = cpus.iter().position(|&c| Ok(c) == usize::try_from(here)) else {
            return;
        };
        let to = cpus[(at + lane) % cpus.len()];
        let mut only = [0u64; 16];
        only[to / 64] = 1 << (to % 64);
        // SAFETY: as above, both masks `bytes` long. The kernel migrates the
        // thread before the first call returns; the second cannot fail where
        // the first did not, and a refusal of either leaves a valid mask.
        unsafe {
            if sched_setaffinity(0, bytes, only.as_ptr()) == 0 {
                sched_setaffinity(0, bytes, allowed.as_ptr());
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = lane;
}

/// Runs `body(0)`, …, `body(chunks − 1)`, each exactly once, on the caller
/// and whichever pool lanes are idle, and returns when all have finished.
/// With one chunk, one lane ([`with_forced_lanes`]) or a one-core host the
/// body runs on the caller and nothing is posted.
///
/// Chunks run in no particular order and concurrently; the caller sees
/// every chunk's writes once this returns.
///
/// # Panics
///
/// If a chunk panics, the first payload is re-raised here after the other
/// chunks have finished; the pool stays usable.
pub fn parallel_for(chunks: usize, body: impl Fn(usize) + Sync) {
    run(chunks, &body, false);
}

/// [`parallel_for`] for the chunks of one operator: counted in [`stats`]
/// and, when the tracer is on, recorded as an `op.parallel` span.
pub(crate) fn parallel_for_op(chunks: usize, body: impl Fn(usize) + Sync) {
    run(chunks, &body, true);
}

fn run(chunks: usize, body: &(dyn Fn(usize) + Sync), operator: bool) {
    if chunks <= 1 || lanes() == 1 {
        (0..chunks).for_each(body);
        return;
    }
    let _span = operator.then(|| {
        OP_JOBS.fetch_add(1, Ordering::Relaxed);
        let mut span = ios_telemetry::tracer().span("op.parallel", "exec");
        span.set_id(chunks as u64);
        span
    });
    // SAFETY: only the lifetime changes. The pointer is dereferenced by
    // threads holding a claimed chunk, and `finish` below returns only
    // after every claimed chunk has finished.
    let body: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        body,
        chunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(chunks),
        panic: Mutex::new(None),
        inherited: Inherited::current(),
        operator,
    });
    let pool = pool();
    pool.post(&job);
    job.work(pool, true);
    pool.finish(&job);
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// [`parallel_for`] collecting one value per chunk, in chunk order.
pub(crate) fn parallel_map<T: Send>(chunks: usize, body: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    parallel_for(chunks, |chunk| {
        let value = body(chunk);
        *slots[chunk].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every chunk ran")
        })
        .collect()
}

/// The lanes a job can occupy: the [`with_forced_lanes`] override if one
/// is active on this thread, else the pool's helpers plus the caller.
#[must_use]
pub fn lanes() -> usize {
    FORCED_LANES
        .with(Cell::get)
        .unwrap_or_else(|| pool().helpers + 1)
}

/// Runs `f` with every job posted from this thread — and from the chunks
/// of those jobs, on whichever lane they run — planned for `lanes` lanes:
/// operators are cut into `min(units, lanes)` chunks whatever their size,
/// and one lane posts nothing at all. The pool's thread count does not
/// change, so more lanes than cores only means more, smaller chunks. This
/// is the hook the lane-count identity tests use; restores the previous
/// setting afterwards (panic-safe).
///
/// # Panics
///
/// Panics if `lanes` is zero.
pub fn with_forced_lanes<R>(lanes: usize, f: impl FnOnce() -> R) -> R {
    assert!(lanes > 0, "a job needs at least the caller's lane");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_LANES.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED_LANES.with(|c| c.replace(Some(lanes))));
    f()
}

/// How many chunks to cut an operator into: `units` is the number of
/// independent pieces along the axis it splits (tile columns, groups,
/// channel planes), `macs` its multiply-accumulate count. One means "do
/// not split".
pub(crate) fn op_chunks(units: usize, macs: usize) -> usize {
    match FORCED_LANES.with(Cell::get) {
        Some(forced) => units.min(forced),
        None => units.min(macs / GRAIN_MACS).min(lanes() * CHUNKS_PER_LANE),
    }
    .max(1)
}

/// The `chunk`-th of `chunks` contiguous, near-equal parts of `0..units`.
pub(crate) fn chunk_range(units: usize, chunks: usize, chunk: usize) -> std::ops::Range<usize> {
    units * chunk / chunks..units * (chunk + 1) / chunks
}

/// Runs `f` with this lane's scratch buffer at length `len` (contents
/// unspecified), starting on a cache-line boundary: a kernel that lays the
/// buffer out in rows of whole 64-byte vectors never loads one across two
/// lines. The buffer belongs to the thread and keeps its high-water
/// capacity, so operator chunks allocate nothing in steady state and touch
/// no shared [`crate::ScratchPool`] from a helper. (The buffer is out of
/// its slot while `f` runs, so a nested use would simply get its own.)
pub(crate) fn with_lane_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    const LINE: usize = 64;
    const PAD: usize = LINE / std::mem::size_of::<f32>() - 1;
    let mut buf = SCRATCH.with(Cell::take);
    if buf.len() < len + PAD {
        buf.resize(len + PAD, 0.0);
    }
    // An `f32` address is a multiple of four, so fewer than `PAD + 1`
    // elements reach the next line.
    let addr = buf.as_ptr() as usize;
    let skip = (addr.next_multiple_of(LINE) - addr) / std::mem::size_of::<f32>();
    let result = f(&mut buf[skip..skip + len]);
    SCRATCH.with(|slot| slot.set(buf));
    result
}

/// An output buffer the chunks of one job write disjoint parts of.
pub(crate) struct DisjointOut<'a> {
    ptr: *mut f32,
    len: usize,
    _borrow: PhantomData<&'a mut [f32]>,
}

// SAFETY: the view hands out `&mut` sub-slices only through the unsafe
// `slice_mut`, whose contract makes concurrent callers disjoint.
unsafe impl Send for DisjointOut<'_> {}
// SAFETY: as above.
unsafe impl Sync for DisjointOut<'_> {}

impl<'a> DisjointOut<'a> {
    pub(crate) fn new(out: &'a mut [f32]) -> Self {
        DisjointOut {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            _borrow: PhantomData,
        }
    }

    /// Elements `[start, start + len)` of the buffer.
    ///
    /// # Safety
    ///
    /// No other slice obtained from this view that overlaps the range may
    /// be alive, on this or any other thread.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie inside the buffer.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [f32] {
        assert!(
            start <= self.len && len <= self.len - start,
            "range {start}+{len} outside an output of {}",
            self.len
        );
        // SAFETY: in bounds per the assert; exclusive per the contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

/// The pool's exported counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Lanes a job can occupy on this host (helpers plus the caller).
    pub lanes: usize,
    /// Operator jobs posted (operators that were split).
    pub op_jobs: u64,
    /// Operator chunks run by the thread that posted them.
    pub op_chunks_by_caller: u64,
    /// Operator chunks run by another lane.
    pub op_chunks_by_helper: u64,
}

/// A snapshot of the intra-operator counters since process start.
#[must_use]
pub fn stats() -> PoolStats {
    PoolStats {
        lanes: pool().helpers + 1,
        op_jobs: OP_JOBS.load(Ordering::Relaxed),
        op_chunks_by_caller: OP_CHUNKS_BY_CALLER.load(Ordering::Relaxed),
        op_chunks_by_helper: OP_CHUNKS_BY_HELPER.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn every_chunk_runs_exactly_once_for_every_lane_count() {
        for lanes in [1usize, 2, 3, 7] {
            for chunks in [0usize, 1, 2, 5, 64] {
                let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                with_forced_lanes(lanes, || {
                    parallel_for(chunks, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{lanes} lanes, {chunks} chunks"
                );
            }
        }
    }

    #[test]
    fn map_returns_values_in_chunk_order() {
        let squares = with_forced_lanes(3, || parallel_map(9, |i| i * i));
        assert_eq!(squares, (0..9).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_nest_and_inner_chunks_inherit_the_overrides() {
        let ambient = simd::active_isa();
        let seen = Mutex::new(Vec::new());
        simd::with_forced_isa(Isa::Scalar, || {
            with_forced_lanes(3, || {
                parallel_for(4, |outer| {
                    parallel_for(3, |inner| {
                        seen.lock()
                            .unwrap()
                            .push((outer, inner, simd::active_isa(), lanes()));
                    });
                });
            });
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(seen.len(), 12);
        assert!(seen
            .iter()
            .all(|&(_, _, isa, l)| isa == Isa::Scalar && l == 3));
        assert_eq!(simd::active_isa(), ambient);
        // A lane is left without the job's overrides.
        parallel_for(4, |_| assert_eq!(simd::active_isa(), ambient));
    }

    #[test]
    fn a_helper_joins_a_job_whose_caller_is_held_up() {
        if pool().helpers == 0 {
            return;
        }
        // Two chunks that each wait for the other: only two lanes running
        // at once get past the barrier.
        let barrier = Barrier::new(2);
        with_forced_lanes(2, || {
            parallel_for(2, |_| {
                barrier.wait();
            });
        });
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_lane_leaves_its_cpu_and_keeps_its_affinity_mask() {
        // SAFETY: no arguments, no memory touched.
        let cpu = || unsafe { sched_getcpu() };
        // On a thread of its own: the test harness's is not ours to move.
        std::thread::spawn(move || {
            let here = cpu();
            leave_cpu(1);
            if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
                assert_eq!(cpu(), here);
                return;
            }
            let there = cpu();
            assert_ne!(there, here);
            // Not pinned where it landed: it can be sent on.
            leave_cpu(1);
            assert_ne!(cpu(), there);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_waiting_caller_leaves_sample_and_group_jobs_alone() {
        if pool().helpers == 0 {
            return;
        }
        let waiter = std::thread::current().id();
        let helper_in = AtomicBool::new(false);
        let release = AtomicBool::new(false);
        let until = |flag: &AtomicBool| {
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        let runners = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            // A second caller posts a non-operator job while this thread is
            // waiting in `finish` for the chunk a helper is held in.
            scope.spawn(|| {
                until(&helper_in);
                with_forced_lanes(2, || {
                    parallel_for(8, |_| {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        runners.lock().unwrap().push(std::thread::current().id());
                    });
                });
                release.store(true, Ordering::Release);
            });
            with_forced_lanes(2, || {
                parallel_for(2, |_| {
                    if std::thread::current().id() == waiter {
                        until(&helper_in);
                    } else {
                        helper_in.store(true, Ordering::Release);
                        until(&release);
                    }
                });
            });
        });
        let runners = runners.into_inner().unwrap();
        assert_eq!(runners.len(), 8);
        assert!(!runners.contains(&waiter));
    }

    #[test]
    fn a_panicking_chunk_reaches_the_caller_and_leaves_the_pool_usable() {
        let others_ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_forced_lanes(3, || {
                parallel_for(6, |i| {
                    if i == 2 {
                        panic!("chunk two failed");
                    }
                    others_ran.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        let payload = result.expect_err("the chunk's panic must resume on the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk two failed"));
        assert_eq!(others_ran.load(Ordering::Relaxed), 5, "the job drains");
        assert_eq!(lanes(), pool().helpers + 1, "the override was restored");
        let ran = AtomicBool::new(false);
        with_forced_lanes(2, || {
            parallel_for(2, |i| {
                if i == 1 {
                    ran.store(true, Ordering::Relaxed);
                }
            });
        });
        assert!(ran.load(Ordering::Relaxed), "later jobs run as before");
    }

    #[test]
    fn operators_below_two_grains_are_not_split() {
        assert_eq!(op_chunks(100, 2 * GRAIN_MACS - 1), 1);
        assert_eq!(op_chunks(1, 100 * GRAIN_MACS), 1);
        let host = pool().helpers + 1;
        assert_eq!(
            op_chunks(100, 2 * GRAIN_MACS),
            2.min(host * CHUNKS_PER_LANE)
        );
        assert!(op_chunks(1000, 1000 * GRAIN_MACS) <= host * CHUNKS_PER_LANE);
        // A forced lane count ignores the grain: tests split tiny shapes.
        with_forced_lanes(7, || {
            assert_eq!(op_chunks(3, 10), 3);
            assert_eq!(op_chunks(50, 10), 7);
        });
        with_forced_lanes(1, || assert_eq!(op_chunks(50, 100 * GRAIN_MACS), 1));
    }

    #[test]
    fn chunk_ranges_partition_the_units() {
        for (units, chunks) in [(10usize, 3usize), (7, 7), (5, 2), (64, 8)] {
            let mut next = 0;
            for chunk in 0..chunks {
                let range = chunk_range(units, chunks, chunk);
                assert_eq!(range.start, next);
                assert!(!range.is_empty());
                next = range.end;
            }
            assert_eq!(next, units);
        }
    }

    #[test]
    fn lane_scratch_starts_on_a_cache_line_nested_use_included() {
        let misaligned = |s: &[f32]| s.as_ptr() as usize % 64;
        // Growing lengths reallocate the buffer between uses.
        for len in [1usize, 16, 1000, 1001, 100_000] {
            with_lane_scratch(len, |outer| {
                assert_eq!((outer.len(), misaligned(outer)), (len, 0));
                with_lane_scratch(len + 3, |inner| {
                    assert_eq!((inner.len(), misaligned(inner)), (len + 3, 0));
                });
            });
        }
    }

    #[test]
    fn lane_scratch_keeps_its_high_water_mark_and_nests() {
        with_lane_scratch(1000, |outer| {
            outer.fill(1.0);
            with_lane_scratch(10, |inner| inner.fill(2.0));
            assert!(outer.iter().all(|&v| v == 1.0));
        });
        let capacity = SCRATCH.with(|s| {
            let buf = s.take();
            let capacity = buf.capacity();
            s.set(buf);
            capacity
        });
        assert!(capacity >= 1000);
    }
}
