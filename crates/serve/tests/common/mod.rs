//! Executors the engine suites share: one that burns a fixed interval per
//! batch, and a gated wrapper that holds a batch in flight.
//!
//! An idle engine dispatches a partial batch at once, so a test that needs
//! requests to coalesce into one batch, or to stay queued, first holds a
//! batch in flight with [`Gate::hold`]. While that batch is parked at the
//! gate, a queued partial batch leaves only when it fills, waits out
//! `max_wait`, meets its deadline or the queue closes, whatever the host's
//! scheduling.
//!
//! The `ios-serve` unit tests, the crate's integration suites and the
//! facade's serving suite all include this one file.
#![allow(dead_code)] // each suite uses its own subset

use ios_backend::TensorData;
use ios_serve::{
    BatchContext, BatchExecutor, BatchOutcome, InferenceResponse, ResponseHandle, ServeEngine,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Burns a fixed wall-clock interval per batch — the knob that makes
/// queue waits blow past a shed budget deterministically. Computes no
/// numerics.
pub struct SleepyExecutor {
    pub batch_time: Duration,
}

impl BatchExecutor for SleepyExecutor {
    fn name(&self) -> &'static str {
        "sleepy"
    }
    fn execute(&self, _ctx: &BatchContext<'_>) -> BatchOutcome {
        std::thread::sleep(self.batch_time);
        BatchOutcome {
            outputs: None,
            device_time_us: self.batch_time.as_micros() as f64,
        }
    }
}

/// Parks the next batch its [`GatedExecutor`] is handed, once armed, until
/// released.
#[derive(Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    /// The next batch to arrive parks.
    armed: bool,
    /// A batch is parked.
    parked: bool,
}

impl Gate {
    /// Holds one batch in flight: arms the gate, submits `input` to an
    /// engine with nothing queued, and returns the request's handle once
    /// its batch is parked. [`Gate::release`] takes the handle back.
    pub fn hold(&self, engine: &ServeEngine, input: TensorData) -> ResponseHandle {
        self.state.lock().unwrap().armed = true;
        let handle = engine
            .submit(input)
            .expect("the holding request is admitted");
        let parked = self.state.lock().unwrap();
        drop(self.changed.wait_while(parked, |s| !s.parked).unwrap());
        handle
    }

    /// Lets the parked batch run, and returns the held request's answer.
    pub fn release(&self, held: ResponseHandle) -> InferenceResponse {
        self.state.lock().unwrap().parked = false;
        self.changed.notify_all();
        held.wait_outcome().expect("the held request is answered")
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if std::mem::take(&mut state.armed) {
            state.parked = true;
            self.changed.notify_all();
            drop(self.changed.wait_while(state, |s| s.parked).unwrap());
        }
    }
}

/// Runs `inner`'s batches, parking one at its [`Gate`] when armed.
struct GatedExecutor<E> {
    inner: E,
    gate: Arc<Gate>,
}

/// `inner` behind a fresh gate: the executor to start an engine with, and
/// the gate the test holds.
pub fn gated(inner: impl BatchExecutor) -> (Box<dyn BatchExecutor>, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let executor = GatedExecutor {
        inner,
        gate: Arc::clone(&gate),
    };
    (Box::new(executor), gate)
}

impl<E: BatchExecutor> BatchExecutor for GatedExecutor<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn execute(&self, ctx: &BatchContext<'_>) -> BatchOutcome {
        self.gate.pass();
        self.inner.execute(ctx)
    }
    fn recycle_outputs(&self, outputs: Vec<TensorData>) {
        self.inner.recycle_outputs(outputs);
    }
}
