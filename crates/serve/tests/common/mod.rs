//! What the engine suites share: a small three-block network, an executor
//! that burns a fixed interval per batch, and a gated wrapper that holds a
//! batch in flight.
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
use ios_ir::{Block, Conv2dParams, GraphBuilder, Network, TensorShape};
use ios_serve::{
    BatchContext, BatchExecutor, BatchOutcome, InferenceResponse, ResponseHandle, ServeEngine,
};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// A three-block chain with a two-branch head: distinct per-batch
/// schedules, small enough to stress in CI.
pub fn three_block_network() -> Network {
    let input = TensorShape::new(1, 4, 6, 6);
    let mut b = GraphBuilder::new("chain_b0", input);
    let x = b.input(0);
    let a = b.conv2d("a", x, Conv2dParams::relu(6, (3, 3), (1, 1), (1, 1)));
    let c = b.conv2d("c", x, Conv2dParams::relu(6, (1, 1), (1, 1), (0, 0)));
    let cat = b.concat("cat", &[a, c]);
    let block0 = Block::new(b.build(vec![cat]));
    let mut b = GraphBuilder::with_inputs("chain_b1", block0.graph.output_shapes());
    let x = b.input(0);
    let d = b.conv2d("d", x, Conv2dParams::relu(8, (3, 3), (1, 1), (1, 1)));
    let block1 = Block::new(b.build(vec![d]));
    let mut b = GraphBuilder::with_inputs("chain_b2", block1.graph.output_shapes());
    let x = b.input(0);
    let e = b.conv2d("e", x, Conv2dParams::relu(4, (1, 1), (1, 1), (0, 0)));
    let block2 = Block::new(b.build(vec![e]));
    Network::new("chain_net", input, vec![block0, block1, block2])
}

/// Burns a fixed wall-clock interval per batch — the knob that makes
/// offered load exceed capacity, and queue waits blow past a shed budget,
/// deterministically. Computes no numerics: its batches return no outputs.
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
            outputs: Vec::new(),
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
        self.state.lock().armed = true;
        let handle = engine
            .submit(input)
            .expect("the holding request is admitted");
        drop(self.changed.wait_while(self.state.lock(), |s| !s.parked));
        handle
    }

    /// Lets the parked batch run, and returns the held request's answer.
    pub fn release(&self, held: ResponseHandle) -> InferenceResponse {
        self.state.lock().parked = false;
        self.changed.notify_all();
        held.wait_outcome().expect("the held request is answered")
    }

    fn pass(&self) {
        let mut state = self.state.lock();
        if std::mem::take(&mut state.armed) {
            state.parked = true;
            self.changed.notify_all();
            drop(self.changed.wait_while(state, |s| s.parked));
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
