//! Requests, responses, the lease-based response buffer and the
//! client-side completion handle.

use ios_backend::{ScratchPool, TensorData};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Identifier of one inference request within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// The tenant a request is submitted on behalf of — the unit of admission
/// isolation: every tenant gets its own FIFO sub-queue (drained by
/// weighted-fair queuing), its own token-bucket rate limit and its own
/// completed/shed/queue-wait metrics. Anonymous traffic
/// ([`crate::ServeEngine::submit`]) maps to [`TenantId::DEFAULT`].
///
/// Cheap to clone (`Arc<str>` inside); build one from any string-ish via
/// `From`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Name of the tenant anonymous traffic maps to.
    pub const DEFAULT: &'static str = "default";

    /// The default tenant ([`TenantId::DEFAULT`]).
    #[must_use]
    pub fn default_tenant() -> Self {
        TenantId::from(TenantId::DEFAULT)
    }

    /// The tenant's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId::default_tenant()
    }
}

impl From<&str> for TenantId {
    fn from(name: &str) -> Self {
        TenantId(Arc::from(name))
    }
}

impl From<String> for TenantId {
    fn from(name: String) -> Self {
        TenantId(Arc::from(name.as_str()))
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A response tensor leased from the serving engine's scratch pool.
///
/// The engine fills each response from pooled storage instead of a fresh
/// heap tensor — the last steady-state allocation on the serving path.
/// Dropping the lease returns the buffer to the pool for the next
/// request; [`ResponseLease::into_tensor`] takes permanent ownership
/// instead (the buffer then leaves the pool for good). The lease derefs to
/// [`TensorData`], so `response.outputs[0].shape` etc. read naturally.
#[derive(Debug)]
pub struct ResponseLease {
    tensor: Option<TensorData>,
    pool: Option<Arc<ScratchPool>>,
}

impl ResponseLease {
    /// A lease that returns its buffer to `pool` when dropped.
    pub(crate) fn pooled(tensor: TensorData, pool: Arc<ScratchPool>) -> Self {
        ResponseLease {
            tensor: Some(tensor),
            pool: Some(pool),
        }
    }

    /// Wraps an ordinary heap tensor (nothing is returned anywhere on
    /// drop) — for detached copies and custom backends.
    #[must_use]
    pub fn from_tensor(tensor: TensorData) -> Self {
        ResponseLease {
            tensor: Some(tensor),
            pool: None,
        }
    }

    /// The leased tensor.
    #[must_use]
    pub fn tensor(&self) -> &TensorData {
        self.tensor.as_ref().expect("lease holds a tensor")
    }

    /// Takes permanent ownership of the tensor; its buffer will not return
    /// to the engine's pool.
    #[must_use]
    pub fn into_tensor(mut self) -> TensorData {
        self.tensor.take().expect("lease holds a tensor")
    }
}

impl std::ops::Deref for ResponseLease {
    type Target = TensorData;

    fn deref(&self) -> &TensorData {
        self.tensor()
    }
}

impl Drop for ResponseLease {
    fn drop(&mut self) {
        if let (Some(tensor), Some(pool)) = (self.tensor.take(), self.pool.as_ref()) {
            pool.recycle_tensor(tensor);
        }
    }
}

impl Clone for ResponseLease {
    /// Cloning detaches: the copy is a plain heap tensor that does not
    /// return to the pool (the original lease is unaffected).
    fn clone(&self) -> Self {
        ResponseLease::from_tensor(self.tensor().clone())
    }
}

impl PartialEq for ResponseLease {
    fn eq(&self, other: &Self) -> bool {
        self.tensor() == other.tensor()
    }
}

impl PartialEq<TensorData> for ResponseLease {
    fn eq(&self, other: &TensorData) -> bool {
        self.tensor() == other
    }
}

/// The completed result of one inference request.
#[derive(Debug, Clone)]
pub struct InferenceResponse {
    /// The request this response answers.
    pub id: RequestId,
    /// Per-output tensors of this sample (batch dimension 1), leased from
    /// the engine's response pool (returned on drop).
    pub outputs: Vec<ResponseLease>,
    /// Size of the coalesced batch this request was executed in.
    pub batch_size: usize,
    /// Time spent queued before dispatch, in µs of wall clock.
    pub queue_us: f64,
    /// Total time from submission to completion, in µs of wall clock.
    pub total_us: f64,
    /// This request's share of the batch's device time, in µs.
    pub device_us: f64,
}

/// Why an accepted-or-offered request was completed *without* a result —
/// with [`InferenceResponse`], the terminal outcomes of a request. It was
/// turned away at admission ([`Rejected::Shed`]), completed as expired at
/// batch assembly ([`Rejected::DeadlineExceeded`]) instead of being served
/// a stale result, or lost to a fault in the execution backend
/// ([`Rejected::Failed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The request's deadline passed before its batch dispatched; the
    /// engine completes it immediately rather than computing a result
    /// nobody can use.
    DeadlineExceeded,
    /// Admission control turned the request away: the bounded admission
    /// queue was full, or the engine was in shed mode (windowed p95 queue
    /// wait over the configured budget) with a batch's worth of requests
    /// already queued.
    Shed,
    /// The request's batch panicked inside the execution backend (or while
    /// its responses were being built). The worker survives and serves the
    /// next batch; this request has no result.
    Failed,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::DeadlineExceeded => {
                write!(f, "the request's deadline passed before dispatch")
            }
            Rejected::Shed => write!(f, "the request was shed by admission control"),
            Rejected::Failed => write!(f, "the request's batch failed in the execution backend"),
        }
    }
}

impl std::error::Error for Rejected {}

/// What the engine sends back for one request: a computed response, or a
/// typed rejection.
pub(crate) type Outcome = Result<InferenceResponse, Rejected>;

/// A pending request as carried through the batching queue.
#[derive(Debug)]
pub(crate) struct Pending {
    pub id: RequestId,
    /// The tenant this request was submitted on behalf of (the default
    /// tenant for anonymous traffic).
    pub tenant: TenantId,
    /// That tenant's counters, resolved once at admission so no later
    /// stage looks them up again.
    pub tenant_metrics: Arc<crate::metrics::TenantMetrics>,
    pub input: TensorData,
    pub enqueued_at: Instant,
    /// When set, the instant after which serving this request is useless;
    /// the batcher flushes early to make it, and assembly rejects it with
    /// [`Rejected::DeadlineExceeded`] once passed.
    pub deadline: Option<Instant>,
    pub respond_to: mpsc::Sender<Outcome>,
}

/// Client-side handle resolving to an [`InferenceResponse`].
#[derive(Debug)]
pub struct ResponseHandle {
    pub(crate) id: RequestId,
    pub(crate) receiver: mpsc::Receiver<Outcome>,
}

impl ResponseHandle {
    /// The id of the awaited request.
    #[must_use]
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the response arrives.
    ///
    /// # Panics
    ///
    /// Panics if the engine shut down without answering (a bug: the engine
    /// drains its queue before stopping), or if the request was rejected
    /// (deadline expired, batch failed) — use
    /// [`ResponseHandle::wait_outcome`] when deadlines are in play.
    #[must_use]
    pub fn wait(self) -> InferenceResponse {
        let id = self.id;
        self.wait_outcome()
            .unwrap_or_else(|rejected| panic!("{id} was rejected: {rejected}"))
    }

    /// Blocks until the engine answers, with typed rejections — the form
    /// deadline-carrying clients should use.
    ///
    /// # Errors
    ///
    /// Returns the [`Rejected`] reason when the engine completed this
    /// request without a result (its deadline passed before dispatch, or
    /// its batch failed in the execution backend).
    ///
    /// # Panics
    ///
    /// Panics if the engine shut down without answering (a bug: the engine
    /// drains its queue before stopping).
    pub fn wait_outcome(self) -> Result<InferenceResponse, Rejected> {
        self.receiver
            .recv()
            .expect("engine answered every accepted request")
    }

    /// Returns the outcome if it already arrived, or the handle back.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged while the outcome is still pending;
    /// `Ok(Err(rejected))` when the engine answered with a typed
    /// rejection.
    ///
    /// # Panics
    ///
    /// Panics (like [`ResponseHandle::wait`]) if the engine dropped the
    /// request without answering (a bug: every accepted request is
    /// finished exactly once, a failed batch included). Treating that as
    /// "still pending" would make a polling loop spin forever.
    pub fn try_wait(self) -> Result<Outcome, ResponseHandle> {
        match self.receiver.try_recv() {
            Ok(outcome) => Ok(outcome),
            Err(mpsc::TryRecvError::Empty) => Err(self),
            Err(mpsc::TryRecvError::Disconnected) => {
                panic!("the engine dropped {} without answering", self.id)
            }
        }
    }
}

/// Errors surfaced by [`crate::ServeEngine::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The submitted tensor does not match the network's per-sample input
    /// shape.
    WrongInputShape {
        /// The shape the engine expects (batch dimension 1).
        expected: ios_ir::TensorShape,
        /// The shape that was submitted.
        submitted: ios_ir::TensorShape,
    },
    /// Admission control rejected the request synchronously (load
    /// shedding / bounded queue) — the request never entered the queue.
    Rejected(Rejected),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "the serving engine is shutting down"),
            ServeError::WrongInputShape {
                expected,
                submitted,
            } => write!(
                f,
                "submitted input shape {submitted:?} does not match the network's per-sample \
                 input shape {expected:?}"
            ),
            ServeError::Rejected(rejected) => write!(f, "{rejected}"),
        }
    }
}

impl std::error::Error for ServeError {}
