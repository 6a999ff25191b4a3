//! The batched request engine: the serving front door.
//!
//! SpMV is shared-bandwidth-bound, so the cheapest request a server can
//! run is one it can merge with another: a `k`-vector SpMM call streams
//! the matrix arrays once for `k` products (measured 1.41–1.90× per-
//! vector amortization in this workspace). The engine exploits that by
//! **coalescing**: submissions land in one bounded queue; a dedicated
//! dispatcher thread drains it the moment it wakes, groups requests by
//! matrix, greedily chunks each group into the kernel-specialized widths
//! `k ∈ {8, 4, 2, 1}`, and runs each chunk as a single
//! [`SpMvMulti::spmv_multi`] call on the registry's prepared matrix. It
//! never waits for a batch to fill: requests that arrive while a round
//! runs queue up and make the next round's chunks wide.
//!
//! A round's chunks are independent, so the dispatcher does not run them
//! alone: it and up to `available_parallelism() − 1` persistent helper
//! threads (`spmv-serve-help*`) take chunks from one shared round queue
//! until it is empty, and the dispatcher waits for the chunks still
//! running on helpers before its next drain. A helper starts the first
//! time a round has more chunks than threads to run them, and the
//! dispatcher joins its helpers when it exits. A one-chunk round runs on
//! the dispatcher alone, as does every round on a one-CPU host. Which
//! thread runs a chunk changes no bit of its replies.
//!
//! Everything is async-free std: submission is a mutex push + condvar
//! notify, completion a per-request slot the caller blocks on through
//! [`Ticket::wait`]. **Admission control** is reject-not-block: when the
//! queue holds `capacity` requests, [`ServeEngine::submit`] returns
//! [`ServeError::Saturated`] immediately instead of wedging the caller
//! behind a slow dispatcher.
//!
//! With telemetry recording enabled the engine emits `serve.enqueue`
//! (submit call, arg = queue depth after the push), `serve.batch` (one
//! coalesced chunk: assemble + dispatch + complete, arg = k),
//! `serve.wait` (one request's submit → start of its chunk's dispatch,
//! arg = matrix id), `serve.dispatch` (the SpMM call alone, arg = k; these
//! three on whichever thread ran the chunk), and `serve.request` (one
//! request's full submit→complete latency, arg = matrix id) spans.
//! The engine also keeps its own latency record so
//! [`ServeEngine::report`] can summarize p50/p95/p99 even with
//! recording off.
//!
//! # Residual feeding
//!
//! Every dispatched chunk is timed. When the served matrix has a
//! registered **expectation** ([`ServeEngine::expect`]: the publish
//! version, a residual key, and the expected seconds per single-vector
//! SpMV), the engine folds `(expected, measured)` of each width-1 chunk
//! into its [`ResidualTracker`] tagged with the matrix id — the stream an
//! online tuner drains to detect stale selections. Wider chunks are not
//! scored: a coalesced call costs less per vector than a single one, so
//! its timing is not comparable with a single-vector expectation. Requests are stamped with
//! the registry version they captured at submit, and a measurement is
//! recorded only if that version still matches the expectation, so
//! in-flight requests racing a hot-swap never poison the new version's
//! residual population. [`ServeEngine::set_residual_scale`] multiplies
//! recorded measurements (never the actual replies) — a documented
//! fault-injection seam that lets tests and load generators simulate a
//! machine slowdown without one.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry::{MatrixId, PreparedMatrix, Registry};
use spmv_core::{MatrixShape, SpMv, SpMvMulti};
use spmv_kernels::simd::SimdScalar;
use spmv_telemetry::residual::{ResidualKey, ResidualTracker};

/// The chunk widths the dispatcher may emit, widest first — these are
/// exactly the widths the SpMM kernels specialize.
const CHUNK_WIDTHS: [usize; 4] = [8, 4, 2, 1];

/// How a submission or a request can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue already holds `capacity` requests; the request
    /// was rejected, not queued. Back off and retry.
    Saturated {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// No matrix is published under this id.
    UnknownMatrix(MatrixId),
    /// The input vector length does not match the matrix column count.
    BadLength {
        /// Required length (`n_cols`).
        expected: usize,
        /// Submitted length.
        got: usize,
    },
    /// The engine is shutting down (or a request was abandoned mid-
    /// flight by a dispatcher failure).
    ShutDown,
    /// The dispatch kernel panicked; the request was not computed.
    DispatchPanicked,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Saturated { capacity } => {
                write!(f, "request queue saturated (capacity {capacity})")
            }
            ServeError::UnknownMatrix(id) => write!(f, "no matrix published under {id}"),
            ServeError::BadLength { expected, got } => {
                write!(f, "input vector length {got} != matrix columns {expected}")
            }
            ServeError::ShutDown => write!(f, "engine is shut down"),
            ServeError::DispatchPanicked => write!(f, "dispatch kernel panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Tuning knobs for a [`ServeEngine`].
///
/// There is no coalescing window: the dispatcher drains the queue as
/// soon as it wakes, and a batch is whatever queued up while the
/// previous round ran.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Bounded queue size; submissions beyond it are rejected with
    /// [`ServeError::Saturated`].
    pub capacity: usize,
    /// Upper bound on the chunk width `k` (clamped to 8, the widest
    /// specialized kernel). 1 disables coalescing — every request runs
    /// as its own dispatch, the baseline `serve_load` compares against.
    pub max_batch: usize,
    /// Start with dispatching paused ([`ServeEngine::resume`] starts it);
    /// used by tests and drain-style maintenance.
    pub start_paused: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            capacity: 1024,
            max_batch: 8,
            start_paused: false,
        }
    }
}

/// Where a request's result is delivered; the submitting side blocks on
/// it through [`Ticket::wait`].
struct ReplySlot<T> {
    result: Mutex<Option<Result<Vec<T>, ServeError>>>,
    cv: Condvar,
}

impl<T> ReplySlot<T> {
    fn new() -> Self {
        ReplySlot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// First completion wins; later ones (e.g. the abandon guard racing a
    /// real completion) are dropped.
    fn complete(&self, r: Result<Vec<T>, ServeError>) {
        let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(r);
            self.cv.notify_all();
        }
    }
}

/// A handle to one in-flight request.
#[must_use = "a ticket is the only way to receive the request's result"]
pub struct Ticket<T> {
    slot: Arc<ReplySlot<T>>,
}

impl<T> Ticket<T> {
    /// Blocks until the request completes and returns its result.
    pub fn wait(self) -> Result<Vec<T>, ServeError> {
        let mut slot = self.slot.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.slot.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Returns the result if the request has already completed, without
    /// blocking; the ticket stays usable otherwise.
    pub fn try_take(&self) -> Option<Result<Vec<T>, ServeError>> {
        self.slot
            .result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }
}

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

/// Completion accounting shared by the engine and every in-flight
/// request: the counters plus the condvar [`ServeEngine::fence`] waits
/// on. Each `Pending` holds its own `Arc`, so even a request abandoned
/// by a dispatcher failure is counted (as failed) on drop — which is
/// what makes the fence's "every request submitted before the call has
/// completed" guarantee airtight.
struct Accounting {
    stats: Mutex<Stats>,
    /// Notified on every completion/failure account.
    done: Condvar,
}

/// One queued request.
struct Pending<T: SimdScalar> {
    id: MatrixId,
    /// Registry publish version of `prepared`, captured at submit.
    version: u64,
    prepared: Arc<PreparedMatrix<T>>,
    x: Vec<T>,
    submitted: Instant,
    submitted_ns: u64,
    slot: Arc<ReplySlot<T>>,
    accounting: Arc<Accounting>,
    completed: bool,
}

impl<T: SimdScalar> Pending<T> {
    fn complete(&mut self, r: Result<Vec<T>, ServeError>) {
        let latency = self.submitted.elapsed().as_nanos() as u64;
        spmv_telemetry::complete("serve.request", self.submitted_ns, latency, self.id.0);
        // Fill the reply slot and account under one stats critical
        // section: a `fence` that observes the new counts can rely on
        // the slot already holding its result, and a report taken right
        // after `Ticket::wait` returns already counts this request
        // (it has to wait for this stats lock).
        {
            let mut s = self
                .accounting
                .stats
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let ok = r.is_ok();
            self.slot.complete(r);
            if ok {
                s.completed += 1;
                s.record_latency(latency);
            } else {
                s.failed += 1;
            }
        }
        self.accounting.done.notify_all();
        self.completed = true;
    }
}

impl<T: SimdScalar> Drop for Pending<T> {
    fn drop(&mut self) {
        // Abandon guard: a request dropped before completion (dispatcher
        // panic, shutdown race) must not leave its waiter blocked
        // forever — and must still be accounted, so a fence never waits
        // on a ghost.
        if !self.completed {
            {
                let mut s = self
                    .accounting
                    .stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                self.slot.complete(Err(ServeError::ShutDown));
                s.failed += 1;
            }
            self.accounting.done.notify_all();
        }
    }
}

/// Completion latencies the engine keeps: the most recent this many
/// (8 MiB), so a long-lived engine's record and the copy each report
/// sorts stay bounded.
const LATENCY_SAMPLES: usize = 1 << 20;

/// Counters the engine keeps regardless of telemetry state.
#[derive(Debug, Clone, Default)]
struct Stats {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    batches: u64,
    /// Dispatches by chunk width, indexed by `log2(k)` for k in
    /// {1, 2, 4, 8}.
    by_width: [u64; 4],
    /// The latencies of the most recent completions, oldest first; at
    /// most [`LATENCY_SAMPLES`].
    latencies_ns: VecDeque<u64>,
    /// Index into `latencies_ns` of the current report window's first
    /// sample (see [`ServeEngine::begin_latency_window`]). It moves down
    /// as old samples drop, so the window keeps only its own.
    window_start: usize,
}

impl Stats {
    fn record_latency(&mut self, ns: u64) {
        if self.latencies_ns.len() == LATENCY_SAMPLES {
            self.latencies_ns.pop_front();
            self.window_start = self.window_start.saturating_sub(1);
        }
        self.latencies_ns.push_back(ns);
    }
}

/// The expectation live measurements of one matrix are compared against.
struct Expectation {
    /// Registry publish version the expectation is for; measurements of
    /// other versions are not recorded.
    version: u64,
    /// Residual population the pairs land in.
    key: ResidualKey,
    /// Expected seconds per single-vector SpMV.
    predicted: f64,
}

/// Latency percentiles over completed requests, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of completed requests summarized.
    pub count: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Slowest request.
    pub max_ns: u64,
}

/// A point-in-time copy of the engine's counters.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error.
    pub failed: u64,
    /// Coalesced chunks dispatched.
    pub batches: u64,
    /// Dispatch counts per chunk width `k` = 1, 2, 4, 8.
    pub dispatches_by_k: [(usize, u64); 4],
    /// Latency percentiles over the most recent 2^20 completed requests
    /// (older ones drop from the record), when any has completed.
    pub latency: Option<LatencySummary>,
    /// Latency percentiles over only the completions since the last
    /// [`ServeEngine::begin_latency_window`] call (the whole record
    /// until the first call), within the same 2^20 most recent ones.
    /// `None` while the window has no completions.
    /// This is what separates pre- from post-swap latency in an
    /// adaptive run: `latency` would smear both regimes together.
    pub window_latency: Option<LatencySummary>,
    /// One-line operator warnings. Currently: one line per registered
    /// matrix whose pool pin policy oversubscribes cores (two workers
    /// on one core silently serialize the "parallel" strips — also
    /// counted by the `pool.pin_oversubscribed` telemetry counter).
    /// Empty when everything is healthy.
    pub warnings: Vec<String>,
}

impl EngineReport {
    /// Mean requests per dispatched batch — the realized coalescing
    /// factor (1.0 means no coalescing happened).
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed as f64 / self.batches as f64
    }
}

/// Nearest-rank percentiles over an unsorted sample (sorted in place).
fn percentiles(mut v: Vec<u64>) -> Option<LatencySummary> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = |p: f64| {
        let idx = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[idx.clamp(1, v.len()) - 1]
    };
    Some(LatencySummary {
        count: v.len() as u64,
        p50_ns: rank(50.0),
        p95_ns: rank(95.0),
        p99_ns: rank(99.0),
        max_ns: *v.last().unwrap(),
    })
}

/// Requests that run as one `spmv`/`spmv_multi` call: one matrix
/// version, a width in [`CHUNK_WIDTHS`].
type Chunk<T> = Vec<Pending<T>>;

/// One drained round, cut into chunks, shared by the dispatcher and its
/// helpers.
struct Round<T: SimdScalar> {
    /// Chunks no thread has taken yet, in arrival order.
    chunks: VecDeque<Chunk<T>>,
    /// Chunks helpers have taken and not finished.
    running: usize,
    /// Set when the dispatcher exits; helpers return once they see it.
    exit: bool,
}

struct EngineShared<T: SimdScalar> {
    queue: Mutex<VecDeque<Pending<T>>>,
    /// Wakes the dispatcher on submit / resume / shutdown.
    cv: Condvar,
    round: Mutex<Round<T>>,
    /// Wakes helpers when a round's chunks are queued, and at exit.
    round_ready: Condvar,
    /// Wakes the dispatcher when a helper finishes a chunk.
    round_done: Condvar,
    paused: AtomicBool,
    shutdown: AtomicBool,
    accounting: Arc<Accounting>,
    /// Per-matrix residual expectations, keyed by `MatrixId.0`.
    expectations: Mutex<HashMap<u64, Expectation>>,
    /// Where dispatch-time residual pairs are recorded.
    residuals: Arc<ResidualTracker>,
    /// f64 bits of the measurement multiplier (fault-injection seam;
    /// 1.0 = record real durations).
    residual_scale: AtomicU64,
}

impl<T: SimdScalar> EngineShared<T> {
    fn scale(&self) -> f64 {
        f64::from_bits(self.residual_scale.load(Ordering::Relaxed))
    }
}

/// The serving front door: accepts `y = A·x` submissions against a
/// shared [`Registry`] and dispatches them coalesced.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spmv_core::{Coo, Csr, SpMv};
/// use spmv_model::Config;
/// use spmv_serve::{EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine};
///
/// let csr = Csr::from_coo(&Coo::from_triplets(3, 3, vec![
///     (0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0),
/// ]).unwrap());
/// let registry = Arc::new(Registry::new());
/// registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &csr));
///
/// let engine = ServeEngine::new(Arc::clone(&registry), EngineOptions::default());
/// let ticket = engine.submit(MatrixId(1), vec![1.0, 1.0, 1.0]).unwrap();
/// assert_eq!(ticket.wait().unwrap(), csr.spmv(&[1.0, 1.0, 1.0]));
///
/// // Convenience form for synchronous callers:
/// let y = engine.submit_wait(MatrixId(1), vec![2.0, 0.0, 0.0]).unwrap();
/// assert_eq!(y, vec![2.0, 0.0, 0.0]);
/// ```
pub struct ServeEngine<T: SimdScalar> {
    registry: Arc<Registry<T>>,
    shared: Arc<EngineShared<T>>,
    capacity: usize,
    handle: Option<JoinHandle<()>>,
}

impl<T: SimdScalar> ServeEngine<T> {
    /// Starts an engine (and its dispatcher thread) over `registry`.
    pub fn new(registry: Arc<Registry<T>>, opts: EngineOptions) -> Self {
        let shared = Arc::new(EngineShared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            round: Mutex::new(Round {
                chunks: VecDeque::new(),
                running: 0,
                exit: false,
            }),
            round_ready: Condvar::new(),
            round_done: Condvar::new(),
            paused: AtomicBool::new(opts.start_paused),
            shutdown: AtomicBool::new(false),
            accounting: Arc::new(Accounting {
                stats: Mutex::new(Stats::default()),
                done: Condvar::new(),
            }),
            expectations: Mutex::new(HashMap::new()),
            residuals: Arc::new(ResidualTracker::new()),
            residual_scale: AtomicU64::new(1.0f64.to_bits()),
        });
        let dispatcher = Arc::clone(&shared);
        let max_batch = opts.max_batch.clamp(1, *CHUNK_WIDTHS.first().unwrap());
        let handle = std::thread::Builder::new()
            .name("spmv-serve-dispatch".into())
            .spawn(move || dispatcher_loop(dispatcher, max_batch))
            .expect("spawn serve dispatcher");
        ServeEngine {
            registry,
            shared,
            capacity: opts.capacity.max(1),
            handle: Some(handle),
        }
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<Registry<T>> {
        &self.registry
    }

    /// Submits `y = A·x` for the matrix published under `id`.
    ///
    /// Validates the id and vector length against the registry **now**
    /// (so errors surface at the submission site), captures the current
    /// prepared matrix, and enqueues. Returns the [`Ticket`] to wait on,
    /// or an error without queuing anything.
    pub fn submit(&self, id: MatrixId, x: Vec<T>) -> Result<Ticket<T>, ServeError> {
        let mut span = spmv_telemetry::span("serve.enqueue");
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShutDown);
        }
        let (version, prepared) = self
            .registry
            .get_versioned(id)
            .ok_or(ServeError::UnknownMatrix(id))?;
        if x.len() != prepared.n_cols() {
            return Err(ServeError::BadLength {
                expected: prepared.n_cols(),
                got: x.len(),
            });
        }
        let slot = Arc::new(ReplySlot::new());
        let pending = Pending {
            id,
            version,
            prepared,
            x,
            submitted: Instant::now(),
            submitted_ns: spmv_telemetry::now_ns(),
            slot: Arc::clone(&slot),
            accounting: Arc::clone(&self.shared.accounting),
            completed: false,
        };
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= self.capacity {
                drop(q);
                let mut s = self.stats_lock();
                s.rejected += 1;
                return Err(ServeError::Saturated {
                    capacity: self.capacity,
                });
            }
            q.push_back(pending);
            span.set_arg(q.len() as u64);
        }
        self.shared.cv.notify_all();
        let mut s = self.stats_lock();
        s.submitted += 1;
        Ok(Ticket { slot })
    }

    fn stats_lock(&self) -> std::sync::MutexGuard<'_, Stats> {
        self.shared
            .accounting
            .stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// [`ServeEngine::submit`] + [`Ticket::wait`] in one call.
    pub fn submit_wait(&self, id: MatrixId, x: Vec<T>) -> Result<Vec<T>, ServeError> {
        self.submit(id, x)?.wait()
    }

    /// Requests currently queued (excludes in-flight dispatches).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Pauses dispatching; queued and newly submitted requests wait (or
    /// are rejected once the queue fills — admission control still
    /// applies).
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes dispatching after [`ServeEngine::pause`].
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
        self.shared.cv.notify_all();
    }

    /// A point-in-time copy of the engine's counters and latency
    /// percentiles.
    pub fn report(&self) -> EngineReport {
        let mut warnings = Vec::new();
        for id in self.registry.ids() {
            if let Some(m) = self.registry.get(id) {
                if m.pin_oversubscribed() {
                    warnings.push(format!(
                        "matrix {id} ({}): pin policy oversubscribes cores; pool strips may serialize",
                        m.config()
                    ));
                }
            }
        }
        let s = self.stats_lock();
        let mut report = EngineReport {
            submitted: s.submitted,
            rejected: s.rejected,
            completed: s.completed,
            failed: s.failed,
            batches: s.batches,
            dispatches_by_k: [
                (1, s.by_width[0]),
                (2, s.by_width[1]),
                (4, s.by_width[2]),
                (8, s.by_width[3]),
            ],
            latency: None,
            window_latency: None,
            warnings,
        };
        // Copy the record under the stats lock, which every submit and
        // completion takes, and sort after releasing it.
        let (old, new) = s.latencies_ns.as_slices();
        let samples = [old, new].concat();
        let window_start = s.window_start;
        drop(s);
        report.window_latency = percentiles(samples[window_start..].to_vec());
        report.latency = percentiles(samples);
        report
    }

    /// Starts a new latency window at the current completion count:
    /// [`EngineReport::window_latency`] summarizes only completions from
    /// here on. The tuner calls this at each hot-swap so pre- and
    /// post-swap percentiles stay separable.
    pub fn begin_latency_window(&self) {
        let mut s = self.stats_lock();
        s.window_start = s.latencies_ns.len();
    }

    /// The tracker dispatch-time residual pairs are recorded into.
    pub fn residuals(&self) -> &Arc<ResidualTracker> {
        &self.shared.residuals
    }

    /// Registers (or replaces) the residual expectation for `id`: pairs
    /// `(predicted, measured)` are recorded under `key` for dispatches
    /// that captured exactly registry `version` of the matrix. Call it
    /// right after each publish; stale versions stop recording on their
    /// own.
    pub fn expect(&self, id: MatrixId, version: u64, key: ResidualKey, predicted: f64) {
        self.shared
            .expectations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                id.0,
                Expectation {
                    version,
                    key,
                    predicted,
                },
            );
    }

    /// Multiplies every *recorded* measurement by `scale` (replies are
    /// untouched). A fault-injection seam: `3.0` makes the residual
    /// stream look like the machine got 3× slower, which is how the
    /// adaptive harness injects bandwidth perturbation deterministically.
    /// Non-finite or non-positive scales are ignored.
    pub fn set_residual_scale(&self, scale: f64) {
        if scale.is_finite() && scale > 0.0 {
            self.shared
                .residual_scale
                .store(scale.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current measurement multiplier (1.0 unless injected).
    pub fn residual_scale(&self) -> f64 {
        self.shared.scale()
    }

    /// Epoch fence: blocks until every request accepted before the call
    /// has completed (successfully or not), and returns how many that
    /// was. Rejected submissions were never accepted, so they don't
    /// count. The swap protocol runs `publish → fence → retire old
    /// expectation`: after the fence, no in-flight request can still be
    /// executing against the pre-swap version.
    ///
    /// Waits on completions, so a paused engine with queued work blocks
    /// until resumed (shutdown drains and completes everything, which
    /// releases the fence too).
    pub fn fence(&self) -> u64 {
        let target = self.stats_lock().submitted;
        let mut s = self.stats_lock();
        while s.completed + s.failed < target {
            let (g, _) = self
                .shared
                .accounting
                .done
                .wait_timeout(s, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            s = g;
        }
        target
    }

    /// Measures the served matrix directly (bypassing the queue): the
    /// fastest of `reps` single-vector calls, in seconds, multiplied by
    /// the residual scale so it is comparable with what dispatch-time
    /// measurements record. This is how a publisher calibrates the
    /// expectation it passes to [`ServeEngine::expect`] — a baseline
    /// measured on the serving host centers residuals at zero, so the
    /// detector reacts to drift rather than to the model's constant
    /// bias.
    pub fn calibrate(&self, id: MatrixId, x: &[T], reps: usize) -> Result<f64, ServeError> {
        let prepared = self.registry.get(id).ok_or(ServeError::UnknownMatrix(id))?;
        if x.len() != prepared.n_cols() {
            return Err(ServeError::BadLength {
                expected: prepared.n_cols(),
                got: x.len(),
            });
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let y = prepared.spmv(x);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(&y);
            best = best.min(dt);
        }
        Ok(best * self.shared.scale())
    }

    /// Stops accepting submissions, lets the dispatcher drain everything
    /// already queued (pausing cannot hold the drain back), and joins it.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl<T: SimdScalar> Drop for ServeEngine<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<T: SimdScalar> fmt::Debug for ServeEngine<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeEngine")
            .field("capacity", &self.capacity)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// The dispatcher: wake on work, drain at once, cut the round into
/// chunks and run them with its helpers, repeat until shut down and
/// drained. Requests that arrive while a round runs wait in the queue
/// and form the next round. Its helpers are joined when it returns.
fn dispatcher_loop<T: SimdScalar>(shared: Arc<EngineShared<T>>, max_batch: usize) {
    let mut helpers = Helpers::new(Arc::clone(&shared));
    loop {
        let drained: Vec<Pending<T>> = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let down = shared.shutdown.load(Ordering::Acquire);
                if down && q.is_empty() {
                    return;
                }
                // Shutdown overrides pause: queued work must drain.
                if !q.is_empty() && (down || !shared.paused.load(Ordering::Acquire)) {
                    break;
                }
                let (g, _) = shared
                    .cv
                    .wait_timeout(q, Duration::from_millis(1))
                    .unwrap_or_else(|e| e.into_inner());
                q = g;
            }
            q.drain(..).collect()
        };
        run_round(&shared, &mut helpers, cut_round(drained, max_batch));
    }
}

/// Cuts one drained round into chunks: grouped by (matrix id, prepared-
/// matrix identity) in arrival order, each group in greedy `{8,4,2,1}`
/// widths.
///
/// Grouping by the `Arc` pointer as well as the id keeps a batch on one
/// matrix *version*: if a publish landed mid-round, requests that
/// captured the old and the new version go into separate chunks instead
/// of sharing one SpMM call.
fn cut_round<T: SimdScalar>(drained: Vec<Pending<T>>, max_batch: usize) -> VecDeque<Chunk<T>> {
    let mut groups: Vec<Chunk<T>> = Vec::new();
    let mut index: Vec<(u64, *const PreparedMatrix<T>, usize)> = Vec::new();
    for p in drained {
        let key = (p.id.0, Arc::as_ptr(&p.prepared));
        match index.iter().find(|&&(id, ptr, _)| (id, ptr) == key) {
            Some(&(_, _, g)) => groups[g].push(p),
            None => {
                index.push((key.0, key.1, groups.len()));
                groups.push(vec![p]);
            }
        }
    }
    let mut chunks = VecDeque::new();
    for mut group in groups {
        while !group.is_empty() {
            let k = CHUNK_WIDTHS
                .iter()
                .copied()
                .find(|&k| k <= max_batch && k <= group.len())
                .expect("CHUNK_WIDTHS contains 1");
            chunks.push_back(group.drain(..k).collect());
        }
    }
    chunks
}

/// Runs one round's chunks on the dispatcher and its helpers and returns
/// once every chunk has completed. The dispatcher takes the first chunk
/// in the same critical section that queues the round, so a one-chunk
/// round never reaches a helper.
fn run_round<T: SimdScalar>(
    shared: &EngineShared<T>,
    helpers: &mut Helpers<T>,
    chunks: VecDeque<Chunk<T>>,
) {
    let extra = chunks.len().saturating_sub(1);
    helpers.ensure(extra);
    let mut round = shared.round.lock().unwrap_or_else(|e| e.into_inner());
    round.chunks = chunks;
    for _ in 0..extra {
        shared.round_ready.notify_one();
    }
    loop {
        if let Some(chunk) = round.chunks.pop_front() {
            drop(round);
            dispatch_chunk(shared, chunk);
            round = shared.round.lock().unwrap_or_else(|e| e.into_inner());
        } else if round.running == 0 {
            return;
        } else {
            round = shared
                .round_done
                .wait(round)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The dispatcher's helper threads. A helper starts the first time a
/// round has more chunks than threads to run them, there are never more
/// than the host's hardware threads minus the dispatcher's own, and
/// dropping the set joins them.
struct Helpers<T: SimdScalar> {
    shared: Arc<EngineShared<T>>,
    handles: Vec<JoinHandle<()>>,
    max: usize,
}

impl<T: SimdScalar> Helpers<T> {
    fn new(shared: Arc<EngineShared<T>>) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Helpers {
            shared,
            handles: Vec::new(),
            max: cpus - 1,
        }
    }

    /// Starts helpers until `want` of them (at most `max`) are running.
    fn ensure(&mut self, want: usize) {
        while self.handles.len() < want.min(self.max) {
            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("spmv-serve-help{}", self.handles.len()))
                .spawn(move || helper_loop(&shared));
            match spawned {
                Ok(h) => self.handles.push(h),
                // The dispatcher runs whatever no helper takes.
                Err(_) => self.max = self.handles.len(),
            }
        }
    }
}

impl<T: SimdScalar> Drop for Helpers<T> {
    fn drop(&mut self) {
        self.shared
            .round
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .exit = true;
        self.shared.round_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A helper: run chunks from the round queue until the dispatcher exits.
fn helper_loop<T: SimdScalar>(shared: &EngineShared<T>) {
    let mut round = shared.round.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(chunk) = round.chunks.pop_front() {
            round.running += 1;
            drop(round);
            {
                let _running = Running(shared);
                dispatch_chunk(shared, chunk);
            }
            round = shared.round.lock().unwrap_or_else(|e| e.into_inner());
        } else if round.exit {
            return;
        } else {
            round = shared
                .round_ready
                .wait(round)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A helper's claim on the chunk it runs. Dropping it releases the claim
/// even if the chunk unwinds, so the dispatcher never waits on a chunk
/// no thread is running.
struct Running<'a, T: SimdScalar>(&'a EngineShared<T>);

impl<T: SimdScalar> Drop for Running<'_, T> {
    fn drop(&mut self) {
        self.0
            .round
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .running -= 1;
        self.0.round_done.notify_all();
    }
}

/// Runs one chunk as a single `spmv`/`spmv_multi` call and completes its
/// requests. What a reply holds depends only on the chunk, never on the
/// thread that runs it.
fn dispatch_chunk<T: SimdScalar>(shared: &EngineShared<T>, mut chunk: Chunk<T>) {
    let k = chunk.len();
    let _batch_span = spmv_telemetry::span_with("serve.batch", k as u64);
    let prepared = Arc::clone(&chunk[0].prepared);
    let (m, n) = (prepared.n_cols(), prepared.n_rows());
    // A lone request runs on its own `x`; a wider chunk concatenates its
    // vectors column-major for the multi-vector call.
    let x_cat = (k > 1).then(|| {
        let mut x_cat = Vec::with_capacity(m * k);
        for p in &chunk {
            x_cat.extend_from_slice(&p.x);
        }
        x_cat
    });
    if spmv_telemetry::enabled() {
        let start = spmv_telemetry::now_ns();
        for p in &chunk {
            let wait = start.saturating_sub(p.submitted_ns);
            spmv_telemetry::complete("serve.wait", p.submitted_ns, wait, p.id.0);
        }
    }
    let t0 = Instant::now();
    let y = {
        let _dispatch_span = spmv_telemetry::span_with("serve.dispatch", k as u64);
        // Width-1 chunks take the single-vector path: it skips the
        // multi-kernel overhead, and its timing is directly comparable
        // to the `calibrate` baselines the residual tracker scores
        // dispatches against.
        catch_unwind(AssertUnwindSafe(|| match &x_cat {
            None => prepared.spmv(&chunk[0].x),
            Some(x_cat) => prepared.spmv_multi(x_cat, k),
        }))
    };
    let dispatch_secs = t0.elapsed().as_secs_f64();
    match y {
        Ok(y) => {
            if k == 1 {
                record_chunk_residual(shared, &chunk[0], dispatch_secs);
            }
            // Count the batch before waking any waiter (same ordering
            // rule as `Pending::complete`).
            {
                let mut s = shared
                    .accounting
                    .stats
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                s.batches += 1;
                s.by_width[k.trailing_zeros() as usize] += 1;
            }
            if k == 1 {
                chunk[0].complete(Ok(y));
            } else {
                for (t, p) in chunk.iter_mut().enumerate() {
                    p.complete(Ok(y[t * n..(t + 1) * n].to_vec()));
                }
            }
        }
        Err(_) => {
            for p in chunk.iter_mut() {
                p.complete(Err(ServeError::DispatchPanicked));
            }
        }
    }
}

/// Folds one successfully dispatched width-1 chunk into the residual
/// stream: its measured seconds (scaled by the injection seam) against
/// the matrix's registered expectation — but only when the request's
/// captured registry version still matches the expectation, so a
/// hot-swap never mixes the old format's timings into the new format's
/// population.
fn record_chunk_residual<T: SimdScalar>(
    shared: &EngineShared<T>,
    head: &Pending<T>,
    dispatch_secs: f64,
) {
    let exps = shared
        .expectations
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(e) = exps.get(&head.id.0) {
        if e.version == head.version {
            let measured = dispatch_secs * shared.scale();
            shared
                .residuals
                .record_for(head.id.0, &e.key, e.predicted, measured);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::{Coo, Csr, SpMv};
    use spmv_model::Config;
    use spmv_parallel::PinPolicy;

    fn fixture(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        let mut state = 0xBADC0DEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            for _ in 0..2 {
                let _ = coo.push(i, (next() as usize) % n, 1.0 + (next() % 3) as f64);
            }
        }
        Csr::from_coo(&coo)
    }

    fn setup(n: usize, opts: EngineOptions) -> (Csr<f64>, Arc<Registry<f64>>, ServeEngine<f64>) {
        let csr = fixture(n);
        let registry = Arc::new(Registry::new());
        registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &csr));
        let engine = ServeEngine::new(Arc::clone(&registry), opts);
        (csr, registry, engine)
    }

    #[test]
    fn single_request_roundtrip() {
        let (csr, _r, engine) = setup(17, EngineOptions::default());
        let x: Vec<f64> = (0..17).map(|i| 1.0 + i as f64).collect();
        assert_eq!(
            engine.submit_wait(MatrixId(1), x.clone()).unwrap(),
            csr.spmv(&x)
        );
        let rep = engine.report();
        assert_eq!(rep.completed, 1);
        assert!(rep.latency.unwrap().p50_ns > 0);
    }

    #[test]
    fn unknown_matrix_and_bad_length_reject_at_submit() {
        let (_csr, _r, engine) = setup(5, EngineOptions::default());
        assert_eq!(
            engine.submit(MatrixId(9), vec![1.0; 5]).unwrap_err(),
            ServeError::UnknownMatrix(MatrixId(9))
        );
        assert_eq!(
            engine.submit(MatrixId(1), vec![1.0; 4]).unwrap_err(),
            ServeError::BadLength {
                expected: 5,
                got: 4
            }
        );
        let rep = engine.report();
        assert_eq!(rep.submitted, 0);
    }

    #[test]
    fn greedy_chunking_covers_seven_requests_as_4_2_1() {
        let (csr, _r, engine) = setup(
            23,
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        let xs: Vec<Vec<f64>> = (0..7)
            .map(|t| (0..23).map(|i| (i + t) as f64).collect())
            .collect();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| engine.submit(MatrixId(1), x.clone()).unwrap())
            .collect();
        engine.resume();
        for (x, t) in xs.iter().zip(tickets) {
            assert_eq!(t.wait().unwrap(), csr.spmv(x));
        }
        let rep = engine.report();
        assert_eq!(rep.completed, 7);
        assert_eq!(rep.batches, 3);
        assert_eq!(rep.dispatches_by_k, [(1, 1), (2, 1), (4, 1), (8, 0)]);
        assert!((rep.mean_batch_width() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_panicking_chunk_fails_only_its_own_requests() {
        let healthy = fixture(19);
        let registry = Arc::new(Registry::new());
        registry.publish(
            MatrixId(1),
            PreparedMatrix::from_config(Config::CSR, &healthy),
        );
        // A pooled matrix whose pool is shut down panics on its next
        // product.
        let mut broken =
            PreparedMatrix::from_config_pooled(Config::CSR, &fixture(15), 2, PinPolicy::None);
        broken.shut_down_pool();
        registry.publish(MatrixId(2), broken);
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        // One round of five chunks: 4 + 2 + 1 healthy, 2 + 1 broken.
        let xs: Vec<Vec<f64>> = (0..7)
            .map(|t| (0..19).map(|i| (i * t) as f64 + 0.5).collect())
            .collect();
        let mut good = Vec::new();
        let mut bad = Vec::new();
        for (t, x) in xs.iter().enumerate() {
            good.push(engine.submit(MatrixId(1), x.clone()).unwrap());
            if t % 2 == 0 {
                bad.push(engine.submit(MatrixId(2), vec![1.0; 15]).unwrap());
            }
        }
        engine.resume();
        for t in bad {
            assert_eq!(t.wait().unwrap_err(), ServeError::DispatchPanicked);
        }
        for (x, t) in xs.iter().zip(good) {
            assert_eq!(t.wait().unwrap(), healthy.spmv(x));
        }
        assert_eq!(engine.fence(), 11);
        let x = vec![1.0; 19];
        assert_eq!(
            engine.submit_wait(MatrixId(1), x.clone()).unwrap(),
            healthy.spmv(&x)
        );
        let rep = engine.report();
        assert_eq!((rep.completed, rep.failed), (8, 4));
    }

    #[test]
    fn max_batch_one_disables_coalescing() {
        let (csr, _r, engine) = setup(
            11,
            EngineOptions {
                start_paused: true,
                max_batch: 1,
                ..EngineOptions::default()
            },
        );
        let x = vec![1.0; 11];
        let tickets: Vec<_> = (0..5)
            .map(|_| engine.submit(MatrixId(1), x.clone()).unwrap())
            .collect();
        engine.resume();
        for t in tickets {
            assert_eq!(t.wait().unwrap(), csr.spmv(&x));
        }
        let rep = engine.report();
        assert_eq!(rep.batches, 5);
        assert_eq!(rep.dispatches_by_k, [(1, 5), (2, 0), (4, 0), (8, 0)]);
    }

    #[test]
    fn saturated_queue_rejects_immediately() {
        let (_csr, _r, engine) = setup(
            9,
            EngineOptions {
                capacity: 3,
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        let x = vec![1.0; 9];
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(engine.submit(MatrixId(1), x.clone()).unwrap());
        }
        let t0 = Instant::now();
        assert_eq!(
            engine.submit(MatrixId(1), x.clone()).unwrap_err(),
            ServeError::Saturated { capacity: 3 }
        );
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "rejection must not block"
        );
        engine.resume();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert_eq!(engine.report().rejected, 1);
    }

    #[test]
    fn shutdown_drains_queued_requests_then_rejects() {
        let (csr, _r, mut engine) = setup(
            13,
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        let x = vec![2.0; 13];
        let tickets: Vec<_> = (0..4)
            .map(|_| engine.submit(MatrixId(1), x.clone()).unwrap())
            .collect();
        // Shutdown must drain even though the engine is paused.
        engine.shutdown();
        for t in tickets {
            assert_eq!(t.wait().unwrap(), csr.spmv(&x));
        }
        assert_eq!(
            engine.submit(MatrixId(1), x).unwrap_err(),
            ServeError::ShutDown
        );
    }

    #[test]
    fn try_take_is_nonblocking() {
        let (_csr, _r, engine) = setup(
            7,
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        let t = engine.submit(MatrixId(1), vec![1.0; 7]).unwrap();
        assert!(t.try_take().is_none());
        engine.resume();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(r) = t.try_take() {
                assert!(r.is_ok());
                break;
            }
            assert!(Instant::now() < deadline, "request never completed");
            std::thread::yield_now();
        }
    }

    #[test]
    fn percentile_ranks_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = percentiles(samples).unwrap();
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        assert_eq!(percentiles(Vec::new()), None);
        let one = percentiles(vec![7]).unwrap();
        assert_eq!((one.p50_ns, one.p99_ns, one.max_ns), (7, 7, 7));
    }

    #[test]
    fn latency_window_separates_completions_at_the_boundary() {
        let (csr, _r, engine) = setup(9, EngineOptions::default());
        let x = vec![1.0; 9];
        for _ in 0..4 {
            assert_eq!(
                engine.submit_wait(MatrixId(1), x.clone()).unwrap(),
                csr.spmv(&x)
            );
        }
        let before = engine.report();
        // No window begun: the window is the whole run.
        assert_eq!(before.window_latency, before.latency);
        assert_eq!(before.window_latency.unwrap().count, 4);

        engine.begin_latency_window();
        // Boundary: a fresh window with zero completions summarizes
        // nothing, while the whole-run summary is untouched.
        let empty = engine.report();
        assert_eq!(empty.window_latency, None);
        assert_eq!(empty.latency.unwrap().count, 4);

        for _ in 0..3 {
            engine.submit_wait(MatrixId(1), x.clone()).unwrap();
        }
        let after = engine.report();
        assert_eq!(after.latency.unwrap().count, 7);
        assert_eq!(after.window_latency.unwrap().count, 3);
        // Nearest-rank over the window alone: p50 of 3 samples is the
        // 2nd smallest, p99/max the largest — all drawn from the window.
        let w = after.window_latency.unwrap();
        assert!(w.p50_ns <= w.p95_ns && w.p95_ns <= w.p99_ns && w.p99_ns <= w.max_ns);

        // Re-beginning moves the boundary again.
        engine.begin_latency_window();
        assert_eq!(engine.report().window_latency, None);
    }

    #[test]
    fn latency_record_keeps_the_most_recent_samples() {
        let (_csr, _r, engine) = setup(5, EngineOptions::default());
        // Fill the record to five short of the cap with 1 ns samples,
        // begin a window, then record ten 7 ns samples: the five oldest
        // drop, and the window still holds exactly its own ten.
        {
            let mut s = engine.stats_lock();
            for _ in 0..LATENCY_SAMPLES - 5 {
                s.record_latency(1);
            }
        }
        engine.begin_latency_window();
        {
            let mut s = engine.stats_lock();
            for _ in 0..10 {
                s.record_latency(7);
            }
        }
        let report = engine.report();
        let all = report.latency.unwrap();
        assert_eq!(all.count, LATENCY_SAMPLES as u64);
        assert_eq!((all.p50_ns, all.max_ns), (1, 7));
        let window = report.window_latency.unwrap();
        assert_eq!(window.count, 10);
        assert_eq!((window.p50_ns, window.max_ns), (7, 7));
    }

    #[test]
    fn fence_returns_after_all_accepted_requests_complete() {
        let (csr, _r, engine) = setup(
            11,
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        let x = vec![1.0; 11];
        // Nothing accepted yet: the fence is a no-op.
        assert_eq!(engine.fence(), 0);
        let tickets: Vec<_> = (0..5)
            .map(|_| engine.submit(MatrixId(1), x.clone()).unwrap())
            .collect();
        engine.resume();
        assert_eq!(engine.fence(), 5);
        // After the fence every ticket must already hold its result.
        for t in tickets {
            let r = t.try_take().expect("fence guarantees completion");
            assert_eq!(r.unwrap(), csr.spmv(&x));
        }
    }

    #[test]
    fn residuals_record_only_matching_versions_and_honor_the_scale() {
        let (csr, registry, engine) = setup(13, EngineOptions::default());
        let key = crate::residual_key_for(Config::CSR, spmv_model::Model::Overlap);
        let v1 = registry.version_of(MatrixId(1)).unwrap();
        engine.expect(MatrixId(1), v1, key.clone(), 1e-6);
        let x = vec![1.0; 13];
        engine.submit_wait(MatrixId(1), x.clone()).unwrap();
        let s1 = engine.residuals().stats(&key).expect("recorded");
        assert_eq!(s1.n, 1);
        let events = engine.residuals().drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].matrix, 1);
        assert_eq!(events[0].predicted, 1e-6);
        assert!(events[0].measured > 0.0);

        // A republish bumps the version; the old expectation must stop
        // recording until re-registered.
        let v2 = registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &csr));
        assert!(v2 > v1);
        engine.submit_wait(MatrixId(1), x.clone()).unwrap();
        assert_eq!(
            engine.residuals().stats(&key).unwrap().n,
            1,
            "stale version not recorded"
        );

        // Re-arm for v2 with an injected 4x slowdown: the recorded
        // measurement scales, the reply does not.
        engine.set_residual_scale(4.0);
        assert_eq!(engine.residual_scale(), 4.0);
        engine.expect(MatrixId(1), v2, key.clone(), 1e-6);
        let y = engine.submit_wait(MatrixId(1), x.clone()).unwrap();
        assert_eq!(y, csr.spmv(&x));
        let ev = engine.residuals().drain_events();
        assert_eq!(ev.len(), 1);
        // Calibration sees the same scaled clock as dispatch recording.
        let cal = engine.calibrate(MatrixId(1), &x, 3).unwrap();
        assert!(cal > 0.0);

        // Bad scales are ignored.
        engine.set_residual_scale(f64::NAN);
        assert_eq!(engine.residual_scale(), 4.0);
    }

    #[test]
    fn only_width_one_chunks_record_residuals() {
        let (csr, registry, engine) = setup(
            15,
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        let key = crate::residual_key_for(Config::CSR, spmv_model::Model::Overlap);
        let v = registry.version_of(MatrixId(1)).unwrap();
        engine.expect(MatrixId(1), v, key.clone(), 1e-6);
        let x = vec![1.0; 15];
        // Four requests queued while paused dispatch as one k = 4 chunk:
        // replies arrive, but the coalesced timing is not scored.
        let tickets: Vec<_> = (0..4)
            .map(|_| engine.submit(MatrixId(1), x.clone()).unwrap())
            .collect();
        engine.resume();
        assert_eq!(engine.fence(), 4);
        for t in tickets {
            assert_eq!(t.try_take().unwrap().unwrap(), csr.spmv(&x));
        }
        let report = engine.report();
        assert_eq!(report.batches, 1);
        assert_eq!(report.dispatches_by_k[2], (4, 1), "one k = 4 chunk");
        assert!(engine.residuals().drain_events().is_empty());
        assert!(engine.residuals().stats(&key).is_none());
        // A lone request is a width-1 chunk and records one event.
        engine.submit_wait(MatrixId(1), x).unwrap();
        assert_eq!(engine.residuals().drain_events().len(), 1);
        assert_eq!(engine.residuals().stats(&key).unwrap().n, 1);
    }
}
