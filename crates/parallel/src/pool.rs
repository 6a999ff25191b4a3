//! A persistent, optionally core-pinned worker pool for repeated SpMV.
//!
//! Spawning threads per call would pay a spawn + join (tens of
//! microseconds) on every multiply, which dominates exactly the
//! small/medium matrices where the paper's models are most
//! discriminating, and an iterative solver calling SpMV thousands of
//! times cannot afford it. [`SpmvPool`] spawns its workers **once**:
//!
//! * each worker is optionally pinned to a core ([`crate::affinity`])
//!   and then converts and owns its row strip (padding-aware weights
//!   from [`crate::partition`]);
//! * every [`SpMv::spmv_into`] call is one *epoch*: the driver publishes
//!   the input vector, bumps an atomic epoch counter, and the workers —
//!   spinning briefly, then parked — wake, multiply their strip into a
//!   disjoint slice of a shared output buffer, and report completion.
//!
//! When `spmv-telemetry` recording is enabled, every epoch emits a
//! `pool.epoch` span (driver side, arg = vector count) and one
//! `pool.strip` span per worker (arg = strip index, recorded in that
//! worker's ring). The strip spans are the pool's only per-strip timer:
//! their per-strip medians give the *measured* imbalance
//! (`spmv_model::multicore::imbalance_factor`), and their ring `tid`s
//! show which thread served each strip. With recording off (the
//! default) the cost is one relaxed atomic load per epoch per thread.
//!
//! # Example
//!
//! ```
//! use spmv_core::{Coo, Csr, SpMv};
//! use spmv_parallel::{csr_unit_weights, PinPolicy, SpmvPool};
//!
//! let csr = Csr::from_coo(&Coo::from_triplets(4, 4, vec![
//!     (0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (3, 3, 4.0),
//! ]).unwrap());
//! let pool = SpmvPool::from_csr(
//!     &csr, 2, &csr_unit_weights(&csr), 1, Csr::clone, PinPolicy::None,
//! );
//! spmv_telemetry::set_enabled(true);
//! for _ in 0..10 {
//!     assert_eq!(pool.spmv(&[1.0; 4]), csr.spmv(&[1.0; 4]));
//! }
//! spmv_telemetry::set_enabled(false);
//! assert_eq!(pool.iterations(), 10);
//! // One `pool.strip` span per worker per call, arg = strip index.
//! let strips = spmv_telemetry::snapshot()
//!     .events
//!     .into_iter()
//!     .filter(|e| e.name == "pool.strip");
//! assert_eq!(strips.count(), 10 * pool.n_workers());
//! ```

use core::ops::Range;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

use crate::affinity::PinPolicy;
use crate::partition::{remove_row, split_segments, strip_plan};
use spmv_core::{Csr, MatrixShape, Scalar, SpMv, SpMvMulti};

/// Epoch value ordering workers to exit. Driver epochs count up from 1,
/// so this sentinel is unreachable in any realistic run.
const SHUTDOWN: u64 = u64::MAX;

/// Spin iterations before a waiting worker parks (spin-then-park): long
/// enough that back-to-back solver iterations never pay a park/unpark,
/// short enough that an idle pool costs no measurable CPU. Used only
/// when every worker (plus the driver) can own a hardware thread;
/// oversubscribed pools skip spinning entirely — burning the one shared
/// core in a spin loop would starve the very workers being waited on.
const WORKER_SPINS: u32 = 1 << 14;

/// Sched-yield rounds between the spin phase and the first park.
const WORKER_YIELDS: u32 = 32;

/// How long a parked worker sleeps before re-checking the epoch; parked
/// workers are also explicitly unparked at every epoch, so this only
/// bounds the recovery time from a lost wakeup.
const PARK_INTERVAL: Duration = Duration::from_micros(200);

/// Spin iterations before the driver starts yielding while waiting for
/// strips to finish (again only when hardware threads are plentiful).
const DRIVER_SPINS: u32 = 1 << 14;

/// Maximum vectors per multi-vector epoch. Larger `k` is chunked into
/// epochs of this size, bounding the standing multi-output slab at
/// `n_rows * POOL_EPOCH_K` elements and matching the specialized kernel
/// counts downstream.
const POOL_EPOCH_K: usize = 8;

/// The input-vector slot: a raw pointer + length published by the driver
/// before each epoch and read by every worker during it.
///
/// Safety protocol: the driver writes the slot only while the pool is
/// *quiescent* (all workers' `done` counters equal the current epoch),
/// and workers read it only between the driver's `Release` store of the
/// new epoch and their own `Release` store of `done` — so writes and
/// reads are never concurrent, and the pointed-to slice outlives the
/// epoch because the driver blocks until every worker reports done.
struct XSlot<T> {
    slot: UnsafeCell<(*const T, usize, usize)>,
}

// SAFETY: access is serialized by the epoch protocol described above;
// `T: Sync` lets many workers read the published slice concurrently.
unsafe impl<T: Sync> Sync for XSlot<T> {}
// SAFETY: the raw pointer is only a capability to read a `&[T]` that the
// driver re-publishes each epoch; sending the slot between threads is
// harmless for `T: Send + Sync`.
unsafe impl<T: Send> Send for XSlot<T> {}

impl<T> XSlot<T> {
    fn new() -> Self {
        XSlot {
            slot: UnsafeCell::new((core::ptr::null(), 0, 1)),
        }
    }

    /// Publishes `x` (holding `k` concatenated input vectors) for the
    /// coming epoch.
    ///
    /// # Safety
    ///
    /// Caller must hold the driver lock with the pool quiescent.
    unsafe fn set(&self, x: &[T], k: usize) {
        *self.slot.get() = (x.as_ptr(), x.len(), k);
    }

    /// The slice and vector count published for the current epoch.
    ///
    /// # Safety
    ///
    /// May only be called by a worker inside an epoch (after observing
    /// the epoch store that happened-after [`XSlot::set`]).
    unsafe fn get<'a>(&self) -> (&'a [T], usize) {
        let (ptr, len, k) = *self.slot.get();
        if len == 0 {
            (&[], k)
        } else {
            (core::slice::from_raw_parts(ptr, len), k)
        }
    }
}

/// The shared output buffer: one `UnsafeCell` per element so disjoint
/// row ranges can be written concurrently without aliasing a single
/// `&mut` over the whole buffer.
///
/// The safe wrapper enforces disjointness structurally: strip row ranges
/// are validated non-overlapping at pool construction, and each worker
/// only ever derives a mutable slice over its own range.
struct SharedOutput<T> {
    buf: Box<[UnsafeCell<T>]>,
}

// SAFETY: concurrent mutation is confined to disjoint element ranges by
// the pool's strip validation; `T: Send` suffices because no element is
// ever accessed from two threads at once.
unsafe impl<T: Send> Sync for SharedOutput<T> {}

impl<T: Scalar> SharedOutput<T> {
    /// A zeroed buffer whose pages are **untouched**: `alloc_zeroed`
    /// hands back copy-on-write zero pages, so each page's physical
    /// placement is decided by its *first writer* — the strip's worker —
    /// which is the first-touch protocol `docs/NUMA.md` describes.
    /// (A `vec![ZERO; n]`-style init here would place every output page
    /// on the driver's node.)
    fn zeroed(n: usize) -> Self {
        if n == 0 {
            return SharedOutput {
                buf: Vec::new().into_boxed_slice(),
            };
        }
        // `Scalar` is implemented for f32/f64 only, whose additive
        // identity is the all-zero bit pattern; assert it so a future
        // exotic Scalar impl fails loudly instead of reading garbage.
        let zero = T::ZERO;
        // SAFETY: reading the bytes of a live `T` value.
        let zero_bytes = unsafe {
            core::slice::from_raw_parts(&zero as *const T as *const u8, core::mem::size_of::<T>())
        };
        assert!(
            zero_bytes.iter().all(|&b| b == 0),
            "SharedOutput requires T::ZERO to be the all-zero bit pattern"
        );
        let layout = std::alloc::Layout::array::<UnsafeCell<T>>(n).expect("output buffer layout");
        // SAFETY: `layout` is non-zero-sized (n > 0, T is f32/f64); the
        // zeroed bytes are a valid `[UnsafeCell<T>]` per the assert
        // above, and `Box::from_raw` pairs with this exact array layout.
        unsafe {
            let ptr = std::alloc::alloc_zeroed(layout) as *mut UnsafeCell<T>;
            if ptr.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            SharedOutput {
                buf: Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n)),
            }
        }
    }

    /// Mutable view of `rows`, for exactly one worker per epoch.
    ///
    /// # Safety
    ///
    /// `rows` must not overlap any range concurrently handed to another
    /// thread (guaranteed by strip validation), and the caller must be
    /// inside an epoch for that range.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, rows: Range<usize>) -> &mut [T] {
        let cells = &self.buf[rows];
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`; the cells
        // are contiguous, and the caller guarantees exclusive access.
        core::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), cells.len())
    }

    /// Read-only view of the whole buffer.
    ///
    /// # Safety
    ///
    /// Caller must hold the driver lock with the pool quiescent.
    unsafe fn as_slice(&self) -> &[T] {
        // SAFETY: quiescence means no worker holds a `&mut` into the
        // buffer; layout identity as in `slice_mut`.
        core::slice::from_raw_parts(UnsafeCell::raw_get(self.buf.as_ptr()), self.buf.len())
    }
}

/// What one strip's worker reported when it started (per-strip time
/// is the `pool.strip` span, see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct StripReport {
    /// The rows this strip covers.
    pub rows: Range<usize>,
    /// Whether the worker's pin attempt succeeded: `None` when the
    /// policy asked for no core, `Some(false)` when `sched_setaffinity`
    /// rejected the mask — the pool keeps running unpinned, but
    /// placement-sensitive callers (e.g. a NUMA sweep) can see the
    /// degradation here.
    pub pinned: Option<bool>,
}

/// One worker's completed-epoch counter, cache-line padded so the
/// counters never false-share.
#[repr(align(64))]
struct WorkerState {
    done: AtomicU64,
}

/// Driver-side state of an active heavy-row nnz split (see
/// [`SpmvPool::from_csr`]): the sheared row, its nonzero count, and the
/// products scratch the workers fill.
///
/// Bitwise-reproducibility protocol: workers write only the elementwise
/// **products** `val[p] * x[col[p]]` of their disjoint segment into
/// `scratch` (never partial sums), and the driver — still holding the
/// epoch guard, so the pool is quiescent — folds the products in
/// nonzero order with the same `product + acc` addition the serial CSR
/// kernel uses. Identical multiplications in identical positions plus an
/// identical left-fold addition order reproduce the serial rounding
/// exactly, which floating-point re-association could not.
struct SplitShared<T> {
    row: usize,
    nnz: usize,
    /// `nnz * POOL_EPOCH_K` product slots, vector-major: epoch vector
    /// `t` owns `[t * nnz, (t + 1) * nnz)`.
    scratch: SharedOutput<T>,
}

/// One worker's share of a sheared heavy row: the column indices and
/// values of its contiguous nonzero segment, plus where that segment's
/// products land in [`SplitShared::scratch`].
struct SplitSeg<T> {
    cols: Vec<usize>,
    vals: Vec<T>,
    offset: usize,
}

/// State shared between the driver and all workers.
struct PoolShared<T> {
    epoch: AtomicU64,
    poisoned: AtomicBool,
    /// Spin iterations granted to waiting threads: [`WORKER_SPINS`] /
    /// [`DRIVER_SPINS`] when workers + driver fit the hardware threads,
    /// 0 when oversubscribed (yield straight away so runnable workers
    /// get the core).
    spin_budget: u32,
    x: XSlot<T>,
    y: SharedOutput<T>,
    /// Output slab for multi-vector epochs: each strip owns the region
    /// `[rows.start * POOL_EPOCH_K, rows.end * POOL_EPOCH_K)` and lays its
    /// `k ≤ POOL_EPOCH_K` output columns out contiguously at its base —
    /// disjointness follows from strip disjointness, as for `y`.
    y_multi: SharedOutput<T>,
    /// Active heavy-row nnz split, if the partition sheared one.
    split: Option<SplitShared<T>>,
    workers: Vec<WorkerState>,
}

/// Driver-side epoch counter, behind a mutex so concurrent `spmv_into`
/// calls on a shared pool serialize instead of racing on the x slot.
struct DriverState {
    epoch: u64,
}

/// A persistent worker pool executing row-partitioned SpMV.
///
/// Workers are spawned once at construction (optionally pinned per
/// [`PinPolicy`]), each converting and owning one row strip in the
/// format under test;
/// every [`SpMv::spmv_into`] call drives one epoch through a lightweight
/// spin-then-park barrier. See the [module docs](self) for the protocol
/// and a usage example.
///
/// The pool is format-erased: the strip format `F` is a construction
/// parameter only, so heterogeneous pools can share one code path in
/// harnesses. Dropping the pool shuts the workers down and joins them.
///
/// # Ownership and shutdown contract
///
/// Every epoch borrows the caller's `x` for its whole duration, so the
/// pool must never outlive a call's inputs — which the borrow checker
/// already enforces — and, conversely, a *shut-down* pool must never
/// start an epoch: its workers are gone and the driver would spin
/// forever on `done` counters nobody bumps. [`SpmvPool::shutdown`] makes
/// that state explicit and checkable:
///
/// * `shutdown()` is idempotent; `Drop` runs the same path, so a pool
///   owned by a long-lived structure (e.g. a serving registry holding it
///   inside an `Arc`) is torn down correctly when the last handle drops,
///   from whichever thread that happens on.
/// * Any `spmv`/`spmv_multi` call after `shutdown()` panics immediately
///   with "used after shutdown" instead of hanging.
///
/// See `docs/PARALLEL.md` ("Pool ownership and shutdown") for the
/// registry-side picture.
pub struct SpmvPool<T: Scalar> {
    shared: Arc<PoolShared<T>>,
    driver: Mutex<DriverState>,
    worker_threads: Vec<Thread>,
    handles: Vec<JoinHandle<()>>,
    strip_rows: Vec<Range<usize>>,
    /// Each strip's pin outcome, as its worker reported it at startup.
    pinned: Vec<Option<bool>>,
    n_rows: usize,
    n_cols: usize,
    nnz_stored: usize,
    matrix_bytes: usize,
    pin_oversubscribed: bool,
}

impl<T: Scalar> SpmvPool<T> {
    /// Partitions `csr` into `n_threads` strips balanced by `unit_weights`
    /// (one weight per unit of `unit_height` rows — padding-aware weights
    /// come from [`crate::partition`]) and hosts them on a pool, one
    /// worker per strip.
    ///
    /// * `unit_height` keeps strip boundaries aligned to block rows or
    ///   segments, so blocked strips never split a block. Empty strips
    ///   are dropped, so `n_workers() ≤ n_threads` and every worker owns
    ///   rows.
    /// * Each worker pins itself under `pin` and then converts **its own**
    ///   strip with `build`, so the strips convert concurrently and each
    ///   strip's pages — and, via untouched zero pages, its output slots —
    ///   are first-touched on the worker's memory domain.
    /// * With single-row units (`unit_height == 1`), a row heavier than
    ///   the ideal per-worker share is sheared across all workers and
    ///   merged after each epoch in a bitwise-reproducible order, so the
    ///   result is exactly the serial CSR result (see `docs/NUMA.md`).
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is zero, if `unit_weights` does not hold one
    /// weight per unit, or if a strip's `build` panics or returns a shape
    /// that disagrees with its rows.
    pub fn from_csr<F>(
        csr: &Csr<T>,
        n_threads: usize,
        unit_weights: &[u64],
        unit_height: usize,
        build: impl Fn(&Csr<T>) -> F + Send + Sync + 'static,
        pin: PinPolicy,
    ) -> Self
    where
        F: SpMvMulti<T> + Send + 'static,
    {
        assert!(n_threads > 0, "at least one thread required");
        let (n_rows, n_cols) = (csr.n_rows(), csr.n_cols());
        assert_eq!(
            unit_weights.len(),
            n_rows.div_ceil(unit_height),
            "one weight per unit expected"
        );
        let (strip_rows, split_row) = strip_plan(unit_weights, unit_height, n_rows, n_threads);
        // With a sheared row, the strips are built from the matrix with
        // that row emptied.
        let rest = split_row.map(|row| remove_row(csr, row));
        let source = rest.as_ref().unwrap_or(csr);
        let mut prev_end = 0usize;
        for rows in &strip_rows {
            assert!(
                rows.start >= prev_end,
                "strips overlap or are unsorted at {rows:?}"
            );
            assert!(rows.end <= n_rows, "strip {rows:?} exceeds {n_rows} rows");
            prev_end = rows.end;
        }
        let n_strips = strip_rows.len();

        let pin_oversubscribed = pin.oversubscribed(n_strips);
        if pin_oversubscribed {
            spmv_telemetry::counter("pool.pin_oversubscribed", 1);
        }

        // Heavy-row split: one contiguous product segment per worker.
        let mut segs: Vec<Option<SplitSeg<T>>> = (0..n_strips).map(|_| None).collect();
        let (mut nnz_stored, mut matrix_bytes) = (0usize, 0usize);
        let split = split_row.map(|row| {
            let (cols, vals) = csr.row(row);
            let nnz = cols.len();
            nnz_stored += nnz;
            matrix_bytes += nnz * (core::mem::size_of::<usize>() + T::BYTES);
            for (seg, r) in segs.iter_mut().zip(split_segments(nnz, n_strips)) {
                if !r.is_empty() {
                    *seg = Some(SplitSeg {
                        cols: cols[r.clone()].iter().map(|&c| c as usize).collect(),
                        vals: vals[r.clone()].to_vec(),
                        offset: r.start,
                    });
                }
            }
            SplitShared {
                row,
                nnz,
                scratch: SharedOutput::zeroed(nnz * POOL_EPOCH_K),
            }
        });

        // Workers + the driving thread all need their own hardware
        // thread for busy-waiting to be profitable.
        let oversubscribed = n_strips + 1 > crate::affinity::available_cores();
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            spin_budget: if oversubscribed { 0 } else { WORKER_SPINS },
            x: XSlot::new(),
            y: SharedOutput::zeroed(n_rows),
            y_multi: SharedOutput::zeroed(n_rows * POOL_EPOCH_K),
            split,
            workers: (0..n_strips)
                .map(|_| WorkerState {
                    done: AtomicU64::new(0),
                })
                .collect(),
        });

        let build = Arc::new(build);
        let (stats_tx, stats_rx) = std::sync::mpsc::channel();
        let mut handles = Vec::with_capacity(n_strips);
        let mut worker_threads = Vec::with_capacity(n_strips);
        for (idx, (rows, seg)) in strip_rows.iter().cloned().zip(segs).enumerate() {
            let shared = Arc::clone(&shared);
            let core = pin.core_for(idx);
            let sub = source.row_slice(rows.clone());
            let build = Arc::clone(&build);
            let build_strip = move || {
                let m = build(&sub);
                assert_eq!(
                    m.n_rows(),
                    sub.n_rows(),
                    "strip shape disagrees with its range"
                );
                assert_eq!(m.n_cols(), sub.n_cols(), "strip column count disagrees");
                m
            };
            let stats = stats_tx.clone();
            let handle = thread::Builder::new()
                .name(format!("spmv-pool-{idx}"))
                .spawn(move || worker_loop(shared, idx, rows, core, build_strip, seg, stats))
                .expect("spawn pool worker");
            worker_threads.push(handle.thread().clone());
            handles.push(handle);
        }
        drop(stats_tx);

        // Block until every strip is built (also the moment any build
        // failure surfaces — tear the pool down and propagate).
        let mut failures: Vec<String> = Vec::new();
        let mut pinned = vec![None; n_strips];
        for _ in 0..n_strips {
            match stats_rx.recv() {
                Ok(Ok((idx, pin, nnz, bytes))) => {
                    pinned[idx] = pin;
                    nnz_stored += nnz;
                    matrix_bytes += bytes;
                }
                Ok(Err(msg)) => failures.push(msg),
                Err(_) => failures.push("pool worker exited during strip construction".into()),
            }
        }
        if !failures.is_empty() {
            shared.epoch.store(SHUTDOWN, Ordering::Release);
            for t in &worker_threads {
                t.unpark();
            }
            for h in handles {
                let _ = h.join();
            }
            panic!("pool strip construction failed: {}", failures.join("; "));
        }

        SpmvPool {
            shared,
            driver: Mutex::new(DriverState { epoch: 0 }),
            worker_threads,
            handles,
            strip_rows,
            pinned,
            n_rows,
            n_cols,
            nnz_stored,
            matrix_bytes,
            pin_oversubscribed,
        }
    }

    /// Number of live workers (= non-empty strips, ≤ requested threads).
    pub fn n_workers(&self) -> usize {
        self.strip_rows.len()
    }

    /// Whether the pin policy would land two workers on one core (also
    /// emitted as the `pool.pin_oversubscribed` telemetry counter at
    /// construction). See [`PinPolicy::oversubscribed`].
    pub fn pin_oversubscribed(&self) -> bool {
        self.pin_oversubscribed
    }

    /// The row sheared across workers by the nnz-split fallback, if one
    /// row was heavier than the ideal per-worker share.
    pub fn split_row(&self) -> Option<usize> {
        self.shared.split.as_ref().map(|s| s.row)
    }

    /// The row ranges assigned to each worker.
    pub fn strip_rows(&self) -> Vec<Range<usize>> {
        self.strip_rows.clone()
    }

    /// Epochs (SpMV calls) completed by the pool so far.
    pub fn iterations(&self) -> u64 {
        self.driver.lock().unwrap_or_else(|e| e.into_inner()).epoch
    }

    /// Each strip's rows and pin outcome (see [`StripReport`]).
    pub fn strip_reports(&self) -> Vec<StripReport> {
        self.strip_rows
            .iter()
            .zip(&self.pinned)
            .map(|(rows, &pinned)| StripReport {
                rows: rows.clone(),
                pinned,
            })
            .collect()
    }

    /// Shuts the workers down and joins them. Idempotent: the first call
    /// tears the pool down, later calls (and `Drop`, which runs the same
    /// path) are no-ops.
    ///
    /// After shutdown the pool still answers metadata queries
    /// ([`SpmvPool::strip_reports`], [`SpmvPool::iterations`], ...), but
    /// any further [`SpMv::spmv_into`] / [`SpMvMulti::spmv_multi_into`]
    /// call panics rather than waiting on workers that no longer exist.
    ///
    /// Requires `&mut self` (exclusive ownership): a pool shared behind
    /// an `Arc` is instead shut down by dropping the last handle.
    pub fn shutdown(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shared.epoch.store(SHUTDOWN, Ordering::Release);
        for t in &self.worker_threads {
            t.unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Whether [`SpmvPool::shutdown`] has already run (a pool built with
    /// zero strips counts as shut down — it never had workers).
    pub fn is_shut_down(&self) -> bool {
        self.handles.is_empty()
    }

    /// Runs one epoch: publish `x` (holding `k` input vectors), wake the
    /// workers, wait for all strips, and return the guard that keeps the
    /// pool quiescent while the caller copies the output out.
    fn run_epoch(&self, x: &[T], k: usize) -> MutexGuard<'_, DriverState> {
        assert!(
            !self.handles.is_empty(),
            "SpmvPool used after shutdown(): no workers are left to serve the epoch"
        );
        // Covers publish → every strip done (not the caller's copy-out).
        let _epoch_span = spmv_telemetry::span_with("pool.epoch", k as u64);
        let mut st = self.driver.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the driver lock is held and every worker's `done`
        // equals `st.epoch`, so no worker is reading the slot.
        unsafe { self.shared.x.set(x, k) };
        st.epoch += 1;
        self.shared.epoch.store(st.epoch, Ordering::Release);
        for t in &self.worker_threads {
            t.unpark();
        }
        let spin_budget = if self.shared.spin_budget == 0 {
            0
        } else {
            DRIVER_SPINS
        };
        for w in &self.shared.workers {
            let mut spins = 0u32;
            while w.done.load(Ordering::Acquire) < st.epoch {
                spins = spins.saturating_add(1);
                if spins < spin_budget {
                    core::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
        assert!(
            !self.shared.poisoned.load(Ordering::Acquire),
            "a pool worker panicked during SpMV"
        );
        st
    }

    /// Folds the heavy-row product scratch into one sum per epoch
    /// vector, in nonzero order — the deterministic merge reduction.
    ///
    /// The products were computed by the workers with the same multiply
    /// the serial CSR kernel uses, and this fold adds them in the same
    /// order with the same `product + acc` operand shape, so the merged
    /// value is bitwise-equal to the serial row result. Must be called
    /// while the guard returned by [`SpmvPool::run_epoch`] is alive (the
    /// scratch read requires quiescence).
    fn merge_split(&self, k: usize) -> Option<(usize, Vec<T>)> {
        let sp = self.shared.split.as_ref()?;
        // SAFETY: the caller holds the epoch guard, so no worker is
        // writing the scratch.
        let scratch = unsafe { sp.scratch.as_slice() };
        let sums = (0..k)
            .map(|t| {
                let mut acc = T::ZERO;
                for &p in &scratch[t * sp.nnz..(t + 1) * sp.nnz] {
                    acc = p + acc;
                }
                acc
            })
            .collect();
        Some((sp.row, sums))
    }
}

impl<T: Scalar> MatrixShape for SpmvPool<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: Scalar> SpMv<T> for SpmvPool<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        if self.n_rows == 0 {
            return;
        }
        let guard = self.run_epoch(x, 1);
        let merged = self.merge_split(1);
        // SAFETY: `guard` keeps the pool quiescent; the strips cover
        // every row, so a straight copy is complete.
        y.copy_from_slice(unsafe { self.shared.y.as_slice() });
        drop(guard);
        // The sheared row is empty in every strip; its merged sum wins.
        if let Some((row, sums)) = merged {
            y[row] = sums[0];
        }
    }

    fn nnz_stored(&self) -> usize {
        self.nnz_stored
    }

    fn matrix_bytes(&self) -> usize {
        self.matrix_bytes
    }
}

impl<T: Scalar> SpMvMulti<T> for SpmvPool<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        if self.n_rows == 0 {
            return;
        }
        let (m, n) = (self.n_cols, self.n_rows);
        let mut t0 = 0;
        while t0 < k {
            let kc = (k - t0).min(POOL_EPOCH_K);
            let guard = self.run_epoch(&x[t0 * m..(t0 + kc) * m], kc);
            let merged = self.merge_split(kc);
            // SAFETY (both arms): `guard` keeps the pool quiescent while
            // the epoch's output is copied out.
            if kc == 1 {
                let src = unsafe { self.shared.y.as_slice() };
                y[t0 * n..(t0 + 1) * n].copy_from_slice(src);
            } else {
                let slab = unsafe { self.shared.y_multi.as_slice() };
                for rows in &self.strip_rows {
                    let h = rows.len();
                    let base = rows.start * POOL_EPOCH_K;
                    for t in 0..kc {
                        y[(t0 + t) * n + rows.start..(t0 + t) * n + rows.end]
                            .copy_from_slice(&slab[base + t * h..base + (t + 1) * h]);
                    }
                }
            }
            drop(guard);
            if let Some((row, sums)) = merged {
                for (t, s) in sums.into_iter().enumerate() {
                    y[(t0 + t) * n + row] = s;
                }
            }
            t0 += kc;
        }
    }
}

impl<T: Scalar> core::fmt::Debug for SpmvPool<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SpmvPool")
            .field("n_rows", &self.n_rows)
            .field("n_cols", &self.n_cols)
            .field("strip_rows", &self.strip_rows)
            .field("iterations", &self.iterations())
            .finish()
    }
}

impl<T: Scalar> Drop for SpmvPool<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What a worker reports once its strip is built: strip index, pin
/// outcome, stored nonzeros and matrix bytes — or why the build failed.
type StripBuilt = Result<(usize, Option<bool>, usize, usize), String>;

/// The body of one pool worker: pin, convert the strip (so its pages are
/// first-touched on this worker's memory domain), report the strip's
/// stats, then serve epochs until shutdown.
fn worker_loop<T: Scalar, F: SpMvMulti<T>>(
    shared: Arc<PoolShared<T>>,
    idx: usize,
    rows: Range<usize>,
    core: Option<usize>,
    build: impl FnOnce() -> F,
    split_seg: Option<SplitSeg<T>>,
    stats: std::sync::mpsc::Sender<StripBuilt>,
) {
    // Best-effort: a rejected mask (e.g. restricted cpuset) leaves the
    // worker unpinned but fully functional; the outcome is reported so
    // placement-sensitive callers can detect the degradation.
    let pin_result = core.map(crate::affinity::pin_current_thread);
    let me = &shared.workers[idx];

    let mat = match catch_unwind(AssertUnwindSafe(build)) {
        Ok(m) => {
            let _ = stats.send(Ok((idx, pin_result, m.nnz_stored(), m.matrix_bytes())));
            m
        }
        Err(_) => {
            shared.poisoned.store(true, Ordering::Release);
            let _ = stats.send(Err(format!("strip {idx} build panicked")));
            return;
        }
    };
    drop(stats);

    let mut done = 0u64;
    loop {
        let target = done + 1;
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e == SHUTDOWN {
                return;
            }
            if e >= target {
                break;
            }
            spins = spins.saturating_add(1);
            if spins < shared.spin_budget {
                core::hint::spin_loop();
            } else if spins < shared.spin_budget + WORKER_YIELDS {
                thread::yield_now();
            } else {
                thread::park_timeout(PARK_INTERVAL);
            }
        }

        // Armed only if recording is on as the strip starts; disarmed,
        // the span reads no clock.
        let strip_span = spmv_telemetry::span_with("pool.strip", idx as u64);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: we are inside epoch `target`: the driver published
            // `x` before the epoch store we just observed, blocks until
            // our `done` store below, and `rows` (resp. this strip's
            // region of the multi slab) is this worker's exclusive,
            // validated-disjoint output range.
            let (x, k) = unsafe { shared.x.get() };
            if k <= 1 {
                let y = unsafe { shared.y.slice_mut(rows.clone()) };
                mat.spmv_into(x, y);
            } else {
                let base = rows.start * POOL_EPOCH_K;
                let y = unsafe { shared.y_multi.slice_mut(base..base + rows.len() * k) };
                mat.spmv_multi_into(x, y, k);
            }
            // Heavy-row split: write this worker's segment of products
            // (never partial sums — the driver's in-order fold is what
            // keeps the merge bitwise-equal to the serial kernel).
            if let (Some(seg), Some(sp)) = (&split_seg, &shared.split) {
                let kk = k.max(1);
                let m = x.len() / kk.max(1);
                for t in 0..kk {
                    let xt = &x[t * m..(t + 1) * m];
                    let base = t * sp.nnz + seg.offset;
                    // SAFETY: segments partition the row's nonzeros, so
                    // this range is disjoint from every other worker's.
                    let out = unsafe { sp.scratch.slice_mut(base..base + seg.cols.len()) };
                    for ((o, &c), &v) in out.iter_mut().zip(&seg.cols).zip(&seg.vals) {
                        *o = v * xt[c];
                    }
                }
            }
        }));
        drop(strip_span);
        if result.is_err() {
            shared.poisoned.store(true, Ordering::Release);
        }
        done = target;
        me.done.store(done, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{bcsr_unit_weights, csr_unit_weights};
    use spmv_core::Coo;
    use spmv_formats::Bcsr;
    use spmv_kernels::{BlockShape, KernelImpl};

    fn fixture(n: usize, m: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, m);
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            for _ in 0..1 + (next() as usize) % 4 {
                let _ = coo.push(i, (next() as usize) % m, 1.0 + (next() % 5) as f64);
            }
        }
        Csr::from_coo(&coo)
    }

    fn pool_for(csr: &Csr<f64>, threads: usize) -> SpmvPool<f64> {
        SpmvPool::from_csr(
            csr,
            threads,
            &csr_unit_weights(csr),
            1,
            Csr::clone,
            PinPolicy::None,
        )
    }

    #[test]
    fn pool_matches_sequential_csr_bitwise() {
        let csr = fixture(113, 67);
        let x: Vec<f64> = (0..67).map(|i| 1.0 + (i % 11) as f64).collect();
        let want = csr.spmv(&x);
        for threads in [1, 2, 4, 8] {
            let pool = pool_for(&csr, threads);
            assert_eq!(pool.spmv(&x), want, "threads = {threads}");
        }
    }

    #[test]
    fn repeated_calls_reuse_the_same_threads() {
        let csr = fixture(64, 64);
        let x = vec![1.0; 64];
        let pool = pool_for(&csr, 4);
        let want = csr.spmv(&x);
        let mut y = vec![0.0; 64];
        for _ in 0..1000 {
            pool.spmv_into(&x, &mut y);
        }
        assert_eq!(y, want);
        assert_eq!(pool.iterations(), 1000);
        // One thread per strip throughout is checked from the
        // `pool.strip` spans in tests/telemetry_pool.rs.
    }

    #[test]
    fn pool_multi_matches_sequential_csr_bitwise() {
        let csr = fixture(113, 67);
        for threads in [1, 2, 4] {
            let pool = pool_for(&csr, threads);
            // k = 9 exercises an 8-vector epoch plus a single-vector one.
            for k in [1, 2, 4, 9] {
                let x: Vec<f64> = (0..67 * k).map(|i| 1.0 + (i % 11) as f64).collect();
                let got = pool.spmv_multi(&x, k);
                for t in 0..k {
                    let want = csr.spmv(&x[t * 67..(t + 1) * 67]);
                    assert_eq!(
                        got[t * 113..(t + 1) * 113],
                        want,
                        "threads={threads} k={k} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_interleaves_single_and_multi_epochs() {
        let csr = fixture(48, 48);
        let pool = pool_for(&csr, 2);
        let x1 = vec![1.0; 48];
        let want1 = csr.spmv(&x1);
        let x4: Vec<f64> = (0..48 * 4).map(|i| 0.5 + (i % 5) as f64).collect();
        for _ in 0..3 {
            assert_eq!(pool.spmv(&x1), want1);
            let got = pool.spmv_multi(&x4, 4);
            for t in 0..4 {
                assert_eq!(
                    got[t * 48..(t + 1) * 48],
                    csr.spmv(&x4[t * 48..(t + 1) * 48])
                );
            }
        }
    }

    #[test]
    fn empty_matrix_pool() {
        let csr = Csr::<f64>::from_coo(&Coo::new(0, 5));
        let pool = pool_for(&csr, 3);
        assert_eq!(pool.n_workers(), 0);
        assert_eq!(pool.spmv(&[1.0; 5]), Vec::<f64>::new());
    }

    #[test]
    fn more_threads_than_rows_pool() {
        let csr = fixture(3, 6);
        let pool = pool_for(&csr, 16);
        assert!(pool.n_workers() <= 3);
        let x = vec![1.0; 6];
        assert_eq!(pool.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn pinned_pool_still_computes_correctly() {
        let csr = fixture(50, 50);
        let x = vec![2.0; 50];
        let want = csr.spmv(&x);
        let pool = SpmvPool::from_csr(
            &csr,
            2,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::Compact,
        );
        assert_eq!(pool.spmv(&x), want);
    }

    #[test]
    fn nnz_and_bytes_aggregate_over_strips() {
        let csr = fixture(60, 60);
        let pool = pool_for(&csr, 4);
        assert_eq!(pool.nnz_stored(), csr.nnz());
        let strip_bytes: usize = pool
            .strip_rows()
            .into_iter()
            .map(|rows| csr.row_slice(rows).matrix_bytes())
            .sum();
        assert_eq!(pool.matrix_bytes(), strip_bytes);
    }

    fn bcsr_pool(csr: &Csr<f64>, threads: usize, shape: BlockShape) -> SpmvPool<f64> {
        SpmvPool::from_csr(
            csr,
            threads,
            &bcsr_unit_weights(csr, shape),
            shape.rows(),
            move |s| Bcsr::from_csr(s, shape, KernelImpl::Scalar),
            PinPolicy::None,
        )
    }

    #[test]
    fn strip_boundaries_respect_block_alignment() {
        let csr = fixture(97, 50);
        let pool = bcsr_pool(&csr, 3, BlockShape::new(4, 2).unwrap());
        for rows in pool.strip_rows() {
            assert_eq!(rows.start % 4, 0, "strip start must be block-aligned");
        }
    }

    #[test]
    fn no_strip_is_ever_empty() {
        // n_threads far above the unit count: the partitioner produces
        // empty tail ranges, but none may survive into a strip.
        for (n, threads) in [(1usize, 8usize), (3, 16), (5, 5), (7, 3)] {
            let csr = fixture(n, 6);
            let pool = pool_for(&csr, threads);
            assert!(pool.n_workers() >= 1);
            for rows in pool.strip_rows() {
                assert!(
                    !rows.is_empty(),
                    "{n} rows / {threads} threads left an empty strip"
                );
            }
        }
    }

    #[test]
    fn more_threads_than_units_blocked() {
        // Blocked units (height 4) with more threads than units: strips
        // stay aligned, non-empty, and the product is unchanged.
        let csr = fixture(10, 12);
        let pool = bcsr_pool(&csr, 9, BlockShape::new(4, 2).unwrap());
        assert!(pool.n_workers() <= 3); // ceil(10/4) = 3 units
        for rows in pool.strip_rows() {
            assert!(!rows.is_empty());
            assert_eq!(rows.start % 4, 0);
        }
        let x = vec![1.0; 12];
        let want = csr.spmv(&x);
        for (a, g) in want.iter().zip(pool.spmv(&x).iter()) {
            assert!((a - g).abs() < 1e-9);
        }
    }

    #[test]
    fn single_worker_overwrites_stale_output() {
        // One worker over a matrix whose trailing rows hold no nonzeros:
        // every output row must still be written.
        let csr = Csr::from_coo(&Coo::from_triplets(6, 4, vec![(0, 0, 2.0), (1, 3, 4.0)]).unwrap());
        let pool = pool_for(&csr, 1);
        assert_eq!(pool.n_workers(), 1);
        let mut y = vec![f64::NAN; 6]; // poison: stale values must be overwritten
        pool.spmv_into(&[1.0; 4], &mut y);
        assert_eq!(y, csr.spmv(&[1.0; 4]));
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_workers() {
        let csr = fixture(40, 40);
        let x = vec![1.0; 40];
        let mut pool = pool_for(&csr, 2);
        let want = csr.spmv(&x);
        assert_eq!(pool.spmv(&x), want);
        assert!(!pool.is_shut_down());
        pool.shutdown();
        assert!(pool.is_shut_down());
        pool.shutdown(); // second call is a no-op
                         // Metadata stays readable after shutdown.
        assert_eq!(pool.iterations(), 1);
        assert_eq!(pool.strip_reports().len(), pool.n_workers());
        // Drop after explicit shutdown must not hang or double-join.
        drop(pool);
    }

    #[test]
    #[should_panic(expected = "used after shutdown")]
    fn spmv_after_shutdown_panics_instead_of_hanging() {
        let csr = fixture(20, 20);
        let mut pool = pool_for(&csr, 2);
        pool.shutdown();
        let _ = pool.spmv(&[1.0; 20]);
    }

    #[test]
    fn arc_owned_pool_drops_cleanly_from_another_thread() {
        // The registry-ownership scenario: the pool lives inside an
        // `Arc`, handles are cloned across threads, and the last drop —
        // on whichever thread it lands — tears the workers down.
        let csr = fixture(50, 50);
        let x = vec![1.0; 50];
        let want = csr.spmv(&x);
        let pool = std::sync::Arc::new(pool_for(&csr, 2));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let (x, want) = (x.clone(), want.clone());
                thread::spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(pool.spmv(&x), want);
                    }
                    drop(pool); // one of these drops is the last one
                })
            })
            .collect();
        drop(pool);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn split_pool_shears_a_heavy_row_and_stays_bitwise() {
        // Row 2 holds most of the matrix: heavier than any ideal share.
        let mut coo = Coo::new(8, 64);
        for j in 0..60 {
            let _ = coo.push(2, j, 1.0 + (j % 9) as f64 * 0.125);
        }
        for i in 0..8 {
            let _ = coo.push(i, (7 * i + 3) % 64, 2.5 + i as f64);
        }
        let csr = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..64).map(|i| 0.5 + (i % 13) as f64 * 0.25).collect();
        let want = csr.spmv(&x);
        for threads in [2, 3, 4] {
            let pool = pool_for(&csr, threads);
            assert_eq!(pool.split_row(), Some(2), "threads = {threads}");
            assert_eq!(pool.spmv(&x), want, "threads = {threads}");
            // Multi-vector epochs merge per vector.
            let k = 9; // one 8-wide epoch + one single
            let xk: Vec<f64> = (0..64 * k).map(|i| 0.1 + (i % 17) as f64 * 0.5).collect();
            let got = pool.spmv_multi(&xk, k);
            for t in 0..k {
                let want_t = csr.spmv(&xk[t * 64..(t + 1) * 64]);
                assert_eq!(got[t * 8..(t + 1) * 8], want_t, "threads={threads} t={t}");
            }
        }
    }

    #[test]
    fn split_does_not_trigger_on_balanced_matrices() {
        let csr = fixture(64, 64);
        let pool = pool_for(&csr, 2);
        // The fixture spreads 1–4 nnz per row; no row exceeds half the total.
        assert_eq!(pool.split_row(), None);
    }

    #[test]
    fn single_row_matrix_splits_to_one_worker_and_stays_bitwise() {
        // Pathological: every nonzero in one row — the rest partition
        // collapses to one covering strip and the split is segment 0..nnz.
        let mut coo = Coo::new(4, 40);
        for j in 0..40 {
            let _ = coo.push(1, j, 0.75 + (j % 5) as f64);
        }
        let csr = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..40).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();
        let pool = pool_for(&csr, 4);
        assert_eq!(pool.split_row(), Some(1));
        assert_eq!(pool.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn oversubscribed_pin_policy_is_recorded() {
        let csr = fixture(30, 30);
        // Two workers forced onto one core: oversubscribed by definition.
        let pool = SpmvPool::from_csr(
            &csr,
            2,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::Cores(vec![0]),
        );
        assert!(pool.pin_oversubscribed());
        let unpinned = pool_for(&csr, 2);
        assert!(!unpinned.pin_oversubscribed());
    }

    #[test]
    fn pin_failure_is_recorded_and_results_stay_bitwise() {
        let csr = fixture(40, 40);
        let x = vec![1.5; 40];
        let want = csr.spmv(&x);
        // An absurd core index: pin_current_thread refuses it, the pool
        // runs unpinned, and the strip reports say so.
        let pool = SpmvPool::from_csr(
            &csr,
            2,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::Cores(vec![1 << 20]),
        );
        assert_eq!(pool.spmv(&x), want);
        for report in pool.strip_reports() {
            assert_eq!(report.pinned, Some(false), "pin should have failed");
        }
        // No-pin policies report no pin attempt at all.
        for report in pool_for(&csr, 2).strip_reports() {
            assert_eq!(report.pinned, None);
        }
    }

    #[test]
    fn domain_placed_pool_computes_correctly_on_fake_topology() {
        let csr = fixture(80, 80);
        let x: Vec<f64> = (0..80).map(|i| 0.5 + (i % 9) as f64).collect();
        let want = csr.spmv(&x);
        let topo = crate::topology::Topology::from_domains(vec![vec![0], vec![1]]);
        let pool = SpmvPool::from_csr(
            &csr,
            2,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::Domains(topo),
        );
        assert_eq!(pool.spmv(&x), want);
    }
}
