//! The background tuner: drains residuals, runs the decision core, and
//! hot-swaps re-ranked selections through the serving registry.
//!
//! One [`Tuner`] watches any number of registered matrices. Each
//! decision **pass** (a [`Tuner::run_once`] call, or one background
//! iteration):
//!
//! 1. drains the residual tracker's event log and feeds each target's
//!    [`StalenessDetector`](crate::detector::StalenessDetector);
//! 2. for every target latched stale: asks the [`Sampler`] for a fresh
//!    bandwidth and a bounded re-profile of the suspect kernel keys,
//!    folds them into [`MeasuredOverrides`], and re-ranks with
//!    [`TunerCore::choose`] (strictly `select_extended_measured`);
//! 3. publishes the winner through [`Registry::publish`] — readers
//!    never stall, in-flight requests keep the version they captured —
//!    then, when an engine is attached, runs the swap protocol:
//!    *calibrate* the new version on the serving host, *expect* the
//!    calibrated baseline under the new version (older versions stop
//!    recording on their own), *begin a latency window* so pre/post
//!    swap percentiles separate, and *fence* so no request accepted
//!    before the swap is still executing against the old version;
//! 4. appends [`TimelineEvent`]s, stamped by the injected
//!    [`TuneClock`], for every step.
//!
//! # Fault isolation
//!
//! Every pass runs under `catch_unwind`. A panic anywhere in the
//! decision path (the injected-fault tests panic inside the sampler)
//! latches [`Tuner::panicked`], emits one `PanicIsolated` timeline
//! event, and permanently stops the tuner from publishing — while the
//! registry keeps serving the last-good selection untouched. A tuner
//! crash degrades to "no more adaptation", never to an outage.
//!
//! # Determinism
//!
//! The decision path reads no wall clock and takes no sleeps: detectors
//! advance per observation, and passes happen when [`Tuner::run_once`]
//! is called (tests) or when the background thread wakes (production,
//! every 50 ms or on a [`Tuner::kick`]). Under a
//! [`ManualClock`](crate::clock::ManualClock) and a seeded residual
//! stream, every transition and timeline entry is reproducible.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use spmv_core::{Csr, MatrixShape};
use spmv_kernels::simd::SimdScalar;
use spmv_model::{Config, MeasuredOverrides};
use spmv_serve::{residual_key_for, MatrixId, PreparedMatrix, Registry, ServeEngine};
use spmv_telemetry::residual::ResidualTracker;

use crate::clock::TuneClock;
use crate::core::{TunerCore, WatchSpec};
use crate::detector::Verdict;
use crate::sampler::Sampler;

/// How long the background thread sleeps between passes when nobody
/// kicks it (the decision *thresholds* live on each target's
/// [`WatchSpec`]).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Repetitions for the post-publish calibration measurement.
const CALIBRATE_REPS: usize = 3;

/// One entry in the tuner's recovery timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Timestamp from the injected clock, ns since its epoch.
    pub t_ns: u64,
    /// The matrix id the event concerns (`0` for tuner-wide events).
    pub matrix: u64,
    /// What happened.
    pub kind: TimelineKind,
}

/// What a [`TimelineEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineKind {
    /// The tuner started watching a matrix serving `config`.
    Watch {
        /// Display form of the watched selection.
        config: String,
    },
    /// The publisher told the tuner the matrix's structure changed.
    StructureDrift,
    /// The detector latched stale at this windowed mean `|rel err|`.
    Stale {
        /// Windowed mean at the moment of latching.
        windowed: f64,
    },
    /// The sampler re-measured this many suspect kernel keys.
    Reprofiled {
        /// Rows returned by the sampler.
        keys: usize,
    },
    /// Reranking under measured overrides picked `config`.
    Reranked {
        /// Display form of the winner.
        config: String,
        /// Its predicted seconds per SpMV.
        predicted: f64,
    },
    /// A different configuration was published: the hot-swap.
    Swapped {
        /// Registry version the swap published.
        version: u64,
        /// Display form of the configuration swapped out.
        from: String,
        /// Display form of the configuration swapped in.
        to: String,
    },
    /// The incumbent won the rerank and was republished with a freshly
    /// calibrated baseline (the measurements drifted, the ranking
    /// didn't).
    Confirmed {
        /// Registry version the republish created.
        version: u64,
        /// Display form of the (unchanged) configuration.
        config: String,
    },
    /// First post-swap window at or below the exit threshold.
    Recovered {
        /// Windowed mean that proved recovery.
        windowed: f64,
    },
    /// A decision pass panicked; the tuner stopped publishing.
    PanicIsolated {
        /// Panic payload (when it was a string).
        detail: String,
    },
}

impl std::fmt::Display for TimelineEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>12.6}s] matrix {:>3}: ",
            self.t_ns as f64 / 1e9,
            self.matrix
        )?;
        match &self.kind {
            TimelineKind::Watch { config } => write!(f, "watch ({config})"),
            TimelineKind::StructureDrift => write!(f, "structure drift announced"),
            TimelineKind::Stale { windowed } => {
                write!(f, "stale (windowed |rel err| = {windowed:.3})")
            }
            TimelineKind::Reprofiled { keys } => write!(f, "reprofiled {keys} kernel key(s)"),
            TimelineKind::Reranked { config, predicted } => {
                write!(
                    f,
                    "reranked -> {config} (predicted {:.3} ms)",
                    predicted * 1e3
                )
            }
            TimelineKind::Swapped { version, from, to } => {
                write!(f, "SWAPPED {from} -> {to} (v{version})")
            }
            TimelineKind::Confirmed { version, config } => {
                write!(f, "confirmed {config} (v{version}, baseline refreshed)")
            }
            TimelineKind::Recovered { windowed } => {
                write!(f, "recovered (windowed |rel err| = {windowed:.3})")
            }
            TimelineKind::PanicIsolated { detail } => {
                write!(f, "tuner pass panicked, isolated: {detail}")
            }
        }
    }
}

struct TunerState<T: SimdScalar> {
    registry: Arc<Registry<T>>,
    engine: Option<Arc<ServeEngine<T>>>,
    tracker: Arc<ResidualTracker>,
    clock: Arc<dyn TuneClock>,
    sampler: Box<dyn Sampler>,
    core: Mutex<TunerCore<T>>,
    timeline: Mutex<Vec<TimelineEvent>>,
    panicked: AtomicBool,
    stop: AtomicBool,
    kick: Mutex<bool>,
    kick_cv: Condvar,
}

/// The residual-driven background tuner.
///
/// Construct with [`Tuner::new`], register targets with
/// [`Tuner::watch`], then either drive passes deterministically with
/// [`Tuner::run_once`] or let [`Tuner::start`] run them on a background
/// thread. Dropping the tuner stops and joins the thread.
pub struct Tuner<T: SimdScalar> {
    state: Arc<TunerState<T>>,
    thread: Option<JoinHandle<()>>,
}

impl<T: SimdScalar> Tuner<T> {
    /// A tuner over `registry`. When `engine` is given, the tuner
    /// subscribes to *its* residual tracker and runs the full swap
    /// protocol (calibrate → expect → latency window → fence) on every
    /// publish; without one it still detects, reranks, and publishes —
    /// the residual stream then comes from whatever the caller records
    /// into [`Tuner::residuals`].
    pub fn new(
        registry: Arc<Registry<T>>,
        engine: Option<Arc<ServeEngine<T>>>,
        clock: Arc<dyn TuneClock>,
        sampler: Box<dyn Sampler>,
    ) -> Self {
        let tracker = engine
            .as_ref()
            .map(|e| Arc::clone(e.residuals()))
            .unwrap_or_default();
        Self {
            state: Arc::new(TunerState {
                registry,
                engine,
                tracker,
                clock,
                sampler,
                core: Mutex::new(TunerCore::new()),
                timeline: Mutex::new(Vec::new()),
                panicked: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                kick: Mutex::new(false),
                kick_cv: Condvar::new(),
            }),
            thread: None,
        }
    }

    /// The residual tracker the tuner drains (the attached engine's,
    /// when there is one).
    pub fn residuals(&self) -> &Arc<ResidualTracker> {
        &self.state.tracker
    }

    /// Starts watching a matrix that is already published in the
    /// registry; returns `false` (and watches nothing) if it isn't.
    ///
    /// When an engine is attached this also installs the *initial*
    /// residual expectation: the published version is calibrated on the
    /// serving host and that baseline registered under the current
    /// selection's residual key, so the detector's error stream is
    /// centered before any drift happens.
    pub fn watch(&self, id: MatrixId, spec: WatchSpec<T>) -> bool {
        if self.state.panicked.load(Ordering::Acquire) {
            return false;
        }
        let Some((version, prepared)) = self.state.registry.get_versioned(id) else {
            return false;
        };
        let current = prepared.config();
        let model = spec.model;
        let mut core = lock(&self.state.core);
        core.watch(id.0, spec, current);
        drop(core);
        if let Some(engine) = &self.state.engine {
            let baseline = Self::calibrated_baseline(
                engine,
                id,
                prepared.n_cols(),
                CALIBRATE_REPS,
                prepared.selection().map(|s| s.predicted).unwrap_or(0.0),
            );
            engine.expect(id, version, residual_key_for(current, model), baseline);
        }
        self.push_event(
            id.0,
            TimelineKind::Watch {
                config: current.to_string(),
            },
        );
        true
    }

    /// Tells the tuner the structure behind `id` changed (the publisher
    /// republished a drifted matrix): subsequent reranks rank against
    /// `csr`. Returns `false` if `id` isn't watched. The detector is
    /// *not* reset — the tuner only acts when residuals actually move.
    pub fn update_structure(&self, id: MatrixId, csr: Arc<Csr<T>>) -> bool {
        let updated = lock(&self.state.core).update_structure(id.0, csr);
        if updated {
            self.push_event(id.0, TimelineKind::StructureDrift);
        }
        updated
    }

    /// Runs one decision pass on the calling thread and returns the
    /// timeline events it generated. This is the deterministic seam the
    /// test suites drive; the background thread calls exactly this. A
    /// panicked tuner no-ops.
    pub fn run_once(&self) -> Vec<TimelineEvent> {
        Self::pass(&self.state)
    }

    /// Spawns the background thread (idempotent). It runs a pass every
    /// 50 ms, or sooner when kicked.
    pub fn start(&mut self) {
        if self.thread.is_some() {
            return;
        }
        let state = Arc::clone(&self.state);
        self.thread = Some(
            std::thread::Builder::new()
                .name("spmv-tuner".into())
                .spawn(move || {
                    while !state.stop.load(Ordering::Acquire) {
                        let mut kicked = lock(&state.kick);
                        if !*kicked {
                            let (g, _) = state
                                .kick_cv
                                .wait_timeout(kicked, POLL_INTERVAL)
                                .unwrap_or_else(|e| e.into_inner());
                            kicked = g;
                        }
                        *kicked = false;
                        drop(kicked);
                        if state.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let _ = Self::pass(&state);
                    }
                })
                .expect("spawn tuner thread"),
        );
    }

    /// Wakes the background thread for an immediate pass.
    pub fn kick(&self) {
        *lock(&self.state.kick) = true;
        self.state.kick_cv.notify_all();
    }

    /// Stops and joins the background thread (idempotent; also run by
    /// `Drop`).
    pub fn stop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        self.kick();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Whether a decision pass panicked (the tuner no longer publishes).
    pub fn panicked(&self) -> bool {
        self.state.panicked.load(Ordering::Acquire)
    }

    /// A copy of the full timeline so far.
    pub fn timeline(&self) -> Vec<TimelineEvent> {
        lock(&self.state.timeline).clone()
    }

    /// The configuration the tuner believes is serving `id`.
    pub fn current_config(&self, id: MatrixId) -> Option<Config> {
        lock(&self.state.core).current(id.0)
    }

    /// The detector verdict for `id` (no new observation).
    pub fn verdict_for(&self, id: MatrixId) -> Option<Verdict> {
        lock(&self.state.core).verdict(id.0)
    }

    /// The windowed mean `|rel err|` for `id`.
    pub fn windowed_for(&self, id: MatrixId) -> Option<f64> {
        lock(&self.state.core).windowed(id.0)
    }

    fn push_event(&self, matrix: u64, kind: TimelineKind) {
        let ev = TimelineEvent {
            t_ns: self.state.clock.now_ns(),
            matrix,
            kind,
        };
        lock(&self.state.timeline).push(ev);
    }

    /// One guarded decision pass over `state`.
    fn pass(state: &Arc<TunerState<T>>) -> Vec<TimelineEvent> {
        if state.panicked.load(Ordering::Acquire) {
            return Vec::new();
        }
        let result = catch_unwind(AssertUnwindSafe(|| Self::pass_inner(state)));
        match result {
            Ok(events) => events,
            Err(payload) => {
                state.panicked.store(true, Ordering::Release);
                let ev = TimelineEvent {
                    t_ns: state.clock.now_ns(),
                    matrix: 0,
                    kind: TimelineKind::PanicIsolated {
                        detail: panic_detail(payload.as_ref()),
                    },
                };
                lock(&state.timeline).push(ev.clone());
                vec![ev]
            }
        }
    }

    fn pass_inner(state: &Arc<TunerState<T>>) -> Vec<TimelineEvent> {
        let mut out = Vec::new();
        let mut push = |matrix: u64, kind: TimelineKind| {
            out.push(TimelineEvent {
                t_ns: state.clock.now_ns(),
                matrix,
                kind,
            });
        };

        let events = state.tracker.drain_events();
        let mut core = lock(&state.core);
        for tr in core.observe_events(&events) {
            match tr.verdict {
                Verdict::Stale => push(
                    tr.matrix,
                    TimelineKind::Stale {
                        windowed: tr.windowed,
                    },
                ),
                Verdict::Recovered => push(
                    tr.matrix,
                    TimelineKind::Recovered {
                        windowed: tr.windowed,
                    },
                ),
                _ => {}
            }
        }

        for matrix in core.stale_targets() {
            let bandwidth = state.sampler.bandwidth();
            let kernels = state.sampler.reprofile(&core.suspect_keys(matrix));
            if !kernels.is_empty() {
                push(
                    matrix,
                    TimelineKind::Reprofiled {
                        keys: kernels.len(),
                    },
                );
            }
            let overrides = MeasuredOverrides { bandwidth, kernels };
            let Some(winner) = core.choose(matrix, &overrides) else {
                continue;
            };
            push(
                matrix,
                TimelineKind::Reranked {
                    config: winner.config.to_string(),
                    predicted: winner.predicted,
                },
            );

            let Some(target) = core.target(matrix) else {
                continue;
            };
            let (from, spec_csr) = (target.current, Arc::clone(&target.spec.csr));
            let (model, threads, pin) = (
                target.spec.model,
                target.spec.pool_threads,
                target.spec.pin.clone(),
            );
            let id = MatrixId(matrix);

            let prepared = if threads > 1 {
                PreparedMatrix::from_config_pooled(winner.config, &spec_csr, threads, pin)
            } else {
                PreparedMatrix::from_config(winner.config, &spec_csr)
            }
            .with_selection(model, winner.predicted);
            let version = state.registry.publish(id, prepared);

            if let Some(engine) = &state.engine {
                let baseline = Self::calibrated_baseline(
                    engine,
                    id,
                    spec_csr.n_cols(),
                    CALIBRATE_REPS,
                    winner.predicted,
                );
                engine.expect(
                    id,
                    version,
                    residual_key_for(winner.config, model),
                    baseline,
                );
                engine.begin_latency_window();
                engine.fence();
            }

            if winner.config != from {
                push(
                    matrix,
                    TimelineKind::Swapped {
                        version,
                        from: from.to_string(),
                        to: winner.config.to_string(),
                    },
                );
            } else {
                push(
                    matrix,
                    TimelineKind::Confirmed {
                        version,
                        config: winner.config.to_string(),
                    },
                );
            }
            core.apply_swap(matrix, winner.config);
        }
        drop(core);

        lock(&state.timeline).extend(out.iter().cloned());
        out
    }

    /// Measures the just-published version on the serving host; falls
    /// back to the model's prediction when calibration fails (unknown
    /// id race, zero-column matrix).
    fn calibrated_baseline(
        engine: &ServeEngine<T>,
        id: MatrixId,
        n_cols: usize,
        reps: usize,
        fallback: f64,
    ) -> f64 {
        let x = vec![T::ONE; n_cols];
        match engine.calibrate(id, &x, reps) {
            Ok(t) if t.is_finite() && t > 0.0 => t,
            _ => fallback,
        }
    }
}

impl<T: SimdScalar> Drop for Tuner<T> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<T: SimdScalar> std::fmt::Debug for Tuner<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner")
            .field("watched", &lock(&self.state.core).watched())
            .field("panicked", &self.panicked())
            .field("background", &self.thread.is_some())
            .finish()
    }
}

fn lock<G>(m: &Mutex<G>) -> MutexGuard<'_, G> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::detector::DetectorConfig;
    use crate::sampler::CannedSampler;
    use spmv_core::Coo;
    use spmv_model::{KernelProfile, MachineProfile, Model};

    fn small_csr() -> Arc<Csr<f64>> {
        let mut coo = Coo::new(48, 48);
        for i in 0..48 {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < 48 {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        Arc::new(Csr::from_coo(&coo))
    }

    fn machine() -> MachineProfile {
        MachineProfile {
            bandwidth: 8e9,
            l1_bytes: 32 << 10,
            llc_bytes: 8 << 20,
        }
    }

    fn spec(csr: &Arc<Csr<f64>>) -> WatchSpec<f64> {
        WatchSpec {
            detector: DetectorConfig {
                window: 2,
                enter: 0.5,
                exit: 0.2,
                consecutive: 2,
                cooldown: 1,
                min_samples: 1,
            },
            ..WatchSpec::new(
                Arc::clone(csr),
                Model::Overlap,
                machine(),
                KernelProfile::uniform(1e-9, 0.5),
            )
        }
    }

    #[test]
    fn watch_requires_a_published_matrix() {
        let registry: Arc<Registry<f64>> = Arc::new(Registry::new());
        let tuner = Tuner::new(
            Arc::clone(&registry),
            None,
            Arc::new(ManualClock::new(0)),
            Box::new(CannedSampler::new()),
        );
        let csr = small_csr();
        assert!(!tuner.watch(MatrixId(1), spec(&csr)));
        registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &csr));
        assert!(tuner.watch(MatrixId(1), spec(&csr)));
        assert_eq!(tuner.current_config(MatrixId(1)), Some(Config::CSR));
        assert!(matches!(
            tuner.timeline().last().map(|e| e.kind.clone()),
            Some(TimelineKind::Watch { .. })
        ));
    }

    #[test]
    fn a_pass_with_no_events_does_nothing() {
        let registry: Arc<Registry<f64>> = Arc::new(Registry::new());
        let csr = small_csr();
        registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &csr));
        let tuner = Tuner::new(
            Arc::clone(&registry),
            None,
            Arc::new(ManualClock::new(0)),
            Box::new(CannedSampler::new()),
        );
        tuner.watch(MatrixId(1), spec(&csr));
        assert!(tuner.run_once().is_empty());
        assert_eq!(registry.version_of(MatrixId(1)), Some(1));
    }

    #[test]
    fn manual_clock_stamps_the_timeline() {
        let registry: Arc<Registry<f64>> = Arc::new(Registry::new());
        let csr = small_csr();
        registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &csr));
        let clock = Arc::new(ManualClock::new(1_000));
        let tuner = Tuner::new(
            Arc::clone(&registry),
            None,
            Arc::clone(&clock) as Arc<dyn TuneClock>,
            Box::new(CannedSampler::new()),
        );
        tuner.watch(MatrixId(1), spec(&csr));
        assert_eq!(tuner.timeline()[0].t_ns, 1_000);
        clock.advance(500);
        tuner.update_structure(MatrixId(1), small_csr());
        assert_eq!(tuner.timeline()[1].t_ns, 1_500);
        assert_eq!(tuner.timeline()[1].kind, TimelineKind::StructureDrift);
    }

    #[test]
    fn background_thread_starts_kicks_and_stops() {
        let registry: Arc<Registry<f64>> = Arc::new(Registry::new());
        let csr = small_csr();
        registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &csr));
        let mut tuner = Tuner::new(
            Arc::clone(&registry),
            None,
            Arc::new(ManualClock::new(0)),
            Box::new(CannedSampler::new()),
        );
        tuner.watch(MatrixId(1), spec(&csr));
        tuner.start();
        tuner.start(); // idempotent
        tuner.kick();
        tuner.stop();
        tuner.stop(); // idempotent
        assert!(!tuner.panicked());
    }
}
