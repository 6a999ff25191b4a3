#![warn(missing_docs)]

//! Low-overhead tracing and metrics for the blocked-SpMV workspace.
//!
//! The paper's evaluation lives on measurement: Figure 3's outliers were
//! found by instrumenting SpMV and comparing predicted against measured
//! time. This crate is the workspace's unified observability layer:
//!
//! * **Events** are fixed-size records ([`Event`]) written to
//!   **per-thread lock-free rings** ([`ring`]) — no locks and no
//!   allocation on the hot path; a full ring overwrites its oldest
//!   entries and counts them as dropped.
//! * **Spans** ([`span`], [`complete`]) record named durations,
//!   **counters** ([`counter`]) additive deltas, **gauges** ([`gauge`])
//!   sampled values, and [`instant`] point marks.
//! * Recording is gated by one **runtime flag** ([`set_enabled`]; the
//!   disabled hot path is one relaxed atomic load).
//! * [`snapshot`] copies every ring into a time-ordered [`Snapshot`],
//!   exported as chrome://tracing JSON ([`chrome`]) or a flat-text
//!   aggregate ([`summary`]).
//! * [`residual::ResidualTracker`] accumulates (predicted, measured)
//!   pairs per (format, shape, kernel, model) so model mispredictions —
//!   the paper's latency-bound outliers — surface automatically.
//!
//! See `docs/OBSERVABILITY.md` for the event model and measured
//! overhead numbers.
//!
//! # Example
//!
//! ```
//! spmv_telemetry::set_enabled(true);
//! {
//!     let _outer = spmv_telemetry::span("example.outer");
//!     spmv_telemetry::counter("example.items", 3);
//! }
//! let snap = spmv_telemetry::snapshot();
//! assert!(snap.events.iter().any(|e| e.name == "example.outer"));
//! spmv_telemetry::set_enabled(false);
//! spmv_telemetry::clear();
//! ```

pub mod chrome;
pub mod json;
pub mod residual;
pub mod ring;
pub mod summary;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What one [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named duration: `ts_ns` is the start, `value` the duration in
    /// nanoseconds (a chrome "complete" event).
    Span,
    /// An additive delta: `value` holds an `i64` delta as raw bits.
    Counter,
    /// A sampled value: `value` holds an `f64` as raw bits.
    Gauge,
    /// A point-in-time mark with no duration.
    Instant,
}

impl EventKind {
    fn from_u64(v: u64) -> EventKind {
        match v {
            0 => EventKind::Span,
            1 => EventKind::Counter,
            2 => EventKind::Gauge,
            _ => EventKind::Instant,
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            EventKind::Span => 0,
            EventKind::Counter => 1,
            EventKind::Gauge => 2,
            EventKind::Instant => 3,
        }
    }
}

/// One recorded telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Static event name (e.g. `"pool.epoch"`).
    pub name: &'static str,
    /// Event flavor; decides how [`Event::value`] is interpreted.
    pub kind: EventKind,
    /// Small dense id of the recording thread's ring (assigned in ring
    /// creation order, starting at 0).
    pub tid: u64,
    /// Nanoseconds since the process trace epoch (first telemetry use).
    pub ts_ns: u64,
    /// Span duration in ns, counter delta (`i64` bits), or gauge value
    /// (`f64` bits).
    pub value: u64,
    /// Free-form payload chosen by the instrumentation site (vector
    /// count, candidate count, kernel index, ...).
    pub arg: u64,
}

impl Event {
    /// The counter delta, when [`Event::kind`] is [`EventKind::Counter`].
    pub fn counter_delta(&self) -> i64 {
        self.value as i64
    }

    /// The gauge value, when [`Event::kind`] is [`EventKind::Gauge`].
    pub fn gauge_value(&self) -> f64 {
        f64::from_bits(self.value)
    }
}

/// A time-ordered copy of every thread ring, taken by [`snapshot`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All live events, sorted by (`ts_ns`, `tid`).
    pub events: Vec<Event>,
    /// Events lost to ring overwrite since the last [`clear`].
    pub dropped: u64,
    /// Number of registered thread rings ([`clear`] reclaims the rings
    /// of threads that have exited).
    pub threads: usize,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns event recording on or off at runtime.
///
/// Off is the default; when off, every recording entry point returns
/// after a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether event recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
///
/// The epoch is pinned at first telemetry use, so all threads share one
/// timeline. Usable even while recording is disabled (timestamps for
/// [`complete`]).
#[inline]
pub fn now_ns() -> u64 {
    trace_epoch().elapsed().as_nanos() as u64
}

/// An RAII span: records one [`EventKind::Span`] event covering its own
/// lifetime when dropped.
///
/// Created disarmed when recording is disabled, so construction and drop
/// are then nearly free.
#[must_use = "a span measures its own lifetime; bind it to a variable"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    arg: u64,
    start_ns: u64,
    armed: bool,
}

impl Span {
    /// Overrides the span's argument payload after creation.
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            complete(self.name, self.start_ns, now_ns() - self.start_ns, self.arg);
        }
    }
}

/// Opens a span named `name`; the returned guard records it on drop.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, 0)
}

/// Opens a span with an argument payload.
#[inline]
pub fn span_with(name: &'static str, arg: u64) -> Span {
    let armed = enabled();
    Span {
        name,
        arg,
        start_ns: if armed { now_ns() } else { 0 },
        armed,
    }
}

/// Records an already-measured duration as a span event.
///
/// For durations that begin before the recording call site (the serving
/// engine's submit-to-reply request latency): `start_ns` comes from
/// [`now_ns`], `dur_ns` from the caller's own measurement.
#[inline]
pub fn complete(name: &'static str, start_ns: u64, dur_ns: u64, arg: u64) {
    if enabled() {
        ring::record(Event {
            name,
            kind: EventKind::Span,
            tid: 0,
            ts_ns: start_ns,
            value: dur_ns,
            arg,
        });
    }
}

/// Records an additive counter delta.
#[inline]
pub fn counter(name: &'static str, delta: i64) {
    if enabled() {
        ring::record(Event {
            name,
            kind: EventKind::Counter,
            tid: 0,
            ts_ns: now_ns(),
            value: delta as u64,
            arg: 0,
        });
    }
}

/// Records a sampled gauge value.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        ring::record(Event {
            name,
            kind: EventKind::Gauge,
            tid: 0,
            ts_ns: now_ns(),
            value: value.to_bits(),
            arg: 0,
        });
    }
}

/// Records a point-in-time mark.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    if enabled() {
        ring::record(Event {
            name,
            kind: EventKind::Instant,
            tid: 0,
            ts_ns: now_ns(),
            value: 0,
            arg,
        });
    }
}

/// Copies every thread ring into one time-ordered [`Snapshot`].
///
/// Concurrent writers keep running; entries they overwrite mid-copy are
/// detected and counted as dropped rather than returned torn.
pub fn snapshot() -> Snapshot {
    ring::snapshot_all()
}

/// Forgets all recorded events (and the dropped count) in every ring.
///
/// Rings of live threads stay allocated and registered; rings whose
/// owning thread has exited are unregistered and freed here, so
/// workloads that instrument many short-lived threads reclaim their
/// ring storage by clearing. Tests use this to isolate scenarios inside
/// one process.
pub fn clear() {
    ring::clear_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole test module shares process-global rings, so every test
    /// that records serializes on this lock and clears before running.
    pub(crate) fn with_clean_telemetry<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        clear();
        out
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        with_clean_telemetry(|| {
            set_enabled(false);
            counter("t.nothing", 1);
            let _s = span("t.nothing.span");
            drop(_s);
            gauge("t.nothing.gauge", 1.0);
            instant("t.nothing.mark", 0);
            let snap = snapshot();
            assert!(snap.events.is_empty(), "got {:?}", snap.events);
        });
    }

    #[test]
    fn span_counter_gauge_roundtrip() {
        with_clean_telemetry(|| {
            {
                let _s = span_with("t.span", 7);
                counter("t.count", -4);
                gauge("t.gauge", 2.5);
                instant("t.mark", 9);
            }
            let snap = snapshot();
            assert_eq!(snap.events.len(), 4);
            let by_name = |n: &str| {
                snap.events
                    .iter()
                    .find(|e| e.name == n)
                    .copied()
                    .unwrap_or_else(|| panic!("{n} missing"))
            };
            let s = by_name("t.span");
            assert_eq!(s.kind, EventKind::Span);
            assert_eq!(s.arg, 7);
            assert_eq!(by_name("t.count").counter_delta(), -4);
            assert_eq!(by_name("t.gauge").gauge_value(), 2.5);
            assert_eq!(by_name("t.mark").kind, EventKind::Instant);
            // Inner events happen inside the span's extent.
            let c = by_name("t.count");
            assert!(s.ts_ns <= c.ts_ns && c.ts_ns <= s.ts_ns + s.value);
        });
    }

    #[test]
    fn snapshot_is_time_ordered() {
        with_clean_telemetry(|| {
            for i in 0..32 {
                counter("t.order", i);
            }
            let snap = snapshot();
            assert!(snap.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        });
    }

    #[test]
    fn clear_resets_events_and_drops() {
        with_clean_telemetry(|| {
            counter("t.clear", 1);
            clear();
            let snap = snapshot();
            assert!(snap.events.is_empty());
            assert_eq!(snap.dropped, 0);
        });
    }

    #[test]
    fn events_survive_from_other_threads() {
        with_clean_telemetry(|| {
            let h = std::thread::spawn(|| {
                counter("t.cross", 1);
            });
            h.join().unwrap();
            counter("t.cross", 2);
            let snap = snapshot();
            let evs: Vec<_> = snap.events.iter().filter(|e| e.name == "t.cross").collect();
            assert_eq!(evs.len(), 2);
            assert_ne!(evs[0].tid, evs[1].tid, "distinct threads, distinct rings");
        });
    }

    #[test]
    fn clear_reclaims_rings_of_exited_threads() {
        with_clean_telemetry(|| {
            let h = std::thread::spawn(|| counter("t.reclaim", 1));
            h.join().unwrap();
            let before = snapshot().threads;
            clear();
            let after = snapshot().threads;
            assert!(
                after < before,
                "exited thread's ring not reclaimed ({before} -> {after} rings)"
            );
            // The calling thread's live ring keeps working after a prune.
            counter("t.reclaim", 2);
            let snap = snapshot();
            assert_eq!(snap.events.len(), 1);
            assert_eq!(snap.events[0].counter_delta(), 2);
        });
    }
}
