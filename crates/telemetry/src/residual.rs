//! Prediction-residual tracking.
//!
//! The paper evaluates its models by how well predicted SpMV time tracks
//! measured time (§V-B, Figure 3); the latency-bound outliers were found
//! by exactly this comparison. [`ResidualTracker`] makes that comparison
//! a first-class running statistic: every `(predicted, measured)` pair
//! is folded into per-key aggregates — keyed by (format, shape, kernel,
//! model) — so a misprediction shows up as a large mean relative error
//! on its row of [`ResidualTracker::render`] instead of hiding inside a
//! suite-wide average.
//!
//! # Export hook
//!
//! Aggregates answer "how wrong is this model on average", but an online
//! tuner needs the *stream*: which matrix produced each pair, in what
//! order, so a windowed detector can tell drift from noise. The tracker
//! therefore also keeps a bounded in-order event log: [`record_for`]
//! tags each pair with the serving-side matrix id, and a single consumer
//! drains it with [`drain_events`]. The log is bounded
//! ([`DEFAULT_LOG_CAPACITY`]); when the consumer falls behind, the
//! oldest events are dropped and counted ([`events_dropped`]) rather
//! than growing without bound — the same drop-not-block discipline as
//! the event rings.
//!
//! [`record_for`]: ResidualTracker::record_for
//! [`drain_events`]: ResidualTracker::drain_events
//! [`events_dropped`]: ResidualTracker::events_dropped

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;
use std::sync::{Mutex, OnceLock};

/// Identifies one prediction population.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResidualKey {
    /// Storage-format family (e.g. `CSR`, `BCSR`, `SELL`).
    pub format: String,
    /// Block shape within the family (e.g. `2x3`, `-` for unblocked).
    pub shape: String,
    /// Kernel implementation (e.g. `scalar`, `simd`).
    pub kernel: String,
    /// Predicting model (e.g. `MEM`, `MEMCOMP`, `OVERLAP`).
    pub model: String,
}

impl std::fmt::Display for ResidualKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.format, self.shape, self.kernel, self.model
        )
    }
}

/// Running statistics over one key's `(predicted, measured)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResidualStats {
    /// Number of recorded pairs.
    pub n: u64,
    /// Sum of predicted times, seconds.
    pub sum_predicted: f64,
    /// Sum of measured times, seconds.
    pub sum_measured: f64,
    /// Sum of signed relative errors `(pred - meas) / meas`.
    pub sum_rel: f64,
    /// Sum of absolute relative errors `|pred - meas| / meas`.
    pub sum_abs_rel: f64,
    /// Largest absolute relative error seen.
    pub max_abs_rel: f64,
}

impl ResidualStats {
    fn fold(&mut self, predicted: f64, measured: f64) {
        let rel = (predicted - measured) / measured;
        self.n += 1;
        self.sum_predicted += predicted;
        self.sum_measured += measured;
        self.sum_rel += rel;
        self.sum_abs_rel += rel.abs();
        self.max_abs_rel = self.max_abs_rel.max(rel.abs());
    }

    /// Mean signed relative error; negative means under-prediction.
    pub fn mean_rel(&self) -> f64 {
        self.sum_rel / self.n.max(1) as f64
    }

    /// Mean absolute relative error (the paper's Figure 3 legend metric).
    pub fn mean_abs_rel(&self) -> f64 {
        self.sum_abs_rel / self.n.max(1) as f64
    }

    /// Mean predicted / mean measured — the paper's normalized
    /// prediction (Figure 3's y-axis).
    pub fn norm_pred(&self) -> f64 {
        self.sum_predicted / self.sum_measured.max(f64::MIN_POSITIVE)
    }
}

/// Mean absolute relative error above which a row is flagged as an
/// outlier in [`ResidualTracker::render`] — mispredictions at this
/// level changed selections in the paper's Figure 3 discussion.
pub const OUTLIER_THRESHOLD: f64 = 0.30;

/// Default bound on the tracker's event log: old events are dropped
/// (and counted) past this many undrained entries.
pub const DEFAULT_LOG_CAPACITY: usize = 65_536;

/// One exported `(predicted, measured)` pair, in recording order.
///
/// `matrix` is the serving-side matrix id the pair was observed on
/// (`0` when recorded through [`ResidualTracker::record`], which has no
/// matrix context); `seq` grows by one per recorded pair, so a consumer
/// can detect drops across drains.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualEvent {
    /// Monotonic per-tracker sequence number (starts at 0).
    pub seq: u64,
    /// Serving-side matrix id; 0 for matrix-less recordings.
    pub matrix: u64,
    /// The prediction population the pair belongs to.
    pub key: ResidualKey,
    /// Predicted time, seconds.
    pub predicted: f64,
    /// Measured time, seconds.
    pub measured: f64,
}

impl ResidualEvent {
    /// Absolute relative error `|pred - meas| / meas` — the detector
    /// statistic.
    pub fn abs_rel(&self) -> f64 {
        ((self.predicted - self.measured) / self.measured).abs()
    }
}

/// Everything under the tracker's one mutex: the per-key aggregates and
/// the bounded export log.
#[derive(Debug)]
struct Inner {
    map: BTreeMap<ResidualKey, ResidualStats>,
    log: VecDeque<ResidualEvent>,
    log_capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// Accumulates `(predicted, measured)` pairs per [`ResidualKey`].
///
/// Thread-safe; recording takes a short mutex (this is bookkeeping for
/// the measurement harness, not the SpMV hot path).
#[derive(Debug)]
pub struct ResidualTracker {
    inner: Mutex<Inner>,
}

impl Default for ResidualTracker {
    fn default() -> Self {
        Self::with_log_capacity(DEFAULT_LOG_CAPACITY)
    }
}

impl ResidualTracker {
    /// An empty tracker with the default event-log bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tracker whose event log keeps at most `capacity`
    /// undrained events (minimum 1).
    pub fn with_log_capacity(capacity: usize) -> Self {
        ResidualTracker {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                log: VecDeque::new(),
                log_capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds one `(predicted, measured)` pair into `key`'s statistics.
    ///
    /// Pairs with non-finite or non-positive `measured` are ignored (a
    /// failed measurement must not poison the aggregate).
    pub fn record(&self, key: &ResidualKey, predicted: f64, measured: f64) {
        self.record_for(0, key, predicted, measured);
    }

    /// [`ResidualTracker::record`], tagged with the serving-side matrix
    /// id the pair was observed on. The pair lands in both the per-key
    /// aggregate and the bounded export log.
    pub fn record_for(&self, matrix: u64, key: &ResidualKey, predicted: f64, measured: f64) {
        if !measured.is_finite() || measured <= 0.0 || !predicted.is_finite() {
            return;
        }
        let mut inner = self.lock();
        inner
            .map
            .entry(key.clone())
            .or_default()
            .fold(predicted, measured);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.log.len() == inner.log_capacity {
            inner.log.pop_front();
            inner.dropped += 1;
        }
        inner.log.push_back(ResidualEvent {
            seq,
            matrix,
            key: key.clone(),
            predicted,
            measured,
        });
    }

    /// Takes every undrained event, oldest first. Intended for a single
    /// consumer (the background tuner); concurrent drains partition the
    /// stream between callers.
    pub fn drain_events(&self) -> Vec<ResidualEvent> {
        self.lock().log.drain(..).collect()
    }

    /// Events evicted from the log before any consumer drained them.
    pub fn events_dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// The statistics recorded for `key`, if any.
    pub fn stats(&self, key: &ResidualKey) -> Option<ResidualStats> {
        self.lock().map.get(key).copied()
    }

    /// All rows, sorted by key.
    pub fn rows(&self) -> Vec<(ResidualKey, ResidualStats)> {
        self.lock()
            .map
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Total number of recorded pairs.
    pub fn len(&self) -> usize {
        self.lock().map.values().map(|s| s.n as usize).sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets every recorded pair, drops undrained events, and clears
    /// the drop counter. Sequence numbers keep growing (they identify
    /// pairs for the log's whole lifetime).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.log.clear();
        inner.dropped = 0;
    }

    /// Renders the per-(format, shape, kernel, model) residual table,
    /// worst mean absolute relative error first; rows beyond
    /// [`OUTLIER_THRESHOLD`] are flagged `MISS`.
    pub fn render(&self) -> String {
        let mut rows = self.rows();
        rows.sort_by(|a, b| b.1.mean_abs_rel().total_cmp(&a.1.mean_abs_rel()));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "prediction residuals ({} pairs): pred/real, mean |rel err|, worst |rel err|",
            rows.iter().map(|(_, s)| s.n).sum::<u64>()
        );
        let _ = writeln!(
            out,
            "  {:<10} {:<6} {:<7} {:<8} {:>6} {:>10} {:>10} {:>10}  flag",
            "format", "shape", "kernel", "model", "n", "pred/real", "mean|rel|", "max|rel|"
        );
        for (k, s) in &rows {
            let flag = if s.mean_abs_rel() > OUTLIER_THRESHOLD {
                "MISS"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<6} {:<7} {:<8} {:>6} {:>10.3} {:>9.1}% {:>9.1}%  {}",
                k.format,
                k.shape,
                k.kernel,
                k.model,
                s.n,
                s.norm_pred(),
                s.mean_abs_rel() * 100.0,
                s.max_abs_rel * 100.0,
                flag
            );
        }
        out
    }
}

/// The process-global tracker the harness binaries feed.
pub fn global() -> &'static ResidualTracker {
    static GLOBAL: OnceLock<ResidualTracker> = OnceLock::new();
    GLOBAL.get_or_init(ResidualTracker::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(model: &str) -> ResidualKey {
        ResidualKey {
            format: "BCSR".into(),
            shape: "2x2".into(),
            kernel: "scalar".into(),
            model: model.into(),
        }
    }

    #[test]
    fn stats_match_hand_computed_values() {
        let t = ResidualTracker::new();
        let k = key("MEM");
        // (pred, meas): rel errors are +0.5 and -0.2.
        t.record(&k, 1.5, 1.0);
        t.record(&k, 1.6, 2.0);
        let s = t.stats(&k).unwrap();
        assert_eq!(s.n, 2);
        assert!((s.mean_rel() - 0.15).abs() < 1e-12);
        assert!((s.mean_abs_rel() - 0.35).abs() < 1e-12);
        assert!((s.max_abs_rel - 0.5).abs() < 1e-12);
        assert!((s.norm_pred() - 3.1 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bad_measurements_are_ignored() {
        let t = ResidualTracker::new();
        let k = key("MEM");
        t.record(&k, 1.0, 0.0);
        t.record(&k, 1.0, -1.0);
        t.record(&k, 1.0, f64::NAN);
        t.record(&k, f64::INFINITY, 1.0);
        assert!(t.is_empty());
        assert_eq!(t.stats(&k), None);
    }

    #[test]
    fn render_flags_outliers_and_sorts_worst_first() {
        let t = ResidualTracker::new();
        t.record(&key("MEM"), 2.0, 1.0); // 100% off -> MISS
        t.record(&key("OVERLAP"), 1.05, 1.0); // 5% off
        let text = t.render();
        assert!(text.contains("MISS"));
        let mem_at = text.find("MEM").unwrap();
        let ovl_at = text.find("OVERLAP").unwrap();
        assert!(mem_at < ovl_at, "worst row renders first:\n{text}");
        t.reset();
        assert!(t.is_empty());
    }

    #[test]
    fn keys_partition_the_pairs() {
        let t = ResidualTracker::new();
        t.record(&key("MEM"), 1.0, 1.0);
        t.record(&key("OVERLAP"), 1.0, 1.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.stats(&key("MEM")).unwrap().n, 1);
    }

    #[test]
    fn events_export_in_order_with_matrix_tags() {
        let t = ResidualTracker::new();
        t.record_for(7, &key("MEM"), 1.5, 1.0);
        t.record(&key("MEM"), 1.0, 2.0);
        t.record_for(9, &key("OVERLAP"), 3.0, 3.0);
        let evs = t.drain_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(
            evs.iter().map(|e| (e.seq, e.matrix)).collect::<Vec<_>>(),
            vec![(0, 7), (1, 0), (2, 9)]
        );
        assert!((evs[0].abs_rel() - 0.5).abs() < 1e-12);
        assert_eq!(evs[2].abs_rel(), 0.0);
        // Draining empties the log but not the aggregates.
        assert!(t.drain_events().is_empty());
        assert_eq!(t.len(), 3);
        // Sequence numbers continue across drains.
        t.record_for(7, &key("MEM"), 1.0, 1.0);
        assert_eq!(t.drain_events()[0].seq, 3);
    }

    #[test]
    fn rejected_pairs_never_reach_the_log() {
        let t = ResidualTracker::new();
        t.record_for(1, &key("MEM"), 1.0, f64::NAN);
        t.record_for(1, &key("MEM"), f64::INFINITY, 1.0);
        t.record_for(1, &key("MEM"), 1.0, 0.0);
        assert!(t.drain_events().is_empty());
        assert_eq!(t.events_dropped(), 0);
    }

    #[test]
    fn bounded_log_drops_oldest_and_counts() {
        let t = ResidualTracker::with_log_capacity(3);
        for i in 0..5 {
            t.record_for(i, &key("MEM"), 1.0, 1.0);
        }
        assert_eq!(t.events_dropped(), 2);
        let evs = t.drain_events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        // reset clears the drop counter along with the log.
        t.record_for(9, &key("MEM"), 1.0, 1.0);
        t.reset();
        assert_eq!(t.events_dropped(), 0);
        assert!(t.drain_events().is_empty());
    }
}
