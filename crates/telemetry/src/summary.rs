//! Flat-text aggregation of a [`Snapshot`].
//!
//! One line per (event name, kind): spans aggregate count / total /
//! mean / min / max duration, counters sum their deltas, gauges report
//! last / min / max. This is the quick-look exporter — the chrome trace
//! ([`crate::chrome`]) is for timelines, the summary for "what did this
//! run spend its time on".

use crate::{EventKind, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Aggregated statistics for one event name.
#[derive(Debug, Clone, PartialEq)]
pub enum NameStats {
    /// Aggregate over span durations (nanoseconds).
    Span {
        /// Number of spans.
        count: u64,
        /// Summed duration.
        total_ns: u64,
        /// Shortest span.
        min_ns: u64,
        /// Longest span.
        max_ns: u64,
    },
    /// Sum of counter deltas and sample count.
    Counter {
        /// Number of recorded deltas.
        count: u64,
        /// Their sum.
        sum: i64,
    },
    /// Last / extreme gauge samples.
    Gauge {
        /// Number of samples.
        count: u64,
        /// The most recent sample.
        last: f64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
    },
    /// Number of instant marks.
    Instant {
        /// Number of marks.
        count: u64,
    },
}

/// Aggregates a snapshot by event name (sorted).
pub fn aggregate(snap: &Snapshot) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for ev in &snap.events {
        match ev.kind {
            EventKind::Span => {
                let e = out.entry(ev.name).or_insert(NameStats::Span {
                    count: 0,
                    total_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                });
                if let NameStats::Span {
                    count,
                    total_ns,
                    min_ns,
                    max_ns,
                } = e
                {
                    *count += 1;
                    *total_ns += ev.value;
                    *min_ns = (*min_ns).min(ev.value);
                    *max_ns = (*max_ns).max(ev.value);
                }
            }
            EventKind::Counter => {
                let e = out
                    .entry(ev.name)
                    .or_insert(NameStats::Counter { count: 0, sum: 0 });
                if let NameStats::Counter { count, sum } = e {
                    *count += 1;
                    *sum += ev.counter_delta();
                }
            }
            EventKind::Gauge => {
                let v = ev.gauge_value();
                let e = out.entry(ev.name).or_insert(NameStats::Gauge {
                    count: 0,
                    last: v,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                });
                if let NameStats::Gauge {
                    count,
                    last,
                    min,
                    max,
                } = e
                {
                    *count += 1;
                    *last = v;
                    *min = min.min(v);
                    *max = max.max(v);
                }
            }
            EventKind::Instant => {
                let e = out
                    .entry(ev.name)
                    .or_insert(NameStats::Instant { count: 0 });
                if let NameStats::Instant { count } = e {
                    *count += 1;
                }
            }
        }
    }
    out
}

/// Duration percentiles (nearest-rank) over every span named `name` in
/// the snapshot: one entry per requested percentile (0 < p ≤ 100), or
/// `None` when no such span was recorded.
///
/// This is what the serving layer's latency tables are built from —
/// `serve.request` spans carry one request's submit→complete latency, so
/// `span_percentiles(&snap, "serve.request", &[50.0, 95.0, 99.0])` is
/// the per-request p50/p95/p99.
pub fn span_percentiles(snap: &Snapshot, name: &str, pcts: &[f64]) -> Option<Vec<u64>> {
    let mut durs: Vec<u64> = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == name)
        .map(|e| e.value)
        .collect();
    if durs.is_empty() {
        return None;
    }
    durs.sort_unstable();
    Some(
        pcts.iter()
            .map(|&p| {
                let idx = ((p / 100.0) * durs.len() as f64).ceil() as usize;
                durs[idx.clamp(1, durs.len()) - 1]
            })
            .collect(),
    )
}

fn ns(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{:.2} ms", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{:.2} us", v as f64 / 1e3)
    } else {
        format!("{v} ns")
    }
}

/// Renders the aggregate as an aligned flat-text table.
pub fn render(snap: &Snapshot) -> String {
    let agg = aggregate(snap);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry summary: {} events, {} threads, {} dropped",
        snap.events.len(),
        snap.threads,
        snap.dropped
    );
    let name_w = agg.keys().map(|n| n.len()).max().unwrap_or(4).max(4);
    for (name, stats) in &agg {
        let detail = match stats {
            NameStats::Span {
                count,
                total_ns,
                min_ns,
                max_ns,
            } => format!(
                "span     n={count:<8} total={:<12} mean={:<12} min={:<12} max={}",
                ns(*total_ns),
                ns(total_ns / (*count).max(1)),
                ns(*min_ns),
                ns(*max_ns)
            ),
            NameStats::Counter { count, sum } => {
                format!("counter  n={count:<8} sum={sum}")
            }
            NameStats::Gauge {
                count,
                last,
                min,
                max,
            } => format!("gauge    n={count:<8} last={last:<12.6} min={min:<12.6} max={max:.6}"),
            NameStats::Instant { count } => format!("instant  n={count}"),
        };
        let _ = writeln!(out, "  {name:<name_w$}  {detail}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn ev(name: &'static str, kind: EventKind, value: u64) -> Event {
        Event {
            name,
            kind,
            tid: 0,
            ts_ns: 0,
            value,
            arg: 0,
        }
    }

    #[test]
    fn aggregates_spans_counters_gauges() {
        let snap = Snapshot {
            events: vec![
                ev("s", EventKind::Span, 100),
                ev("s", EventKind::Span, 300),
                ev("c", EventKind::Counter, 5u64),
                ev("c", EventKind::Counter, (-2i64) as u64),
                ev("g", EventKind::Gauge, 1.5f64.to_bits()),
                ev("g", EventKind::Gauge, 0.5f64.to_bits()),
                ev("i", EventKind::Instant, 0),
            ],
            dropped: 0,
            threads: 1,
        };
        let agg = aggregate(&snap);
        assert_eq!(
            agg["s"],
            NameStats::Span {
                count: 2,
                total_ns: 400,
                min_ns: 100,
                max_ns: 300
            }
        );
        assert_eq!(agg["c"], NameStats::Counter { count: 2, sum: 3 });
        assert_eq!(
            agg["g"],
            NameStats::Gauge {
                count: 2,
                last: 0.5,
                min: 0.5,
                max: 1.5
            }
        );
        assert_eq!(agg["i"], NameStats::Instant { count: 1 });
        let text = render(&snap);
        assert!(text.contains("7 events"));
        assert!(text.contains("sum=3"));
    }

    #[test]
    fn render_handles_empty_snapshot() {
        let text = render(&Snapshot::default());
        assert!(text.contains("0 events"));
    }

    #[test]
    fn span_percentiles_are_nearest_rank() {
        let events: Vec<Event> = (1..=100)
            .map(|v| ev("lat", EventKind::Span, v))
            .chain([ev("other", EventKind::Span, 9999)])
            .chain([ev("lat", EventKind::Counter, 5)]) // ignored: not a span
            .collect();
        let snap = Snapshot {
            events,
            dropped: 0,
            threads: 1,
        };
        let p = span_percentiles(&snap, "lat", &[50.0, 95.0, 99.0, 100.0]).unwrap();
        assert_eq!(p, vec![50, 95, 99, 100]);
        assert_eq!(span_percentiles(&snap, "missing", &[50.0]), None);
        // A single sample answers every percentile with itself.
        let p1 = span_percentiles(&snap, "other", &[1.0, 50.0, 99.0]).unwrap();
        assert_eq!(p1, vec![9999, 9999, 9999]);
    }
}
