//! chrome://tracing (Trace Event Format) JSON export.
//!
//! The exported object is `{"traceEvents": [...], "displayTimeUnit":
//! "ns"}` with one entry per [`Event`], time-ordered:
//!
//! * spans become complete events (`"ph": "X"`) with microsecond `ts` /
//!   `dur` fields;
//! * counters and gauges become counter events (`"ph": "C"`) whose
//!   `args` carry the delta or value under the event name;
//! * instants become `"ph": "i"` marks.
//!
//! Load the file in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::{Event, EventKind, Snapshot};
use std::io::Write;
use std::path::Path;

/// Escapes a string for a JSON literal (quotes not included).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_common(out: &mut String, ev: &Event, ph: char) {
    out.push_str("{\"name\":\"");
    escape_into(out, ev.name);
    out.push_str("\",\"ph\":\"");
    out.push(ph);
    // Microsecond floats, the format's native unit; three decimals keep
    // full nanosecond resolution.
    out.push_str(&format!(
        "\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
        ev.ts_ns as f64 / 1e3,
        ev.tid
    ));
}

/// Renders one snapshot as a Trace Event Format JSON document.
pub fn chrome_json(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(128 * snap.events.len() + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in snap.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match ev.kind {
            EventKind::Span => {
                push_common(&mut out, ev, 'X');
                out.push_str(&format!(
                    ",\"dur\":{:.3},\"args\":{{\"arg\":{}}}}}",
                    ev.value as f64 / 1e3,
                    ev.arg
                ));
            }
            EventKind::Counter => {
                push_common(&mut out, ev, 'C');
                out.push_str(&format!(",\"args\":{{\"delta\":{}}}}}", ev.counter_delta()));
            }
            EventKind::Gauge => {
                push_common(&mut out, ev, 'C');
                let v = ev.gauge_value();
                if v.is_finite() {
                    out.push_str(&format!(",\"args\":{{\"value\":{v}}}}}"));
                } else {
                    out.push_str(",\"args\":{\"value\":null}}");
                }
            }
            EventKind::Instant => {
                push_common(&mut out, ev, 'i');
                out.push_str(&format!(",\"s\":\"t\",\"args\":{{\"arg\":{}}}}}", ev.arg));
            }
        }
    }
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped\":{},\"threads\":{}}}}}",
        snap.dropped, snap.threads
    ));
    out
}

/// Takes a [`crate::snapshot`] and writes it to `path` as chrome-trace
/// JSON.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> std::io::Result<()> {
    let json = chrome_json(&crate::snapshot());
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn snap_of(events: Vec<Event>) -> Snapshot {
        Snapshot {
            events,
            dropped: 2,
            threads: 1,
        }
    }

    fn ev(kind: EventKind, ts: u64, value: u64) -> Event {
        Event {
            name: "chrome.test",
            kind,
            tid: 3,
            ts_ns: ts,
            value,
            arg: 7,
        }
    }

    #[test]
    fn exported_json_parses_back() {
        let snap = snap_of(vec![
            ev(EventKind::Span, 1000, 500),
            ev(EventKind::Counter, 1200, (-4i64) as u64),
            ev(EventKind::Gauge, 1300, 2.5f64.to_bits()),
            ev(EventKind::Instant, 1400, 0),
        ]);
        let doc = Value::parse(&chrome_json(&snap)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 4);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(phases, ["X", "C", "C", "i"]);
        let span = &events[0];
        assert_eq!(span.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(0.5));
        assert_eq!(span.get("tid").and_then(Value::as_f64), Some(3.0));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("delta"))
                .and_then(Value::as_f64),
            Some(-4.0)
        );
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Value::as_f64),
            Some(2.5)
        );
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn names_are_escaped() {
        let mut e = ev(EventKind::Instant, 0, 0);
        e.name = "quote\"back\\slash\n";
        let json = chrome_json(&snap_of(vec![e]));
        let doc = Value::parse(&json).expect("escaped JSON parses");
        let name = doc.get("traceEvents").and_then(Value::as_array).unwrap()[0]
            .get("name")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert_eq!(name, "quote\"back\\slash\n");
    }

    #[test]
    fn non_finite_gauges_export_as_null() {
        let snap = snap_of(vec![ev(EventKind::Gauge, 0, f64::NAN.to_bits())]);
        let doc = Value::parse(&chrome_json(&snap)).expect("valid JSON");
        let v = doc.get("traceEvents").and_then(Value::as_array).unwrap()[0]
            .get("args")
            .and_then(|a| a.get("value"))
            .cloned();
        assert_eq!(v, Some(Value::Null));
    }
}
