//! End-to-end trace validation: record real nested spans across two OS
//! threads through the public facade, export chrome-trace JSON, parse it
//! back with the in-repo JSON parser, and check the schema — phase tags,
//! time ordering, span nesting, and thread ids. The spans `prepare` and
//! the serving engine emit are checked the same way. Plus hand-computed
//! checks on the prediction-residual tracker that `modeleval` feeds.

use blocked_spmv::gen::GenSpec;
use blocked_spmv::model::{select_extended, Config, KernelProfile, MachineProfile, Model};
use blocked_spmv::parallel::PinPolicy;
use blocked_spmv::serve::{EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine};
use blocked_spmv::telemetry::{self, json::Value, EventKind};
use std::sync::{Arc, Mutex};

/// Telemetry state is process-global; serialize tests and leave
/// recording disabled on exit.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn spin_ns(ns: u64) {
    let t0 = std::time::Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[test]
fn exported_chrome_trace_is_schema_valid() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    telemetry::clear();

    // Nested spans on this thread; a third span on a second thread.
    {
        let _outer = telemetry::span_with("trace.outer", 11);
        spin_ns(20_000);
        {
            let _inner = telemetry::span_with("trace.inner", 22);
            spin_ns(20_000);
        }
        spin_ns(20_000);
    }
    telemetry::counter("trace.count", -3);
    telemetry::gauge("trace.gauge", 1.5);
    telemetry::instant("trace.mark", 9);
    std::thread::spawn(|| {
        let _s = telemetry::span("trace.worker");
        spin_ns(10_000);
    })
    .join()
    .unwrap();
    telemetry::set_enabled(false);

    let snap = telemetry::snapshot();
    let doc = Value::parse(&telemetry::chrome::chrome_json(&snap)).expect("exported JSON parses");
    telemetry::clear();

    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), snap.events.len());
    assert_eq!(events.len(), 6, "outer+inner+worker spans, C, C, i");

    // Every event carries the common schema; ts is ascending (snapshot
    // order is (ts, tid)); pid is the fixed process id.
    let mut last_ts = f64::NEG_INFINITY;
    for e in events {
        assert!(e.get("name").and_then(Value::as_str).is_some());
        let ph = e.get("ph").and_then(Value::as_str).unwrap();
        assert!(matches!(ph, "X" | "C" | "i"), "unknown phase {ph}");
        assert_eq!(e.get("pid").and_then(Value::as_f64), Some(1.0));
        assert!(e.get("tid").and_then(Value::as_f64).is_some());
        let ts = e.get("ts").and_then(Value::as_f64).unwrap();
        assert!(ts >= 0.0 && ts >= last_ts, "ts went backwards: {ts}");
        last_ts = ts;
        if ph == "X" {
            assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        }
    }

    let find = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no event named {name}"))
    };
    let interval = |e: &Value| {
        let ts = e.get("ts").and_then(Value::as_f64).unwrap();
        let dur = e.get("dur").and_then(Value::as_f64).unwrap();
        (ts, ts + dur)
    };

    // Nesting: inner strictly inside outer (0.01 us slack for the
    // 3-decimal microsecond rendering), on the same thread.
    let (outer, inner) = (find("trace.outer"), find("trace.inner"));
    let (o0, o1) = interval(outer);
    let (i0, i1) = interval(inner);
    assert!(
        o0 - 0.01 <= i0 && i1 <= o1 + 0.01,
        "inner [{i0}, {i1}] escapes outer [{o0}, {o1}]"
    );
    let tid_of = |e: &Value| e.get("tid").and_then(Value::as_f64).unwrap();
    assert_eq!(tid_of(outer), tid_of(inner));

    // The spawned thread's span landed on a different ring/tid.
    assert_ne!(tid_of(find("trace.worker")), tid_of(outer));

    // Args carry the instrumentation payloads.
    let arg_of = |e: &Value| {
        e.get("args")
            .and_then(|a| a.get("arg"))
            .and_then(Value::as_f64)
            .unwrap()
    };
    assert_eq!(arg_of(outer), 11.0);
    assert_eq!(arg_of(inner), 22.0);
    assert_eq!(
        find("trace.count")
            .get("args")
            .and_then(|a| a.get("delta"))
            .and_then(Value::as_f64),
        Some(-3.0)
    );
    assert_eq!(
        find("trace.gauge")
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(Value::as_f64),
        Some(1.5)
    );
    assert_eq!(
        find("trace.mark").get("ph").and_then(Value::as_str),
        Some("i")
    );

    // Snapshot bookkeeping made it into otherData.
    let other = doc.get("otherData").expect("otherData");
    assert_eq!(other.get("dropped").and_then(Value::as_f64), Some(0.0));
    assert!(other.get("threads").and_then(Value::as_f64).unwrap() >= 2.0);
}

#[test]
fn prepare_spans_ranking_then_conversion() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let csr = GenSpec::Stencil2d { nx: 30, ny: 30 }.build(0);
    let nnz = csr.nnz() as u64;
    let (machine, profile) = (
        MachineProfile::paper_testbed(),
        KernelProfile::uniform(1e-9, 0.5),
    );
    telemetry::set_enabled(true);
    telemetry::clear();
    let serial = PreparedMatrix::prepare(&csr, Model::Overlap, &machine, &profile, true);
    let choice = select_extended(Model::Overlap, &csr, &machine, &profile, true);
    let pooled = PreparedMatrix::from_config_pooled(choice.config, &csr, 2, PinPolicy::None)
        .with_selection(Model::Overlap, choice.predicted);
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    telemetry::clear();
    assert_eq!(pooled.config(), serial.config());
    drop(pooled);

    let spans = |name: &str| -> Vec<telemetry::Event> {
        snap.events
            .iter()
            .filter(|e| e.name == name && e.kind == EventKind::Span)
            .copied()
            .collect()
    };
    let inside = |outer: &telemetry::Event, inner: &telemetry::Event| {
        inner.ts_ns >= outer.ts_ns && inner.ts_ns + inner.value <= outer.ts_ns + outer.value
    };
    // `prepare` is one `serve.prepare` span (arg = nonzeros) on the
    // calling thread, enclosing its ranking; the pooled path ranks on
    // its own, outside any prepare span.
    let prepares = spans("serve.prepare");
    let rank = spans("model.rank");
    assert_eq!(prepares.len(), 1);
    assert_eq!(rank.len(), 2);
    let prepare = &prepares[0];
    assert_eq!(prepare.arg, nnz);
    assert_eq!(rank[0].tid, prepare.tid);
    assert!(inside(prepare, &rank[0]), "model.rank outside its prepare");
    assert!(!inside(prepare, &rank[1]));
    // The serial prepare converts the whole matrix once the ranking is
    // done, inside its span; `from_config_pooled` converts one strip per
    // worker, after the second ranking.
    let builds = spans("formats.build");
    let (whole, strips) = builds.split_first().expect("formats.build spans");
    assert_eq!(whole.arg, nnz);
    assert_eq!(whole.tid, prepare.tid);
    assert!(inside(prepare, whole));
    assert!(whole.ts_ns >= rank[0].ts_ns + rank[0].value);
    assert_eq!(strips.len(), 2);
    assert_eq!(strips.iter().map(|e| e.arg).sum::<u64>(), nnz);
    for strip in strips {
        assert!(!inside(prepare, strip), "strip build inside serve.prepare");
        assert!(strip.ts_ns >= rank[1].ts_ns + rank[1].value);
    }
}

#[test]
fn prepare_runs_each_structural_pass_once_inside_its_ranking() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let csr = GenSpec::Stencil2d { nx: 30, ny: 30 }.build(0);
    let (machine, profile) = (
        MachineProfile::paper_testbed(),
        KernelProfile::uniform(1e-9, 0.5),
    );
    telemetry::set_enabled(true);
    telemetry::clear();
    let _prepared = PreparedMatrix::prepare(&csr, Model::Overlap, &machine, &profile, true);
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    telemetry::clear();

    let spans = |name: &str| -> Vec<telemetry::Event> {
        snap.events
            .iter()
            .filter(|e| e.name == name && e.kind == EventKind::Span)
            .copied()
            .collect()
    };
    let rank = spans("model.rank");
    assert_eq!(rank.len(), 1);
    let rank = rank[0];
    // One lane pass per block width (argument: the width), one over the
    // diagonals, and one sort per effective SELL window (argument: the
    // window; σ = 900 is the whole 900-row matrix), each once and inside
    // the ranking, on its thread.
    let args = |name: &str| -> Vec<u64> {
        let passes = spans(name);
        for pass in &passes {
            assert_eq!(pass.tid, rank.tid, "{name}");
            assert!(
                pass.ts_ns >= rank.ts_ns && pass.ts_ns + pass.value <= rank.ts_ns + rank.value,
                "{name} outside model.rank"
            );
        }
        let mut args: Vec<u64> = passes.iter().map(|e| e.arg).collect();
        args.sort_unstable();
        args
    };
    assert_eq!(args("model.stats.bcsr"), [1, 2, 3, 4, 5, 6, 7, 8]);
    assert_eq!(args("model.stats.bcsd").len(), 1);
    assert_eq!(args("model.stats.sell"), [1, 2, 4, 8, 64, 900]);
}

#[test]
fn serve_spans_attribute_every_request() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let csr = GenSpec::Stencil2d { nx: 20, ny: 20 }.build(0);
    let registry = Arc::new(Registry::new());
    let id = MatrixId(5);
    registry.publish(id, PreparedMatrix::from_config(Config::CSR, &csr));
    let x = |t: usize| -> Vec<f64> { (0..400).map(|i| (i % 7 + t) as f64).collect() };
    telemetry::set_enabled(true);
    telemetry::clear();
    {
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        // Five requests queued while paused run as one round of a k = 4
        // and a k = 1 chunk; three more run alone.
        let tickets: Vec<_> = (0..5).map(|t| engine.submit(id, x(t)).unwrap()).collect();
        engine.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        for t in 5..8 {
            engine.submit_wait(id, x(t)).unwrap();
        }
        // Dropping the engine joins the threads that recorded the spans.
    }
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    telemetry::clear();

    let spans = |name: &str| -> Vec<telemetry::Event> {
        let mut spans: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == name && e.kind == EventKind::Span)
            .copied()
            .collect();
        spans.sort_by_key(|e| (e.ts_ns, e.value));
        spans
    };
    let end = |e: &telemetry::Event| e.ts_ns + e.value;
    let inside = |outer: &telemetry::Event, ts: u64| outer.ts_ns <= ts && ts <= end(outer);
    // One `serve.request` and one `serve.wait` per request, both from
    // its submit (arg = matrix id); the wait is no longer than the
    // request.
    let (requests, waits) = (spans("serve.request"), spans("serve.wait"));
    assert_eq!((requests.len(), waits.len()), (8, 8));
    for (request, wait) in requests.iter().zip(&waits) {
        assert_eq!((request.arg, wait.arg), (id.0, id.0));
        assert_eq!(wait.ts_ns, request.ts_ns, "a wait starts at its submit");
        assert!(wait.value <= request.value, "wait outlasts its request");
    }
    // Every `serve.dispatch` lies in a `serve.batch` of the same width on
    // its thread, and the batches cover the eight requests.
    let (batches, dispatches) = (spans("serve.batch"), spans("serve.dispatch"));
    assert_eq!(batches.len(), dispatches.len());
    assert_eq!(batches.iter().map(|b| b.arg).sum::<u64>(), 8);
    assert!(batches.iter().any(|b| b.arg == 4));
    let batch_of = |d: &telemetry::Event| {
        batches
            .iter()
            .find(|b| b.tid == d.tid && inside(b, d.ts_ns) && inside(b, end(d)))
            .unwrap_or_else(|| panic!("serve.dispatch at {} outside any serve.batch", d.ts_ns))
    };
    for d in &dispatches {
        assert_eq!(batch_of(d).arg, d.arg);
    }
    // A wait ends, on the thread that runs its chunk, before that
    // chunk's dispatch starts.
    for wait in &waits {
        let runs = dispatches.iter().any(|d| {
            let b = batch_of(d);
            b.tid == wait.tid && inside(b, end(wait)) && end(wait) <= d.ts_ns
        });
        assert!(runs, "serve.wait at {} ends outside its chunk", wait.ts_ns);
    }
}

#[test]
fn residual_tracker_matches_hand_computed_stats() {
    use blocked_spmv::telemetry::residual::{ResidualKey, ResidualTracker};

    let tracker = ResidualTracker::new();
    let key = ResidualKey {
        format: "BCSR".to_string(),
        shape: "2x3".to_string(),
        kernel: "scalar".to_string(),
        model: "MEM".to_string(),
    };
    // Two clean pairs: rel errors +1.0 and -0.5.
    tracker.record(&key, 2.0, 1.0);
    tracker.record(&key, 0.5, 1.0);
    // Garbage pairs the tracker must ignore: non-positive or non-finite
    // measured time, non-finite prediction.
    tracker.record(&key, 1.0, 0.0);
    tracker.record(&key, 1.0, -3.0);
    tracker.record(&key, 1.0, f64::NAN);
    tracker.record(&key, f64::INFINITY, 1.0);

    let s = tracker.stats(&key).expect("stats for key");
    assert_eq!(s.n, 2);
    assert!((s.sum_predicted - 2.5).abs() < 1e-12);
    assert!((s.sum_measured - 2.0).abs() < 1e-12);
    assert!(
        (s.mean_rel() - 0.25).abs() < 1e-12,
        "mean_rel {}",
        s.mean_rel()
    );
    assert!(
        (s.mean_abs_rel() - 0.75).abs() < 1e-12,
        "mean_abs_rel {}",
        s.mean_abs_rel()
    );
    assert!((s.max_abs_rel - 1.0).abs() < 1e-12);
    assert!(
        (s.norm_pred() - 1.25).abs() < 1e-12,
        "norm_pred {}",
        s.norm_pred()
    );

    // A second, accurate key: 2% over-prediction.
    let good = ResidualKey {
        format: "CSR".to_string(),
        shape: "-".to_string(),
        kernel: "scalar".to_string(),
        model: "OVERLAP".to_string(),
    };
    tracker.record(&good, 1.02, 1.0);
    // len() counts recorded pairs across keys, not keys.
    assert_eq!(tracker.len(), 3);

    // Rendered table: worst mean_abs_rel first, outliers (>30%) flagged.
    let table = tracker.render();
    let bcsr_at = table.find("BCSR").expect("BCSR row");
    let csr_at = table.find("OVERLAP").expect("CSR row");
    assert!(bcsr_at < csr_at, "rows not sorted worst-first:\n{table}");
    assert!(
        table.contains("MISS"),
        "75% mean error not flagged:\n{table}"
    );

    tracker.reset();
    assert!(tracker.is_empty());
    assert!(tracker.stats(&key).is_none());
}
