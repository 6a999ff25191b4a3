//! Telemetry/pool contract tests: a pool run with recording disabled
//! emits no events at all (the acceptance condition behind the "<1%
//! disabled overhead" claim — there is nothing on the hot path but one
//! relaxed atomic load), while the pool's own [`StripReport`] feedback
//! keeps working either way, because load-balance measurement is a
//! functional input, not observability.

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv};
use blocked_spmv::parallel::{csr_unit_weights, PinPolicy, SpmvPool};
use blocked_spmv::telemetry;
use std::sync::Mutex;

/// The telemetry rings and the enabled flag are process-global; tests in
/// this binary run on parallel threads, so every test takes this lock
/// and restores the disabled state before releasing it.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn fixture(n: usize, m: usize, seed: u64) -> Csr<f64> {
    let mut coo = Coo::new(n, m);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n {
        for _ in 0..1 + (next() as usize) % 5 {
            let _ = coo.push(i, (next() as usize) % m, 1.0 + (next() % 7) as f64);
        }
    }
    Csr::from_coo(&coo)
}

#[test]
fn disabled_pool_run_emits_zero_events() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_enabled(false);
    telemetry::clear();

    let csr = fixture(128, 128, 0xABC);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 1.0 + (i % 3) as f64).collect();
    let want = csr.spmv(&x);
    let pool = SpmvPool::from_csr(
        &csr,
        2,
        &csr_unit_weights(&csr),
        1,
        Csr::clone,
        PinPolicy::None,
    );
    for _ in 0..50 {
        assert_eq!(pool.spmv(&x), want);
    }

    let snap = telemetry::snapshot();
    assert_eq!(
        snap.events.len(),
        0,
        "disabled run recorded events: {:?}",
        &snap.events[..snap.events.len().min(5)]
    );
    assert_eq!(snap.dropped, 0, "disabled run counted drops");
}

#[test]
fn enabling_recording_captures_epoch_and_strip_spans() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_enabled(false);
    telemetry::clear();

    let csr = fixture(96, 96, 0xD1CE);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 1.0 + (i % 3) as f64).collect();
    let pool = SpmvPool::from_csr(
        &csr,
        2,
        &csr_unit_weights(&csr),
        1,
        Csr::clone,
        PinPolicy::None,
    );
    telemetry::set_enabled(true);
    let calls = 7;
    for _ in 0..calls {
        let _ = pool.spmv(&x);
    }
    telemetry::set_enabled(false);

    let snap = telemetry::snapshot();
    let epochs = snap
        .events
        .iter()
        .filter(|e| e.name == "pool.epoch")
        .count();
    let strips = snap
        .events
        .iter()
        .filter(|e| e.name == "pool.strip")
        .count();
    assert_eq!(epochs, calls, "one pool.epoch span per call");
    assert_eq!(
        strips,
        calls * pool.n_workers(),
        "one pool.strip span per worker per call"
    );
    telemetry::clear();
}

#[test]
fn strip_report_medians_stay_nonzero_and_stable_with_telemetry_off() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_enabled(false);
    telemetry::clear();

    let csr = fixture(200, 200, 0x5EED);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 0.5 + (i % 4) as f64).collect();
    let pool = SpmvPool::from_csr(
        &csr,
        2,
        &csr_unit_weights(&csr),
        1,
        Csr::clone,
        PinPolicy::None,
    );

    for _ in 0..1000 {
        let _ = pool.spmv(&x);
    }
    let reports = pool.strip_reports();
    assert!(!reports.is_empty());
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.iterations, 1000, "strip {i}");
        assert!(r.min_ns > 0, "strip {i}: min_ns is zero after 1000 calls");
        assert!(
            r.median_ns > 0,
            "strip {i}: median_ns is zero after 1000 calls"
        );
        assert!(
            r.min_ns <= r.median_ns,
            "strip {i}: min {} above median {}",
            r.min_ns,
            r.median_ns
        );
        assert!(!r.respawned, "strip {i} respawned");
    }

    // Stability: another 1000 calls keep the median within an order of
    // magnitude of the first reading — the windowed median tracks the
    // steady state instead of drifting toward outliers. (Wide bound:
    // single-core CI boxes schedule noisily.)
    let before: Vec<u64> = reports.iter().map(|r| r.median_ns).collect();
    for _ in 0..1000 {
        let _ = pool.spmv(&x);
    }
    for (i, r) in pool.strip_reports().iter().enumerate() {
        assert_eq!(r.iterations, 2000, "strip {i}");
        assert!(r.median_ns > 0, "strip {i}");
        let (a, b) = (before[i] as f64, r.median_ns as f64);
        assert!(
            b < 100.0 * a && a < 100.0 * b,
            "strip {i}: median drifted {a} -> {b}"
        );
    }

    // And the disabled run still recorded nothing.
    assert_eq!(telemetry::snapshot().events.len(), 0);
}
