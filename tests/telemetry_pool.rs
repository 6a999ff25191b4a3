//! Telemetry/pool contract tests: a pool run with recording disabled
//! emits no events at all (the acceptance condition behind the "<1%
//! disabled overhead" claim — there is nothing on the hot path but one
//! relaxed atomic load), while a recorded run carries the pool's only
//! per-strip timer, the `pool.strip` span, and with it which thread
//! served each strip.

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

/// The pool never respawns a worker: over 1000 recorded calls, every
/// `pool.strip` span of one strip index comes from one thread ring.
#[test]
fn every_strip_is_served_by_one_thread_over_1000_calls() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_enabled(false);
    telemetry::clear();

    let csr = fixture(200, 200, 0x5EED);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 0.5 + (i % 4) as f64).collect();
    let want = csr.spmv(&x);
    let pool = SpmvPool::from_csr(
        &csr,
        4,
        &csr_unit_weights(&csr),
        1,
        Csr::clone,
        PinPolicy::None,
    );
    telemetry::set_enabled(true);
    for call in 0..1000 {
        assert_eq!(pool.spmv(&x), want, "call {call}");
    }
    telemetry::set_enabled(false);

    let snap = telemetry::snapshot();
    telemetry::clear();
    assert_eq!(snap.dropped, 0);
    let mut tids = vec![Vec::new(); pool.n_workers()];
    for e in snap.events.iter().filter(|e| e.name == "pool.strip") {
        tids[e.arg as usize].push(e.tid);
    }
    for (strip, seen) in tids.iter_mut().enumerate() {
        assert_eq!(seen.len(), 1000, "strip {strip}: one span per call");
        seen.dedup();
        assert_eq!(seen.len(), 1, "strip {strip} saw rings {seen:?}");
    }
}
