//! Dropping an engine joins every thread it started: its dispatcher and
//! the helpers that ran its rounds' chunks.
//!
//! This file holds one test, so the process's thread count moves only
//! with the engines it creates.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use spmv_core::{Coo, Csr, SpMv};
use spmv_model::Config;
use spmv_serve::{EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Polls until the thread count falls to `want`: a joined thread may
/// still be counted for a moment after `join` returns.
fn settle_to(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads();
        if now <= want || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn diag(n: usize, scale: f64) -> Csr<f64> {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, scale + i as f64).unwrap();
    }
    Csr::from_coo(&coo)
}

#[test]
fn dropping_an_engine_joins_its_dispatcher_and_helpers() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let a = diag(31, 1.0);
    let b = diag(17, 2.0);
    let registry = Arc::new(Registry::new());
    registry.publish(MatrixId(1), PreparedMatrix::from_config(Config::CSR, &a));
    registry.publish(MatrixId(2), PreparedMatrix::from_config(Config::CSR, &b));
    let before = threads();
    for _ in 0..20 {
        assert_eq!(settle_to(before), before);
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineOptions {
                start_paused: true,
                ..EngineOptions::default()
            },
        );
        // One round of four chunks: 2 + 1 for each matrix.
        let mut tickets = Vec::new();
        for t in 0..3 {
            let xa = vec![1.0 + t as f64; 31];
            let xb = vec![2.0 - t as f64; 17];
            tickets.push((a.spmv(&xa), engine.submit(MatrixId(1), xa).unwrap()));
            tickets.push((b.spmv(&xb), engine.submit(MatrixId(2), xb).unwrap()));
        }
        engine.resume();
        for (want, t) in tickets {
            assert_eq!(t.wait().unwrap(), want);
        }
        // The dispatcher and the helpers the round started are alive.
        let helpers = 3.min(cpus - 1);
        assert_eq!(threads(), before + 1 + helpers);
    }
    assert_eq!(settle_to(before), before);
}
