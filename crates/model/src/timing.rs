//! Wall-clock measurement utilities.
//!
//! All measurements in the workspace — kernel profiling for the models,
//! and the experiment harness that regenerates the paper's tables — go
//! through these helpers: adaptive iteration counts so short kernels are
//! timed over a minimum window, and a best-of-batches rule to suppress
//! scheduling noise.

use std::time::Instant;

/// Seconds taken by one invocation of `f`.
pub fn time_once<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Mean seconds per call of `f`, measured adaptively.
///
/// Iterations are doubled until one batch lasts at least `min_time`
/// seconds; the fastest of `batches` batches is reported (the standard
/// noise-suppression rule: external interference only ever slows a batch
/// down).
pub fn measure<F: FnMut()>(mut f: F, min_time: f64, batches: usize) -> f64 {
    assert!(batches > 0);
    // Find an iteration count that fills the window.
    let mut iters = 1u64;
    loop {
        let t = time_once(|| {
            for _ in 0..iters {
                f();
            }
        });
        if t >= min_time || iters >= 1 << 30 {
            if t >= min_time && iters == 1 && t > 4.0 * min_time {
                // A single call already exceeds the window comfortably.
                return t;
            }
            break;
        }
        // Aim directly for the window with a safety factor.
        let scale = (min_time / t.max(1e-9) * 1.5).max(2.0);
        iters = ((iters as f64) * scale).min(2e9) as u64;
    }
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t = time_once(|| {
            for _ in 0..iters {
                f();
            }
        });
        best = best.min(t / iters as f64);
    }
    best
}

/// Mean seconds per SpMV of `mat` over `x`, with one warm-up pass.
pub fn measure_spmv<T, M>(mat: &M, x: &[T], min_time: f64, batches: usize) -> f64
where
    T: spmv_core::Scalar,
    M: spmv_core::SpMv<T>,
{
    let mut y = vec![T::ZERO; mat.n_rows()];
    mat.spmv_into(x, &mut y); // warm-up: faults pages, fills caches
    let t = measure(|| mat.spmv_into(x, &mut y), min_time, batches);
    // Keep the result observable so the optimizer cannot delete the loop.
    std::hint::black_box(&y);
    t
}

/// Mean seconds per `k`-vector call of `mat` over `x` (which holds `k`
/// concatenated input vectors), with one warm-up pass.
pub fn measure_spmv_multi<T, M>(mat: &M, x: &[T], k: usize, min_time: f64, batches: usize) -> f64
where
    T: spmv_core::Scalar,
    M: spmv_core::SpMvMulti<T>,
{
    let mut y = vec![T::ZERO; mat.n_rows() * k];
    mat.spmv_multi_into(x, &mut y, k); // warm-up: faults pages, fills caches
    let t = measure(|| mat.spmv_multi_into(x, &mut y, k), min_time, batches);
    std::hint::black_box(&y);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_is_positive() {
        let t = time_once(|| {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn measure_returns_per_call_time() {
        // A ~50 µs busy loop: per-call time must be well under one batch
        // window.
        let t = measure(
            || {
                std::hint::black_box((0..20_000).fold(0u64, |a, b| a ^ b));
            },
            0.005,
            2,
        );
        assert!(t > 0.0);
        assert!(
            t < 0.005,
            "per-call time {t} should be far below the window"
        );
    }

    #[test]
    fn measure_spmv_multi_times_batched_calls() {
        use spmv_core::{Coo, Csr};
        let mut coo = Coo::new(100, 100);
        for i in 0..100 {
            coo.push(i, i, 1.0).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let x = vec![1.0f64; 400];
        let t = measure_spmv_multi(&csr, &x, 4, 0.002, 2);
        assert!(t > 0.0 && t < 0.002);
    }

    #[test]
    fn measure_spmv_matches_direct_timing_order() {
        use spmv_core::{Coo, Csr};
        let mut coo = Coo::new(200, 200);
        for i in 0..200 {
            coo.push(i, i, 1.0).unwrap();
            coo.push(i, (i + 7) % 200, 0.5).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let x = vec![1.0f64; 200];
        let t = measure_spmv(&csr, &x, 0.002, 2);
        assert!(t > 0.0 && t < 0.002);
    }
}
