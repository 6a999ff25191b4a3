//! Property tests for the worker pool ([`SpmvPool`]): partitions are
//! valid for arbitrary weights, and pooled SpMV equals sequential SpMV
//! for every format and thread count.
//!
//! The deterministic tests at the bottom pin pooled results bit-identical
//! to serial `Csr::spmv` for every format, also across a thousand calls
//! on one pool.
//!
//! The property tests run on the in-repo seeded harness
//! (`tests/support/prop.rs`), not proptest, so the suite builds and
//! shrinks offline.

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::formats::{Bcsd, BcsdDec, Bcsr, BcsrDec, Vbl};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::{BlockConfig, Config};
use blocked_spmv::parallel::{
    bcsd_unit_weights, bcsr_unit_weights, csr_unit_weights, partition_units, PinPolicy, SpmvPool,
};

#[path = "support/prop.rs"]
mod prop;
use prop::Rng;

/// Generator: a random sparse matrix as (rows, cols, triplets), scaled
/// by the harness `size`.
fn gen_matrix(rng: &mut Rng, size: usize) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let (n_max, m_max) = prop::scaled_dims(size, 40);
    prop::sparse_triplets(rng, n_max, m_max, 5 * size, -3.0, 3.0)
}

#[test]
fn partition_is_contiguous_and_complete() {
    prop::run("partition_is_contiguous_and_complete", 48, |rng, size| {
        let len = rng.usize_in(0, 6 * size + 2);
        let weights = rng.u64_vec(len, 0, 1000);
        let parts = rng.usize_in(1, 9);
        let ranges = partition_units(&weights, parts);
        assert_eq!(ranges.len(), parts);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, weights.len());
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    });
}

#[test]
fn partition_balances_within_one_max_unit() {
    prop::run("partition_balances_within_one_max_unit", 48, |rng, size| {
        let len = rng.usize_in(1, 5 * size + 2);
        let weights = rng.u64_vec(len, 1, 100);
        let parts = rng.usize_in(1, 5);
        let ranges = partition_units(&weights, parts);
        let total: u64 = weights.iter().sum();
        let ideal = total as f64 / parts as f64;
        let max_w = *weights.iter().max().unwrap();
        for r in &ranges {
            let w: u64 = weights[r.clone()].iter().sum();
            // The greedy scheme can overshoot the ideal share by at most
            // one unit's weight (the final part absorbs the slack).
            assert!(
                (w as f64) <= ideal + max_w as f64 + 1e-9,
                "part weight {w} vs ideal {ideal} (max unit {max_w})"
            );
        }
    });
}

#[test]
fn parallel_csr_equals_sequential() {
    prop::run("parallel_csr_equals_sequential", 48, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let threads = rng.usize_in(1, 6);
        let csr = Csr::from_coo(&Coo::from_triplets(n, m, entries).unwrap());
        let x: Vec<f64> = (0..m).map(|i| 1.0 + (i % 4) as f64).collect();
        let pool = SpmvPool::from_csr(
            &csr,
            threads,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::None,
        );
        assert_eq!(pool.spmv(&x), csr.spmv(&x));
    });
}

#[test]
fn parallel_bcsr_equals_sequential() {
    prop::run("parallel_bcsr_equals_sequential", 48, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let threads = rng.usize_in(1, 5);
        let space = BlockShape::search_space();
        let shape = space[rng.index(space.len())];
        let csr = Csr::from_coo(&Coo::from_triplets(n, m, entries).unwrap());
        let x: Vec<f64> = (0..m).map(|i| 1.0 + (i % 4) as f64).collect();
        let want = csr.spmv(&x);
        let pool = SpmvPool::from_csr(
            &csr,
            threads,
            &bcsr_unit_weights(&csr, shape),
            shape.rows(),
            move |s| Bcsr::from_csr(s, shape, KernelImpl::Scalar),
            PinPolicy::None,
        );
        let got = pool.spmv(&x);
        for (a, g) in want.iter().zip(&got) {
            assert!((a - g).abs() < 1e-9);
        }
        // Strips must respect block-row alignment.
        for rows in pool.strip_rows() {
            assert_eq!(rows.start % shape.rows(), 0);
        }
    });
}

#[test]
fn parallel_bcsd_equals_sequential() {
    prop::run("parallel_bcsd_equals_sequential", 48, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let threads = rng.usize_in(1, 5);
        let b = rng.usize_in(2, 9);
        let csr = Csr::from_coo(&Coo::from_triplets(n, m, entries).unwrap());
        let x: Vec<f64> = (0..m).map(|i| 1.0 + (i % 4) as f64).collect();
        let want = csr.spmv(&x);
        let pool = SpmvPool::from_csr(
            &csr,
            threads,
            &bcsd_unit_weights(&csr, b),
            b,
            move |s| Bcsd::from_csr(s, b, KernelImpl::Simd),
            PinPolicy::None,
        );
        let got = pool.spmv(&x);
        for (a, g) in want.iter().zip(&got) {
            assert!((a - g).abs() < 1e-9);
        }
    });
}

#[test]
fn padded_weights_dominate_nnz_weights() {
    prop::run("padded_weights_dominate_nnz_weights", 48, |rng, size| {
        // Padding-aware weights are always >= the raw nonzero count of
        // the unit (§V-A accounts for "the extra zero elements").
        let (n, m, entries) = gen_matrix(rng, size);
        let space = BlockShape::search_space();
        let shape = space[rng.index(space.len())];
        let csr = Csr::from_coo(&Coo::from_triplets(n, m, entries).unwrap());
        let w = bcsr_unit_weights(&csr, shape);
        let r = shape.rows();
        for (rb, &wb) in w.iter().enumerate() {
            let nnz: u64 = (rb * r..((rb + 1) * r).min(n))
                .map(|i| csr.row_nnz(i) as u64)
                .sum();
            assert!(wb >= nnz, "unit {rb}: weight {wb} < nnz {nnz}");
        }
    });
}

// ---------------------------------------------------------------------------
// Deterministic pool tests: exact equivalence, also over repeated calls.
// ---------------------------------------------------------------------------

/// Deterministic sparse fixture (xorshift-seeded, strictly positive
/// values so every format sums the same terms and results compare
/// bitwise equal).
fn pool_fixture(n: usize, m: usize, seed: u64) -> Csr<f64> {
    let mut coo = Coo::new(n, m);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..n {
        for _ in 0..1 + (next() as usize) % 6 {
            let _ = coo.push(i, (next() as usize) % m, 1.0 + (next() % 7) as f64);
        }
    }
    Csr::from_coo(&coo)
}

/// Asserts that a pool built over `build` strips reproduces serial
/// `Csr::spmv` bit for bit at 1, 2, and 4 threads.
fn assert_pool_matches_csr<F, B>(csr: &Csr<f64>, weights: &[u64], unit: usize, build: B)
where
    F: SpMv<f64> + SpMvMulti<f64> + Send + 'static,
    B: Fn(&Csr<f64>) -> F + Clone + Send + Sync + 'static,
{
    let x: Vec<f64> = (0..csr.n_cols())
        .map(|i| 1.0 + (i % 4) as f64 * 0.5)
        .collect();
    let want = csr.spmv(&x);
    for threads in [1usize, 2, 4] {
        let pool = SpmvPool::from_csr(csr, threads, weights, unit, build.clone(), PinPolicy::None);
        // Twice: the second call reuses the already-hot epoch barrier.
        assert_eq!(pool.spmv(&x), want, "{threads} threads, first call");
        assert_eq!(pool.spmv(&x), want, "{threads} threads, second call");
    }
}

#[test]
fn pool_csr_is_bit_identical_to_serial() {
    let csr = pool_fixture(97, 53, 0xABCD);
    assert_pool_matches_csr(&csr, &csr_unit_weights(&csr), 1, Csr::clone);
}

#[test]
fn pool_bcsr_is_bit_identical_to_serial() {
    let csr = pool_fixture(97, 53, 0xBEEF);
    let shape = BlockShape::new(2, 3).unwrap();
    assert_pool_matches_csr(
        &csr,
        &bcsr_unit_weights(&csr, shape),
        shape.rows(),
        move |s| Bcsr::from_csr(s, shape, KernelImpl::Scalar),
    );
}

#[test]
fn pool_bcsr_dec_is_bit_identical_to_serial() {
    let csr = pool_fixture(90, 60, 0xC0FFEE);
    let shape = BlockShape::new(2, 2).unwrap();
    let (block, imp) = (BlockConfig::BcsrDec(shape), KernelImpl::Scalar);
    let (weights, unit) = Config { block, imp }.pool_units(&csr);
    assert_pool_matches_csr(&csr, &weights, unit, move |s| {
        BcsrDec::from_csr(s, shape, imp)
    });
}

#[test]
fn pool_bcsd_is_bit_identical_to_serial() {
    let csr = pool_fixture(97, 53, 0xD00D);
    let b = 4;
    assert_pool_matches_csr(&csr, &bcsd_unit_weights(&csr, b), b, move |s| {
        Bcsd::from_csr(s, b, KernelImpl::Scalar)
    });
}

#[test]
fn pool_bcsd_dec_is_bit_identical_to_serial() {
    let csr = pool_fixture(91, 47, 0xFACE);
    let b = 3;
    let (block, imp) = (BlockConfig::BcsdDec(b), KernelImpl::Scalar);
    let (weights, unit) = Config { block, imp }.pool_units(&csr);
    assert_pool_matches_csr(&csr, &weights, unit, move |s| BcsdDec::from_csr(s, b, imp));
}

#[test]
fn pool_vbl_is_bit_identical_to_serial() {
    let csr = pool_fixture(83, 59, 0xFEED);
    assert_pool_matches_csr(&csr, &csr_unit_weights(&csr), 1, |s| {
        Vbl::from_csr(s, KernelImpl::Scalar)
    });
}

#[test]
fn pool_simd_kernels_match_csr_closely() {
    // The SIMD kernels may reassociate the per-row sums, so they get the
    // tolerance check the scalar kernels do not need.
    let csr = pool_fixture(120, 64, 0x5EED);
    let shape = BlockShape::new(3, 2).unwrap();
    let x: Vec<f64> = (0..csr.n_cols())
        .map(|i| 1.0 + (i % 4) as f64 * 0.5)
        .collect();
    let want = csr.spmv(&x);
    for threads in [1usize, 2, 4] {
        let pool = SpmvPool::from_csr(
            &csr,
            threads,
            &bcsr_unit_weights(&csr, shape),
            shape.rows(),
            move |s| Bcsr::from_csr(s, shape, KernelImpl::Simd),
            PinPolicy::None,
        );
        let got = pool.spmv(&x);
        for (a, g) in want.iter().zip(&got) {
            assert!((a - g).abs() < 1e-9, "{threads} threads: {a} vs {g}");
        }
    }
}

#[test]
fn pool_survives_a_thousand_calls_without_respawning() {
    let csr = pool_fixture(64, 64, 0x1CE);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 1.0 + (i % 3) as f64).collect();
    let want = csr.spmv(&x);
    let pool = SpmvPool::from_csr(
        &csr,
        4,
        &csr_unit_weights(&csr),
        1,
        Csr::clone,
        PinPolicy::None,
    );
    for call in 0..1000 {
        assert_eq!(pool.spmv(&x), want, "call {call}");
    }
    assert_eq!(pool.iterations(), 1000);
    // That one thread served each strip throughout is read from the
    // `pool.strip` spans in tests/telemetry_pool.rs, whose tests own the
    // process-global recording switch.
}
