//! Integration coverage for the index-compression extension through the
//! public facade: the narrow-index formats ride the persistent worker
//! pool bit-identically to their serial counterparts, and extended
//! model-driven selection over the compressed search space builds
//! formats that multiply correctly.

use blocked_spmv::core::{MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::formats::{Bcsd, Bcsr, Vbl};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::{select_extended, BlockConfig, KernelProfile, MachineProfile, Model};
use blocked_spmv::parallel::{
    bcsd_unit_weights, bcsr_unit_weights, csr_unit_weights, PinPolicy, SpmvPool,
};
#[path = "support/corpus.rs"]
mod corpus;
use corpus::pool_matrix as seeded_matrix;

fn machine() -> MachineProfile {
    MachineProfile {
        bandwidth: 5e9,
        l1_bytes: 32 * 1024,
        llc_bytes: 4 << 20,
    }
}

#[test]
fn pooled_compressed_formats_match_their_serial_twins_bitwise() {
    // Row-partitioned strips never split a row (or block row), so the
    // pooled product of each compressed format must be bit-identical to
    // the same format run serially — for every thread count.
    let csr = seeded_matrix(11);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 0.5 + (i % 9) as f64 * 0.25).collect();
    let shape = BlockShape::new(2, 2).unwrap();
    for threads in [1, 2, 4] {
        for imp in KernelImpl::ALL {
            let serial = Bcsr::from_csr_narrow(&csr, shape, imp).spmv(&x);
            let pool = SpmvPool::from_csr(
                &csr,
                threads,
                &bcsr_unit_weights(&csr, shape),
                shape.rows(),
                |s| Bcsr::from_csr_narrow(s, shape, imp),
                PinPolicy::None,
            );
            assert_eq!(pool.spmv(&x), serial, "bcsr16 {imp} x{threads}");

            let serial = Bcsd::from_csr_narrow(&csr, 4, imp).spmv(&x);
            let pool = SpmvPool::from_csr(
                &csr,
                threads,
                &bcsd_unit_weights(&csr, 4),
                4,
                |s| Bcsd::from_csr_narrow(s, 4, imp),
                PinPolicy::None,
            );
            assert_eq!(pool.spmv(&x), serial, "bcsd16 {imp} x{threads}");

            let serial = Vbl::from_csr_narrow(&csr, imp).spmv(&x);
            let pool = SpmvPool::from_csr(
                &csr,
                threads,
                &csr_unit_weights(&csr),
                1,
                |s| Vbl::from_csr_narrow(s, imp),
                PinPolicy::None,
            );
            assert_eq!(pool.spmv(&x), serial, "vbl16 {imp} x{threads}");
        }
    }
}

#[test]
fn pooled_compressed_multi_vector_matches_serial() {
    // The batched path goes through the same strips; k = 4 pooled
    // narrow-index products must equal the serial batched product
    // bit-for-bit.
    const K: usize = 4;
    let csr = seeded_matrix(23);
    let x: Vec<f64> = (0..csr.n_cols() * K)
        .map(|i| 1.0 + (i % 7) as f64 * 0.5)
        .collect();
    let shape = BlockShape::new(2, 2).unwrap();
    for imp in KernelImpl::ALL {
        let want = Bcsr::from_csr_narrow(&csr, shape, imp).spmv_multi(&x, K);
        let pool = SpmvPool::from_csr(
            &csr,
            3,
            &bcsr_unit_weights(&csr, shape),
            shape.rows(),
            |s| Bcsr::from_csr_narrow(s, shape, imp),
            PinPolicy::None,
        );
        assert_eq!(pool.spmv_multi(&x, K), want, "pooled bcsr16 {imp} multi");

        let want = Vbl::from_csr_narrow(&csr, imp).spmv_multi(&x, K);
        let pool = SpmvPool::from_csr(
            &csr,
            3,
            &csr_unit_weights(&csr),
            1,
            |s| Vbl::from_csr_narrow(s, imp),
            PinPolicy::None,
        );
        assert_eq!(pool.spmv_multi(&x, K), want, "pooled vbl16 {imp} multi");
    }
}

#[test]
fn extended_selection_picks_compressed_storage_and_multiplies() {
    // On a scattered matrix (no block structure) the compressed search
    // space should beat plain CSR on bytes alone — narrow-index blocked
    // storage or a globally sorted narrow SELL — and
    // whatever each model picks must build into a format that agrees
    // with CSR numerically.
    let csr = seeded_matrix(42);
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| 0.5 + (i % 5) as f64).collect();
    let want = csr.spmv(&x);
    let profile = KernelProfile::uniform(1e-9, 1.0);
    for model in Model::ALL {
        let cand = select_extended(model, &csr, &machine(), &profile, true);
        assert!(
            matches!(
                cand.config.block,
                BlockConfig::BcsrNarrow(_)
                    | BlockConfig::BcsdNarrow(_)
                    | BlockConfig::SellCSigmaNarrow { .. }
            ),
            "{model}: scattered matrix should select compressed storage, got {}",
            cand.config
        );
        let built = cand.config.build(&csr);
        for (g, w) in built.spmv(&x).iter().zip(&want) {
            assert!(
                (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                "{model} pick {} disagrees with CSR",
                cand.config
            );
        }
    }
}
