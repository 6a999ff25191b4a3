//! Cross-crate property tests: every storage format computes the same
//! matrix-vector product as the dense reference, for arbitrary matrices,
//! every block shape, and both kernel implementations.
//!
//! Runs on the in-repo seeded harness (`tests/support/prop.rs`), not
//! proptest, so the suite builds and shrinks offline.

use blocked_spmv::core::{Coo, Csr, DenseMatrix, SpMv};
use blocked_spmv::formats::{Bcsd, BcsdDec, Bcsr, BcsrDec, Vbl};
use blocked_spmv::kernels::{BlockShape, KernelImpl, BCSD_SIZES};

#[path = "support/prop.rs"]
mod prop;
use prop::Rng;

/// Generator: a random sparse matrix as (rows, cols, triplets),
/// including duplicate coordinates (summed by construction). Dimensions
/// and entry count grow with the harness `size` so shrinking lands on
/// small matrices.
fn gen_matrix(rng: &mut Rng, size: usize) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let (n_max, m_max) = prop::scaled_dims(size, 24);
    prop::sparse_triplets(rng, n_max, m_max, 4 * size, -4.0, 4.0)
}

fn build(n: usize, m: usize, entries: &[(usize, usize, f64)]) -> (Csr<f64>, DenseMatrix<f64>) {
    let coo = Coo::from_triplets(n, m, entries.to_vec()).expect("in range");
    let dense = coo.to_dense();
    (Csr::from_coo(&coo), dense)
}

fn x_for(m: usize) -> Vec<f64> {
    (0..m).map(|i| 0.5 + (i % 5) as f64).collect()
}

fn assert_close(want: &[f64], got: &[f64], what: &str) {
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "{what}: row {i}: {a} vs {b}"
        );
    }
}

fn any_shape(rng: &mut Rng) -> BlockShape {
    let space = BlockShape::search_space();
    space[rng.index(space.len())]
}

fn any_bcsd(rng: &mut Rng) -> usize {
    BCSD_SIZES[rng.index(BCSD_SIZES.len())]
}

fn any_impl(rng: &mut Rng) -> KernelImpl {
    if rng.bool() {
        KernelImpl::Simd
    } else {
        KernelImpl::Scalar
    }
}

#[test]
fn csr_matches_dense() {
    prop::run("csr_matches_dense", 64, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let (csr, dense) = build(n, m, &entries);
        let x = x_for(m);
        assert_close(&dense.spmv(&x), &csr.spmv(&x), "CSR");
        csr.validate().unwrap();
    });
}

#[test]
fn bcsr_matches_dense_any_shape() {
    prop::run("bcsr_matches_dense_any_shape", 64, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let (csr, dense) = build(n, m, &entries);
        let shape = any_shape(rng);
        let bcsr = Bcsr::from_csr(&csr, shape, any_impl(rng));
        bcsr.validate().unwrap();
        let x = x_for(m);
        assert_close(&dense.spmv(&x), &bcsr.spmv(&x), &format!("BCSR {shape}"));
        // Padding accounting is consistent.
        assert_eq!(bcsr.nnz_stored(), csr.nnz() + bcsr.padding());
    });
}

#[test]
fn bcsd_matches_dense_any_size() {
    prop::run("bcsd_matches_dense_any_size", 64, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let (csr, dense) = build(n, m, &entries);
        let b = any_bcsd(rng);
        let bcsd = Bcsd::from_csr(&csr, b, any_impl(rng));
        bcsd.validate().unwrap();
        let x = x_for(m);
        assert_close(&dense.spmv(&x), &bcsd.spmv(&x), &format!("BCSD {b}"));
        assert_eq!(bcsd.nnz_stored(), csr.nnz() + bcsd.padding());
    });
}

#[test]
fn decomposed_match_dense_and_conserve_nnz() {
    prop::run(
        "decomposed_match_dense_and_conserve_nnz",
        64,
        |rng, size| {
            let (n, m, entries) = gen_matrix(rng, size);
            let (csr, dense) = build(n, m, &entries);
            let x = x_for(m);

            let shape = any_shape(rng);
            let dec = BcsrDec::from_csr(&csr, shape, KernelImpl::Scalar);
            assert_close(&dense.spmv(&x), &dec.spmv(&x), &format!("BCSR-DEC {shape}"));
            assert_eq!(dec.nnz_stored(), csr.nnz(), "DEC must not pad");
            assert_eq!(dec.main().padding(), 0);

            let b = any_bcsd(rng);
            let dec = BcsdDec::from_csr(&csr, b, KernelImpl::Scalar);
            assert_close(&dense.spmv(&x), &dec.spmv(&x), &format!("BCSD-DEC {b}"));
            assert_eq!(dec.nnz_stored(), csr.nnz());
        },
    );
}

#[test]
fn variable_formats_match_dense() {
    prop::run("variable_formats_match_dense", 64, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let (csr, dense) = build(n, m, &entries);
        let x = x_for(m);
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        vbl.validate().unwrap();
        assert_close(&dense.spmv(&x), &vbl.spmv(&x), "1D-VBL");
        assert_eq!(vbl.nnz_stored(), csr.nnz(), "VBL must not pad");
    });
}

#[test]
fn single_precision_formats_agree_with_double() {
    prop::run(
        "single_precision_formats_agree_with_double",
        64,
        |rng, size| {
            let (n, m, entries) = gen_matrix(rng, size);
            let (csr64, _) = build(n, m, &entries);
            let csr32 = csr64.cast::<f32>();
            let shape = any_shape(rng);
            let b64 = Bcsr::from_csr(&csr64, shape, KernelImpl::Simd);
            let b32 = Bcsr::from_csr(&csr32, shape, KernelImpl::Simd);
            let x64 = x_for(m);
            let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
            for (a, b) in b64.spmv(&x64).iter().zip(b32.spmv(&x32)) {
                assert!(
                    (*a - b as f64).abs() <= 1e-3 * (1.0 + a.abs()),
                    "precisions diverged: {a} vs {b}"
                );
            }
        },
    );
}

#[test]
fn transpose_roundtrip() {
    prop::run("transpose_roundtrip", 64, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let (csr, _) = build(n, m, &entries);
        assert_eq!(csr.transpose().transpose(), csr);
    });
}

#[test]
fn every_format_roundtrips_to_csr() {
    prop::run("every_format_roundtrips_to_csr", 64, |rng, size| {
        // from_csr followed by to_csr is the identity for every format:
        // padding is dropped, nothing else changes.
        let (n, m, entries) = gen_matrix(rng, size);
        let (csr, _) = build(n, m, &entries);
        let shape = any_shape(rng);
        let b = any_bcsd(rng);
        assert_eq!(
            Bcsr::from_csr(&csr, shape, KernelImpl::Scalar).to_csr(),
            csr,
            "BCSR {shape}"
        );
        assert_eq!(
            Bcsd::from_csr(&csr, b, KernelImpl::Scalar).to_csr(),
            csr,
            "BCSD {b}"
        );
        assert_eq!(
            BcsrDec::from_csr(&csr, shape, KernelImpl::Scalar).to_csr(),
            csr,
            "BCSR-DEC {shape}"
        );
        assert_eq!(
            BcsdDec::from_csr(&csr, b, KernelImpl::Scalar).to_csr(),
            csr,
            "BCSD-DEC {b}"
        );
        assert_eq!(Vbl::from_csr(&csr, KernelImpl::Scalar).to_csr(), csr);
    });
}

#[test]
fn working_set_is_positive_and_ordered() {
    prop::run("working_set_is_positive_and_ordered", 64, |rng, size| {
        let (n, m, entries) = gen_matrix(rng, size);
        let (csr, _) = build(n, m, &entries);
        // matrix_bytes <= working_set (which adds the vectors).
        assert!(csr.matrix_bytes() < csr.working_set_bytes());
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        assert!(vbl.matrix_bytes() < vbl.working_set_bytes());
    });
}
