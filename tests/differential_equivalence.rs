//! Seeded differential equivalence suite.
//!
//! 200 seeded random matrices (the shared `support/corpus.rs` corpus)
//! spanning uniform densities, banded structure, 2-D block clusters,
//! and diagonal runs, with injected dense-row / empty-tail pathologies.
//! Every storage format's single-vector product (`spmv`) and batched
//! product (`spmv_multi`, k = 4) is checked against a naive triplet-list
//! reference accumulated in `f64`, for scalar and SIMD kernels and both
//! precisions, within ULP-scaled bounds.
//!
//! Unlike `format_equivalence.rs` this suite is plain seeded `#[test]`
//! fns — no proptest — so it runs in minimal environments and its
//! failures reproduce from the seed alone.

use blocked_spmv::core::{Csr, Precision, Scalar, SpMvMulti};
use blocked_spmv::formats::{Bcsd, BcsdDec, Bcsr, BcsrDec, Vbl};
use blocked_spmv::kernels::simd::SimdScalar;
use blocked_spmv::kernels::{BlockShape, KernelImpl};
#[path = "support/corpus.rs"]
mod corpus;
use corpus::{structured_case, Case, SEEDS};

const K: usize = 4;

/// Naive reference: accumulate `A * X` straight off the triplet list in
/// `f64`, over inputs rounded through `T` so only accumulation order
/// differs from the formats under test. Also returns the per-entry
/// magnitude `Σ |a_ij x_j|` that scales the tolerance.
fn reference<T: Scalar>(case: &Case, x: &[T], k: usize) -> (Vec<f64>, Vec<f64>) {
    let (n, m) = (case.n, case.m);
    let mut y = vec![0.0; n * k];
    let mut mag = vec![0.0; n * k];
    for t in 0..k {
        for &(i, j, v) in &case.trips {
            let v = T::from_f64(v).to_f64();
            let xj = x[t * m + j].to_f64();
            y[t * n + i] += v * xj;
            mag[t * n + i] += (v * xj).abs();
        }
    }
    (y, mag)
}

fn tolerance<T: Scalar>(mag: f64) -> f64 {
    let eps = match T::PRECISION {
        Precision::Single => f32::EPSILON as f64,
        Precision::Double => f64::EPSILON,
    };
    // ULP-scaled: worst-case reassociation over a few hundred terms.
    256.0 * eps * (1.0 + mag)
}

fn check<T: Scalar, M: SpMvMulti<T>>(
    mat: &M,
    x: &[T],
    yref: &[f64],
    mag: &[f64],
    k: usize,
    what: &str,
) {
    let got = if k == 1 {
        mat.spmv(x)
    } else {
        mat.spmv_multi(x, k)
    };
    assert_eq!(got.len(), yref.len(), "{what}: output length");
    for (idx, g) in got.iter().enumerate() {
        let (g, want) = (g.to_f64(), yref[idx]);
        assert!(
            (g - want).abs() <= tolerance::<T>(mag[idx]),
            "{what}: entry {idx}: got {g}, reference {want} (mag {})",
            mag[idx]
        );
    }
}

/// Runs every format over every seeded matrix for one precision and one
/// vector count.
fn run<T: SimdScalar>(k: usize) {
    let shapes = [
        BlockShape::new(2, 2).unwrap(),
        BlockShape::new(3, 2).unwrap(),
        BlockShape::new(1, 4).unwrap(),
    ];
    for seed in 0..SEEDS {
        let case = structured_case(seed);
        let m = case.m;
        let csr: Csr<T> = case.csr();
        let x: Vec<T> = (0..m * k)
            .map(|i| T::from_f64(0.25 * (i % 9) as f64 - 1.0))
            .collect();
        let (yref, mag) = reference(&case, &x, k);

        check(&csr, &x, &yref, &mag, k, &format!("seed {seed} csr"));
        for imp in KernelImpl::ALL {
            for shape in shapes {
                let t = format!("seed {seed} bcsr {shape} {imp}");
                check(&Bcsr::from_csr(&csr, shape, imp), &x, &yref, &mag, k, &t);
                let t = format!("seed {seed} bcsr-dec {shape} {imp}");
                check(&BcsrDec::from_csr(&csr, shape, imp), &x, &yref, &mag, k, &t);
            }
            for b in [3usize, 4, 8] {
                let t = format!("seed {seed} bcsd {b} {imp}");
                check(&Bcsd::from_csr(&csr, b, imp), &x, &yref, &mag, k, &t);
                let t = format!("seed {seed} bcsd-dec {b} {imp}");
                check(&BcsdDec::from_csr(&csr, b, imp), &x, &yref, &mag, k, &t);
            }
            let t = format!("seed {seed} vbl {imp}");
            check(&Vbl::from_csr(&csr, imp), &x, &yref, &mag, k, &t);
        }
    }
}

#[test]
fn f64_single_vector_matches_reference() {
    run::<f64>(1);
}

#[test]
fn f64_multi_vector_matches_reference() {
    run::<f64>(K);
}

#[test]
fn f32_single_vector_matches_reference() {
    run::<f32>(1);
}

#[test]
fn f32_multi_vector_matches_reference() {
    run::<f32>(K);
}

/// The batched path must equal per-column single-vector calls *bitwise*
/// for every format — the structural guarantee the multi kernels are
/// written to preserve (identical per-column accumulation order).
#[test]
fn multi_vector_is_bitwise_per_column() {
    for seed in 0..50 {
        let case = structured_case(seed);
        let (n, m) = (case.n, case.m);
        let csr: Csr<f64> = case.csr();
        let x: Vec<f64> = (0..m * K).map(|i| 0.25 * (i % 9) as f64 - 1.0).collect();
        let shape = BlockShape::new(2, 2).unwrap();
        for imp in KernelImpl::ALL {
            let formats: Vec<(&str, Box<dyn SpMvMulti<f64>>)> = vec![
                ("csr", Box::new(csr.clone())),
                ("bcsr", Box::new(Bcsr::from_csr(&csr, shape, imp))),
                ("bcsr-dec", Box::new(BcsrDec::from_csr(&csr, shape, imp))),
                ("bcsd", Box::new(Bcsd::from_csr(&csr, 4, imp))),
                ("bcsd-dec", Box::new(BcsdDec::from_csr(&csr, 4, imp))),
                ("vbl", Box::new(Vbl::from_csr(&csr, imp))),
            ];
            for (label, mat) in &formats {
                let multi = mat.spmv_multi(&x, K);
                for t in 0..K {
                    let single = mat.spmv(&x[t * m..(t + 1) * m]);
                    assert_eq!(
                        single,
                        &multi[t * n..(t + 1) * n],
                        "seed {seed} {label} {imp} col {t}"
                    );
                }
            }
        }
    }
}
