//! Exhaustive kernel-shape coverage: every registered block kernel —
//! all BCSR shapes with `r*c <= 8`, all BCSD sizes, scalar and SIMD,
//! single- and multi-vector — driven directly through the registry on
//! fixed integer-valued inputs and compared *bitwise*.
//!
//! Integer-valued inputs make every product and sum exact, so the SIMD
//! variants and the multi-vector variants (which read `x` as k-tuples
//! and preserve the per-column accumulation order) must agree with the
//! scalar single-vector kernel to the last bit; any deviation is a real
//! indexing or ordering bug, not rounding.

use blocked_spmv::core::multi::with_tuples;
use blocked_spmv::kernels::registry::{
    bcsd_seg_kernel, bcsd_seg_multi_kernel, bcsr_row_kernel, bcsr_row_multi_kernel,
};
use blocked_spmv::kernels::simd::SimdScalar;
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::Scalar;

const NB: usize = 5; // blocks per row/segment
const XLEN: usize = 64;

fn xvec<T: Scalar>(salt: usize) -> Vec<T> {
    (0..XLEN)
        .map(|i| T::from_f64(((i * (salt + 3)) % 13) as f64 - 6.0))
        .collect()
}

fn bvals<T: Scalar>(len: usize) -> Vec<T> {
    (0..len)
        .map(|i| T::from_f64(((i * 7 + 3) % 11) as f64 - 5.0))
        .collect()
}

/// Block-start columns within `XLEN`, optionally biased (+`b` for BCSD's
/// stored-column convention).
fn bcols(bias: usize) -> Vec<u32> {
    [0usize, 2, 5, 17, 40]
        .iter()
        .map(|&c| (c + bias) as u32)
        .collect()
}

fn run_bcsr<T: SimdScalar>() {
    for shape in BlockShape::search_space() {
        let (r, c) = (shape.rows(), shape.cols());
        let vals = bvals::<T>(NB * r * c);
        let cols = bcols(0);
        assert!(cols.iter().all(|&j| j as usize + c <= XLEN));
        let x = xvec::<T>(1);

        // Scalar single-vector kernel: the reference semantics.
        let mut want = vec![T::from_f64(1.0); r];
        bcsr_row_kernel::<T>(shape, KernelImpl::Scalar)(&vals, &cols, &x, &mut want);

        // SIMD must agree bitwise on exact inputs.
        let mut got = vec![T::from_f64(1.0); r];
        bcsr_row_kernel::<T>(shape, KernelImpl::Simd)(&vals, &cols, &x, &mut got);
        assert_eq!(want, got, "bcsr {shape} simd vs scalar");

        for imp in KernelImpl::ALL {
            // Only the chunk widths 2, 4 and 8 have k-tuple kernels.
            for k in [1usize, 3, 5, 6, 7, 9] {
                assert!(
                    bcsr_row_multi_kernel::<T>(shape, k, imp).is_none(),
                    "bcsr {shape} k={k} {imp} should be unspecialized"
                );
            }
            for k in [2, 4, 8] {
                let kern = bcsr_row_multi_kernel::<T>(shape, k, imp)
                    .unwrap_or_else(|| panic!("bcsr {shape} k={k} {imp} missing"));
                // k input columns of length XLEN, read as k-tuples;
                // outputs of stride r+3 starting at row y0, to exercise
                // the stride arguments.
                let (ystride, y0) = (r + 3, 2usize);
                let xs: Vec<T> = (0..k).flat_map(|t| xvec::<T>(t + 1)).collect();
                let mut got = vec![T::from_f64(2.0); k * ystride];
                with_tuples(&xs, k, |xi| kern(&vals, &cols, xi, &mut got, ystride, y0));
                for t in 0..k {
                    let mut want = vec![T::from_f64(2.0); r];
                    bcsr_row_kernel::<T>(shape, imp)(
                        &vals,
                        &cols,
                        &xs[t * XLEN..(t + 1) * XLEN],
                        &mut want,
                    );
                    assert_eq!(
                        want,
                        &got[t * ystride + y0..t * ystride + y0 + r],
                        "bcsr {shape} k={k} {imp} col {t}"
                    );
                    // Rows outside [y0, y0+r) must be untouched.
                    for (i, g) in got[t * ystride..(t + 1) * ystride].iter().enumerate() {
                        if !(y0..y0 + r).contains(&i) {
                            assert_eq!(*g, T::from_f64(2.0), "bcsr {shape} k={k} row {i}");
                        }
                    }
                }
            }
        }
    }
}

fn run_bcsd<T: SimdScalar>() {
    for b in 1usize..=8 {
        let vals = bvals::<T>(NB * b);
        // Stored columns carry the +b bias of the BCSD layout.
        let cols = bcols(b);
        assert!(cols
            .iter()
            .all(|&j| (j as usize) >= b && (j as usize - b) + b <= XLEN));
        let x = xvec::<T>(1);

        let mut want = vec![T::from_f64(1.0); b];
        bcsd_seg_kernel::<T>(b, KernelImpl::Scalar)(&vals, &cols, &x, &mut want);
        let mut got = vec![T::from_f64(1.0); b];
        bcsd_seg_kernel::<T>(b, KernelImpl::Simd)(&vals, &cols, &x, &mut got);
        assert_eq!(want, got, "bcsd {b} simd vs scalar");

        // One k-tuple core serves both implementations.
        for k in [1usize, 3, 5, 6, 7, 9] {
            assert!(
                bcsd_seg_multi_kernel::<T>(b, k).is_none(),
                "bcsd {b} k={k} should be unspecialized"
            );
        }
        for k in [2, 4, 8] {
            let kern = bcsd_seg_multi_kernel::<T>(b, k)
                .unwrap_or_else(|| panic!("bcsd {b} k={k} missing"));
            let (ystride, y0) = (b + 2, 1usize);
            let xs: Vec<T> = (0..k).flat_map(|t| xvec::<T>(t + 1)).collect();
            let mut got = vec![T::from_f64(2.0); k * ystride];
            with_tuples(&xs, k, |xi| kern(&vals, &cols, xi, &mut got, ystride, y0));
            for imp in KernelImpl::ALL {
                for t in 0..k {
                    let mut want = vec![T::from_f64(2.0); b];
                    bcsd_seg_kernel::<T>(b, imp)(
                        &vals,
                        &cols,
                        &xs[t * XLEN..(t + 1) * XLEN],
                        &mut want,
                    );
                    assert_eq!(
                        want,
                        &got[t * ystride + y0..t * ystride + y0 + b],
                        "bcsd {b} k={k} {imp} col {t}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_bcsr_shape_scalar_simd_multi_bitwise_f64() {
    run_bcsr::<f64>();
}

#[test]
fn every_bcsr_shape_scalar_simd_multi_bitwise_f32() {
    run_bcsr::<f32>();
}

#[test]
fn every_bcsd_size_scalar_simd_multi_bitwise_f64() {
    run_bcsd::<f64>();
}

#[test]
fn every_bcsd_size_scalar_simd_multi_bitwise_f32() {
    run_bcsd::<f32>();
}

#[test]
fn search_space_covers_all_shapes_up_to_eight_elems() {
    // The registry's search space must be exactly {r×c : r*c <= 8},
    // minus nothing — the exhaustiveness this suite relies on.
    let shapes = BlockShape::search_space();
    let mut expected = 0;
    for r in 1..=8 {
        for c in 1..=8 {
            if r * c <= 8 && (r, c) != (1, 1) {
                expected += 1;
                assert!(
                    shapes.iter().any(|s| s.rows() == r && s.cols() == c),
                    "missing shape {r}x{c}"
                );
            }
        }
    }
    assert_eq!(shapes.len(), expected);
}
