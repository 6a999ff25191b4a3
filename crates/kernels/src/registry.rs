//! Runtime dispatch from `(shape, implementation)` to kernel functions.
//!
//! Every kernel here is an instantiation of the generic cores in
//! [`crate::block`]: the dispatch macros below map a
//! runtime shape (or BCSD size, or vector count) onto the matching
//! monomorphization, and the [`KernelImpl`] chooses the lane engine —
//! [`ScalarEngine`] for `Scalar`, [`SimdScalar::Engine`] for `Simd`.

use crate::block;
use crate::engine::{LaneEngine, ScalarEngine};
use crate::shapes::{BlockShape, KernelImpl};
use crate::simd::SimdScalar;
use spmv_core::{Index, Scalar};

/// Expands to a `match` mapping a runtime [`BlockShape`] onto a
/// monomorphized `<const R, const C>` kernel.
///
/// `$apply` is a caller-defined callback macro receiving the two literal
/// shape dimensions; it must expand to `Some(<kernel fn pointer>)` (or an
/// `Option` of one). The indirection lets one dispatch table serve
/// kernels with different generic signatures.
macro_rules! dispatch_shape {
    ($shape:expr, $apply:ident) => {
        match ($shape.r, $shape.c) {
            (1, 1) => $apply!(1, 1),
            (1, 2) => $apply!(1, 2),
            (1, 3) => $apply!(1, 3),
            (1, 4) => $apply!(1, 4),
            (1, 5) => $apply!(1, 5),
            (1, 6) => $apply!(1, 6),
            (1, 7) => $apply!(1, 7),
            (1, 8) => $apply!(1, 8),
            (2, 1) => $apply!(2, 1),
            (2, 2) => $apply!(2, 2),
            (2, 3) => $apply!(2, 3),
            (2, 4) => $apply!(2, 4),
            (3, 1) => $apply!(3, 1),
            (3, 2) => $apply!(3, 2),
            (4, 1) => $apply!(4, 1),
            (4, 2) => $apply!(4, 2),
            (5, 1) => $apply!(5, 1),
            (6, 1) => $apply!(6, 1),
            (7, 1) => $apply!(7, 1),
            (8, 1) => $apply!(8, 1),
            _ => None,
        }
    };
}

/// Expands to a `match` mapping a runtime BCSD size onto a monomorphized
/// `<const B>` kernel; same callback convention as [`dispatch_shape`].
macro_rules! dispatch_size {
    ($b:expr, $apply:ident) => {
        match $b {
            1 => $apply!(1),
            2 => $apply!(2),
            3 => $apply!(3),
            4 => $apply!(4),
            5 => $apply!(5),
            6 => $apply!(6),
            7 => $apply!(7),
            8 => $apply!(8),
            _ => None,
        }
    };
}

/// Expands to a `match` mapping a runtime vector count `k` onto a
/// monomorphized k-tuple kernel whose **last** const parameter is `K`;
/// the leading generic parameters (scalar type, engine, shape dims) are
/// passed through. Only the chunk widths `k ∈ {2, 4, 8}` have k-tuple
/// kernels — other counts return `None`; callers chunk `k` greedily
/// (8, 4, 2, 1) and run a one-vector chunk on the single-vector kernel.
macro_rules! dispatch_k {
    ($k:expr, [$($kern:tt)+], $ty:ty, $($dims:tt),+) => {
        match $k {
            2 => Some($($kern)+::<$($dims),+, 2> as $ty),
            4 => Some($($kern)+::<$($dims),+, 4> as $ty),
            8 => Some($($kern)+::<$($dims),+, 8> as $ty),
            _ => None,
        }
    };
}

/// A kernel processing one BCSR block row:
/// `kernel(bvals, bcols, x, yrow)` accumulates the products of the block
/// row's blocks into the `r` entries of `yrow`.
pub type BcsrRowKernel<T> = fn(&[T], &[Index], &[T], &mut [T]);

/// A kernel processing one BCSD segment:
/// `kernel(bvals, start_cols, x, yseg)` accumulates the diagonal products
/// into the `b` entries of `yseg`.
pub type BcsdSegKernel<T> = fn(&[T], &[Index], &[T], &mut [T]);

/// A kernel processing one BCSR block row against `K` input vectors read
/// as `K`-tuples: `kernel(bvals, bcols, xi, y, ystride, y0)` accumulates
/// into the `K` column-major outputs of `y` (stride `ystride`) from row
/// `y0`, where `xi[j * K + t]` is element `j` of vector `t`.
pub type BcsrRowMultiKernel<T> = fn(&[T], &[Index], &[T], &mut [T], usize, usize);

/// A kernel processing one BCSD segment against `K` input vectors read as
/// `K`-tuples; same signature convention as [`BcsrRowMultiKernel`].
pub type BcsdSegMultiKernel<T> = fn(&[T], &[Index], &[T], &mut [T], usize, usize);

fn bcsr_row_kernel_engine<T: Scalar, E: LaneEngine<T>>(
    shape: BlockShape,
) -> Option<BcsrRowKernel<T>> {
    macro_rules! apply {
        ($r:literal, $c:literal) => {
            Some(block::bcsr_row::<T, E, $r, $c> as BcsrRowKernel<T>)
        };
    }
    dispatch_shape!(shape, apply)
}

fn bcsd_seg_kernel_engine<T: Scalar, E: LaneEngine<T>>(b: usize) -> Option<BcsdSegKernel<T>> {
    macro_rules! apply {
        ($b:literal) => {
            Some(block::bcsd_seg::<T, E, $b> as BcsdSegKernel<T>)
        };
    }
    dispatch_size!(b, apply)
}

fn bcsr_row_multi_kernel_engine<T: Scalar, E: LaneEngine<T>>(
    shape: BlockShape,
    k: usize,
) -> Option<BcsrRowMultiKernel<T>> {
    macro_rules! apply {
        ($r:literal, $c:literal) => {
            dispatch_k!(k, [block::bcsr_tuples], BcsrRowMultiKernel<T>, T, E, $r, $c)
        };
    }
    dispatch_shape!(shape, apply)
}

/// BCSR block-row kernel for `(shape, imp)`.
///
/// Requesting [`KernelImpl::Simd`] on a target without SIMD support
/// transparently returns the scalar kernel (the scalar's engine *is* the
/// scalar engine there), so callers can sweep both implementations
/// unconditionally.
pub fn bcsr_row_kernel<T: SimdScalar>(shape: BlockShape, imp: KernelImpl) -> BcsrRowKernel<T> {
    match imp {
        KernelImpl::Scalar => bcsr_row_kernel_engine::<T, ScalarEngine>(shape),
        KernelImpl::Simd => bcsr_row_kernel_engine::<T, T::Engine>(shape),
    }
    .unwrap_or_else(|| panic!("unsupported BCSR shape {shape}"))
}

/// BCSD segment kernel for `(b, imp)`, with the same SIMD fallback rule as
/// [`bcsr_row_kernel`].
pub fn bcsd_seg_kernel<T: SimdScalar>(b: usize, imp: KernelImpl) -> BcsdSegKernel<T> {
    match imp {
        KernelImpl::Scalar => bcsd_seg_kernel_engine::<T, ScalarEngine>(b),
        KernelImpl::Simd => bcsd_seg_kernel_engine::<T, T::Engine>(b),
    }
    .unwrap_or_else(|| panic!("unsupported BCSD size {b}"))
}

/// Dot product of a contiguous value run (1D-VBL inner kernel) for `imp`.
#[inline]
pub fn dot_run<T: SimdScalar>(vals: &[T], x: &[T], imp: KernelImpl) -> T {
    match imp {
        KernelImpl::Scalar => block::dot_run_core::<T, ScalarEngine>(vals, x),
        KernelImpl::Simd => block::dot_run_core::<T, T::Engine>(vals, x),
    }
}

/// K-tuple BCSR block-row kernel for `(shape, k, imp)`, with the same
/// transparent SIMD→scalar fallback as [`bcsr_row_kernel`]. `None`
/// unless `k` is 2, 4 or 8.
pub fn bcsr_row_multi_kernel<T: SimdScalar>(
    shape: BlockShape,
    k: usize,
    imp: KernelImpl,
) -> Option<BcsrRowMultiKernel<T>> {
    match imp {
        KernelImpl::Scalar => bcsr_row_multi_kernel_engine::<T, ScalarEngine>(shape, k),
        KernelImpl::Simd => bcsr_row_multi_kernel_engine::<T, T::Engine>(shape, k),
    }
}

/// K-tuple BCSD segment kernel for `(b, k)`; `None` unless `k` is 2, 4
/// or 8. One core serves both implementations: every diagonal position
/// keeps one sum per vector whichever engine the single-vector kernel
/// uses (see [`block::bcsd_tuples`]).
pub fn bcsd_seg_multi_kernel<T: SimdScalar>(b: usize, k: usize) -> Option<BcsdSegMultiKernel<T>> {
    macro_rules! apply {
        ($b:literal) => {
            dispatch_k!(k, [block::bcsd_tuples], BcsdSegMultiKernel<T>, T, $b)
        };
    }
    dispatch_size!(b, apply)
}

/// Dot product of one contiguous value run against `acc.len()` input
/// columns (the 1D-VBL multi-vector inner kernel): for each vector `t`,
/// adds `vals · x[t*xstride + j0 ..]` into `acc[t]`. The run values are
/// hot in cache across columns, so the matrix is streamed from memory once
/// regardless of the vector count.
#[inline]
pub fn dot_run_multi<T: SimdScalar>(
    vals: &[T],
    x: &[T],
    xstride: usize,
    j0: usize,
    acc: &mut [T],
    imp: KernelImpl,
) {
    for (t, a) in acc.iter_mut().enumerate() {
        let xr = &x[t * xstride + j0..t * xstride + j0 + vals.len()];
        *a += dot_run(vals, xr, imp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_search_space_shape_dispatches() {
        for shape in BlockShape::search_space() {
            for imp in KernelImpl::ALL {
                let _ = bcsr_row_kernel::<f64>(shape, imp);
                let _ = bcsr_row_kernel::<f32>(shape, imp);
            }
        }
        // The degenerate 1x1 kernel exists too (used for CSR profiling).
        let _ = bcsr_row_kernel::<f64>(BlockShape::UNIT, KernelImpl::Scalar);
    }

    #[test]
    fn every_bcsd_size_dispatches() {
        for b in 1..=8 {
            for imp in KernelImpl::ALL {
                let _ = bcsd_seg_kernel::<f64>(b, imp);
                let _ = bcsd_seg_kernel::<f32>(b, imp);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported BCSD size")]
    fn oversized_bcsd_panics() {
        let _ = bcsd_seg_kernel::<f64>(9, KernelImpl::Scalar);
    }

    #[test]
    fn unit_kernel_is_csr_row() {
        // 1x1 blocks with nb = nnz reproduce a CSR row dot product.
        let kern = bcsr_row_kernel::<f64>(BlockShape::UNIT, KernelImpl::Scalar);
        let vals = [2.0, 3.0];
        let cols = [1u32, 3];
        let x = [1.0, 10.0, 100.0, 1000.0];
        let mut y = [0.0];
        kern(&vals, &cols, &x, &mut y);
        assert_eq!(y[0], 2.0 * 10.0 + 3.0 * 1000.0);
    }

    #[test]
    fn multi_kernels_dispatch_for_specialized_ks() {
        // Every chunk width above 1 has a k-tuple kernel; a one-vector
        // chunk runs the single-vector kernel instead.
        for shape in BlockShape::search_space() {
            for imp in KernelImpl::ALL {
                for k in [2, 4, 8] {
                    assert!(bcsr_row_multi_kernel::<f64>(shape, k, imp).is_some());
                    assert!(bcsr_row_multi_kernel::<f32>(shape, k, imp).is_some());
                }
                for k in [1, 3] {
                    assert!(bcsr_row_multi_kernel::<f64>(shape, k, imp).is_none());
                }
            }
        }
        for b in 1..=8 {
            for k in [2, 4, 8] {
                assert!(bcsd_seg_multi_kernel::<f64>(b, k).is_some());
                assert!(bcsd_seg_multi_kernel::<f32>(b, k).is_some());
            }
            for k in [1, 5] {
                assert!(bcsd_seg_multi_kernel::<f64>(b, k).is_none());
            }
        }
    }

    #[test]
    fn dot_run_multi_accumulates_per_column() {
        let vals = [1.0f64, 2.0];
        // Two columns of stride 4, run starts at j0 = 1.
        let x = [0.0, 1.0, 1.0, 0.0, 0.0, 10.0, 10.0, 0.0];
        let mut acc = [5.0, 7.0];
        dot_run_multi(&vals, &x, 4, 1, &mut acc, KernelImpl::Scalar);
        assert_eq!(acc, [5.0 + 3.0, 7.0 + 30.0]);
    }

    #[test]
    fn dot_run_both_impls() {
        let v = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let x = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(dot_run(&v, &x, KernelImpl::Scalar), 15.0);
        assert!((dot_run(&v, &x, KernelImpl::Simd) - 15.0).abs() < 1e-12);
    }
}
