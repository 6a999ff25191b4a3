//! The const-generic block core: one implementation per format, shared
//! by every `(implementation, shape, vector count)` combination.
//!
//! Historically this crate carried three hand-written copies of every
//! kernel — scalar, SSE2, and multi-vector variants of both — ~1.6k
//! lines of triplicated loops. This module replaces them with one
//! generic core per format, parameterized by a [`LaneEngine`]:
//!
//! * [`bcsr_core`] — one BCSR block row against `K` input vectors;
//! * [`bcsd_core`] — one BCSD segment against `K` input vectors;
//! * [`dot_run_core`] — a contiguous value run (1D-VBL inner kernel).
//!
//! Single-vector kernels are the `K = 1` instantiations ([`bcsr_row`],
//! [`bcsd_seg`]); scalar kernels use [`ScalarEngine`]
//! (`LANES = 1`, fused `mul_add`); SIMD kernels use the target's SSE
//! engines. The loop structure is the old SIMD kernels' — per block
//! value vector loaded once, then multiplied against all `K` columns —
//! which at `LANES = 1`, `K = 1` degenerates to exactly the old scalar
//! kernels' per-element order. Each accumulator therefore sees the same
//! operation sequence the old hand-written kernels produced, and the
//! 200-seed gate in this module's tests pins that equivalence bitwise
//! against lane-exact simulators of the deleted kernels.
//!
//! All kernels accumulate (`+=`) into their output slice.

use crate::engine::{LaneEngine, ScalarEngine};
use spmv_core::{Index, Scalar};

/// One BCSR block row against `K` input vectors.
///
/// Blocks `kb` start at **absolute** column `bcols[kb]` with row-major
/// values `bvals[kb*R*C .. (kb+1)*R*C]`. `x` holds `K` concatenated
/// input vectors of stride `xs`, `y` holds `K` concatenated output
/// vectors of stride `ys`; the block row's first output row is `y0`.
/// Per output column the accumulation order is independent of `K`, so a
/// `K`-vector call is bitwise-equal to `K` single-vector calls.
///
/// # Panics
///
/// Panics (via slice indexing) if a block reads past a column of `x` —
/// callers route boundary blocks to the clipped kernels in
/// [`crate::scalar`] instead.
#[inline]
pub fn bcsr_core<T: Scalar, E: LaneEngine<T>, const R: usize, const C: usize, const K: usize>(
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    xs: usize,
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    debug_assert_eq!(bvals.len(), bcols.len() * R * C);
    debug_assert!(x.len() >= K * xs && y.len() >= K * ys);
    let mut accv = [[E::zero(); K]; R];
    let mut accs = [[T::ZERO; K]; R];
    for (kb, &bc) in bcols.iter().enumerate() {
        let b = &bvals[kb * (R * C)..kb * (R * C) + R * C];
        bcsr_block_step::<T, E, R, C, K>(b, bc as usize, x, xs, &mut accv, &mut accs);
    }
    bcsr_epilogue::<T, E, R, C, K>(&accv, &accs, y, ys, y0);
}

/// Accumulates one dense `R x C` block (values `b`, absolute start column
/// `x0`) into the block row's accumulator tile.
#[inline(always)]
fn bcsr_block_step<
    T: Scalar,
    E: LaneEngine<T>,
    const R: usize,
    const C: usize,
    const K: usize,
>(
    b: &[T],
    x0: usize,
    x: &[T],
    xs: usize,
    accv: &mut [[E::Vec; K]; R],
    accs: &mut [[T; K]; R],
) {
    for i in 0..R {
        let row = &b[i * C..i * C + C];
        let mut j = 0;
        while j + E::LANES <= C {
            // SAFETY: `j + LANES <= C`, and each `xb` below is a
            // length-C checked subslice.
            let bv = unsafe { E::load(row.as_ptr().add(j)) };
            for t in 0..K {
                let xb = &x[t * xs + x0..t * xs + x0 + C];
                let xv = unsafe { E::load(xb.as_ptr().add(j)) };
                accv[i][t] = E::mul_acc(accv[i][t], bv, xv);
            }
            j += E::LANES;
        }
        while j < C {
            for t in 0..K {
                accs[i][t] = E::tail_mul_add(accs[i][t], row[j], x[t * xs + x0 + j]);
            }
            j += 1;
        }
    }
}

/// Flushes a BCSR accumulator tile into the output vectors.
#[inline(always)]
fn bcsr_epilogue<
    T: Scalar,
    E: LaneEngine<T>,
    const R: usize,
    const C: usize,
    const K: usize,
>(
    accv: &[[E::Vec; K]; R],
    accs: &[[T; K]; R],
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    for (i, (rowv, rows)) in accv.iter().zip(accs).enumerate() {
        for t in 0..K {
            y[t * ys + y0 + i] += E::finish(rowv[t], rows[t]);
        }
    }
}

/// One BCSD segment against `K` input vectors.
///
/// Diagonal blocks `kb` carry the `B` diagonal values
/// `bvals[kb*B .. (kb+1)*B]`; `bcols[kb]` stores the block's start
/// column **biased by `+B`** (`bcols[kb] = j0 + B`), which keeps
/// left-edge blocks (negative true `j0`) representable in the unsigned
/// index type. This interior kernel requires `bcols[kb] >= B`; edge
/// blocks go through [`crate::scalar::bcsd_segment_clipped`]. Stride
/// and offset conventions match [`bcsr_core`].
#[inline]
pub fn bcsd_core<T: Scalar, E: LaneEngine<T>, const B: usize, const K: usize>(
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    xs: usize,
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    debug_assert_eq!(bvals.len(), bcols.len() * B);
    debug_assert!(x.len() >= K * xs && y.len() >= K * ys);
    // `B` lane groups cover every engine (LANES = 1 needs all of them);
    // at most `LANES - 1 <= 7` tail positions.
    let mut accv = [[E::zero(); K]; B];
    let mut acct = [[T::ZERO; K]; 7];
    for (kb, &j0) in bcols.iter().enumerate() {
        let v = &bvals[kb * B..kb * B + B];
        debug_assert!(j0 as usize >= B, "left-clipped block in interior kernel");
        let j0 = j0 as usize - B;
        bcsd_block_step::<T, E, B, K>(v, j0, x, xs, &mut accv, &mut acct);
    }
    bcsd_epilogue::<T, E, B, K>(&accv, &acct, y, ys, y0);
}

/// Accumulates one dense size-`B` diagonal block (values `v`, true start
/// column `j0`, bias already removed) into the segment's accumulators.
#[inline(always)]
fn bcsd_block_step<T: Scalar, E: LaneEngine<T>, const B: usize, const K: usize>(
    v: &[T],
    j0: usize,
    x: &[T],
    xs: usize,
    accv: &mut [[E::Vec; K]; B],
    acct: &mut [[T; K]; 7],
) {
    let groups = B / E::LANES;
    let tail = B % E::LANES;
    for (q, acc) in accv.iter_mut().enumerate().take(groups) {
        // SAFETY: `LANES * q + LANES <= B` for `q < groups`, inside
        // the length-B checked subslices `v` and `xb`.
        let bv = unsafe { E::load(v.as_ptr().add(E::LANES * q)) };
        for (t, a) in acc.iter_mut().enumerate() {
            let xb = &x[t * xs + j0..t * xs + j0 + B];
            let xv = unsafe { E::load(xb.as_ptr().add(E::LANES * q)) };
            *a = E::mul_acc(*a, bv, xv);
        }
    }
    for (s, at) in acct.iter_mut().enumerate().take(tail) {
        let p = groups * E::LANES + s;
        for (t, a) in at.iter_mut().enumerate().take(K) {
            *a = E::tail_mul_add(*a, v[p], x[t * xs + j0 + p]);
        }
    }
}

/// Flushes a BCSD accumulator set into the output vectors.
#[inline(always)]
fn bcsd_epilogue<T: Scalar, E: LaneEngine<T>, const B: usize, const K: usize>(
    accv: &[[E::Vec; K]; B],
    acct: &[[T; K]; 7],
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    let groups = B / E::LANES;
    let tail = B % E::LANES;
    for (q, acc) in accv.iter().enumerate().take(groups) {
        for (t, a) in acc.iter().enumerate() {
            for l in 0..E::LANES {
                y[t * ys + y0 + q * E::LANES + l] += E::lane(*a, l);
            }
        }
    }
    for (s, at) in acct.iter().enumerate().take(tail) {
        for (t, &a) in at.iter().enumerate().take(K) {
            y[t * ys + y0 + groups * E::LANES + s] += a;
        }
    }
}

/// Single-vector BCSR block-row kernel: the `K = 1` instantiation of
/// [`bcsr_core`], with the classic `(bvals, bcols, x, yrow)` signature.
#[inline]
pub fn bcsr_row<T: Scalar, E: LaneEngine<T>, const R: usize, const C: usize>(
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    yrow: &mut [T],
) {
    debug_assert_eq!(yrow.len(), R);
    bcsr_core::<T, E, R, C, 1>(bvals, bcols, x, 0, yrow, 0, 0);
}

/// Single-vector BCSD segment kernel: the `K = 1` instantiation of
/// [`bcsd_core`].
#[inline]
pub fn bcsd_seg<T: Scalar, E: LaneEngine<T>, const B: usize>(
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    yseg: &mut [T],
) {
    debug_assert_eq!(yseg.len(), B);
    bcsd_core::<T, E, B, 1>(bvals, bcols, x, 0, yseg, 0, 0);
}

/// Dot product of a contiguous value run against the matching slice of
/// the input vector (the 1D-VBL inner kernel).
///
/// The tail folds into the horizontal sum *after* reduction — `sum =
/// hsum(acc); sum = tail_mul_add(sum, ...)` — matching the old SSE
/// kernels' exact ordering (which differs bitwise from reducing a
/// separate tail accumulator when the tail has several elements).
#[inline]
pub fn dot_run_core<T: Scalar, E: LaneEngine<T>>(vals: &[T], x: &[T]) -> T {
    debug_assert_eq!(vals.len(), x.len());
    let n = vals.len();
    let mut acc = E::zero();
    let mut j = 0;
    while j + E::LANES <= n {
        // SAFETY: `j + LANES <= n` bounds both loads.
        unsafe {
            acc = E::mul_acc(acc, E::load(vals.as_ptr().add(j)), E::load(x.as_ptr().add(j)));
        }
        j += E::LANES;
    }
    let mut sum = E::hsum(acc);
    while j < n {
        sum = E::tail_mul_add(sum, vals[j], x[j]);
        j += 1;
    }
    sum
}

/// Convenience alias: the scalar-engine dot product (what
/// [`crate::scalar::dot_run_scalar`] re-exports).
#[inline]
pub fn dot_run_scalar_core<T: Scalar>(vals: &[T], x: &[T]) -> T {
    dot_run_core::<T, ScalarEngine>(vals, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{BlockShape, KernelImpl};

    /// Naive reference for one BCSR block row (`bcols` = absolute start
    /// columns).
    fn bcsr_reference(
        r: usize,
        c: usize,
        bvals: &[f64],
        bcols: &[Index],
        x: &[f64],
        yrow: &mut [f64],
    ) {
        for (k, &bc) in bcols.iter().enumerate() {
            for i in 0..yrow.len() {
                for j in 0..c {
                    let col = bc as usize + j;
                    if col < x.len() {
                        yrow[i] += bvals[k * r * c + i * c + j] * x[col];
                    }
                }
            }
        }
    }

    fn test_vectors(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.5 + (i % 11) as f64).collect()
    }

    #[test]
    fn bcsr_2x2_matches_reference() {
        let bvals = test_vectors(2 * 4); // two blocks
        let bcols = [0u32, 4];
        let x = test_vectors(6);
        let mut y = [0.0; 2];
        let mut yref = [0.0; 2];
        bcsr_row::<f64, ScalarEngine, 2, 2>(&bvals, &bcols, &x, &mut y);
        bcsr_reference(2, 2, &bvals, &bcols, &x, &mut yref);
        assert_eq!(y, yref);
    }

    #[test]
    fn all_shapes_match_reference_both_impls() {
        for shape in BlockShape::search_space() {
            let (r, c) = (shape.rows(), shape.cols());
            let nb = 3;
            let bvals = test_vectors(nb * r * c);
            let bcols: Vec<Index> = vec![0, c as Index, 3 * c as Index];
            let x = test_vectors(4 * c);
            let mut yref = vec![0.0; r];
            bcsr_reference(r, c, &bvals, &bcols, &x, &mut yref);
            for imp in KernelImpl::ALL {
                let mut y = vec![0.0; r];
                let kern = crate::registry::bcsr_row_kernel::<f64>(shape, imp);
                kern(&bvals, &bcols, &x, &mut y);
                for (a, b) in y.iter().zip(&yref) {
                    assert!((a - b).abs() < 1e-9, "shape {shape} {imp:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn unaligned_start_columns_work() {
        // Absolute start columns need not be multiples of C.
        let bvals = [1.0, 1.0];
        let bcols = [3u32];
        let x = test_vectors(6);
        let mut y = [0.0];
        bcsr_row::<f64, ScalarEngine, 1, 2>(&bvals, &bcols, &x, &mut y);
        assert_eq!(y[0], x[3] + x[4]);
    }

    #[test]
    fn kernels_accumulate_not_overwrite() {
        let bvals = [1.0, 1.0, 1.0, 1.0];
        let bcols = [0u32];
        let x = [1.0, 1.0];
        let mut y = [10.0, 20.0];
        bcsr_row::<f64, ScalarEngine, 2, 2>(&bvals, &bcols, &x, &mut y);
        assert_eq!(y, [12.0, 22.0]);
    }

    /// Biases true start columns by `+b`, as the BCSD kernel contract
    /// requires.
    fn biased(b: usize, cols: &[i64]) -> Vec<Index> {
        cols.iter().map(|&j0| (j0 + b as i64) as Index).collect()
    }

    #[test]
    fn bcsd_matches_manual() {
        // Segment of height 3, two diagonal blocks at columns 0 and 4.
        let bvals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let bcols = biased(3, &[0, 4]);
        let x = test_vectors(8);
        let mut y = [0.0; 3];
        bcsd_seg::<f64, ScalarEngine, 3>(&bvals, &bcols, &x, &mut y);
        assert_eq!(
            y,
            [
                1.0 * x[0] + 4.0 * x[4],
                2.0 * x[1] + 5.0 * x[5],
                3.0 * x[2] + 6.0 * x[6]
            ]
        );
    }

    #[test]
    fn bcsd_all_sizes_match_scalar_engine_both_impls() {
        for b in 1..=8usize {
            let nb = 5;
            let bcols: Vec<Index> = [0i64, 1, 4, 7, 9].iter().map(|&j0| (j0 + b as i64) as Index).collect();
            let bvals = test_vectors(nb * b);
            let x = test_vectors(9 + b);
            let mut yref = vec![0.5; b];
            let scal = crate::registry::bcsd_seg_kernel::<f64>(b, KernelImpl::Scalar);
            scal(&bvals, &bcols, &x, &mut yref);
            let mut y = vec![0.5; b];
            let simd = crate::registry::bcsd_seg_kernel::<f64>(b, KernelImpl::Simd);
            simd(&bvals, &bcols, &x, &mut y);
            for (p, q) in y.iter().zip(&yref) {
                assert!((p - q).abs() < 1e-9, "b={b}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn bcsr_multi_matches_per_column_single() {
        let bvals = test_vectors(3 * 6); // three 2x3 blocks
        let bcols = [0u32, 3, 6];
        let xs = 12; // columns
        let ys = 5; // rows
        let x: Vec<f64> = test_vectors(4 * xs);
        let mut y = vec![0.0; 4 * ys];
        bcsr_core::<f64, ScalarEngine, 2, 3, 4>(&bvals, &bcols, &x, xs, &mut y, ys, 2);
        for t in 0..4 {
            let mut yref = [0.0; 2];
            bcsr_row::<f64, ScalarEngine, 2, 3>(&bvals, &bcols, &x[t * xs..(t + 1) * xs], &mut yref);
            assert_eq!(&y[t * ys + 2..t * ys + 4], &yref, "column {t}");
            assert_eq!(y[t * ys], 0.0, "rows outside the block row stay untouched");
        }
    }

    #[test]
    fn bcsd_multi_matches_per_column_single() {
        let bvals = test_vectors(2 * 3); // two size-3 diagonal blocks
        let bcols = biased(3, &[0, 4]);
        let xs = 8;
        let ys = 6;
        let x: Vec<f64> = test_vectors(4 * xs);
        let mut y = vec![0.0; 4 * ys];
        bcsd_core::<f64, ScalarEngine, 3, 4>(&bvals, &bcols, &x, xs, &mut y, ys, 1);
        for t in 0..4 {
            let mut yref = [0.0; 3];
            bcsd_seg::<f64, ScalarEngine, 3>(&bvals, &bcols, &x[t * xs..(t + 1) * xs], &mut yref);
            assert_eq!(&y[t * ys + 1..t * ys + 4], &yref, "column {t}");
        }
    }

    #[test]
    fn simd_engine_multi_matches_per_column_single_bitwise() {
        // The K-vector core must be bitwise-equal to K single calls for
        // the SIMD engines too (per-accumulator order is K-independent).
        type E64 = <f64 as crate::simd::SimdScalar>::Engine;
        let bvals = test_vectors(3 * 8); // three 2x4 blocks
        let bcols = [0u32, 4, 8];
        let xs = 16;
        let ys = 4;
        let x: Vec<f64> = test_vectors(4 * xs);
        let mut y = vec![0.0; 4 * ys];
        bcsr_core::<f64, E64, 2, 4, 4>(&bvals, &bcols, &x, xs, &mut y, ys, 1);
        for t in 0..4 {
            let mut yref = [0.0; 2];
            bcsr_row::<f64, E64, 2, 4>(&bvals, &bcols, &x[t * xs..(t + 1) * xs], &mut yref);
            assert_eq!(
                &y[t * ys + 1..t * ys + 3].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                &yref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "column {t}"
            );
        }
    }

    #[test]
    fn dot_run_core_handles_all_tail_lengths() {
        for n in 0..20 {
            let v = test_vectors(n);
            let x = test_vectors(n);
            let scalar = dot_run_scalar_core(&v, &x);
            let simd = dot_run_core::<f64, <f64 as crate::simd::SimdScalar>::Engine>(&v, &x);
            assert!((scalar - simd).abs() < 1e-9, "n={n}");
        }
    }
}
