//! Boundary (clipped) block kernels with runtime shape.
//!
//! The interior kernels — fully unrolled per shape — live in
//! [`crate::block`] as instantiations of the const-generic core; this
//! module keeps the **clipped** variants that handle the at-most-one
//! partial block row / block column at the matrix boundary (when the
//! dimensions are not multiples of the block shape). Boundary blocks are
//! rare (O(1) per block row), so these take runtime shape parameters and
//! stay scalar; each flushes its accumulator per block.
//!
//! All kernels accumulate (`+=`) into their output slice.

use spmv_core::{Index, Scalar};

/// Boundary-safe BCSR block-row kernel with runtime shape.
///
/// `yrow` may be shorter than `r` (a clipped final block row) and blocks
/// may extend past the last column of `x` (a clipped final block column);
/// out-of-matrix positions hold padding zeros in `bvals` and are skipped.
/// `bcols` holds absolute start columns, as in
/// [`crate::block::bcsr_row`].
pub fn bcsr_block_row_clipped<T: Scalar>(
    r: usize,
    c: usize,
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    yrow: &mut [T],
) {
    debug_assert!(yrow.len() <= r);
    debug_assert_eq!(bvals.len(), bcols.len() * r * c);
    let n_cols = x.len();
    for (k, &bc) in bcols.iter().enumerate() {
        let x0 = bc as usize;
        let b = &bvals[k * r * c..(k + 1) * r * c];
        let c_valid = c.min(n_cols.saturating_sub(x0));
        for (i, yi) in yrow.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for j in 0..c_valid {
                acc = b[i * c + j].mul_add(x[x0 + j], acc);
            }
            *yi += acc;
        }
    }
}

/// Boundary-safe BCSD segment kernel with runtime block size.
///
/// `yseg` may be shorter than `b` (clipped final segment) and diagonal
/// blocks may be clipped at either edge: `bcols` carries the `+b` bias of
/// [`crate::block::bcsd_seg`], and positions with a negative true column
/// or a column `>= x.len()` are padding and are skipped.
pub fn bcsd_segment_clipped<T: Scalar>(
    b: usize,
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    yseg: &mut [T],
) {
    debug_assert!(yseg.len() <= b);
    debug_assert_eq!(bvals.len(), bcols.len() * b);
    let n_cols = x.len() as isize;
    for (k, &biased) in bcols.iter().enumerate() {
        let j0 = biased as isize - b as isize;
        let v = &bvals[k * b..(k + 1) * b];
        let t_min = (-j0).max(0) as usize;
        let t_max = yseg.len().min((n_cols - j0).max(0) as usize);
        for t in t_min..t_max {
            yseg[t] = v[t].mul_add(x[(j0 + t as isize) as usize], yseg[t]);
        }
    }
}

/// Boundary-safe BCSR block-row kernel for `k ≤ 8` vectors read as
/// `k`-tuples (`xi[j * k + t]`, `xi.len() / k` matrix columns).
///
/// `rows_valid` is the number of in-matrix rows of this block row (less
/// than `r` for the clipped final block row); `y` holds `k` column-major
/// outputs of stride `ys` from row `y0`. Per output column it runs
/// [`bcsr_block_row_clipped`]'s operations: one sum per block and row,
/// added straight into `y`.
#[allow(clippy::too_many_arguments)]
pub fn bcsr_block_row_tuples_clipped<T: Scalar>(
    r: usize,
    c: usize,
    k: usize,
    bvals: &[T],
    bcols: &[Index],
    xi: &[T],
    y: &mut [T],
    ys: usize,
    y0: usize,
    rows_valid: usize,
) {
    debug_assert!(rows_valid <= r && k <= 8);
    debug_assert_eq!(bvals.len(), bcols.len() * r * c);
    let n_cols = xi.len() / k;
    for (kb, &bc) in bcols.iter().enumerate() {
        let x0 = bc as usize;
        let b = &bvals[kb * r * c..(kb + 1) * r * c];
        let c_valid = c.min(n_cols.saturating_sub(x0));
        for i in 0..rows_valid {
            let mut acc = [T::ZERO; 8];
            for j in 0..c_valid {
                let xt = &xi[(x0 + j) * k..(x0 + j + 1) * k];
                for (a, &xv) in acc.iter_mut().zip(xt) {
                    *a = b[i * c + j].mul_add(xv, *a);
                }
            }
            for (t, &a) in acc[..k].iter().enumerate() {
                y[t * ys + y0 + i] += a;
            }
        }
    }
}

/// Boundary-safe BCSD segment kernel for `k` vectors read as `k`-tuples;
/// `rows_valid` rows of the segment are inside the matrix, and layout
/// and offsets are as in [`bcsr_block_row_tuples_clipped`]. Per output
/// column it runs [`bcsd_segment_clipped`]'s operations, each product
/// added straight into `y`.
#[allow(clippy::too_many_arguments)]
pub fn bcsd_segment_tuples_clipped<T: Scalar>(
    b: usize,
    k: usize,
    bvals: &[T],
    bcols: &[Index],
    xi: &[T],
    y: &mut [T],
    ys: usize,
    y0: usize,
    rows_valid: usize,
) {
    debug_assert!(rows_valid <= b);
    debug_assert_eq!(bvals.len(), bcols.len() * b);
    let n_cols = (xi.len() / k) as isize;
    for (kb, &biased) in bcols.iter().enumerate() {
        let j0 = biased as isize - b as isize;
        let v = &bvals[kb * b..(kb + 1) * b];
        let s_min = (-j0).max(0) as usize;
        let s_max = rows_valid.min((n_cols - j0).max(0) as usize);
        for (s, &a) in v.iter().enumerate().take(s_max).skip(s_min) {
            let col = (j0 + s as isize) as usize;
            for (t, &xv) in xi[col * k..(col + 1) * k].iter().enumerate() {
                let yi = t * ys + y0 + s;
                y[yi] = a.mul_add(xv, y[yi]);
            }
        }
    }
}

/// Dot product of a contiguous value run against the matching slice of the
/// input vector — the inner kernel of the 1D-VBL format. The scalar-engine
/// instantiation of [`crate::block::dot_run_core`].
#[inline]
pub fn dot_run_scalar<T: Scalar>(vals: &[T], x: &[T]) -> T {
    crate::block::dot_run_scalar_core(vals, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block;
    use crate::engine::ScalarEngine;

    fn test_vectors(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.5 + (i % 11) as f64).collect()
    }

    #[test]
    fn clipped_matches_interior_when_nothing_clips() {
        let bvals = test_vectors(2 * 6);
        let bcols = [0u32, 1];
        let x = test_vectors(6);
        let mut y1 = [0.0; 2];
        let mut y2 = [0.0; 2];
        block::bcsr_row::<f64, ScalarEngine, 2, 3>(&bvals, &bcols, &x, &mut y1);
        bcsr_block_row_clipped(2, 3, &bvals, &bcols, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn clipped_skips_out_of_matrix_columns() {
        // One 1x4 block starting at column 4 of a 6-column matrix:
        // columns 6 and 7 are padding and must not be read.
        let bvals = [1.0, 1.0, 9.0, 9.0];
        let bcols = [4u32];
        let x = test_vectors(6);
        let mut y = [0.0];
        bcsr_block_row_clipped(1, 4, &bvals, &bcols, &x, &mut y);
        assert_eq!(y[0], x[4] + x[5]);
    }

    #[test]
    fn clipped_short_yrow() {
        // 3x1 blocks, but only 2 valid rows remain.
        let bvals = [1.0, 2.0, 9.0];
        let bcols = [0u32];
        let x = [10.0];
        let mut y = [0.0; 2];
        bcsr_block_row_clipped(3, 1, &bvals, &bcols, &x, &mut y);
        assert_eq!(y, [10.0, 20.0]);
    }

    /// Biases true start columns by `+b`, as the BCSD kernel contract
    /// requires.
    fn biased(b: usize, cols: &[i64]) -> Vec<Index> {
        cols.iter().map(|&j0| (j0 + b as i64) as Index).collect()
    }

    #[test]
    fn bcsd_clipped_matches_interior_when_nothing_clips() {
        let bvals = test_vectors(8);
        let bcols = biased(4, &[0, 3]);
        let x = test_vectors(8);
        let mut y1 = [0.0; 4];
        let mut y2 = [0.0; 4];
        block::bcsd_seg::<f64, ScalarEngine, 4>(&bvals, &bcols, &x, &mut y1);
        bcsd_segment_clipped(4, &bvals, &bcols, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn bcsd_clipped_right_boundary() {
        // Block of size 4 starting at column 2 of a 4-column matrix: only
        // t = 0, 1 are inside.
        let bvals = [1.0, 2.0, 9.0, 9.0];
        let bcols = biased(4, &[2]);
        let x = [0.0, 0.0, 5.0, 7.0];
        let mut y = [0.0; 4];
        bcsd_segment_clipped(4, &bvals, &bcols, &x, &mut y);
        assert_eq!(y, [5.0, 14.0, 0.0, 0.0]);
    }

    #[test]
    fn bcsd_clipped_left_boundary() {
        // Block of size 3 with true start column -2: only t = 2 (column 0)
        // is inside the matrix.
        let bvals = [9.0, 9.0, 5.0];
        let bcols = biased(3, &[-2]);
        let x = [2.0, 0.0, 0.0];
        let mut y = [0.0; 3];
        bcsd_segment_clipped(3, &bvals, &bcols, &x, &mut y);
        assert_eq!(y, [0.0, 0.0, 10.0]);
    }

    #[test]
    fn bcsd_clipped_short_segment() {
        let bvals = [1.0, 2.0, 9.0];
        let bcols = biased(3, &[0]);
        let x = test_vectors(3);
        let mut y = [0.0; 2]; // only 2 rows remain in the last segment
        bcsd_segment_clipped(3, &bvals, &bcols, &x, &mut y);
        assert_eq!(y, [x[0], 2.0 * x[1]]);
    }

    #[test]
    fn dot_run() {
        let v = [1.0, 2.0, 3.0];
        let x = [4.0, 5.0, 6.0];
        assert_eq!(dot_run_scalar(&v, &x), 32.0);
        assert_eq!(dot_run_scalar::<f64>(&[], &[]), 0.0);
    }

    /// `k` column-major vectors of length `m` as `k`-tuples.
    fn tuples(x: &[f64], k: usize) -> Vec<f64> {
        spmv_core::multi::with_tuples(x, k, <[f64]>::to_vec)
    }

    #[test]
    fn bcsr_multi_clipped_matches_per_column_single() {
        let bvals = test_vectors(2 * 6);
        let bcols = [2u32, 4]; // second block clips at column 6 of 7
        let xs = 7;
        let ys = 3;
        for k in [2, 3, 8] {
            let x: Vec<f64> = test_vectors(k * xs + 1)[1..].to_vec();
            let mut y = vec![0.5; k * ys];
            bcsr_block_row_tuples_clipped(
                2,
                3,
                k,
                &bvals,
                &bcols,
                &tuples(&x, k),
                &mut y,
                ys,
                1,
                2,
            );
            for t in 0..k {
                let mut yref = [0.5; 2];
                bcsr_block_row_clipped(2, 3, &bvals, &bcols, &x[t * xs..(t + 1) * xs], &mut yref);
                assert_eq!(&y[t * ys + 1..t * ys + 3], &yref, "k={k} column {t}");
                assert_eq!(y[t * ys], 0.5, "rows outside the block row stay untouched");
            }
        }
    }

    #[test]
    fn bcsd_multi_clipped_matches_per_column_single() {
        let bvals = test_vectors(3 * 4);
        let bcols = biased(4, &[-2, 1, 4]); // left-clipped and right-clipped
        let xs = 6;
        let ys = 4;
        for k in [2, 5, 8] {
            let x: Vec<f64> = test_vectors(k * xs + 3)[3..].to_vec();
            let mut y = vec![0.25; k * ys];
            bcsd_segment_tuples_clipped(4, k, &bvals, &bcols, &tuples(&x, k), &mut y, ys, 0, 3);
            for t in 0..k {
                let mut yref = [0.25; 3];
                bcsd_segment_clipped(4, &bvals, &bcols, &x[t * xs..(t + 1) * xs], &mut yref);
                assert_eq!(&y[t * ys..t * ys + 3], &yref, "k={k} column {t}");
            }
        }
    }
}
