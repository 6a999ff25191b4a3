//! The const-generic block cores: one implementation per format and
//! vector layout, shared by every `(implementation, shape)` combination.
//!
//! Historically this crate carried three hand-written copies of every
//! kernel — scalar, SSE2, and multi-vector variants of both — ~1.6k
//! lines of triplicated loops. This module replaces them with generic
//! cores parameterized by a [`LaneEngine`]:
//!
//! * [`bcsr_row`] — one BCSR block row against one input vector;
//! * [`bcsd_seg`] — one BCSD segment against one input vector;
//! * [`bcsr_tuples`] / [`bcsd_tuples`] — the same against `K` vectors
//!   read as `K`-tuples (`xi[j * K + t]`, see [`spmv_core::multi`]);
//! * [`dot_run_core`] — a contiguous value run (1D-VBL inner kernel).
//!
//! Scalar kernels use [`ScalarEngine`] (`LANES = 1`, fused `mul_add`);
//! SIMD kernels use the target's SSE engines. The single-vector loop is
//! the old SIMD kernels' — per block value vector loaded once — which at
//! `LANES = 1` degenerates to exactly the old scalar kernels'
//! per-element order, and the 200-seed gate in this crate's tests pins
//! that equivalence bitwise against lane-exact simulators of the deleted
//! kernels.
//!
//! The k-tuple cores run every (row, vector) accumulator through the
//! same operations in the same order as the single-vector core. Lane
//! `q` of an engine's vector multiply-accumulate is one multiply and one
//! add (its [`LaneEngine::tail_mul_add`]), which
//! [`Scalar::mul_add_tuple`] runs across a tuple; so a row keeps `LANES`
//! partial sums per vector plus its tail sum and combines them with
//! [`LaneEngine::finish`], exactly as the vector register did. Each
//! column of a `K`-vector call is therefore bitwise that column's
//! single-vector call.
//!
//! All kernels accumulate (`+=`) into their output slice.

use crate::engine::{LaneEngine, ScalarEngine, MAX_LANES};
use spmv_core::{Index, Scalar};

/// One BCSR block row against one input vector.
///
/// Blocks `kb` start at **absolute** column `bcols[kb]` with row-major
/// values `bvals[kb*R*C .. (kb+1)*R*C]`; their products accumulate into
/// the `R` entries of `yrow`.
///
/// # Panics
///
/// Panics (via slice indexing) if a block reads past the end of `x` —
/// callers route boundary blocks to the clipped kernels in
/// [`crate::scalar`] instead.
#[inline]
pub fn bcsr_row<T: Scalar, E: LaneEngine<T>, const R: usize, const C: usize>(
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    yrow: &mut [T],
) {
    debug_assert_eq!(bvals.len(), bcols.len() * R * C);
    debug_assert_eq!(yrow.len(), R);
    let mut accv = [E::zero(); R];
    let mut accs = [T::ZERO; R];
    for (kb, &bc) in bcols.iter().enumerate() {
        let b = &bvals[kb * (R * C)..kb * (R * C) + R * C];
        let x0 = bc as usize;
        for i in 0..R {
            let row = &b[i * C..i * C + C];
            let mut j = 0;
            while j + E::LANES <= C {
                // SAFETY: `j + LANES <= C`, and `xb` is a length-C
                // checked subslice.
                let bv = unsafe { E::load(row.as_ptr().add(j)) };
                let xb = &x[x0..x0 + C];
                let xv = unsafe { E::load(xb.as_ptr().add(j)) };
                accv[i] = E::mul_acc(accv[i], bv, xv);
                j += E::LANES;
            }
            while j < C {
                accs[i] = E::tail_mul_add(accs[i], row[j], x[x0 + j]);
                j += 1;
            }
        }
    }
    for (i, (v, &s)) in accv.iter().zip(&accs).enumerate() {
        yrow[i] += E::finish(*v, s);
    }
}

/// Accumulator bytes one pass of a k-tuple core keeps live: 12 of the
/// 16 SSE registers, leaving room for the broadcast value and the
/// product. A block row (or segment, or slice) whose sums fit runs as
/// one pass, so its rows' independent sums hide the add latency; a
/// larger one runs [`rows_per_pass`] rows at a time, keeping their sums
/// in registers instead of spilling them.
pub const ACC_BYTES: usize = 192;

/// Rows a k-tuple core walks per pass when each row keeps
/// `bytes_per_row` of sums: all `rows` if they fit [`ACC_BYTES`],
/// otherwise the largest of 4, 2 and 1 that fits (at least 1).
pub const fn rows_per_pass(rows: usize, bytes_per_row: usize) -> usize {
    let fit = ACC_BYTES / bytes_per_row;
    if fit >= rows {
        rows
    } else if fit >= 4 {
        4
    } else if fit >= 2 {
        2
    } else {
        1
    }
}

/// Covers rows `0..$rows` with passes of `rows_per_pass($rows,
/// $bytes_per_row)` rows and singles for the rest; `$pass!(N, i0)` runs
/// one pass of the const width `N` from row `i0`. The widths are inline
/// `const` conditions, so an instantiation compiles only the passes it
/// runs.
macro_rules! in_passes {
    ($rows:expr, $bytes_per_row:expr, $pass:ident) => {{
        let mut i = 0;
        if const { rows_per_pass($rows, $bytes_per_row) == $rows } {
            $pass!($rows, 0);
            i = $rows;
        } else if const { rows_per_pass($rows, $bytes_per_row) == 4 } {
            while i + 4 <= $rows {
                $pass!(4, i);
                i += 4;
            }
        } else if const { rows_per_pass($rows, $bytes_per_row) == 2 } {
            while i + 2 <= $rows {
                $pass!(2, i);
                i += 2;
            }
        }
        while i < $rows {
            $pass!(1, i);
            i += 1;
        }
    }};
}
pub(crate) use in_passes;

/// One BCSR block row against `K` input vectors read as `K`-tuples.
///
/// `xi[j * K + t]` is element `j` of vector `t`; `y` holds `K`
/// column-major outputs of stride `ys`, and the block row's first output
/// row is `y0`. Each (row, vector) pair keeps [`bcsr_row`]'s lane split:
/// columns `j` of a block's full lane groups feed partial sum
/// `j % LANES`, the rest feed a tail sum, and [`LaneEngine::finish`]
/// combines them once per block row. Each stored element takes one
/// contiguous tuple load; the rows run in passes ([`rows_per_pass`]).
///
/// # Panics
///
/// Panics (via slice indexing) if a block reads past the last tuple.
#[inline]
pub fn bcsr_tuples<T: Scalar, E: LaneEngine<T>, const R: usize, const C: usize, const K: usize>(
    bvals: &[T],
    bcols: &[Index],
    xi: &[T],
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    const { assert!(E::LANES <= MAX_LANES) };
    debug_assert_eq!(bvals.len(), bcols.len() * R * C);
    let (tuples, _) = xi.as_chunks::<K>();
    macro_rules! pass {
        ($n:tt, $i0:expr) => {
            bcsr_tuple_rows::<T, E, R, C, K, $n>(bvals, bcols, tuples, $i0, y, ys, y0)
        };
    }
    // Sums per row and vector: LANES partials if a lane group fits, plus
    // a tail sum if columns are left over.
    in_passes!(
        R,
        ((C / E::LANES > 0) as usize * E::LANES + !C.is_multiple_of(E::LANES) as usize)
            * K
            * size_of::<T>(),
        pass
    );
}

/// The `N` rows `i0 .. i0 + N` of a BCSR block row: one pass over its
/// blocks with every (row, lane, vector) sum in a local, each stored
/// value broadcast against its column's tuple.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bcsr_tuple_rows<
    T: Scalar,
    E: LaneEngine<T>,
    const R: usize,
    const C: usize,
    const K: usize,
    const N: usize,
>(
    bvals: &[T],
    bcols: &[Index],
    tuples: &[[T; K]],
    i0: usize,
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    let mut accv = [[[T::ZERO; K]; MAX_LANES]; N];
    let mut accs = [[T::ZERO; K]; N];
    for (kb, &bc) in bcols.iter().enumerate() {
        let b = &bvals[kb * (R * C) + i0 * C..kb * (R * C) + (i0 + N) * C];
        let xb = &tuples[bc as usize..bc as usize + C];
        let mut j = 0;
        while j + E::LANES <= C {
            for q in 0..E::LANES {
                for (n, row) in accv.iter_mut().enumerate() {
                    T::mul_add_tuple(&mut row[q], b[n * C + j + q], &xb[j + q]);
                }
            }
            j += E::LANES;
        }
        while j < C {
            for (n, sums) in accs.iter_mut().enumerate() {
                T::mul_add_tuple(sums, b[n * C + j], &xb[j]);
            }
            j += 1;
        }
    }
    for (n, (row, tails)) in accv.iter().zip(&accs).enumerate() {
        for (t, &tail) in tails.iter().enumerate() {
            let mut lanes = [T::ZERO; MAX_LANES];
            for (l, sums) in lanes.iter_mut().zip(row).take(E::LANES) {
                *l = sums[t];
            }
            // SAFETY: `LANES <= MAX_LANES` elements of `lanes`.
            let v = unsafe { E::load(lanes.as_ptr()) };
            y[t * ys + y0 + i0 + n] += E::finish(v, tail);
        }
    }
}

/// One BCSD segment against one input vector.
///
/// Diagonal blocks `kb` carry the `B` diagonal values
/// `bvals[kb*B .. (kb+1)*B]`; `bcols[kb]` stores the block's start
/// column **biased by `+B`** (`bcols[kb] = j0 + B`), which keeps
/// left-edge blocks (negative true `j0`) representable in the unsigned
/// index type. This interior kernel requires `bcols[kb] >= B`; edge
/// blocks go through [`crate::scalar::bcsd_segment_clipped`].
#[inline]
pub fn bcsd_seg<T: Scalar, E: LaneEngine<T>, const B: usize>(
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    yseg: &mut [T],
) {
    debug_assert_eq!(bvals.len(), bcols.len() * B);
    debug_assert_eq!(yseg.len(), B);
    // `B` lane groups cover every engine (LANES = 1 needs all of them);
    // at most `LANES - 1 <= 7` tail positions.
    let mut accv = [E::zero(); B];
    let mut acct = [T::ZERO; 7];
    let groups = B / E::LANES;
    let tail = B % E::LANES;
    for (kb, &j0) in bcols.iter().enumerate() {
        let v = &bvals[kb * B..kb * B + B];
        debug_assert!(j0 as usize >= B, "left-clipped block in interior kernel");
        let j0 = j0 as usize - B;
        for (q, acc) in accv.iter_mut().enumerate().take(groups) {
            // SAFETY: `LANES * q + LANES <= B` for `q < groups`, inside
            // the length-B checked subslices `v` and `xb`.
            let bv = unsafe { E::load(v.as_ptr().add(E::LANES * q)) };
            let xb = &x[j0..j0 + B];
            let xv = unsafe { E::load(xb.as_ptr().add(E::LANES * q)) };
            *acc = E::mul_acc(*acc, bv, xv);
        }
        for (s, a) in acct.iter_mut().enumerate().take(tail) {
            let p = groups * E::LANES + s;
            *a = E::tail_mul_add(*a, v[p], x[j0 + p]);
        }
    }
    for (q, acc) in accv.iter().enumerate().take(groups) {
        for l in 0..E::LANES {
            yseg[q * E::LANES + l] += E::lane(*acc, l);
        }
    }
    for (s, &a) in acct.iter().enumerate().take(tail) {
        yseg[groups * E::LANES + s] += a;
    }
}

/// One BCSD segment against `K` input vectors read as `K`-tuples;
/// layout and offsets as in [`bcsr_tuples`], block conventions as in
/// [`bcsd_seg`].
///
/// Every diagonal position `s` has one sum per vector in [`bcsd_seg`]
/// too, a lane of a vector accumulator or a tail slot, updated by the
/// same per-lane operation and added to `y` once, so the columns match
/// the single-vector kernel bitwise whatever its engine: one core serves
/// both implementations. The positions run in passes
/// ([`rows_per_pass`]).
#[inline]
pub fn bcsd_tuples<T: Scalar, const B: usize, const K: usize>(
    bvals: &[T],
    bcols: &[Index],
    xi: &[T],
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    debug_assert_eq!(bvals.len(), bcols.len() * B);
    let (tuples, _) = xi.as_chunks::<K>();
    macro_rules! pass {
        ($n:tt, $s0:expr) => {
            bcsd_tuple_diag::<T, B, K, $n>(bvals, bcols, tuples, $s0, y, ys, y0)
        };
    }
    in_passes!(B, K * size_of::<T>(), pass);
}

/// The `N` diagonal positions `s0 .. s0 + N` of a BCSD segment: one pass
/// over its blocks with every (position, vector) sum in a local.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bcsd_tuple_diag<T: Scalar, const B: usize, const K: usize, const N: usize>(
    bvals: &[T],
    bcols: &[Index],
    tuples: &[[T; K]],
    s0: usize,
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    let mut acc = [[T::ZERO; K]; N];
    for (kb, &j0) in bcols.iter().enumerate() {
        debug_assert!(j0 as usize >= B, "left-clipped block in interior kernel");
        let v = &bvals[kb * B + s0..kb * B + s0 + N];
        let x0 = j0 as usize - B + s0;
        let xb = &tuples[x0..x0 + N];
        for ((sums, &a), xt) in acc.iter_mut().zip(v).zip(xb) {
            T::mul_add_tuple(sums, a, xt);
        }
    }
    for (n, sums) in acc.iter().enumerate() {
        for (t, &a) in sums.iter().enumerate() {
            y[t * ys + y0 + s0 + n] += a;
        }
    }
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
            acc = E::mul_acc(
                acc,
                E::load(vals.as_ptr().add(j)),
                E::load(x.as_ptr().add(j)),
            );
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
            let bcols: Vec<Index> = [0i64, 1, 4, 7, 9]
                .iter()
                .map(|&j0| (j0 + b as i64) as Index)
                .collect();
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

    /// `k` column-major vectors of length `m` as `k`-tuples.
    fn tuples(x: &[f64], k: usize) -> Vec<f64> {
        spmv_core::multi::with_tuples(x, k, <[f64]>::to_vec)
    }

    #[test]
    fn bcsr_multi_matches_per_column_single() {
        let bvals = test_vectors(3 * 6); // three 2x3 blocks
        let bcols = [0u32, 3, 6];
        let xs = 12; // columns
        let ys = 5; // rows
        let x: Vec<f64> = test_vectors(4 * xs);
        let mut y = vec![0.0; 4 * ys];
        bcsr_tuples::<f64, ScalarEngine, 2, 3, 4>(&bvals, &bcols, &tuples(&x, 4), &mut y, ys, 2);
        for t in 0..4 {
            let mut yref = [0.0; 2];
            bcsr_row::<f64, ScalarEngine, 2, 3>(
                &bvals,
                &bcols,
                &x[t * xs..(t + 1) * xs],
                &mut yref,
            );
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
        bcsd_tuples::<f64, 3, 4>(&bvals, &bcols, &tuples(&x, 4), &mut y, ys, 1);
        for t in 0..4 {
            let mut yref = [0.0; 3];
            bcsd_seg::<f64, ScalarEngine, 3>(&bvals, &bcols, &x[t * xs..(t + 1) * xs], &mut yref);
            assert_eq!(&y[t * ys + 1..t * ys + 4], &yref, "column {t}");
        }
    }

    #[test]
    fn simd_engine_multi_matches_per_column_single_bitwise() {
        // The K-tuple cores must be bitwise-equal to K single calls for
        // the SIMD engines too: each lane of the vector accumulator and
        // the tail become separate sums, combined in `finish` order.
        type E64 = <f64 as crate::simd::SimdScalar>::Engine;
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let x: Vec<f64> = (0..8 * 16).map(|i| 0.1 + (i % 13) as f64 / 7.0).collect();
        let xi = tuples(&x, 8);
        // 2x3 blocks: one lane group and a tail column per row.
        let bvals: Vec<f64> = (0..3 * 6).map(|i| 1.0 / (i + 3) as f64).collect();
        let bcols = [0u32, 5, 10];
        let mut y = vec![0.25; 8 * 4];
        bcsr_tuples::<f64, E64, 2, 3, 8>(&bvals, &bcols, &xi, &mut y, 4, 1);
        for t in 0..8 {
            let mut yref = [0.25; 2];
            bcsr_row::<f64, E64, 2, 3>(&bvals, &bcols, &x[t * 16..(t + 1) * 16], &mut yref);
            assert_eq!(
                bits(&y[t * 4 + 1..t * 4 + 3]),
                bits(&yref),
                "bcsr column {t}"
            );
        }
        // Size-5 diagonal blocks: two lane groups and a tail position.
        let bcols = biased(5, &[0, 7, 11]);
        let bvals: Vec<f64> = (0..3 * 5).map(|i| 1.0 / (i + 2) as f64).collect();
        let mut y = vec![0.5; 8 * 6];
        bcsd_tuples::<f64, 5, 8>(&bvals, &bcols, &xi, &mut y, 6, 1);
        for t in 0..8 {
            let mut yref = [0.5; 5];
            bcsd_seg::<f64, E64, 5>(&bvals, &bcols, &x[t * 16..(t + 1) * 16], &mut yref);
            assert_eq!(
                bits(&y[t * 6 + 1..t * 6 + 6]),
                bits(&yref),
                "bcsd column {t}"
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
