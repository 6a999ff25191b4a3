//! Blocked Compressed Sparse Diagonal (BCSD) with zero padding.

use crate::gather::{bcsd_grid, gather, Blocks};
use crate::{SpMvAcc, SpMvMultiAcc};
use spmv_core::{Csr, Error, Index, MatrixShape, Result, SpMv, SpMvMulti};
use spmv_kernels::registry::{bcsd_seg_kernel, bcsd_seg_multi_kernel, BcsdSegKernel};
use spmv_kernels::scalar::{bcsd_segment_clipped, bcsd_segment_tuples_clipped};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::KernelImpl;

/// BCSD: fixed-size diagonal blocks with zero padding (§II-A).
///
/// The matrix is cut into row *segments* of height `b` (the alignment rule
/// `i % b == 0`). A diagonal block starting at `(s*b, j0)` covers the
/// positions `(s*b + t, j0 + t)` for `t` in `[0, b)`; `bval` stores the
/// `b` diagonal values of every block, `bcol` one start column per block
/// (biased by `+b`, see below), and `brow_ptr` one offset per segment.
/// Missing diagonal positions are padded with explicit zeros.
///
/// Elements within `b-1` columns of the left edge can only sit on
/// diagonals whose conceptual start column is negative; those blocks are
/// clipped at the edge exactly like blocks leaving the matrix on the
/// right. To keep `u32` indices, stored start columns carry a `+b` bias
/// (`stored = j0 + b`), which the kernels subtract.
///
/// ```
/// use spmv_core::{Coo, Csr, SpMv};
/// use spmv_formats::Bcsd;
/// use spmv_kernels::KernelImpl;
///
/// // A perfect tridiagonal-free case: one full diagonal run.
/// let csr = Csr::from_coo(&Coo::from_triplets(4, 4, vec![
///     (0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (3, 3, 4.0),
/// ]).unwrap());
/// let bcsd = Bcsd::from_csr(&csr, 4, KernelImpl::Scalar);
/// assert_eq!(bcsd.n_blocks(), 1);
/// assert_eq!(bcsd.padding(), 0);
/// assert_eq!(bcsd.spmv(&[1.0; 4]), csr.spmv(&[1.0; 4]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsd<T> {
    n_rows: usize,
    n_cols: usize,
    b: usize,
    imp: KernelImpl,
    /// Offset of each segment's first block; `n_segments + 1` entries.
    brow_ptr: Vec<Index>,
    /// Start column of each block, biased by `+b`, sorted per segment.
    bcol_biased: Vec<Index>,
    /// Block values, `b` per block (diagonal order).
    bval: Vec<T>,
    nnz_orig: usize,
    /// Slots of `bval` an entry of the source reached; below `nnz_orig`
    /// only when a row repeats a column.
    filled: usize,
}

impl<T: SimdScalar> Bcsd<T> {
    /// Converts `csr` to BCSD with diagonal blocks of size `b`
    /// (`1 <= b <= 8`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside `1..=8` or the block count overflows the
    /// `u32` index type.
    pub fn from_csr(csr: &Csr<T>, b: usize, imp: KernelImpl) -> Self {
        assert!((1..=8).contains(&b), "BCSD block size must be in 1..=8");
        let blocks = gather(csr, &bcsd_grid(csr.n_cols(), b), None);
        Self::from_parts(csr.n_rows(), csr.n_cols(), b, imp, blocks)
    }

    /// Assembles a BCSD matrix from gathered blocks (the decomposed
    /// constructor passes only the full ones).
    pub(crate) fn from_parts(
        n_rows: usize,
        n_cols: usize,
        b: usize,
        imp: KernelImpl,
        blocks: Blocks<T>,
    ) -> Self {
        let bcsd = Bcsd {
            n_rows,
            n_cols,
            b,
            imp,
            brow_ptr: blocks.brow_ptr,
            bcol_biased: blocks.keys,
            bval: blocks.bval,
            nnz_orig: blocks.nnz,
            filled: blocks.filled,
        };
        debug_assert!(bcsd.validate().is_ok());
        bcsd
    }

    /// The diagonal block size `b`.
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// The kernel implementation used by `spmv`.
    pub fn kernel_impl(&self) -> KernelImpl {
        self.imp
    }

    /// Switches between the scalar and SIMD kernel in place.
    pub fn set_kernel_impl(&mut self, imp: KernelImpl) {
        self.imp = imp;
    }

    /// Total number of diagonal blocks, `nb`.
    pub fn n_blocks(&self) -> usize {
        self.bcol_biased.len()
    }

    /// Explicit zeros added to complete blocks: the stored slots no
    /// entry of the source reached.
    pub fn padding(&self) -> usize {
        self.bval.len() - self.filled
    }

    /// Nonzeros of the source matrix.
    pub fn nnz_orig(&self) -> usize {
        self.nnz_orig
    }

    /// Fraction of stored slots that hold an entry of the source,
    /// `nnz / (nb*b)` when no row repeats a column.
    pub fn fill_ratio(&self) -> f64 {
        if self.bval.is_empty() {
            1.0
        } else {
            self.filled as f64 / self.bval.len() as f64
        }
    }

    /// Converts back to CSR, dropping the padding zeros (exact inverse of
    /// [`Bcsd::from_csr`], since source zeros are never stored).
    pub fn to_csr(&self) -> Csr<T> {
        let b = self.b;
        let mut coo = spmv_core::Coo::with_capacity(self.n_rows, self.n_cols, self.nnz_orig);
        for s in 0..self.brow_ptr.len() - 1 {
            for k in self.brow_ptr[s] as usize..self.brow_ptr[s + 1] as usize {
                let j0 = self.bcol_biased[k] as i64 - b as i64;
                for t in 0..b {
                    let row = s * b + t;
                    let col = j0 + t as i64;
                    let v = self.bval[k * b + t];
                    if row < self.n_rows && (0..self.n_cols as i64).contains(&col) && v != T::ZERO {
                        coo.push(row, col as usize, v).expect("inside matrix");
                    }
                }
            }
        }
        Csr::from_coo(&coo)
    }

    /// Checks the structural invariants of the format.
    pub fn validate(&self) -> Result<()> {
        let n_segs = self.n_rows.div_ceil(self.b);
        if self.brow_ptr.len() != n_segs + 1 {
            return Err(Error::InvalidStructure(format!(
                "brow_ptr has {} entries, expected {}",
                self.brow_ptr.len(),
                n_segs + 1
            )));
        }
        if self.brow_ptr.first() != Some(&0)
            || *self.brow_ptr.last().unwrap() as usize != self.bcol_biased.len()
        {
            return Err(Error::InvalidStructure("brow_ptr endpoints wrong".into()));
        }
        if self.bval.len() != self.bcol_biased.len() * self.b {
            return Err(Error::InvalidStructure("bval length mismatch".into()));
        }
        for s in 0..n_segs {
            let range = self.brow_ptr[s] as usize..self.brow_ptr[s + 1] as usize;
            for k in range.clone().skip(1) {
                if self.bcol_biased[k - 1] >= self.bcol_biased[k] {
                    return Err(Error::InvalidStructure(format!(
                        "segment {s}: duplicate or unsorted blocks"
                    )));
                }
            }
            for k in range {
                let j0 = self.bcol_biased[k] as i64 - self.b as i64;
                if j0 <= -(self.b as i64) || j0 >= self.n_cols as i64 {
                    return Err(Error::InvalidStructure(format!(
                        "segment {s}: block start {j0} entirely outside the matrix"
                    )));
                }
            }
        }
        Ok(())
    }

    fn spmv_acc_impl(&self, x: &[T], y: &mut [T]) {
        let b = self.b;
        let kern: BcsdSegKernel<T> = bcsd_seg_kernel(b, self.imp);
        let n_segs = self.brow_ptr.len() - 1;
        for s in 0..n_segs {
            let start = self.brow_ptr[s] as usize;
            let end = self.brow_ptr[s + 1] as usize;
            if start == end {
                continue;
            }
            let y0 = s * b;
            if y0 + b <= self.n_rows {
                let yseg = &mut y[y0..y0 + b];
                // Left-clipped blocks (j0 < 0 ⇔ biased < b) form a sorted
                // prefix; right-clipped ones (j0 + b > n_cols ⇔ biased >
                // n_cols) a sorted suffix.
                let mut lo = start;
                while lo < end && (self.bcol_biased[lo] as usize) < b {
                    lo += 1;
                }
                let mut hi = end;
                while hi > lo && self.bcol_biased[hi - 1] as usize > self.n_cols {
                    hi -= 1;
                }
                if lo > start {
                    bcsd_segment_clipped(
                        b,
                        &self.bval[start * b..lo * b],
                        &self.bcol_biased[start..lo],
                        x,
                        yseg,
                    );
                }
                if hi > lo {
                    kern(
                        &self.bval[lo * b..hi * b],
                        &self.bcol_biased[lo..hi],
                        x,
                        yseg,
                    );
                }
                if end > hi {
                    bcsd_segment_clipped(
                        b,
                        &self.bval[hi * b..end * b],
                        &self.bcol_biased[hi..end],
                        x,
                        yseg,
                    );
                }
            } else {
                let yseg = &mut y[y0..self.n_rows];
                bcsd_segment_clipped(
                    b,
                    &self.bval[start * b..end * b],
                    &self.bcol_biased[start..end],
                    x,
                    yseg,
                );
            }
        }
    }
}

impl<T> MatrixShape for Bcsd<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: SimdScalar> SpMv<T> for Bcsd<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        y.fill(T::ZERO);
        self.spmv_acc_impl(x, y);
    }

    fn nnz_stored(&self) -> usize {
        self.bval.len()
    }

    fn matrix_bytes(&self) -> usize {
        self.bval.len() * T::BYTES
            + (self.bcol_biased.len() + self.brow_ptr.len()) * core::mem::size_of::<Index>()
    }
}

impl<T: SimdScalar> SpMvAcc<T> for Bcsd<T> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        self.spmv_acc_impl(x, y);
    }
}

impl<T: SimdScalar> SpMvMulti<T> for Bcsd<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        y.fill(T::ZERO);
        self.spmv_multi_acc(x, y, k);
    }
}

impl<T: SimdScalar> SpMvMultiAcc<T> for Bcsd<T> {
    /// `Y += A * X` for `kc` vectors read as kc-tuples, mirroring the
    /// interior/clipped split of `spmv_acc_impl`.
    fn spmv_tuples_acc(&self, xi: &[T], y: &mut [T], kc: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, xi, y, kc);
        let b = self.b;
        let kern = bcsd_seg_multi_kernel::<T>(b, kc)
            .unwrap_or_else(|| panic!("no k-tuple kernel for {kc} vectors"));
        let (m, n) = (self.n_cols, self.n_rows);
        let n_segs = self.brow_ptr.len() - 1;
        for s in 0..n_segs {
            let start = self.brow_ptr[s] as usize;
            let end = self.brow_ptr[s + 1] as usize;
            if start == end {
                continue;
            }
            let y0 = s * b;
            let (bvals, bcols) = (
                &self.bval[start * b..end * b],
                &self.bcol_biased[start..end],
            );
            if y0 + b <= n {
                let mut lo = 0;
                while lo < bcols.len() && (bcols[lo] as usize) < b {
                    lo += 1;
                }
                let mut hi = bcols.len();
                while hi > lo && bcols[hi - 1] as usize > m {
                    hi -= 1;
                }
                let clipped = |bv: &[T], bc: &[Index], y: &mut [T]| {
                    bcsd_segment_tuples_clipped(b, kc, bv, bc, xi, y, n, y0, b);
                };
                if lo > 0 {
                    clipped(&bvals[..lo * b], &bcols[..lo], y);
                }
                if hi > lo {
                    kern(&bvals[lo * b..hi * b], &bcols[lo..hi], xi, y, n, y0);
                }
                if bcols.len() > hi {
                    clipped(&bvals[hi * b..], &bcols[hi..], y);
                }
            } else {
                bcsd_segment_tuples_clipped(b, kc, bvals, bcols, xi, y, n, y0, n - y0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    fn fixture_csr(n: usize, m: usize, seed: u64) -> Csr<f64> {
        let mut coo = Coo::new(n, m);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            // Diagonal-ish structure plus scattered entries, including
            // the left-edge corner that forces negative start columns.
            if i < m {
                let _ = coo.push(i, i, 2.0 + (i % 5) as f64);
            }
            let _ = coo.push(i, (next() as usize) % m, 1.0 + (next() % 7) as f64);
            let _ = coo.push(i, 0, 0.5);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn all_sizes_match_csr_reference() {
        let csr = fixture_csr(23, 19, 11);
        let x: Vec<f64> = (0..19).map(|i| 1.0 + (i % 7) as f64).collect();
        let want = csr.spmv(&x);
        for b in spmv_kernels::BCSD_SIZES {
            for imp in KernelImpl::ALL {
                let bcsd = Bcsd::from_csr(&csr, b, imp);
                bcsd.validate().unwrap();
                let got = bcsd.spmv(&x);
                for (a, g) in want.iter().zip(&got) {
                    assert!((a - g).abs() < 1e-9, "b={b} imp={imp}: {a} vs {g}");
                }
            }
        }
    }

    #[test]
    fn pure_diagonal_has_no_padding_when_b_divides_n() {
        let csr = fixture_csr(16, 16, 0);
        let diag = {
            let mut coo = Coo::new(16, 16);
            for i in 0..16 {
                coo.push(i, i, 1.0).unwrap();
            }
            Csr::from_coo(&coo)
        };
        let bcsd = Bcsd::from_csr(&diag, 4, KernelImpl::Scalar);
        assert_eq!(bcsd.n_blocks(), 4);
        assert_eq!(bcsd.padding(), 0);
        // While the random fixture pads plenty.
        let messy = Bcsd::from_csr(&csr, 4, KernelImpl::Scalar);
        assert!(messy.padding() > 0);
    }

    #[test]
    fn off_diagonal_band_blocks() {
        // A full superdiagonal: every segment has one diagonal block
        // starting at column s*b + 1, padded in its last slot... actually
        // a shifted diagonal stays a perfect diagonal run per segment.
        let mut coo = Coo::new(8, 9);
        for i in 0..8 {
            coo.push(i, i + 1, 1.0).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let bcsd = Bcsd::from_csr(&csr, 4, KernelImpl::Scalar);
        assert_eq!(bcsd.n_blocks(), 2);
        assert_eq!(bcsd.padding(), 0);
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        assert_eq!(bcsd.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn left_edge_negative_start_columns() {
        // Element (3, 0) in a b=4 segment has t=3, so its block starts at
        // column -3 and is clipped to a single in-matrix position.
        let csr = Csr::from_coo(&Coo::from_triplets(4, 4, vec![(3, 0, 7.0)]).unwrap());
        let bcsd = Bcsd::from_csr(&csr, 4, KernelImpl::Scalar);
        bcsd.validate().unwrap();
        assert_eq!(bcsd.n_blocks(), 1);
        assert_eq!(bcsd.padding(), 3);
        assert_eq!(bcsd.spmv(&[2.0, 0.0, 0.0, 0.0]), vec![0.0, 0.0, 0.0, 14.0]);
    }

    #[test]
    fn segment_alignment_splits_long_diagonals() {
        // One 8-long diagonal with b=3 spans segments 0..3: 3 blocks, and
        // the last segment is short (rows 6, 7).
        let mut coo = Coo::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let bcsd = Bcsd::from_csr(&csr, 3, KernelImpl::Scalar);
        assert_eq!(bcsd.n_blocks(), 3);
        // Segments 0 and 1 are full (3 values each); the clipped segment 2
        // stores a full block of 3 with 1 pad (rows 6, 7 valid).
        assert_eq!(bcsd.nnz_stored(), 9);
        assert_eq!(bcsd.padding(), 1);
        let x = vec![1.0; 8];
        assert_eq!(bcsd.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn spmv_acc_accumulates() {
        let csr = fixture_csr(9, 9, 5);
        let bcsd = Bcsd::from_csr(&csr, 3, KernelImpl::Scalar);
        let x = vec![1.0; 9];
        let base = csr.spmv(&x);
        let mut y = base.clone();
        bcsd.spmv_acc(&x, &mut y);
        for (a, b) in y.iter().zip(&base) {
            assert!((a - 2.0 * b).abs() < 1e-9);
        }
    }

    #[test]
    fn multi_matches_per_column_spmv() {
        let csr = fixture_csr(23, 19, 11);
        for b in [3, 4, 8] {
            for imp in KernelImpl::ALL {
                let bcsd = Bcsd::from_csr(&csr, b, imp);
                for k in [1, 2, 5, 8] {
                    let x: Vec<f64> = (0..19 * k).map(|i| 1.0 + (i % 7) as f64).collect();
                    let got = bcsd.spmv_multi(&x, k);
                    for t in 0..k {
                        let want = bcsd.spmv(&x[t * 19..(t + 1) * 19]);
                        assert_eq!(got[t * 23..(t + 1) * 23], want, "b={b} k={k} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_precision_matches() {
        let mut coo = Coo::<f32>::new(12, 12);
        for i in 0..12 {
            coo.push(i, i, 1.5).unwrap();
            coo.push(i, (i + 2) % 12, 0.5).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let x: Vec<f32> = (0..12).map(|i| i as f32 * 0.25).collect();
        let want = csr.spmv(&x);
        for imp in KernelImpl::ALL {
            let bcsd = Bcsd::from_csr(&csr, 4, imp);
            for (a, g) in want.iter().zip(bcsd.spmv(&x)) {
                assert!((a - g).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn rectangular_wide_and_tall() {
        let wide = fixture_csr(6, 20, 2);
        let tall = fixture_csr(20, 6, 2);
        let xw: Vec<f64> = (0..20).map(|i| 1.0 + i as f64).collect();
        let xt: Vec<f64> = (0..6).map(|i| 1.0 + i as f64).collect();
        for b in [2, 5, 8] {
            let bw = Bcsd::from_csr(&wide, b, KernelImpl::Scalar);
            let bt = Bcsd::from_csr(&tall, b, KernelImpl::Scalar);
            bw.validate().unwrap();
            bt.validate().unwrap();
            for (a, g) in wide.spmv(&xw).iter().zip(bw.spmv(&xw)) {
                assert!((a - g).abs() < 1e-9);
            }
            for (a, g) in tall.spmv(&xt).iter().zip(bt.spmv(&xt)) {
                assert!((a - g).abs() < 1e-9);
            }
        }
    }
}
