//! Blocked Compressed Sparse Row (BCSR) with zero padding.

use crate::gather::{bcsr_grid, gather, Blocks};
use crate::{SpMvAcc, SpMvMultiAcc};
use spmv_core::{Csr, Error, Index, MatrixShape, Result, SpMv, SpMvMulti};
use spmv_kernels::registry::{bcsr_row_kernel, bcsr_row_multi_kernel, BcsrRowKernel};
use spmv_kernels::scalar::{bcsr_block_row_clipped, bcsr_block_row_tuples_clipped};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::{BlockShape, KernelImpl};

/// BCSR: fixed-size `r x c` blocks with aggressive zero padding (§II-A).
///
/// Three arrays store the matrix: `bval` (the `r*c` values of every block,
/// row-major), `bcol_start` (one start column per block), and `brow_ptr`
/// (one offset per block row). Every block with at least one nonzero is
/// materialized in full; missing positions hold explicit zeros — that
/// padding is the price of the uniform, fully unrolled kernels.
///
/// Every block starts at `(i, j)` with `i % r == 0` and `j % c == 0`
/// (the paper's aligned variant).
///
/// ```
/// use spmv_core::{Coo, Csr, SpMv};
/// use spmv_formats::Bcsr;
/// use spmv_kernels::{BlockShape, KernelImpl};
///
/// let csr = Csr::from_coo(&Coo::from_triplets(4, 4, vec![
///     (0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0), // one full 2x2 block
///     (2, 2, 5.0),                                        // one block with 3 padded zeros
/// ]).unwrap());
/// let bcsr = Bcsr::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
/// assert_eq!(bcsr.n_blocks(), 2);
/// assert_eq!(bcsr.padding(), 3);
/// assert_eq!(bcsr.spmv(&[1.0; 4]), csr.spmv(&[1.0; 4]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsr<T> {
    n_rows: usize,
    n_cols: usize,
    shape: BlockShape,
    imp: KernelImpl,
    /// Offset of each block row's first block; `n_brows + 1` entries.
    brow_ptr: Vec<Index>,
    /// Absolute start column of each block, sorted within a block row.
    bcol_start: Vec<Index>,
    /// Block values, `r * c` per block, row-major within the block.
    bval: Vec<T>,
    /// Nonzeros of the source matrix (excludes padding).
    nnz_orig: usize,
    /// Slots of `bval` an entry of the source reached; below `nnz_orig`
    /// only when a row repeats a column.
    filled: usize,
}

impl<T: SimdScalar> Bcsr<T> {
    /// Converts `csr` to BCSR with the given block shape.
    ///
    /// # Panics
    ///
    /// Panics if the block count would overflow the `u32` index type.
    pub fn from_csr(csr: &Csr<T>, shape: BlockShape, imp: KernelImpl) -> Self {
        let grid = bcsr_grid(csr.n_cols(), shape.rows(), shape.cols());
        let blocks = gather(csr, &grid, None);
        Self::from_parts(csr.n_rows(), csr.n_cols(), shape, imp, blocks)
    }

    /// Assembles a BCSR matrix from gathered blocks (the decomposed
    /// constructor passes only the full ones).
    pub(crate) fn from_parts(
        n_rows: usize,
        n_cols: usize,
        shape: BlockShape,
        imp: KernelImpl,
        blocks: Blocks<T>,
    ) -> Self {
        let bcsr = Bcsr {
            n_rows,
            n_cols,
            shape,
            imp,
            brow_ptr: blocks.brow_ptr,
            bcol_start: blocks.keys,
            bval: blocks.bval,
            nnz_orig: blocks.nnz,
            filled: blocks.filled,
        };
        debug_assert!(bcsr.validate().is_ok());
        bcsr
    }

    /// The block shape `r x c`.
    pub fn shape(&self) -> BlockShape {
        self.shape
    }

    /// The kernel implementation used by `spmv`.
    pub fn kernel_impl(&self) -> KernelImpl {
        self.imp
    }

    /// Switches between the scalar and SIMD kernel in place.
    pub fn set_kernel_impl(&mut self, imp: KernelImpl) {
        self.imp = imp;
    }

    /// Total number of blocks, `nb`.
    pub fn n_blocks(&self) -> usize {
        self.bcol_start.len()
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
    /// `nnz / (nb*r*c)` when no row repeats a column.
    pub fn fill_ratio(&self) -> f64 {
        if self.bval.is_empty() {
            1.0
        } else {
            self.filled as f64 / self.bval.len() as f64
        }
    }

    /// Converts back to CSR, dropping the padding zeros.
    ///
    /// Because COO→CSR construction discards exact zeros, every zero in
    /// `bval` is padding, so `bcsr.to_csr()` reproduces the source matrix
    /// exactly: `Bcsr::from_csr(&m, ..).to_csr() == m`.
    pub fn to_csr(&self) -> Csr<T> {
        let (r, c) = (self.shape.rows(), self.shape.cols());
        let mut coo = spmv_core::Coo::with_capacity(self.n_rows, self.n_cols, self.nnz_orig);
        for rb in 0..self.brow_ptr.len() - 1 {
            for k in self.brow_ptr[rb] as usize..self.brow_ptr[rb + 1] as usize {
                let j0 = self.bcol_start[k] as usize;
                for i in 0..r {
                    let row = rb * r + i;
                    if row >= self.n_rows {
                        break;
                    }
                    for j in 0..c {
                        let col = j0 + j;
                        let v = self.bval[k * r * c + i * c + j];
                        if col < self.n_cols && v != T::ZERO {
                            coo.push(row, col, v).expect("block inside matrix");
                        }
                    }
                }
            }
        }
        Csr::from_coo(&coo)
    }

    /// Checks the structural invariants of the format.
    pub fn validate(&self) -> Result<()> {
        let (r, c) = (self.shape.rows(), self.shape.cols());
        let n_brows = self.n_rows.div_ceil(r);
        if self.brow_ptr.len() != n_brows + 1 {
            return Err(Error::InvalidStructure(format!(
                "brow_ptr has {} entries, expected {}",
                self.brow_ptr.len(),
                n_brows + 1
            )));
        }
        if self.brow_ptr.first() != Some(&0)
            || *self.brow_ptr.last().unwrap() as usize != self.bcol_start.len()
        {
            return Err(Error::InvalidStructure("brow_ptr endpoints wrong".into()));
        }
        if self.bval.len() != self.bcol_start.len() * r * c {
            return Err(Error::InvalidStructure("bval length mismatch".into()));
        }
        for w in self.brow_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(Error::InvalidStructure("brow_ptr not monotone".into()));
            }
        }
        for rb in 0..n_brows {
            let range = self.brow_ptr[rb] as usize..self.brow_ptr[rb + 1] as usize;
            for k in range.clone().skip(1) {
                if self.bcol_start[k - 1] >= self.bcol_start[k] {
                    return Err(Error::InvalidStructure(format!(
                        "block row {rb}: duplicate or unsorted blocks"
                    )));
                }
            }
            for k in range {
                let j0 = self.bcol_start[k];
                if !(j0 as usize).is_multiple_of(c) {
                    return Err(Error::InvalidStructure(format!(
                        "block row {rb}: start column {j0} breaks alignment"
                    )));
                }
                if j0 as usize >= self.n_cols {
                    return Err(Error::OutOfBounds {
                        row: rb * r,
                        col: j0 as usize,
                        n_rows: self.n_rows,
                        n_cols: self.n_cols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Shared implementation of `spmv_acc`; `y` must already hold the
    /// values to accumulate onto.
    fn spmv_acc_impl(&self, x: &[T], y: &mut [T]) {
        let (r, c) = (self.shape.rows(), self.shape.cols());
        let kern: BcsrRowKernel<T> = bcsr_row_kernel(self.shape, self.imp);
        let n_brows = self.brow_ptr.len() - 1;
        let rc = r * c;
        for rb in 0..n_brows {
            let start = self.brow_ptr[rb] as usize;
            let end = self.brow_ptr[rb + 1] as usize;
            if start == end {
                continue;
            }
            let y0 = rb * r;
            if y0 + r <= self.n_rows {
                // Full-height block row: trailing blocks may still clip at
                // the right edge (starts are sorted, so they are a suffix).
                let yrow = &mut y[y0..y0 + r];
                let mut fast_end = end;
                while fast_end > start && self.bcol_start[fast_end - 1] as usize + c > self.n_cols {
                    fast_end -= 1;
                }
                if fast_end > start {
                    kern(
                        &self.bval[start * rc..fast_end * rc],
                        &self.bcol_start[start..fast_end],
                        x,
                        yrow,
                    );
                }
                if fast_end < end {
                    bcsr_block_row_clipped(
                        r,
                        c,
                        &self.bval[fast_end * rc..end * rc],
                        &self.bcol_start[fast_end..end],
                        x,
                        yrow,
                    );
                }
            } else {
                // Short final block row: go through the clipped kernel.
                let yrow = &mut y[y0..self.n_rows];
                bcsr_block_row_clipped(
                    r,
                    c,
                    &self.bval[start * rc..end * rc],
                    &self.bcol_start[start..end],
                    x,
                    yrow,
                );
            }
        }
    }
}

impl<T> MatrixShape for Bcsr<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: SimdScalar> SpMv<T> for Bcsr<T> {
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
            + (self.bcol_start.len() + self.brow_ptr.len()) * core::mem::size_of::<Index>()
    }
}

impl<T: SimdScalar> SpMvAcc<T> for Bcsr<T> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        self.spmv_acc_impl(x, y);
    }
}

impl<T: SimdScalar> SpMvMulti<T> for Bcsr<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        y.fill(T::ZERO);
        self.spmv_multi_acc(x, y, k);
    }
}

impl<T: SimdScalar> SpMvMultiAcc<T> for Bcsr<T> {
    /// `Y += A * X` for `kc` vectors read as kc-tuples. Mirrors the
    /// interior/clipped split of `spmv_acc_impl`, with the k-tuple
    /// kernels in place of the single-vector ones.
    fn spmv_tuples_acc(&self, xi: &[T], y: &mut [T], kc: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, xi, y, kc);
        let (r, c) = (self.shape.rows(), self.shape.cols());
        let kern = bcsr_row_multi_kernel::<T>(self.shape, kc, self.imp)
            .unwrap_or_else(|| panic!("no k-tuple kernel for {kc} vectors"));
        let (m, n) = (self.n_cols, self.n_rows);
        let n_brows = self.brow_ptr.len() - 1;
        let rc = r * c;
        for rb in 0..n_brows {
            let start = self.brow_ptr[rb] as usize;
            let end = self.brow_ptr[rb + 1] as usize;
            if start == end {
                continue;
            }
            let y0 = rb * r;
            let (bvals, bcols) = (
                &self.bval[start * rc..end * rc],
                &self.bcol_start[start..end],
            );
            if y0 + r <= n {
                let mut fast = end - start;
                while fast > 0 && bcols[fast - 1] as usize + c > m {
                    fast -= 1;
                }
                if fast > 0 {
                    kern(&bvals[..fast * rc], &bcols[..fast], xi, y, n, y0);
                }
                if fast < end - start {
                    bcsr_block_row_tuples_clipped(
                        r,
                        c,
                        kc,
                        &bvals[fast * rc..],
                        &bcols[fast..],
                        xi,
                        y,
                        n,
                        y0,
                        r,
                    );
                }
            } else {
                bcsr_block_row_tuples_clipped(r, c, kc, bvals, bcols, xi, y, n, y0, n - y0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    fn fixture_csr(n: usize, m: usize, seed: u64) -> Csr<f64> {
        // Deterministic pseudo-random pattern with clustered structure.
        let mut coo = Coo::new(n, m);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            for _ in 0..3 {
                let j = (next() as usize) % m;
                let v = 1.0 + (next() % 9) as f64;
                let _ = coo.push(i, j, v);
                // Clustered neighbour to create some real blocks.
                if j + 1 < m {
                    let _ = coo.push(i, j + 1, v + 0.5);
                }
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn all_shapes_match_csr_reference() {
        let csr = fixture_csr(23, 31, 7); // dims not multiples of any shape
        let x: Vec<f64> = (0..31).map(|i| 1.0 + (i % 5) as f64).collect();
        let want = csr.spmv(&x);
        for shape in BlockShape::search_space() {
            for imp in KernelImpl::ALL {
                let bcsr = Bcsr::from_csr(&csr, shape, imp);
                bcsr.validate().unwrap();
                let got = bcsr.spmv(&x);
                for (a, b) in want.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9, "shape {shape} imp {imp}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn dense_2x2_blocks_have_zero_padding() {
        // An 8x8 dense matrix blocks perfectly for any shape dividing 8.
        let dense = spmv_core::DenseMatrix::<f64>::profiling(8, 8);
        let csr = Csr::from_dense(&dense);
        let bcsr = Bcsr::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(bcsr.n_blocks(), 16);
        assert_eq!(bcsr.padding(), 0);
        assert_eq!(bcsr.fill_ratio(), 1.0);
    }

    #[test]
    fn alignment_forces_padding() {
        // A single 1x2 run at an odd column must be split by alignment
        // into two padded blocks.
        let csr = Csr::from_coo(&Coo::from_triplets(1, 6, vec![(0, 1, 1.0), (0, 2, 1.0)]).unwrap());
        let bcsr = Bcsr::from_csr(&csr, BlockShape::new(1, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(bcsr.n_blocks(), 2);
        assert_eq!(bcsr.padding(), 2);
    }

    #[test]
    fn spmv_acc_accumulates() {
        let csr = fixture_csr(6, 6, 1);
        let bcsr = Bcsr::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        let x = vec![1.0; 6];
        let base = csr.spmv(&x);
        let mut y = base.clone();
        bcsr.spmv_acc(&x, &mut y);
        for (a, b) in y.iter().zip(&base) {
            assert!((a - 2.0 * b).abs() < 1e-9);
        }
    }

    #[test]
    fn working_set_shrinks_for_blocky_matrices() {
        // A matrix of pure 2x2 blocks: BCSR stores 1 index per 4 values,
        // so its working set must undercut CSR's.
        let mut coo = Coo::new(64, 64);
        for bi in 0..32 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
            }
        }
        let csr = Csr::from_coo(&coo);
        let bcsr = Bcsr::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(bcsr.padding(), 0);
        assert!(bcsr.matrix_bytes() < csr.matrix_bytes());
    }

    #[test]
    fn empty_and_tiny_matrices() {
        let csr = Csr::<f64>::from_coo(&Coo::new(3, 3));
        let bcsr = Bcsr::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(bcsr.n_blocks(), 0);
        assert_eq!(bcsr.spmv(&[1.0; 3]), vec![0.0; 3]);
        bcsr.validate().unwrap();

        let one = Csr::from_coo(&Coo::from_triplets(1, 1, vec![(0, 0, 5.0)]).unwrap());
        let b = Bcsr::from_csr(&one, BlockShape::new(2, 4).unwrap(), KernelImpl::Simd);
        assert_eq!(b.spmv(&[2.0]), vec![10.0]);
        assert_eq!(b.padding(), 7);
    }

    #[test]
    fn multi_matches_per_column_spmv() {
        let csr = fixture_csr(23, 31, 7);
        for shape in [
            BlockShape::new(2, 2).unwrap(),
            BlockShape::new(3, 2).unwrap(),
        ] {
            for imp in KernelImpl::ALL {
                let bcsr = Bcsr::from_csr(&csr, shape, imp);
                // k = 7 exercises the 4 + 2 + 1 greedy chunking.
                for k in [1, 3, 4, 7] {
                    let x: Vec<f64> = (0..31 * k).map(|i| 1.0 + (i % 9) as f64).collect();
                    let got = bcsr.spmv_multi(&x, k);
                    for t in 0..k {
                        let want = bcsr.spmv(&x[t * 31..(t + 1) * 31]);
                        assert_eq!(got[t * 23..(t + 1) * 23], want, "shape {shape} k={k} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_precision_matches_reference() {
        let csrf: Csr<f32> = {
            let mut coo = Coo::new(10, 10);
            for i in 0..10 {
                coo.push(i, i, 2.0).unwrap();
                coo.push(i, (i + 3) % 10, 1.0).unwrap();
            }
            Csr::from_coo(&coo)
        };
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let want = csrf.spmv(&x);
        for imp in KernelImpl::ALL {
            let b = Bcsr::from_csr(&csrf, BlockShape::new(3, 2).unwrap(), imp);
            let got = b.spmv(&x);
            for (a, g) in want.iter().zip(&got) {
                assert!((a - g).abs() < 1e-4);
            }
        }
    }
}
