//! One-dimensional Variable Block Length (1D-VBL) storage.

use crate::SpMvAcc;
use spmv_core::{Csr, Error, Index, MatrixShape, Result, SpMv, SpMvMulti};
use spmv_kernels::registry::{dot_run, dot_run_multi};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::KernelImpl;

/// Maximum elements per 1D-VBL block: sizes are stored in one byte, so a
/// longer horizontal run "is split into 255-element chunks" (§V).
pub const MAX_VBL_BLOCK: usize = u8::MAX as usize;

/// 1D-VBL: maximal horizontal runs of nonzeros, no padding (§II-B,
/// Pinar & Heath).
///
/// Four arrays store the matrix: `val` and `row_ptr` exactly as in CSR,
/// plus per-block `bcol_ind` (the block's start column) and `blk_size`
/// (its length, one **byte** per block). A block is a maximal run of
/// consecutive nonzero columns within one row, chunked at 255 elements.
///
/// There is no per-row block index: the SpMV kernel walks blocks with a
/// running cursor and knows a row is finished when it has consumed
/// `row_ptr[i+1] - row_ptr[i]` values — the extra level of indirection the
/// paper identifies as this format's cost (§III).
///
/// ```
/// use spmv_core::{Coo, Csr, SpMv};
/// use spmv_formats::Vbl;
/// use spmv_kernels::KernelImpl;
///
/// let csr = Csr::from_coo(&Coo::from_triplets(2, 6, vec![
///     (0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), // one run of 3
///     (1, 0, 4.0), (1, 5, 5.0),              // two runs of 1
/// ]).unwrap());
/// let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
/// assert_eq!(vbl.n_blocks(), 3);
/// assert_eq!(vbl.spmv(&[1.0; 6]), csr.spmv(&[1.0; 6]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Vbl<T> {
    n_rows: usize,
    n_cols: usize,
    imp: KernelImpl,
    /// Offsets into `val`, one per row plus one — identical role to CSR.
    row_ptr: Vec<Index>,
    /// Start column of each block.
    bcol_ind: Vec<Index>,
    /// Length of each block (1..=255).
    blk_size: Vec<u8>,
    /// The nonzero values, concatenated run by run.
    val: Vec<T>,
}

impl<T: SimdScalar> Vbl<T> {
    /// Converts `csr` to 1D-VBL.
    pub fn from_csr(csr: &Csr<T>, imp: KernelImpl) -> Self {
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();
        let mut row_ptr: Vec<Index> = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        let mut bcol_ind: Vec<Index> = Vec::new();
        let mut blk_size: Vec<u8> = Vec::new();
        let mut val: Vec<T> = Vec::with_capacity(csr.nnz());

        for i in 0..n_rows {
            let (cols, vals) = csr.row(i);
            let mut k = 0;
            while k < cols.len() {
                // Extend the run while columns stay consecutive, chunking
                // at the one-byte length limit.
                let start = cols[k];
                let mut len = 1usize;
                while k + len < cols.len()
                    && cols[k + len] == start + len as Index
                    && len < MAX_VBL_BLOCK
                {
                    len += 1;
                }
                bcol_ind.push(start);
                blk_size.push(len as u8);
                val.extend_from_slice(&vals[k..k + len]);
                k += len;
            }
            row_ptr.push(val.len() as Index);
        }

        Vbl {
            n_rows,
            n_cols,
            imp,
            row_ptr,
            bcol_ind,
            blk_size,
            val,
        }
    }

    /// The kernel implementation used by `spmv`.
    pub fn kernel_impl(&self) -> KernelImpl {
        self.imp
    }

    /// Switches between the scalar and SIMD run kernel in place.
    pub fn set_kernel_impl(&mut self, imp: KernelImpl) {
        self.imp = imp;
    }

    /// Total number of variable-length blocks.
    pub fn n_blocks(&self) -> usize {
        self.bcol_ind.len()
    }

    /// Mean block length in elements.
    pub fn avg_block_len(&self) -> f64 {
        if self.blk_size.is_empty() {
            0.0
        } else {
            self.val.len() as f64 / self.blk_size.len() as f64
        }
    }

    /// Converts back to CSR (exact inverse of [`Vbl::from_csr`] — the
    /// format stores no padding).
    pub fn to_csr(&self) -> Csr<T> {
        let mut col_ind = Vec::with_capacity(self.val.len());
        for (blk, &len) in self.blk_size.iter().enumerate() {
            let start = self.bcol_ind[blk];
            col_ind.extend((0..len as Index).map(|j| start + j));
        }
        Csr::from_raw(
            self.n_rows,
            self.n_cols,
            self.row_ptr.clone(),
            col_ind,
            self.val.clone(),
        )
        .expect("VBL invariants imply CSR invariants")
    }

    /// Checks the structural invariants of the format.
    pub fn validate(&self) -> Result<()> {
        if self.row_ptr.len() != self.n_rows + 1 || self.row_ptr[0] != 0 {
            return Err(Error::InvalidStructure("row_ptr malformed".into()));
        }
        if *self.row_ptr.last().unwrap() as usize != self.val.len() {
            return Err(Error::InvalidStructure(
                "row_ptr does not terminate at nnz".into(),
            ));
        }
        if self.bcol_ind.len() != self.blk_size.len() {
            return Err(Error::InvalidStructure(
                "bcol_ind and blk_size lengths differ".into(),
            ));
        }
        let total: usize = self.blk_size.iter().map(|&s| s as usize).sum();
        if total != self.val.len() {
            return Err(Error::InvalidStructure(
                "block sizes do not sum to nnz".into(),
            ));
        }
        if self.blk_size.contains(&0) {
            return Err(Error::InvalidStructure("zero-length block".into()));
        }
        // Blocks must lie inside the matrix and respect row boundaries.
        let mut blk = 0usize;
        let mut consumed = 0usize;
        for i in 0..self.n_rows {
            let row_end = self.row_ptr[i + 1] as usize;
            let mut prev_end: Option<Index> = None;
            while consumed < row_end {
                let len = self.blk_size[blk] as usize;
                let start = self.bcol_ind[blk];
                if start as usize + len > self.n_cols {
                    return Err(Error::OutOfBounds {
                        row: i,
                        col: start as usize + len - 1,
                        n_rows: self.n_rows,
                        n_cols: self.n_cols,
                    });
                }
                if let Some(pe) = prev_end {
                    if start < pe {
                        return Err(Error::InvalidStructure(format!(
                            "row {i}: overlapping or unsorted blocks"
                        )));
                    }
                }
                prev_end = Some(start + len as Index);
                consumed += len;
                blk += 1;
            }
            if consumed != row_end {
                return Err(Error::InvalidStructure(format!(
                    "row {i}: blocks straddle the row boundary"
                )));
            }
        }
        if blk != self.blk_size.len() {
            return Err(Error::InvalidStructure("trailing blocks".into()));
        }
        Ok(())
    }

    fn spmv_acc_impl(&self, x: &[T], y: &mut [T]) {
        let mut blk = 0usize;
        let mut v = 0usize;
        for (i, yi) in y.iter_mut().enumerate() {
            let row_end = self.row_ptr[i + 1] as usize;
            let mut acc = T::ZERO;
            while v < row_end {
                let len = self.blk_size[blk] as usize;
                let j0 = self.bcol_ind[blk] as usize;
                acc += dot_run(&self.val[v..v + len], &x[j0..j0 + len], self.imp);
                v += len;
                blk += 1;
            }
            *yi += acc;
        }
    }

    /// `Y += A * X` for `spmv_multi_into`: the run kernel is
    /// runtime-`k`, so chunks of up to 8 vectors reuse each run's values
    /// while they are hot and the matrix streams once per chunk.
    fn spmv_multi_acc_impl(&self, x: &[T], y: &mut [T], k: usize) {
        let (m, n) = (self.n_cols, self.n_rows);
        let mut t0 = 0;
        while t0 < k {
            let kc = (k - t0).min(8);
            let xs = &x[t0 * m..(t0 + kc) * m];
            let ys = &mut y[t0 * n..(t0 + kc) * n];
            let mut blk = 0usize;
            let mut v = 0usize;
            let mut acc = [T::ZERO; 8];
            for i in 0..n {
                let row_end = self.row_ptr[i + 1] as usize;
                acc[..kc].fill(T::ZERO);
                while v < row_end {
                    let len = self.blk_size[blk] as usize;
                    let j0 = self.bcol_ind[blk] as usize;
                    dot_run_multi(&self.val[v..v + len], xs, m, j0, &mut acc[..kc], self.imp);
                    v += len;
                    blk += 1;
                }
                for (t, &a) in acc[..kc].iter().enumerate() {
                    ys[t * n + i] += a;
                }
            }
            t0 += kc;
        }
    }
}

impl<T> MatrixShape for Vbl<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: SimdScalar> SpMv<T> for Vbl<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        y.fill(T::ZERO);
        self.spmv_acc_impl(x, y);
    }

    fn nnz_stored(&self) -> usize {
        self.val.len()
    }

    fn matrix_bytes(&self) -> usize {
        self.val.len() * T::BYTES
            + (self.row_ptr.len() + self.bcol_ind.len()) * core::mem::size_of::<Index>()
            + self.blk_size.len() // one byte each
    }
}

impl<T: SimdScalar> SpMvAcc<T> for Vbl<T> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        self.spmv_acc_impl(x, y);
    }
}

impl<T: SimdScalar> SpMvMulti<T> for Vbl<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        y.fill(T::ZERO);
        self.spmv_multi_acc_impl(x, y, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    #[test]
    fn runs_are_maximal() {
        let csr = Csr::from_coo(
            &Coo::from_triplets(
                1,
                10,
                vec![
                    (0, 0, 1.0),
                    (0, 1, 1.0),
                    (0, 2, 1.0),
                    (0, 4, 1.0),
                    (0, 5, 1.0),
                ],
            )
            .unwrap(),
        );
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        vbl.validate().unwrap();
        assert_eq!(vbl.n_blocks(), 2);
        assert_eq!(vbl.avg_block_len(), 2.5);
    }

    #[test]
    fn long_runs_chunk_at_255() {
        let mut coo = Coo::new(1, 600);
        for j in 0..600 {
            coo.push(0, j, 1.0).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        vbl.validate().unwrap();
        assert_eq!(vbl.n_blocks(), 3); // 255 + 255 + 90
        assert_eq!(vbl.spmv(&vec![1.0; 600]), vec![600.0]);
    }

    #[test]
    fn matches_csr_on_mixed_structure() {
        let mut coo = Coo::new(17, 23);
        let mut state = 0x12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..17 {
            let start = (next() as usize) % 20;
            for j in start..(start + 1 + (next() as usize) % 4).min(23) {
                let _ = coo.push(i, j, 1.0 + (next() % 9) as f64);
            }
            let _ = coo.push(i, (next() as usize) % 23, 2.5);
        }
        let csr = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..23).map(|i| 0.5 + (i % 6) as f64).collect();
        let want = csr.spmv(&x);
        for imp in KernelImpl::ALL {
            let vbl = Vbl::from_csr(&csr, imp);
            vbl.validate().unwrap();
            for (a, g) in want.iter().zip(vbl.spmv(&x)) {
                assert!((a - g).abs() < 1e-9, "imp {imp}");
            }
        }
    }

    #[test]
    fn nnz_preserved_no_padding() {
        let csr = Csr::from_coo(
            &Coo::from_triplets(3, 5, vec![(0, 0, 1.0), (1, 2, 2.0), (2, 4, 3.0)]).unwrap(),
        );
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        assert_eq!(vbl.nnz_stored(), csr.nnz());
    }

    #[test]
    fn dense_row_yields_single_block_and_smaller_ws_than_csr() {
        // One 100-wide dense row: CSR stores 100 column indices, VBL one
        // start + one size byte.
        let mut coo = Coo::new(1, 100);
        for j in 0..100 {
            coo.push(0, j, 1.0).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        assert_eq!(vbl.n_blocks(), 1);
        assert!(vbl.matrix_bytes() < csr.matrix_bytes());
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        let csr = Csr::from_coo(&Coo::from_triplets(4, 4, vec![(1, 1, 5.0)]).unwrap());
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        vbl.validate().unwrap();
        assert_eq!(vbl.spmv(&[1.0; 4]), vec![0.0, 5.0, 0.0, 0.0]);

        let empty = Csr::<f32>::from_coo(&Coo::new(2, 2));
        let vempty = Vbl::from_csr(&empty, KernelImpl::Simd);
        vempty.validate().unwrap();
        assert_eq!(vempty.spmv(&[1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn multi_matches_per_column_spmv() {
        let mut coo = Coo::new(17, 23);
        let mut state = 0x9abcdu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..17 {
            let start = (next() as usize) % 20;
            for j in start..(start + 1 + (next() as usize) % 4).min(23) {
                let _ = coo.push(i, j, 1.0 + (next() % 9) as f64);
            }
        }
        let csr = Csr::from_coo(&coo);
        for imp in KernelImpl::ALL {
            let vbl = Vbl::from_csr(&csr, imp);
            for k in [1, 2, 4, 9] {
                let x: Vec<f64> = (0..23 * k).map(|i| 1.0 + (i % 6) as f64).collect();
                let got = vbl.spmv_multi(&x, k);
                for t in 0..k {
                    let want = vbl.spmv(&x[t * 23..(t + 1) * 23]);
                    assert_eq!(got[t * 17..(t + 1) * 17], want, "imp {imp} k={k} t={t}");
                }
            }
        }
    }

    #[test]
    fn spmv_acc_accumulates() {
        let csr = Csr::from_coo(&Coo::from_triplets(2, 2, vec![(0, 0, 3.0), (1, 1, 4.0)]).unwrap());
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        let mut y = vec![1.0, 1.0];
        vbl.spmv_acc(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![4.0, 5.0]);
    }
}
