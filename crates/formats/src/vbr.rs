//! Variable Block Row (VBR) storage.
//!
//! VBR "partitions the input matrix horizontally and vertically, such that
//! each resulting block contains only nonzero elements … at the cost of
//! two additional indexing structures" (§II-B, citing SPARSKIT). The paper
//! describes VBR but excludes it from the model study; it is implemented
//! here as the §II completeness extension and exercised by the variable-
//! block ablation bench.

use crate::SpMvAcc;
use spmv_core::{Csr, Error, Index, MatrixShape, Result, Scalar, SpMv, SpMvMulti};

/// VBR: variable two-dimensional blocks from conforming row/column
/// partitions.
///
/// The row partition groups maximal runs of consecutive rows with
/// identical nonzero column patterns; the column partition does the same
/// on the transpose. Under those partitions every (block row, block
/// column) intersection that contains a nonzero is *completely* dense, so
/// VBR stores no padding.
///
/// Arrays (SPARSKIT naming): `rpntr`/`cpntr` hold the partition
/// boundaries, `brow_ptr` the block extent of each block row, `bcol_ind`
/// the block-column of each block, `indx` each block's offset into `val`
/// (blocks are dense, row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Vbr<T> {
    n_rows: usize,
    n_cols: usize,
    /// Row partition boundaries; `rpntr[I]..rpntr[I+1]` are block row I's rows.
    rpntr: Vec<Index>,
    /// Column partition boundaries.
    cpntr: Vec<Index>,
    /// Offset of each block row's first block; `n_brows + 1` entries.
    brow_ptr: Vec<Index>,
    /// Block-column index of each block.
    bcol_ind: Vec<Index>,
    /// Offset of each block's values in `val`; `nb + 1` entries.
    indx: Vec<Index>,
    /// Dense block values, row-major within each block.
    val: Vec<T>,
}

/// Groups maximal runs of equal adjacent patterns; returns partition
/// boundaries `[0, ..., n]`.
fn partition_by_pattern<T: Scalar>(csr: &Csr<T>) -> Vec<Index> {
    let n = csr.n_rows();
    let mut bounds = Vec::with_capacity(16);
    bounds.push(0 as Index);
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && csr.row(j).0 == csr.row(i).0 {
            j += 1;
        }
        bounds.push(j as Index);
        i = j;
    }
    if n == 0 {
        // keep the single boundary
    }
    bounds
}

impl<T: Scalar> Vbr<T> {
    /// Converts `csr` to VBR using pattern-derived row and column
    /// partitions.
    pub fn from_csr(csr: &Csr<T>) -> Self {
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();
        let rpntr = partition_by_pattern(csr);
        let cpntr = partition_by_pattern(&csr.transpose());

        // Map each column to its block column.
        let mut col_to_bc = vec![0 as Index; n_cols];
        for bc in 0..cpntr.len() - 1 {
            col_to_bc[cpntr[bc] as usize..cpntr[bc + 1] as usize].fill(bc as Index);
        }

        let n_brows = rpntr.len() - 1;
        let mut brow_ptr: Vec<Index> = Vec::with_capacity(n_brows + 1);
        brow_ptr.push(0);
        let mut bcol_ind: Vec<Index> = Vec::new();
        let mut indx: Vec<Index> = vec![0];
        let mut val: Vec<T> = Vec::with_capacity(csr.nnz());

        for bi in 0..n_brows {
            let r0 = rpntr[bi] as usize;
            let r1 = rpntr[bi + 1] as usize;
            let height = r1 - r0;
            // All rows in the block row share a pattern; derive the block
            // columns from the first row.
            let (cols, _) = csr.row(r0);
            let mut bcs: Vec<Index> = cols.iter().map(|&j| col_to_bc[j as usize]).collect();
            bcs.dedup();
            for &bc in &bcs {
                let c0 = cpntr[bc as usize] as usize;
                let c1 = cpntr[bc as usize + 1] as usize;
                let width = c1 - c0;
                bcol_ind.push(bc);
                // Dense block: every row contributes `width` consecutive
                // values starting at column c0.
                for i in r0..r1 {
                    let (rcols, rvals) = csr.row(i);
                    let k = rcols
                        .binary_search(&(c0 as Index))
                        .expect("pattern-derived block must be fully dense");
                    val.extend_from_slice(&rvals[k..k + width]);
                }
                indx.push(val.len() as Index);
                debug_assert_eq!(
                    (indx[indx.len() - 1] - indx[indx.len() - 2]) as usize,
                    height * width
                );
            }
            brow_ptr.push(bcol_ind.len() as Index);
        }

        Vbr {
            n_rows,
            n_cols,
            rpntr,
            cpntr,
            brow_ptr,
            bcol_ind,
            indx,
            val,
        }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.bcol_ind.len()
    }

    /// Number of block rows in the row partition.
    pub fn n_block_rows(&self) -> usize {
        self.rpntr.len() - 1
    }

    /// Number of block columns in the column partition.
    pub fn n_block_cols(&self) -> usize {
        self.cpntr.len() - 1
    }

    /// Mean block area in elements.
    pub fn avg_block_area(&self) -> f64 {
        if self.bcol_ind.is_empty() {
            0.0
        } else {
            self.val.len() as f64 / self.bcol_ind.len() as f64
        }
    }

    /// Converts back to CSR (exact inverse of [`Vbr::from_csr`] — VBR
    /// blocks are fully dense, so no padding exists to drop; any zero
    /// inside a block was a structurally stored value and is kept only
    /// if nonzero, matching the COO construction rules).
    pub fn to_csr(&self) -> Csr<T>
    where
        T: Scalar,
    {
        let mut coo = spmv_core::Coo::with_capacity(self.n_rows, self.n_cols, self.val.len());
        for bi in 0..self.n_block_rows() {
            let r0 = self.rpntr[bi] as usize;
            let height = (self.rpntr[bi + 1] as usize) - r0;
            for k in self.brow_ptr[bi] as usize..self.brow_ptr[bi + 1] as usize {
                let bc = self.bcol_ind[k] as usize;
                let c0 = self.cpntr[bc] as usize;
                let width = (self.cpntr[bc + 1] as usize) - c0;
                let block = &self.val[self.indx[k] as usize..self.indx[k + 1] as usize];
                for i in 0..height {
                    for j in 0..width {
                        let v = block[i * width + j];
                        if v != T::ZERO {
                            coo.push(r0 + i, c0 + j, v).expect("inside matrix");
                        }
                    }
                }
            }
        }
        Csr::from_coo(&coo)
    }

    /// Checks the structural invariants of the format.
    pub fn validate(&self) -> Result<()> {
        let check_partition = |p: &[Index], n: usize, what: &str| -> Result<()> {
            if p.first() != Some(&0) || *p.last().unwrap_or(&0) as usize != n {
                return Err(Error::InvalidStructure(format!(
                    "{what} partition endpoints wrong"
                )));
            }
            for w in p.windows(2) {
                if w[0] >= w[1] {
                    return Err(Error::InvalidStructure(format!(
                        "{what} partition not strictly increasing"
                    )));
                }
            }
            Ok(())
        };
        if self.n_rows > 0 {
            check_partition(&self.rpntr, self.n_rows, "row")?;
        }
        if self.n_cols > 0 {
            check_partition(&self.cpntr, self.n_cols, "column")?;
        }
        if self.indx.len() != self.bcol_ind.len() + 1 {
            return Err(Error::InvalidStructure("indx length mismatch".into()));
        }
        if *self.indx.last().unwrap_or(&0) as usize != self.val.len() {
            return Err(Error::InvalidStructure(
                "indx does not terminate at val length".into(),
            ));
        }
        if self.brow_ptr.len() != self.rpntr.len() {
            return Err(Error::InvalidStructure("brow_ptr length mismatch".into()));
        }
        for bi in 0..self.n_block_rows() {
            let height = (self.rpntr[bi + 1] - self.rpntr[bi]) as usize;
            for k in self.brow_ptr[bi] as usize..self.brow_ptr[bi + 1] as usize {
                let bc = self.bcol_ind[k] as usize;
                if bc >= self.n_block_cols() {
                    return Err(Error::InvalidStructure(format!(
                        "block {k} references block column {bc} out of range"
                    )));
                }
                let width = (self.cpntr[bc + 1] - self.cpntr[bc]) as usize;
                if (self.indx[k + 1] - self.indx[k]) as usize != height * width {
                    return Err(Error::InvalidStructure(format!(
                        "block {k} has wrong value extent"
                    )));
                }
            }
        }
        Ok(())
    }

    fn spmv_acc_impl(&self, x: &[T], y: &mut [T]) {
        for bi in 0..self.n_block_rows() {
            let r0 = self.rpntr[bi] as usize;
            let r1 = self.rpntr[bi + 1] as usize;
            let height = r1 - r0;
            for k in self.brow_ptr[bi] as usize..self.brow_ptr[bi + 1] as usize {
                let bc = self.bcol_ind[k] as usize;
                let c0 = self.cpntr[bc] as usize;
                let width = (self.cpntr[bc + 1] as usize) - c0;
                let block = &self.val[self.indx[k] as usize..self.indx[k + 1] as usize];
                let xs = &x[c0..c0 + width];
                for i in 0..height {
                    let row = &block[i * width..(i + 1) * width];
                    let mut acc = T::ZERO;
                    for (&v, &xj) in row.iter().zip(xs) {
                        acc = v.mul_add(xj, acc);
                    }
                    y[r0 + i] += acc;
                }
            }
        }
    }

    /// `Y += A * X` for `spmv_multi_into`: each dense block row is
    /// re-applied to every vector of a chunk while it is hot in cache, so
    /// the block values stream from memory once per chunk of up to 8
    /// vectors.
    fn spmv_multi_acc_impl(&self, x: &[T], y: &mut [T], k: usize) {
        let (m, n) = (self.n_cols, self.n_rows);
        let mut t0 = 0;
        while t0 < k {
            let kc = (k - t0).min(8);
            let xb = &x[t0 * m..(t0 + kc) * m];
            let yb = &mut y[t0 * n..(t0 + kc) * n];
            for bi in 0..self.n_block_rows() {
                let r0 = self.rpntr[bi] as usize;
                let r1 = self.rpntr[bi + 1] as usize;
                let height = r1 - r0;
                for kb in self.brow_ptr[bi] as usize..self.brow_ptr[bi + 1] as usize {
                    let bc = self.bcol_ind[kb] as usize;
                    let c0 = self.cpntr[bc] as usize;
                    let width = (self.cpntr[bc + 1] as usize) - c0;
                    let block = &self.val[self.indx[kb] as usize..self.indx[kb + 1] as usize];
                    for i in 0..height {
                        let row = &block[i * width..(i + 1) * width];
                        for t in 0..kc {
                            let xs = &xb[t * m + c0..t * m + c0 + width];
                            let mut acc = T::ZERO;
                            for (&v, &xj) in row.iter().zip(xs) {
                                acc = v.mul_add(xj, acc);
                            }
                            yb[t * n + r0 + i] += acc;
                        }
                    }
                }
            }
            t0 += kc;
        }
    }
}

impl<T> MatrixShape for Vbr<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: Scalar> SpMv<T> for Vbr<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        y.fill(T::ZERO);
        self.spmv_acc_impl(x, y);
    }

    fn nnz_stored(&self) -> usize {
        self.val.len()
    }

    fn matrix_bytes(&self) -> usize {
        let idx = core::mem::size_of::<Index>();
        self.val.len() * T::BYTES
            + self.rpntr.len() * idx
            + self.cpntr.len() * idx
            + self.brow_ptr.len() * idx
            + self.bcol_ind.len() * idx
            + self.indx.len() * idx
    }
}

impl<T: Scalar> SpMvAcc<T> for Vbr<T> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        self.spmv_acc_impl(x, y);
    }
}

impl<T: Scalar> SpMvMulti<T> for Vbr<T> {
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
    fn block_diagonal_groups_perfectly() {
        // Two 2x2 dense diagonal blocks + one 1x1.
        let mut coo = Coo::new(5, 5);
        for b in 0..2 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * b + di, 2 * b + dj, (b + 1) as f64).unwrap();
            }
        }
        coo.push(4, 4, 9.0).unwrap();
        let csr = Csr::from_coo(&coo);
        let vbr = Vbr::from_csr(&csr);
        vbr.validate().unwrap();
        assert_eq!(vbr.n_block_rows(), 3);
        assert_eq!(vbr.n_blocks(), 3);
        assert_eq!(vbr.nnz_stored(), csr.nnz()); // no padding, ever
        let x = vec![1.0; 5];
        assert_eq!(vbr.spmv(&x), csr.spmv(&x));
    }

    #[test]
    fn matches_csr_on_irregular_matrix() {
        let mut coo = Coo::new(13, 11);
        let mut state = 0xBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..13 {
            for _ in 0..1 + (next() as usize) % 4 {
                let _ = coo.push(i, (next() as usize) % 11, 1.0 + (next() % 5) as f64);
            }
        }
        let csr = Csr::from_coo(&coo);
        let vbr = Vbr::from_csr(&csr);
        vbr.validate().unwrap();
        let x: Vec<f64> = (0..11).map(|i| 0.5 + i as f64).collect();
        let want = csr.spmv(&x);
        for (a, g) in want.iter().zip(vbr.spmv(&x)) {
            assert!((a - g).abs() < 1e-9);
        }
    }

    #[test]
    fn multi_matches_per_column_spmv() {
        let mut coo = Coo::new(13, 11);
        let mut state = 0xF00Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..13 {
            for _ in 0..1 + (next() as usize) % 4 {
                let _ = coo.push(i, (next() as usize) % 11, 1.0 + (next() % 5) as f64);
            }
        }
        let csr = Csr::from_coo(&coo);
        let vbr = Vbr::from_csr(&csr);
        for k in [1, 3, 8, 10] {
            let x: Vec<f64> = (0..11 * k).map(|i| 1.0 + (i % 4) as f64).collect();
            let got = vbr.spmv_multi(&x, k);
            for t in 0..k {
                let want = vbr.spmv(&x[t * 11..(t + 1) * 11]);
                assert_eq!(got[t * 13..(t + 1) * 13], want, "k={k} t={t}");
            }
        }
    }

    #[test]
    fn identical_rows_merge_into_one_block_row() {
        let mut coo = Coo::new(4, 6);
        for i in 0..4 {
            coo.push(i, 1, (i + 1) as f64).unwrap();
            coo.push(i, 2, (i + 2) as f64).unwrap();
        }
        let csr = Csr::from_coo(&coo);
        let vbr = Vbr::from_csr(&csr);
        assert_eq!(vbr.n_block_rows(), 1);
        assert_eq!(vbr.n_blocks(), 1);
        assert_eq!(vbr.avg_block_area(), 8.0);
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::<f64>::from_coo(&Coo::new(0, 0));
        let vbr = Vbr::from_csr(&csr);
        vbr.validate().unwrap();
        assert_eq!(vbr.spmv(&[]), Vec::<f64>::new());
    }

    #[test]
    fn empty_rows_are_their_own_partition() {
        let csr = Csr::from_coo(&Coo::from_triplets(4, 4, vec![(0, 0, 1.0), (3, 3, 2.0)]).unwrap());
        let vbr = Vbr::from_csr(&csr);
        vbr.validate().unwrap();
        let x = vec![2.0; 4];
        assert_eq!(vbr.spmv(&x), vec![2.0, 0.0, 0.0, 4.0]);
    }
}
