//! Compressed Sparse Row storage — the paper's baseline format.

use crate::error::{Error, Result};
use crate::{Coo, DenseMatrix, Index, MatrixShape, Scalar, SpMv, MAX_INDEX};
use core::ops::Range;

/// A sparse matrix in Compressed Sparse Row format.
///
/// CSR stores an `n x m` matrix with `nnz` nonzeros in three arrays
/// (paper §II): `val` (`nnz` values), `col_ind` (`nnz` column indices),
/// and `row_ptr` (`n + 1` offsets into `val`). Column indices are strictly
/// increasing within each row.
///
/// CSR is both the baseline against which the paper measures every
/// blocked format and the construction input for all of them, and the
/// performance models treat it as "a degenerate blocking method with 1x1
/// blocks and `nb = nnz`" (§IV).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<Index>,
    col_ind: Vec<Index>,
    val: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Builds from raw arrays, validating every CSR invariant.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<Index>,
        col_ind: Vec<Index>,
        val: Vec<T>,
    ) -> Result<Self> {
        let csr = Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_ind,
            val,
        };
        csr.validate()?;
        Ok(csr)
    }

    /// Builds from raw arrays **without** checking the column-ordering
    /// invariant (lengths and bounds are still verified).
    ///
    /// This exists for diagnostic matrices that deliberately break the
    /// sortedness invariant — most importantly the paper's custom
    /// benchmark that "zeros out the col_ind structure of CSR, so that no
    /// misses are incurred due to irregular accesses" (§V-B), used to
    /// detect latency-bound matrices. The resulting matrix is safe to
    /// multiply (all indices are bounds-checked here) but computes a
    /// different product than the source matrix.
    pub fn from_raw_unchecked(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<Index>,
        col_ind: Vec<Index>,
        val: Vec<T>,
    ) -> Result<Self> {
        if n_rows > MAX_INDEX || n_cols > MAX_INDEX {
            return Err(Error::IndexOverflow {
                value: n_rows.max(n_cols) as u64,
                what: "dimension",
            });
        }
        if row_ptr.len() != n_rows + 1
            || row_ptr.first() != Some(&0)
            || row_ptr.last().map(|&e| e as usize) != Some(val.len())
            || col_ind.len() != val.len()
            || row_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(Error::InvalidStructure(
                "malformed row_ptr/col_ind/val arrays".into(),
            ));
        }
        if let Some(&c) = col_ind.iter().max() {
            if c as usize >= n_cols && !col_ind.is_empty() {
                return Err(Error::OutOfBounds {
                    row: 0,
                    col: c as usize,
                    n_rows,
                    n_cols,
                });
            }
        }
        Ok(Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_ind,
            val,
        })
    }

    /// A structurally identical matrix with every column index set to
    /// zero — the paper's §V-B probe: identical memory traffic through
    /// `val`, `col_ind`, and `row_ptr`, but perfectly regular (single
    /// cached element) accesses to the input vector. Comparing its SpMV
    /// time against the original's isolates the cost of irregular input-
    /// vector accesses.
    pub fn zero_col_ind_probe(&self) -> Csr<T> {
        Csr {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr: self.row_ptr.clone(),
            col_ind: vec![0; self.col_ind.len()],
            val: self.val.clone(),
        }
    }

    /// Converts a triplet builder (duplicates summed, zeros dropped).
    pub fn from_coo(coo: &Coo<T>) -> Self {
        let n_rows = coo.n_rows();
        let n_cols = coo.n_cols();
        let entries = coo.clone().into_sorted_dedup();
        let mut row_ptr = vec![0 as Index; n_rows + 1];
        for &(r, _, _) in &entries {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_ind = Vec::with_capacity(entries.len());
        let mut val = Vec::with_capacity(entries.len());
        for (_, c, v) in entries {
            col_ind.push(c);
            val.push(v);
        }
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_ind,
            val,
        }
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(d: &DenseMatrix<T>) -> Self {
        Self::from_coo(&d.to_coo())
    }

    /// Materializes as a dense matrix (test helper; small matrices only).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                d.set(i, c as usize, v);
            }
        }
        d
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[Index], &[T]) {
        let range = self.row_range(i);
        (&self.col_ind[range.clone()], &self.val[range])
    }

    /// The `val`/`col_ind` index range of row `i`.
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }

    /// Iterates over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// The raw `row_ptr` array (`n_rows + 1` entries).
    pub fn row_ptr(&self) -> &[Index] {
        &self.row_ptr
    }

    /// The raw `col_ind` array.
    pub fn col_ind(&self) -> &[Index] {
        &self.col_ind
    }

    /// The raw `val` array.
    pub fn val(&self) -> &[T] {
        &self.val
    }

    /// Extracts rows `range` as a standalone CSR matrix over the same
    /// column space (used by the parallel driver to hand each thread a
    /// contiguous row strip).
    pub fn row_slice(&self, range: Range<usize>) -> Csr<T> {
        assert!(range.end <= self.n_rows, "row range out of bounds");
        let base = self.row_ptr[range.start];
        let row_ptr: Vec<Index> = self.row_ptr[range.start..=range.end]
            .iter()
            .map(|&p| p - base)
            .collect();
        let vals = self.row_ptr[range.start] as usize..self.row_ptr[range.end] as usize;
        Csr {
            n_rows: range.len(),
            n_cols: self.n_cols,
            row_ptr,
            col_ind: self.col_ind[vals.clone()].to_vec(),
            val: self.val[vals].to_vec(),
        }
    }

    /// Converts the element type (e.g. the `f64` reference matrix into the
    /// `f32` single-precision variant), preserving the structure exactly.
    pub fn cast<U: Scalar>(&self) -> Csr<U> {
        Csr {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            row_ptr: self.row_ptr.clone(),
            col_ind: self.col_ind.clone(),
            val: self.val.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Returns the transpose (CSC of `self` reinterpreted as CSR).
    pub fn transpose(&self) -> Csr<T> {
        let mut row_ptr = vec![0 as Index; self.n_cols + 1];
        for &c in &self.col_ind {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_ind = vec![0 as Index; self.nnz()];
        let mut val = vec![T::ZERO; self.nnz()];
        for (r, c, v) in self.iter() {
            let dst = next[c] as usize;
            next[c] += 1;
            col_ind[dst] = r as Index;
            val[dst] = v;
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_ind,
            val,
        }
    }

    /// Checks every CSR structural invariant, returning a descriptive
    /// error on the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.n_rows > MAX_INDEX || self.n_cols > MAX_INDEX {
            return Err(Error::IndexOverflow {
                value: self.n_rows.max(self.n_cols) as u64,
                what: "dimension",
            });
        }
        if self.row_ptr.len() != self.n_rows + 1 {
            return Err(Error::InvalidStructure(format!(
                "row_ptr has {} entries, expected {}",
                self.row_ptr.len(),
                self.n_rows + 1
            )));
        }
        if self.row_ptr.first() != Some(&0) {
            return Err(Error::InvalidStructure("row_ptr[0] != 0".into()));
        }
        if self.row_ptr.last().map(|&e| e as usize) != Some(self.val.len()) {
            return Err(Error::InvalidStructure(
                "row_ptr does not terminate at nnz".into(),
            ));
        }
        if self.col_ind.len() != self.val.len() {
            return Err(Error::InvalidStructure(
                "col_ind and val lengths differ".into(),
            ));
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(Error::InvalidStructure("row_ptr not monotone".into()));
            }
        }
        for i in 0..self.n_rows {
            let (cols, _) = self.row(i);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(Error::InvalidStructure(format!(
                        "row {i}: column indices not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = cols.last() {
                if last as usize >= self.n_cols {
                    return Err(Error::OutOfBounds {
                        row: i,
                        col: last as usize,
                        n_rows: self.n_rows,
                        n_cols: self.n_cols,
                    });
                }
            }
        }
        Ok(())
    }
}

impl<T> MatrixShape for Csr<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: Scalar> SpMv<T> for Csr<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        crate::traits::check_spmv_dims(self, x, y);
        for (i, yi) in y.iter_mut().enumerate() {
            let range = self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize;
            let mut acc = T::ZERO;
            for (&c, &v) in self.col_ind[range.clone()].iter().zip(&self.val[range]) {
                acc = v.mul_add(x[c as usize], acc);
            }
            *yi = acc;
        }
    }

    fn nnz_stored(&self) -> usize {
        self.nnz()
    }

    fn matrix_bytes(&self) -> usize {
        self.val.len() * T::BYTES
            + self.col_ind.len() * core::mem::size_of::<Index>()
            + self.row_ptr.len() * core::mem::size_of::<Index>()
    }
}

impl<T: Scalar> Csr<T> {
    /// Multiplies `kc ∈ {2, 4, 8}` vectors given as kc-tuples
    /// (`xi[j * kc + t]`, see [`crate::multi`]) into column-major `y`:
    /// `y[t * n_rows + i]` is set to row `i` times vector `t`, or has it
    /// added when `ACC`.
    ///
    /// Each row keeps its `kc` sums in registers and loads one
    /// contiguous tuple per nonzero. Every (row, vector) sum is the
    /// chain of [`SpMv::spmv_into`] — `mul_add` from zero in column
    /// order — so each column is bitwise that column's single-vector
    /// product.
    ///
    /// # Panics
    ///
    /// Panics if `kc` is not 2, 4 or 8, or on a block length mismatch.
    pub fn spmv_tuples<const ACC: bool>(&self, xi: &[T], y: &mut [T], kc: usize) {
        crate::traits::check_spmv_multi_dims(self, xi, y, kc);
        match kc {
            2 => self.tuples_k::<2, ACC>(xi, y),
            4 => self.tuples_k::<4, ACC>(xi, y),
            8 => self.tuples_k::<8, ACC>(xi, y),
            _ => panic!("no k-tuple kernel for {kc} vectors"),
        }
    }

    fn tuples_k<const K: usize, const ACC: bool>(&self, xi: &[T], y: &mut [T]) {
        let n = self.n_rows;
        let (tuples, _) = xi.as_chunks::<K>();
        for i in 0..n {
            let range = self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize;
            let mut acc = [T::ZERO; K];
            for (&c, &v) in self.col_ind[range.clone()].iter().zip(&self.val[range]) {
                T::mul_add_tuple(&mut acc, v, &tuples[c as usize]);
            }
            for (t, &a) in acc.iter().enumerate() {
                if ACC {
                    y[t * n + i] += a;
                } else {
                    y[t * n + i] = a;
                }
            }
        }
    }
}

impl<T: Scalar> crate::traits::SpMvMulti<T> for Csr<T> {
    /// Streams the matrix once per chunk of up to 8 vectors, reading
    /// them as k-tuples ([`Csr::spmv_tuples`]); a `k`-vector call is
    /// bitwise-equal to `k` single calls.
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        crate::traits::check_spmv_multi_dims(self, x, y, k);
        crate::multi::chunked(
            x,
            y,
            k,
            |xc, yc| self.spmv_into(xc, yc),
            |xi, yc, kc| self.spmv_tuples::<false>(xi, yc, kc),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Csr<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::from_coo(
            &Coo::from_triplets(
                3,
                3,
                vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
            )
            .unwrap(),
        )
    }

    #[test]
    fn construction_from_coo() {
        let csr = fixture();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(csr.col_ind(), &[0, 2, 0, 1]);
        assert_eq!(csr.val(), &[1.0, 2.0, 3.0, 4.0]);
        csr.validate().unwrap();
    }

    #[test]
    fn spmv_matches_dense() {
        let csr = fixture();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(csr.spmv(&x), csr.to_dense().spmv(&x));
    }

    #[test]
    fn spmv_zeros_untouched_rows() {
        let csr = fixture();
        let mut y = vec![99.0; 3];
        csr.spmv_into(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y[1], 0.0, "empty rows must produce 0, not stale data");
    }

    #[test]
    fn row_accessors() {
        let csr = fixture();
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(1), 0);
        let (cols, vals) = csr.row(2);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[3.0, 4.0]);
    }

    #[test]
    fn iter_row_major() {
        let csr = fixture();
        let got: Vec<_> = csr.iter().collect();
        assert_eq!(
            got,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn transpose_involution() {
        let csr = fixture();
        let tt = csr.transpose().transpose();
        assert_eq!(csr, tt);
    }

    #[test]
    fn transpose_values() {
        let csr = fixture();
        let t = csr.transpose();
        assert_eq!(t.to_dense().get(0, 2), 3.0);
        assert_eq!(t.to_dense().get(1, 2), 4.0);
        assert_eq!(t.to_dense().get(2, 0), 2.0);
    }

    #[test]
    fn row_slice_rebases() {
        let csr = fixture();
        let s = csr.row_slice(1..3);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row_ptr(), &[0, 0, 2]);
        assert_eq!(s.spmv(&[1.0, 1.0, 1.0]), vec![0.0, 7.0]);
        s.validate().unwrap();
    }

    #[test]
    fn dense_roundtrip() {
        let csr = fixture();
        let back = Csr::from_dense(&csr.to_dense());
        assert_eq!(csr, back);
    }

    #[test]
    fn validate_rejects_bad_row_ptr() {
        let bad = Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(bad.is_err());
    }

    #[test]
    fn validate_rejects_unsorted_columns() {
        let bad = Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(bad, Err(Error::InvalidStructure(_))));
    }

    #[test]
    fn validate_rejects_column_overflow() {
        let bad = Csr::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(bad, Err(Error::OutOfBounds { .. })));
    }

    #[test]
    fn matrix_bytes_formula() {
        let csr = fixture();
        // 4 vals * 8 + 4 cols * 4 + 4 ptrs * 4
        assert_eq!(csr.matrix_bytes(), 32 + 16 + 16);
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::<f32>::from_coo(&Coo::new(0, 0));
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.spmv(&[]), Vec::<f32>::new());
        csr.validate().unwrap();
    }

    #[test]
    fn zero_col_probe_reroutes_all_accesses_to_x0() {
        let csr = fixture();
        let probe = csr.zero_col_ind_probe();
        assert_eq!(probe.nnz(), csr.nnz());
        assert_eq!(probe.matrix_bytes(), csr.matrix_bytes());
        // Every row sums its values scaled by x[0].
        let y = probe.spmv(&[2.0, 9.0, 9.0]);
        assert_eq!(y, vec![2.0 * (1.0 + 2.0), 0.0, 2.0 * (3.0 + 4.0)]);
    }

    #[test]
    fn validate_rejects_empty_row_ptr_without_panicking() {
        // `row_ptr = []` must be a clean InvalidStructure error on every
        // constructor path, never a panic — including the degenerate
        // 0-row shape where `n_rows + 1 == 1 != 0`.
        for n_rows in [0usize, 2] {
            let bad = Csr::<f64>::from_raw(n_rows, 2, vec![], vec![], vec![]);
            assert!(
                matches!(bad, Err(Error::InvalidStructure(_))),
                "{n_rows} rows"
            );
            let bad = Csr::<f64>::from_raw_unchecked(n_rows, 2, vec![], vec![], vec![]);
            assert!(
                matches!(bad, Err(Error::InvalidStructure(_))),
                "{n_rows} rows"
            );
        }
    }

    #[test]
    fn validate_rejects_row_ptr_terminating_before_nnz() {
        // Terminator mismatch must be reported even when the length check
        // passes, on both the checked and unchecked paths.
        let bad = Csr::from_raw(1, 3, vec![0, 1], vec![0, 2], vec![1.0, 2.0]);
        assert!(matches!(bad, Err(Error::InvalidStructure(_))));
        let bad = Csr::from_raw_unchecked(1, 3, vec![0, 1], vec![0, 2], vec![1.0, 2.0]);
        assert!(matches!(bad, Err(Error::InvalidStructure(_))));
    }

    #[test]
    fn from_raw_unchecked_accepts_unsorted_columns() {
        // The checked constructor rejects this; the diagnostic one must
        // accept it (bounds still verified).
        let ok = Csr::from_raw_unchecked(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(ok.is_ok());
        let bad_bounds = Csr::from_raw_unchecked(1, 2, vec![0, 1], vec![7], vec![1.0]);
        assert!(bad_bounds.is_err());
        let bad_ptr = Csr::from_raw_unchecked(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(bad_ptr.is_err());
    }
}
