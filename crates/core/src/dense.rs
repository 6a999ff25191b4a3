//! Row-major dense matrix.
//!
//! Dense matrices play two roles in this workspace:
//!
//! 1. **Reference oracle** — tests compare every blocked format's SpMV
//!    against the trivially correct dense multiply.
//! 2. **Profiling workload** — the MEMCOMP model profiles each block kernel
//!    on "a very small dense matrix … that fits in the L1 cache" and the
//!    OVERLAP model on "a large dense matrix that exceeds the highest level
//!    of cache" (paper §IV); both are built with this type and converted to
//!    the format under test.

use crate::{Coo, MatrixShape, Scalar, SpMv};

/// A dense `n_rows x n_cols` matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// All-zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        DenseMatrix {
            n_rows,
            n_cols,
            data: vec![T::ZERO; n_rows * n_cols],
        }
    }

    /// Builds entry-wise from `f(row, col)`.
    pub fn from_fn(n_rows: usize, n_cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for i in 0..n_rows {
            for j in 0..n_cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix {
            n_rows,
            n_cols,
            data,
        }
    }

    /// A fully populated matrix with value pattern `1 + (i + j) % 7`, used
    /// as the profiling workload (every entry nonzero, values bounded so
    /// sums stay exact in both precisions).
    pub fn profiling(n_rows: usize, n_cols: usize) -> Self {
        Self::from_fn(n_rows, n_cols, |i, j| {
            T::from_f64(1.0 + ((i + j) % 7) as f64)
        })
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        self.data[row * self.n_cols + col]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: T) {
        self.data[row * self.n_cols + col] = v;
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Number of nonzero entries.
    pub fn count_nonzeros(&self) -> usize {
        self.data.iter().filter(|&&v| v != T::ZERO).count()
    }

    /// Converts to a triplet builder containing the nonzero entries.
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::with_capacity(self.n_rows, self.n_cols, self.count_nonzeros());
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                let v = self.get(i, j);
                if v != T::ZERO {
                    coo.push(i, j, v).expect("dense dims already validated");
                }
            }
        }
        coo
    }

    /// Maximum elementwise absolute difference against `other`
    /// (test helper).
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.n_rows, other.n_rows);
        assert_eq!(self.n_cols, other.n_cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

impl<T> MatrixShape for DenseMatrix<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: Scalar> SpMv<T> for DenseMatrix<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        crate::traits::check_spmv_dims(self, x, y);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = T::ZERO;
            for (a, &xj) in self.row(i).iter().zip(x) {
                acc += *a * xj;
            }
            *yi = acc;
        }
    }

    fn nnz_stored(&self) -> usize {
        self.data.len()
    }

    fn matrix_bytes(&self) -> usize {
        self.data.len() * T::BYTES
    }
}

// The dense reference is not on any hot path; the default per-column loop
// is all it needs.
impl<T: Scalar> crate::traits::SpMvMulti<T> for DenseMatrix<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let d = DenseMatrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.get(1, 2), 12.0);
        assert_eq!(d.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn spmv_identity() {
        let eye = DenseMatrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let x = [1.0, 2.0, 3.0];
        assert_eq!(eye.spmv(&x), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn spmv_rectangular() {
        // [1 2 3; 4 5 6] * [1, 1, 1] = [6, 15]
        let a = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j + 1) as f64);
        assert_eq!(a.spmv(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn coo_roundtrip_preserves_entries() {
        let d = DenseMatrix::from_fn(4, 4, |i, j| if (i + j) % 3 == 0 { 1.5 } else { 0.0 });
        let back = d.to_coo().to_dense();
        assert_eq!(d.max_abs_diff(&back), 0.0);
    }

    #[test]
    fn profiling_matrix_is_fully_dense() {
        let d = DenseMatrix::<f32>::profiling(8, 8);
        assert_eq!(d.count_nonzeros(), 64);
        assert!(d.data().iter().all(|&v| (1.0..=7.0).contains(&v)));
    }

    #[test]
    fn working_set_includes_vectors() {
        let d = DenseMatrix::<f64>::zeros(2, 3);
        assert_eq!(d.matrix_bytes(), 6 * 8);
        assert_eq!(d.working_set_bytes(), 6 * 8 + 5 * 8);
    }
}
