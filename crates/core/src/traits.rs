//! The kernel interface implemented by every storage format.

use crate::Scalar;

/// Anything with a row/column extent.
pub trait MatrixShape {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Number of columns.
    fn n_cols(&self) -> usize;
}

/// Sparse matrix-vector multiplication, `y = A * x`.
///
/// Implemented by every storage format in the workspace (CSR, BCSR, BCSD,
/// the decomposed variants, 1D-VBL, and VBR), so that the evaluation
/// harness, the performance models, and the parallel driver can treat all
/// of them uniformly.
///
/// Besides the kernel itself the trait exposes the two quantities the
/// performance models need (§IV of the paper):
///
/// * [`nnz_stored`](SpMv::nnz_stored) — the number of *stored* values,
///   including any explicit zero padding the format introduced;
/// * [`working_set_bytes`](SpMv::working_set_bytes) — the algorithm's
///   working set `ws`: every byte streamed from memory during one SpMV
///   (all matrix arrays plus the input and output vectors).
pub trait SpMv<T: Scalar>: MatrixShape {
    /// Computes `y = A * x`, overwriting `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n_cols()` or `y.len() != self.n_rows()`.
    fn spmv_into(&self, x: &[T], y: &mut [T]);

    /// Number of stored values, **including** explicit zero padding.
    ///
    /// For CSR this equals the number of nonzeros; for BCSR it is
    /// `nb * r * c`; for decomposed formats it is the sum over submatrices.
    fn nnz_stored(&self) -> usize;

    /// Bytes occupied by the matrix's own arrays (values + all index
    /// structures), excluding the vectors.
    fn matrix_bytes(&self) -> usize;

    /// The working set `ws` used by the performance models: matrix arrays
    /// plus one input and one output vector.
    fn working_set_bytes(&self) -> usize {
        self.matrix_bytes() + (self.n_rows() + self.n_cols()) * T::BYTES
    }

    /// Convenience wrapper allocating the output vector.
    fn spmv(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.n_rows()];
        self.spmv_into(x, &mut y);
        y
    }
}

/// Multi-vector sparse multiplication, `Y = A * X` (SpMM).
///
/// `X` is a column-major `n_cols × k` block of `k` input vectors and `Y`
/// a column-major `n_rows × k` block of outputs: column `t` of `X` lives
/// at `x[t * n_cols .. (t + 1) * n_cols]` and its product at
/// `y[t * n_rows .. (t + 1) * n_rows]`. Because the vectors are simply
/// concatenated, `k = 1` is layout-identical to [`SpMv::spmv_into`].
///
/// The point of the trait is amortization: a format-aware implementation
/// streams the matrix arrays **once per call** instead of once per vector,
/// turning the memory-bound SpMV of the paper's MEM model into a partially
/// compute-bound kernel. The provided default simply loops
/// [`SpMv::spmv_into`] over columns — correct, but with none of the
/// amortization — so formats override it with fused kernels. The tuned
/// kernels specialize `k ∈ {1, 2, 4, 8}` and chunk other values.
pub trait SpMvMulti<T: Scalar>: SpMv<T> {
    /// Computes `Y = A * X` for `k` vectors, overwriting `y`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `x.len() != n_cols * k`, or
    /// `y.len() != n_rows * k`.
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        check_spmv_multi_dims(self, x, y, k);
        let (m, n) = (self.n_cols(), self.n_rows());
        for (xs, ys) in x
            .chunks_exact(m.max(1))
            .zip(y.chunks_exact_mut(n.max(1)))
            .take(k)
        {
            self.spmv_into(xs, ys);
        }
        // Degenerate extents (m == 0 or n == 0) stream nothing; the only
        // required effect is zeroing y, which the loop above misses when
        // n == 0 (nothing to zero) or m == 0 (no chunks yield).
        if m == 0 {
            y.fill(T::ZERO);
        }
    }

    /// Working set of one `k`-vector call: the matrix arrays are streamed
    /// once, the vectors `k` times (§IV MEM model, generalized).
    fn working_set_bytes_multi(&self, k: usize) -> usize {
        self.matrix_bytes() + k * (self.n_rows() + self.n_cols()) * T::BYTES
    }

    /// Convenience wrapper allocating the `n_rows × k` output block.
    fn spmv_multi(&self, x: &[T], k: usize) -> Vec<T> {
        let mut y = vec![T::ZERO; self.n_rows() * k];
        self.spmv_multi_into(x, &mut y, k);
        y
    }
}

/// Asserts the kernel vector dimensions; shared by all `spmv_into`
/// implementations so the panic message is uniform.
#[inline]
pub fn check_spmv_dims<T: Scalar, M: MatrixShape>(m: &M, x: &[T], y: &[T]) {
    assert_eq!(
        x.len(),
        m.n_cols(),
        "input vector length {} != matrix columns {}",
        x.len(),
        m.n_cols()
    );
    assert_eq!(
        y.len(),
        m.n_rows(),
        "output vector length {} != matrix rows {}",
        y.len(),
        m.n_rows()
    );
}

/// Asserts the multi-vector block dimensions; shared by all
/// `spmv_multi_into` implementations so the panic message is uniform.
#[inline]
pub fn check_spmv_multi_dims<T: Scalar, M: MatrixShape + ?Sized>(
    m: &M,
    x: &[T],
    y: &[T],
    k: usize,
) {
    assert!(k > 0, "k must be at least 1");
    assert_eq!(
        x.len(),
        m.n_cols() * k,
        "input block length {} != matrix columns {} * k {}",
        x.len(),
        m.n_cols(),
        k
    );
    assert_eq!(
        y.len(),
        m.n_rows() * k,
        "output block length {} != matrix rows {} * k {}",
        y.len(),
        m.n_rows(),
        k
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Diag(Vec<f64>);

    impl MatrixShape for Diag {
        fn n_rows(&self) -> usize {
            self.0.len()
        }
        fn n_cols(&self) -> usize {
            self.0.len()
        }
    }

    impl SpMv<f64> for Diag {
        fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
            check_spmv_dims(self, x, y);
            for ((yi, d), xi) in y.iter_mut().zip(&self.0).zip(x) {
                *yi = d * xi;
            }
        }
        fn nnz_stored(&self) -> usize {
            self.0.len()
        }
        fn matrix_bytes(&self) -> usize {
            self.0.len() * 8
        }
    }

    #[test]
    fn default_working_set_adds_vectors() {
        let d = Diag(vec![1.0; 10]);
        assert_eq!(d.working_set_bytes(), 10 * 8 + 20 * 8);
    }

    #[test]
    fn spmv_convenience_allocates() {
        let d = Diag(vec![2.0, 3.0]);
        assert_eq!(d.spmv(&[1.0, 10.0]), vec![2.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "input vector length")]
    fn wrong_x_length_panics() {
        let d = Diag(vec![1.0; 3]);
        let mut y = vec![0.0; 3];
        d.spmv_into(&[1.0; 2], &mut y);
    }

    #[test]
    #[should_panic(expected = "output vector length")]
    fn wrong_y_length_panics() {
        let d = Diag(vec![1.0; 3]);
        let mut y = vec![0.0; 2];
        d.spmv_into(&[1.0; 3], &mut y);
    }

    impl SpMvMulti<f64> for Diag {}

    #[test]
    fn default_multi_matches_per_column_spmv() {
        let d = Diag(vec![2.0, 3.0]);
        // X = [[1, 10], [5, 50]] column-major.
        let y = d.spmv_multi(&[1.0, 10.0, 5.0, 50.0], 2);
        assert_eq!(y, vec![2.0, 30.0, 10.0, 150.0]);
    }

    #[test]
    fn multi_working_set_scales_vector_traffic() {
        let d = Diag(vec![1.0; 10]);
        assert_eq!(d.working_set_bytes_multi(4), 10 * 8 + 4 * 20 * 8);
        assert_eq!(d.working_set_bytes_multi(1), d.working_set_bytes());
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn multi_zero_k_panics() {
        let d = Diag(vec![1.0; 2]);
        let mut y = [];
        d.spmv_multi_into(&[], &mut y, 0);
    }

    #[test]
    #[should_panic(expected = "input block length")]
    fn multi_wrong_x_length_panics() {
        let d = Diag(vec![1.0; 2]);
        let mut y = vec![0.0; 4];
        d.spmv_multi_into(&[1.0; 3], &mut y, 2);
    }
}
