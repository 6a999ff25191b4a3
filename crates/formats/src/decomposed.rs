//! Decomposed blocking: full blocks without padding + a CSR remainder.
//!
//! "A common practice to avoid padding is to decompose the original input
//! sparse matrix into k smaller matrices, where the first k−1 matrices
//! consist of elements … that follow a common pattern … while the k-th
//! matrix contains the remainder elements" (§II-B). As in the paper,
//! `k = 2` here: the first submatrix holds only *completely full* blocks
//! (so it carries zero padding), the second every remaining nonzero in
//! CSR.

use crate::gather::{bcsd_place, bcsr_place, gather};
use crate::{Bcsd, Bcsr, SpMvAcc, SpMvMultiAcc};
use spmv_core::{Coo, Csr, MatrixShape, Result, Scalar, SpMv, SpMvMulti};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::{BlockShape, KernelImpl};

/// A matrix decomposed into a blocked main part and a CSR remainder.
///
/// `y = A*x` runs as `y = A_main*x; y += A_rest*x` — the submatrices share
/// the input and output vectors but nothing else, which is exactly the
/// locality structure the paper discusses for decomposed methods (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposed<T, M> {
    main: M,
    rest: Csr<T>,
}

/// BCSR-DEC: full `r x c` blocks in BCSR + CSR remainder.
pub type BcsrDec<T> = Decomposed<T, Bcsr<T>>;
/// BCSD-DEC: full diagonal blocks in BCSD + CSR remainder.
pub type BcsdDec<T> = Decomposed<T, Bcsd<T>>;

/// Blocked submatrices that can convert back to CSR (used by
/// [`Decomposed::to_csr`]).
pub trait ToCsrPart<T: Scalar> {
    /// The submatrix's nonzeros as a CSR matrix.
    fn to_csr_part(&self) -> Csr<T>;
}

impl<T: SimdScalar> ToCsrPart<T> for Bcsr<T> {
    fn to_csr_part(&self) -> Csr<T> {
        self.to_csr()
    }
}

impl<T: SimdScalar> ToCsrPart<T> for Bcsd<T> {
    fn to_csr_part(&self) -> Csr<T> {
        self.to_csr()
    }
}

impl<T: Scalar, M: MatrixShape> Decomposed<T, M> {
    /// The blocked submatrix.
    pub fn main(&self) -> &M {
        &self.main
    }

    /// The CSR remainder.
    pub fn rest(&self) -> &Csr<T> {
        &self.rest
    }
}

impl<T: SimdScalar> BcsrDec<T> {
    /// Decomposes `csr` into full aligned `shape` blocks plus a CSR
    /// remainder.
    pub fn from_csr(csr: &Csr<T>, shape: BlockShape, imp: KernelImpl) -> Self {
        let (r, c) = (shape.rows(), shape.cols());
        let mut rest = Coo::with_capacity(csr.n_rows(), csr.n_cols(), 0);
        let blocks = gather(csr, r, r * c, Some(&mut rest), bcsr_place(c));
        Decomposed {
            main: Bcsr::from_parts(csr.n_rows(), csr.n_cols(), shape, imp, blocks),
            rest: Csr::from_coo(&rest),
        }
    }
}

impl<T: SimdScalar> BcsdDec<T> {
    /// Decomposes `csr` into full diagonal blocks of size `b` plus a CSR
    /// remainder.
    pub fn from_csr(csr: &Csr<T>, b: usize, imp: KernelImpl) -> Self {
        assert!((1..=8).contains(&b), "BCSD block size must be in 1..=8");
        let mut rest = Coo::with_capacity(csr.n_rows(), csr.n_cols(), 0);
        let blocks = gather(csr, b, b, Some(&mut rest), bcsd_place(b));
        Decomposed {
            main: Bcsd::from_parts(csr.n_rows(), csr.n_cols(), b, imp, blocks),
            rest: Csr::from_coo(&rest),
        }
    }
}

impl<T: Scalar, M> Decomposed<T, M>
where
    M: SpMvAcc<T>,
{
    /// Fraction of the original nonzeros captured by the blocked part.
    pub fn coverage(&self) -> f64 {
        let total = self.main.nnz_stored() + self.rest.nnz();
        if total == 0 {
            0.0
        } else {
            self.main.nnz_stored() as f64 / total as f64
        }
    }

    /// Reassembles the original matrix by merging the blocked part and
    /// the remainder (the submatrices partition the nonzeros, so this is
    /// an exact inverse of the decomposition).
    pub fn to_csr(&self) -> Csr<T>
    where
        M: ToCsrPart<T>,
    {
        let mut coo = Coo::with_capacity(self.main.n_rows(), self.main.n_cols(), self.nnz_stored());
        for (i, j, v) in self.main.to_csr_part().iter() {
            coo.push(i, j, v).expect("inside matrix");
        }
        for (i, j, v) in self.rest.iter() {
            coo.push(i, j, v).expect("inside matrix");
        }
        Csr::from_coo(&coo)
    }

    /// Checks dimension agreement between the two submatrices.
    pub fn validate(&self) -> Result<()> {
        if self.main.n_rows() != self.rest.n_rows() || self.main.n_cols() != self.rest.n_cols() {
            return Err(spmv_core::Error::InvalidStructure(
                "decomposed submatrices disagree on dimensions".into(),
            ));
        }
        Ok(())
    }
}

impl<T: Scalar, M: MatrixShape> MatrixShape for Decomposed<T, M> {
    fn n_rows(&self) -> usize {
        self.main.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.main.n_cols()
    }
}

impl<T: Scalar, M: SpMvAcc<T>> SpMv<T> for Decomposed<T, M> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        y.fill(T::ZERO);
        self.main.spmv_acc(x, y);
        self.rest.spmv_acc(x, y);
    }

    fn nnz_stored(&self) -> usize {
        self.main.nnz_stored() + self.rest.nnz_stored()
    }

    fn matrix_bytes(&self) -> usize {
        self.main.matrix_bytes() + self.rest.matrix_bytes()
    }

    /// Each of the k = 2 sub-multiplications streams the vectors again, so
    /// the decomposed working set counts them once per submatrix (this is
    /// the `Σ ws_i` of the models' equation (2)).
    fn working_set_bytes(&self) -> usize {
        self.main.working_set_bytes() + self.rest.working_set_bytes()
    }
}

impl<T: Scalar, M: SpMvAcc<T>> SpMvAcc<T> for Decomposed<T, M> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        self.main.spmv_acc(x, y);
        self.rest.spmv_acc(x, y);
    }
}

impl<T: Scalar, M: SpMvMultiAcc<T>> SpMvMulti<T> for Decomposed<T, M> {
    /// Copies each chunk of vectors into k-tuples once and runs both
    /// parts on that copy.
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        y.fill(T::ZERO);
        self.spmv_multi_acc(x, y, k);
    }

    /// As in the single-vector case, each submatrix streams the vectors
    /// again, so the k-vector working set is `Σ ws_i(k)`.
    fn working_set_bytes_multi(&self, k: usize) -> usize {
        self.main.working_set_bytes_multi(k) + self.rest.working_set_bytes_multi(k)
    }
}

impl<T: Scalar, M: SpMvMultiAcc<T>> SpMvMultiAcc<T> for Decomposed<T, M> {
    fn spmv_tuples_acc(&self, xi: &[T], y: &mut [T], kc: usize) {
        self.main.spmv_tuples_acc(xi, y, kc);
        self.rest.spmv_tuples_acc(xi, y, kc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_csr(n: usize, m: usize, seed: u64) -> Csr<f64> {
        let mut coo = Coo::new(n, m);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // A mix of full 2x2 blocks, diagonal runs, and random scatter.
        for bi in 0..n / 4 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let _ = coo.push(4 * bi + di, (4 * bi + dj) % m, 1.0 + bi as f64);
            }
        }
        for i in 0..n.min(m) {
            let _ = coo.push(i, i, 2.0);
        }
        for i in 0..n {
            let _ = coo.push(i, (next() as usize) % m, 0.5 + (next() % 5) as f64);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn bcsr_dec_matches_csr_all_shapes() {
        let csr = fixture_csr(22, 27, 9);
        let x: Vec<f64> = (0..27).map(|i| 1.0 + (i % 4) as f64).collect();
        let want = csr.spmv(&x);
        for shape in BlockShape::search_space() {
            for imp in KernelImpl::ALL {
                let dec = BcsrDec::from_csr(&csr, shape, imp);
                dec.validate().unwrap();
                dec.main().validate().unwrap();
                let got = dec.spmv(&x);
                for (a, g) in want.iter().zip(&got) {
                    assert!((a - g).abs() < 1e-9, "shape {shape} imp {imp}");
                }
            }
        }
    }

    #[test]
    fn bcsd_dec_matches_csr_all_sizes() {
        let csr = fixture_csr(22, 27, 13);
        let x: Vec<f64> = (0..27).map(|i| 1.0 + (i % 4) as f64).collect();
        let want = csr.spmv(&x);
        for b in spmv_kernels::BCSD_SIZES {
            for imp in KernelImpl::ALL {
                let dec = BcsdDec::from_csr(&csr, b, imp);
                dec.validate().unwrap();
                dec.main().validate().unwrap();
                let got = dec.spmv(&x);
                for (a, g) in want.iter().zip(&got) {
                    assert!((a - g).abs() < 1e-9, "b {b} imp {imp}");
                }
            }
        }
    }

    #[test]
    fn main_part_has_zero_padding() {
        let csr = fixture_csr(30, 30, 21);
        for shape in BlockShape::search_space() {
            let dec = BcsrDec::from_csr(&csr, shape, KernelImpl::Scalar);
            assert_eq!(dec.main().padding(), 0, "shape {shape}");
        }
        for b in spmv_kernels::BCSD_SIZES {
            let dec = BcsdDec::from_csr(&csr, b, KernelImpl::Scalar);
            assert_eq!(dec.main().padding(), 0, "b {b}");
        }
    }

    #[test]
    fn nnz_is_conserved() {
        let csr = fixture_csr(25, 25, 4);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(dec.nnz_stored(), csr.nnz());
        let dec = BcsdDec::from_csr(&csr, 4, KernelImpl::Scalar);
        assert_eq!(dec.nnz_stored(), csr.nnz());
    }

    #[test]
    fn pure_block_matrix_goes_entirely_to_main() {
        let mut coo = Coo::new(8, 8);
        for bi in 0..4 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
            }
        }
        let csr = Csr::from_coo(&coo);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(dec.coverage(), 1.0);
        assert_eq!(dec.rest().nnz(), 0);
        assert_eq!(dec.main().n_blocks(), 4);
    }

    #[test]
    fn scattered_matrix_goes_entirely_to_rest() {
        // Isolated entries never form a full 2x2 block.
        let csr = Csr::from_coo(
            &Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (2, 5, 2.0), (6, 3, 3.0)]).unwrap(),
        );
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(dec.coverage(), 0.0);
        assert_eq!(dec.main().n_blocks(), 0);
        assert_eq!(dec.rest().nnz(), 3);
    }

    #[test]
    fn multi_matches_per_column_spmv() {
        let csr = fixture_csr(22, 27, 9);
        for imp in KernelImpl::ALL {
            let bdec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), imp);
            let ddec = BcsdDec::from_csr(&csr, 4, imp);
            for k in [1, 4, 6] {
                let x: Vec<f64> = (0..27 * k).map(|i| 1.0 + (i % 5) as f64).collect();
                let got_b = bdec.spmv_multi(&x, k);
                let got_d = ddec.spmv_multi(&x, k);
                for t in 0..k {
                    let xs = &x[t * 27..(t + 1) * 27];
                    assert_eq!(
                        got_b[t * 22..(t + 1) * 22],
                        bdec.spmv(xs),
                        "bcsr k={k} t={t}"
                    );
                    assert_eq!(
                        got_d[t * 22..(t + 1) * 22],
                        ddec.spmv(xs),
                        "bcsd k={k} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_working_set_sums_submatrices() {
        let csr = fixture_csr(16, 16, 2);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        assert_eq!(
            dec.working_set_bytes_multi(4),
            dec.main().working_set_bytes_multi(4) + dec.rest().working_set_bytes_multi(4)
        );
    }

    #[test]
    fn working_set_counts_vectors_per_submatrix() {
        let csr = fixture_csr(16, 16, 2);
        let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
        let vectors = (16 + 16) * 8;
        assert_eq!(
            dec.working_set_bytes(),
            dec.main().working_set_bytes() + dec.rest().matrix_bytes() + vectors
        );
    }
}
