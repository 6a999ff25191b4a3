#![warn(missing_docs)]

//! Blocked sparse storage formats.
//!
//! Implements every storage format the paper studies (§II):
//!
//! | Type | Paper name | Category |
//! |---|---|---|
//! | [`spmv_core::Csr`] | CSR | baseline |
//! | [`Bcsr`] | BCSR | fixed-size 2-D blocks, padding |
//! | [`Bcsd`] | BCSD | fixed-size diagonal blocks, padding |
//! | [`BcsrDec`] | BCSR-DEC | decomposed: full BCSR blocks + CSR rest |
//! | [`BcsdDec`] | BCSD-DEC | decomposed: full BCSD blocks + CSR rest |
//! | [`Vbl`] | 1D-VBL | variable-size 1-D blocks, no padding |
//! | [`SellCSigma`] | SELL-C-σ | sliced ELLPACK, σ-windowed row sorting, padding (extension) |
//!
//! BCSR, BCSD and their decomposed forms are built by one block gather:
//! each cuts the matrix into bands of aligned rows and groups a band's
//! entries into fixed-size blocks, and they differ only in how a column
//! maps to a block and a slot. The padded forms keep every block; the
//! decomposed forms keep the full ones and leave the rest to CSR.
//!
//! Every format implements [`spmv_core::SpMv`] plus the accumulate variant
//! [`SpMvAcc`] that decomposed formats need, and the multi-vector (SpMM)
//! counterpart [`spmv_core::SpMvMulti`] that streams the matrix once for
//! a whole batch of input vectors. The formats the selector serves run it
//! through [`SpMvMultiAcc`]'s k-tuple kernels. They expose the
//! block counts and byte totals the performance models consume. The [`stats`] module
//! computes those same quantities *without* materializing a format — that
//! is what makes model-driven format selection cheap.

pub mod bcsd;
pub mod bcsr;
pub mod decomposed;
mod gather;
mod keys;
pub mod sellc;
pub mod stats;
pub mod vbl;

pub use bcsd::Bcsd;
pub use bcsr::Bcsr;
pub use decomposed::{BcsdDec, BcsrDec, Decomposed};
pub use sellc::{sell_sigmas, SellCSigma, SELL_SIGMA_FULL};
pub use stats::{
    bcsd_counts, bcsd_dec_stats, bcsd_lane_counts, bcsd_stats, bcsr_counts, bcsr_dec_stats,
    bcsr_lane_counts, bcsr_run_counts, bcsr_stats, sell_sorted_lengths, sellc_stats,
    sellc_stats_sorted, vbl_stats, BlockCounts, FormatStats, LaneCounts, RUN_WIDTHS,
};
pub use vbl::Vbl;

use core::fmt;
use spmv_core::{Csr, Scalar, SpMv, SpMvMulti};

/// Accumulating SpMV: `y += A * x`.
///
/// Decomposed formats run their k submatrices into one output vector, so
/// each part must add rather than overwrite. Every format in this crate
/// (and CSR) implements it.
pub trait SpMvAcc<T: Scalar>: SpMv<T> {
    /// Computes `y += A * x`.
    ///
    /// # Panics
    ///
    /// Panics on vector length mismatch, like
    /// [`SpMv::spmv_into`].
    fn spmv_acc(&self, x: &[T], y: &mut [T]);
}

impl<T: Scalar> SpMvAcc<T> for Csr<T> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = T::ZERO;
            for (&c, &v) in cols.iter().zip(vals) {
                acc = v.mul_add(x[c as usize], acc);
            }
            *yi += acc;
        }
    }
}

/// Accumulating multi-vector SpMV, `Y += A * X` for `k` column-major
/// vectors, over the k-tuple kernels every servable format has
/// (CSR, BCSR, BCSD, their decomposed forms and SELL-C-σ).
///
/// [`SpMvMultiAcc::spmv_multi_acc`] chunks `k` (8, 4, 2, 1), runs a
/// one-vector chunk through [`SpMvAcc::spmv_acc`], and copies a wider
/// chunk once into this thread's scratch as k-tuples
/// ([`spmv_core::multi`]) for [`SpMvMultiAcc::spmv_tuples_acc`]. A
/// decomposed format hands that one copy to both of its parts.
pub trait SpMvMultiAcc<T: Scalar>: SpMvAcc<T> + SpMvMulti<T> {
    /// Computes `Y += A * X` for `kc ∈ {2, 4, 8}` vectors given as
    /// kc-tuples (`xi[j * kc + t]` is element `j` of vector `t`) into
    /// column-major `y` (`n_rows * kc`).
    ///
    /// # Panics
    ///
    /// Panics if `kc` is not 2, 4 or 8, or on a length mismatch.
    fn spmv_tuples_acc(&self, xi: &[T], y: &mut [T], kc: usize);

    /// Computes `Y += A * X`; layout and panics as in
    /// [`SpMvMulti::spmv_multi_into`].
    fn spmv_multi_acc(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        spmv_core::multi::chunked(
            x,
            y,
            k,
            |xc, yc| self.spmv_acc(xc, yc),
            |xi, yc, kc| self.spmv_tuples_acc(xi, yc, kc),
        );
    }
}

impl<T: Scalar> SpMvMultiAcc<T> for Csr<T> {
    fn spmv_tuples_acc(&self, xi: &[T], y: &mut [T], kc: usize) {
        self.spmv_tuples::<true>(xi, y, kc);
    }
}

/// The storage formats of the paper's evaluation, used as sweep keys by
/// the harness and the performance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FormatKind {
    /// Compressed Sparse Row (baseline).
    Csr,
    /// Blocked CSR with padding.
    Bcsr,
    /// Decomposed BCSR (full blocks + CSR rest).
    BcsrDec,
    /// Blocked Compressed Sparse Diagonal with padding.
    Bcsd,
    /// Decomposed BCSD.
    BcsdDec,
    /// One-dimensional Variable Block Length.
    Vbl,
    /// SELL-C-σ: sliced ELLPACK with σ-windowed row sorting
    /// (padding-dominated extension beyond the paper).
    SellCSigma,
}

impl FormatKind {
    /// The paper's label for this format.
    pub const fn label(self) -> &'static str {
        match self {
            FormatKind::Csr => "CSR",
            FormatKind::Bcsr => "BCSR",
            FormatKind::BcsrDec => "BCSR-DEC",
            FormatKind::Bcsd => "BCSD",
            FormatKind::BcsdDec => "BCSD-DEC",
            FormatKind::Vbl => "1D-VBL",
            FormatKind::SellCSigma => "SELL",
        }
    }

    /// The six formats of the paper's evaluation (Table II order).
    pub const EVALUATED: [FormatKind; 6] = [
        FormatKind::Csr,
        FormatKind::Bcsr,
        FormatKind::BcsrDec,
        FormatKind::Bcsd,
        FormatKind::BcsdDec,
        FormatKind::Vbl,
    ];

    /// The formats covered by the performance models: fixed-size blocking
    /// with or without decomposition, plus CSR as the degenerate 1×1 case.
    /// Variable-size blocking is excluded ("we do not consider variable
    /// size blocking methods", §IV).
    pub const MODELED: [FormatKind; 5] = [
        FormatKind::Csr,
        FormatKind::Bcsr,
        FormatKind::BcsrDec,
        FormatKind::Bcsd,
        FormatKind::BcsdDec,
    ];

    /// Whether this format is decomposed into k = 2 submatrices.
    pub const fn is_decomposed(self) -> bool {
        matches!(self, FormatKind::BcsrDec | FormatKind::BcsdDec)
    }
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    #[test]
    fn csr_spmv_acc_adds() {
        let csr = Csr::from_coo(&Coo::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 1, 3.0)]).unwrap());
        let mut y = vec![10.0, 10.0];
        csr.spmv_acc(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![12.0, 13.0]);
    }

    #[test]
    fn csr_spmv_multi_acc_adds() {
        let csr = Csr::from_coo(&Coo::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 1, 3.0)]).unwrap());
        let mut y = vec![10.0, 10.0, 20.0, 20.0];
        csr.spmv_multi_acc(&[1.0, 1.0, 2.0, 2.0], &mut y, 2);
        assert_eq!(y, vec![12.0, 13.0, 24.0, 26.0]);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(FormatKind::Bcsr.label(), "BCSR");
        assert_eq!(FormatKind::Vbl.label(), "1D-VBL");
        assert_eq!(FormatKind::BcsdDec.label(), "BCSD-DEC");
    }

    #[test]
    fn modeled_excludes_variable_size() {
        assert!(!FormatKind::MODELED.contains(&FormatKind::Vbl));
        assert!(FormatKind::MODELED.contains(&FormatKind::Csr));
    }

    #[test]
    fn decomposed_flag() {
        assert!(FormatKind::BcsrDec.is_decomposed());
        assert!(FormatKind::BcsdDec.is_decomposed());
        assert!(!FormatKind::Bcsr.is_decomposed());
        assert!(!FormatKind::Csr.is_decomposed());
    }
}
