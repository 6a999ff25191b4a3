//! Structural analysis of sparse matrices.
//!
//! Summarizes the properties that drive format choice and model
//! behaviour — row-length distribution, bandwidth, diagonal content,
//! symmetry — in one pass over the CSR structure. The suite report
//! example and the test suite use it to verify that each generated
//! stand-in actually has the structure its Table I original is chosen
//! for; it is equally useful on real matrices loaded from MatrixMarket.

use spmv_core::{Csr, MatrixShape, Scalar};

/// One-pass structural summary of a sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixAnalysis {
    /// Rows.
    pub n_rows: usize,
    /// Columns.
    pub n_cols: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Rows with no nonzeros.
    pub empty_rows: usize,
    /// Minimum nonzeros over non-empty rows (0 when all rows are empty).
    pub min_row_nnz: usize,
    /// Mean nonzeros per row.
    pub avg_row_nnz: f64,
    /// Maximum nonzeros in a row.
    pub max_row_nnz: usize,
    /// Matrix bandwidth: `max |i - j|` over nonzeros.
    pub bandwidth: usize,
    /// Fraction of nonzeros on the main diagonal.
    pub diagonal_fraction: f64,
    /// Mean length of maximal horizontal nonzero runs (1D-VBL blocks
    /// before 255-chunking).
    pub avg_run_length: f64,
    /// Whether the *pattern* is structurally symmetric (every `(i, j)`
    /// has a `(j, i)`); only meaningful for square matrices.
    pub pattern_symmetric: bool,
}

impl MatrixAnalysis {
    /// Row-length skew: `max_row_nnz / avg_row_nnz` (1 for perfectly
    /// uniform rows; large for power-law degree distributions).
    pub fn row_skew(&self) -> f64 {
        if self.avg_row_nnz == 0.0 {
            1.0
        } else {
            self.max_row_nnz as f64 / self.avg_row_nnz
        }
    }

    /// Whether rows are short enough for loop overheads to dominate the
    /// kernel — the regime where the paper's models under-predict
    /// (§V-B discussion).
    pub fn is_short_row_dominated(&self) -> bool {
        self.avg_row_nnz < 6.0
    }
}

/// Analyzes `csr` in `O(nnz)` (plus `O(nnz)` for the symmetry check via
/// one transpose).
pub fn analyze<T: Scalar>(csr: &Csr<T>) -> MatrixAnalysis {
    let n_rows = csr.n_rows();
    let n_cols = csr.n_cols();
    let nnz = csr.nnz();

    let mut empty_rows = 0usize;
    let mut min_row_nnz = usize::MAX;
    let mut max_row_nnz = 0usize;
    let mut bandwidth = 0usize;
    let mut diag = 0usize;
    let mut runs = 0usize;

    for i in 0..n_rows {
        let (cols, _) = csr.row(i);
        if cols.is_empty() {
            empty_rows += 1;
        } else {
            min_row_nnz = min_row_nnz.min(cols.len());
            max_row_nnz = max_row_nnz.max(cols.len());
        }
        let mut prev: Option<u32> = None;
        for &j in cols {
            bandwidth = bandwidth.max((j as i64 - i as i64).unsigned_abs() as usize);
            if j as usize == i {
                diag += 1;
            }
            if prev.is_none_or(|p| j != p + 1) {
                runs += 1;
            }
            prev = Some(j);
        }
    }
    if min_row_nnz == usize::MAX {
        min_row_nnz = 0;
    }

    // Pattern symmetry: compare the column pattern with the transpose's.
    let pattern_symmetric = if n_rows == n_cols && nnz > 0 {
        let t = csr.transpose();
        (0..n_rows).all(|i| csr.row(i).0 == t.row(i).0)
    } else {
        n_rows == n_cols
    };

    MatrixAnalysis {
        n_rows,
        n_cols,
        nnz,
        empty_rows,
        min_row_nnz,
        avg_row_nnz: if n_rows == 0 {
            0.0
        } else {
            nnz as f64 / n_rows as f64
        },
        max_row_nnz,
        bandwidth,
        diagonal_fraction: if nnz == 0 {
            0.0
        } else {
            diag as f64 / nnz as f64
        },
        avg_run_length: if runs == 0 {
            0.0
        } else {
            nnz as f64 / runs as f64
        },
        pattern_symmetric,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GenSpec;
    use spmv_core::Coo;

    #[test]
    fn analyzes_a_known_matrix() {
        // [1 1 0 0]
        // [0 0 0 1]
        // [0 0 0 0]
        // [1 0 0 1]
        let csr = Csr::from_coo(
            &Coo::from_triplets(
                4,
                4,
                vec![
                    (0, 0, 1.0),
                    (0, 1, 1.0),
                    (1, 3, 1.0),
                    (3, 0, 1.0),
                    (3, 3, 1.0),
                ],
            )
            .unwrap(),
        );
        let a = analyze(&csr);
        assert_eq!(a.nnz, 5);
        assert_eq!(a.empty_rows, 1);
        assert_eq!(a.min_row_nnz, 1);
        assert_eq!(a.max_row_nnz, 2);
        assert_eq!(a.bandwidth, 3); // (3,0)
        assert_eq!(a.diagonal_fraction, 2.0 / 5.0);
        // Runs: [0,1] (1 run), [3], [0], [3] -> 4 runs over 5 nnz.
        assert!((a.avg_run_length - 5.0 / 4.0).abs() < 1e-12);
        assert!(!a.pattern_symmetric); // (1,3) has no (3,1)
    }

    #[test]
    fn stencils_are_symmetric_and_banded() {
        let csr = GenSpec::Stencil2d { nx: 9, ny: 7 }.build(0);
        let a = analyze(&csr);
        assert!(a.pattern_symmetric);
        assert_eq!(a.bandwidth, 9); // +/- nx
        assert_eq!(a.max_row_nnz, 5);
        assert!(a.is_short_row_dominated());
    }

    #[test]
    fn power_law_has_high_skew() {
        let a = analyze(
            &GenSpec::PowerLaw {
                n: 600,
                avg_deg: 5,
                alpha: 1.7,
            }
            .build(2),
        );
        assert!(a.row_skew() > 3.0, "skew = {}", a.row_skew());
    }

    #[test]
    fn fem_blocks_have_long_runs() {
        let a = analyze(
            &GenSpec::FemBlocks {
                nodes: 50,
                dof: 3,
                neighbors: 5,
            }
            .build(1),
        );
        assert!(
            a.avg_run_length >= 3.0,
            "3-dof FEM rows must run in multiples of 3, got {}",
            a.avg_run_length
        );
        assert!(!a.is_short_row_dominated());
    }

    #[test]
    fn circuit_has_full_diagonal_and_symmetry() {
        let a = analyze(
            &GenSpec::Circuit {
                n: 120,
                off_per_row: 2,
            }
            .build(4),
        );
        assert!(a.pattern_symmetric, "nodal stamps are symmetric");
        assert!(a.diagonal_fraction > 0.1);
        assert_eq!(a.empty_rows, 0);
    }

    #[test]
    fn empty_and_rectangular_matrices() {
        let a = analyze(&Csr::<f64>::from_coo(&Coo::new(0, 0)));
        assert_eq!(a.nnz, 0);
        assert_eq!(a.avg_run_length, 0.0);
        assert!(a.pattern_symmetric); // vacuously square

        let rect = analyze(
            &GenSpec::Lp {
                rows: 10,
                cols: 50,
                runs_per_row: 2,
                run_len: 3,
            }
            .build(1),
        );
        assert!(!rect.pattern_symmetric, "rectangular is never symmetric");
    }

    #[test]
    fn diag_runs_are_fully_diagonal_dominant() {
        let a = analyze(&GenSpec::DiagRuns { n: 80, n_diags: 1 }.build(0));
        assert_eq!(a.diagonal_fraction, 1.0);
        assert_eq!(a.bandwidth, 0);
    }
}
