//! Coordinate-format (triplet) matrix builder.

use crate::error::{Error, Result};
use crate::{Index, MatrixShape, Scalar, MAX_INDEX};

/// A sparse matrix under construction, stored as `(row, col, value)`
/// triplets.
///
/// `Coo` is the assembly format: generators and the MatrixMarket reader
/// push entries in arbitrary order (duplicates allowed — they are summed),
/// then convert once to [`crate::Csr`], from which every blocked format is
/// built.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<T> {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(Index, Index, T)>,
}

impl<T: Scalar> Coo<T> {
    /// Creates an empty builder for an `n_rows x n_cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension exceeds [`MAX_INDEX`].
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        assert!(
            n_rows <= MAX_INDEX && n_cols <= MAX_INDEX,
            "matrix dimensions must fit in u32"
        );
        Coo {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Creates a builder with preallocated capacity for `cap` entries.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        let mut coo = Self::new(n_rows, n_cols);
        coo.entries.reserve(cap);
        coo
    }

    /// Adds `value` at `(row, col)`. Duplicate coordinates are summed when
    /// the matrix is finalized; exact zeros are dropped at finalization.
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<()> {
        if row >= self.n_rows || col >= self.n_cols {
            return Err(Error::OutOfBounds {
                row,
                col,
                n_rows: self.n_rows,
                n_cols: self.n_cols,
            });
        }
        if self.entries.len() == MAX_INDEX {
            return Err(Error::IndexOverflow {
                value: self.entries.len() as u64 + 1,
                what: "nnz",
            });
        }
        self.entries.push((row as Index, col as Index, value));
        Ok(())
    }

    /// Builds from an iterator of `(row, col, value)` triplets.
    pub fn from_triplets<I>(n_rows: usize, n_cols: usize, triplets: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize, T)>,
    {
        let mut coo = Self::new(n_rows, n_cols);
        for (r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        Ok(coo)
    }

    /// Number of raw entries pushed so far (before duplicate merging).
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the raw `(row, col, value)` triplets in push order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.entries
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
    }

    /// Sorts entries row-major and sums duplicates, dropping entries whose
    /// merged value is exactly zero.
    ///
    /// Returns the canonical triplet list consumed by
    /// [`Csr::from_coo`](crate::Csr::from_coo).
    pub fn into_sorted_dedup(mut self) -> Vec<(Index, Index, T)> {
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        let mut out: Vec<(Index, Index, T)> = Vec::with_capacity(self.entries.len());
        for (r, c, v) in self.entries {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        out.retain(|&(_, _, v)| v != T::ZERO);
        out
    }

    /// Materializes the matrix as a dense row-major buffer (test helper;
    /// use only on small matrices).
    pub fn to_dense(&self) -> crate::DenseMatrix<T> {
        let mut d = crate::DenseMatrix::zeros(self.n_rows, self.n_cols);
        for &(r, c, v) in &self.entries {
            let cur = d.get(r as usize, c as usize);
            d.set(r as usize, c as usize, cur + v);
        }
        d
    }
}

impl<T> MatrixShape for Coo<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut coo = Coo::<f64>::new(2, 3);
        coo.push(0, 2, 1.5).unwrap();
        coo.push(1, 0, -2.0).unwrap();
        let got: Vec<_> = coo.iter().collect();
        assert_eq!(got, vec![(0, 2, 1.5), (1, 0, -2.0)]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = Coo::<f64>::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(Error::OutOfBounds { row: 2, .. })
        ));
        assert!(matches!(
            coo.push(0, 5, 1.0),
            Err(Error::OutOfBounds { col: 5, .. })
        ));
    }

    #[test]
    fn duplicates_are_summed() {
        let coo = Coo::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let merged = coo.into_sorted_dedup();
        assert_eq!(merged, vec![(0, 0, 3.0), (1, 1, 3.0)]);
    }

    #[test]
    fn merged_zeros_are_dropped() {
        let coo = Coo::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 0, -1.0), (0, 1, 2.0)]).unwrap();
        let merged = coo.into_sorted_dedup();
        assert_eq!(merged, vec![(0, 1, 2.0)]);
    }

    #[test]
    fn sort_is_row_major() {
        let coo = Coo::from_triplets(
            3,
            3,
            vec![(2, 0, 1.0), (0, 2, 2.0), (0, 1, 3.0), (1, 1, 4.0)],
        )
        .unwrap();
        let merged = coo.into_sorted_dedup();
        let coords: Vec<_> = merged.iter().map(|&(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 1), (0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    fn to_dense_accumulates() {
        let coo = Coo::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 1.0)]).unwrap();
        assert_eq!(coo.to_dense().get(0, 0), 2.0);
    }

    #[test]
    fn empty_builder() {
        let coo = Coo::<f32>::new(4, 4);
        assert!(coo.is_empty());
        assert_eq!(coo.raw_len(), 0);
        assert!(coo.into_sorted_dedup().is_empty());
    }
}
