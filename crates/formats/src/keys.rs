//! Tables indexed by block key, sized by the keys a matrix uses.
//!
//! The lane passes of [`crate::stats`] and the block gather keep one
//! table row per block key: a block column, a diagonal or a block start.
//! The key range grows with the column count, which nothing else in a CSR
//! matrix pays for: a 2 x 4·10⁹ matrix with two nonzeros has 4·10⁹ block
//! columns, and a 16-byte row per key would ask for 64 GB. When the key
//! range is longer than the matrix's own arrays, [`KeyRows::new`] ranks
//! the keys the entries use instead, and a table needs one row per
//! distinct key.

use spmv_core::{Csr, Index, MatrixShape, Scalar};

/// Where an entry's key finds its table row.
pub(crate) enum KeyRows {
    /// The key is the row: a table has one row per key of the range.
    Direct,
    /// Entry `e` (its position in `col_ind`) has row `ranks[e]`, its
    /// key's rank among the distinct keys of the matrix, and `keys[row]`
    /// is the key of a row, ascending.
    Ranked { ranks: Vec<u32>, keys: Vec<usize> },
}

impl KeyRows {
    /// The rows for keys `key(i, j)` in `0..n_keys` of the entries of
    /// `csr`: direct while the range has no more keys than the matrix has
    /// entries and row pointers, ranked past that.
    pub(crate) fn new<T: Scalar>(
        csr: &Csr<T>,
        n_keys: usize,
        key: impl Fn(usize, Index) -> usize,
    ) -> Self {
        if n_keys <= csr.nnz() + csr.n_rows() + 1 {
            return KeyRows::Direct;
        }
        let (row_ptr, col_ind) = (csr.row_ptr(), csr.col_ind());
        // Entries are addressed by `u32` row pointers, so every position
        // and rank fits a `u32`.
        let mut order: Vec<(usize, u32)> = Vec::with_capacity(col_ind.len());
        for i in 0..csr.n_rows() {
            let entries = row_ptr[i]..row_ptr[i + 1];
            let cols = &col_ind[entries.start as usize..entries.end as usize];
            order.extend(cols.iter().zip(entries).map(|(&j, e)| (key(i, j), e)));
        }
        order.sort_unstable();
        let mut ranks = vec![0; order.len()];
        let mut keys = Vec::new();
        for (k, e) in order {
            if keys.last() != Some(&k) {
                keys.push(k);
            }
            ranks[e as usize] = (keys.len() - 1) as u32;
        }
        KeyRows::Ranked { ranks, keys }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_narrow_key_range_indexes_directly() {
        let csr = Csr::from_raw(2, 8, vec![0, 2, 3], vec![1, 7, 0], vec![1.0; 3]).unwrap();
        assert!(matches!(
            KeyRows::new(&csr, 6, |_, j| j as usize),
            KeyRows::Direct
        ));
    }

    #[test]
    fn a_wide_key_range_ranks_the_keys_in_use() {
        // Row 2 is out of order, as `Csr::from_raw_unchecked` allows.
        let n_cols = 4_000_000_000;
        let csr = Csr::from_raw_unchecked(
            3,
            n_cols,
            vec![0, 2, 2, 4],
            vec![5, 3_999_999_999, 7, 5],
            vec![1.0; 4],
        )
        .unwrap();
        // Keys by block column of width 2: 2, 1999999999, 3, 2.
        let KeyRows::Ranked { ranks, keys } = KeyRows::new(&csr, n_cols / 2, |_, j| j as usize / 2)
        else {
            panic!("a key range of 2·10⁹ for four entries must be ranked");
        };
        assert_eq!(keys, [2, 3, 1_999_999_999]);
        assert_eq!(ranks, [0, 2, 1, 0]);
    }
}
