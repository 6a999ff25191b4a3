//! The one block gather behind BCSR, BCSD and their decomposed forms.
//!
//! Both families cut the matrix into bands of `h` rows (the alignment
//! rule `i % h == 0` of §II-A) and group each band's entries into
//! fixed-size blocks. They differ only in the geometry: which block an
//! entry at (row within the band, column) falls in, and which of the
//! block's slots it takes. [`bcsr_place`] and [`bcsd_place`] are those
//! two maps; [`gather`] does the rest for both.

use spmv_core::{Coo, Csr, Index, MatrixShape, Scalar, MAX_INDEX};

/// The blocks gathered from a matrix, band by band.
pub(crate) struct Blocks<T> {
    /// Offset of each band's first block; `n_bands + 1` entries.
    pub brow_ptr: Vec<Index>,
    /// The key of each block (its start column, biased for BCSD), sorted
    /// within a band.
    pub keys: Vec<Index>,
    /// `size` values per block; slots no entry reached hold zeros.
    pub bval: Vec<T>,
    /// Entries of the source matrix placed in these blocks.
    pub nnz: usize,
    /// Slots at least one entry reached: `nnz` less the entries that
    /// repeat an earlier entry's row and column, and so its slot.
    pub filled: usize,
}

/// BCSR's aligned grid of `r x c` blocks: an entry in row `il` of its
/// band and column `j` falls in the block that starts at column
/// `j - j mod c`, in slot `il * c + j mod c` (row-major).
pub(crate) fn bcsr_place(c: usize) -> impl Fn(usize, Index) -> (Index, usize) {
    let ci = c as Index;
    move |il, j| {
        let jc = j % ci;
        (j - jc, il * c + jc as usize)
    }
}

/// BCSD's diagonal blocks of size `b`: an entry in row `t` of its
/// segment and column `j` lies on the diagonal that starts at column
/// `j - t`, in slot `t`. The key biases that start by `+b`, so it stays
/// unsigned at the left edge.
pub(crate) fn bcsd_place(b: usize) -> impl Fn(usize, Index) -> (Index, usize) {
    move |t, j| (j + (b - t) as Index, t)
}

/// Gathers `csr` into blocks of `size` slots over bands of `h` rows;
/// `place(row in band, column)` gives an entry's block key and slot.
///
/// With `rest == None` every block that holds an entry is kept and padded
/// with zeros (BCSR, BCSD). With a `rest`, only blocks with exactly
/// `size` entries are kept and every other entry is pushed to `rest`, in
/// row order (the decomposed forms). A clipped edge block holds fewer
/// than `size` distinct entries, so every kept block of valid input is
/// interior.
///
/// Entries that share a slot (a row that repeats a column, which only
/// `Csr::from_raw_unchecked` admits) add up: a slot that still holds zero
/// takes an entry as it is, and a nonzero slot adds it. Valid input puts
/// at most one entry in a slot, so its values, `-0.0` included, are
/// stored bit for bit. Such a slot counts once in [`Blocks::filled`].
///
/// # Panics
///
/// Panics if the block count overflows the `u32` index type.
pub(crate) fn gather<T: Scalar>(
    csr: &Csr<T>,
    h: usize,
    size: usize,
    mut rest: Option<&mut Coo<T>>,
    place: impl Fn(usize, Index) -> (Index, usize),
) -> Blocks<T> {
    let n_rows = csr.n_rows();
    let mut brow_ptr: Vec<Index> = Vec::with_capacity(n_rows.div_ceil(h) + 1);
    brow_ptr.push(0);
    let (mut keys, mut bval, mut nnz, mut repeats) = (Vec::new(), Vec::new(), 0, 0);

    // Scratch reused across bands: every entry's key and slot, the keys
    // sorted, and the kept columns of a row that is not strictly
    // increasing.
    let mut placed: Vec<(Index, usize)> = Vec::new();
    let mut sorted: Vec<Index> = Vec::new();
    let mut row_cols: Vec<Index> = Vec::new();

    for lo in (0..n_rows).step_by(h) {
        let rows = lo..(lo + h).min(n_rows);
        placed.clear();
        for i in rows.clone() {
            placed.extend(csr.row(i).0.iter().map(|&j| place(i - lo, j)));
        }
        sorted.clear();
        sorted.extend(placed.iter().map(|&(key, _)| key));
        sorted.sort_unstable();

        let base = keys.len();
        keys.extend(
            sorted
                .chunk_by(|a, b| a == b)
                .filter(|run| rest.is_none() || run.len() == size)
                .map(|run| run[0]),
        );
        assert!(keys.len() <= MAX_INDEX, "block count overflows u32");
        bval.resize(keys.len() * size, T::ZERO);

        let kept = &keys[base..];
        let mut placements = placed.iter();
        for i in rows {
            let (cols, vals) = csr.row(i);
            for ((&j, &v), &(key, slot)) in cols.iter().zip(vals).zip(&mut placements) {
                if let Ok(d) = kept.binary_search(&key) {
                    let s = &mut bval[(base + d) * size + slot];
                    *s = if *s == T::ZERO { v } else { *s + v };
                    nnz += 1;
                } else if let Some(rest) = rest.as_deref_mut() {
                    rest.push(i, j as usize, v)
                        .expect("entry of the source matrix");
                }
            }
            // Both geometries give distinct columns of a row distinct
            // slots, so only a repeated column shares one.
            if !cols.is_sorted_by(|a, b| a < b) {
                row_cols.clear();
                row_cols.extend(
                    cols.iter()
                        .filter(|&&j| kept.binary_search(&place(i - lo, j).0).is_ok()),
                );
                row_cols.sort_unstable();
                repeats += row_cols.len() - row_cols.chunk_by(|a, b| a == b).count();
            }
        }
        brow_ptr.push(keys.len() as Index);
    }

    Blocks {
        brow_ptr,
        keys,
        bval,
        nnz,
        filled: nnz - repeats,
    }
}
